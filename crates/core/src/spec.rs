//! Script declarations: role definitions, the builder, and validation.

use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::ctx::RoleCtx;
use crate::policy::{CriticalEntry, CriticalSet, Initiation, Termination};
use crate::{FamilyHandle, RoleHandle, RoleId, ScriptError};

/// The declared size of a role family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilySize {
    /// Exactly this many members, `recipient[0..n]`.
    Fixed(usize),
    /// An *open-ended* family (paper §V future work): membership is
    /// determined per performance, optionally bounded by `max`.
    Open {
        /// Upper bound on members per performance, if any.
        max: Option<usize>,
    },
}

/// An expanded critical set: the exact role ids required, plus
/// `(family, minimum count)` requirements for `FamilyAtLeast` entries.
pub(crate) type ExpandedCritical = (BTreeSet<RoleId>, Vec<(String, usize)>);

/// The most members of one bounded open family a performance's cast
/// table is presized for.
const OPEN_ROOM: usize = 64;

/// Type-erased role body: `(ctx, params, result)`, where `params` is the
/// enroller's `Option<P>`, taken, and `result` its `Option<O>`, filled.
pub(crate) type ErasedBody<M> = Arc<
    dyn Fn(&mut RoleCtx<M>, &mut dyn Any, &mut dyn Any) -> Result<(), ScriptError> + Send + Sync,
>;

/// One role (or role family) declaration.
pub(crate) struct RoleDef<M> {
    pub(crate) name: String,
    /// `None` for singleton roles.
    pub(crate) family: Option<FamilySize>,
    pub(crate) body: ErasedBody<M>,
    /// Rust type name of the parameters, for error reporting.
    pub(crate) param_ty: &'static str,
}

impl<M> fmt::Debug for RoleDef<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoleDef")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("param_ty", &self.param_ty)
            .finish()
    }
}

/// The validated, immutable declaration of a script.
pub(crate) struct ScriptSpec<M> {
    pub(crate) name: String,
    pub(crate) roles: Vec<RoleDef<M>>,
    pub(crate) initiation: Initiation,
    pub(crate) termination: Termination,
    /// Alternative critical role sets. Empty only for scripts containing
    /// open families with no explicit critical set, in which case the
    /// cast freezes solely via `seal_cast`.
    pub(crate) critical: Vec<CriticalSet>,
    /// [`ScriptSpec::fixed_role_ids`], computed at build.
    fixed_ids: Vec<RoleId>,
    /// [`ScriptSpec::expanded_critical`], computed at build.
    expanded: Vec<ExpandedCritical>,
    /// [`ScriptSpec::cast_room`], computed at build.
    cast_room: usize,
}

impl<M> ScriptSpec<M> {
    pub(crate) fn role_def(&self, name: &str) -> Option<&RoleDef<M>> {
        self.roles.iter().find(|r| r.name == name)
    }

    /// All concrete role ids of fixed roles and families (open families
    /// contribute none).
    pub(crate) fn fixed_role_ids(&self) -> &[RoleId] {
        &self.fixed_ids
    }

    /// The room a performance's cast table is presized to: every fixed
    /// role, and each bounded open family's members up to `OPEN_ROOM`.
    pub(crate) fn cast_room(&self) -> usize {
        self.cast_room
    }

    pub(crate) fn has_open_family(&self) -> bool {
        self.roles
            .iter()
            .any(|r| matches!(r.family, Some(FamilySize::Open { .. })))
    }

    /// Checks that a role id refers to a declared role and is in range.
    pub(crate) fn validate_role_id(&self, id: &RoleId) -> Result<(), ScriptError> {
        let def = self
            .role_def(id.name())
            .ok_or_else(|| ScriptError::UnknownRole(id.clone()))?;
        match (def.family, id.index()) {
            (None, None) => Ok(()),
            (Some(FamilySize::Fixed(n)), Some(i)) if i < n => Ok(()),
            (Some(FamilySize::Open { max }), Some(i)) if max.is_none_or(|m| i < m) => Ok(()),
            _ => Err(ScriptError::UnknownRole(id.clone())),
        }
    }

    /// Each critical set expanded against this spec's family sizes.
    pub(crate) fn expanded_critical(&self) -> &[ExpandedCritical] {
        &self.expanded
    }
}

impl<M> fmt::Debug for ScriptSpec<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScriptSpec")
            .field("name", &self.name)
            .field("roles", &self.roles)
            .field("initiation", &self.initiation)
            .field("termination", &self.termination)
            .field("critical", &self.critical)
            .finish()
    }
}

/// Incrementally declares a script: roles, families, policies, critical
/// sets. Obtained from [`Script::builder`](crate::Script::builder).
///
/// # Example
///
/// ```
/// use script_core::{Initiation, Script, Termination};
///
/// let mut b = Script::<u64>::builder("relay");
/// let left = b.role("left", |ctx, n: u64| {
///     ctx.send(&"right".into(), n + 1)?;
///     Ok(())
/// });
/// let right = b.role("right", |ctx, ()| ctx.recv_from(&"left".into()));
/// b.initiation(Initiation::Delayed).termination(Termination::Delayed);
/// let script = b.build()?;
/// # let _ = (left, right, script);
/// # Ok::<(), script_core::ScriptError>(())
/// ```
pub struct ScriptBuilder<M> {
    name: String,
    roles: Vec<RoleDef<M>>,
    initiation: Initiation,
    termination: Termination,
    critical: Vec<CriticalSet>,
}

impl<M> fmt::Debug for ScriptBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScriptBuilder")
            .field("name", &self.name)
            .field("roles", &self.roles)
            .finish()
    }
}

impl<M: Send + Clone + 'static> ScriptBuilder<M> {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            roles: Vec::new(),
            initiation: Initiation::default(),
            termination: Termination::default(),
            critical: Vec::new(),
        }
    }

    fn erase<P, O, F>(body: F) -> ErasedBody<M>
    where
        P: Send + 'static,
        O: Send + 'static,
        F: Fn(&mut RoleCtx<M>, P) -> Result<O, ScriptError> + Send + Sync + 'static,
    {
        Arc::new(move |ctx, params, result| {
            let Some(params) = params.downcast_mut::<Option<P>>().and_then(Option::take) else {
                return Err(ScriptError::ParamType {
                    role: ctx.role().clone(),
                    expected: std::any::type_name::<P>(),
                });
            };
            let Some(result) = result.downcast_mut::<Option<O>>() else {
                return Err(ScriptError::ParamType {
                    role: RoleId::new("<output>"),
                    expected: std::any::type_name::<O>(),
                });
            };
            *result = Some(body(ctx, params)?);
            Ok(())
        })
    }

    /// Declares a singleton role with the given body.
    ///
    /// The body receives a communication context and the enrollment's
    /// data parameters `P`, and produces result parameters `O` (the
    /// paper's `VAR` parameters), which `enroll` hands back to the
    /// enrolling process.
    pub fn role<P, O, F>(&mut self, name: impl Into<String>, body: F) -> RoleHandle<M, P, O>
    where
        P: Send + 'static,
        O: Send + 'static,
        F: Fn(&mut RoleCtx<M>, P) -> Result<O, ScriptError> + Send + Sync + 'static,
    {
        let name = name.into();
        self.roles.push(RoleDef {
            name: name.clone(),
            family: None,
            body: Self::erase(body),
            param_ty: std::any::type_name::<P>(),
        });
        RoleHandle {
            id: RoleId::new(name),
            _marker: PhantomData,
        }
    }

    /// Declares an indexed family of `size` roles sharing one body.
    ///
    /// The body learns which member it is from
    /// [`RoleCtx::role`](crate::RoleCtx::role).
    pub fn family<P, O, F>(
        &mut self,
        name: impl Into<String>,
        size: usize,
        body: F,
    ) -> FamilyHandle<M, P, O>
    where
        P: Send + 'static,
        O: Send + 'static,
        F: Fn(&mut RoleCtx<M>, P) -> Result<O, ScriptError> + Send + Sync + 'static,
    {
        let name = name.into();
        self.roles.push(RoleDef {
            name: name.clone(),
            family: Some(FamilySize::Fixed(size)),
            body: Self::erase(body),
            param_ty: std::any::type_name::<P>(),
        });
        FamilyHandle {
            name,
            size: FamilySize::Fixed(size),
            _marker: PhantomData,
        }
    }

    /// Declares an *open-ended* family (paper §V): the member count is
    /// determined per performance, optionally capped at `max`.
    ///
    /// Open families require [`Initiation::Immediate`]; performances
    /// freeze their cast via an explicit critical set or
    /// [`Instance::seal_cast`](crate::Instance::seal_cast).
    pub fn open_family<P, O, F>(
        &mut self,
        name: impl Into<String>,
        max: Option<usize>,
        body: F,
    ) -> FamilyHandle<M, P, O>
    where
        P: Send + 'static,
        O: Send + 'static,
        F: Fn(&mut RoleCtx<M>, P) -> Result<O, ScriptError> + Send + Sync + 'static,
    {
        let name = name.into();
        self.roles.push(RoleDef {
            name: name.clone(),
            family: Some(FamilySize::Open { max }),
            body: Self::erase(body),
            param_ty: std::any::type_name::<P>(),
        });
        FamilyHandle {
            name,
            size: FamilySize::Open { max },
            _marker: PhantomData,
        }
    }

    /// Sets the initiation policy (default [`Initiation::Delayed`]).
    pub fn initiation(&mut self, initiation: Initiation) -> &mut Self {
        self.initiation = initiation;
        self
    }

    /// Sets the termination policy (default [`Termination::Delayed`]).
    pub fn termination(&mut self, termination: Termination) -> &mut Self {
        self.termination = termination;
        self
    }

    /// Adds an alternative critical role set. If none are added, the
    /// entire collection of (fixed) roles is critical, as in the paper.
    pub fn critical_set(&mut self, set: CriticalSet) -> &mut Self {
        self.critical.push(set);
        self
    }

    /// Validates the declaration and produces an immutable
    /// [`Script`](crate::Script).
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError::InvalidSpec`] when the declaration is
    /// inconsistent: no roles, duplicate role names, an empty fixed
    /// family, critical entries naming unknown roles or out-of-range
    /// members, open families or `FamilyAtLeast` sets combined with
    /// delayed initiation, or an explicitly empty critical set.
    pub fn build(self) -> Result<crate::Script<M>, ScriptError> {
        let invalid = |msg: String| Err(ScriptError::InvalidSpec(msg));
        if self.roles.is_empty() {
            return invalid(format!("script '{}' declares no roles", self.name));
        }
        {
            let mut seen = BTreeSet::new();
            for def in &self.roles {
                if !seen.insert(def.name.clone()) {
                    return invalid(format!("duplicate role name '{}'", def.name));
                }
                if def.family == Some(FamilySize::Fixed(0)) {
                    return invalid(format!("family '{}' has size 0", def.name));
                }
                if let Some(FamilySize::Open { max: Some(0) }) = def.family {
                    return invalid(format!("open family '{}' has max 0", def.name));
                }
            }
        }
        let find = |name: &str| self.roles.iter().find(|r| r.name == name);
        for cs in &self.critical {
            if cs.is_empty() {
                return invalid("critical set with no entries".into());
            }
            for entry in &cs.entries {
                match entry {
                    CriticalEntry::Role(n) => match find(n) {
                        Some(def) if def.family.is_none() => {}
                        Some(_) => {
                            return invalid(format!(
                                "critical entry '{n}' names a family; use family()/member()"
                            ))
                        }
                        None => return invalid(format!("critical entry '{n}' unknown")),
                    },
                    CriticalEntry::Member(n, i) => match find(n).and_then(|d| d.family) {
                        Some(FamilySize::Fixed(size)) if *i < size => {}
                        Some(FamilySize::Open { max }) if max.is_none_or(|m| *i < m) => {}
                        _ => return invalid(format!("critical member '{n}[{i}]' out of range")),
                    },
                    CriticalEntry::Family(n) => match find(n).and_then(|d| d.family) {
                        Some(FamilySize::Fixed(_)) => {}
                        Some(FamilySize::Open { .. }) => {
                            return invalid(format!(
                                "critical family '{n}' is open-ended; use family_at_least()"
                            ))
                        }
                        None => return invalid(format!("critical family '{n}' unknown")),
                    },
                    CriticalEntry::FamilyAtLeast(n, k) => {
                        match find(n).and_then(|d| d.family) {
                            Some(FamilySize::Fixed(size)) if *k <= size && *k > 0 => {}
                            Some(FamilySize::Open { max })
                                if *k > 0 && max.is_none_or(|m| *k <= m) => {}
                            _ => {
                                return invalid(format!(
                                    "critical 'at least {k} of {n}' is unsatisfiable"
                                ))
                            }
                        }
                        if self.initiation == Initiation::Delayed {
                            return invalid(
                                "family_at_least critical sets require immediate initiation".into(),
                            );
                        }
                    }
                }
            }
        }
        let has_open = self
            .roles
            .iter()
            .any(|r| matches!(r.family, Some(FamilySize::Open { .. })));
        if has_open && self.initiation == Initiation::Delayed {
            return invalid("open families require immediate initiation".into());
        }
        let mut critical = self.critical;
        if critical.is_empty() && !has_open {
            // Default: the entire collection of roles is critical.
            let mut cs = CriticalSet::new();
            for def in &self.roles {
                cs = match def.family {
                    None => cs.role(def.name.clone()),
                    Some(_) => cs.family(def.name.clone()),
                };
            }
            critical.push(cs);
        }
        // Every enrollment consults both tables; they depend on the
        // declaration alone, so they are built here, once.
        let mut fixed_ids = Vec::new();
        for def in &self.roles {
            match def.family {
                None => fixed_ids.push(RoleId::new(&def.name)),
                Some(FamilySize::Fixed(n)) => {
                    fixed_ids.extend((0..n).map(|i| RoleId::indexed(&def.name, i)))
                }
                Some(FamilySize::Open { .. }) => {}
            }
        }
        let sizes = |name: &str| match find(name).and_then(|d| d.family) {
            Some(FamilySize::Fixed(n)) => Some(n),
            _ => None,
        };
        let expanded = critical.iter().map(|cs| cs.expand(&sizes)).collect();
        let open_room: usize = self
            .roles
            .iter()
            .map(|def| match def.family {
                Some(FamilySize::Open { max: Some(m) }) => m.min(OPEN_ROOM),
                _ => 0,
            })
            .sum();
        Ok(crate::Script::from_spec(ScriptSpec {
            name: self.name,
            roles: self.roles,
            initiation: self.initiation,
            termination: self.termination,
            critical,
            cast_room: fixed_ids.len() + open_room,
            fixed_ids,
            expanded,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Script;

    fn noop_role(b: &mut ScriptBuilder<u8>, name: &str) -> RoleHandle<u8, (), ()> {
        b.role(name, |_ctx, ()| Ok(()))
    }

    #[test]
    fn build_minimal_script() {
        let mut b = Script::<u8>::builder("s");
        noop_role(&mut b, "only");
        let script = b.build().unwrap();
        assert_eq!(script.name(), "s");
    }

    #[test]
    fn empty_script_rejected() {
        let b = Script::<u8>::builder("empty");
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn duplicate_role_rejected() {
        let mut b = Script::<u8>::builder("dup");
        noop_role(&mut b, "x");
        noop_role(&mut b, "x");
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn zero_size_family_rejected() {
        let mut b = Script::<u8>::builder("z");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 0, |_ctx, ()| Ok(()));
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn unknown_critical_role_rejected() {
        let mut b = Script::<u8>::builder("c");
        noop_role(&mut b, "a");
        b.critical_set(CriticalSet::new().role("ghost"));
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn critical_member_out_of_range_rejected() {
        let mut b = Script::<u8>::builder("c");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 2, |_ctx, ()| Ok(()));
        b.critical_set(CriticalSet::new().member("f", 2));
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn open_family_with_delayed_initiation_rejected() {
        let mut b = Script::<u8>::builder("o");
        let _f: FamilyHandle<u8, (), ()> = b.open_family("f", None, |_ctx, ()| Ok(()));
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn open_family_with_immediate_initiation_ok() {
        let mut b = Script::<u8>::builder("o");
        let _f: FamilyHandle<u8, (), ()> = b.open_family("f", Some(8), |_ctx, ()| Ok(()));
        b.initiation(Initiation::Immediate);
        assert!(b.build().is_ok());
    }

    #[test]
    fn at_least_requires_immediate() {
        let mut b = Script::<u8>::builder("al");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 3, |_ctx, ()| Ok(()));
        b.critical_set(CriticalSet::new().family_at_least("f", 2));
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn unsatisfiable_at_least_rejected() {
        let mut b = Script::<u8>::builder("al");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 3, |_ctx, ()| Ok(()));
        b.initiation(Initiation::Immediate);
        b.critical_set(CriticalSet::new().family_at_least("f", 4));
        assert!(matches!(b.build(), Err(ScriptError::InvalidSpec(_))));
    }

    #[test]
    fn default_critical_set_covers_all_roles() {
        let mut b = Script::<u8>::builder("d");
        noop_role(&mut b, "a");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 2, |_ctx, ()| Ok(()));
        let script = b.build().unwrap();
        let expanded = script.spec().expanded_critical();
        assert_eq!(expanded.len(), 1);
        let (exact, at_least) = &expanded[0];
        assert_eq!(exact.len(), 3);
        assert!(at_least.is_empty());
    }

    #[test]
    fn validate_role_ids() {
        let mut b = Script::<u8>::builder("v");
        noop_role(&mut b, "a");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 2, |_ctx, ()| Ok(()));
        let script = b.build().unwrap();
        let spec = script.spec();
        assert!(spec.validate_role_id(&RoleId::new("a")).is_ok());
        assert!(spec.validate_role_id(&RoleId::indexed("f", 1)).is_ok());
        assert!(spec.validate_role_id(&RoleId::indexed("f", 2)).is_err());
        assert!(spec.validate_role_id(&RoleId::new("f")).is_err());
        assert!(spec.validate_role_id(&RoleId::indexed("a", 0)).is_err());
        assert!(spec.validate_role_id(&RoleId::new("ghost")).is_err());
    }

    #[test]
    fn a_handle_of_other_types_is_a_param_type_error() {
        let mut b = Script::<u8>::builder("typed");
        let typed: RoleHandle<u8, u64, u64> = b.role("r", |_ctx, n: u64| Ok(n));
        let inst = b.build().unwrap().instance();
        // Handles to a role of the same name in other scripts.
        let params: RoleHandle<u8, String, u64> =
            Script::<u8>::builder("typed").role("r", |_ctx, _: String| Ok(0));
        let result: RoleHandle<u8, u64, String> =
            Script::<u8>::builder("typed").role("r", |_ctx, _: u64| Ok(String::new()));
        assert_eq!(
            inst.enroll(&params, "one".into()),
            Err(ScriptError::ParamType {
                role: RoleId::new("r"),
                expected: std::any::type_name::<u64>(),
            })
        );
        assert_eq!(
            inst.enroll(&result, 1),
            Err(ScriptError::ParamType {
                role: RoleId::new("<output>"),
                expected: std::any::type_name::<u64>(),
            })
        );
        assert_eq!(inst.enroll(&typed, 1), Ok(1));
    }

    #[test]
    fn fixed_role_ids_enumerated() {
        let mut b = Script::<u8>::builder("e");
        noop_role(&mut b, "a");
        let _f: FamilyHandle<u8, (), ()> = b.family("f", 2, |_ctx, ()| Ok(()));
        let _o: FamilyHandle<u8, (), ()> = b.open_family("o", None, |_ctx, ()| Ok(()));
        b.initiation(Initiation::Immediate);
        b.critical_set(CriticalSet::new().role("a"));
        let script = b.build().unwrap();
        let ids = script.spec().fixed_role_ids();
        assert_eq!(ids.len(), 3);
        assert!(script.spec().has_open_family());
    }
}
