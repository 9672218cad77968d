//! Identifiers for roles, processes, and performances.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// The identity of a role within a script: a name, optionally with an
/// index when the role belongs to an indexed family.
///
/// The paper writes singleton roles as `sender` and family members as
/// `recipient[3]`; [`RoleId`] renders the same way in its `Display`
/// implementation.
///
/// # Example
///
/// ```
/// use script_core::RoleId;
///
/// let sender = RoleId::new("sender");
/// let third = RoleId::indexed("recipient", 3);
/// assert_eq!(sender.to_string(), "sender");
/// assert_eq!(third.to_string(), "recipient[3]");
/// assert_eq!(third.index(), Some(3));
/// ```
///
/// The name is shared, so a clone — the engine makes several per role
/// per performance — is a reference-count bump, not a string copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RoleId {
    name: Arc<str>,
    index: Option<usize>,
}

impl RoleId {
    /// A singleton role (no index).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into().into(),
            index: None,
        }
    }

    /// Member `index` of the role family `name`.
    pub fn indexed(name: impl Into<String>, index: usize) -> Self {
        Self {
            name: name.into().into(),
            index: Some(index),
        }
    }

    /// The role (or family) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The family index, if this is a family member.
    pub fn index(&self) -> Option<usize> {
        self.index
    }

    /// Returns `true` if this id belongs to family `family`.
    pub fn in_family(&self, family: &str) -> bool {
        self.index.is_some() && &*self.name == family
    }
}

impl fmt::Display for RoleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{}]", self.name, i),
            None => f.write_str(&self.name),
        }
    }
}

// The two borrowed-name conversions copy the name once, straight into
// the shared buffer (the constructors take `Into<String>` and copy it
// twice when handed a `&str`).
impl From<&str> for RoleId {
    fn from(name: &str) -> Self {
        Self {
            name: name.into(),
            index: None,
        }
    }
}

impl From<(&str, usize)> for RoleId {
    fn from((name, index): (&str, usize)) -> Self {
        Self {
            name: name.into(),
            index: Some(index),
        }
    }
}

/// The identity of an (actual) enrolling process.
///
/// Partner-named enrollment matches on these identities. Processes that do
/// not name themselves are given a fresh anonymous identity which no
/// partner constraint can name.
///
/// # Example
///
/// ```
/// use script_core::ProcessId;
///
/// let p = ProcessId::new("T");
/// assert_eq!(p.to_string(), "T");
/// ```
///
/// Like [`RoleId`], a clone shares the name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcessId(Arc<str>);

impl ProcessId {
    /// A named process identity.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into().into())
    }

    /// A fresh anonymous identity, unequal to every named identity.
    pub fn anonymous() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Self(format!("<anon-{}>", NEXT.fetch_add(1, Ordering::Relaxed)).into())
    }

    /// The process name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ProcessId {
    fn from(name: &str) -> Self {
        ProcessId::new(name)
    }
}

impl From<String> for ProcessId {
    fn from(name: String) -> Self {
        ProcessId::new(name)
    }
}

/// The sequence number of a performance of a script instance.
///
/// Sequence numbers record *start* order: they are assigned strictly
/// increasing, beginning at 0. Performances of one instance may overlap
/// (the paper's §II overlapping activations), so they need not
/// *complete* in sequence order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct PerformanceId(pub u64);

impl fmt::Display for PerformanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "performance#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(RoleId::new("writer").to_string(), "writer");
        assert_eq!(RoleId::indexed("manager", 0).to_string(), "manager[0]");
        assert_eq!(PerformanceId(4).to_string(), "performance#4");
    }

    #[test]
    fn family_membership() {
        let r = RoleId::indexed("recipient", 1);
        assert!(r.in_family("recipient"));
        assert!(!r.in_family("sender"));
        assert!(!RoleId::new("recipient").in_family("recipient"));
    }

    #[test]
    fn conversions() {
        assert_eq!(RoleId::from("x"), RoleId::new("x"));
        assert_eq!(RoleId::from(("y", 2)), RoleId::indexed("y", 2));
        assert_eq!(ProcessId::from("P"), ProcessId::new("P"));
    }

    #[test]
    fn anonymous_ids_are_unique() {
        assert_ne!(ProcessId::anonymous(), ProcessId::anonymous());
        assert_ne!(ProcessId::anonymous(), ProcessId::new("<anon-0>").clone());
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = vec![
            RoleId::indexed("a", 2),
            RoleId::new("a"),
            RoleId::indexed("a", 1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                RoleId::new("a"),
                RoleId::indexed("a", 1),
                RoleId::indexed("a", 2),
            ]
        );
    }

    #[test]
    fn ids_are_serde_serializable() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<RoleId>();
        assert_serde::<ProcessId>();
        assert_serde::<PerformanceId>();
    }
}
