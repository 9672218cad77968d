//! Typed handles to declared roles, used at enrollment time.

use std::fmt;
use std::marker::PhantomData;

use crate::spec::FamilySize;
use crate::RoleId;

/// A typed handle to a singleton role.
///
/// Produced by [`ScriptBuilder::role`](crate::ScriptBuilder::role); carries
/// the role's parameter type `P` and result type `O` so that
/// [`Instance::enroll`](crate::Instance::enroll) is fully type-checked.
pub struct RoleHandle<M, P, O> {
    pub(crate) id: RoleId,
    pub(crate) _marker: PhantomData<fn(M, P) -> O>,
}

impl<M, P, O> RoleHandle<M, P, O> {
    /// The role's identity.
    pub fn id(&self) -> &RoleId {
        &self.id
    }
}

impl<M, P, O> Clone for RoleHandle<M, P, O> {
    fn clone(&self) -> Self {
        Self {
            id: self.id.clone(),
            _marker: PhantomData,
        }
    }
}

impl<M, P, O> fmt::Debug for RoleHandle<M, P, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoleHandle").field("id", &self.id).finish()
    }
}

/// A typed handle to an indexed role family.
///
/// Produced by [`ScriptBuilder::family`](crate::ScriptBuilder::family) and
/// [`ScriptBuilder::open_family`](crate::ScriptBuilder::open_family).
pub struct FamilyHandle<M, P, O> {
    pub(crate) name: String,
    pub(crate) size: FamilySize,
    pub(crate) _marker: PhantomData<fn(M, P) -> O>,
}

impl<M, P, O> FamilyHandle<M, P, O> {
    /// The family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared size of the family.
    pub fn size(&self) -> FamilySize {
        self.size
    }

    /// The [`RoleId`] of member `index`.
    pub fn at(&self, index: usize) -> RoleId {
        RoleId::indexed(&self.name, index)
    }
}

impl<M, P, O> Clone for FamilyHandle<M, P, O> {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            size: self.size,
            _marker: PhantomData,
        }
    }
}

impl<M, P, O> fmt::Debug for FamilyHandle<M, P, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyHandle")
            .field("name", &self.name)
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> RoleHandle<u8, (), ()> {
        RoleHandle {
            id: RoleId::new("sender"),
            _marker: PhantomData,
        }
    }

    #[test]
    fn role_handle_exposes_id() {
        let h = handle();
        assert_eq!(h.id(), &RoleId::new("sender"));
        assert!(format!("{h:?}").contains("sender"));
        let h2 = h.clone();
        assert_eq!(h2.id(), h.id());
    }

    #[test]
    fn family_handle_indexes() {
        let f: FamilyHandle<u8, (), ()> = FamilyHandle {
            name: "recipient".into(),
            size: FamilySize::Fixed(5),
            _marker: PhantomData,
        };
        assert_eq!(f.at(2), RoleId::indexed("recipient", 2));
        assert_eq!(f.name(), "recipient");
        assert_eq!(f.size(), FamilySize::Fixed(5));
        assert!(format!("{:?}", f.clone()).contains("recipient"));
    }
}
