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

    /// The id with this one's name — shared, not copied — and `index`.
    pub fn with_index(&self, index: Option<usize>) -> Self {
        Self {
            name: Arc::clone(&self.name),
            index,
        }
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
/// Like [`RoleId`], a clone shares the name. An anonymous identity
/// keeps its text inline: minting one allocates nothing.
#[derive(Clone, Serialize, Deserialize)]
pub struct ProcessId(Name);

/// Longest anonymous name: `<anon-`, the 20 digits of `u64::MAX`, `>`.
const ANON_MAX: usize = 27;

#[derive(Clone)]
enum Name {
    Named(Arc<str>),
    /// The first `len` bytes of `text`.
    Anonymous {
        text: [u8; ANON_MAX],
        len: u8,
    },
}

impl ProcessId {
    /// A named process identity.
    pub fn new(name: impl Into<String>) -> Self {
        Self(Name::Named(name.into().into()))
    }

    /// A fresh anonymous identity, unequal to every named identity.
    pub fn anonymous() -> Self {
        use std::io::Write;
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut text = [0u8; ANON_MAX];
        let mut rest = &mut text[..];
        write!(rest, "<anon-{}>", NEXT.fetch_add(1, Ordering::Relaxed))
            .expect("every u64 fits ANON_MAX");
        let len = (ANON_MAX - rest.len()) as u8;
        Self(Name::Anonymous { text, len })
    }

    /// The process name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Name::Named(name) => name,
            Name::Anonymous { text, len } => {
                std::str::from_utf8(&text[..usize::from(*len)]).expect("written from a str")
            }
        }
    }
}

// Equality, order and hash are the name's, however it is held — as
// they were when every name was an `Arc<str>`.
impl PartialEq for ProcessId {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for ProcessId {}

impl PartialOrd for ProcessId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProcessId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for ProcessId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ProcessId").field(&self.as_str()).finish()
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
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

    /// An anonymous id held inline reads, compares, orders and hashes
    /// exactly as the same name held shared.
    #[test]
    fn an_anonymous_id_is_its_name() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash(p: &ProcessId) -> u64 {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        }
        let anon = ProcessId::anonymous();
        let named = ProcessId::new(anon.as_str());
        assert!(anon.as_str().starts_with("<anon-") && anon.as_str().ends_with('>'));
        assert_eq!(anon.to_string(), named.to_string());
        assert_eq!(format!("{anon:?}"), format!("{named:?}"));
        assert_eq!(anon, named);
        assert_eq!(anon.cmp(&named), std::cmp::Ordering::Equal);
        assert_eq!(hash(&anon), hash(&named));
        assert!(ProcessId::new("<anon-") < anon && anon < ProcessId::new("<anon.0>"));
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
