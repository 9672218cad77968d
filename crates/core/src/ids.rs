//! Identifiers for roles, processes, and performances.

use std::cell::RefCell;
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
/// per performance — is a reference-count bump, not a string copy. Ids
/// spelled from a name the thread has met lately share it too: every
/// constructor looks the name up in a small per-thread table (at most
/// 64 names of at most 64 bytes; a new name replaces the oldest) before
/// allocating it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RoleId {
    name: Arc<str>,
    index: Option<usize>,
}

impl RoleId {
    /// A singleton role (no index).
    pub fn new(name: impl AsRef<str>) -> Self {
        Self {
            name: shared_name(name.as_ref()),
            index: None,
        }
    }

    /// Member `index` of the role family `name`.
    pub fn indexed(name: impl AsRef<str>, index: usize) -> Self {
        Self {
            name: shared_name(name.as_ref()),
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

impl From<&str> for RoleId {
    fn from(name: &str) -> Self {
        RoleId::new(name)
    }
}

impl From<(&str, usize)> for RoleId {
    fn from((name, index): (&str, usize)) -> Self {
        RoleId::indexed(name, index)
    }
}

/// Role names a thread keeps, at most.
const NAME_TABLE_CAP: usize = 64;

/// Longest name the table keeps: names from a hostile peer cannot make
/// it hold more than [`NAME_TABLE_CAP`] × this many bytes.
const NAME_TABLE_NAME_MAX: usize = 64;

/// The role names a thread spelled lately. A performance names its few
/// roles over and over — the engine per enrollment and per family
/// member, a socket transport's I/O thread on nearly every frame it
/// decodes — so a name found here is shared, not allocated again.
/// Grows from empty (a process may run a thousand threads that each
/// meet a name or two) up to [`NAME_TABLE_CAP`] names of at most
/// [`NAME_TABLE_NAME_MAX`] bytes; when full, a new name takes the place
/// of the oldest.
struct NameTable {
    names: Vec<Arc<str>>,
    /// The oldest entry once the table is full: the next to be replaced.
    oldest: usize,
}

thread_local! {
    static NAMES: RefCell<NameTable> = const {
        RefCell::new(NameTable {
            names: Vec::new(),
            oldest: 0,
        })
    };
}

impl NameTable {
    fn share(&mut self, name: &str) -> Arc<str> {
        if let Some(known) = self.names.iter().find(|k| ***k == *name) {
            return Arc::clone(known);
        }
        let fresh: Arc<str> = Arc::from(name);
        if name.len() <= NAME_TABLE_NAME_MAX {
            if self.names.len() < NAME_TABLE_CAP {
                self.names.push(Arc::clone(&fresh));
            } else {
                self.names[self.oldest] = Arc::clone(&fresh);
                self.oldest = (self.oldest + 1) % NAME_TABLE_CAP;
            }
        }
        fresh
    }
}

/// `name`, shared with the calling thread's table. A thread being torn
/// down has no table: the name is copied.
fn shared_name(name: &str) -> Arc<str> {
    NAMES
        .try_with(|t| t.borrow_mut().share(name))
        .unwrap_or_else(|_| Arc::from(name))
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

    /// Ids spelled from one name on one thread share it, whatever the
    /// index and however the name was handed over; a name too long to
    /// keep is spelled all the same.
    #[test]
    fn ids_spelled_from_one_name_share_it() {
        let owned = String::from("shared-name");
        let ids = [
            RoleId::indexed("shared-name", 1),
            RoleId::indexed(&owned, 2),
            RoleId::new(owned.clone()),
            RoleId::from("shared-name"),
            RoleId::from(("shared-name", 3)),
        ];
        let indices: Vec<_> = ids.iter().map(RoleId::index).collect();
        assert_eq!(indices, [Some(1), Some(2), None, None, Some(3)]);
        for id in &ids[1..] {
            assert!(Arc::ptr_eq(&ids[0].name, &id.name), "{id} has its own copy");
        }
        let long = "x".repeat(NAME_TABLE_NAME_MAX + 1);
        let (first, again) = (RoleId::new(&long), RoleId::new(&long));
        assert_eq!((first.name(), again.name()), (long.as_str(), long.as_str()));
        assert!(!Arc::ptr_eq(&first.name, &again.name), "not kept");
        let other_thread = std::thread::spawn(|| RoleId::new("shared-name"))
            .join()
            .unwrap();
        assert_eq!(other_thread, RoleId::new("shared-name"));
        assert!(!Arc::ptr_eq(&other_thread.name, &ids[0].name), "per thread");
    }

    /// 10,000 distinct names, each followed by one hot name under a
    /// changing index — what a hostile peer's frames do to a decoding
    /// thread: every id reads back right, a name met twice in a row is
    /// shared, and the table ends at its bound.
    #[test]
    fn distinct_names_leave_the_table_at_its_bound() {
        let table_len = || NAMES.with(|t| t.borrow().names.len());
        assert!(table_len() < NAME_TABLE_CAP, "grows from empty");
        for i in 0..10_000 {
            let name = format!("distinct-{i}");
            let distinct = RoleId::indexed(&name, i);
            assert_eq!(
                (distinct.name(), distinct.index()),
                (name.as_str(), Some(i))
            );
            let (hot, again) = (RoleId::indexed("hot", i), RoleId::new("hot"));
            assert_eq!(
                (hot.name(), hot.index(), again.index()),
                ("hot", Some(i), None)
            );
            assert!(Arc::ptr_eq(&hot.name, &again.name));
        }
        assert_eq!(table_len(), NAME_TABLE_CAP);
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
