//! Joint-enrollment matching.
//!
//! For delayed initiation the paper requires that processes "jointly
//! enroll in the script only when their enrollment specifications match,
//! that is they all agree on the binding of processes to roles". With
//! `OneOf` constraints this is a constraint-satisfaction problem; the
//! matcher below solves it by backtracking with a fewest-candidates-first
//! role order, which is exact and fast at the scales scripts are written
//! for (casts of tens of roles).
//!
//! Constraints are only checked against roles that actually join the
//! cast: a constraint on a role that remains unfilled (permitted by a
//! critical role set) does not block enrollment. Within one performance a
//! named process may fill at most one role (the paper's rule for delayed
//! initiation); anonymous processes are always distinct.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::{Partners, ProcessId, RoleId};

/// A pending enrollment as seen by the matcher.
#[derive(Debug, Clone)]
pub(crate) struct Candidate<'a> {
    /// Index into the engine's pending list.
    pub idx: usize,
    pub role: &'a RoleId,
    pub process: &'a ProcessId,
    pub partners: &'a Partners,
}

fn pair_compatible(a: &Candidate<'_>, b: &Candidate<'_>) -> bool {
    a.role != b.role
        && a.process != b.process
        && a.partners.allows(b.role, b.process)
        && b.partners.allows(a.role, a.process)
}

fn compatible_with_all(cand: &Candidate<'_>, chosen: &[&Candidate<'_>]) -> bool {
    chosen.iter().all(|c| pair_compatible(cand, c))
}

/// Attempts to assemble a cast from `candidates` that covers one of the
/// `critical` sets (tried in declaration order), then greedily extends it
/// with further compatible candidates for still-unfilled roles.
///
/// Returns `role → candidate index` on success.
pub(crate) fn match_performance<'c>(
    candidates: &[Candidate<'_>],
    critical: impl IntoIterator<Item = &'c BTreeSet<RoleId>>,
) -> Option<HashMap<RoleId, usize>> {
    for cover in critical {
        if let Some(assignment) = cover_critical_set(candidates, cover) {
            return Some(extend(candidates, assignment));
        }
    }
    None
}

fn cover_critical_set(
    candidates: &[Candidate<'_>],
    cover: &BTreeSet<RoleId>,
) -> Option<Vec<usize>> {
    // Collect per-role candidate lists, in arrival order (FIFO fairness).
    let mut per_role: Vec<(&RoleId, Vec<usize>)> = Vec::with_capacity(cover.len());
    for role in cover {
        let list: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.role == role)
            .map(|(i, _)| i)
            .collect();
        if list.is_empty() {
            return None;
        }
        per_role.push((role, list));
    }
    // Fewest candidates first prunes the search hardest.
    per_role.sort_by_key(|(_, list)| list.len());

    fn backtrack<'a>(
        per_role: &[(&RoleId, Vec<usize>)],
        candidates: &'a [Candidate<'a>],
        chosen: &mut Vec<usize>,
    ) -> bool {
        if chosen.len() == per_role.len() {
            return true;
        }
        let (_, list) = &per_role[chosen.len()];
        for &idx in list {
            let cand = &candidates[idx];
            let selected: Vec<&Candidate<'_>> = chosen.iter().map(|&i| &candidates[i]).collect();
            if compatible_with_all(cand, &selected) {
                chosen.push(idx);
                if backtrack(per_role, candidates, chosen) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }

    let mut chosen = Vec::with_capacity(per_role.len());
    if backtrack(&per_role, candidates, &mut chosen) {
        Some(chosen)
    } else {
        None
    }
}

fn extend(candidates: &[Candidate<'_>], chosen: Vec<usize>) -> HashMap<RoleId, usize> {
    let mut assignment: HashMap<RoleId, usize> = chosen
        .iter()
        .map(|&i| (candidates[i].role.clone(), i))
        .collect();
    let mut selected: Vec<&Candidate<'_>> = chosen.iter().map(|&i| &candidates[i]).collect();
    let mut used: HashSet<usize> = chosen.into_iter().collect();
    for (idx, cand) in candidates.iter().enumerate() {
        if used.contains(&idx) || assignment.contains_key(cand.role) {
            continue;
        }
        if compatible_with_all(cand, &selected) {
            assignment.insert(cand.role.clone(), idx);
            selected.push(cand);
            used.insert(idx);
        }
    }
    assignment
}

/// Immediate-mode admission check: can `cand` join a cast whose members
/// (with their recorded constraints) are `cast`?
///
/// The caller guarantees `cand.role` is not yet filled.
pub(crate) fn admissible(cand: &Candidate<'_>, cast: &[(RoleId, ProcessId, Partners)]) -> bool {
    cast.iter().all(|(role, process, partners)| {
        process != cand.process
            && cand.partners.allows(role, process)
            && partners.allows(cand.role, cand.process)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessSel;

    struct Arena {
        entries: Vec<(RoleId, ProcessId, Partners)>,
    }

    impl Arena {
        fn new() -> Self {
            Self {
                entries: Vec::new(),
            }
        }
        fn add(&mut self, role: RoleId, process: &str, partners: Partners) -> &mut Self {
            self.entries.push((role, ProcessId::new(process), partners));
            self
        }
        fn candidates(&self) -> Vec<Candidate<'_>> {
            self.entries
                .iter()
                .enumerate()
                .map(|(idx, (role, process, partners))| Candidate {
                    idx,
                    role,
                    process,
                    partners,
                })
                .collect()
        }
    }

    fn set(roles: &[RoleId]) -> BTreeSet<RoleId> {
        roles.iter().cloned().collect()
    }

    #[test]
    fn unconstrained_cover_found() {
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any());
        a.add(RoleId::new("q"), "B", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[&RoleId::new("p")], 0);
        assert_eq!(m[&RoleId::new("q")], 1);
    }

    #[test]
    fn missing_role_blocks_cover() {
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        assert!(match_performance(&cands, &critical).is_none());
    }

    #[test]
    fn named_partners_must_agree() {
        // A wants B as q; B wants C as p: specifications do not match.
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any().named("q", "B"));
        a.add(RoleId::new("q"), "B", Partners::any().named("p", "C"));
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        assert!(match_performance(&cands, &critical).is_none());
    }

    #[test]
    fn matching_specifications_jointly_enroll() {
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any().named("q", "B"));
        a.add(RoleId::new("q"), "B", Partners::any().named("p", "A"));
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        assert!(match_performance(&cands, &critical).is_some());
    }

    #[test]
    fn backtracking_resolves_conflicts() {
        // Two candidates for p; only the second is acceptable to q's
        // occupant. A naive first-fit would fail.
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A1", Partners::any());
        a.add(RoleId::new("p"), "A2", Partners::any());
        a.add(RoleId::new("q"), "B", Partners::any().named("p", "A2"));
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert_eq!(m[&RoleId::new("p")], 1);
        assert_eq!(m[&RoleId::new("q")], 2);
    }

    #[test]
    fn one_of_constraints_searched() {
        let mut a = Arena::new();
        a.add(
            RoleId::new("p"),
            "A",
            Partners::any().with("q", ProcessSel::one_of(["B", "C"])),
        );
        a.add(RoleId::new("q"), "D", Partners::any());
        a.add(RoleId::new("q"), "C", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert_eq!(m[&RoleId::new("q")], 2, "must pick C, not D");
    }

    #[test]
    fn same_process_cannot_fill_two_roles() {
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any());
        a.add(RoleId::new("q"), "A", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p"), RoleId::new("q")])];
        assert!(match_performance(&cands, &critical).is_none());
    }

    #[test]
    fn alternative_critical_sets_tried_in_order() {
        let mut a = Arena::new();
        a.add(RoleId::new("writer"), "W", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("reader")]), set(&[RoleId::new("writer")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert!(m.contains_key(&RoleId::new("writer")));
    }

    #[test]
    fn cover_is_greedily_extended() {
        // Critical set is just p, but q's candidate is compatible and
        // should be swept into the same performance.
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any());
        a.add(RoleId::new("q"), "B", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn incompatible_extension_skipped() {
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "A", Partners::any().named("q", "C"));
        a.add(RoleId::new("q"), "B", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert_eq!(m.len(), 1, "B is not acceptable to A as q");
    }

    #[test]
    fn fifo_preference_among_equals() {
        let mut a = Arena::new();
        a.add(RoleId::new("p"), "First", Partners::any());
        a.add(RoleId::new("p"), "Second", Partners::any());
        let cands = a.candidates();
        let critical = vec![set(&[RoleId::new("p")])];
        let m = match_performance(&cands, &critical).unwrap();
        assert_eq!(m[&RoleId::new("p")], 0);
    }

    #[test]
    fn admissible_checks_both_directions() {
        let cast = vec![(
            RoleId::new("p"),
            ProcessId::new("A"),
            Partners::any().named("q", "B"),
        )];
        let role_q = RoleId::new("q");
        let proc_b = ProcessId::new("B");
        let proc_c = ProcessId::new("C");
        let unconstrained = Partners::any();
        let ok = Candidate {
            idx: 0,
            role: &role_q,
            process: &proc_b,
            partners: &unconstrained,
        };
        assert!(admissible(&ok, &cast));
        let bad = Candidate {
            idx: 0,
            role: &role_q,
            process: &proc_c,
            partners: &unconstrained,
        };
        assert!(!admissible(&bad, &cast), "cast member A demands q=B");
        let wants_other_p = Partners::any().named("p", "Z");
        let bad2 = Candidate {
            idx: 0,
            role: &role_q,
            process: &proc_b,
            partners: &wants_other_p,
        };
        assert!(!admissible(&bad2, &cast), "candidate rejects A as p");
    }

    #[test]
    fn admissible_rejects_duplicate_process() {
        let cast = vec![(RoleId::new("p"), ProcessId::new("A"), Partners::any())];
        let role_q = RoleId::new("q");
        let proc_a = ProcessId::new("A");
        let unconstrained = Partners::any();
        let cand = Candidate {
            idx: 0,
            role: &role_q,
            process: &proc_a,
            partners: &unconstrained,
        };
        assert!(!admissible(&cand, &cast));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ProcessSel;
    use proptest::prelude::*;

    fn arb_partners(n_roles: usize, n_procs: usize) -> impl Strategy<Value = Partners> {
        proptest::collection::vec((0..n_roles, proptest::option::of(0..n_procs)), 0..=n_roles)
            .prop_map(move |constraints| {
                let mut p = Partners::any();
                for (role, proc_opt) in constraints {
                    let sel = match proc_opt {
                        Some(q) => ProcessSel::is(format!("P{q}")),
                        None => ProcessSel::Any,
                    };
                    p = p.with(RoleId::new(format!("r{role}")), sel);
                }
                p
            })
    }

    proptest! {
        /// Soundness: any assignment returned satisfies every pairwise
        /// constraint and never reuses a process.
        #[test]
        fn matcher_is_sound(
            entries in proptest::collection::vec(
                (0usize..4, 0usize..6, arb_partners(4, 6)),
                1..12,
            ),
            cover_roles in proptest::collection::btree_set(0usize..4, 1..4),
        ) {
            let owned: Vec<(RoleId, ProcessId, Partners)> = entries
                .into_iter()
                .map(|(r, p, partners)| {
                    (RoleId::new(format!("r{r}")), ProcessId::new(format!("P{p}")), partners)
                })
                .collect();
            let cands: Vec<Candidate<'_>> = owned
                .iter()
                .enumerate()
                .map(|(idx, (role, process, partners))| Candidate { idx, role, process, partners })
                .collect();
            let critical = vec![cover_roles
                .iter()
                .map(|r| RoleId::new(format!("r{r}")))
                .collect::<std::collections::BTreeSet<_>>()];

            if let Some(assignment) = match_performance(&cands, &critical) {
                // Covers the critical set.
                for r in &critical[0] {
                    prop_assert!(assignment.contains_key(r));
                }
                let chosen: Vec<&Candidate<'_>> =
                    assignment.values().map(|&i| &cands[i]).collect();
                // Role consistency and process uniqueness.
                for (role, &i) in &assignment {
                    prop_assert_eq!(cands[i].role, role);
                }
                let mut procs: Vec<_> = chosen.iter().map(|c| c.process.clone()).collect();
                procs.sort();
                procs.dedup();
                prop_assert_eq!(procs.len(), chosen.len());
                // Pairwise constraint satisfaction.
                for a in &chosen {
                    for b in &chosen {
                        if a.role != b.role {
                            prop_assert!(a.partners.allows(b.role, b.process));
                        }
                    }
                }
            }
        }

        /// Completeness on unconstrained instances: if every critical role
        /// has a distinct-process candidate, a cover is found.
        #[test]
        fn matcher_finds_trivial_covers(n_roles in 1usize..6) {
            let owned: Vec<(RoleId, ProcessId, Partners)> = (0..n_roles)
                .map(|r| {
                    (RoleId::new(format!("r{r}")), ProcessId::new(format!("P{r}")), Partners::any())
                })
                .collect();
            let cands: Vec<Candidate<'_>> = owned
                .iter()
                .enumerate()
                .map(|(idx, (role, process, partners))| Candidate { idx, role, process, partners })
                .collect();
            let critical = vec![(0..n_roles)
                .map(|r| RoleId::new(format!("r{r}")))
                .collect::<std::collections::BTreeSet<_>>()];
            prop_assert!(match_performance(&cands, &critical).is_some());
        }
    }
}
