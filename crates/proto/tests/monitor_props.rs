//! Property battery for [`ConformanceMonitor`]: random well-formed
//! global types, random conforming traces, random mutations.
//!
//! The invariants under test:
//!
//! 1. a conforming trace is accepted (no verdict) and leaves every
//!    role's monitor complete at `End`;
//! 2. a mutated trace — two events swapped, one dropped, one relabeled
//!    — is rejected at **exactly** the first divergent index, with the
//!    verdict's `at_seq` equal to that index's telemetry seq;
//! 3. the first divergence is the *only* one reported per performance.
//!
//! Generated protocols are *causal chains* (each interaction's sender
//! is the previous interaction's receiver) with globally unique
//! labels, optionally ending in a directed binary choice whose
//! branches alternate between the two choice roles. Chains make every
//! mutation detectable at a predictable position: disjoint role pairs
//! never occur, so no swap can commute, and unique labels mean no
//! relabel or drop can alias another valid continuation.

use std::time::Duration;

use proptest::prelude::*;

use script_core::{Observer, PerformanceId, RendezvousRecord, TelemetryEvent, TelemetryPayload};
use script_proto::{ConformanceMonitor, GlobalType, RoleId};

const ROLES: [&str; 4] = ["a", "b", "c", "d"];

/// One interaction of the conforming trace: `from` sends `label` to
/// `to`.
#[derive(Debug, Clone)]
struct Step {
    from: &'static str,
    to: &'static str,
    label: String,
}

/// A generated protocol: the global type plus the conforming trace of
/// one complete run (branch already picked when the type has a
/// choice).
#[derive(Debug, Clone)]
struct Proto {
    global: GlobalType,
    trace: Vec<Step>,
}

/// Builds a causal chain from role picks: the first sender is
/// `picks[0]`, each receiver is chosen by the next pick among the
/// roles other than the current sender, and each hop's sender is the
/// previous hop's receiver.
fn chain_steps(picks: &[u8], label_prefix: &str) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut from = ROLES[picks[0] as usize % ROLES.len()];
    for (k, pick) in picks[1..].iter().enumerate() {
        let others: Vec<&'static str> = ROLES.iter().copied().filter(|r| *r != from).collect();
        let to = others[*pick as usize % others.len()];
        steps.push(Step {
            from,
            to,
            label: format!("{label_prefix}{k}"),
        });
        from = to;
    }
    steps
}

/// Folds a step list into nested `GlobalType::msg`, ending in `tail`.
fn fold_chain(steps: &[Step], tail: GlobalType) -> GlobalType {
    steps.iter().rev().fold(tail, |acc, s| {
        GlobalType::msg(s.from, s.to, s.label.clone(), acc)
    })
}

/// A branch body for the trailing choice: `len` hops alternating
/// between the choice's two roles, starting with the selector.
fn branch_steps(x: &'static str, y: &'static str, len: usize, prefix: &str) -> Vec<Step> {
    (0..len)
        .map(|k| {
            let (from, to) = if k % 2 == 0 { (x, y) } else { (y, x) };
            Step {
                from,
                to,
                label: format!("{prefix}{k}"),
            }
        })
        .collect()
}

fn any_proto() -> impl Strategy<Value = Proto> {
    (
        proptest::collection::vec(any::<u8>(), 2..8), // prefix chain picks
        any::<bool>(),                                // trailing choice?
        any::<u8>(),                                  // choice peer pick
        1usize..4,                                    // branch length
        any::<bool>(),                                // which branch the run takes
    )
        .prop_map(|(picks, has_choice, peer_pick, branch_len, take_second)| {
            let prefix = chain_steps(&picks, "m");
            // The choice selector is the prefix's last receiver (or the
            // first sender when the prefix is empty), keeping the whole
            // trace one causal chain.
            let x = prefix
                .last()
                .map(|s| s.to)
                .unwrap_or(ROLES[picks[0] as usize % ROLES.len()]);
            if !has_choice && prefix.is_empty() {
                // Degenerate: force at least one interaction.
                let steps = vec![Step {
                    from: "a",
                    to: "b",
                    label: "m0".to_string(),
                }];
                return Proto {
                    global: fold_chain(&steps, GlobalType::End),
                    trace: steps,
                };
            }
            if !has_choice {
                return Proto {
                    global: fold_chain(&prefix, GlobalType::End),
                    trace: prefix,
                };
            }
            let others: Vec<&'static str> = ROLES.iter().copied().filter(|r| *r != x).collect();
            let y = others[peer_pick as usize % others.len()];
            let b0 = branch_steps(x, y, branch_len, "p");
            let b1 = branch_steps(x, y, branch_len, "q");
            let choice = GlobalType::choice(
                x,
                y,
                [
                    ("L0".to_string(), fold_chain(&b0[1..], GlobalType::End)),
                    ("L1".to_string(), fold_chain(&b1[1..], GlobalType::End)),
                ],
            );
            let global = fold_chain(&prefix, choice);
            let mut trace = prefix;
            let (chosen, sel_label) = if take_second { (b1, "L1") } else { (b0, "L0") };
            // The selecting hop carries the branch label; the rest of
            // the branch body follows it.
            trace.push(Step {
                from: x,
                to: y,
                label: sel_label.to_string(),
            });
            trace.extend(chosen.into_iter().skip(1));
            Proto { global, trace }
        })
}

/// Replays `trace` into a fresh monitor as the engine would: one
/// `Rendezvous` telemetry event per step with `seq` = trace index,
/// then (when `complete`) a normal `PerformanceCompleted`.
fn run_trace(m: &ConformanceMonitor, perf: u64, trace: &[Step], complete: bool) {
    for (i, s) in trace.iter().enumerate() {
        m.on_event(TelemetryEvent {
            seq: i as u64,
            performance: Some(PerformanceId(perf)),
            timestamp: Duration::from_millis(i as u64),
            payload: TelemetryPayload::Rendezvous(RendezvousRecord {
                from: RoleId::new(s.from),
                to: RoleId::new(s.to),
                label: Some(s.label.clone()),
                seq: 0,
            }),
        });
    }
    if complete {
        m.on_event(TelemetryEvent {
            seq: trace.len() as u64,
            performance: Some(PerformanceId(perf)),
            timestamp: Duration::from_millis(trace.len() as u64),
            payload: TelemetryPayload::PerformanceCompleted { aborted: false },
        });
    }
}

proptest! {
    /// Invariant 1: the conforming trace of every generated protocol
    /// is accepted and monitor-complete at `End`.
    #[test]
    fn conforming_traces_are_accepted_and_complete(p in any_proto()) {
        let m = ConformanceMonitor::new(&p.global).expect("generated type projects");
        run_trace(&m, 0, &p.trace, true);
        prop_assert!(
            m.verdicts().is_empty(),
            "conforming trace rejected: {:?}",
            m.verdicts()
        );
        prop_assert!(m.is_complete(PerformanceId(0)), "monitor not complete at End");
    }

    /// Invariant 2 (swap): exchanging the events at two distinct
    /// positions diverges at the earlier position.
    #[test]
    fn swapped_events_rejected_at_first_divergence(
        p in any_proto(),
        pick_i in any::<u16>(),
        pick_j in any::<u16>(),
    ) {
        prop_assume!(p.trace.len() >= 2);
        let i = pick_i as usize % p.trace.len();
        let j = pick_j as usize % p.trace.len();
        prop_assume!(i != j);
        let (lo, hi) = (i.min(j), i.max(j));
        let mut mutated = p.trace.clone();
        mutated.swap(lo, hi);
        let m = ConformanceMonitor::new(&p.global).unwrap();
        run_trace(&m, 0, &mutated, true);
        let v = m.verdict(PerformanceId(0));
        prop_assert!(v.is_some(), "swap({lo},{hi}) not rejected");
        prop_assert_eq!(
            v.unwrap().at_seq,
            lo as u64,
            "divergence must be at the earlier swapped position"
        );
        prop_assert_eq!(m.verdicts().len(), 1, "only the first divergence");
    }

    /// Invariant 2 (drop): removing the event at one position diverges
    /// at that position — unless it was the last event, in which case
    /// the shortened trace is a conforming *prefix*: no verdict until
    /// completion, which then reports the protocol as unfinished.
    #[test]
    fn dropped_event_rejected_at_first_divergence(
        p in any_proto(),
        pick in any::<u16>(),
    ) {
        prop_assume!(p.trace.len() >= 2);
        let k = pick as usize % p.trace.len();
        let mut mutated = p.trace.clone();
        mutated.remove(k);
        let m = ConformanceMonitor::new(&p.global).unwrap();
        let last = k == p.trace.len() - 1;
        run_trace(&m, 0, &mutated, false);
        if last {
            prop_assert!(
                m.verdicts().is_empty(),
                "a conforming prefix has no divergence"
            );
            prop_assert!(!m.is_complete(PerformanceId(0)), "truncated run must not be complete");
        } else {
            let v = m.verdict(PerformanceId(0));
            prop_assert!(v.is_some(), "drop({k}) not rejected");
            prop_assert_eq!(
                v.unwrap().at_seq,
                k as u64,
                "divergence must be where the gap opens"
            );
        }
    }

    /// Invariant 2 (relabel): rewriting one event's label to a fresh
    /// label diverges at that position.
    #[test]
    fn relabeled_event_rejected_at_first_divergence(
        p in any_proto(),
        pick in any::<u16>(),
    ) {
        prop_assume!(!p.trace.is_empty());
        let k = pick as usize % p.trace.len();
        let mut mutated = p.trace.clone();
        mutated[k].label = "zz-mutated".to_string();
        let m = ConformanceMonitor::new(&p.global).unwrap();
        run_trace(&m, 0, &mutated, true);
        let v = m.verdict(PerformanceId(0));
        prop_assert!(v.is_some(), "relabel({k}) not rejected");
        prop_assert_eq!(v.unwrap().at_seq, k as u64);
        prop_assert_eq!(m.verdicts().len(), 1, "only the first divergence");
    }
}
