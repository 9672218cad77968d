//! Property battery for the epidemic `PeerView` sampler (ISSUE 9,
//! satellite 1): no self-loops or duplicates, fanout bounds respected,
//! views a pure function of `(seed, round, membership)`, and the union
//! of one round's views keeps the live-member graph connected for
//! n ≤ 64.

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;
use script_lib::gossip::PeerView;

/// The sampler as first written, on ordered sets and fresh vectors: the
/// oracle the in-place [`PeerView`] must match bit for bit, since churn
/// and chaos fingerprints are only ever compared within one build.
mod oracle {
    use std::collections::BTreeSet;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn stream_key(seed: u64, round: u64, me: u64) -> u64 {
        let mut s = seed;
        let a = splitmix(&mut s).wrapping_add(round);
        let mut s = a;
        splitmix(&mut s).wrapping_add(me)
    }

    fn others(me: Option<usize>, members: &[usize]) -> Vec<usize> {
        let set: BTreeSet<usize> = members.iter().copied().collect();
        set.into_iter().filter(|&x| Some(x) != me).collect()
    }

    fn draw(key: u64, mut pool: Vec<usize>, k: usize) -> Vec<usize> {
        let mut state = key;
        let take = k.min(pool.len());
        for i in 0..take {
            let j = i + (splitmix(&mut state) as usize) % (pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(take);
        pool
    }

    pub fn view(seed: u64, fanout: usize, round: u64, me: usize, members: &[usize]) -> Vec<usize> {
        let others = others(Some(me), members);
        let Some(&successor) = others.iter().find(|&&x| x > me).or_else(|| others.first()) else {
            return Vec::new();
        };
        let pool: Vec<usize> = others.into_iter().filter(|&x| x != successor).collect();
        let mut view = vec![successor];
        view.extend(draw(stream_key(seed, round, me as u64), pool, fanout - 1));
        view
    }

    pub fn seed_targets(seed: u64, fanout: usize, round: u64, members: &[usize]) -> Vec<usize> {
        draw(
            stream_key(seed, round, u64::MAX),
            others(None, members),
            fanout,
        )
    }
}

/// A non-empty live membership drawn from indices 0..64, possibly with
/// holes (departed members) — the sampler must cope with sparse casts.
fn membership() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::btree_set(0usize..64, 1..=64).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_self_loops_no_duplicates_fanout_bounded(
        seed in any::<u64>(),
        round in 0u64..16,
        fanout in 1usize..=6,
        members in membership(),
    ) {
        let pv = PeerView::new(seed, fanout);
        for &me in &members {
            let view = pv.view(round, me, &members);
            prop_assert!(!view.contains(&me), "self-loop for {me}: {view:?}");
            let uniq: BTreeSet<usize> = view.iter().copied().collect();
            prop_assert_eq!(uniq.len(), view.len(), "duplicates for {}", me);
            prop_assert!(view.len() <= fanout, "fanout exceeded for {me}: {view:?}");
            for t in &view {
                prop_assert!(members.contains(t), "{t} not a live member");
            }
            // With at least one other live member the view is never
            // empty: the ring edge always fits in fanout >= 1.
            if members.len() > 1 {
                prop_assert!(!view.is_empty(), "empty view for {me}");
            }
        }
        let seeded = pv.seed_targets(round, &members);
        let uniq: BTreeSet<usize> = seeded.iter().copied().collect();
        prop_assert_eq!(uniq.len(), seeded.len());
        prop_assert!(seeded.len() <= fanout);
        prop_assert!(!seeded.is_empty());
    }

    #[test]
    fn view_is_pure_function_of_inputs(
        seed in any::<u64>(),
        round in 0u64..16,
        fanout in 1usize..=6,
        members in membership(),
    ) {
        let pv = PeerView::new(seed, fanout);
        for &me in &members {
            prop_assert_eq!(pv.view(round, me, &members), pv.view(round, me, &members));
        }
        prop_assert_eq!(pv.seed_targets(round, &members), pv.seed_targets(round, &members));
        // Membership order and duplicates are irrelevant: the sampler
        // canonicalizes, so shuffled/duplicated input gives the same view.
        let mut scrambled: Vec<usize> = members.iter().rev().copied().collect();
        scrambled.extend(members.iter().copied());
        for &me in &members {
            prop_assert_eq!(pv.view(round, me, &members), pv.view(round, me, &scrambled));
        }
    }

    #[test]
    fn views_match_the_ordered_set_oracle(
        seed in any::<u64>(),
        round in 0u64..16,
        fanout in 1usize..=6,
        members in membership(),
        shuffle in any::<u64>(),
        repeats in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let pv = PeerView::new(seed, fanout);
        // Sorted; unsorted (rotated, then reversed); and unsorted with
        // duplicates and members absent from the set mixed in.
        let mut unsorted = members.clone();
        unsorted.rotate_left(shuffle as usize % members.len());
        unsorted.reverse();
        let mut duplicated = unsorted.clone();
        duplicated.extend(members.iter().step_by(2));
        duplicated.extend(&repeats);
        for input in [&members, &unsorted, &duplicated] {
            let mut asked: Vec<usize> = input.clone();
            asked.extend([0, 63, 64]);
            for &me in &asked {
                prop_assert_eq!(
                    pv.view(round, me, input),
                    oracle::view(seed, fanout, round, me, input),
                    "view of {} over {:?}", me, input
                );
            }
            prop_assert_eq!(
                pv.seed_targets(round, input),
                oracle::seed_targets(seed, fanout, round, input),
                "seed targets over {:?}", input
            );
        }
    }

    #[test]
    fn union_of_views_keeps_live_graph_connected(
        seed in any::<u64>(),
        round in 0u64..16,
        fanout in 1usize..=6,
        members in membership(),
    ) {
        let pv = PeerView::new(seed, fanout);
        // Undirected union of every live member's view for this round.
        let mut reached: BTreeSet<usize> = BTreeSet::new();
        let start = *members.first().unwrap();
        let mut queue = VecDeque::from([start]);
        reached.insert(start);
        while let Some(x) = queue.pop_front() {
            let mut adjacent: Vec<usize> = pv.view(round, x, &members);
            for &m in &members {
                if pv.view(round, m, &members).contains(&x) {
                    adjacent.push(m);
                }
            }
            for t in adjacent {
                if reached.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        prop_assert_eq!(
            reached.len(),
            members.len(),
            "round {} views disconnect the live graph", round
        );
        // And the pure dissemination oracle terminates (it panics
        // internally if the rumor ever wedges short of full coverage).
        let rounds = pv.dissemination_rounds(round, &members);
        prop_assert!(rounds >= 1 && rounds <= members.len() as u64);
    }
}
