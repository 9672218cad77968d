//! Epidemic (rumor-mongering) broadcast over a partial random peer
//! view, as an *open-ended role family* script.
//!
//! The fixed-cast strategies in [`broadcast`](crate::broadcast) assume
//! the whole cast is known up front. This module covers the opposite
//! regime — the paper's §V "open-ended role families" — where members
//! enroll while dissemination is already under way and leave the moment
//! their part is done (immediate initiation *and* termination), and
//! partners that departed are detected with the paper's `r.terminated`
//! device (watch guards) instead of a global barrier.
//!
//! Each member pushes the rumor to a small **partial view** of the
//! membership instead of to everyone. Views come from [`PeerView`], a
//! deterministic sampler: a pure function of `(seed, round, member,
//! membership)`, so a performance replays bit-for-bit under a fixed
//! seed — the same property the chaos layer's fault decisions have.
//! Every view contains the member's *ring successor* (the next live
//! index, cyclically), which keeps the union of one round's views
//! connected; the remaining slots are a seeded shuffle of the other
//! members. Connectivity plus synchronous rendezvous gives the
//! dissemination guarantee the churn harness asserts: every live member
//! receives the rumor exactly once, no matter in which order members
//! enroll and depart.

use std::collections::BTreeSet;

use script_core::{
    splitmix64, CriticalSet, Event, FamilyHandle, Guard, Initiation, Instance, PerformanceId,
    RetryPolicy, RoleHandle, RoleId, Script, ScriptError, Termination,
};

/// Stream key for one `(seed, round, member)` triple, drawn from
/// [`splitmix64`]: the generator the engine derives per-performance
/// chaos seeds with, so view schedules share the replay properties of
/// fault schedules.
fn stream_key(seed: u64, round: u64, me: u64) -> u64 {
    let a = splitmix64(&mut { seed }).wrapping_add(round);
    splitmix64(&mut { a }).wrapping_add(me)
}

/// The sentinel "member" index the seeder samples with (it is not a
/// family member, so no real index may collide with it).
const SEEDER_KEY: u64 = u64::MAX;

/// A deterministic partial-view sampler for epidemic dissemination.
///
/// [`PeerView::view`] is a pure function of `(seed, round, member,
/// membership)`: the same inputs always yield the identical view, with
/// no self-loops, no duplicates, and at most `fanout` targets. The
/// first target is always the member's ring successor in the (sorted,
/// deduplicated) membership, which makes the union of all members'
/// views in a round a connected graph over the membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerView {
    seed: u64,
    fanout: usize,
}

impl PeerView {
    /// Creates a sampler. `fanout` is the maximum targets per view and
    /// must be at least 1 (the ring edge).
    pub fn new(seed: u64, fanout: usize) -> Self {
        assert!(fanout >= 1, "epidemic fanout must be at least 1");
        Self { seed, fanout }
    }

    /// The sampler's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The maximum number of targets per view.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The membership sorted and deduplicated, in the one `Vec` the
    /// caller returns; a membership already strictly increasing is
    /// copied as is.
    fn canonical(members: &[usize]) -> Vec<usize> {
        let mut out = members.to_vec();
        if !members.windows(2).all(|w| w[0] < w[1]) {
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// Shuffles up to `k` targets to the front of `pool` in
    /// seeded-shuffle order (partial Fisher–Yates on the stream keyed by
    /// `key`) and returns how many.
    fn draw(key: u64, pool: &mut [usize], k: usize) -> usize {
        let mut state = key;
        let take = k.min(pool.len());
        for i in 0..take {
            let j = i + (splitmix64(&mut state) as usize) % (pool.len() - i);
            pool.swap(i, j);
        }
        take
    }

    /// The partial view of `me` for `round` over `members`: up to
    /// [`fanout`](Self::fanout) distinct targets, never `me` itself,
    /// always including `me`'s ring successor (the next larger member
    /// index, wrapping around). Pure in all arguments.
    pub fn view(&self, round: u64, me: usize, members: &[usize]) -> Vec<usize> {
        let mut view = Self::canonical(members);
        view.retain(|&x| x != me);
        if view.is_empty() {
            return view;
        }
        // The successor to the front; the rest stay sorted behind it,
        // the pool the shuffle draws from.
        let after = view.partition_point(|&x| x < me);
        let successor = if after == view.len() { 0 } else { after };
        view[..=successor].rotate_right(1);
        let key = stream_key(self.seed, round, me as u64);
        let drawn = Self::draw(key, &mut view[1..], self.fanout - 1);
        view.truncate(1 + drawn);
        view
    }

    /// The seeder's initial targets for `round`: up to
    /// [`fanout`](Self::fanout) members, seeded-shuffle order. The
    /// seeder is outside the ring, so no successor is forced.
    pub fn seed_targets(&self, round: u64, members: &[usize]) -> Vec<usize> {
        let mut targets = Self::canonical(members);
        let key = stream_key(self.seed, round, SEEDER_KEY);
        let drawn = Self::draw(key, &mut targets, self.fanout);
        targets.truncate(drawn);
        targets
    }

    /// Pure simulation of one performance's dissemination over the
    /// `round`-keyed views: the number of synchronous push rounds until
    /// every member holds the rumor (the seeder's initial push counts
    /// as round 1). This is the "rounds-to-full-dissemination" metric
    /// benchmarked in EXPERIMENTS.md E21; it involves no engine, so it
    /// doubles as an oracle for the sampler's connectivity guarantee.
    pub fn dissemination_rounds(&self, round: u64, members: &[usize]) -> u64 {
        let all: BTreeSet<usize> = members.iter().copied().collect();
        if all.is_empty() {
            return 0;
        }
        let mut infected: BTreeSet<usize> = self.seed_targets(round, members).into_iter().collect();
        let mut rounds = 1;
        while infected.len() < all.len() {
            let frontier: Vec<usize> = infected
                .iter()
                .flat_map(|&i| self.view(round, i, members))
                .filter(|t| !infected.contains(t))
                .collect();
            assert!(
                !frontier.is_empty(),
                "ring edges keep the view graph connected; dissemination cannot wedge"
            );
            infected.extend(frontier);
            rounds += 1;
        }
        rounds
    }
}

/// One member's receipt from a gossip performance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// The performance the member served in.
    pub performance: PerformanceId,
    /// The member index the engine assigned at admission.
    pub member: usize,
    /// The rumor, exactly once.
    pub rumor: M,
}

/// A packaged epidemic broadcast script: the script plus typed handles.
#[derive(Debug)]
pub struct Gossip<M> {
    /// The underlying script (one seeder, an open member family).
    pub script: Script<M>,
    /// The seeder role: data parameter is the rumor to spread.
    pub seeder: RoleHandle<M, M, ()>,
    /// The open member family; each member returns its [`Delivery`].
    pub member: FamilyHandle<M, (), Delivery<M>>,
    n: usize,
    view: PeerView,
}

impl<M> Gossip<M> {
    /// Full membership per performance.
    pub fn fan_out(&self) -> usize {
        self.n
    }

    /// The deterministic view sampler the roles use.
    pub fn view(&self) -> PeerView {
        self.view
    }
}

fn member_id(i: usize) -> RoleId {
    RoleId::indexed("member", i)
}

/// Pushes `rumor` to every target in `pending`, treating departed
/// targets as satisfied (`r.terminated` via watch guards). When
/// `absorb` is true a recv-any guard stays open so crossing pushes
/// rendezvous as redundant deliveries instead of deadlocking.
fn push_all<M: Send + Clone + 'static>(
    ctx: &mut script_core::RoleCtx<M>,
    rumor: &M,
    mut pending: Vec<usize>,
    absorb: bool,
) -> Result<(), ScriptError> {
    while !pending.is_empty() {
        // A send and a watch guard per target, then the absorbing
        // recv-any: an exact-size run, so the arm list is sized once.
        let guards =
            (0..2 * pending.len() + usize::from(absorb)).map(|k| match pending.get(k / 2) {
                Some(&t) if k % 2 == 0 => Guard::send(member_id(t), rumor.clone()),
                Some(&t) => Guard::watch(member_id(t)),
                None => Guard::recv_any(),
            });
        match ctx.select(guards)? {
            Event::Sent { to, .. } => {
                let i = to.index().expect("targets are member indices");
                pending.retain(|&t| t != i);
            }
            Event::Terminated { role, .. } => {
                // The paper's r.terminated: the target departed (it
                // already holds the rumor) or was frozen out of the
                // cast; either way it is no longer owed a push.
                let i = role.index().expect("targets are member indices");
                pending.retain(|&t| t != i);
            }
            Event::Received { .. } => {
                // A redundant copy from a concurrent pusher; epidemic
                // protocols absorb duplicates by design.
            }
        }
    }
    Ok(())
}

/// Builds an epidemic broadcast for `n` members with the given fanout
/// and view seed.
///
/// The member family is *open-ended* (`max = n`) with immediate
/// initiation: members enroll with [`Instance::enroll_auto`] while the
/// performance is already running, and the cast freezes — via the
/// critical set `seeder + at least n members` — only once the house is
/// full. Termination is immediate, so each member departs as soon as
/// its own pushes are delivered, while the rest of the cast is still
/// disseminating; later pushes to it observe `r.terminated` and move
/// on.
pub fn gossip<M: Send + Clone + 'static>(n: usize, fanout: usize, seed: u64) -> Gossip<M> {
    let view = PeerView::new(seed, fanout);
    let mut b = Script::<M>::builder("epidemic_gossip");
    // Each role's membership, built once with the script.
    let members: Vec<usize> = (0..n).collect();
    let seeder_members = members.clone();
    let seeder = b.role("seeder", move |ctx, rumor: M| {
        let pending = view.seed_targets(ctx.performance().0, &seeder_members);
        push_all(ctx, &rumor, pending, false)
    });
    let member = b.open_family("member", Some(n), move |ctx, ()| {
        let me = ctx.role().index().expect("open-family member is indexed");
        // Rumor first: from the seeder or any forwarding peer.
        let (_, rumor) = ctx.recv_any()?;
        let pending = view.view(ctx.performance().0, me, &members);
        push_all(ctx, &rumor, pending, true)?;
        Ok(Delivery {
            performance: ctx.performance(),
            member: me,
            rumor,
        })
    });
    b.initiation(Initiation::Immediate)
        .termination(Termination::Immediate)
        .critical_set(
            CriticalSet::new()
                .role("seeder")
                .family_at_least("member", n),
        );
    Gossip {
        script: b.build().expect("gossip spec is valid"),
        seeder,
        member,
        n,
        view,
    }
}

/// Runs one performance on a fresh instance: enrolls `n` members and
/// the seeder, returning the rumors received, indexed by member.
///
/// # Errors
///
/// The first error any participant reported.
pub fn run<M: Send + Clone + 'static>(g: &Gossip<M>, rumor: M) -> Result<Vec<M>, ScriptError> {
    let instance = g.script.instance();
    run_on(&instance, g, rumor)
}

/// Like [`run`], but reuses an existing instance; back-to-back calls
/// are successive performances.
///
/// # Errors
///
/// The first error any participant reported.
pub fn run_on<M: Send + Clone + 'static>(
    instance: &Instance<M>,
    g: &Gossip<M>,
    rumor: M,
) -> Result<Vec<M>, ScriptError> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..g.n)
            .map(|_| {
                let member = &g.member;
                s.spawn(move || instance.enroll_auto(member, ()))
            })
            .collect();
        let seed_result = instance.enroll(&g.seeder, rumor);
        let mut deliveries = Vec::with_capacity(g.n);
        for h in handles {
            deliveries.push(h.join().expect("member threads do not panic")?);
        }
        seed_result?;
        deliveries.sort_by_key(|d| d.member);
        Ok(deliveries.into_iter().map(|d| d.rumor).collect())
    })
}

/// Like [`run_on`], but retries the whole performance under `policy`
/// on transient failures (and on [`ScriptError::RoleUnavailable`],
/// which a chaos-crashed member surfaces to its partners).
///
/// # Errors
///
/// The last retryable error once attempts are exhausted, or the first
/// permanent error.
pub fn run_with_retry<M: Send + Clone + 'static>(
    instance: &Instance<M>,
    g: &Gossip<M>,
    rumor: M,
    policy: &RetryPolicy,
) -> Result<Vec<M>, ScriptError> {
    policy.run_if(
        |e: &ScriptError| e.is_transient() || matches!(e, ScriptError::RoleUnavailable(_)),
        |_attempt| run_on(instance, g, rumor.clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_to_every_member() {
        for n in [1, 2, 5, 8, 16] {
            let g = gossip::<u64>(n, 3, 0xFEED);
            let got = run(&g, 41).unwrap();
            assert_eq!(got, vec![41; n], "n = {n}");
        }
    }

    #[test]
    fn fanout_one_is_a_pure_ring() {
        let g = gossip::<u64>(6, 1, 9);
        assert_eq!(run(&g, 7).unwrap(), vec![7; 6]);
    }

    #[test]
    fn successive_performances_on_one_instance() {
        let g = gossip::<u64>(4, 2, 3);
        let inst = g.script.instance();
        for v in 0..5 {
            assert_eq!(run_on(&inst, &g, v).unwrap(), vec![v; 4]);
        }
        assert_eq!(inst.completed_performances(), 5);
    }

    #[test]
    fn views_are_pure_functions_of_inputs() {
        let pv = PeerView::new(12345, 3);
        let members: Vec<usize> = (0..16).collect();
        for round in 0..4 {
            for me in 0..16 {
                assert_eq!(
                    pv.view(round, me, &members),
                    pv.view(round, me, &members),
                    "view(round={round}, me={me}) must be deterministic"
                );
            }
        }
        assert_eq!(pv.seed_targets(0, &members), pv.seed_targets(0, &members));
    }

    #[test]
    fn view_contains_ring_successor() {
        let pv = PeerView::new(7, 2);
        let members: Vec<usize> = (0..8).collect();
        for me in 0..8 {
            let v = pv.view(0, me, &members);
            assert!(v.contains(&((me + 1) % 8)), "me={me} view={v:?}");
        }
    }

    #[test]
    fn dissemination_rounds_reach_everyone() {
        let members: Vec<usize> = (0..64).collect();
        for seed in [1u64, 2, 3] {
            let pv = PeerView::new(seed, 3);
            let r = pv.dissemination_rounds(0, &members);
            assert!((1..=64).contains(&r), "seed {seed}: {r} rounds");
        }
    }

    #[test]
    fn trivial_views() {
        let pv = PeerView::new(1, 4);
        assert!(pv.view(0, 0, &[0]).is_empty());
        assert!(pv.view(0, 3, &[3]).is_empty());
        assert_eq!(pv.dissemination_rounds(0, &[]), 0);
        assert_eq!(pv.seed_targets(0, &[5]), vec![5]);
    }
}
