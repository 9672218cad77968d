//! Deterministic fault injection for rendezvous networks.
//!
//! A [`FaultPlan`] describes *which* faults to inject — message drops,
//! per-hop delivery delays, duplications, and peer crashes — as pure
//! functions of a seed. Every decision is keyed by the communication
//! edge and that edge's own delivery sequence number (or, for crashes,
//! by the peer and its own operation count), **never** by wall-clock
//! time or global ordering. Two runs of the same protocol under the
//! same plan therefore inject the *same set* of faults regardless of
//! thread interleaving — the property the chaos soak harness asserts.
//!
//! A plan is attached to a network with
//! [`Network::set_fault_plan`](crate::Network::set_fault_plan); a
//! network without a plan pays one `Option` branch per operation and
//! nothing else.

use std::hash::{Hash, Hasher};
use std::time::Duration;

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A message was silently discarded after the sender observed a
    /// completed send (models loss on the wire after transmission).
    Drop,
    /// Delivery of a message was delayed by the plan's delay duration.
    Delay,
    /// A message was delivered a second time after the rendezvous
    /// completed.
    Duplicate,
    /// A peer was forcibly terminated at its configured operation step.
    Crash,
    /// The sender's *connection* was severed mid-operation. Recorded at
    /// the sending edge like every other decision; transports without
    /// connections (in-process) record it as a semantic no-op, while a
    /// connection-oriented transport enacts it by cutting the link the
    /// sender lives on. Session-layer recovery (resume within the
    /// lease) is expected to make the operation itself still succeed.
    Sever,
    /// Like [`FaultKind::Sever`], but the cut link additionally may not
    /// be re-established for the plan's partition duration — a
    /// short-lived network partition rather than a single dropped
    /// connection.
    Partition,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Delay => write!(f, "delay"),
            FaultKind::Duplicate => write!(f, "duplicate"),
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::Sever => write!(f, "sever"),
            FaultKind::Partition => write!(f, "partition"),
        }
    }
}

/// One injected fault, as recorded in the network's fault log.
///
/// For message faults (`Drop`/`Delay`/`Duplicate`), `from`/`to` name
/// the communication edge and `seq` is the edge-local send index. For
/// `Crash`, `from` and `to` both name the victim and `seq` is the
/// victim's operation count at the moment it crashed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultRecord<I> {
    /// The kind of fault injected.
    pub kind: FaultKind,
    /// Sending side of the affected edge (the victim, for crashes).
    pub from: I,
    /// Receiving side of the affected edge (the victim, for crashes).
    pub to: I,
    /// Edge-local send index (operation count, for crashes).
    pub seq: u64,
}

impl<I: std::fmt::Debug> std::fmt::Display for FaultRecord<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {:?}->{:?} #{}",
            self.kind, self.from, self.to, self.seq
        )
    }
}

/// A seeded, deterministic schedule of faults.
///
/// All probabilities default to zero, so `FaultPlan::new(seed)` injects
/// nothing; enable individual fault classes with the builder methods.
///
/// # Example
///
/// ```
/// use script_chan::FaultPlan;
///
/// let plan = FaultPlan::new(7)
///     .with_drop(0.05)
///     .with_delay(0.2, std::time::Duration::from_micros(200))
///     .with_crash(0.5, 3);
/// assert_eq!(plan.seed(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    delay_prob: f64,
    delay: Duration,
    duplicate_prob: f64,
    crash_prob: f64,
    crash_step: u64,
    sever_prob: f64,
    partition_prob: f64,
    partition: Duration,
}

impl FaultPlan {
    /// A plan injecting nothing, keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            duplicate_prob: 0.0,
            crash_prob: 0.0,
            crash_step: 0,
            sever_prob: 0.0,
            partition_prob: 0.0,
            partition: Duration::ZERO,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same fault classes and probabilities under a different seed
    /// (e.g. one derived per performance from an instance-level seed).
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        Self { seed, ..*self }
    }

    /// Drops each sent message with probability `p` (the sender still
    /// observes a successful send).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// Delays each delivery with probability `p` by `delay` before the
    /// message is deposited.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_delay(mut self, p: f64, delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay probability out of range");
        self.delay_prob = p;
        self.delay = delay;
        self
    }

    /// Redelivers each successfully received message a second time with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability out of range"
        );
        self.duplicate_prob = p;
        self
    }

    /// Crashes each peer with probability `p` when that peer performs
    /// its `step`-th network operation (1-based: `step = 1` crashes the
    /// victim on its first operation). Crash selection is per-peer and
    /// seed-derived, so the victim set is independent of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0` or `step` is zero.
    #[must_use]
    pub fn with_crash(mut self, p: f64, step: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "crash probability out of range");
        assert!(step > 0, "crash step is 1-based");
        self.crash_prob = p;
        self.crash_step = step;
        self
    }

    /// Severs the sender's connection with probability `p` as each
    /// message enters the sending edge. The decision is recorded like
    /// any other fault; only connection-oriented transports enact it
    /// (the in-process transport has no connection to cut), and a
    /// session layer with resumption makes the operation still succeed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_sever(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "sever probability out of range");
        self.sever_prob = p;
        self
    }

    /// Cuts the sender's connection with probability `p` and keeps it
    /// unreconnectable for `duration` (a transient network partition).
    /// When both a partition and a sever would fire on the same
    /// message, the partition wins and only it is recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_partition(mut self, p: f64, duration: Duration) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "partition probability out of range"
        );
        self.partition_prob = p;
        self.partition = duration;
        self
    }

    /// The configured per-hop delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// The configured drop probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_prob
    }

    /// The configured delay probability.
    pub fn delay_probability(&self) -> f64 {
        self.delay_prob
    }

    /// The configured duplicate probability.
    pub fn duplicate_probability(&self) -> f64 {
        self.duplicate_prob
    }

    /// The configured crash probability.
    pub fn crash_probability(&self) -> f64 {
        self.crash_prob
    }

    /// The configured crash step (0 when crashes are disabled).
    pub fn crash_step(&self) -> u64 {
        self.crash_step
    }

    /// The configured sever probability.
    pub fn sever_probability(&self) -> f64 {
        self.sever_prob
    }

    /// The configured partition probability.
    pub fn partition_probability(&self) -> f64 {
        self.partition_prob
    }

    /// The configured partition duration.
    pub fn partition_duration(&self) -> Duration {
        self.partition
    }

    /// True if no fault class is enabled.
    pub fn is_noop(&self) -> bool {
        !self.has_message_faults() && !self.has_crashes() && !self.has_connection_faults()
    }

    /// True if any per-message fault class (drop, delay, duplicate) can
    /// fire.
    pub fn has_message_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.delay_prob > 0.0 || self.duplicate_prob > 0.0
    }

    /// True if peer crashes can fire.
    pub fn has_crashes(&self) -> bool {
        self.crash_prob > 0.0 && self.crash_step > 0
    }

    /// True if any connection-level fault class (sever, partition) can
    /// fire.
    pub fn has_connection_faults(&self) -> bool {
        self.sever_prob > 0.0 || self.partition_prob > 0.0
    }

    /// Should the `seq`-th message on edge `from → to` be dropped?
    pub fn decide_drop<I: Hash>(&self, from: &I, to: &I, seq: u64) -> bool {
        self.decide(b"drop", from, to, seq, self.drop_prob)
    }

    /// Should the `seq`-th message on edge `from → to` be delayed?
    pub fn decide_delay<I: Hash>(&self, from: &I, to: &I, seq: u64) -> bool {
        self.decide(b"delay", from, to, seq, self.delay_prob)
    }

    /// Should the `seq`-th message on edge `from → to` be duplicated?
    pub fn decide_duplicate<I: Hash>(&self, from: &I, to: &I, seq: u64) -> bool {
        self.decide(b"dup", from, to, seq, self.duplicate_prob)
    }

    /// Is `peer` a crash victim under this plan? (If so, it crashes at
    /// operation [`FaultPlan::crash_step`].)
    pub fn decide_crash<I: Hash>(&self, peer: &I) -> bool {
        self.crash_step > 0 && self.decide(b"crash", peer, peer, 0, self.crash_prob)
    }

    /// Should the `seq`-th message on edge `from → to` sever the
    /// sender's connection?
    pub fn decide_sever<I: Hash>(&self, from: &I, to: &I, seq: u64) -> bool {
        self.decide(b"sever", from, to, seq, self.sever_prob)
    }

    /// Should the `seq`-th message on edge `from → to` open a transient
    /// partition on the sender's connection?
    pub fn decide_partition<I: Hash>(&self, from: &I, to: &I, seq: u64) -> bool {
        self.decide(b"part", from, to, seq, self.partition_prob)
    }

    /// Seeded Bernoulli draw from the (tag, edge, seq) key. FNV-1a is
    /// stable across platforms and runs, which makes fault schedules
    /// replayable byte-for-byte.
    fn decide<I: Hash>(&self, tag: &[u8], from: &I, to: &I, seq: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut h = SeededFnv::new(self.seed);
        h.write(tag);
        from.hash(&mut h);
        to.hash(&mut h);
        h.write_u64(seq);
        // 53 uniform bits → [0, 1).
        let unit = (h.finish() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// FNV-1a keyed by a seed, finished with one SplitMix64 avalanche so low
/// bits are well mixed: the workspace's one stable hash (fault decisions,
/// descriptor MACs), as `DefaultHasher` across Rust releases is not.
#[derive(Debug)]
pub struct SeededFnv(u64);

impl SeededFnv {
    /// A hasher keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl Hasher for SeededFnv {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One SplitMix64 step: advances `state` by the golden gamma and returns
/// [`SeededFnv`]'s avalanche of it — the workspace's one seed generator
/// (per-performance seeds, retry jitter, gossip views).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    SeededFnv(*state).finish()
}

/// A fault log grouped by directed edge: each `(from, to)` pair with
/// that edge's records in their original (edge-local) order, edges
/// sorted.
pub type EdgeLog<I> = Vec<((I, I), Vec<FaultRecord<I>>)>;

/// Groups an ordered fault log by directed communication edge,
/// preserving each edge's own record order.
///
/// Because every [`FaultPlan`] decision is a pure function of
/// `(kind, from, to, seq)`, the per-edge sub-logs are the
/// interleaving-free view of a chaos run: two runs of the same
/// protocol under the same plan — even on different transports, or
/// with performances spread across federated data-plane nodes — must
/// produce identical groupings even when the *global* log order
/// differs. Edges are returned in sorted order so the result is
/// directly comparable across runs.
pub fn per_edge_log<I>(log: &[FaultRecord<I>]) -> EdgeLog<I>
where
    I: Clone + Ord,
{
    let mut edges: std::collections::BTreeMap<(I, I), Vec<FaultRecord<I>>> =
        std::collections::BTreeMap::new();
    for rec in log {
        edges
            .entry((rec.from.clone(), rec.to.clone()))
            .or_default()
            .push(rec.clone());
    }
    edges.into_iter().collect()
}

/// Renders a fault log as one stable fingerprint string per edge:
/// `"from->to: kind#seq kind#seq …"`, edges sorted, records in their
/// edge-local order.
///
/// Useful for asserting bit-identical fault schedules across
/// transports (the conformance and soak harnesses compare these
/// line-for-line between in-process, socket, and federated runs).
pub fn per_edge_fingerprints<I>(log: &[FaultRecord<I>]) -> Vec<String>
where
    I: Clone + Ord + std::fmt::Debug,
{
    per_edge_log(log)
        .into_iter()
        .map(|((from, to), recs)| {
            let mut line = format!("{from:?}->{to:?}:");
            for r in &recs {
                use std::fmt::Write as _;
                let _ = write!(line, " {}#{}", r.kind, r.seq);
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_decides_nothing() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_noop());
        for seq in 0..100 {
            assert!(!plan.decide_drop(&"a", &"b", seq));
            assert!(!plan.decide_delay(&"a", &"b", seq));
            assert!(!plan.decide_duplicate(&"a", &"b", seq));
        }
        assert!(!plan.decide_crash(&"a"));
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).with_drop(0.5);
        let b = FaultPlan::new(1).with_drop(0.5);
        let c = FaultPlan::new(2).with_drop(0.5);
        let draws = |p: &FaultPlan| -> Vec<bool> {
            (0..256).map(|s| p.decide_drop(&"x", &"y", s)).collect()
        };
        assert_eq!(draws(&a), draws(&b));
        assert_ne!(draws(&a), draws(&c));
    }

    #[test]
    fn decisions_are_edge_local() {
        let plan = FaultPlan::new(3).with_drop(0.5);
        let ab: Vec<bool> = (0..256).map(|s| plan.decide_drop(&"a", &"b", s)).collect();
        let ba: Vec<bool> = (0..256).map(|s| plan.decide_drop(&"b", &"a", s)).collect();
        // Directionality matters (overwhelmingly unlikely to collide).
        assert_ne!(ab, ba);
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let plan = FaultPlan::new(9).with_drop(0.25);
        let hits = (0..10_000)
            .filter(|&s| plan.decide_drop(&"a", &"b", s))
            .count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn crash_selection_is_per_peer() {
        let plan = FaultPlan::new(4).with_crash(0.5, 2);
        let victims: Vec<bool> = (0..64).map(|i| plan.decide_crash(&i)).collect();
        assert!(victims.iter().any(|&v| v), "some peer crashes");
        assert!(!victims.iter().all(|&v| v), "not every peer crashes");
        assert_eq!(
            victims,
            (0..64).map(|i| plan.decide_crash(&i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn extreme_probabilities_short_circuit() {
        let plan = FaultPlan::new(5).with_drop(1.0).with_duplicate(0.0);
        assert!(plan.decide_drop(&"a", &"b", 0));
        assert!(!plan.decide_duplicate(&"a", &"b", 0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let _ = FaultPlan::new(0).with_drop(1.5);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_crash_step_rejected() {
        let _ = FaultPlan::new(0).with_crash(0.5, 0);
    }

    #[test]
    fn connection_faults_are_deterministic_and_distinct() {
        let plan = FaultPlan::new(6)
            .with_sever(0.5)
            .with_partition(0.5, Duration::from_millis(40));
        assert!(plan.has_connection_faults());
        assert!(!plan.is_noop());
        assert_eq!(plan.partition_duration(), Duration::from_millis(40));
        let severs: Vec<bool> = (0..256).map(|s| plan.decide_sever(&"a", &"b", s)).collect();
        let parts: Vec<bool> = (0..256)
            .map(|s| plan.decide_partition(&"a", &"b", s))
            .collect();
        assert!(severs.iter().any(|&v| v) && !severs.iter().all(|&v| v));
        // The two classes draw from distinct hash tags.
        assert_ne!(severs, parts);
        assert_eq!(
            severs,
            (0..256)
                .map(|s| plan.decide_sever(&"a", &"b", s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_sever_probability_rejected() {
        let _ = FaultPlan::new(0).with_sever(-0.1);
    }

    #[test]
    fn per_edge_grouping_is_order_insensitive_across_edges() {
        let rec = |kind, from: &str, to: &str, seq| FaultRecord {
            kind,
            from: from.to_string(),
            to: to.to_string(),
            seq,
        };
        // Two logs with the same per-edge contents but different global
        // interleavings (as two transports would produce).
        let run_a = vec![
            rec(FaultKind::Drop, "a", "b", 0),
            rec(FaultKind::Sever, "b", "c", 1),
            rec(FaultKind::Drop, "a", "b", 4),
            rec(FaultKind::Delay, "b", "c", 2),
        ];
        let run_b = vec![
            rec(FaultKind::Sever, "b", "c", 1),
            rec(FaultKind::Delay, "b", "c", 2),
            rec(FaultKind::Drop, "a", "b", 0),
            rec(FaultKind::Drop, "a", "b", 4),
        ];
        assert_eq!(per_edge_log(&run_a), per_edge_log(&run_b));
        assert_eq!(per_edge_fingerprints(&run_a), per_edge_fingerprints(&run_b));
        assert_eq!(
            per_edge_fingerprints(&run_a),
            vec![
                "\"a\"->\"b\": drop#0 drop#4".to_string(),
                "\"b\"->\"c\": sever#1 delay#2".to_string(),
            ]
        );
    }

    #[test]
    fn per_edge_grouping_preserves_edge_local_order() {
        let rec = |seq| FaultRecord {
            kind: FaultKind::Drop,
            from: "a",
            to: "b",
            seq,
        };
        // Edge-local order is the log order, not sorted by seq.
        let log = vec![rec(9), rec(2), rec(5)];
        let grouped = per_edge_log(&log);
        assert_eq!(grouped.len(), 1);
        assert_eq!(
            grouped[0].1.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![9, 2, 5]
        );
        assert_eq!(
            per_edge_fingerprints(&log),
            vec!["\"a\"->\"b\": drop#9 drop#2 drop#5".to_string()]
        );
    }

    #[test]
    fn record_display_names_edge() {
        let r = FaultRecord {
            kind: FaultKind::Drop,
            from: "a",
            to: "b",
            seq: 3,
        };
        assert!(r.to_string().contains("drop"));
        assert!(r.to_string().contains('3'));
    }
}
