//! The four workloads: what each one builds (its *rig*), what one
//! round of it runs, and what it checks. All of it is closed loop with
//! one driver, and all of it only calls the public API of the crates
//! under test.
//!
//! Roles are OS threads (the paper's model and the engine's design):
//! every cast member is a persistent thread looping `enroll*` — the
//! paper's "processes repeatedly enroll" — so no thread is spawned per
//! performance. Casts stay at five roles or fewer because the box has
//! two cores.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use script_chan::{Network, ShardedTransport, Transport};
use script_core::{
    Instance, MetricsObserver, NetworkFactory, PerformanceNet, RetryPolicy, RoleId, ScriptError,
};
use script_lib::broadcast::{self, Order};
use script_lib::gossip;
use script_net::{DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

use crate::scripts::{self, SinkParams, SinkRound, SourceParams, MSG_BYTES, SOURCES};
use crate::trace::{self, NO_PERF};

pub const WORKLOADS: [&str; 4] = ["inproc_mix", "socket_mix", "socket_stream", "relay_stream"];

/// Star recipients and commit participants.
const FAN: usize = 3;
const GOSSIP_MEMBERS: usize = 4;
const GOSSIP_FANOUT: usize = 2;
/// Hubs of this many most recent performances stay up in `socket_mix`.
const PARKED_HUBS: usize = 2;
const FLEET_SECRET: u64 = 0xBE7C;

/// Fixed operation counts of one round — never scaled at run time; the
/// number of rounds is what fills `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Star, commit and gossip performances (mix workloads).
    pub mix: [u64; 3],
    /// Messages per source (stream workloads).
    pub stream: u64,
}

impl Counts {
    fn scaled(self, divisor: u64) -> Self {
        Counts {
            mix: self.mix.map(|c| (c / divisor).max(1)),
            stream: (self.stream / divisor).max(1),
        }
    }
}

pub fn is_stream(workload: &str) -> bool {
    workload.ends_with("_stream")
}

/// `(warm-up round, measured round)` of a workload. Every measured
/// round yields at least 1000 latency samples, so its p99 has ten
/// samples beyond it. `divisor` is 1, or 50 for `--smoke`.
pub fn counts(workload: &str, divisor: u64) -> (Counts, Counts) {
    let (warm, round) = match workload {
        "inproc_mix" => ([4000, 2500, 3000], [4000, 2500, 3000]),
        "socket_mix" => ([400, 250, 400], [400, 250, 400]),
        _ => ([0; 3], [0; 3]),
    };
    let c = |mix, stream| Counts { mix, stream }.scaled(divisor);
    (c(warm, 15_000), c(round, 15_000))
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub seconds: f64,
    pub ops: u64,
    pub failed: u64,
    /// Latency of every op, µs, unsorted.
    pub lat_us: Vec<f64>,
    /// The same latencies split by script (mix workloads only).
    pub parts: Vec<(&'static str, Vec<f64>)>,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        ok,
        detail: detail.into(),
    }
}

fn check_eq(name: impl Into<String>, got: u64, want: u64) -> Check {
    check(name, got == want, format!("got {got}, want {want}"))
}

/// What a rig hands back when it is torn down.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Vec<Check>,
    /// Ops found wrong only at teardown (cast-member side).
    pub failed: u64,
    /// Raw counts read from the program's public counters, by name.
    pub counts: Vec<(String, f64)>,
}

impl Report {
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub trait Rig {
    /// Runs one round of `counts` and checks its outputs.
    fn round(&mut self, counts: &Counts) -> Round;
    /// Tears the rig down, joins its threads, runs the final checks.
    fn finish(self: Box<Self>) -> Report;
}

/// Builds the rig of `workload`. With `traced`, a `MetricsObserver` is
/// subscribed to every instance and the rig reports its counts.
pub fn build(workload: &str, seed: u64, traced: bool) -> Box<dyn Rig> {
    match workload {
        "inproc_mix" => Box::new(MixRig::build(seed, false, traced)),
        "socket_mix" => Box::new(MixRig::build(seed, true, traced)),
        "socket_stream" => Box::new(StreamRig::build(seed, false, traced)),
        "relay_stream" => Box::new(StreamRig::build(seed, true, traced)),
        other => panic!("unknown workload {other:?}"),
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn default_retry() -> RetryPolicy {
    // `SocketTransport::connect`'s own policy.
    RetryPolicy::new(6)
        .with_base(Duration::from_millis(25))
        .with_cap(Duration::from_millis(500))
}

// ---------------------------------------------------------------- mix

/// What one cast-member thread saw over its life.
#[derive(Debug, Default)]
pub struct Tally {
    ok: u64,
    wrong: u64,
    /// Deliveries per member slot (gossip: the engine assigns slots).
    slots: [u64; GOSSIP_MEMBERS],
    error: Option<String>,
}

/// Lets the driver sleep until every member of a gossip performance
/// holds its delivery (immediate termination lets the seeder leave
/// first, and the next performance must not start before).
struct Latch {
    left: AtomicU32,
    driver: Thread,
}

impl Latch {
    fn arm(&self, n: u32) {
        self.left.store(n, Ordering::SeqCst);
    }
    fn hit(&self) {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.driver.unpark();
        }
    }
    fn wait(&self) {
        while self.left.load(Ordering::SeqCst) != 0 {
            thread::park();
        }
    }
}

/// One hub and the spoke of the performance placed on it.
struct Parked {
    hub: TransportServer<RoleId, u64>,
    spoke: Arc<SocketTransport<RoleId, u64>>,
}

/// The hubs `socket_mix` keeps alive: each performance gets its own
/// (role ids repeat across performances, so a hub namespace cannot be
/// shared), and the driver retires the ones older than
/// [`PARKED_HUBS`] performances so teardown is paid inside the
/// measured window like set-up.
#[derive(Default)]
struct Park {
    queue: Mutex<VecDeque<Parked>>,
    sessions: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    relay_dials: AtomicU64,
    lost: AtomicU64,
}

impl Park {
    fn retire(&self, keep: usize, perf: u64) {
        loop {
            let old = {
                let mut q = self.queue.lock().expect("park lock is never poisoned");
                if q.len() > keep {
                    q.pop_front()
                } else {
                    None
                }
            };
            let Some(old) = old else { return };
            self.sessions.fetch_add(1, Ordering::Relaxed);
            self.bytes_sent
                .fetch_add(old.spoke.bytes_sent(), Ordering::Relaxed);
            self.bytes_received
                .fetch_add(old.spoke.bytes_received(), Ordering::Relaxed);
            self.relay_dials
                .fetch_add(old.spoke.relay_dials(), Ordering::Relaxed);
            self.lost
                .fetch_add(u64::from(old.spoke.is_lost()), Ordering::Relaxed);
            let Parked { hub, spoke } = old;
            drop(spoke);
            let _span = trace::span("net.server.drop", perf);
            drop(hub);
        }
    }
}

/// Places every performance of `inst` on its own loopback hub.
fn place_on_sockets(inst: &Instance<u64>, park: &Arc<Park>, first_role: RoleId) {
    let park = Arc::clone(park);
    let factory: Arc<NetworkFactory<u64>> = Arc::new(move |net: &PerformanceNet| {
        let perf = net.performance.0;
        let inner: Arc<dyn Transport<RoleId, u64>> =
            Arc::new(ShardedTransport::new(net.open, None));
        let hub = {
            let _span = trace::span("net.server.bind", perf);
            TransportServer::bind("127.0.0.1:0", inner).expect("bind loopback hub")
        };
        let spoke = {
            let _span = trace::span("net.client.connect", perf);
            let spoke = Arc::new(
                SocketTransport::<RoleId, u64>::connect(hub.local_addr()).expect("loopback addr"),
            );
            // `connect` does no I/O; the engine's first call dials. A
            // traced run dials here instead (one idempotent declare
            // the engine repeats anyway), so the span sees the dial
            // and the `HelloNew` handshake.
            if trace::enabled() {
                spoke.declare(first_role.clone());
            }
            spoke
        };
        park.queue
            .lock()
            .expect("park lock is never poisoned")
            .push_back(Parked {
                hub,
                spoke: Arc::clone(&spoke),
            });
        Network::with_transport(spoke)
    });
    inst.set_network_factory(factory);
}

pub type Drive = Box<dyn Fn(&Instance<u64>, u64) -> Result<bool, ScriptError>>;

/// One script of a mix workload: a persistent instance, its persistent
/// cast, and the driver's side of one performance.
pub struct Lane {
    name: &'static str,
    /// Name of the span around each performance the driver runs.
    pub perf_span: &'static str,
    pub inst: Instance<u64>,
    /// Enrolls the driver role in performance `k`; `Ok(true)` when the
    /// driver-visible output is right.
    drive: Drive,
    cast: Vec<JoinHandle<Tally>>,
    closing: Arc<AtomicBool>,
    metrics: Option<Arc<MetricsObserver>>,
    park: Option<Arc<Park>>,
    /// Rendezvous every performance of this script makes, when fixed.
    rdv_per_perf: Option<u64>,
    driven: u64,
}

/// A cast member's life: enroll, check the result, enroll again, until
/// the instance closes under it.
fn cast_member(
    inst: Instance<u64>,
    closing: Arc<AtomicBool>,
    mut enroll: impl FnMut(&Instance<u64>, u64, &mut Tally) -> Result<bool, ScriptError>,
) -> Tally {
    let mut tally = Tally::default();
    for k in 0.. {
        let span = trace::span("core.member_enroll", k);
        let result = enroll(&inst, k, &mut tally);
        drop(span);
        match result {
            Ok(true) => tally.ok += 1,
            Ok(false) => tally.wrong += 1,
            // Released by the final `close`: not a failure.
            Err(ScriptError::InstanceClosed | ScriptError::PerformanceAborted)
                if closing.load(Ordering::SeqCst) =>
            {
                break
            }
            Err(e) => {
                tally.error = Some(format!("enrollment {k}: {e:?}"));
                // Fail the driver's next enroll instead of hanging it.
                inst.close();
                break;
            }
        }
    }
    tally
}

impl Lane {
    pub fn new(
        name: &'static str,
        perf_span: &'static str,
        inst: Instance<u64>,
        first_role: &str,
        socket: bool,
        traced: bool,
        drive: Drive,
    ) -> Self {
        let metrics = traced.then(|| Arc::new(MetricsObserver::new()));
        if let Some(m) = &metrics {
            inst.set_observer(Arc::clone(m) as _);
        }
        let park = socket.then(|| Arc::new(Park::default()));
        if let Some(p) = &park {
            place_on_sockets(&inst, p, RoleId::new(first_role));
        }
        Lane {
            name,
            perf_span,
            inst,
            drive,
            cast: Vec::new(),
            closing: Arc::new(AtomicBool::new(false)),
            metrics,
            park,
            rdv_per_perf: None,
            driven: 0,
        }
    }

    pub fn spawn(
        &mut self,
        enroll: impl FnMut(&Instance<u64>, u64, &mut Tally) -> Result<bool, ScriptError>
            + Send
            + 'static,
    ) {
        let (inst, closing) = (self.inst.clone(), Arc::clone(&self.closing));
        let handle = thread::Builder::new()
            .name(format!("cast-{}", self.name))
            .spawn(move || cast_member(inst, closing, enroll))
            .expect("spawn cast member");
        self.cast.push(handle);
    }

    pub fn star(seed: u64, socket: bool, traced: bool) -> Self {
        let b = broadcast::star::<u64>(FAN, Order::Sequential);
        let sender = b.sender.clone();
        let mut lane = Lane::new(
            "star",
            "scripts.star.perf",
            b.script.instance(),
            "sender",
            socket,
            traced,
            Box::new(move |inst, k| {
                inst.enroll(&sender, scripts::star_value(seed, k))?;
                Ok(true)
            }),
        );
        for i in 0..FAN {
            let recipient = b.recipient.clone();
            lane.spawn(move |inst, k, _| {
                let got = inst.enroll_member(&recipient, i, ())?;
                Ok(got == scripts::star_value(seed, k))
            });
        }
        lane.rdv_per_perf = Some(FAN as u64);
        lane
    }

    fn commit(seed: u64, socket: bool, traced: bool) -> Self {
        let c = scripts::commit(FAN);
        let coordinator = c.coordinator.clone();
        let mut lane = Lane::new(
            "commit",
            "scripts.commit.perf",
            c.script.instance(),
            "coordinator",
            socket,
            traced,
            Box::new(move |inst, k| {
                let decided = inst.enroll(&coordinator, ())?;
                Ok(decided == scripts::decision(seed, k, FAN))
            }),
        );
        for i in 0..FAN {
            let participant = c.participant.clone();
            lane.spawn(move |inst, k, _| {
                let told = inst.enroll_member(&participant, i, scripts::vote(seed, k, i))?;
                Ok(told == scripts::decision(seed, k, FAN))
            });
        }
        lane.rdv_per_perf = Some(3 * FAN as u64);
        lane
    }

    fn gossip(seed: u64, socket: bool, traced: bool) -> Self {
        let g = gossip::gossip::<u64>(GOSSIP_MEMBERS, GOSSIP_FANOUT, seed);
        let latch = Arc::new(Latch {
            left: AtomicU32::new(0),
            driver: thread::current(),
        });
        let (seeder, armed) = (g.seeder.clone(), Arc::clone(&latch));
        let mut lane = Lane::new(
            "gossip",
            "scripts.gossip.perf",
            g.script.instance(),
            "seeder",
            socket,
            traced,
            Box::new(move |inst, k| {
                armed.arm(GOSSIP_MEMBERS as u32);
                inst.enroll(&seeder, scripts::rumor(seed, k))?;
                armed.wait();
                Ok(true)
            }),
        );
        for _ in 0..GOSSIP_MEMBERS {
            let (member, latch) = (g.member.clone(), Arc::clone(&latch));
            lane.spawn(move |inst, _, tally| {
                let d = inst.enroll_auto(&member, ())?;
                // The engine may admit one thread twice to a
                // performance and leave another out, so the delivery
                // names the performance; the thread's own count cannot.
                let ok = d.rumor == scripts::rumor(seed, d.performance.0);
                if let Some(slot) = tally.slots.get_mut(d.member) {
                    *slot += 1;
                }
                latch.hit();
                Ok(ok)
            });
        }
        lane
    }

    /// Drives `n` performances, then waits for the engine to count the
    /// last one complete.
    pub fn run(&mut self, n: u64, lat_us: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for _ in 0..n {
            let k = self.driven;
            let t0 = Instant::now();
            let perf_span = trace::span(self.perf_span, k);
            let result = {
                let _span = trace::span("core.enroll", k);
                (self.drive)(&self.inst, k)
            };
            if let Some(park) = &self.park {
                park.retire(PARKED_HUBS, k);
            }
            drop(perf_span);
            lat_us.push(micros(t0.elapsed()));
            self.driven += 1;
            match result {
                Ok(true) => {}
                Ok(false) => failed += 1,
                Err(e) => {
                    eprintln!("{}: performance {k} failed: {e:?}", self.name);
                    failed += 1;
                }
            }
        }
        // (Not after a failure: a closed instance completes nothing.)
        while failed == 0 && self.inst.completed_performances() < self.driven {
            thread::sleep(Duration::from_micros(50));
        }
        failed
    }

    pub fn finish(self, report: &mut Report) {
        let Lane {
            name,
            inst,
            cast,
            closing,
            metrics,
            park,
            rdv_per_perf,
            driven,
            ..
        } = self;
        // Read before `close`: members already gathering for the next
        // gossip performance are released by aborting it, which the
        // engine counts as one more terminated performance.
        let completed = inst.completed_performances();
        let snapshot = metrics.map(|m| m.snapshot());
        closing.store(true, Ordering::SeqCst);
        inst.close();
        let members = cast.len() as u64;
        let (mut ok, mut wrong, mut slots) = (0, 0, [0u64; GOSSIP_MEMBERS]);
        for handle in cast {
            let tally = handle.join().expect("cast member panicked");
            ok += tally.ok;
            wrong += tally.wrong;
            for (sum, s) in slots.iter_mut().zip(tally.slots) {
                *sum += s;
            }
            if let Some(e) = tally.error {
                report
                    .checks
                    .push(check(format!("{name}.cast_error"), false, e));
            }
        }
        report.failed += wrong;
        report.checks.extend([
            check_eq(format!("{name}.completed_performances"), completed, driven),
            check_eq(format!("{name}.member_results_right"), ok, members * driven),
        ]);
        // Only scripts whose results name a member slot report any.
        if slots != [0; GOSSIP_MEMBERS] {
            report.checks.push(check(
                format!("{name}.one_delivery_per_member"),
                slots.iter().all(|&s| s == driven),
                format!("deliveries per slot {slots:?}, want {driven} each"),
            ));
        }
        if let Some(park) = park {
            park.retire(0, NO_PERF);
            let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
            report.checks.extend([
                // One more when gossip members had already opened the
                // next performance.
                check(
                    format!("{name}.one_session_per_performance"),
                    n(&park.sessions).wrapping_sub(driven) <= 1,
                    format!("{} sessions for {driven} performances", n(&park.sessions)),
                ),
                check_eq(format!("{name}.spokes_lost"), n(&park.lost), 0),
                check_eq(format!("{name}.relay_dials"), n(&park.relay_dials), 0),
            ]);
            for (key, v) in [
                ("bytes_sent", &park.bytes_sent),
                ("bytes_received", &park.bytes_received),
                ("relay_dials", &park.relay_dials),
                ("lost", &park.lost),
            ] {
                report.counts.push((key.to_string(), n(v) as f64));
            }
        }
        if let Some(m) = snapshot {
            if let Some(per_perf) = rdv_per_perf {
                report.checks.push(check_eq(
                    format!("{name}.rdv_per_perf_is_{per_perf}"),
                    m.rendezvous,
                    per_perf * driven,
                ));
            }
            report.checks.extend([
                check_eq(
                    format!("{name}.performances_aborted"),
                    m.performances_aborted,
                    0,
                ),
                check_eq(
                    format!("{name}.performances_stalled"),
                    m.performances_stalled,
                    0,
                ),
            ]);
            push_metrics(report, name, &m);
        }
    }
}

/// Adds a `MetricsObserver` snapshot to the report's counts, both under
/// plain names (summed over instances) and under `<script>.` names.
fn push_metrics(report: &mut Report, script: &str, m: &script_core::InstanceMetrics) {
    let us = |q: f64| m.latency.quantile(q).map_or(0.0, micros);
    for (key, v) in [
        ("rendezvous", m.rendezvous as f64),
        ("performances", m.performances_completed as f64),
        ("roles_admitted", m.roles_admitted as f64),
        ("events", m.events as f64),
        ("performances_aborted", m.performances_aborted as f64),
        ("performances_stalled", m.performances_stalled as f64),
        ("latency_count", m.latency.count() as f64),
    ] {
        report.counts.push((key.to_string(), v));
        report.counts.push((format!("{script}.{key}"), v));
    }
    // Quantiles do not add up; keep them per script.
    report
        .counts
        .push((format!("{script}.chan_op_p50_us"), us(0.5)));
    report
        .counts
        .push((format!("{script}.chan_op_p99_us"), us(0.99)));
}

struct MixRig {
    lanes: Vec<Lane>,
}

impl MixRig {
    fn build(seed: u64, socket: bool, traced: bool) -> Self {
        MixRig {
            lanes: vec![
                Lane::star(seed, socket, traced),
                Lane::commit(seed, socket, traced),
                Lane::gossip(seed, socket, traced),
            ],
        }
    }
}

impl Rig for MixRig {
    fn round(&mut self, counts: &Counts) -> Round {
        let mut round = Round::default();
        let t0 = Instant::now();
        for (lane, &n) in self.lanes.iter_mut().zip(&counts.mix) {
            let mut lat = Vec::with_capacity(n as usize);
            round.failed += lane.run(n, &mut lat);
            round.ops += n;
            round.lat_us.extend_from_slice(&lat);
            round.parts.push((lane.name, lat));
        }
        round.seconds = t0.elapsed().as_secs_f64();
        round
    }

    fn finish(self: Box<Self>) -> Report {
        let mut report = Report::default();
        for lane in self.lanes {
            lane.finish(&mut report);
        }
        sum_duplicate_counts(&mut report);
        report
    }
}

/// Plain-named counts are pushed once per instance; fold them.
fn sum_duplicate_counts(report: &mut Report) {
    let mut folded: Vec<(String, f64)> = Vec::new();
    for (k, v) in report.counts.drain(..) {
        match folded.iter_mut().find(|(name, _)| *name == k) {
            Some((_, sum)) => *sum += v,
            None => folded.push((k, v)),
        }
    }
    report.counts = folded;
}

// ------------------------------------------------------------- stream

/// The hub and spoke of the one performance a stream rig runs.
type Session = (
    TransportServer<RoleId, String>,
    Arc<SocketTransport<RoleId, String>>,
);

struct StreamRig {
    inst: Instance<String>,
    sources: Vec<JoinHandle<Result<u64, ScriptError>>>,
    sink: JoinHandle<Result<u64, ScriptError>>,
    next_round: Sender<Option<u64>>,
    rounds: Receiver<Option<SinkRound>>,
    samples: Receiver<Vec<u32>>,
    session: Arc<Mutex<Option<Session>>>,
    fleet: Option<HubFleet>,
    metrics: Option<Arc<MetricsObserver>>,
    ops: u64,
}

impl StreamRig {
    fn build(seed: u64, relay: bool, traced: bool) -> Self {
        let script = scripts::stream();
        let inst = script.script.instance();
        let metrics = traced.then(|| Arc::new(MetricsObserver::new()));
        if let Some(m) = &metrics {
            inst.set_observer(Arc::clone(m) as _);
        }
        // `relay_stream` differs in the data path only: the performance
        // is placed through a long-lived fleet and every byte is
        // spliced through one of its shards.
        let fleet = relay.then(|| HubFleet::launch(2, FLEET_SECRET).expect("launch fleet"));
        let relay_via = fleet.as_ref().map(HubFleet::any_addr);
        let session: Arc<Mutex<Option<Session>>> = Arc::default();
        let slot = Arc::clone(&session);
        let factory: Arc<NetworkFactory<String>> = Arc::new(move |net: &PerformanceNet| {
            let perf = net.performance.0;
            let inner: Arc<dyn Transport<RoleId, String>> =
                Arc::new(ShardedTransport::new(net.open, None));
            let hub = {
                let _span = trace::span("net.server.bind", perf);
                TransportServer::bind("127.0.0.1:0", inner).expect("bind loopback hub")
            };
            let plan = match relay_via {
                None => DialPlan::direct(hub.local_addr()),
                Some(shard) => {
                    let ctl = FleetClient::connect(&shard.to_string(), FLEET_SECRET)
                        .expect("fleet bootstrap");
                    ctl.register_node(&hub.local_addr().to_string())
                        .expect("register home node");
                    let desc = {
                        let _span = trace::span("net.fleet.place", perf);
                        ctl.place("bench_stream", perf, &[], None)
                            .expect("place performance")
                    };
                    let home = desc.home.parse().expect("descriptor names an address");
                    DialPlan::direct(home).with_relay(shard).with_forced_relay()
                }
            };
            let spoke = {
                let _span = trace::span("net.client.connect", perf);
                let spoke = Arc::new(SocketTransport::<RoleId, String>::with_plan(
                    plan,
                    default_retry(),
                ));
                // See `place_on_sockets`.
                if trace::enabled() {
                    spoke.declare(RoleId::new("sink"));
                }
                spoke
            };
            *slot.lock().expect("session lock is never poisoned") = Some((hub, Arc::clone(&spoke)));
            Network::with_transport(spoke)
        });
        inst.set_network_factory(factory);

        let (sample_tx, samples) = channel();
        let sources = (0..SOURCES)
            .map(|i| {
                let (inst, source, tx) = (inst.clone(), script.source.clone(), sample_tx.clone());
                let params = SourceParams {
                    payload: scripts::payload(seed, i),
                    report: Box::new(move |s| {
                        let _ = tx.send(s);
                    }),
                };
                thread::Builder::new()
                    .name(format!("cast-source{i}"))
                    .spawn(move || inst.enroll_member(&source, i, params))
                    .expect("spawn source")
            })
            .collect();
        let (next_round, commands) = channel::<Option<u64>>();
        let (round_tx, rounds) = channel();
        let params = SinkParams {
            payloads: (0..SOURCES).map(|i| scripts::payload(seed, i)).collect(),
            on_round: Box::new(move |seen| {
                let _ = round_tx.send(seen);
                commands.recv().ok().flatten()
            }),
        };
        let (sink_inst, sink_role) = (inst.clone(), script.sink.clone());
        let sink = thread::Builder::new()
            .name("driver-sink".into())
            .spawn(move || sink_inst.enroll(&sink_role, params))
            .expect("spawn sink");
        let rig = StreamRig {
            inst,
            sources,
            sink,
            next_round,
            rounds,
            samples,
            session,
            fleet,
            metrics,
            ops: 0,
        };
        // The rig is built once the performance is under way: cast
        // matched, hub bound, performance placed.
        match rig.rounds.recv() {
            Ok(None) => rig,
            other => panic!("stream performance did not start: {other:?}"),
        }
    }
}

impl Rig for StreamRig {
    fn round(&mut self, counts: &Counts) -> Round {
        let n = counts.stream;
        let want = n * SOURCES as u64;
        let _span = trace::span("scripts.stream.round", NO_PERF);
        self.next_round.send(Some(n)).expect("sink is listening");
        let seen = self
            .rounds
            .recv()
            .ok()
            .flatten()
            .expect("sink reports the round");
        let mut lat_us = Vec::with_capacity(want as usize);
        for _ in 0..SOURCES {
            let s = self.samples.recv().expect("source reports its samples");
            lat_us.extend(s.into_iter().map(|ns| f64::from(ns) / 1e3));
        }
        self.ops += want;
        let short = want.saturating_sub(seen.messages)
            + (want * MSG_BYTES as u64).saturating_sub(seen.bytes) / MSG_BYTES as u64;
        Round {
            seconds: seen.seconds,
            ops: want,
            failed: (seen.wrong + short).min(want),
            lat_us,
            parts: Vec::new(),
        }
    }

    fn finish(self: Box<Self>) -> Report {
        let mut report = Report::default();
        self.next_round.send(None).expect("sink is listening");
        let received = self.sink.join().expect("sink panicked");
        report.checks.push(check(
            "stream.sink_received_all",
            received == Ok(self.ops),
            format!("sink returned {received:?}, want Ok({})", self.ops),
        ));
        for (i, source) in self.sources.into_iter().enumerate() {
            let sent = source.join().expect("source panicked");
            let want = self.ops / SOURCES as u64;
            report.checks.push(check(
                format!("stream.source{i}_sent_all"),
                sent == Ok(want),
                format!("source returned {sent:?}, want Ok({want})"),
            ));
        }
        report.checks.push(check_eq(
            "stream.completed_performances",
            self.inst.completed_performances(),
            1,
        ));
        self.inst.close();
        let session = self
            .session
            .lock()
            .expect("session lock is never poisoned")
            .take();
        let (hub, spoke) = session.expect("the performance was placed on a hub");
        let relayed = self.fleet.as_ref().map_or(0, HubFleet::relayed_bytes);
        let relay_dials = spoke.relay_dials();
        report.checks.extend([
            check_eq("stream.spokes_lost", u64::from(spoke.is_lost()), 0),
            match &self.fleet {
                None => check_eq("stream.relayed_bytes_is_0", relayed, 0),
                Some(_) => check(
                    "stream.relayed_bytes_positive",
                    relayed > 0 && relay_dials > 0,
                    format!("{relayed} bytes relayed over {relay_dials} relay dials"),
                ),
            },
        ]);
        for (key, v) in [
            ("bytes_sent", spoke.bytes_sent()),
            ("bytes_received", spoke.bytes_received()),
            ("relay_dials", relay_dials),
            ("lost", u64::from(spoke.is_lost())),
            ("relayed_bytes", relayed),
        ] {
            report.counts.push((key.to_string(), v as f64));
        }
        if let Some(metrics) = self.metrics {
            let m = metrics.snapshot();
            report.checks.extend([
                check_eq("stream.performances_aborted", m.performances_aborted, 0),
                check_eq("stream.performances_stalled", m.performances_stalled, 0),
            ]);
            push_metrics(&mut report, "stream", &m);
        }
        {
            let _span = trace::span("net.server.drop", 0);
            drop(hub);
        }
        drop(spoke);
        report
    }
}
