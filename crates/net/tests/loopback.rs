//! Loopback smoke tests: one hub, socket spokes, rendezvous across a
//! real TCP connection. The full contract is exercised by the
//! workspace-level conformance suite; these tests pin the basics close
//! to the crate so codec or connection regressions fail fast.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{
    Arm, CastStep, ChanError, FaultKind, FaultPlan, FaultRecord, Network, Observers, Outcome,
    PeerState, SessionEvent, ShardedTransport, Transport,
};
use script_net::proto::Req;
use script_net::{SocketTransport, TransportServer, Wire};

type Hub = TransportServer<String, u64>;

fn hub() -> Hub {
    let inner: Arc<dyn Transport<String, u64>> =
        Arc::new(ShardedTransport::new(false, Some(0x5eed)));
    TransportServer::bind("127.0.0.1:0", inner).expect("bind")
}

fn spoke(hub: &Hub) -> SocketTransport<String, u64> {
    SocketTransport::connect(hub.local_addr()).expect("resolve")
}

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(10))
}

type Log<T> = Arc<Mutex<Vec<T>>>;

/// Installs a fault observer on `t` that appends every record it is
/// pushed to the returned log.
fn collect_faults(t: &dyn Transport<String, u64>) -> Log<FaultRecord<String>> {
    let faults = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&faults);
    t.observe(Observers {
        fault: Some(Arc::new(move |rec| sink.lock().unwrap().push(rec.clone()))),
        ..Observers::default()
    });
    faults
}

#[test]
fn send_and_select_cross_the_socket() {
    let server = hub();
    let inner = server.inner();
    let client = spoke(&server);

    for id in ["a", "b"] {
        inner.declare(id.to_string());
    }
    client.activate("a".to_string());
    inner.activate("b".to_string());

    let sender = thread::spawn(move || {
        client
            .send(&"a".to_string(), &"b".to_string(), 41, far())
            .expect("send over socket");
        client
    });

    let got = inner
        .select(
            &"b".to_string(),
            vec![Arm::recv_from("a".to_string())],
            far(),
        )
        .expect("receive hub-side");
    match got {
        Outcome::Received { from, msg, .. } => {
            assert_eq!(from, "a");
            assert_eq!(msg, 41);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }

    let client = sender.join().expect("sender thread");

    // And the reverse direction: hub-local sends, spoke selects.
    let h = thread::spawn({
        let inner = Arc::clone(&inner);
        move || {
            inner
                .send(&"b".to_string(), &"a".to_string(), 17, far())
                .expect("send hub-side")
        }
    });
    let got = client
        .select(&"a".to_string(), vec![Arm::recv_any()], far())
        .expect("receive over socket");
    assert!(matches!(got, Outcome::Received { msg: 17, .. }));
    h.join().unwrap();
}

#[test]
fn severed_connection_surfaces_as_terminated_peer() {
    let server = hub();
    let inner = server.inner();

    for id in ["c", "d"] {
        inner.declare(id.to_string());
    }
    let client = spoke(&server);
    client.activate("c".to_string());
    inner.activate("d".to_string());

    // Sever without goodbye — what a crashed process looks like.
    client.close();

    // The hub notices the dead connection and finishes "c"; a blocked
    // hub-side receive from it must surface Terminated, not hang.
    let err = inner
        .select(
            &"d".to_string(),
            vec![Arm::recv_from("c".to_string())],
            Some(Instant::now() + Duration::from_secs(5)),
        )
        .expect_err("peer is gone");
    assert_eq!(err, ChanError::Terminated("c".to_string()));
}

/// Satellite regression for the unified retry path: a send the hub
/// *applied* whose ack was lost to a chaos sever must complete exactly
/// once — the reconnect replays the request, the hub answers it from
/// its session cache, and the receiver never sees a duplicate.
#[test]
fn write_applied_but_ack_severed_is_not_double_applied() {
    let server = hub();
    let inner = server.inner();

    for id in ["g", "h"] {
        inner.declare(id.to_string());
    }
    let client = spoke(&server);
    client.activate("g".to_string());
    inner.activate("h".to_string());
    let redials_before = script_net::io_stats().redial_threads;
    // The spoke subscribes to the hub's fault stream, which resumes
    // gaplessly with the session: the push for an operation's faults
    // reaches it before that operation's (replayed) answer.
    let faults = collect_faults(&client);

    // Every send decision severs the sending edge's connection. The
    // rendezvous itself still completes hub-side; only the ack dies.
    inner.set_fault_plan(FaultPlan::new(9).with_sever(1.0), |m| *m);

    let sender = thread::spawn(move || {
        client
            .send(&"g".to_string(), &"h".to_string(), 5, far())
            .expect("severed ack must not lose the applied send");
        client
    });

    let got = inner
        .select(
            &"h".to_string(),
            vec![Arm::recv_from("g".to_string())],
            far(),
        )
        .expect("receive hub-side");
    assert!(matches!(got, Outcome::Received { msg: 5, .. }));
    let client = sender.join().expect("sender thread");

    // Exactly once: the replayed request was answered from the cache,
    // so no second message can ever materialize.
    let err = inner
        .select(
            &"h".to_string(),
            vec![Arm::recv_from("g".to_string())],
            Some(Instant::now() + Duration::from_millis(300)),
        )
        .expect_err("no duplicate delivery");
    assert_eq!(err, ChanError::Timeout);

    let log = faults.lock().unwrap();
    assert!(
        log.iter().any(|r| r.kind == FaultKind::Sever),
        "the chaos layer pushed the sever: {log:?}"
    );
    assert!(!client.is_lost(), "the session resumed within its lease");
    // The caller was parked on its answer the whole time: the resume
    // ran on a redial thread, started when the connection died.
    assert!(script_net::io_stats().redial_threads > redials_before);
}

/// `{:?}` on a [`Network`] asks its transport nothing: over a spoke it
/// costs no round trip while the hub is up, and returns at once —
/// instead of working through the reconnect budget — once it is gone.
#[test]
fn formatting_a_network_does_no_io() {
    let server = hub();
    let client = Arc::new(spoke(&server));
    client.activate("f".to_string());
    let net = Network::with_transport(Arc::clone(&client) as Arc<dyn Transport<String, u64>>);
    // The driver's heartbeat may land between two counter reads, so
    // take the best of three; a formatter that calls out moves the
    // counter every time.
    let quiet = (0..3).any(|_| {
        let sent = client.bytes_sent();
        assert!(format!("{net:?}").starts_with("Network"));
        client.bytes_sent() == sent
    });
    assert!(quiet, "formatting a live network wrote to its hub");

    drop(server);
    let sent = client.bytes_sent();
    let started = Instant::now();
    assert!(format!("{net:?}").starts_with("Network"));
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "formatting must not wait on a dead hub"
    );
    assert_eq!(client.bytes_sent(), sent);
}

/// Satellite: shutdown paths are idempotent and panic-free — double
/// close, close racing drop, double hub shutdown, shutdown racing drop.
#[test]
fn close_and_shutdown_are_idempotent() {
    let server = hub();
    let client = spoke(&server);
    client.activate("i".to_string());

    client.close();
    client.close(); // second close: a no-op, not a panic
    drop(client); // drop after close: also a no-op

    server.shutdown();
    server.shutdown(); // idempotent
    drop(server); // drop after shutdown: idempotent
}

/// Satellite: closing a client *while* it is mid-reconnect must not
/// panic or hang — the dial loop observes the close and gives up, and
/// the queued operation fails with peer-loss semantics.
#[test]
fn close_during_reconnect_is_clean() {
    let server = hub();
    let client = Arc::new(spoke(&server));
    client.activate("j".to_string());

    // Kill the hub so the next operation enters the redial loop.
    server.shutdown();
    drop(server);

    let sender = thread::spawn({
        let client = Arc::clone(&client);
        move || {
            client
                .send(&"j".to_string(), &"k".to_string(), 1, far())
                .expect_err("hub is gone")
        }
    });
    // Let the send reach the dial loop, then close underneath it.
    thread::sleep(Duration::from_millis(50));
    client.close();
    let err = sender.join().expect("no panic while closing mid-dial");
    assert_eq!(err, ChanError::Terminated("k".to_string()));
    assert!(client.is_lost());
}

#[test]
fn lost_hub_degrades_like_a_crashed_peer() {
    let server = hub();
    let client = spoke(&server);
    server.inner().declare("e".to_string());
    client.activate("e".to_string());
    let before = client.activity();

    server.shutdown();
    // Give the spoke's reader thread a moment to observe the close.
    thread::sleep(Duration::from_millis(50));

    let err = client
        .send(&"e".to_string(), &"f".to_string(), 1, far())
        .expect_err("hub is gone");
    assert_eq!(err, ChanError::Terminated("f".to_string()));
    assert!(client.is_lost());
    assert!(client.is_aborted(), "a lost hub cannot host operations");
    // Activity freezes at the last observed value so watchdogs fire.
    assert_eq!(client.activity(), before.max(client.activity()));
}

/// The hub serves sessions only: a connection whose first frame is an
/// ordinary request — here a one-step `Cast`, which the pre-session
/// protocol would have applied — is closed unanswered, applies nothing,
/// and costs the hub's real spokes nothing.
#[test]
fn connection_without_a_session_handshake_is_severed() {
    use std::io::Read;
    use std::net::TcpStream;

    use script_net::write_frame;

    let server = hub();
    let inner = server.inner();

    let mut raw = TcpStream::connect(server.local_addr()).expect("raw dial");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frame = Vec::new();
    1u64.encode(&mut frame);
    Req::<String, u64>::Cast(vec![CastStep::Declare("ghost".to_string())]).encode(&mut frame);
    write_frame(&mut raw, &frame).expect("write first frame");
    let mut answer = Vec::new();
    // EOF (or a reset) with no bytes before it: severed, not answered.
    let _ = raw.read_to_end(&mut answer);
    assert!(answer.is_empty(), "hub answered a sessionless request");
    assert_eq!(inner.peer_state(&"ghost".to_string()), None);
    assert_eq!(server.stats().sessions, 0);

    let client = spoke(&server);
    client.activate("a".to_string());
    // The documented barrier: the activation is posted, and the hub's
    // own receive below must find `a` declared.
    assert!(client.peer_state(&"a".to_string()).is_some());
    inner.activate("b".to_string());
    let sender = thread::spawn(move || {
        client
            .send(&"a".to_string(), &"b".to_string(), 5, far())
            .expect("send over a real session");
        let got = client
            .select(&"a".to_string(), vec![Arm::recv_any()], far())
            .expect("select over a real session");
        assert!(matches!(got, Outcome::Received { msg: 6, .. }));
    });
    let got = inner
        .select(&"b".to_string(), vec![Arm::recv_any()], far())
        .expect("receive hub-side");
    assert!(matches!(got, Outcome::Received { msg: 5, .. }));
    inner
        .send(&"b".to_string(), &"a".to_string(), 6, far())
        .expect("send hub-side");
    sender.join().expect("spoke thread");
    assert_eq!(server.stats().sessions, 1);
}

/// An in-process transport that keeps the trait's declining
/// `submit_send` / `submit_select` defaults: everything else passes
/// through to a [`ShardedTransport`].
struct Declining(ShardedTransport<String, u64>);

impl Transport<String, u64> for Declining {
    fn cast(&self, steps: &[CastStep<String>]) {
        self.0.cast(steps);
    }
    fn abort(&self) {
        self.0.abort();
    }
    fn is_aborted(&self) -> bool {
        self.0.is_aborted()
    }
    fn peer_state(&self, id: &String) -> Option<PeerState> {
        self.0.peer_state(id)
    }
    fn activity(&self) -> u64 {
        self.0.activity()
    }
    fn reseed(&self, seed: u64) {
        self.0.reseed(seed);
    }
    fn ensure_peer(&self, id: &String) -> Result<(), ChanError<String>> {
        self.0.ensure_peer(id)
    }
    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&u64) -> u64) {
        self.0.set_fault_plan(plan, clone_fn);
    }
    fn clear_fault_plan(&self) {
        self.0.clear_fault_plan();
    }
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.0.fault_plan()
    }
    fn observe(&self, observers: Observers<String, u64>) {
        self.0.observe(observers);
    }
    fn send(
        &self,
        from: &String,
        to: &String,
        msg: u64,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<String>> {
        self.0.send(from, to, msg, deadline)
    }
    fn try_recv(&self, me: &String, from: &String) -> Result<Option<u64>, ChanError<String>> {
        self.0.try_recv(me, from)
    }
    fn select_in(
        &self,
        me: &String,
        arms: &mut [Arm<String, u64>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<String, u64>, ChanError<String>> {
        self.0.select_in(me, arms, deadline)
    }
}

/// The hub has no thread to block on an inner transport's behalf: an
/// inner that declines submission has every remote send and select
/// failed closed, while non-blocking requests still pass through. (The
/// inner is not a spoke of another hub of this process, which declines
/// too: the hub's calls into it would wait on the I/O thread for
/// answers only the I/O thread reads.)
#[test]
fn inner_transport_without_submission_fails_closed() {
    let declining = Arc::new(Declining(ShardedTransport::new(false, Some(7))));
    let inner: Arc<dyn Transport<String, u64>> = declining.clone();
    let chained = TransportServer::bind("127.0.0.1:0", inner).expect("bind");
    let client = spoke(&chained);
    let (a, b) = ("a".to_string(), "b".to_string());
    client.activate(a.clone());
    client.activate(b.clone());
    // The documented barrier: a cast is posted, so an observer that
    // reaches the hub another way first makes a query on the posting
    // spoke, whose answer is behind every earlier post.
    assert!(client.peer_state(&b).is_some());
    assert!(declining.peer_state(&a).is_some());
    assert!(matches!(
        client.send(&a, &b, 1, far()),
        Err(ChanError::Aborted)
    ));
    assert!(matches!(
        client.select(&b, vec![Arm::recv_any()], far()),
        Err(ChanError::Aborted)
    ));
    // The declined selection's arm list came back, and the session kept it.
    assert_eq!(chained.stats().spare_arm_lists, 1);
}

/// Completions from a foreign thread while the reactor is mid-turn: 8
/// spokes each keep 64 sends in flight to a **hub-local blocking**
/// receiver, so answers are queued by the scheduler thread (the
/// receiver's pickups ready the sends) at every point of the reactor's
/// turn — including between its last flush and its park, where a wake
/// that is skipped because the reactor "is awake" would strand the
/// answer in its `WriteBuf`. Every call returns.
#[test]
fn pipelined_answers_from_a_foreign_thread_are_never_stranded() {
    const SPOKES: usize = 8;
    const DEPTH: usize = 64;
    const PER_THREAD: u64 = 4;
    let server = hub();
    let inner = server.inner();
    let sink = "sink".to_string();
    inner.activate(sink.clone());
    let senders: Vec<_> = (0..SPOKES)
        .flat_map(|i| {
            let client = Arc::new(spoke(&server));
            let me = format!("src{i}");
            client.activate(me.clone());
            // The documented barrier: the hub's own receive below must
            // find a sender declared.
            assert!(client.peer_state(&me).is_some());
            (0..DEPTH).map(move |_| {
                let (client, me) = (Arc::clone(&client), me.clone());
                thread::Builder::new()
                    .stack_size(64 * 1024)
                    .spawn(move || {
                        for v in 0..PER_THREAD {
                            client
                                .send(&me, &"sink".to_string(), v, far())
                                .expect("the answer came back");
                        }
                    })
                    .expect("spawn sender")
            })
        })
        .collect();
    for _ in 0..(SPOKES * DEPTH) as u64 * PER_THREAD {
        let got = inner
            .select(&sink, vec![Arm::recv_any()], far())
            .expect("receive hub-side");
        assert!(matches!(got, Outcome::Received { .. }));
    }
    for s in senders {
        s.join().expect("sender returned");
    }
}

/// The replay cache is bounded by a count, not by throughput × the
/// heartbeat period: over a long fast stream of RPCs on one spoke the
/// hub never holds more answers than the spoke's ack constant plus what
/// is in flight (one call here) plus the few that complete while an ack
/// is on the wire.
#[test]
fn replay_cache_stays_bounded_on_a_long_stream() {
    use script_net::client::ACK_EVERY;
    const CALLS: usize = 50_000;
    const SLACK: usize = 64;
    let server = hub();
    let client = spoke(&server);
    let (a, b) = ("a".to_string(), "b".to_string());
    client.activate(a.clone());
    client.activate(b.clone());
    let mut most = 0;
    for _ in 0..CALLS {
        // A durable RPC: answered through the replay cache.
        assert_eq!(client.try_recv(&a, &b), Ok(None));
        let cached = server.stats().cached_answers;
        assert!(
            cached <= ACK_EVERY + 1 + SLACK,
            "{cached} answers cached, ack constant {ACK_EVERY}"
        );
        most = most.max(cached);
    }
    assert!(most >= ACK_EVERY / 2, "the cache did fill between acks");
}

/// On-the-wire size of `req` as a spoke sends it: a 4-byte length, an
/// 8-byte request id, the request.
fn frame_bytes(req: &Req<String, u64>) -> u64 {
    12 + req.to_bytes().len() as u64
}

/// Nine lifecycle steps over ids tagged `tag`, every one of which lands
/// somewhere else if two neighbours swap: `x` ends done only if its
/// finish follows its activation, `y` active only if its activation
/// follows its finish, and the seal must fall between the declarations
/// of `z` and `w`.
fn order_sensitive_run(
    tag: impl std::fmt::Display,
) -> (Vec<CastStep<String>>, [(String, PeerState); 4]) {
    let id = |name: &str| format!("{name}{tag}");
    let run = vec![
        CastStep::Declare(id("x")),
        CastStep::Activate(id("x")),
        CastStep::Finish(id("x")),
        CastStep::Declare(id("x")),
        CastStep::Finish(id("y")),
        CastStep::Activate(id("y")),
        CastStep::Declare(id("z")),
        CastStep::Seal,
        CastStep::Declare(id("w")),
    ];
    let left = [
        (id("x"), PeerState::Done),
        (id("y"), PeerState::Active),
        (id("z"), PeerState::Done),
        (id("w"), PeerState::Expected),
    ];
    (run, left)
}

/// A `cast` run crosses the socket as one frame, and the hub applies
/// it step by step, in order.
#[test]
fn cast_run_reaches_the_inner_transport_in_order() {
    let server = hub();
    let inner = server.inner();
    let client = spoke(&server);
    let (run, left) = order_sensitive_run(0);
    let before = inner.activity();
    client.cast(&run);
    // The documented barrier: the cast is posted, and a query on the
    // same spoke is answered behind it.
    assert!(!client.is_aborted());
    assert_eq!(
        inner.activity() - before,
        9,
        "nine steps, nine applications"
    );
    for (id, state) in left {
        assert_eq!(inner.peer_state(&id), Some(state), "{id}");
    }
}

/// A spoke's first write is the hello and the cast's one frame,
/// nothing else: an `Activate` step is what binds an id to the session,
/// so no frame goes ahead of the run to do that. Sever the spoke, let
/// the lease lapse, and every activated id surfaces `Terminated`.
#[test]
fn first_cast_puts_only_the_hello_and_its_own_frames_on_the_wire() {
    let ids = ["p", "q", "r"].map(String::from);
    let mut run: Vec<CastStep<String>> = ids.iter().cloned().map(CastStep::Declare).collect();
    run.extend(ids.iter().cloned().map(CastStep::Activate));
    run.push(CastStep::Seal);
    let expected = frame_bytes(&Req::HelloNew) + frame_bytes(&Req::Cast(run.clone()));

    // The driver's heartbeat may land before the counter is read, so
    // take the best of three.
    let mut last = None;
    let exact = (0..3).any(|_| {
        let server = hub();
        let client = spoke(&server);
        client.cast(&run);
        let sent = client.bytes_sent();
        // The documented barrier, after the count: the cast is posted,
        // and the hub is read directly below.
        assert!(!client.is_aborted());
        last = Some((server, client));
        sent == expected
    });
    assert!(exact, "the spoke wrote more than hello + one cast frame");

    let (server, client) = last.expect("at least one round");
    let inner = server.inner();
    inner.activate("watcher".to_string());
    client.close();
    for id in ids {
        let err = inner
            .select(
                &"watcher".to_string(),
                vec![Arm::recv_from(id.clone())],
                Some(Instant::now() + Duration::from_secs(5)),
            )
            .expect_err("peer is gone");
        assert_eq!(err, ChanError::Terminated(id));
    }
}

/// A connection cut while a cast is on the wire loses no step and
/// repeats none: the run is one request, so either the hub applied it
/// and answers the replay from its cache when the session resumes, or
/// it applies it then, still in order. Every round a hub-side send —
/// its sever decision cuts the spoke that animates `g` — races a fresh
/// nine-step run, at a different offset each time; the run must come
/// out the same wherever the cut falls.
#[test]
fn cast_run_severed_mid_cast_applies_each_step_once() {
    const ROUNDS: usize = 30;
    let server = hub();
    let inner = server.inner();
    let client = Arc::new(spoke(&server));
    let (g, h) = ("g".to_string(), "h".to_string());
    inner.declare(h.clone());
    client.activate(g.clone());
    inner.set_fault_plan(FaultPlan::new(9).with_sever(1.0), |m| *m);
    let faults = collect_faults(&*client);
    // The documented barrier: the activation and the subscription are
    // posted, and round 0 reads the hub's counter directly.
    assert_eq!(client.ensure_peer(&h), Ok(()));

    for round in 0..ROUNDS {
        let (run, left) = order_sensitive_run(round);
        let before = inner.activity();
        let cutter = {
            let (inner, g, h) = (Arc::clone(&inner), g.clone(), h.clone());
            thread::spawn(move || {
                thread::sleep(Duration::from_micros(10 * round as u64));
                // `h` never activates, so nothing is deposited and the
                // counter below moves for the run alone.
                let deadline = Some(Instant::now() + Duration::from_millis(5));
                inner
                    .send(&g, &h, 0, deadline)
                    .expect_err("h never receives");
            })
        };
        client.cast(&run);
        cutter.join().expect("cutter thread");
        // A durable round trip: once it is answered the session is
        // attached again, and the hub's counter reads real progress.
        assert_eq!(client.ensure_peer(&h), Ok(()));
        assert_eq!(
            inner.activity() - before,
            9,
            "round {round}: each step applied exactly once"
        );
        for (id, state) in left {
            assert_eq!(inner.peer_state(&id), Some(state), "round {round}: {id}");
        }
    }
    assert!(!client.is_lost(), "every cut resumed within the lease");
    let severs = faults
        .lock()
        .unwrap()
        .iter()
        .filter(|r| r.kind == FaultKind::Sever)
        .count();
    assert!(severs >= ROUNDS / 2, "the cuts did happen: {severs}");
}

/// A run too long for one frame still applies completely and in order:
/// the spoke cuts it at step boundaries into several `Cast` frames, each
/// small enough to send, and the session stays up.
#[test]
fn oversized_cast_is_cut_at_step_boundaries() {
    let server = hub();
    let inner = server.inner();
    let client = spoke(&server);
    // Nine order-sensitive steps over ids of 200 KiB each: 1.6 MB where
    // a frame holds 1 MiB.
    let (run, left) = order_sensitive_run("#".repeat(200 * 1024));
    assert!(Req::<String, u64>::Cast(run.clone()).to_bytes().len() > script_net::MAX_FRAME);
    let before = inner.activity();
    client.cast(&run);
    // The documented barrier: every part of the run is posted, and a
    // query on the same spoke is answered behind them all.
    assert!(!client.is_aborted());
    assert_eq!(inner.activity() - before, 9, "every step, once");
    for (id, state) in &left {
        assert_eq!(inner.peer_state(id), Some(*state), "{}", &id[..1]);
    }
    assert!(!client.is_lost(), "the session survived the long run");
    assert_eq!(client.ensure_peer(&left[3].0), Ok(()));
}

/// A frame with a retired tag is not a request any more: on a live
/// session the hub severs the connection and applies nothing, and goes
/// on serving everyone else. Tag 1 was the one-step `Declare(id)`, tag
/// 12 the inbox probe, which carried two ids.
#[test]
fn retired_request_frames_sever_the_connection() {
    use std::io::Read;
    use std::net::TcpStream;

    use script_net::{write_frame, FrameDecoder};

    let server = hub();
    for (tag, ids) in [(1u8, &["ghost"][..]), (12, &["ghost", "a"])] {
        let mut raw = TcpStream::connect(server.local_addr()).expect("raw dial");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut hello = Vec::new();
        1u64.encode(&mut hello);
        Req::<String, u64>::HelloNew.encode(&mut hello);
        write_frame(&mut raw, &hello).expect("write hello");
        let mut dec = FrameDecoder::new();
        dec.read_frame_from(&mut raw)
            .expect("read")
            .expect("session granted");
        assert!(!dec.mid_frame(), "the hub spoke past the hello");
        let mut frame = Vec::new();
        2u64.encode(&mut frame);
        frame.push(tag);
        for id in ids {
            id.to_string().encode(&mut frame);
        }
        write_frame(&mut raw, &frame).expect("write retired frame");
        let mut answer = Vec::new();
        let _ = raw.read_to_end(&mut answer);
        assert!(answer.is_empty(), "hub answered retired tag {tag}");
        assert_eq!(server.inner().peer_state(&"ghost".to_string()), None);
    }
    let client = spoke(&server);
    client.activate("a".to_string());
    assert_eq!(
        client.peer_state(&"a".to_string()),
        Some(PeerState::Active),
        "the hub serves on"
    );
}

/// `observe` merges. A hub observes faults on its inner transport to
/// stream them to subscribed spokes; hub-local code that then installs
/// only a session observer on the same inner transport leaves that
/// stream alone, and a spoke still hears of every dropped message.
#[test]
fn observing_sessions_on_the_inner_keeps_the_hubs_fault_stream() {
    let server = hub();
    let inner = server.inner();
    let client = spoke(&server);
    let faults = collect_faults(&client);
    let sessions: Log<SessionEvent<String>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&sessions);
    inner.observe(Observers {
        session: Some(Arc::new(move |event| {
            sink.lock().unwrap().push(event.clone())
        })),
        ..Observers::default()
    });
    inner.set_fault_plan(FaultPlan::new(4).with_drop(1.0), |m| *m);
    let (a, b) = ("a".to_string(), "b".to_string());
    client.activate(a.clone());
    inner.activate(b.clone());
    for msg in 0..3 {
        // Dropped: the send completes and nobody receives it.
        client
            .send(&a, &b, msg, far())
            .expect("a dropped send returns");
    }
    // The hub writes an operation's fault push before its answer, and
    // the spoke dispatches in frame order.
    let seen = faults.lock().unwrap().clone();
    assert_eq!(seen.len(), 3, "every drop reached the spoke: {seen:?}");
    assert!(seen
        .iter()
        .all(|r| r.kind == FaultKind::Drop && r.from == a && r.to == b));
    assert!(sessions.lock().unwrap().is_empty(), "no session moved");
}

/// A traced performance observes faults and rendezvous; one subscription
/// feeds both, so a second `observe` that adds the rendezvous slot costs
/// no round trip.
#[test]
fn installing_both_observers_subscribes_once() {
    let expected = frame_bytes(&Req::HelloNew) + frame_bytes(&Req::SubscribeFrom { seq: 0 });
    // The driver's heartbeat may land before the counter is read, so
    // take the best of three.
    let mut last = None;
    let exact = (0..3).any(|_| {
        let server = hub();
        let client = spoke(&server);
        let faults = collect_faults(&client);
        let rendezvous = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&rendezvous);
        client.observe(Observers {
            rendezvous: Some((
                Arc::new(move |rec| sink.lock().unwrap().push(rec.clone())),
                |_| None,
            )),
            ..Observers::default()
        });
        let sent = client.bytes_sent();
        last = Some((server, client, faults, rendezvous));
        sent == expected
    });
    assert!(
        exact,
        "two observers cost more than hello + one subscription"
    );

    // Both observers are fed: a delayed (so faulted) send from the
    // spoke, picked up hub-side.
    let (server, client, faults, rendezvous) = last.expect("at least one round");
    let inner = server.inner();
    let (a, b) = ("a".to_string(), "b".to_string());
    client.activate(a.clone());
    // The documented barrier: the hub's own receive below must find `a`
    // declared.
    assert!(client.peer_state(&a).is_some());
    inner.activate(b.clone());
    inner.set_fault_plan(
        FaultPlan::new(3).with_delay(1.0, Duration::from_micros(50)),
        |m| *m,
    );
    let receiver = thread::spawn({
        let (inner, b) = (Arc::clone(&inner), b.clone());
        move || inner.select(&b, vec![Arm::recv_any()], far())
    });
    client.send(&a, &b, 7, far()).expect("send over socket");
    assert!(matches!(
        receiver.join().expect("receiver thread"),
        Ok(Outcome::Received { msg: 7, .. })
    ));
    let deadline = Instant::now() + Duration::from_secs(5);
    while (faults.lock().unwrap().is_empty() || rendezvous.lock().unwrap().is_empty())
        && Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(5));
    }
    assert!(
        faults
            .lock()
            .unwrap()
            .iter()
            .any(|r| r.kind == FaultKind::Delay),
        "the injected fault reached the fault observer"
    );
    let seen = rendezvous.lock().unwrap();
    assert!(
        seen.iter().any(|r| r.from == a && r.to == b),
        "the hub-side rendezvous reached the rendezvous observer: {seen:?}"
    );
}

/// `Network::port` asks whether its id exists. For an id this session
/// activated — and the hub acknowledged — the spoke knows the answer:
/// no frame is sent. Any other id still asks the hub.
#[test]
fn port_for_an_activated_id_sends_no_frame() {
    let server = hub();
    let client = Arc::new(spoke(&server));
    let net = Network::with_transport(Arc::clone(&client) as Arc<dyn Transport<String, u64>>);
    net.activate("mine".to_string());
    // The driver's heartbeat may land between two counter reads, so
    // take the best of three.
    let quiet = (0..3).any(|_| {
        let sent = client.bytes_sent();
        net.port("mine".to_string()).expect("activated id");
        client.bytes_sent() == sent
    });
    assert!(quiet, "port() for an activated id wrote to the hub");

    let sent = client.bytes_sent();
    assert_eq!(
        net.port("nobody".to_string()).map(|_| ()),
        Err(ChanError::Unknown("nobody".to_string()))
    );
    assert!(
        client.bytes_sent() > sent,
        "an unknown id is the hub's call"
    );

    // Finishing evicts the id: the next question goes to the hub, which
    // still knows it.
    net.finish("mine".to_string());
    let sent = client.bytes_sent();
    net.port("mine".to_string())
        .expect("finished ids stay declared");
    assert!(client.bytes_sent() > sent);

    // A dead session answers as it always did.
    client.close();
    assert_eq!(
        net.port("mine".to_string()).map(|_| ()),
        Err(ChanError::Terminated("mine".to_string()))
    );
}

/// Spoke observers run on the process's I/O thread, next to every other
/// hub and spoke: one that panics kills its own spoke — the session
/// dies, parked callers are released — and nothing else. A second hub
/// and spoke in the same process keep serving.
#[test]
fn panicking_observer_kills_its_spoke_only() {
    let (a, b) = ("a".to_string(), "b".to_string());
    let server = hub();
    let doomed = Arc::new(spoke(&server));
    doomed.observe(Observers {
        rendezvous: Some((Arc::new(|_: &_| panic!("observer bug")), |_| None)),
        ..Observers::default()
    });
    doomed.activate(a.clone());
    doomed.activate(b.clone());
    let other_server = hub();
    let other = Arc::new(spoke(&other_server));
    other.activate(a.clone());
    other.activate(b.clone());

    let pair = |t: &Arc<SocketTransport<String, u64>>| {
        let (sender, to, from) = (Arc::clone(t), b.clone(), a.clone());
        let send = thread::spawn(move || sender.send(&from, &to, 9, far()));
        let got = t.select(&b, vec![Arm::recv_any()], far());
        (send.join().expect("sender thread"), got)
    };
    // The rendezvous completes hub-side; its record reaches the
    // observer before either answer is routed, and the panic takes the
    // session with it: both callers are released with a loss.
    let (sent, got) = pair(&doomed);
    assert!(sent.is_err() && got.is_err(), "{sent:?} {got:?}");
    assert!(doomed.is_lost());

    let (sent, got) = pair(&other);
    sent.expect("the other spoke still sends");
    assert!(
        matches!(got, Ok(Outcome::Received { msg: 9, .. })),
        "{got:?}"
    );
    assert!(!other.is_lost());
}

/// A hub dropped with answers still on their way out says goodbye
/// first: whatever it answered precedes [`Event::Closing`], which is the
/// last frame before the socket closes — so a spoke fails fast instead
/// of redialing a dead address.
#[test]
fn dropped_hub_flushes_closing_before_its_sockets_close() {
    use script_net::proto::{Event, Resp};
    use script_net::{write_frame, FrameDecoder, Reader, EVENT_REQ_ID};

    let server = hub();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw dial");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame_of = |req_id: u64, req: &Req<String, u64>| {
        let mut frame = Vec::new();
        req_id.encode(&mut frame);
        req.encode(&mut frame);
        frame
    };
    write_frame(&mut raw, &frame_of(1, &Req::HelloNew)).expect("hello");
    let mut dec = FrameDecoder::new();
    let hello = dec.read_frame_from(&mut raw).expect("read");
    let hello = hello.expect("session answer");
    assert_eq!(u64::decode(&mut Reader::new(hello)).unwrap(), 1);

    // A pipelined burst, and the hub goes while it is being answered.
    const BURST: u64 = 64;
    for req_id in 2..2 + BURST {
        write_frame(&mut raw, &frame_of(req_id, &Req::Activity)).expect("burst");
    }
    drop(server);

    let mut next_answer = 2;
    let mut closing_seen = false;
    while let Some(frame) = dec
        .read_frame_from(&mut raw)
        .expect("a clean close, on a frame boundary")
    {
        assert!(!closing_seen, "a frame after the goodbye");
        let mut r = Reader::new(frame);
        let req_id = u64::decode(&mut r).expect("frame id");
        if req_id == EVENT_REQ_ID {
            let event = Event::<String>::decode(&mut r).expect("event");
            assert!(matches!(event, Event::Closing), "{event:?}");
            closing_seen = true;
        } else {
            assert_eq!(req_id, next_answer, "answers in request order");
            let resp = Resp::<String, u64>::decode(&mut r).expect("answer");
            assert!(matches!(resp, Resp::Counter(_)));
            next_answer += 1;
        }
    }
    assert!(closing_seen, "the socket closed without a goodbye");
}

/// A session's replay answers are kept typed and encoded again for a
/// replay: on a resumed connection a replayed request gets the very
/// bytes its first answer had, and nothing is applied twice — not a
/// cast already applied, nor a selection still submitted when the
/// connection went, which answers once, on the connection attached when
/// it fires.
#[test]
fn a_replayed_request_is_answered_with_the_same_bytes() {
    use std::net::TcpStream;

    use script_net::proto::Resp;
    use script_net::{write_frame, FrameDecoder, Reader};

    let server = hub();
    let inner = server.inner();
    let (a, b) = ("a".to_string(), "b".to_string());
    // A raw connection and the one decoder that reads it.
    type Raw = (TcpStream, FrameDecoder);
    let write = |raw: &mut Raw, req_id: u64, req: &Req<String, u64>| {
        let mut frame = Vec::new();
        req_id.encode(&mut frame);
        req.encode(&mut frame);
        write_frame(&mut raw.0, &frame).expect("write");
    };
    // The next answer frame, whole, with its request id.
    let answer = |raw: &mut Raw| {
        let frame = raw.1.read_frame_from(&mut raw.0).expect("read");
        let frame = frame.expect("an answer").to_vec();
        (u64::decode(&mut Reader::new(&frame)).expect("id"), frame)
    };
    let dial = |hello: Req<String, u64>, req_id: u64| {
        let stream = TcpStream::connect(server.local_addr()).expect("raw dial");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = (stream, FrameDecoder::new());
        write(&mut raw, req_id, &hello);
        let (id, frame) = answer(&mut raw);
        assert_eq!(id, req_id);
        let mut r = Reader::new(&frame[8..]);
        match Resp::<String, u64>::decode(&mut r).expect("hello answer") {
            Resp::Session { session, .. } => (raw, session),
            other => panic!("{other:?}"),
        }
    };

    inner.declare(b.clone());
    let (mut raw, sid) = dial(Req::HelloNew, 1);
    let cast = Req::Cast(vec![CastStep::Activate(a.clone())]);
    let before = inner.activity();
    write(&mut raw, 2, &cast);
    let (id, first) = answer(&mut raw);
    assert_eq!(id, 2);
    let select = Req::Select {
        me: a.clone(),
        arms: vec![Arm::recv_from(b.clone())],
        timeout_ms: None,
    };
    write(&mut raw, 3, &select);
    // Frames are handled in order: once this is answered the selection
    // is submitted.
    write(&mut raw, 4, &Req::IsAborted);
    assert_eq!(answer(&mut raw).0, 4);
    let applied = inner.activity();
    assert_eq!(applied - before, 1, "the cast applied its one step");
    drop(raw);

    let (mut raw, resumed) = dial(Req::HelloResume(sid), 5);
    assert_eq!(resumed, sid);
    write(&mut raw, 2, &cast);
    write(&mut raw, 3, &select);
    write(&mut raw, 6, &Req::IsAborted);
    let (id, replayed) = answer(&mut raw);
    assert_eq!(id, 2);
    assert_eq!(replayed, first, "the replay's answer, byte for byte");
    assert_eq!(answer(&mut raw).0, 6, "the submitted selection is quiet");
    assert_eq!(inner.activity(), applied, "nothing applied twice");

    inner.activate(b.clone());
    inner
        .send(&b, &a, 5, far())
        .expect("the selection receives");
    let (id, selected) = answer(&mut raw);
    assert_eq!(id, 3, "the selection answers on the new connection");
    assert!(matches!(
        Resp::<String, u64>::decode(&mut Reader::new(&selected[8..])),
        Ok(Resp::Selected(Outcome::Received { msg: 5, .. }))
    ));
    let err = inner
        .send(&b, &a, 6, Some(Instant::now() + Duration::from_millis(200)))
        .expect_err("no second selection was submitted");
    assert_eq!(err, ChanError::Timeout);
    drop(raw);

    // And a typed answer with a message in it comes back the same too.
    let (mut raw, _) = dial(Req::HelloResume(sid), 7);
    write(&mut raw, 3, &select);
    assert_eq!(answer(&mut raw), (3, selected));
}

/// A resumed subscriber gets the whole tail it missed, however long:
/// a tail over one frame's worth of bytes crosses as several
/// consecutive `SeqStream` frames, each within `MAX_FRAME`, and the
/// spoke dispatches every event exactly once.
#[test]
fn a_resume_tail_longer_than_a_frame_arrives_whole() {
    const RENDEZVOUS: usize = 6_000;
    const LABEL: usize = 200;
    let inner: Arc<dyn Transport<String, u64>> =
        Arc::new(ShardedTransport::new(false, Some(0x5eed)));
    let server = TransportServer::bind_with_lease("127.0.0.1:0", inner, Duration::from_secs(10))
        .expect("bind");
    server.set_message_labeler(|_| Some("#".repeat(LABEL)));
    let inner = server.inner();
    let client = spoke(&server);
    let seen: Log<usize> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    client.observe(Observers {
        rendezvous: Some((
            Arc::new(move |rec| {
                let label = rec.label.as_ref().map_or(0, String::len);
                sink.lock().unwrap().push(label);
            }),
            |_| None,
        )),
        ..Observers::default()
    });
    let [s, h, x, y] = ["s", "h", "x", "y"].map(String::from);
    client.activate(s.clone());
    // The documented barrier: the activation and the subscription are
    // applied before the hub is used directly.
    assert!(client.peer_state(&s).is_some());
    for id in [&h, &x, &y] {
        inner.activate(id.clone());
    }

    // A send to the spoke's id partitions the spoke off for 1.5 s.
    inner.set_fault_plan(
        FaultPlan::new(1).with_partition(1.0, Duration::from_millis(1500)),
        |m| *m,
    );
    let err = inner
        .send(&h, &s, 0, Some(Instant::now() + Duration::from_millis(5)))
        .expect_err("s never receives");
    assert_eq!(err, ChanError::Timeout);
    inner.clear_fault_plan();

    // Meanwhile, well over a frame's worth of labelled rendezvous.
    let sender = thread::spawn({
        let (inner, x, y) = (Arc::clone(&inner), x.clone(), y.clone());
        move || {
            for i in 0..RENDEZVOUS as u64 {
                inner.send(&x, &y, i, far()).expect("hub-local send");
            }
        }
    });
    for _ in 0..RENDEZVOUS {
        inner
            .select(&y, vec![Arm::recv_from(x.clone())], far())
            .expect("hub-local receive");
    }
    sender.join().expect("sender thread");

    let deadline = Instant::now() + Duration::from_secs(20);
    while seen.lock().unwrap().len() < RENDEZVOUS && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let seen = seen.lock().unwrap();
    assert_eq!(
        seen.len(),
        RENDEZVOUS,
        "every missed rendezvous arrived once"
    );
    assert!(seen.iter().all(|&label| label == LABEL));
    assert!(!client.is_lost(), "the session resumed");
}

/// A close that lands while a dial's hello is unanswered ends the
/// session for good: the handshake may still complete under it, but
/// `is_lost` reads the death `close` caused, not the connection the
/// dial brought up afterwards.
#[test]
fn a_close_during_the_hello_leaves_the_spoke_lost() {
    use std::net::TcpListener;

    use script_net::proto::Resp;
    use script_net::{write_frame, FrameDecoder, Reader};

    let fake = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = Arc::new(
        SocketTransport::<String, u64>::connect(fake.local_addr().unwrap()).expect("resolve"),
    );
    let dialer = thread::spawn({
        let client = Arc::clone(&client);
        move || client.fault_plan()
    });
    let (mut raw, _) = fake.accept().expect("the spoke dials");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut dec = FrameDecoder::new();
    let hello = dec.read_frame_from(&mut raw).expect("read");
    let mut r = Reader::new(hello.expect("a hello"));
    let hello_id = u64::decode(&mut r).expect("id");
    assert!(matches!(
        Req::<String, u64>::decode(&mut r),
        Ok(Req::HelloNew)
    ));

    // Close while the hello is held back: the session dies at once, and
    // the close then waits for the dial to let the connection go.
    let closer = thread::spawn({
        let client = Arc::clone(&client);
        move || client.close()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.is_lost() {
        assert!(Instant::now() < deadline, "close never ended the session");
        thread::sleep(Duration::from_millis(1));
    }

    let mut frame = Vec::new();
    hello_id.encode(&mut frame);
    Resp::<String, u64>::Session {
        session: 1,
        lease_ms: 1000,
    }
    .encode(&mut frame);
    write_frame(&mut raw, &frame).expect("write");
    assert_eq!(dialer.join().expect("the dial returns"), None);
    closer.join().expect("the close returns");
    assert!(client.is_lost(), "a closed spoke stays lost");
}

/// The hub answers the hello and, in the same write, an earlier
/// request: the spoke reads the hello's answer through the decoder its
/// connection then keeps, so the frame read past it is routed too.
#[test]
fn a_frame_read_past_the_hello_answer_is_routed() {
    use std::net::TcpListener;
    use std::sync::mpsc;

    use script_net::proto::Resp;
    use script_net::{FrameDecoder, Reader, WriteBuf};

    let fake = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = Arc::new(
        SocketTransport::<String, u64>::connect(fake.local_addr().unwrap()).expect("resolve"),
    );
    let (tx, rx) = mpsc::channel();
    thread::spawn({
        let client = Arc::clone(&client);
        move || tx.send(client.fault_plan())
    });
    let (mut raw, _) = fake.accept().expect("the spoke dials");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut dec = FrameDecoder::new();
    let hello = dec.read_frame_from(&mut raw).expect("read");
    let hello_id = u64::decode(&mut Reader::new(hello.expect("a hello"))).expect("id");
    // The query registered its request before dialing for it.
    let query_id = hello_id - 1;
    let mut out = WriteBuf::new();
    out.push_with(|frame| {
        hello_id.encode(frame);
        Resp::<String, u64>::Session {
            session: 1,
            lease_ms: 60_000,
        }
        .encode(frame);
    })
    .expect("the session answer");
    out.push_with(|frame| {
        query_id.encode(frame);
        Resp::<String, u64>::Plan(None).encode(frame);
    })
    .expect("the query's answer");
    assert!(out.flush_to(&mut raw).expect("one write"));
    let answered = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(answered, Ok(None), "the query's answer was not routed");
    drop(raw);
}

/// A message whose sender's instance logs its drop: copies the hub
/// decodes or clones do not.
#[derive(Debug)]
struct Tracked {
    value: u64,
    original: bool,
}

static DROPPED: Mutex<Vec<u64>> = Mutex::new(Vec::new());

impl Tracked {
    fn new(value: u64) -> Self {
        Self {
            value,
            original: true,
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        if self.original {
            DROPPED.lock().unwrap().push(self.value);
        }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Self {
            value: self.value,
            original: false,
        }
    }
}

impl Wire for Tracked {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
    }
    fn decode(r: &mut script_net::Reader<'_>) -> Result<Self, script_net::WireError> {
        Ok(Self {
            value: u64::decode(r)?,
            original: false,
        })
    }
}

/// A selection over lent arms crosses the socket in a request the spoke
/// keeps, and its arms come back with the answer: the fired send arm's
/// message does not, the unfired one's stays the caller's until the
/// caller lets go of it.
#[test]
fn a_spoke_hands_back_the_arms_a_selection_did_not_fire() {
    let inner: Arc<dyn Transport<String, Tracked>> =
        Arc::new(ShardedTransport::new(false, Some(0x5eed)));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind");
    let client = SocketTransport::<String, Tracked>::connect(server.local_addr()).expect("resolve");
    let (a, b, c) = ("a".to_string(), "b".to_string(), "c".to_string());
    inner.declare(a.clone());
    client.activate(a.clone());
    inner.activate(b.clone());
    inner.activate(c.clone());
    let receiver = thread::spawn({
        let (inner, a) = (Arc::clone(&inner), a.clone());
        move || match inner.select(&"b".to_string(), vec![Arm::recv_from(a)], far()) {
            Ok(Outcome::Received { msg, .. }) => msg.value,
            other => panic!("unexpected outcome: {other:?}"),
        }
    });
    let mut arms = [
        Arm::send(c, Tracked::new(7001)),
        Arm::send(b.clone(), Tracked::new(7002)),
    ];
    let got = client.select_in(&a, &mut arms, far());
    assert!(
        matches!(got, Ok(Outcome::Sent { arm: 1, ref to }) if *to == b),
        "{got:?}"
    );
    assert_eq!(receiver.join().expect("the receiver"), 7002);
    assert!(matches!(arms[1], Arm::Recv(script_chan::Source::Any)));
    assert!(matches!(&arms[0], Arm::Send { msg, .. } if msg.value == 7001 && msg.original));
    let dropped = |v| DROPPED.lock().unwrap().contains(&v);
    assert!(
        dropped(7002) && !dropped(7001),
        "the fired message left the list"
    );
    drop(arms);
    assert!(dropped(7001));
}

/// A hub, a spoke that has activated `s`, and a hub-local `h`.
fn cut_rig() -> (Hub, SocketTransport<String, u64>, String, String) {
    let server = hub();
    let client = spoke(&server);
    let [s, h] = ["s", "h"].map(String::from);
    client.activate(s.clone());
    // The documented barrier: the activation is applied before the hub
    // is used directly.
    assert!(client.peer_state(&s).is_some());
    server.inner().activate(h.clone());
    (server, client, s, h)
}

/// Cuts the spoke animating `s` off for 300 ms without moving the hub's
/// counter: a hub-local send to `s` partitions its session off, and is
/// dropped, so it deposits nothing.
fn cut_off(server: &Hub, h: &String, s: &String) {
    let inner = server.inner();
    inner.set_fault_plan(
        FaultPlan::new(1)
            .with_partition(1.0, Duration::from_millis(300))
            .with_drop(1.0),
        |m| *m,
    );
    inner.send(h, s, 0, far()).expect("a dropped send succeeds");
    inner.clear_fault_plan();
}

/// A resume is progress: a sample that waited out a blip differs from
/// the one taken before the sever, though the hub's counter did not
/// move.
#[test]
fn a_sample_across_a_resume_reads_progress() {
    let (server, client, s, h) = cut_rig();
    let before = client.activity();
    cut_off(&server, &h, &s);
    assert_ne!(client.activity(), before);
    assert!(!client.is_lost(), "the session resumed");
}

/// A lifecycle query during a blip waits for the hub's answer instead
/// of reading "never declared".
#[test]
fn a_peer_state_asked_during_a_blip_is_the_hubs() {
    let (server, client, s, h) = cut_rig();
    cut_off(&server, &h, &s);
    assert_eq!(client.peer_state(&h), Some(PeerState::Active));
}

/// An abort made while the spoke is cut off is what the spoke reads
/// once it is back, not the last answer it had.
#[test]
fn an_abort_during_a_blip_reads_aborted() {
    let (server, client, s, h) = cut_rig();
    assert!(!client.is_aborted());
    cut_off(&server, &h, &s);
    server.inner().abort();
    assert!(client.is_aborted());
}

/// A selection parked on the hub across a sever and resume is answered
/// exactly once. The spoke replays it; the hub finds it still submitted
/// and puts the duplicate's arm list back in the room it was decoded
/// into, so the session's spare lists are not drawn on for it. Before
/// that, 1,000 selections ten deep leave the session no more spare lists
/// than its bound.
#[test]
fn a_selection_parked_across_a_resume_is_answered_once() {
    const SELECTORS: usize = 10;
    const ROUNDS: u64 = 100;
    let (server, client, s, h) = cut_rig();
    let client = Arc::new(client);
    let inner = server.inner();
    let roles: Vec<String> = (0..SELECTORS).map(|i| format!("s{i}")).collect();
    for me in &roles {
        client.activate(me.clone());
    }
    assert!(client.peer_state(&roles[SELECTORS - 1]).is_some());
    let selectors: Vec<_> = roles
        .iter()
        .map(|me| {
            let (client, me, h) = (Arc::clone(&client), me.clone(), h.clone());
            thread::spawn(move || {
                for v in 0..ROUNDS {
                    let got = client.select_in(&me, &mut [Arm::recv_from(h.clone())], far());
                    assert!(
                        matches!(got, Ok(Outcome::Received { msg, .. }) if msg == v),
                        "{got:?}"
                    );
                }
            })
        })
        .collect();
    let mut most = 0;
    for v in 0..ROUNDS {
        for me in &roles {
            inner.send(&h, me, v, far()).expect("a selector takes it");
            most = most.max(server.stats().spare_arm_lists);
        }
    }
    for selector in selectors {
        selector.join().expect("a selector");
    }
    // A query's request refills the room, behind every answer above.
    assert!(client.peer_state(&h).is_some());
    let spares = server.stats().spare_arm_lists;
    assert!(most <= 8 && spares <= 8, "{most} spare lists");
    assert!(spares >= 1, "completed selections handed their lists back");

    // The parked selection is decoded into the room, which a spare refills.
    let parked = thread::spawn({
        let (client, s, h) = (Arc::clone(&client), s.clone(), h.clone());
        move || client.select_in(&s, &mut [Arm::recv_from(h)], far())
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().spare_arm_lists != spares - 1 {
        assert!(
            Instant::now() < deadline,
            "the selection never reached the hub"
        );
        thread::sleep(Duration::from_millis(1));
    }
    cut_off(&server, &h, &s);
    // The query waits out the blip and is answered behind the replay.
    assert_eq!(client.peer_state(&h), Some(PeerState::Active));
    assert_eq!(
        server.stats().spare_arm_lists,
        spares - 1,
        "the replayed duplicate took no spare"
    );
    inner
        .send(&h, &s, 7, far())
        .expect("the parked selection takes it");
    let got = parked.join().expect("the selector");
    assert!(
        matches!(got, Ok(Outcome::Received { msg: 7, .. })),
        "{got:?}"
    );
    // Submitted once: no second selection is parked to take another.
    let again = inner.send(&h, &s, 8, Some(Instant::now() + Duration::from_millis(300)));
    assert_eq!(again, Err(ChanError::Timeout));
    assert!(!client.is_lost(), "the session resumed");
}

/// A spoke's loss rule is the kernel's all-arms-dead rule: a selection
/// parked at the hub when its spoke closes fails with `Terminated`
/// naming a lone named peer, and with `AllTerminated` otherwise.
#[test]
fn a_selection_lost_with_its_session_fails_as_all_arms_dead() {
    let (a, b, c) = ("a".to_string(), "b".to_string(), "c".to_string());
    let cases = [
        (
            vec![Arm::recv_from(b.clone())],
            ChanError::Terminated(b.clone()),
        ),
        (
            vec![Arm::recv_from(b.clone()), Arm::recv_from(c.clone())],
            ChanError::AllTerminated,
        ),
    ];
    for (arms, lost) in cases {
        let server = hub();
        let client = Arc::new(spoke(&server));
        client.cast(&[
            CastStep::Activate(a.clone()),
            CastStep::Declare(b.clone()),
            CastStep::Declare(c.clone()),
        ]);
        let selector = thread::spawn({
            let (client, a) = (Arc::clone(&client), a.clone());
            move || client.select(&a, arms, far())
        });
        // One request awaited and none posted: the selection, parked.
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.unanswered() != (1, 0) {
            assert!(Instant::now() < deadline, "the selection never parked");
            thread::sleep(Duration::from_millis(1));
        }
        client.close();
        assert_eq!(selector.join().expect("the selector"), Err(lost));
    }
}
