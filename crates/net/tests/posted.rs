//! Posted requests: a spoke's commands (`cast`, `abort`, `reseed`, the
//! fault-plan setters) are written and not waited for. These tests hold
//! the hub's turn still with a gate on its inner transport — which
//! stalls the process's one I/O thread, every other hub and spoke of
//! the process with it — so they live in a binary of their own and run
//! one at a time.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{
    Arm, CastStep, ChanError, FaultPlan, Network, Observers, Outcome, PeerState, ShardedTransport,
    Transport,
};
use script_net::{SocketTransport, TransportServer};

/// `POSTED_MAX` in `client.rs`, which is private: the posts a spoke
/// leaves unanswered before the next one waits.
const POSTED_MAX: usize = 64;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct GateState {
    open: bool,
    /// A `cast` has reached the gate and is held there.
    held: bool,
}

/// An in-process transport whose `cast` waits at a gate — on the hub's
/// I/O thread, so while it is shut the hub answers nobody — and that
/// records every command in the order the hub applied it.
struct Gated {
    inner: Arc<ShardedTransport<String, u64>>,
    gate: Mutex<GateState>,
    moved: Condvar,
    applied: Mutex<Vec<String>>,
}

impl Gated {
    fn new(open: bool) -> Arc<Self> {
        Arc::new(Self {
            inner: Arc::new(ShardedTransport::new(false, Some(0x5eed))),
            gate: Mutex::new(GateState { open, held: false }),
            moved: Condvar::new(),
            applied: Mutex::default(),
        })
    }

    fn set_open(&self, open: bool) {
        self.gate.lock().unwrap().open = open;
        self.moved.notify_all();
    }

    /// Blocks until a `cast` is held at the shut gate: the hub is in
    /// its turn, and stays there.
    fn await_held(&self) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.held {
            gate = self.moved.wait(gate).unwrap();
        }
    }

    fn note(&self, what: String) {
        self.applied.lock().unwrap().push(what);
    }

    fn applied(&self) -> Vec<String> {
        self.applied.lock().unwrap().clone()
    }
}

impl Transport<String, u64> for Gated {
    fn cast(&self, steps: &[CastStep<String>]) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.open {
            gate.held = true;
            self.moved.notify_all();
            gate = self.moved.wait(gate).unwrap();
        }
        gate.held = false;
        drop(gate);
        self.note(format!("cast {}", steps.len()));
        self.inner.cast(steps);
    }
    fn abort(&self) {
        self.note("abort".into());
        self.inner.abort();
    }
    fn is_aborted(&self) -> bool {
        self.inner.is_aborted()
    }
    fn peer_state(&self, id: &String) -> Option<PeerState> {
        self.inner.peer_state(id)
    }
    fn activity(&self) -> u64 {
        self.inner.activity()
    }
    fn reseed(&self, seed: u64) {
        self.note(format!("reseed {seed}"));
        self.inner.reseed(seed);
    }
    fn ensure_peer(&self, id: &String) -> Result<(), ChanError<String>> {
        self.inner.ensure_peer(id)
    }
    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&u64) -> u64) {
        self.note("set plan".into());
        self.inner.set_fault_plan(plan, clone_fn);
    }
    fn clear_fault_plan(&self) {
        self.note("clear plan".into());
        self.inner.clear_fault_plan();
    }
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }
    fn observe(&self, observers: Observers<String, u64>) {
        self.inner.observe(observers);
    }
    fn send(
        &self,
        from: &String,
        to: &String,
        msg: u64,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<String>> {
        self.inner.send(from, to, msg, deadline)
    }
    fn try_recv(&self, me: &String, from: &String) -> Result<Option<u64>, ChanError<String>> {
        self.inner.try_recv(me, from)
    }
    fn select(
        &self,
        me: &String,
        arms: Vec<Arm<String, u64>>,
        deadline: Option<Instant>,
    ) -> Result<Outcome<String, u64>, ChanError<String>> {
        self.inner.select(me, arms, deadline)
    }
}

type Hub = TransportServer<String, u64>;
type Spoke = SocketTransport<String, u64>;

fn gated_hub(open: bool) -> (Hub, Arc<Gated>) {
    let gated = Gated::new(open);
    let inner: Arc<dyn Transport<String, u64>> = gated.clone();
    let hub = TransportServer::bind("127.0.0.1:0", inner).expect("bind");
    (hub, gated)
}

/// A hub over a plain in-process transport, which serves sends and
/// selections (a `Gated` inner declines submission).
fn plain_hub(lease: Duration) -> (Hub, Arc<dyn Transport<String, u64>>) {
    let inner: Arc<dyn Transport<String, u64>> =
        Arc::new(ShardedTransport::new(false, Some(0x5eed)));
    let hub =
        TransportServer::bind_with_lease("127.0.0.1:0", Arc::clone(&inner), lease).expect("bind");
    (hub, inner)
}

fn spoke(hub: &Hub) -> Spoke {
    SocketTransport::connect(hub.local_addr()).expect("resolve")
}

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(10))
}

/// (a) Every command returns while the hub is held in the first one's
/// turn; once it moves, one query later all of them have been applied,
/// in posting order.
#[test]
fn a_post_does_not_wait_for_the_hub() {
    let _serial = serial();
    let (server, gated) = gated_hub(false);
    let client = spoke(&server);
    let x = "x".to_string();

    client.cast(&[CastStep::Declare(x.clone()), CastStep::Activate(x.clone())]);
    client.reseed(5);
    client.set_fault_plan(FaultPlan::new(1), |m| *m);
    client.clear_fault_plan();
    client.abort();
    gated.await_held();
    // The one thread that could route an answer is held at the gate.
    assert_eq!(client.unanswered(), (5, 5));
    assert!(gated.applied().is_empty());

    gated.set_open(true);
    // The barrier: a query on the posting spoke is answered behind them.
    assert_eq!(client.peer_state(&x), Some(PeerState::Active));
    assert_eq!(
        gated.applied(),
        ["cast 2", "reseed 5", "set plan", "clear plan", "abort"]
    );
    assert_eq!(client.unanswered(), (0, 0));
    drop(server);
}

/// Posts are bounded: with `POSTED_MAX` of them unanswered the next one
/// is a call, whose answer the hub sends behind every earlier one.
#[test]
fn posts_are_bounded_at_posted_max() {
    let _serial = serial();
    let (server, gated) = gated_hub(false);
    let client = Arc::new(spoke(&server));
    for i in 0..POSTED_MAX {
        client.declare(format!("d{i}"));
    }
    gated.await_held();
    assert_eq!(client.unanswered(), (POSTED_MAX, POSTED_MAX));

    let one_more = thread::spawn({
        let client = Arc::clone(&client);
        move || client.declare("one more".to_string())
    });
    // The next request parks with a waiter, not as a post.
    while client.unanswered() != (POSTED_MAX + 1, POSTED_MAX) {
        thread::yield_now();
    }
    // Nothing routes its answer while the hub is held, so it waits.
    assert!(!one_more.is_finished());

    gated.set_open(true);
    one_more.join().expect("the post that waited");
    // Its answer was the last of them.
    assert_eq!(client.unanswered(), (0, 0));
    assert_eq!(gated.applied().len(), POSTED_MAX + 1);
    drop(server);
}

/// (b) A post stays ahead of what follows it: ids activated by post are
/// used at once, with no barrier, from two threads of the same spoke.
#[test]
fn a_post_stays_ahead_of_what_follows_it() {
    let _serial = serial();
    let server = plain_hub(Duration::from_secs(1)).0;
    let client = spoke(&server);
    for k in 0..200u64 {
        let (a, b) = (format!("a{k}"), format!("b{k}"));
        client.activate(a.clone());
        client.activate(b.clone());
        thread::scope(|s| {
            let sender = s.spawn(|| client.send(&a, &b, k, far()));
            let got = client.select(&b, vec![Arm::recv_from(a.clone())], far());
            assert!(
                matches!(got, Ok(Outcome::Received { msg, .. }) if msg == k),
                "round {k}: {got:?}"
            );
            assert_eq!(sender.join().expect("sender thread"), Ok(()), "round {k}");
        });
        assert_eq!(
            client.try_recv(&b, &a),
            Ok(None),
            "round {k}: delivered once"
        );
    }
    assert_eq!(client.unanswered(), (0, 0));
}

/// (c) A post survives a sever: the connection is cut after the run is
/// on the socket and before its answer — the hub is held mid-run while
/// a hub-side send's sever decision cuts the session — and the resume
/// replays it; each step is applied once and the entry leaves `pending`.
#[test]
fn a_post_severed_before_its_answer_is_applied_once() {
    let _serial = serial();
    let (server, gated) = gated_hub(true);
    let inner = &gated.inner;
    let client = spoke(&server);
    let (g, h) = ("g".to_string(), "h".to_string());
    inner.declare(h.clone());
    client.activate(g.clone());
    assert_eq!(client.ensure_peer(&h), Ok(()));
    inner.set_fault_plan(FaultPlan::new(9).with_sever(1.0), |m| *m);

    gated.set_open(false);
    let before = inner.activity();
    client.cast(&[
        CastStep::Declare("x".to_string()),
        CastStep::Activate("x".to_string()),
        CastStep::Finish("x".to_string()),
    ]);
    gated.await_held();
    // `h` never activates: nothing is deposited, the send times out,
    // and its sever decision cuts the session that animates `g`.
    inner
        .send(&g, &h, 0, Some(Instant::now() + Duration::from_millis(5)))
        .expect_err("h never receives");
    assert_eq!(client.unanswered(), (1, 1));

    gated.set_open(true);
    // A durable round trip: answered on the resumed connection, behind
    // the replayed run.
    assert_eq!(client.ensure_peer(&h), Ok(()));
    assert_eq!(inner.activity() - before, 3, "each step applied once");
    assert_eq!(gated.applied(), ["cast 1", "cast 3"]);
    assert_eq!(inner.peer_state(&"x".to_string()), Some(PeerState::Done));
    assert_eq!(client.unanswered(), (0, 0));
    assert!(!client.is_lost(), "the cut resumed within the lease");
}

/// (c) A post followed at once by `close()` reaches the hub: the frame
/// is on the socket before the shutdown, so the id is activated, bound
/// to the session, and finished when the lease lapses.
#[test]
fn a_post_followed_by_close_reaches_the_hub() {
    let _serial = serial();
    let (server, inner) = plain_hub(Duration::from_millis(200));
    let client = spoke(&server);
    let x = "x".to_string();
    client.activate(x.clone());
    client.close();
    assert_eq!(client.unanswered(), (0, 0));
    let deadline = Instant::now() + Duration::from_secs(10);
    while inner.peer_state(&x) != Some(PeerState::Done) {
        assert!(Instant::now() < deadline, "{:?}", inner.peer_state(&x));
        thread::sleep(Duration::from_millis(5));
    }
}

/// (c) The other half of close-after-post, the documented loss: the
/// connection has died under the spoke — cut hub-side by a sever
/// decision while the gate holds the one thread that could tell the
/// spoke — so the posted `Abort` is written into a socket nobody reads,
/// and the `close()` behind it means nobody replays it. The hub never
/// applies it; the lease sweep finishes the session's ids, as for a
/// crashed process.
#[test]
fn a_post_on_a_dead_connection_followed_by_close_is_lost() {
    let _serial = serial();
    let (server, gated) = gated_hub(true);
    let inner = &gated.inner;
    let client = spoke(&server);
    let (g, h) = ("g".to_string(), "h".to_string());
    inner.declare(h.clone());
    client.activate(g.clone());
    assert_eq!(client.ensure_peer(&h), Ok(()));
    inner.set_fault_plan(FaultPlan::new(9).with_sever(1.0), |m| *m);

    gated.set_open(false);
    client.declare("x".to_string());
    gated.await_held();
    // As in the severed-post test above: the timed-out send's sever
    // decision shuts the hub's end of the session that animates `g`.
    inner
        .send(&g, &h, 0, Some(Instant::now() + Duration::from_millis(5)))
        .expect_err("h never receives");
    // The spoke's read side is a source on the held thread: it has not
    // seen the end, and its write still succeeds.
    client.abort();
    assert_eq!(client.unanswered(), (2, 2));
    client.close();
    assert_eq!(client.unanswered(), (0, 0));

    gated.set_open(true);
    let deadline = Instant::now() + Duration::from_secs(10);
    while inner.peer_state(&g) != Some(PeerState::Done) {
        assert!(!inner.is_aborted(), "the lost post was applied");
        assert!(Instant::now() < deadline, "{:?}", inner.peer_state(&g));
        thread::sleep(Duration::from_millis(5));
    }
    assert!(!inner.is_aborted());
    // The activation, the declaration, the sweep's finish: no abort.
    assert_eq!(gated.applied(), ["cast 1", "cast 1", "cast 1"]);
    drop(server);
}

/// (d) `Network::port` for an id this spoke activated sends no frame,
/// even while the `Activate` is still unanswered.
#[test]
fn port_for_a_posted_activation_sends_no_frame() {
    let _serial = serial();
    let (server, gated) = gated_hub(false);
    let client = Arc::new(spoke(&server));
    let net = Network::with_transport(Arc::clone(&client) as Arc<dyn Transport<String, u64>>);
    net.activate("mine".to_string());
    gated.await_held();
    assert_eq!(client.unanswered(), (1, 1));
    // No heartbeat can interleave: the I/O thread is held at the gate.
    let sent = client.bytes_sent();
    net.port("mine".to_string()).expect("activated id");
    assert_eq!(client.bytes_sent(), sent);

    gated.set_open(true);
    assert_eq!(
        client.peer_state(&"mine".to_string()),
        Some(PeerState::Active)
    );
    assert_eq!(client.unanswered(), (0, 0));
    drop(server);
}

/// A dropped hub says no goodbye to a spoke that already hung up: the
/// hub reads the connection dry first, finds the end, and closes it
/// with nothing written — a write there would only be answered with a
/// reset. The spoke here is a raw socket that sent `HelloNew` and shut
/// its write side while the gate held the hub's turn.
#[test]
fn a_dropped_hub_says_no_goodbye_to_a_spoke_that_hung_up() {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};

    use script_net::proto::Req;
    use script_net::{write_frame, Wire};

    let _serial = serial();
    let (server, gated) = gated_hub(true);
    let mut raw = TcpStream::connect(server.local_addr()).expect("dial");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections == 0 {
        assert!(Instant::now() < deadline, "the hub never accepted");
        thread::sleep(Duration::from_millis(1));
    }
    // Hold the I/O thread in a turn of this hub.
    let client = spoke(&server);
    gated.set_open(false);
    client.declare("x".to_string());
    gated.await_held();

    let mut hello = Vec::new();
    1u64.encode(&mut hello);
    Req::<String, u64>::HelloNew.encode(&mut hello);
    write_frame(&mut raw, &hello).expect("send HelloNew");
    raw.flush().expect("flush");
    raw.shutdown(Shutdown::Write).expect("hang up");
    // Nothing here is bound, so the drop finishes nothing through the
    // gate; the hub's next turn sees the shutdown.
    drop(server);
    gated.set_open(true);

    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut got = Vec::new();
    let read = raw.read_to_end(&mut got);
    assert!(
        matches!(read, Ok(0)),
        "a clean end with nothing written, not {read:?} after {got:?}"
    );
}
