//! The fleet on the shared I/O thread, read off the process-wide
//! counters ([`script_net::io_stats`]): what a hung-up relay end, a
//! fleet shutdown and a dropped hub cost that thread. The counters see
//! every source in the process, so these tests have a process of their
//! own and run one at a time.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{Arm, Outcome, ShardedTransport, Transport};
use script_core::RetryPolicy;
use script_net::fleet::relay_connect;
use script_net::{io_stats, DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Sources leave on the I/O thread, a moment after whatever ended them.
fn wait_for_sources(want: usize) {
    let until = Instant::now() + Duration::from_secs(10);
    while io_stats().sources != want && Instant::now() < until {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(io_stats().sources, want);
}

/// Descriptors leave with their sources, on the I/O thread.
fn wait_for_descriptors(want: usize) {
    let until = Instant::now() + Duration::from_secs(10);
    while io_stats().descriptors != want && Instant::now() < until {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(io_stats().descriptors, want, "a registration leaked");
}

/// One test at a time, each starting once the last one's sources have
/// left: from there on every source in the process is its own.
fn alone() -> MutexGuard<'static, ()> {
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    wait_for_sources(0);
    wait_for_descriptors(0);
    guard
}

/// The byte a pattern stream carries at `offset`.
fn pattern(offset: usize) -> u8 {
    (offset ^ (offset >> 8) ^ (offset >> 16)) as u8
}

/// Fills a nonblocking `stream` with the pattern until it has taken
/// nothing for 200 ms; returns how much it took.
fn fill(stream: &mut TcpStream) -> usize {
    let (mut offset, mut progress) = (0, Instant::now());
    while progress.elapsed() < Duration::from_millis(200) {
        let chunk: Vec<u8> = (offset..offset + 8192).map(pattern).collect();
        match stream.write(&chunk) {
            Ok(n) => {
                offset += n;
                progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("pattern write: {e}"),
        }
    }
    offset
}

/// A client that goes away while the queue toward a slow target is
/// full must not bring the shared thread out of `poll` in a loop —
/// `poll(2)` reports a hangup whatever the interest bits — and what it
/// wrote before it went still arrives. Twice: a clean close (a FIN
/// behind the data), and a close with an unread byte (a reset, which is
/// what raises `POLLHUP` / `POLLERR` on the relay's descriptor).
#[test]
fn a_hung_up_end_cannot_spin_the_shared_thread() {
    let _alone = alone();
    let fleet = HubFleet::launch(1, 1).unwrap();
    let fleet_addr = fleet.any_addr().to_string();
    for reset in [false, true] {
        // A target that accepts and does not read.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap().to_string();
        let mut client = relay_connect(&fleet_addr, &sink_addr).unwrap();
        let (mut sunk, _) = sink.accept().unwrap();
        if reset {
            // One byte the client never reads: its close is a reset.
            sunk.write_all(&[7]).unwrap();
        }
        client.set_nonblocking(true).unwrap();
        let written = fill(&mut client);

        // A second relay, to an echo server, set up before the count.
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let echo_addr = echo.local_addr().unwrap().to_string();
        let echoer = thread::spawn(move || {
            let (mut s, _) = echo.accept().unwrap();
            let _ = io::copy(&mut s.try_clone().unwrap(), &mut s);
        });
        let mut second = relay_connect(&fleet_addr, &echo_addr).unwrap();

        drop(client);
        thread::sleep(Duration::from_millis(20));
        let before = io_stats().wakes;
        thread::sleep(Duration::from_millis(200));
        let woke = io_stats().wakes - before;
        assert!(woke < 50, "{woke} wakes in 200 ms with nothing to do");
        second.write_all(b"ping-through-the-hub").unwrap();
        let mut got = [0u8; 20];
        second.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping-through-the-hub");

        // The target finally reads: the stream, in order, then the end.
        sunk.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (mut seen, mut buf) = (0usize, vec![0u8; 64 * 1024]);
        loop {
            match sunk.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    for (i, byte) in buf[..n].iter().enumerate() {
                        assert_eq!(*byte, pattern(seen + i), "at offset {}", seen + i);
                    }
                    seen += n;
                }
                // After a reset the relay has nothing more to say.
                Err(e) if reset && e.kind() == io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("sink read: {e}"),
            }
        }
        if reset {
            // A reset discards what its sender had not yet put on the
            // wire; what did arrive is a prefix.
            assert!(seen <= written);
        } else {
            assert_eq!(seen, written, "every byte written before the drop");
        }
        drop(second);
        echoer.join().unwrap();
        wait_for_sources(1);
        wait_for_descriptors(1); // The fleet's listener.
    }
}

/// Shutdown is the fleet's own doing: no helper dial, nothing left
/// behind. The listeners refuse within a second of the drop, a held
/// control connection is closed, and the fleet's source is gone.
#[test]
fn a_dropped_fleet_closes_its_listeners_and_leaves_no_source() {
    let _alone = alone();
    let fleet = HubFleet::launch(3, 1).unwrap();
    let addrs = fleet.addrs().to_vec();
    let client = FleetClient::connect(&addrs[1].to_string(), 1).unwrap();
    client.register_node("127.0.0.1:7008").unwrap();
    assert_eq!(io_stats().sources, 1, "three doors, one source");
    let mut held = TcpStream::connect(addrs[2]).unwrap();

    drop(fleet);
    let dropped = Instant::now();
    for addr in addrs {
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break,
                // Still in the listen queue of a socket about to close.
                _ => assert!(dropped.elapsed() < Duration::from_secs(1), "{addr} is open"),
            }
            thread::sleep(Duration::from_millis(1));
        }
    }
    wait_for_sources(0);
    wait_for_descriptors(0);
    held.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    assert!(matches!(held.read(&mut [0u8; 1]), Ok(0) | Err(_)));
    assert!(dropped.elapsed() < Duration::from_secs(1));
}

/// Sharing a thread is final: a hub dropped under a spoke that reaches
/// it through a relay says its goodbye through the splice, so the spoke
/// fails fast — no redial — and the splice goes with the connection.
#[test]
fn a_hub_dropped_under_a_relayed_spoke_says_goodbye_through_the_splice() {
    let _alone = alone();
    let fleet = HubFleet::launch(1, 1).unwrap();
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(7)));
    let server = TransportServer::bind("127.0.0.1:0", inner).unwrap();
    let plan = DialPlan::direct(server.local_addr())
        .with_relay(fleet.any_addr())
        .with_forced_relay();
    let spoke = SocketTransport::<String, u64>::with_plan(plan, RetryPolicy::new(6));
    let (a, b) = ("a".to_string(), "b".to_string());
    let far = Some(Instant::now() + Duration::from_secs(10));
    spoke.activate(a.clone());
    spoke.activate(b.clone());
    thread::scope(|s| {
        s.spawn(|| spoke.send(&a, &b, 5, far).unwrap());
        let got = spoke.select(&b, vec![Arm::recv_any()], far);
        assert!(
            matches!(got, Ok(Outcome::Received { msg: 5, .. })),
            "{got:?}"
        );
    });
    assert_eq!(spoke.relay_dials(), 1);
    assert!(fleet.relayed_bytes() > 0);
    // Fleet, hub, spoke, splice.
    assert_eq!(io_stats().sources, 4);
    let redials = io_stats().redial_threads;

    // The hub's `close` may wait up to 100 ms on a write only this
    // thread could drain; the drop itself waits for nothing.
    let dropping = Instant::now();
    drop(server);
    assert!(dropping.elapsed() < Duration::from_secs(1));
    while !spoke.is_lost() {
        assert!(dropping.elapsed() < Duration::from_secs(1), "no goodbye");
        thread::sleep(Duration::from_millis(1));
    }
    let sent = spoke.send(&a, &b, 6, far);
    assert!(sent.is_err(), "{sent:?}");
    wait_for_sources(1);
    wait_for_descriptors(1);
    assert_eq!(io_stats().redial_threads, redials, "a goodbye, not a loss");
}
