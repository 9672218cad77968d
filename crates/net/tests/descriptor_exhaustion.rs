//! A hub out of descriptors rests its listener instead of spinning the
//! shared I/O thread. The limit is process-wide and so are the counters
//! read here ([`script_net::io_stats`]): the one test re-executes this
//! binary under `ulimit -n`, to run the ignored one in a process of its
//! own.

use std::fs::File;
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{ShardedTransport, Transport};
use script_net::{io_stats, SocketTransport, TransportServer};

/// The descriptor limit the ignored test runs under.
const LIMIT: usize = 64;

#[test]
fn an_exhausted_hub_rests_its_listener() {
    let exe = std::env::current_exe().expect("this test binary");
    let script = format!(
        "ulimit -n {LIMIT} && exec \"$0\" --exact --ignored --nocapture out_of_descriptors"
    );
    let out = Command::new("sh")
        .args(["-c", &script])
        .arg(exe)
        .output()
        .expect("run sh");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("1 passed"), "{stdout}\n{stderr}");
    println!("{stdout}");
}

#[test]
#[ignore = "run by an_exhausted_hub_rests_its_listener, under its descriptor limit"]
fn out_of_descriptors() {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(7)));
    let hub = TransportServer::bind("127.0.0.1:0", inner).expect("bind");
    let spoke = SocketTransport::<String, u64>::connect(hub.local_addr()).expect("resolve");
    let a = "a".to_string();
    spoke.activate(a.clone());
    assert!(
        spoke.peer_state(&a).is_some(),
        "a session before the drought"
    );

    let mut held = Vec::new();
    while let Ok(null) = File::open("/dev/null") {
        held.push(null);
        if held.len() == LIMIT {
            println!("not under a {LIMIT}-descriptor limit: nothing to exhaust");
            return;
        }
    }
    // One back for the dial, which the hub then cannot accept.
    held.pop();
    let _pending = TcpStream::connect(hub.local_addr()).expect("dial");
    thread::sleep(Duration::from_millis(20));
    let before = io_stats().wakes;
    thread::sleep(Duration::from_millis(200));
    let woke = io_stats().wakes - before;
    println!(
        "{woke} I/O-thread wakes in 200 ms with {} descriptors held",
        held.len()
    );
    assert!(woke < 100, "{woke} wakes in 200 ms: the listener spins");

    // Descriptors back: the queued dial is accepted, and the session
    // made before the drought serves on.
    drop(held);
    let until = Instant::now() + Duration::from_secs(5);
    while hub.stats().connections < 2 {
        assert!(Instant::now() < until, "the queued dial was never accepted");
        thread::sleep(Duration::from_millis(1));
    }
    assert!(spoke.peer_state(&a).is_some());
    assert_eq!(io_stats().redial_threads, 0);
}
