//! Partition tolerance spanning **two OS processes**.
//!
//! The parent hosts the hub and animates `pitcher` directly on the
//! hub's inner transport; a re-executed child joins over TCP and
//! animates `catcher`. The hub runs under a chaos plan that severs the
//! child's connection on *every* send decision and turns half of those
//! cuts into 100 ms partitions that stonewall the reconnect.
//!
//! The performance still completes, value-for-value: each cut severs
//! only the TCP connection, not the session. The child's transport
//! redials, presents its session id, replays its un-acked requests
//! (answered exactly once from the hub's replay cache), and resumes —
//! all inside the 1 s lease, all invisible to the role code, which is
//! the same blocking [`Transport`] API every in-process example uses.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example partition_heal
//! ```

use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use script::chan::{Arm, FaultKind, FaultPlan, Observers, Outcome, ShardedTransport, Transport};
use script::net::{SocketTransport, TransportServer};

const ROUNDS: [u64; 3] = [10, 20, 30];
/// Tells the catcher the game is over.
const GOODBYE: u64 = 999;

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(30))
}

fn s(x: &str) -> String {
    x.to_string()
}

/// The child half: catch every pitch across a connection that is cut
/// out from under it on every single rendezvous.
fn run_child(addr: &str) {
    let t = SocketTransport::<String, u64>::connect(addr).expect("child: connect to hub");
    t.activate(s("catcher"));
    loop {
        let outcome = t
            .select(&s("catcher"), vec![Arm::recv_from(s("pitcher"))], far())
            .expect("child: catch");
        let Outcome::Received { msg, .. } = outcome else {
            panic!("child: unexpected outcome {outcome:?}");
        };
        if msg == GOODBYE {
            break;
        }
        t.send(&s("catcher"), &s("pitcher"), msg + 1, far())
            .expect("child: throw back");
    }
    t.finish(s("catcher"));
    println!("child: done (pid {})", std::process::id());
}

fn main() {
    // Child invocation: `partition_heal --child <hub-addr>`.
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, addr] = args.as_slice() {
        if flag == "--child" {
            run_child(addr);
            return;
        }
    }

    // Parent: host the hub under a connection-hostile chaos plan.
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(42)));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
    println!("parent: hub listening on {}", server.local_addr());

    // Fault records leave a hub one way: pushed, sequenced, to the
    // spokes that subscribed. This one animates no role — it watches.
    let watcher =
        SocketTransport::<String, u64>::connect(server.local_addr()).expect("resolve hub");
    let faults = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&faults);
    watcher.observe(Observers {
        fault: Some(Arc::new(move |rec| sink.lock().unwrap().push(rec.clone()))),
        ..Observers::default()
    });

    // Every send decision severs the implicated session's connection;
    // half the decisions additionally impose a 100 ms partition embargo
    // the reconnect must wait out. Decisions are pure functions of
    // (seed, edge, sequence): rerunning replays the same schedule.
    inner.set_fault_plan(
        FaultPlan::new(42)
            .with_sever(1.0)
            .with_partition(0.5, Duration::from_millis(100)),
        |m| *m,
    );
    inner.observe(Observers {
        session: Some(Arc::new(|event| {
            println!("parent: session event {event:?}")
        })),
        ..Observers::default()
    });

    for id in ["pitcher", "catcher"] {
        inner.declare(s(id));
    }
    inner.activate(s("pitcher"));

    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(["--child", &server.local_addr().to_string()])
        .spawn()
        .expect("spawn child process");
    println!("parent: child process {} joining over TCP", child.id());

    for v in ROUNDS {
        inner
            .send(&s("pitcher"), &s("catcher"), v, far())
            .expect("parent: pitch");
        let outcome = inner
            .select(&s("pitcher"), vec![Arm::recv_from(s("catcher"))], far())
            .expect("parent: collect return");
        let Outcome::Received { msg, .. } = outcome else {
            panic!("parent: unexpected outcome {outcome:?}");
        };
        assert_eq!(msg, v + 1, "the catcher throws back value+1 exactly once");
        println!("parent: pitched {v}, caught {msg} (connection cut in between)");
    }
    inner
        .send(&s("pitcher"), &s("catcher"), GOODBYE, far())
        .expect("parent: goodbye");
    inner.finish(s("pitcher"));

    let status = child.wait().expect("wait for child");
    assert!(status.success(), "child failed: {status:?}");

    // Every fault was queued on the watcher's connection as it was
    // injected, so the answer to any later request arrives behind them.
    let _ = watcher.activity();
    let log = faults.lock().unwrap();
    let severs = log.iter().filter(|r| r.kind == FaultKind::Sever).count();
    let partitions = log
        .iter()
        .filter(|r| r.kind == FaultKind::Partition)
        .count();
    assert!(severs > 0, "the chaos plan must have cut the connection");
    println!(
        "parent: {severs} severs and {partitions} partitions healed by session resumption — \
         every rendezvous delivered exactly once"
    );
}
