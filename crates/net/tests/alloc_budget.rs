//! The allocation budget of one rendezvous and of one in-process
//! performance, counted by this binary's own global allocator: what an
//! operation allocates beyond what outlives it — the request kept for
//! replay, the answer kept for the replay cache, the message, the arms,
//! the completion closures — is a regression. The counter sees every
//! thread of the process, the I/O thread included, so the tests take
//! turns.
//!
//! `cargo test --release -p script-net --test alloc_budget -- --nocapture`
//! prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use script_chan::{Arm, Outcome, ShardedTransport, Transport};
use script_core::{Enrollment, RoleId, Script, ScriptError};
use script_net::{SocketTransport, TransportServer};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, with the caller's `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Rendezvous per counted run; a run as long again warms every buffer,
/// table and cache first.
const RENDEZVOUS: u64 = 4_000;

/// Allocations per rendezvous of `RENDEZVOUS` blocking sends from
/// `source` to a `sink` that selects from anyone, each on its own
/// thread, measured after a warm-up run of the same length.
fn per_rendezvous(t: &Arc<dyn Transport<RoleId, String>>) -> f64 {
    let (source, sink) = (RoleId::indexed("source", 0), RoleId::new("sink"));
    let payload = "x".repeat(64);
    let run = || {
        thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..RENDEZVOUS {
                    t.send(&source, &sink, payload.clone(), None)
                        .expect("the sink takes it");
                }
            });
            for _ in 0..RENDEZVOUS {
                let got = t.select(&sink, vec![Arm::recv_any()], None);
                assert!(matches!(got, Ok(Outcome::Received { .. })), "{got:?}");
            }
        });
    };
    run();
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / RENDEZVOUS as f64
}

/// The ids a run uses, activated on `t`.
fn activate(t: &Arc<dyn Transport<RoleId, String>>) {
    t.activate(RoleId::indexed("source", 0));
    t.activate(RoleId::new("sink"));
}

/// A streamed rendezvous over one loopback hub and spoke: both ends on
/// the spoke, so it is a `Send` and a `Select` request, their answers,
/// and the hub's in-process rendezvous between them. 7.0 measured;
/// 11.0 while each request and answer was encoded into a buffer of its
/// own and kept as bytes for replay, 12.0 before the kernel kept a
/// selection's arm list, 24.6 before frames were decoded in place, peer
/// names shared, answer slots reused and a selection's scan order kept
/// on the stack.
#[test]
fn a_streamed_rendezvous_allocates_at_most_8_times() {
    let _serial = serial();
    let inner: Arc<dyn Transport<RoleId, String>> = Arc::new(ShardedTransport::new(false, None));
    let hub = TransportServer::bind("127.0.0.1:0", inner).expect("bind");
    let spoke: Arc<dyn Transport<RoleId, String>> =
        Arc::new(SocketTransport::connect(hub.local_addr()).expect("resolve"));
    activate(&spoke);
    let allocs = per_rendezvous(&spoke);
    println!("allocations per streamed rendezvous: {allocs:.2}");
    assert!(allocs <= 8.0, "{allocs:.2} allocations per rendezvous");
}

/// The same rendezvous in process: the message and the arms — 2.00
/// measured; 3.0 while the kernel copied the arms into a list of its
/// own, 5.0 before the scan order and the published offers stopped
/// allocating per pass.
#[test]
fn a_blocking_rendezvous_in_process_allocates_at_most_3_5_times() {
    let _serial = serial();
    let t: Arc<dyn Transport<RoleId, String>> = Arc::new(ShardedTransport::new(false, None));
    activate(&t);
    let allocs = per_rendezvous(&t);
    println!("allocations per in-process rendezvous: {allocs:.2}");
    assert!(allocs <= 3.5, "{allocs:.2} allocations per rendezvous");
}

/// Performances per counted run; a run as long again warms up first.
const PERFORMANCES: u64 = 1_000;

const RECIPIENTS: usize = 3;

/// The star: a sender and three recipients, delayed initiation.
type Star = (
    script_core::Instance<u64>,
    script_core::RoleHandle<u64, u64, ()>,
    script_core::FamilyHandle<u64, (), u64>,
);

fn star() -> Star {
    let mut b = Script::<u64>::builder("star");
    let sender = b.role("sender", |ctx, value: u64| {
        for i in 0..RECIPIENTS {
            ctx.send(&RoleId::indexed("recipient", i), value)?;
        }
        Ok(())
    });
    let recipient = b.family("recipient", RECIPIENTS, |ctx, ()| {
        ctx.recv_from(&RoleId::new("sender"))
    });
    (
        b.build().expect("a well-formed script").instance(),
        sender,
        recipient,
    )
}

/// A star broadcast in process, a sender and three recipients each
/// enrolling from its own thread: enrollment, matching, the cast runs,
/// three rendezvous and termination. 13.0 measured in a release build;
/// 60.7 before a matching pass stopped building maps, a performance
/// kept its cast in one table and a retired performance's kernel was
/// recycled for the next; 86.8 before a cast run stopped snapshotting
/// every endpoint, role ids spelled from a known name shared it and a
/// selection kept its caller's arm list.
#[test]
fn an_in_process_performance_allocates_at_most_20_times() {
    let _serial = serial();
    let (instance, sender, recipient) = star();
    let run = || {
        thread::scope(|s| {
            for i in 0..RECIPIENTS {
                let (instance, recipient) = (&instance, &recipient);
                s.spawn(move || {
                    for k in 0..PERFORMANCES {
                        assert_eq!(instance.enroll_member(recipient, i, ()), Ok(k));
                    }
                });
            }
            for k in 0..PERFORMANCES {
                instance.enroll(&sender, k).expect("the performance runs");
            }
        });
    };
    run();
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / PERFORMANCES as f64;
    println!("allocations per in-process four-role performance: {allocs:.2}");
    assert!(allocs <= 20.0, "{allocs:.2} allocations per performance");
}

/// Enrollments per counted run of the unmatched guard.
const GUARDS: u64 = 10_000;

/// A non-blocking enrollment that finds no cover — the sender alone,
/// its recipients absent — queues, tries a match and falls through:
/// the boxed parameter, 1.00 measured; 4.00 while the matching pass,
/// which now allocates nothing unless every role of a critical set has
/// a candidate, built its candidate and per-role lists first.
#[test]
fn an_unmatched_non_blocking_enrollment_allocates_at_most_1_5_times() {
    let _serial = serial();
    let (instance, sender, _) = star();
    let run = || {
        for k in 0..GUARDS {
            let got = instance.enroll_with(&sender, k, Enrollment::new().non_blocking());
            assert_eq!(got, Err(ScriptError::WouldBlock));
        }
    };
    run();
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / GUARDS as f64;
    println!("allocations per unmatched non-blocking enrollment: {allocs:.2}");
    assert!(allocs <= 1.5, "{allocs:.2} allocations per enrollment");
}
