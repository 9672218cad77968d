//! The allocation budget of one rendezvous and of one in-process
//! performance, counted by this binary's own global allocator: what an
//! operation allocates beyond what outlives it — the request kept for
//! replay, the answer kept for the replay cache, the message, the arms,
//! the completion closures, a gossip member's view — is a regression. The counter sees every
//! thread of the process, the I/O thread included, so the tests take
//! turns.
//!
//! `cargo test --release -p script-net --test alloc_budget -- --nocapture`
//! prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use script_chan::{Arm, Network, Outcome, ShardedTransport, Transport};
use script_core::{Enrollment, PerformanceNet, RoleId, Script, ScriptError};
use script_lib::gossip;
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
/// three rendezvous and termination. 8.0 measured in a release build;
/// 13.0 while each enrollment boxed its parameters and its result and
/// each cast run built a list of its own; 60.7 before a matching pass stopped building maps, a performance
/// kept its cast in one table and a retired performance's kernel was
/// recycled for the next; 86.8 before a cast run stopped snapshotting
/// every endpoint, role ids spelled from a known name shared it and a
/// selection kept its caller's arm list.
#[test]
fn an_in_process_performance_allocates_at_most_10_times() {
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
    assert!(allocs <= 10.0, "{allocs:.2} allocations per performance");
}

/// Performances per counted run on sockets; a run as long again warms
/// up first.
const SOCKET_PERFORMANCES: u64 = 300;

/// Hubs kept past their performance, as the benchmark keeps them.
const PARKED_HUBS: usize = 2;

/// A star performance placed as the benchmark's `socket_mix` places
/// every performance: the instance's network factory binds a loopback
/// hub over a fresh kernel and connects a spoke to it, and the hubs
/// older than [`PARKED_HUBS`] performances are dropped inside the count,
/// so set-up and teardown are paid per performance. 78.9 measured in a
/// release build; 91.5 while the fresh kernel made a table per thing it
/// counts on each edge into an endpoint and the hub decoded every cast
/// run into a list of its own.
#[test]
fn a_performance_on_its_own_hub_allocates_at_most_85_times() {
    let _serial = serial();
    let (instance, sender, recipient) = star();
    let parked = Arc::new(Mutex::new(VecDeque::new()));
    let park = Arc::clone(&parked);
    instance.set_network_factory(Arc::new(move |net: &PerformanceNet| {
        let inner: Arc<dyn Transport<RoleId, u64>> =
            Arc::new(ShardedTransport::new(net.open, None));
        let hub = TransportServer::bind("127.0.0.1:0", inner).expect("bind a loopback hub");
        let spoke = Arc::new(SocketTransport::connect(hub.local_addr()).expect("loopback"));
        park.lock().unwrap().push_back((hub, Arc::clone(&spoke)));
        Network::with_transport(spoke)
    }));
    let run = || {
        thread::scope(|s| {
            for i in 0..RECIPIENTS {
                let (instance, recipient) = (&instance, &recipient);
                s.spawn(move || {
                    for _ in 0..SOCKET_PERFORMANCES {
                        instance
                            .enroll_member(recipient, i, ())
                            .expect("a recipient's share");
                    }
                });
            }
            for k in 0..SOCKET_PERFORMANCES {
                instance.enroll(&sender, k).expect("the performance runs");
                loop {
                    let mut parked = parked.lock().unwrap();
                    if parked.len() <= PARKED_HUBS {
                        break;
                    }
                    let retired = parked.pop_front();
                    drop(parked);
                    drop(retired);
                }
            }
        });
    };
    run();
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / SOCKET_PERFORMANCES as f64;
    println!("allocations per four-role performance on its own hub: {allocs:.2}");
    assert!(allocs <= 85.0, "{allocs:.2} allocations per performance");
}

/// Enrollments per counted run of the unmatched guard.
const GUARDS: u64 = 10_000;

/// A non-blocking enrollment that finds no cover — the sender alone,
/// its recipients absent — queues, tries a match and falls through:
/// 0.00 measured; 1.00 while the parameter was boxed, 4.00 while the
/// matching pass, which now allocates nothing unless every role of a
/// critical set has a candidate, built its candidate and per-role
/// lists first.
#[test]
fn an_unmatched_non_blocking_enrollment_allocates_at_most_0_5_times() {
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
    assert!(allocs <= 0.5, "{allocs:.2} allocations per enrollment");
}

/// Counts a gossip performance's deliveries down to zero and wakes the
/// test thread, which parks until they are all in.
struct Latch {
    left: AtomicU32,
    waiter: thread::Thread,
}

impl Latch {
    fn hit(&self) {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.waiter.unpark();
        }
    }

    fn wait(&self) {
        while self.left.load(Ordering::SeqCst) != 0 {
            thread::park();
        }
    }
}

const GOSSIP_MEMBERS: usize = 4;

/// An epidemic gossip performance as the benchmark's `inproc_mix` runs
/// it: four members on threads of their own enrolling again the moment
/// they are done, a seeder from the test thread, fanout 2, immediate
/// initiation and termination. 29.2 measured in a release build;
/// 33.4 while a recycled kernel's endpoints let go of their watcher
/// lists' room, 86.6 while enrollments boxed their parameters and results and named
/// their family with a `String` of their own, the cast table grew
/// member by member, and each view was drawn from ordered sets and
/// fresh vectors over a membership collected again for every role.
#[test]
fn an_in_process_gossip_performance_allocates_at_most_40_times() {
    let _serial = serial();
    let g = gossip::gossip::<u64>(GOSSIP_MEMBERS, 2, 1);
    let instance = g.script.instance();
    let latch = Latch {
        left: AtomicU32::new(0),
        waiter: thread::current(),
    };
    let (rumor, closing) = (AtomicU64::new(0), AtomicBool::new(false));
    let allocs = thread::scope(|s| {
        for _ in 0..GOSSIP_MEMBERS {
            let (instance, member) = (&instance, &g.member);
            let (latch, rumor, closing) = (&latch, &rumor, &closing);
            s.spawn(move || loop {
                match instance.enroll_auto(member, ()) {
                    Ok(d) => {
                        assert_eq!(d.rumor, rumor.load(Ordering::SeqCst));
                        latch.hit();
                    }
                    // Closing aborts the performance the members are
                    // gathered in and refuses them from then on.
                    Err(_) if closing.load(Ordering::SeqCst) => return,
                    Err(e) => panic!("a member failed: {e}"),
                }
            });
        }
        let mut before = 0;
        for k in 0..2 * PERFORMANCES {
            if k == PERFORMANCES {
                before = ALLOCS.load(Ordering::Relaxed);
            }
            latch.left.store(GOSSIP_MEMBERS as u32, Ordering::SeqCst);
            rumor.store(k, Ordering::SeqCst);
            instance
                .enroll(&g.seeder, k)
                .expect("the seeder spreads its rumor");
            latch.wait();
        }
        let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / PERFORMANCES as f64;
        closing.store(true, Ordering::SeqCst);
        instance.close();
        allocs
    });
    println!("allocations per in-process gossip performance: {allocs:.2}");
    assert!(allocs <= 40.0, "{allocs:.2} allocations per performance");
}
