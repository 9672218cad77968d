//! The process's one I/O thread: an `epoll(7)` set, a cross-thread
//! waker, and every socket `script-net` serves.
//!
//! Hubs ([`TransportServer`](crate::TransportServer)), spokes
//! ([`SocketTransport`](crate::SocketTransport)) and fleets
//! ([`HubFleet`](crate::HubFleet)) own no thread. Each registers with
//! the lazily started **`script-net-io`** thread as a type-erased
//! source with a turn function, of which there are four kinds: a hub
//! brings its listener and connections, a spoke its connection's read
//! side, a fleet its listeners and unanswered control connections, a
//! relayed connection its two ends. The thread owns
//! the process's one [`Poller`] and one [`Waker`] and gives a source a
//! turn when it is attached, when a producer queued output for it and
//! rang its doorbell, when one of its descriptors is ready — dispatched
//! from the kernel's ready list by token, no per-wake list of sources is
//! built — and when the deadline its last turn asked for is due (a hub's
//! lease sweep, a spoke's heartbeat, a fleet's control deadline; the
//! wait's timeout is the earliest of them). It never makes a blocking
//! call on a socket: every descriptor it serves is nonblocking, and
//! dialing, handshakes and back-off run on their callers' threads or a
//! short-lived thread of their own. Hubs and relays co-hosted in one
//! process take turns on it; [`io_stats`] counts what it does.
//!
//! A source's turn — which runs completion callbacks and user
//! observers — must not block, and so must not wait on anything only
//! this thread can do: a call on a spoke of the same process, or
//! [`FleetClient`](crate::FleetClient) /
//! [`relay_connect`](crate::fleet::relay_connect) against a fleet of the
//! same process, whose answer this thread would have to write. It is
//! wrapped in `catch_unwind`: a panic closes that source alone. New sources reach the thread through one queue, drained after
//! [`Waker::park`], so the park-then-look protocol below holds with
//! any number of producers; a source leaves by saying it is done, and
//! whatever it left registered goes with it.
//!
//! The primitives:
//!
//! * [`Poller`] — an `epoll(7)` instance behind a direct, hand-written
//!   FFI binding (std already links libc; no external crate is needed).
//!   It is the only poller: a target other than Linux is a compile
//!   error, not a slower path.
//! * [`Waker`] — a self-pipe (a `UnixStream` pair) that lets producers
//!   on other threads interrupt a parked wait so freshly queued
//!   output is flushed immediately — and costs them nothing while the
//!   thread is awake, which is where most completions run: on the I/O
//!   thread itself, mid-turn.
//!
//! The interest set is **persistent** and kept by the kernel: a
//! descriptor is registered once (`EPOLL_CTL_ADD`, the token as the
//! event's data), patched only when its interest bits change
//! (`EPOLL_CTL_MOD`) and removed on teardown (`EPOLL_CTL_DEL`). A wake
//! costs what is ready, not what is registered: the thread walks the
//! ready list `epoll_wait` copied out. Readiness is level-triggered: what
//! a turn leaves unread is reported again. A registration belongs to the
//! open file description, not the descriptor number — closed while a
//! `try_clone` twin lives on, a descriptor stays registered and fires
//! under its old token — so it is deregistered *before* its last close;
//! its readiness leaves the current wake with it, and a recycled token
//! starts with nothing ready.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

#[cfg(not(target_os = "linux"))]
compile_error!("script-net's I/O thread is built on epoll(7) and a UnixStream self-pipe; there is no poller for this target");

pub(crate) use linux_impl::deepen_backlog;
use linux_impl::Pipe;
pub use linux_impl::{fd_of, Fd, Poller};

/// Lets other threads interrupt the I/O thread parked in
/// [`Poller::wait`], by a **parked / awake protocol**: producers queue
/// output and then call [`Waker::wake`]; the thread calls
/// [`Waker::park`] and *then* flushes the queues. Whichever comes second
/// sees the other — the producer finds the thread parked and wakes it,
/// or the flush finds the output — so nothing is stranded, and a wake
/// costs a syscall only when the thread is parked and no wake byte is
/// already on its way.
#[derive(Debug)]
pub struct Waker {
    state: AtomicU8,
    /// What carries the wakeup into the wait.
    pipe: Pipe,
}

const AWAKE: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

impl Waker {
    /// A fresh waker, reactor awake.
    ///
    /// # Errors
    ///
    /// Pipe creation failure.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            state: AtomicU8::new(AWAKE),
            pipe: Pipe::new()?,
        })
    }

    /// The descriptor the reactor registers for read interest.
    pub fn read_fd(&self) -> Fd {
        self.pipe.read_fd()
    }

    /// Reactor side: call before the last flush ahead of
    /// [`Poller::wait`]; from here on the first [`Waker::wake`] must
    /// interrupt it.
    pub fn park(&self) {
        self.state.store(PARKED, Ordering::SeqCst);
    }

    /// Reactor side: call when [`Poller::wait`] returns. The reactor
    /// will look at every queue before it next parks.
    pub fn unpark(&self) {
        self.state.store(AWAKE, Ordering::SeqCst);
    }

    /// Interrupts the reactor if it is parked and no wake byte is
    /// pending; otherwise does nothing.
    pub fn wake(&self) {
        let first =
            self.state
                .compare_exchange(PARKED, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst);
        if first.is_ok() {
            self.pipe.signal();
        }
    }

    /// Reactor side: empties the pipe; returns how many wake bytes
    /// there were. The protocol leaves at most one per park.
    pub fn drain(&self) -> usize {
        self.pipe.drain()
    }
}

/// Readiness observed for one registered descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Bytes (or an accept) are waiting.
    pub readable: bool,
    /// The socket will accept more output.
    pub writable: bool,
    /// Error or hangup: the connection is dead either way — reads
    /// drain whatever remains, then observe EOF.
    pub hangup: bool,
}

/// Why the I/O thread is giving a [`Source`] a turn.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cause {
    /// Its first turn, on the I/O thread: register descriptors here.
    Attached,
    /// [`Notify::wake`] was called since its last such turn. Runs after
    /// [`Waker::park`]: flush what producers queued.
    Woken,
    /// The descriptor it registered under `key` is ready.
    Ready { key: u64, readiness: Readiness },
    /// The instant its previous turn asked for has come.
    Due,
}

/// What a [`Source`] wants after a turn.
pub(crate) enum Turn {
    /// Stay registered; a [`Cause::Due`] turn at that instant, if any.
    Until(Option<Instant>),
    /// Finished: close and forget it.
    Done,
}

/// One hub, spoke connection, fleet or relayed connection, as the I/O
/// thread sees it. Both methods run on that thread only, inside
/// `catch_unwind`.
pub(crate) trait Source: Send {
    /// One turn (see [`Cause`]). Must not block: every other source in
    /// the process waits for it.
    fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn;

    /// The last call: the source answered [`Turn::Done`], or its turn
    /// panicked (`panicked`). Descriptors it leaves registered are
    /// deregistered after it.
    fn close(&mut self, io: &mut Io<'_>, panicked: bool);
}

/// The interest set as one source's turn sees it: registrations are
/// recorded against the source, so readiness finds its way back and a
/// source that dies takes its descriptors with it.
pub(crate) struct Io<'a> {
    poller: &'a mut Poller,
    owners: &'a mut Vec<Option<(usize, u64)>>,
    slot: usize,
}

impl Io<'_> {
    /// Registers `fd` for this source; its readiness arrives as
    /// [`Cause::Ready`] with `key`. Returns the token.
    pub(crate) fn register(&mut self, fd: Fd, key: u64, read: bool, write: bool) -> usize {
        let tok = self.poller.register(fd, read, write);
        if tok >= self.owners.len() {
            self.owners.resize(tok + 1, None);
        }
        self.owners[tok] = Some((self.slot, key));
        DESCRIPTORS.fetch_add(1, Ordering::Relaxed);
        tok
    }

    /// Patches a registered descriptor's interests in place.
    pub(crate) fn set_interest(&mut self, tok: usize, read: bool, write: bool) {
        self.poller.set_interest(tok, read, write);
    }

    /// Takes a descriptor out of the interest set — call it while the
    /// descriptor is still open; readiness the current wake observed
    /// for it is dropped with it.
    pub(crate) fn deregister(&mut self, tok: usize) {
        self.poller.deregister(tok);
        self.owners[tok] = None;
        DESCRIPTORS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A source's doorbell: producers on any thread queue output for the
/// source and then ring it. The flag is looked at after
/// [`Waker::park`], the shared waker is poked after the flag is set —
/// whichever side comes second sees the other.
#[derive(Debug, Default)]
pub(crate) struct Notify {
    woken: AtomicBool,
}

impl Notify {
    /// Asks for a [`Cause::Woken`] turn; interrupts the I/O thread's
    /// wait if it is parked.
    pub(crate) fn wake(&self) {
        self.woken.store(true, Ordering::SeqCst);
        if let Some(service) = SERVICE.get() {
            service.waker.wake();
        }
    }
}

/// What producers share with the I/O thread.
struct Service {
    waker: Waker,
    /// Sources on their way to the thread, which takes them after
    /// [`Waker::park`].
    incoming: Mutex<Vec<Incoming>>,
}

type Incoming = (Box<dyn Source>, Arc<Notify>);

static SERVICE: OnceLock<Arc<Service>> = OnceLock::new();

// Plain relaxed statistics: they publish nothing.
static SOURCES: AtomicUsize = AtomicUsize::new(0);
static DESCRIPTORS: AtomicUsize = AtomicUsize::new(0);
static WAKES: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static EPOLL_CTLS: AtomicU64 = AtomicU64::new(0);
static IO_THREADS: AtomicU64 = AtomicU64::new(0);
static REDIAL_THREADS: AtomicU64 = AtomicU64::new(0);

/// What the process's I/O thread has done so far (see [`io_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Sources registered right now: one per live hub, spoke connection,
    /// fleet and relayed connection.
    pub sources: usize,
    /// Descriptors the sources have registered right now (the wake pipe
    /// not counted); a wake costs its `events`, not these.
    pub descriptors: usize,
    /// Times the thread came out of its wait.
    pub wakes: u64,
    /// Ready descriptors it handed to their sources; over `wakes`, the
    /// events per wake.
    pub events: u64,
    /// `epoll_ctl` calls made: registrations, interest changes and
    /// deregistrations, by every poller in the process.
    pub epoll_ctls: u64,
    /// I/O threads ever started: 0 before the first hub or spoke, 1
    /// after — never more.
    pub io_threads: u64,
    /// Redial threads ever started: one per connection that died
    /// without the spoke being closed or the hub saying goodbye.
    pub redial_threads: u64,
}

/// Process-wide counters of the `script-net-io` thread: steady state
/// births no thread, and this is where to read that off.
pub fn io_stats() -> IoStats {
    IoStats {
        sources: SOURCES.load(Ordering::Relaxed),
        descriptors: DESCRIPTORS.load(Ordering::Relaxed),
        wakes: WAKES.load(Ordering::Relaxed),
        events: EVENTS.load(Ordering::Relaxed),
        epoll_ctls: EPOLL_CTLS.load(Ordering::Relaxed),
        io_threads: IO_THREADS.load(Ordering::Relaxed),
        redial_threads: REDIAL_THREADS.load(Ordering::Relaxed),
    }
}

/// Counts one redial thread (the spoke starts it; see `client.rs`).
pub(crate) fn note_redial_thread() {
    REDIAL_THREADS.fetch_add(1, Ordering::Relaxed);
}

/// Hands `source` to the I/O thread, starting the thread if this is the
/// process's first. Returns at once: the source's [`Cause::Attached`]
/// turn runs on the thread. The thread is never joined — it serves the
/// process for as long as it lives, parked in `epoll_wait` when idle.
///
/// # Panics
///
/// If the process cannot create the wake pipe, the epoll instance or
/// the thread.
pub(crate) fn register(source: Box<dyn Source>, notify: Arc<Notify>) {
    let service = SERVICE.get_or_init(|| {
        let service = Arc::new(Service {
            waker: Waker::new().expect("create the I/O thread's wake pipe"),
            incoming: Mutex::new(Vec::new()),
        });
        let io_loop = IoLoop::new(Arc::clone(&service));
        thread::Builder::new()
            .name("script-net-io".into())
            .spawn(move || io_loop.run())
            .expect("spawn the I/O thread");
        IO_THREADS.fetch_add(1, Ordering::Relaxed);
        service
    });
    SOURCES.fetch_add(1, Ordering::Relaxed);
    service.incoming.lock().push((source, notify));
    service.waker.wake();
}

/// Blocks the calling thread — never the I/O thread — until `fd` takes
/// output again. For writers that share a nonblocking socket with the
/// I/O thread.
pub(crate) fn wait_writable(fd: Fd) {
    let mut poller = Poller::new();
    poller.register(fd, false, true);
    if poller.wait(None).is_err() {
        // No epoll instance to be had (out of descriptors): back off.
        thread::sleep(Duration::from_millis(1));
    }
}

/// A registered source on the I/O thread.
struct Slot {
    source: Box<dyn Source>,
    notify: Arc<Notify>,
    /// When it wants its next [`Cause::Due`] turn.
    due: Option<Instant>,
}

/// The I/O thread's state (see the module docs).
struct IoLoop {
    service: Arc<Service>,
    poller: Poller,
    /// `(slot, key)` by token; `None` for the waker's token and for
    /// free ones.
    owners: Vec<Option<(usize, u64)>>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    waker_tok: usize,
}

impl IoLoop {
    fn new(service: Arc<Service>) -> Self {
        let mut poller = Poller::new();
        assert!(poller.is_open(), "create the I/O thread's epoll instance");
        let waker_tok = poller.register(service.waker.read_fd(), true, false);
        Self {
            service,
            poller,
            owners: vec![None; waker_tok + 1],
            slots: Vec::new(),
            free: Vec::new(),
            waker_tok,
        }
    }

    fn run(mut self) {
        // Scratch, reused wake after wake.
        let mut incoming: Vec<Incoming> = Vec::new();
        loop {
            // Park first, look second: a producer that queued a source,
            // or output and a doorbell, before this point is seen by the
            // looks below; one that comes after finds the thread parked
            // and sends the wake byte.
            self.service.waker.park();
            std::mem::swap(&mut *self.service.incoming.lock(), &mut incoming);
            for (source, notify) in incoming.drain(..) {
                let idx = self.insert(Slot {
                    source,
                    notify,
                    due: None,
                });
                self.turn(idx, Cause::Attached);
            }
            for idx in 0..self.slots.len() {
                let Some(slot) = &self.slots[idx] else {
                    continue;
                };
                if slot.notify.woken.load(Ordering::SeqCst) {
                    // Cleared before the flush: a ring during it asks
                    // for another.
                    slot.notify.woken.store(false, Ordering::SeqCst);
                    self.turn(idx, Cause::Woken);
                }
            }
            let earliest = self.slots.iter().flatten().filter_map(|s| s.due).min();
            let timeout = earliest.map(|at| at.saturating_duration_since(Instant::now()));
            if self.poller.wait(timeout).is_err() {
                // Not expected of a live epoll instance and a buffer it
                // owns; retry rather than die with every source.
                thread::yield_now();
            }
            // Awake: completions that run on this thread from here on —
            // most of them, since submitted operations are stepped by
            // their submitter — ring their doorbell without a syscall.
            self.service.waker.unpark();
            let mut events = 0;
            // The kernel's ready list, which only `wait` changes. A turn
            // may deregister a token (its readiness goes with it) or
            // register one (a recycled token starts with nothing ready).
            let mut i = 0;
            while let Some(tok) = self.poller.ready_token(i) {
                i += 1;
                let r = self.poller.readiness(tok);
                if r.readable || r.writable || r.hangup {
                    if tok == self.waker_tok {
                        self.service.waker.drain();
                    } else if let Some((idx, key)) = self.owners[tok] {
                        events += 1;
                        self.turn(idx, Cause::Ready { key, readiness: r });
                    }
                }
            }
            if earliest.is_some() {
                let now = Instant::now();
                for idx in 0..self.slots.len() {
                    let due = self.slots[idx].as_ref().and_then(|s| s.due);
                    if due.is_some_and(|at| at <= now) {
                        self.turn(idx, Cause::Due);
                    }
                }
            }
            WAKES.fetch_add(1, Ordering::Relaxed);
            EVENTS.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn insert(&mut self, slot: Slot) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(slot);
                idx
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    /// Gives the source in `idx` one turn; a source that is done, or
    /// whose turn panicked, is closed and removed — it alone.
    fn turn(&mut self, idx: usize, cause: Cause) {
        let Some(slot) = self.slots[idx].as_mut() else {
            return; // Removed earlier in this wake.
        };
        let mut io = Io {
            poller: &mut self.poller,
            owners: &mut self.owners,
            slot: idx,
        };
        let panicked = match catch_unwind(AssertUnwindSafe(|| slot.source.turn(&mut io, cause))) {
            Ok(Turn::Until(due)) => {
                slot.due = due;
                return;
            }
            Ok(Turn::Done) => false,
            Err(_) => true,
        };
        // The source's state may be broken mid-update after a panic;
        // `close` is told, and only cuts things loose.
        let _ = catch_unwind(AssertUnwindSafe(|| slot.source.close(&mut io, panicked)));
        // Before the source, and the descriptors it owns, are dropped.
        for tok in 0..io.owners.len() {
            if io.owners[tok].is_some_and(|(owner, _)| owner == idx) {
                io.deregister(tok);
            }
        }
        self.slots[idx] = None;
        self.free.push(idx);
        SOURCES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The wait's timeout in whole milliseconds, rounded *up* so a timer
/// due in 300 µs does not spin at timeout 0. `None` (block forever)
/// maps to -1 as `epoll_wait(2)` specifies.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

mod linux_impl {
    use super::{io, Duration, Ordering, Readiness};
    use std::ffi::c_int;
    use std::io::{Read, Write};
    use std::os::fd::OwnedFd;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    pub(crate) use sys::deepen_backlog;
    use sys::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

    /// A raw OS file descriptor.
    pub type Fd = std::os::unix::io::RawFd;

    /// The descriptor behind any socket-like std type.
    pub fn fd_of<T: AsRawFd>(x: &T) -> Fd {
        x.as_raw_fd()
    }

    // The crate's only unsafe code: hand-written FFI declarations of
    // epoll(7), listen(2) and shutdown(2) — std has no public readiness
    // API and the workspace vendors no libc crate. The constants are
    // Linux's.
    #[allow(unsafe_code)]
    mod sys {
        use std::ffi::c_int;
        use std::io;
        use std::net::TcpListener;
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

        /// `struct epoll_event`: packed on x86-64 only, as the kernel has it.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Debug, Clone, Copy, Default)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const ADD: c_int = 1;
        pub const DEL: c_int = 2;
        pub const MOD: c_int = 3;

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(epfd: c_int, out: *mut EpollEvent, max: c_int, ms: c_int) -> c_int;
            fn listen(fd: c_int, backlog: c_int) -> c_int;
            fn shutdown(fd: c_int, how: c_int) -> c_int;
        }

        fn check(rc: c_int) -> io::Result<usize> {
            usize::try_from(rc).map_err(|_| io::Error::last_os_error())
        }

        /// A new epoll instance (`EPOLL_CLOEXEC`), closed as it drops.
        pub fn create() -> io::Result<OwnedFd> {
            // SAFETY: no pointers cross.
            let fd = check(unsafe { epoll_create1(0o2_000_000) })? as c_int;
            // SAFETY: `fd` is new, and nothing else owns it.
            Ok(unsafe { OwnedFd::from_raw_fd(fd) })
        }

        pub fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<usize> {
            let mut event = EpollEvent { events, data };
            // SAFETY: `event` outlives the call, which only reads it.
            check(unsafe { epoll_ctl(epfd, op, fd, &mut event) })
        }

        pub fn wait(epfd: c_int, out: &mut [EpollEvent], ms: c_int) -> io::Result<usize> {
            let max = c_int::try_from(out.len()).unwrap_or(c_int::MAX);
            // SAFETY: the kernel writes at most `max` entries into the
            // exclusively borrowed slice.
            check(unsafe { epoll_wait(epfd, out.as_mut_ptr(), max, ms) })
        }

        /// Deepens a listener's accept queue from std's 128 to 4,096
        /// (capped by `net.core.somaxconn`; Linux takes a new backlog on
        /// a listening socket): a fan-in's SYNs beyond it would be
        /// dropped, to be retried a second later.
        pub fn deepen_backlog(listener: &TcpListener) -> io::Result<()> {
            // SAFETY: no pointers cross.
            check(unsafe { listen(listener.as_raw_fd(), 4096) }).map(|_| ())
        }

        /// Shuts both directions of a socket (`SHUT_RDWR`).
        pub fn shut(fd: c_int) {
            // SAFETY: no pointers cross; a non-socket is left as it is.
            unsafe { shutdown(fd, 2) };
        }
    }

    /// One token: its descriptor, the interest the kernel holds for it,
    /// and what the last wait saw (0 once deregistered or recycled).
    #[derive(Debug, Clone, Copy)]
    struct Entry {
        fd: Fd,
        interest: u32,
        ready: u32,
    }

    fn interest_of(read: bool, write: bool) -> u32 {
        (u32::from(read) * EPOLLIN) | (u32::from(write) * EPOLLOUT)
    }

    /// A persistent `epoll(7)` interest set (see the module docs).
    #[derive(Debug)]
    pub struct Poller {
        /// `None` if it could not be created: every wait fails.
        epfd: Option<OwnedFd>,
        entries: Vec<Entry>,
        free: Vec<usize>,
        /// `epoll_wait`'s fixed buffer: ready descriptors beyond it are
        /// reported by the next wait (level-triggered, none is lost).
        events: Vec<sys::EpollEvent>,
        /// The tokens the last wait saw ready, in the kernel's order.
        ready: Vec<usize>,
        /// Tokens the kernel refused: reported hung up by the next wait.
        failed: Vec<usize>,
    }

    impl Default for Poller {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Poller {
        /// An empty interest set: a new epoll instance, closed as the
        /// poller drops (out of descriptors, one whose waits fail).
        pub fn new() -> Self {
            Self {
                epfd: sys::create().ok(),
                entries: Vec::new(),
                free: Vec::new(),
                events: vec![sys::EpollEvent::default(); 256],
                ready: Vec::new(),
                failed: Vec::new(),
            }
        }

        pub(crate) fn is_open(&self) -> bool {
            self.epfd.is_some()
        }

        fn ctl(&mut self, op: c_int, tok: usize) -> bool {
            super::EPOLL_CTLS.fetch_add(1, Ordering::Relaxed);
            let epfd = self.epfd.as_ref().map_or(-1, AsRawFd::as_raw_fd);
            let Entry { fd, interest, .. } = self.entries[tok];
            sys::ctl(epfd, op, fd, interest, tok as u64).is_ok()
        }

        /// Registers `fd` with the given interests; returns a stable
        /// token for the other methods, recycling deregistered ones
        /// first. A descriptor the kernel refuses (`ENOMEM`, `ENOSPC`) is
        /// shut down and reported hung up by the next [`Poller::wait`]:
        /// its owner's read finds the end it is told about.
        pub fn register(&mut self, fd: Fd, read: bool, write: bool) -> usize {
            let entry = Entry {
                fd,
                interest: interest_of(read, write),
                ready: 0,
            };
            let tok = self.free.pop().unwrap_or_else(|| {
                self.entries.push(entry);
                self.entries.len() - 1
            });
            self.entries[tok] = entry;
            if !self.ctl(sys::ADD, tok) {
                if self.is_open() {
                    sys::shut(fd);
                }
                self.failed.push(tok);
            }
            tok
        }

        /// Patches a token's interest bits: one `EPOLL_CTL_MOD`, none
        /// when they are unchanged.
        pub fn set_interest(&mut self, tok: usize, read: bool, write: bool) {
            let interest = interest_of(read, write);
            if std::mem::replace(&mut self.entries[tok].interest, interest) != interest {
                self.ctl(sys::MOD, tok);
            }
        }

        /// Takes a token out of the set — before its descriptor's last
        /// close, see the module docs — with whatever the last wait saw
        /// for it, and frees it for reuse.
        pub fn deregister(&mut self, tok: usize) {
            self.ctl(sys::DEL, tok);
            self.entries[tok].ready = 0;
            self.failed.retain(|&t| t != tok);
            self.free.push(tok);
        }

        /// Blocks until a registered descriptor is ready or `timeout`
        /// elapses (`None` = forever), and records what is ready. A
        /// signal interruption reports nothing ready, never an error.
        ///
        /// # Errors
        ///
        /// The underlying syscall's failure, `EINTR` excepted.
        pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            for tok in self.ready.drain(..) {
                self.entries[tok].ready = 0;
            }
            // A refused registration is reported at once.
            let now = (!self.failed.is_empty()).then_some(Duration::ZERO);
            let epfd = self.epfd.as_ref().map_or(-1, AsRawFd::as_raw_fd);
            let n = match sys::wait(epfd, &mut self.events, super::timeout_ms(now.or(timeout))) {
                Err(e) if e.kind() != io::ErrorKind::Interrupted => return Err(e),
                n => n.unwrap_or(0),
            };
            for event in &self.events[..n] {
                self.entries[event.data as usize].ready = event.events;
                self.ready.push(event.data as usize);
            }
            for tok in self.failed.drain(..) {
                self.entries[tok].ready = EPOLLHUP;
                self.ready.push(tok);
            }
            Ok(())
        }

        /// The readiness the last [`Poller::wait`] saw for `tok`; nothing
        /// for a token deregistered or recycled since.
        pub fn readiness(&self, tok: usize) -> Readiness {
            let r = self.entries[tok].ready;
            Readiness {
                readable: r & EPOLLIN != 0,
                writable: r & EPOLLOUT != 0,
                hangup: r & (EPOLLERR | EPOLLHUP) != 0,
            }
        }

        /// The `i`th token the last wait saw ready.
        pub(super) fn ready_token(&self, i: usize) -> Option<usize> {
            self.ready.get(i).copied()
        }
    }

    /// A self-pipe: a nonblocking `UnixStream` pair.
    #[derive(Debug)]
    pub struct Pipe {
        rx: UnixStream,
        tx: UnixStream,
    }

    impl Pipe {
        pub(super) fn new() -> io::Result<Self> {
            let (tx, rx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Self { rx, tx })
        }

        pub(super) fn read_fd(&self) -> Fd {
            self.rx.as_raw_fd()
        }

        pub(super) fn signal(&self) {
            let _ = (&self.tx).write(&[1u8]);
        }

        /// One read; returns how many wake bytes were pending.
        pub(super) fn drain(&self) -> usize {
            let mut sink = [0u8; 64];
            (&self.rx).read(&mut sink).unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;

    /// A wake after parking interrupts the wait; the turn ends with
    /// the pipe empty and the thread awake.
    #[test]
    fn waker_interrupts_wait() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let mut poller = Poller::new();
        let w2 = std::sync::Arc::clone(&waker);
        let tok = poller.register(waker.read_fd(), true, false);
        waker.park();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        let start = Instant::now();
        poller.wait(Some(Duration::from_secs(10))).unwrap();
        waker.unpark();
        assert!(start.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
        assert!(poller.readiness(tok).readable);
        assert_eq!(waker.drain(), 1);
        assert_eq!(waker.drain(), 0);
    }

    /// The protocol: a wake while awake delivers nothing, any number of
    /// wakes while parked deliver one.
    #[test]
    fn waker_wakes_only_a_parked_reactor_and_only_once() {
        let waker = Waker::new().unwrap();
        waker.wake();
        assert_eq!(waker.drain(), 0, "awake: the wake is a no-op");
        waker.park();
        for _ in 0..5 {
            waker.wake();
        }
        waker.unpark();
        assert_eq!(waker.drain(), 1, "parked: five wakes, one byte");
        waker.wake();
        assert_eq!(waker.drain(), 0, "awake again");
        // A park nobody interrupted leaves nothing behind.
        waker.park();
        waker.unpark();
        waker.park();
        waker.wake();
        waker.wake();
        assert_eq!(waker.drain(), 1);
    }

    #[test]
    fn poll_sees_readable_tcp_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.write_all(b"ping").unwrap();

        let fd = fd_of(&rx);

        let mut poller = Poller::new();
        let tok = poller.register(fd, true, false);
        poller.wait(Some(Duration::from_secs(5))).unwrap();
        assert!(poller.readiness(tok).readable);
    }

    #[test]
    fn deregistered_slots_go_quiet_and_are_recycled() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.write_all(b"ping").unwrap();

        let fd = fd_of(&rx);

        let mut poller = Poller::new();
        let tok = poller.register(fd, true, false);
        poller.wait(Some(Duration::from_millis(50))).unwrap();
        assert!(poller.readiness(tok).readable);

        // Tombstoned: the readiness this wake observed goes with the
        // registration, and the readable socket no longer reports.
        poller.deregister(tok);
        assert!(!poller.readiness(tok).readable);
        poller.wait(Some(Duration::from_millis(10))).unwrap();
        assert!(!poller.readiness(tok).readable);

        // The tombstone is recycled, not leaked: re-registering hands
        // back the same slot, live again — with nothing ready until the
        // next wait says so, so a recycled slot cannot hand one
        // descriptor's readiness to another within a wake.
        let tok2 = poller.register(fd, true, false);
        assert_eq!(tok2, tok, "free list reuses tombstoned slots");
        assert!(!poller.readiness(tok2).readable);
        poller.wait(Some(Duration::from_millis(50))).unwrap();
        assert!(poller.readiness(tok2).readable);
    }

    #[test]
    fn set_interest_patches_in_place() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        drop(tx); // No bytes in flight: only write interest can fire.

        let fd = fd_of(&rx);

        let mut poller = Poller::new();
        let tok = poller.register(fd, false, false);
        poller.set_interest(tok, false, true);
        poller.wait(Some(Duration::from_millis(100))).unwrap();
        assert!(poller.readiness(tok).writable || poller.readiness(tok).hangup);
    }

    /// A loopback connection: the far end, and the near end nonblocking.
    fn connected() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (near, _) = listener.accept().unwrap();
        near.set_nonblocking(true).unwrap();
        (far, near)
    }

    /// A registration belongs to the open file description, not to the
    /// descriptor number: deregistered while it is open, a descriptor
    /// whose `try_clone` twin lives on stays quiet; closed first, it
    /// goes on firing under its old token, which the deregister that
    /// came too late has already freed.
    #[test]
    fn deregister_precedes_the_last_close() {
        let mut poller = Poller::new();
        let (far, near) = connected();
        let twin = near.try_clone().unwrap();
        let tok = poller.register(fd_of(&near), true, false);
        poller.deregister(tok);
        drop(near);
        (&far).write_all(b"ping").unwrap();
        poller.wait(Some(Duration::from_millis(50))).unwrap();
        assert_eq!(poller.ready_token(0), None);
        drop(twin);

        let (far, near) = connected();
        let twin = near.try_clone().unwrap();
        let tok = poller.register(fd_of(&near), true, false);
        drop(near);
        poller.deregister(tok);
        (&far).write_all(b"ping").unwrap();
        poller.wait(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(poller.ready_token(0), Some(tok), "the kernel kept it");
        assert!(poller.readiness(tok).readable);
        drop(twin);
    }

    /// A token deregistered and handed to another descriptor inside one
    /// wake starts with nothing ready, though the wake's ready list
    /// still names it; the other ready token keeps its readiness.
    #[test]
    fn a_token_recycled_inside_one_wake_starts_with_nothing_ready() {
        let mut poller = Poller::new();
        let ends: Vec<(TcpStream, TcpStream)> = (0..3).map(|_| connected()).collect();
        for (far, _) in &ends {
            (&*far).write_all(b"ping").unwrap();
        }
        let a = poller.register(fd_of(&ends[0].1), true, false);
        let b = poller.register(fd_of(&ends[1].1), true, false);
        poller.wait(Some(Duration::from_secs(5))).unwrap();
        while poller.ready_token(1).is_none() {
            poller.wait(Some(Duration::from_secs(5))).unwrap();
        }
        poller.deregister(a);
        let c = poller.register(fd_of(&ends[2].1), true, false);
        assert_eq!(c, a, "recycled");
        assert!((0..2).any(|i| poller.ready_token(i) == Some(c)));
        assert!(!poller.readiness(c).readable);
        assert!(poller.readiness(b).readable);
        poller.wait(Some(Duration::from_secs(5))).unwrap();
        assert!(poller.readiness(c).readable);
    }

    /// `Splice::turn` re-states its interests every turn: unchanged bits
    /// cost no `epoll_ctl`. The count is process-wide and other tests
    /// poll meanwhile, so the unchanged calls are many: as many
    /// `epoll_ctl`s would have to come from elsewhere in the instant
    /// they take.
    #[test]
    fn set_interest_with_unchanged_bits_issues_no_epoll_ctl() {
        const RESTATED: u64 = 10_000;
        let mut poller = Poller::new();
        let (_far, near) = connected();
        let tok = poller.register(fd_of(&near), true, false);
        let before = io_stats().epoll_ctls;
        for _ in 0..RESTATED {
            poller.set_interest(tok, true, false);
        }
        let restated = io_stats().epoll_ctls - before;
        assert!(restated < RESTATED, "{restated} epoll_ctl calls");
        let before = io_stats().epoll_ctls;
        poller.set_interest(tok, true, true);
        assert!(io_stats().epoll_ctls > before, "a change is one call");
    }

    /// A descriptor epoll refuses (here `/dev/null`, which has no poll
    /// method) is reported hung up by the next wait, at once.
    #[test]
    fn a_refused_registration_is_reported_hung_up() {
        let mut poller = Poller::new();
        let null = std::fs::File::open("/dev/null").unwrap();
        let tok = poller.register(fd_of(&null), true, false);
        let start = Instant::now();
        poller.wait(Some(Duration::from_secs(10))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(poller.ready_token(0), Some(tok));
        assert!(poller.readiness(tok).hangup);
        poller.wait(Some(Duration::from_millis(10))).unwrap();
        assert_eq!(poller.ready_token(0), None, "once");
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(super::timeout_ms(None), -1);
        assert_eq!(super::timeout_ms(Some(Duration::from_micros(300))), 1);
        assert_eq!(super::timeout_ms(Some(Duration::from_millis(7))), 7);
    }

    /// What a [`Probe`] tells its test about a turn.
    #[derive(Debug, PartialEq)]
    enum Saw {
        Attached,
        Woken,
        /// A byte arrived on the stream registered under this key.
        Read(u64),
        Closed,
    }

    /// A source its test steers on the real I/O thread: it reports its
    /// turns, reads the streams it was given (nonblocking, as every
    /// descriptor on this thread is), ends on a read when told to, and — while `hold` is set — stops inside each
    /// reported turn until the test opens the gate.
    struct Probe {
        saw: mpsc::Sender<Saw>,
        gate: mpsc::Receiver<()>,
        hold: Arc<AtomicBool>,
        streams: Vec<(u64, TcpStream)>,
        done_on_read: bool,
        quit: Arc<AtomicBool>,
    }

    impl Source for Probe {
        fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn {
            if self.quit.load(Ordering::SeqCst) {
                return Turn::Done;
            }
            let saw = match cause {
                Cause::Attached => {
                    for (key, stream) in &self.streams {
                        io.register(fd_of(stream), *key, true, false);
                    }
                    Saw::Attached
                }
                Cause::Woken => Saw::Woken,
                Cause::Ready { key, .. } => {
                    let mut stream = &self.streams.iter().find(|(k, _)| *k == key).unwrap().1;
                    match stream.read(&mut [0u8; 1]) {
                        Ok(1) => Saw::Read(key),
                        _ => return Turn::Until(None),
                    }
                }
                Cause::Due => return Turn::Until(None),
            };
            let done = self.done_on_read && matches!(saw, Saw::Read(_));
            // Decided before the report: what the test does on seeing
            // it is about later turns.
            let hold = self.hold.load(Ordering::SeqCst);
            let _ = self.saw.send(saw);
            if hold {
                let _ = self.gate.recv();
            }
            if done {
                Turn::Done
            } else {
                Turn::Until(None)
            }
        }

        fn close(&mut self, _io: &mut Io<'_>, _panicked: bool) {
            let _ = self.saw.send(Saw::Closed);
        }
    }

    /// The test's side of a registered [`Probe`].
    struct Steering {
        saw: mpsc::Receiver<Saw>,
        gate: mpsc::Sender<()>,
        hold: Arc<AtomicBool>,
        notify: Arc<Notify>,
        /// The far ends of the probe's streams, by position.
        far: Vec<TcpStream>,
        quit: Arc<AtomicBool>,
    }

    impl Steering {
        fn expect(&self, want: Saw) {
            let got = self.saw.recv_timeout(Duration::from_secs(10));
            assert_eq!(got, Ok(want));
        }
    }

    impl Drop for Steering {
        fn drop(&mut self) {
            self.hold.store(false, Ordering::SeqCst);
            self.quit.store(true, Ordering::SeqCst);
            let _ = self.gate.send(());
            self.notify.wake();
        }
    }

    /// Registers a probe with `streams` connected streams (keys 1..).
    fn probe(streams: u64, done_on_read: bool) -> Steering {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut near, mut far) = (Vec::new(), Vec::new());
        for key in 1..=streams {
            far.push(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();
            near.push((key, rx));
        }
        let (saw_tx, saw) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel();
        let steering = Steering {
            saw,
            gate,
            hold: Arc::default(),
            notify: Arc::default(),
            far,
            quit: Arc::default(),
        };
        register(
            Box::new(Probe {
                saw: saw_tx,
                gate: gate_rx,
                hold: Arc::clone(&steering.hold),
                streams: near,
                done_on_read,
                quit: Arc::clone(&steering.quit),
            }),
            Arc::clone(&steering.notify),
        );
        steering.expect(Saw::Attached);
        steering
    }

    /// The park-then-look protocol with more than one producer, the
    /// interleavings forced by a gate inside source A's turn: while the
    /// thread is held there, B's producer rings B's doorbell — (1)
    /// between `park` and the wait, which is where a `Woken` turn runs,
    /// so the ring finds the thread parked and must cut the coming wait
    /// short; (2) mid-turn with the thread awake, where the ring writes
    /// no wake byte and the look after the next `park` must find it.
    /// Neither strands B's output — and whichever of the two sits in the
    /// earlier slot, since both take both parts.
    #[test]
    fn a_doorbell_rung_during_another_sources_turn_is_answered() {
        let (a, b) = (probe(1, false), probe(1, false));
        for (held, rung) in [(&a, &b), (&b, &a)] {
            held.hold.store(true, Ordering::SeqCst);
            held.notify.wake();
            held.expect(Saw::Woken); // Parked, inside `held`'s turn.
            rung.notify.wake();
            held.gate.send(()).unwrap();
            rung.expect(Saw::Woken);

            (&held.far[0]).write_all(&[7]).unwrap();
            held.expect(Saw::Read(1)); // Awake, inside `held`'s turn.
            rung.notify.wake();
            held.hold.store(false, Ordering::SeqCst);
            held.gate.send(()).unwrap();
            rung.expect(Saw::Woken);
        }
    }

    /// A source that ends while another of its descriptors is in the
    /// ready set of the same wake is closed once and not turned again:
    /// the descriptor's readiness went with the registration.
    #[test]
    fn a_source_that_ends_mid_wake_is_not_turned_again() {
        let a = probe(2, true);
        // Both streams become readable while the thread is held, so the
        // next wait reports them in one wake.
        a.hold.store(true, Ordering::SeqCst);
        a.notify.wake();
        a.expect(Saw::Woken);
        for far in &a.far {
            (&*far).write_all(&[7]).unwrap();
        }
        a.hold.store(false, Ordering::SeqCst);
        a.gate.send(()).unwrap();
        let first = a.saw.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(first, Saw::Read(_)), "{first:?}");
        a.expect(Saw::Closed);
        let after = a.saw.recv_timeout(Duration::from_millis(100));
        assert!(after.is_err(), "turned after its close: {after:?}");
    }

    /// A fan-in's dials arrive faster than one thread accepts them:
    /// with the I/O thread held inside a turn, a thousand dials to a
    /// hub all complete in the kernel's accept queue. std's backlog of
    /// 128 would drop the SYNs beyond it, to be retried a second later.
    #[test]
    fn a_thousand_dials_queue_while_the_thread_is_held() {
        use script_chan::{ShardedTransport, Transport};
        let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, None));
        let hub = crate::TransportServer::bind("127.0.0.1:0", inner).unwrap();
        let held = probe(1, false);
        held.hold.store(true, Ordering::SeqCst);
        held.notify.wake();
        held.expect(Saw::Woken); // Nobody accepts from here on.
        let dials: Vec<TcpStream> = (0..1000)
            .map(|i| {
                TcpStream::connect_timeout(&hub.local_addr(), Duration::from_millis(200))
                    .unwrap_or_else(|e| panic!("dial {i}: {e}"))
            })
            .collect();
        held.hold.store(false, Ordering::SeqCst);
        held.gate.send(()).unwrap();
        drop(dials);
    }
}
