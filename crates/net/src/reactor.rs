//! A minimal readiness reactor: `poll(2)` + a cross-thread waker.
//!
//! The hub's event loop ([`TransportServer`](crate::TransportServer))
//! multiplexes every spoke connection onto one thread. This module
//! supplies the two primitives that requires and nothing more:
//!
//! * [`Poller`] — a reusable wrapper over the OS readiness syscall.
//!   On Unix it is a direct, hand-written FFI binding to `poll(2)`
//!   (std already links libc; no external crate is needed). Elsewhere
//!   it degrades to a bounded sleep with every registered socket
//!   reported ready — a sleep-scan: correctness is unchanged because
//!   all sockets are nonblocking, only wakeup latency suffers (≤ 5 ms).
//! * [`Waker`] — a self-pipe (a `UnixStream` pair on Unix, an atomic
//!   flag on the fallback) that lets completion callbacks running on
//!   other threads interrupt a parked `poll` so freshly queued output
//!   is flushed immediately — and costs them nothing while the reactor
//!   is awake, which is where most completions run: on the reactor
//!   thread itself, mid-turn.
//!
//! The interest set is **persistent**: descriptors are registered once
//! ([`Poller::register`]), their interests patched in place when they
//! change ([`Poller::set_interest`]), and tombstoned on teardown
//! ([`Poller::deregister`] — the slot's fd becomes -1, which POSIX
//! `poll(2)` ignores, and the slot is recycled for the next
//! registration). Earlier revisions rebuilt the whole pollfd vec every
//! wakeup; caching it drops the per-wake work from O(n) pushes to O(1)
//! patches, which is the cheap half of the known 10k-spoke epoll
//! follow-on (the syscall itself stays O(n) until then).

use std::io;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

#[cfg(unix)]
use unix_impl::Pipe;
#[cfg(unix)]
pub use unix_impl::{fd_of, Fd, Poller};

#[cfg(not(unix))]
use fallback_impl::Pipe;
#[cfg(not(unix))]
pub use fallback_impl::{fd_of, Fd, Poller};

/// Lets other threads interrupt a reactor parked in [`Poller::wait`],
/// by a **parked / awake protocol**: producers queue output and then
/// call [`Waker::wake`]; the reactor calls [`Waker::park`] and *then*
/// flushes the queues. Whichever comes second sees the other — the
/// producer finds the reactor parked and wakes it, or the flush finds
/// the output — so nothing is stranded, and a wake costs a syscall only
/// when the reactor is parked and no wake byte is already on its way.
#[derive(Debug)]
pub struct Waker {
    state: AtomicU8,
    /// The platform half: what carries the wakeup into `poll`.
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

/// The poll timeout in whole milliseconds, rounded *up* so a timer due
/// in 300 µs does not spin at timeout 0. `None` (block forever) maps to
/// -1 as `poll(2)` specifies.
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

#[cfg(unix)]
mod unix_impl {
    use super::{io, Duration, Readiness};
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// A raw OS file descriptor.
    pub type Fd = std::os::unix::io::RawFd;

    /// The descriptor behind any socket-like std type.
    pub fn fd_of<T: AsRawFd>(x: &T) -> Fd {
        x.as_raw_fd()
    }

    // The one unsafe item in the crate: the FFI declaration of
    // poll(2). std offers no public readiness API, and the workspace
    // vendors no libc crate, so the prototype is written out by hand.
    // It is the canonical POSIX signature; the flag constants below
    // have the same values on every supported Unix.
    #[allow(unsafe_code)]
    mod sys {
        #[repr(C)]
        pub struct PollFd {
            pub fd: super::Fd,
            pub events: i16,
            pub revents: i16,
        }

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;
        pub const POLLERR: i16 = 0x008;
        pub const POLLHUP: i16 = 0x010;
        pub const POLLNVAL: i16 = 0x020;

        extern "C" {
            fn poll(
                fds: *mut PollFd,
                nfds: std::ffi::c_ulong,
                timeout: std::ffi::c_int,
            ) -> std::ffi::c_int;
        }

        /// Safe wrapper: the slice is exclusively borrowed for the
        /// call, its length is passed alongside, and poll writes only
        /// `revents` within it.
        pub fn poll_fds(fds: &mut [PollFd], timeout: std::ffi::c_int) -> std::ffi::c_int {
            #[allow(unsafe_code)]
            unsafe {
                poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout)
            }
        }
    }

    /// A persistent `poll(2)` interest set (see the module docs):
    /// register once, patch interests in place, tombstone on teardown.
    #[derive(Debug, Default)]
    pub struct Poller {
        fds: Vec<sys::PollFd>,
        /// Tombstoned slots (fd = -1) available for reuse.
        free: Vec<usize>,
    }

    impl std::fmt::Debug for sys::PollFd {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("PollFd").field("fd", &self.fd).finish()
        }
    }

    fn events_of(read: bool, write: bool) -> i16 {
        let mut events = 0i16;
        if read {
            events |= sys::POLLIN;
        }
        if write {
            events |= sys::POLLOUT;
        }
        events
    }

    impl Poller {
        /// An empty interest set.
        pub fn new() -> Self {
            Self::default()
        }

        /// Registers `fd` with the given interests; returns a stable
        /// token for [`Poller::readiness`], [`Poller::set_interest`]
        /// and [`Poller::deregister`]. Tombstoned slots are recycled
        /// before the vec grows.
        pub fn register(&mut self, fd: Fd, read: bool, write: bool) -> usize {
            let entry = sys::PollFd {
                fd,
                events: events_of(read, write),
                revents: 0,
            };
            match self.free.pop() {
                Some(tok) => {
                    self.fds[tok] = entry;
                    tok
                }
                None => {
                    self.fds.push(entry);
                    self.fds.len() - 1
                }
            }
        }

        /// Patches the interest bits of a registered slot in place.
        pub fn set_interest(&mut self, tok: usize, read: bool, write: bool) {
            self.fds[tok].events = events_of(read, write);
        }

        /// Tombstones a slot: `poll(2)` ignores negative fds, so the
        /// slot goes quiet immediately and is recycled by the next
        /// [`Poller::register`].
        pub fn deregister(&mut self, tok: usize) {
            self.fds[tok].fd = -1;
            self.fds[tok].events = 0;
            self.fds[tok].revents = 0;
            self.free.push(tok);
        }

        /// Blocks until a registered descriptor is ready or `timeout`
        /// elapses (`None` = forever). A signal interruption reports
        /// as zero descriptors ready, never as an error.
        ///
        /// # Errors
        ///
        /// The underlying syscall's failure, `EINTR` excepted.
        pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            let rc = sys::poll_fds(&mut self.fds, super::timeout_ms(timeout));
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    for f in &mut self.fds {
                        f.revents = 0;
                    }
                    return Ok(());
                }
                return Err(err);
            }
            Ok(())
        }

        /// The readiness the last [`Poller::wait`] observed for the
        /// slot behind `tok`. A tombstoned slot reports nothing ready.
        pub fn readiness(&self, tok: usize) -> Readiness {
            let r = self.fds[tok].revents;
            Readiness {
                readable: r & sys::POLLIN != 0,
                writable: r & sys::POLLOUT != 0,
                hangup: r & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
            }
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

// Compiled into Unix test builds too, so the fallback waker's protocol
// is tested where CI runs.
#[cfg(any(not(unix), test))]
#[cfg_attr(unix, allow(dead_code))]
mod fallback_impl {
    use super::{io, Duration, Readiness};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Descriptors are opaque on the fallback; registration only
    /// counts slots.
    pub type Fd = i32;

    /// No real descriptors on the fallback; every registration is the
    /// same opaque slot.
    pub fn fd_of<T>(_x: &T) -> Fd {
        -1
    }

    /// Sleep-scan poller: every *live* registered slot reports ready
    /// and nonblocking I/O sorts out which actually are (see module
    /// docs).
    #[derive(Debug, Default)]
    pub struct Poller {
        /// Slot liveness; tombstoned slots report nothing ready.
        live: Vec<bool>,
        free: Vec<usize>,
    }

    impl Poller {
        /// An empty interest set.
        pub fn new() -> Self {
            Self::default()
        }

        /// Registers a slot; interests are ignored. Tombstoned slots
        /// are recycled before the vec grows.
        pub fn register(&mut self, _fd: Fd, _read: bool, _write: bool) -> usize {
            match self.free.pop() {
                Some(tok) => {
                    self.live[tok] = true;
                    tok
                }
                None => {
                    self.live.push(true);
                    self.live.len() - 1
                }
            }
        }

        /// Interests are ignored on the fallback.
        pub fn set_interest(&mut self, _tok: usize, _read: bool, _write: bool) {}

        /// Tombstones a slot; it reports nothing ready until reused.
        pub fn deregister(&mut self, tok: usize) {
            self.live[tok] = false;
            self.free.push(tok);
        }

        /// Sleeps out (a bounded slice of) the timeout.
        ///
        /// # Errors
        ///
        /// None on this implementation.
        pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            let cap = Duration::from_millis(5);
            std::thread::sleep(timeout.map_or(cap, |t| t.min(cap)));
            Ok(())
        }

        /// Every live slot is (optimistically) ready.
        pub fn readiness(&self, tok: usize) -> Readiness {
            let live = self.live.get(tok).copied().unwrap_or(false);
            Readiness {
                readable: live,
                writable: live,
                hangup: false,
            }
        }
    }

    /// A flag for a pipe: the bounded poll timeout guarantees the
    /// reactor comes round within one slice, wake byte or not.
    #[derive(Debug, Default)]
    pub struct Pipe(AtomicBool);

    impl Pipe {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self::default())
        }

        /// A placeholder descriptor; never registered meaningfully.
        pub(super) fn read_fd(&self) -> Fd {
            -1
        }

        pub(super) fn signal(&self) {
            self.0.store(true, Ordering::SeqCst);
        }

        pub(super) fn drain(&self) -> usize {
            usize::from(self.0.swap(false, Ordering::SeqCst))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// A wake after parking interrupts the wait; the turn ends with
    /// the pipe empty and the reactor awake. (The fallback poller never
    /// blocks longer than its slice, so there is nothing to interrupt.)
    #[cfg(unix)]
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

    /// The fallback's half of the same protocol (its `Waker` is the one
    /// above, over this pipe): an empty pipe drains nothing, a signalled
    /// one drains once.
    #[cfg(unix)]
    #[test]
    fn fallback_pipe_holds_one_pending_wake() {
        let pipe = super::fallback_impl::Pipe::new().unwrap();
        assert_eq!(pipe.drain(), 0);
        pipe.signal();
        assert_eq!(pipe.drain(), 1);
        assert_eq!(pipe.drain(), 0);
    }

    #[test]
    fn poll_sees_readable_tcp_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.write_all(b"ping").unwrap();

        #[cfg(unix)]
        let fd = fd_of(&rx);
        #[cfg(not(unix))]
        let fd = 0;

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

        #[cfg(unix)]
        let fd = fd_of(&rx);
        #[cfg(not(unix))]
        let fd = 0;

        let mut poller = Poller::new();
        let tok = poller.register(fd, true, false);
        poller.wait(Some(Duration::from_millis(50))).unwrap();
        assert!(poller.readiness(tok).readable);

        // Tombstoned: the readable socket no longer reports.
        poller.deregister(tok);
        poller.wait(Some(Duration::from_millis(10))).unwrap();
        assert!(!poller.readiness(tok).readable);

        // The tombstone is recycled, not leaked: re-registering hands
        // back the same slot, live again.
        let tok2 = poller.register(fd, true, false);
        assert_eq!(tok2, tok, "free list reuses tombstoned slots");
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

        #[cfg(unix)]
        let fd = fd_of(&rx);
        #[cfg(not(unix))]
        let fd = 0;

        let mut poller = Poller::new();
        let tok = poller.register(fd, false, false);
        poller.set_interest(tok, false, true);
        poller.wait(Some(Duration::from_millis(100))).unwrap();
        assert!(poller.readiness(tok).writable || poller.readiness(tok).hangup);
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        #[cfg(unix)]
        {
            assert_eq!(super::timeout_ms(None), -1);
            assert_eq!(super::timeout_ms(Some(Duration::from_micros(300))), 1);
            assert_eq!(super::timeout_ms(Some(Duration::from_millis(7))), 7);
        }
    }
}
