//! What the runner reads from the operating system: allocation counts
//! (a counting global allocator), process CPU time and peak resident
//! set (`/proc`), and the machine description stamped on every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus two relaxed counters. Installed as the
/// runner's global allocator, so every allocation of the program under
/// test — made on any thread — is counted; the cost (two relaxed adds)
/// is the same on every commit the benchmark compares.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, with the caller's `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested since process start.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has reported 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds out of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// `VmHWM` (peak resident set) in MiB out of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status is readable on Linux")
}

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    // glibc, which `std` already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts this process — and every thread it spawns from here on —
/// to the lowest-numbered CPU it is allowed to run on, and returns
/// that CPU; `None` (and no change) if the kernel refuses.
///
/// On a small virtual machine a wake-up that crosses CPUs costs far
/// more than the rendezvous it serves (an IPI into a halted vCPU,
/// ~15 µs on the 2-vCPU box this was written on), and whether a run
/// pays it is up to the scheduler's placement of the moment: the same
/// binary measured 4.4k or 12k performances a second. On one CPU every
/// hand-off is a plain context switch, the numbers are 2–3 times
/// steadier, and what they measure is the program's own path length.
/// The price is stated in README.md: no metric here sees parallel
/// speed-up or cross-core contention.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed, read only.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// Keeps glibc malloc to one arena. The process runs on one CPU, so
/// per-thread arenas buy no parallelism; what they do is make resident
/// memory depend on which thread happened to free what (peak RSS of
/// the same run read 8.5 or 10.8 MB), which would drown the growth
/// `peak_rss_mb` exists to catch.
#[cfg(target_env = "gnu")]
pub fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets a tunable of the allocator; it is
    // called before any other thread exists.
    let _ = unsafe { mallopt(M_ARENA_MAX, 1) };
}

#[cfg(not(target_env = "gnu"))]
pub fn single_malloc_arena() {}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and toolchain a result was measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    pub git_rev: String,
    /// CPUs the machine offers (the runs themselves use one, see
    /// [`pin_to_one_cpu`]).
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
}

pub fn machine() -> Machine {
    let unknown = || "unknown".to_string();
    Machine {
        // A driver checkout is not a git repository: "unknown" there.
        git_rev: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown()),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_hostile_command_names() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let line = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn hwm_line_is_found_and_scaled() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(20.0));
        assert_eq!(parse_status_hwm_mb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_status_hwm_mb("VmHWM:\t 100 MB\n"), None);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // Runs on its own thread: affinity is per thread, and the other
        // tests keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread pin itself");
            let mut now: CpuSet = [0; 16];
            // SAFETY: as in `pin_to_one_cpu`.
            assert_eq!(
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut now) },
                0
            );
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_ne!(now[cpu / 64] & (1 << (cpu % 64)), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn allocator_counts_the_delta() {
        // The test binary installs the same allocator (see main.rs).
        // Other test threads allocate concurrently, so the delta is a
        // lower bound, exact only in the number this thread adds.
        let (a0, b0) = (allocs(), alloc_bytes());
        let boxes: Vec<Box<[u8; 256]>> = (0..100).map(|_| Box::new([0u8; 256])).collect();
        std::hint::black_box(&boxes);
        let (a1, b1) = (allocs(), alloc_bytes());
        // 100 boxes plus the vector that holds them.
        assert!(a1 - a0 >= 101, "counted {}", a1 - a0);
        assert!(b1 - b0 >= 100 * 256);
        drop(boxes);
        // Deallocation is not counted.
        assert!(allocs() >= a1);
    }
}
