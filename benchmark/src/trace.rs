//! Spans the runner records around its own calls into each layer
//! (choosing-metrics §4): name, start, end, the span that caused it,
//! and the performance it belongs to. Spans stay in per-thread buffers
//! while the benchmark runs and are written out when it ends. Nothing
//! here reaches into the program under test — spans inside it are a
//! later change (ROADMAP aim 4).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// `perf` of a span that belongs to no single performance.
pub const NO_PERF: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub perf: u64,
    /// Recorded by a probe, not by the workload.
    pub probe: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

// Relaxed everywhere: the flags publish no data, phases are separated
// by thread joins, and ids only need to be unique.
static ENABLED: AtomicBool = AtomicBool::new(false);
static IN_PROBE: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Local {
    open: Vec<u32>,
    done: Vec<Span>,
}

impl Drop for Local {
    /// A thread's spans join the shared list when the thread ends.
    fn drop(&mut self) {
        if let Ok(mut all) = DONE.lock() {
            all.append(&mut self.done);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local { open: Vec::new(), done: Vec::new() }) };
}

/// Turns span recording on or off. Off (the default, and the state of
/// every `--trace 0` run) makes [`span`] one relaxed load.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Marks spans recorded from now on as probe spans (or workload spans).
pub fn set_probe_phase(on: bool) {
    IN_PROBE.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    /// The span so far (`end_ns` and `probe` are set at the drop);
    /// `None` while tracing is off.
    open: Option<Span>,
}

/// Opens a span on the calling thread. Its parent is the innermost
/// span still open on this thread.
pub fn span(name: &'static str, perf: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        parent
    });
    Guard {
        open: Some(Span {
            id,
            parent,
            name,
            perf,
            probe: false,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        span.probe = IN_PROBE.load(Ordering::Relaxed);
        // `try_with`: a guard dropped during thread teardown is lost
        // rather than a panic.
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            if let Some(at) = l.open.iter().rposition(|&o| o == span.id) {
                l.open.remove(at);
            }
            l.done.push(span);
        });
    }
}

/// Every span recorded so far, by any thread that has ended or is the
/// caller, ordered by start. Live threads other than the caller keep
/// theirs until they end.
pub fn take_all() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        DONE.lock()
            .expect("no span is recorded under this lock")
            .append(&mut l.done);
    });
    let mut all = std::mem::take(&mut *DONE.lock().expect("as above"));
    all.sort_unstable_by_key(|s| (s.start_ns, s.id));
    all
}

/// Length of the union of `children` clipped to `[start, end]`.
fn cover_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut frontier) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(frontier), e.min(end));
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover. Children may overlap each other
/// (they can run on other threads) and may outlive the parent.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let cover = children
                .get_mut(&s.id)
                .map_or(0, |c| cover_ns(s.start_ns, s.end_ns, c));
            (s.id, (s.end_ns - s.start_ns) - cover)
        })
        .collect()
}

/// Durations in µs of the spans named `name`: the workload's own when
/// the workload made that call, otherwise the probe's.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    let of = |probe: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.probe == probe)
            .map(Span::micros)
            .collect()
    };
    let own = of(false);
    if own.is_empty() {
        of(true)
    } else {
        own
    }
}

/// Spans the trace file holds at most — the earliest ones; every span
/// still counts in the per-layer metrics.
pub const FILE_SPANS: usize = 100_000;

/// The trace file: a name table plus one compact row per span,
/// `[id, parent, name index, perf (-1 = none), probe, start_ns, end_ns,
/// self_ns]`, for the first [`FILE_SPANS`] spans by start time.
pub fn encode(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let self_ns = self_times_ns(spans);
    let written = &spans[..spans.len().min(FILE_SPANS)];
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::with_capacity(256 + written.len() * 48);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"columns\":[\"id\",\"parent\",\"name\",\"perf\",\"probe\",\"start_ns\",\"end_ns\",\"self_ns\"],\"spans\":[",
        spans.len()
    );
    for (i, s) in written.iter().enumerate() {
        let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
            names.push(s.name);
            names.len() - 1
        });
        let perf = if s.perf == NO_PERF { -1 } else { s.perf as i64 };
        let _ = write!(
            out,
            "{}[{},{},{},{},{},{},{},{}]",
            if i > 0 { "," } else { "" },
            s.id,
            s.parent,
            name,
            perf,
            u8::from(s.probe),
            s.start_ns,
            s.end_ns,
            self_ns[&s.id]
        );
    }
    out.push_str("],\"names\":[");
    for (i, n) in names.iter().enumerate() {
        let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            perf: NO_PERF,
            probe: false,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp(1, 0, 0, 100),
            // Two children overlap on [30, 40]; a third pokes out of
            // the parent; a fourth lies wholly outside it.
            sp(2, 1, 10, 40),
            sp(3, 1, 30, 60),
            sp(4, 1, 90, 130),
            sp(5, 1, 200, 300),
            // A grandchild only reduces its own parent.
            sp(6, 2, 10, 25),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[&1], 100 - (50 + 10));
        assert_eq!(t[&2], 30 - 15);
        assert_eq!(t[&3], 30);
        assert_eq!(t[&6], 15);
    }

    #[test]
    fn nested_children_inside_a_covered_stretch_count_once() {
        let mut c = vec![(0, 50), (10, 20), (20, 30), (50, 60)];
        assert_eq!(cover_ns(0, 100, &mut c), 60);
        assert_eq!(cover_ns(0, 100, &mut []), 0);
    }

    #[test]
    fn spans_nest_per_thread_and_cross_thread_buffers_merge() {
        // The only test that flips the global switch.
        set_enabled(true);
        {
            let _outer = span("outer", 7);
            {
                let _inner = span("inner", 7);
            }
            std::thread::spawn(|| {
                let _other = span("other", NO_PERF);
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        let _ignored = span("off", 0);
        drop(_ignored);
        let spans = take_all();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(by("outer").parent, 0);
        assert_eq!(by("inner").parent, by("outer").id);
        // Another thread's span has no parent on this one.
        assert_eq!(by("other").parent, 0);
        assert!(by("inner").end_ns <= by("outer").end_ns);
        let file = encode("w", &spans);
        let parsed = crate::json::Json::parse(&file).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(parsed.get("names").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn workload_spans_win_over_probe_spans_of_the_same_name() {
        let mut a = sp(1, 0, 0, 2000);
        let mut b = sp(2, 0, 0, 9000);
        b.probe = true;
        assert_eq!(durations_us(&[a.clone(), b.clone()], "t"), vec![2.0]);
        a.probe = true;
        assert_eq!(durations_us(&[a, b], "t"), vec![2.0, 9.0]);
    }
}
