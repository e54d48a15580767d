//! In-memory span recorder for the traced run.
//!
//! A span covers one call from the benchmark into a layer of the
//! program: its layer name, start and end, the span that was open on the
//! same thread when it began (its parent), and the circuit, job or pair
//! it served. Spans are kept in memory and written out once, at the end,
//! as Chrome trace-event JSON. With tracing off, opening a span costs one
//! atomic load and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are microseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub item: String,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Drains every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("no thread panics while holding the span list"),
    )
}

/// An open span; it is recorded when dropped.
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    item: String,
    start: Instant,
}

/// The innermost open span of this thread, to parent spans that other
/// threads open on its behalf ([`span_under`]).
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Opens a span named after the layer being called, for `item`.
pub fn span(name: &'static str, item: &str) -> Guard {
    span_under(None, name, item)
}

/// [`span`] with an explicit parent from another thread; without one,
/// the parent is this thread's innermost open span.
pub fn span_under(parent: Option<u64>, name: &'static str, item: &str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = parent.or_else(|| s.last().copied());
        s.push(id);
        parent
    });
    Guard(Some(Open {
        id,
        parent,
        name,
        item: item.to_string(),
        start: Instant::now(),
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().retain(|&id| id != open.id);
        });
        let base = epoch();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            item: open.item,
            thread: THREAD.with(|t| *t),
            start_us: open.start.duration_since(base).as_secs_f64() * 1e6,
            end_us: end.duration_since(base).as_secs_f64() * 1e6,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Time per layer: total span time and self time (total minus the part
/// of each span's interval that its child spans cover), in milliseconds,
/// with the number of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub total_ms: f64,
    pub self_ms: f64,
    pub count: usize,
}

/// Aggregates spans by layer name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| covered_us(c, s.start_us, s.end_us));
        let t = out.entry(s.name).or_default();
        t.total_ms += s.dur_us() / 1e3;
        t.self_ms += (s.dur_us() - covered).max(0.0) / 1e3;
        t.count += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Renders spans as Chrome trace-event JSON (complete `X` events).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"item\": \"{}\"}}}}{sep}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_us,
            s.dur_us(),
            s.thread,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.item.replace('\\', "\\\\").replace('"', "\\\""),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            item: String::new(),
            thread: 1,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // round [0,100) holds two circuits; circuit 2 holds two passes,
        // one of which holds a nested check.
        let spans = vec![
            sp(1, None, "round", 0.0, 100_000.0),
            sp(2, Some(1), "circuit", 10_000.0, 30_000.0),
            sp(3, Some(1), "circuit", 40_000.0, 90_000.0),
            sp(4, Some(3), "pass", 45_000.0, 60_000.0),
            sp(5, Some(3), "pass", 60_000.0, 80_000.0),
            sp(6, Some(5), "check", 70_000.0, 75_000.0),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["round"].total_ms, 100.0);
        assert_eq!(t["round"].self_ms, 30.0);
        assert_eq!(t["circuit"].total_ms, 70.0);
        assert_eq!(t["circuit"].self_ms, 35.0);
        assert_eq!(t["circuit"].count, 2);
        assert_eq!(t["pass"].total_ms, 35.0);
        assert_eq!(t["pass"].self_ms, 30.0);
        assert_eq!(t["check"].self_ms, 5.0);
        let total_self: f64 = t.values().map(|l| l.self_ms).sum();
        assert_eq!(total_self, 100.0, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children on other threads may overlap each other.
        let spans = vec![
            sp(1, None, "job", 0.0, 10_000.0),
            sp(2, Some(1), "part", 1_000.0, 6_000.0),
            sp(3, Some(1), "part", 4_000.0, 8_000.0),
            sp(4, Some(1), "part", 9_000.0, 12_000.0),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["job"].self_ms, 2.0);
    }

    #[test]
    fn recorder_links_parents_within_and_across_threads() {
        set_enabled(true);
        {
            let _outer = span("test.outer", "a");
            let _inner = span("test.inner", "a");
            let parent = current();
            std::thread::scope(|s| {
                s.spawn(|| drop(span_under(parent, "test.remote", "a")));
            });
        }
        set_enabled(false);
        drop(span("test.off", "b"));
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        let remote = spans.iter().find(|s| s.name == "test.remote").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(remote.parent, Some(inner.id));
        assert_ne!(remote.thread, inner.thread);
        assert!(inner.start_us >= outer.start_us && inner.end_us <= outer.end_us);
        assert!(chrome_json(&spans).contains("\"ph\": \"X\""));
    }
}
