//! Benchmark-side spans around every public call the benchmark makes.
//!
//! Spans are kept in memory while a traced phase runs and written out as
//! JSONL when the run ends. A span records its name, start, end, the span
//! that caused it (the innermost open span on the same thread, or an
//! explicit parent), and — for served requests — the request id every span
//! of that request shares. Nothing is recorded while tracing is off, so
//! the untraced phase pays one relaxed load per call.

use sdea_obs::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span; times are seconds since the tracer's epoch.
pub struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: Option<u64>,
    start: f64,
    end: f64,
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Starts or stops recording.
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

fn secs(at: Instant) -> f64 {
    at.saturating_duration_since(tracer().epoch).as_secs_f64()
}

/// Runs `f` inside a span named `name` (child of the innermost open span
/// on this thread) and returns its result with the elapsed seconds. The
/// time is measured whether or not tracing is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let on = enabled();
    let id = if on { tracer().next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
    let parent = if on { OPEN.with(|s| s.borrow().last().copied()) } else { None };
    if on {
        OPEN.with(|s| s.borrow_mut().push(id));
    }
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if on {
        OPEN.with(|s| s.borrow_mut().pop());
        push(SpanRec { id, parent, name, req: None, start: secs(start), end: secs(end) });
    }
    (out, (end - start).as_secs_f64())
}

/// Records an interval measured by the caller (used for served requests,
/// whose start is a due time rather than a call). Returns the span id so
/// children can name it as their parent; 0 when tracing is off.
pub fn record(
    name: &'static str,
    parent: Option<u64>,
    req: Option<u64>,
    start: Instant,
    end: Instant,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    push(SpanRec { id, parent, name, req, start: secs(start), end: secs(end) });
    id
}

fn push(rec: SpanRec) {
    tracer().spans.lock().expect("a thread panicked while recording a span").push(rec);
}

/// Removes and returns every recorded span, ordered by start time.
pub fn drain() -> Vec<SpanRec> {
    let mut spans =
        std::mem::take(&mut *tracer().spans.lock().expect("a thread panicked while recording"));
    spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
    spans
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0.0, |c| coverage(c, s.start, s.end));
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn coverage(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// The spans as JSONL lines (microseconds), with self time filled in.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let selfs = self_times(spans);
    let us = |s: f64| Json::Num((s * 1e6).round());
    let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
    let mut out = String::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let line = Json::obj(vec![
            ("kind", Json::str("span")),
            ("id", Json::Num(s.id as f64)),
            ("parent", opt(s.parent)),
            ("name", Json::str(s.name)),
            ("req", opt(s.req)),
            ("start_us", us(s.start)),
            ("end_us", us(s.end)),
            ("dur_us", us(s.end - s.start)),
            ("self_us", us(self_s)),
        ]);
        out.push_str(&line.encode());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> SpanRec {
        SpanRec { id, parent, name: "t", req: None, start, end }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 3.0, 6.0), // overlaps span 2 on [3, 4]
            span(4, Some(2), 1.0, 2.0),
            span(5, Some(1), 9.0, 12.0), // runs past its parent's end
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 10.0 - (5.0 + 1.0)); // [1, 6] and [9, 10]
        assert_eq!(s[1], 3.0 - 1.0);
        assert_eq!(s[2], 3.0);
        assert_eq!(s[3], 1.0);
        assert_eq!(s[4], 3.0);
    }

    #[test]
    fn coverage_merges_touching_and_nested_intervals() {
        assert_eq!(coverage(&[(0.0, 1.0), (1.0, 2.0), (0.5, 0.7)], 0.0, 5.0), 2.0);
        assert_eq!(coverage(&[(4.0, 8.0)], 0.0, 5.0), 1.0);
        assert_eq!(coverage(&[], 0.0, 5.0), 0.0);
    }
}
