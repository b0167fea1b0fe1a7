//! Per-layer numbers read from the program's own instrumentation
//! (`sdea_obs` spans, counters, histograms and allocator statistics), and
//! process facts the benchmark records with every result.
//!
//! Spans are matched by the end of their dotted path (`attr.fit.epoch`
//! matches `pipeline.attr_stage.attr.fit.epoch`), so enclosing spans can
//! change without renaming a metric.

use sdea_obs::{MemStats, ObsSnapshot};
use std::collections::BTreeMap;

/// Total seconds and count of every span whose path ends with `name`.
fn span_sum(snap: &ObsSnapshot, name: &str) -> (f64, u64) {
    let dotted = format!(".{name}");
    snap.spans
        .iter()
        .filter(|(path, _)| *path == name || path.ends_with(&dotted))
        .fold((0.0, 0), |(s, c), (_, st)| (s + st.total_secs, c + st.count))
}

fn counter(snap: &ObsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Allocator and `sdea_obs` figures of one traced phase. `before` is the
/// allocator state at the phase start, `ops` its operation count.
pub fn from_obs(
    snap: &ObsSnapshot,
    before: &MemStats,
    after: &MemStats,
    ops: u64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let (attr_fit, _) = span_sum(snap, "attr.fit");
    let (epoch, _) = span_sum(snap, "attr.fit.epoch");
    let (cands, _) = span_sum(snap, "attr.fit.epoch.candidates");
    let (validate, _) = span_sum(snap, "attr.fit.epoch.validate");
    let steps = counter(snap, "attr.steps");
    let attr_step = (epoch - cands - validate).max(0.0);
    m.insert("core.attr_fit_s", attr_fit);
    m.insert("core.attr_step_s", attr_step);
    m.insert("core.attr_step_ms", ratio(attr_step * 1e3, steps));
    m.insert("core.attr_steps", steps);
    m.insert("core.attr_epochs", counter(snap, "attr.epochs"));
    let (embed_all, calls) = span_sum(snap, "embed_all");
    m.insert("core.embed_all_s", embed_all);
    m.insert("core.embed_all_calls", calls as f64);
    m.insert("core.rel_fit_s", span_sum(snap, "rel.fit").0);
    m.insert("core.rel_epochs", counter(snap, "rel.epochs"));
    m.insert("core.final_embed_s", span_sum(snap, "final_embed").0);

    let search = span_sum(snap, "index.search_exact").0 + span_sum(snap, "index.search_ivf").0;
    m.insert("index.search_s", search);
    let rank: f64 = [
        "eval.evaluate_ranking",
        "eval.evaluate_ranking_blocked",
        "eval.evaluate_ranking_shards",
        "eval.evaluate_retrieved",
        "eval.evaluate_retrieved_blocked",
    ]
    .iter()
    .map(|n| span_sum(snap, n).0)
    .sum();
    m.insert("eval.rank_s", rank);
    m.insert("eval.cosine_cells", counter(snap, "eval.cosine_cells"));

    let hits = counter(snap, "tensor.pool.hits");
    let lookups = hits + counter(snap, "tensor.pool.misses");
    m.insert("tensor.pool_hit_ratio", ratio(hits, lookups));
    m.insert("tensor.pool_lookups", lookups);
    let regions = counter(snap, "par.regions");
    let workers = counter(snap, "par.workers_spawned");
    m.insert("tensor.par_regions", regions);
    m.insert("tensor.par_parallel_frac", ratio(counter(snap, "par.regions_parallel"), regions));
    m.insert("tensor.par_workers_spawned", workers);
    m.insert("tensor.par_workers_per_op", ratio(workers, ops as f64));

    let allocs = after.allocations.saturating_sub(before.allocations) as f64;
    let bytes = after.total_allocated_bytes.saturating_sub(before.total_allocated_bytes) as f64;
    m.insert("mem.alloc_count", allocs);
    m.insert("mem.alloc_gb", bytes / 1e9);
    m.insert("mem.alloc_per_op", ratio(allocs, ops as f64));
    m.insert("mem.peak_mb", after.peak_bytes as f64 / 1e6);

    let per_call_ms = |name: &str| {
        let (s, c) = span_sum(snap, name);
        ratio(s * 1e3, c as f64)
    };
    let queue_wait = snap.histograms.get("serve.queue_wait");
    m.insert("serve.queue_wait_ms", queue_wait.map_or(0.0, |h| h.mean() * 1e3));
    m.insert("serve.embed_ms", per_call_ms("serve.embed"));
    m.insert("serve.retrieve_ms", per_call_ms("serve.retrieve"));
    let batch = snap.histograms.get("serve.batch_size");
    m.insert("serve.batch_size_mean", batch.map_or(0.0, |h| h.mean()));
    m.insert("serve.batches", counter(snap, "serve.batches"));
    m.insert("serve.rejected", counter(snap, "serve.rejected"));
    m
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Where a result came from: recorded in every output file.
pub struct Provenance {
    pub git_rev: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub threads: usize,
}

impl Provenance {
    pub fn collect(threads: usize) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_rev() -> Option<String> {
    let git = crate::repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_obs::SpanStats;

    #[test]
    fn spans_match_by_path_suffix_only_at_a_dot() {
        let mut snap = ObsSnapshot::default();
        let st =
            |s: f64, c: u64| SpanStats { count: c, total_secs: s, min_secs: 0.0, max_secs: 0.0 };
        snap.spans.insert("pipeline.attr_stage.embed_all".into(), st(1.0, 2));
        snap.spans.insert("attr.fit.epoch.candidates.embed_all".into(), st(0.5, 1));
        snap.spans.insert("embed_all_spill".into(), st(9.0, 1));
        snap.spans.insert("xembed_all".into(), st(9.0, 1));
        assert_eq!(span_sum(&snap, "embed_all"), (1.5, 3));
    }

    #[test]
    fn attr_step_time_excludes_candidates_and_validation() {
        let mut snap = ObsSnapshot::default();
        let st = |s: f64| SpanStats { count: 1, total_secs: s, min_secs: s, max_secs: s };
        snap.spans.insert("pipeline.attr_stage.attr.fit.epoch".into(), st(10.0));
        snap.spans.insert("pipeline.attr_stage.attr.fit.epoch.candidates".into(), st(3.0));
        snap.spans.insert("pipeline.attr_stage.attr.fit.epoch.validate".into(), st(2.0));
        snap.counters.insert("attr.steps".into(), 10);
        let mem = sdea_obs::mem::stats();
        let m = from_obs(&snap, &mem, &mem, 1);
        assert_eq!(m["core.attr_step_s"], 5.0);
        assert_eq!(m["core.attr_step_ms"], 500.0);
        assert_eq!(m["tensor.pool_hit_ratio"], 0.0, "no lookups reads 0, not NaN");
    }
}
