//! The metrics the benchmark emits: their names, units and directions
//! (mirrored in `BENCHMARK.json`; a self-test keeps the two equal), and
//! the collection every workload fills in.

use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type Decl = (&'static str, &'static str, &'static str);

/// End-to-end metrics, emitted by every workload with tracing off. Each
/// workload defines its operation; see `benchmark/README.md`.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("peak_heap_mb", "MB", "lower"),
];

/// Per-layer metrics, emitted by every workload from the traced phase. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[Decl] = &[
    // set-up and input preparation
    ("synth.generate_s", "s", "lower"),
    ("core.fixture_train_s", "s", "lower"),
    ("io.persist_s", "s", "lower"),
    ("io.load_s", "s", "lower"),
    // training (sdea_obs spans and counters)
    ("core.attr_fit_s", "s", "lower"),
    ("core.attr_step_s", "s", "lower"),
    ("core.attr_step_ms", "ms", "lower"),
    ("core.attr_steps", "count", "lower"),
    ("core.attr_epochs", "count", "lower"),
    ("core.embed_all_s", "s", "lower"),
    ("core.embed_all_calls", "count", "lower"),
    ("core.rel_fit_s", "s", "lower"),
    ("core.rel_epochs", "count", "lower"),
    ("core.final_embed_s", "s", "lower"),
    // retrieval and evaluation
    ("index.search_s", "s", "lower"),
    ("eval.rank_s", "s", "lower"),
    ("eval.cosine_cells", "count", "lower"),
    // tensor runtime
    ("tensor.pool_hit_ratio", "ratio", "higher"),
    ("tensor.pool_lookups", "count", "lower"),
    ("tensor.par_regions", "count", "lower"),
    ("tensor.par_parallel_frac", "ratio", "higher"),
    ("tensor.par_workers_spawned", "count", "lower"),
    ("tensor.par_workers_per_op", "count", "lower"),
    // allocator
    ("mem.alloc_count", "count", "lower"),
    ("mem.alloc_gb", "GB", "lower"),
    ("mem.alloc_per_op", "count", "lower"),
    ("mem.peak_mb", "MB", "lower"),
    ("mem.embed_peak_mb", "MB", "lower"),
    ("mem.match_peak_mb", "MB", "lower"),
    // text
    ("text.tokenize_s", "s", "lower"),
    ("text.tokens_p50", "count", "lower"),
    ("text.pad_frac", "ratio", "lower"),
    // serving
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.embed_ms", "ms", "lower"),
    ("serve.retrieve_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.unaccounted_ms", "ms", "lower"),
    // direct single-call probes
    ("core.tokenize_query_us", "us", "lower"),
    ("core.embed_b1_ms", "ms", "lower"),
    ("core.embed_b2_ms", "ms", "lower"),
    ("index.search_b1_us", "us", "lower"),
    // matching
    ("core.match_pass_ms", "ms", "lower"),
    ("core.align_rank_s", "s", "lower"),
    ("core.align_metrics_s", "s", "lower"),
    ("core.stable_matching_s", "s", "lower"),
    // alignment quality (varies with the seed's world, so it carries no
    // bound; correctness checks hold a floor under it instead)
    ("quality.hits1", "fraction", "higher"),
    ("quality.mrr", "fraction", "higher"),
    // validity of the run itself
    ("proc.cpu_util", "ratio", "higher"),
    ("bench.ops", "count", "higher"),
    ("bench.gen_late_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
];

/// What one phase of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (a failed op also fails a check).
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values the benchmark measured itself (the rest come
    /// from `sdea_obs`).
    pub layer: BTreeMap<&'static str, f64>,
    /// The phase's headline timing, for the tracing-overhead ratio.
    pub primary_s: f64,
}

impl Outcome {
    /// Records a check; a failed one is also reported on stderr, by name.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("sdea-benchmark: check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Folds another phase's counts and checks into this one.
    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks.iter().cloned());
    }
}

/// The `metrics` object: every declared name with its unit, in declared
/// order. `Err` names a value under an undeclared name, a non-finite
/// value, or (unless `missing_is_zero`) a declared metric left unmeasured.
pub fn assemble(
    decls: &[Decl],
    values: &BTreeMap<&'static str, f64>,
    missing_is_zero: bool,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some(stray) = values.keys().find(|k| !decls.iter().any(|d| d.0 == **k)) {
        return Err(format!("metric {stray} is not declared"));
    }
    decls
        .iter()
        .map(|&(name, unit, _)| match values.get(name) {
            Some(&v) if v.is_finite() => Ok((name, unit, v)),
            Some(&v) => Err(format!("metric {name} is not finite ({v})")),
            None if missing_is_zero => Ok((name, unit, 0.0)),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_fills_declared_order_and_rejects_gaps() {
        let decls: &[Decl] = &[("a", "s", "lower"), ("b", "ms", "lower")];
        let mut v = BTreeMap::new();
        v.insert("b", 2.0);
        assert!(assemble(decls, &v, false).unwrap_err().contains("a"));
        assert_eq!(assemble(decls, &v, true).unwrap(), vec![("a", "s", 0.0), ("b", "ms", 2.0)]);
        v.insert("a", f64::NAN);
        assert!(assemble(decls, &v, true).is_err(), "non-finite values are refused");
        v.insert("a", 1.0);
        v.insert("c", 1.0);
        assert!(assemble(decls, &v, true).unwrap_err().contains("not declared"));
    }
}
