//! Scaling-curve benchmark: out-of-core embedding + blocked evaluation
//! against the full-materialization path, with memory as a first-class
//! metric.
//!
//! For each scale factor the bin generates a DBP15K-profile benchmark via
//! [`DatasetProfile::scaled`], builds one attribute module, and runs the
//! embed-KG2-then-rank-every-seed workload twice over the *same* module
//! and token caches:
//!
//! * **sharded** — `AttrModule::embed_all_spill` streams the target table
//!   to disk shards, `evaluate_blocked` ranks against the shards a
//!   query block at a time; the full table and the n×m similarity matrix
//!   never exist in memory.
//! * **full** — `embed_all` materializes the table, `cosine_matrix` the
//!   whole similarity matrix, `evaluate_ranking` scans it.
//!
//! Each phase is timed and bracketed by `sdea_obs::mem::reset_peak`, so
//! the reported peak is the phase's *incremental* high-water mark over the
//! shared baseline (module weights + token caches). The phases must agree
//! bitwise on Hits@1/Hits@10/MRR — sharding and blocking are execution
//! knobs, not approximations — and the full run additionally enforces the
//! acceptance bar: at the largest scale the sharded peak must stay below
//! half the materialized peak.
//!
//! Usage: `bench_scale [--smoke]`. `--smoke` is the CI mode: two small
//! scale points, equality assertions only (the peak ratio is noise at toy
//! sizes), and its own report file. Reports land in
//! `results/BENCH_scale.json` / `results/BENCH_scale_smoke.json`.

#![forbid(unsafe_code)]

use sdea_bench::runner::report_dir;
use sdea_core::{AttrModule, AttrSequencer, SdeaConfig};
use sdea_eval::{cosine_matrix, evaluate_blocked, evaluate_ranking, AlignmentMetrics, Targets};
use sdea_obs::json::Json;
use sdea_obs::mem;
use sdea_synth::{generate, DatasetProfile};
use sdea_tensor::Rng;
use std::time::Instant;

/// One measured phase: wall seconds plus its incremental allocator peak.
struct Phase {
    secs: f64,
    peak_bytes: u64,
    metrics: AlignmentMetrics,
}

/// Runs `f` with the allocator peak rebased to the current live size, so
/// the returned peak covers only this phase's allocations.
fn measured(f: impl FnOnce() -> AlignmentMetrics) -> Phase {
    mem::reset_peak();
    let base = mem::current_bytes();
    let t0 = Instant::now();
    let metrics = f();
    Phase {
        secs: t0.elapsed().as_secs_f64(),
        peak_bytes: mem::peak_bytes().saturating_sub(base),
        metrics,
    }
}

struct ScalePoint {
    scale: usize,
    n1: usize,
    n2: usize,
    queries: usize,
    sharded: Phase,
    full: Phase,
}

/// Measures one scale point. The module, token caches and query
/// embeddings are built up front and shared by both phases, so the phase
/// peaks compare exactly the parts that differ: table + similarity
/// residency.
fn run_point(links: usize, scale: usize, shards_root: &std::path::Path) -> ScalePoint {
    let profile = DatasetProfile::dbp15k_zh_en(links, 3).scaled(scale);
    let ds = generate(&profile);
    let corpus = sdea_synth::corpus::dataset_corpus(&ds);

    let mut cfg = SdeaConfig::test_tiny();
    // Small windows relative to the table keep the out-of-core working
    // set honest; both are execution knobs with no effect on results.
    cfg.embed_shard_rows = 128;
    cfg.eval_block_rows = 64;

    let mut rng = Rng::seed_from_u64(0x5dea_5ca1);
    let mut seq_rng = rng.split();
    let (seq1, seq2) =
        (AttrSequencer::new(ds.kg1(), &mut seq_rng), AttrSequencer::new(ds.kg2(), &mut seq_rng));
    let module = AttrModule::build(&cfg, &corpus, &mut rng);
    let cache1 = module.token_cache(seq1.sequences());
    let cache2 = module.token_cache(seq2.sequences());

    // Every seed link is a query: src entity ranked against all of KG2.
    let src_rows: Vec<usize> = ds.seeds.pairs.iter().map(|&(a, _)| a.0 as usize).collect();
    let gold: Vec<usize> = ds.seeds.pairs.iter().map(|&(_, b)| b.0 as usize).collect();
    let src_emb = module.embed_rows(&cache1, &src_rows, &mut rng);

    // Sharded first: the heap holds only the shared baseline, so its
    // peak is not inflated by the other phase's leftovers.
    let dir = shards_root.join(format!("scale_{scale}"));
    let die = |what: &str, e: std::io::Error| -> ! {
        eprintln!("bench_scale: {what} at scale {scale}: {e}");
        std::process::exit(1)
    };
    let sharded = measured(|| {
        let shards = module
            .embed_all_spill(&cache2, &mut Rng::seed_from_u64(0), &dir, scale as u64)
            .unwrap_or_else(|e| die("embedding spill failed", e));
        evaluate_blocked(&src_emb, Targets::Shards(&shards), &gold, cfg.eval_block_rows)
            .unwrap_or_else(|e| die("sharded evaluation failed", e))
    });
    let _ = std::fs::remove_dir_all(&dir);

    let full = measured(|| {
        let h2 = module.embed_all(&cache2, &mut Rng::seed_from_u64(0));
        let sim = cosine_matrix(&src_emb, &h2);
        evaluate_ranking(&sim, &gold)
    });

    for (name, a, b) in [
        ("hits1", sharded.metrics.hits1, full.metrics.hits1),
        ("hits10", sharded.metrics.hits10, full.metrics.hits10),
        ("mrr", sharded.metrics.mrr, full.metrics.mrr),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "scale {scale}: sharded+blocked {name} diverged from materialized ({a} vs {b})"
        );
    }

    ScalePoint {
        scale,
        n1: ds.kg1().num_entities(),
        n2: ds.kg2().num_entities(),
        queries: src_rows.len(),
        sharded,
        full,
    }
}

fn phase_json(p: &Phase) -> Json {
    Json::obj(vec![
        ("secs", Json::Num(p.secs)),
        ("peak_bytes", Json::Num(p.peak_bytes as f64)),
        ("hits1", Json::Num(p.metrics.hits1)),
        ("hits10", Json::Num(p.metrics.hits10)),
        ("mrr", Json::Num(p.metrics.mrr)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    sdea_obs::set_enabled(true);
    mem::set_counting(true);
    let (links, scales): (usize, &[usize]) = if smoke { (60, &[1, 2]) } else { (200, &[1, 4, 10]) };

    let shards_root = std::env::temp_dir().join(format!("sdea_bench_scale_{}", std::process::id()));
    let points: Vec<ScalePoint> =
        scales.iter().map(|&s| run_point(links, s, &shards_root)).collect();
    let _ = std::fs::remove_dir_all(&shards_root);

    println!(
        "{:>5} {:>7} {:>7} {:>7}  {:>12} {:>12} {:>6}  {:>9} {:>9}",
        "scale", "n1", "n2", "queries", "shard KiB", "full KiB", "ratio", "shard s", "full s"
    );
    for p in &points {
        println!(
            "{:>5} {:>7} {:>7} {:>7}  {:>12} {:>12} {:>6.3}  {:>9.3} {:>9.3}",
            p.scale,
            p.n1,
            p.n2,
            p.queries,
            p.sharded.peak_bytes / 1024,
            p.full.peak_bytes / 1024,
            p.sharded.peak_bytes as f64 / p.full.peak_bytes.max(1) as f64,
            p.sharded.secs,
            p.full.secs,
        );
    }

    // Acceptance bar (full mode only — toy smoke sizes put both phases
    // inside allocator noise): at the largest scale the out-of-core path
    // must hold under half the materialized peak.
    if let Some(last) = points.last().filter(|_| !smoke && mem::counting_enabled()) {
        let ratio = last.sharded.peak_bytes as f64 / last.full.peak_bytes.max(1) as f64;
        if ratio >= 0.5 {
            eprintln!(
                "FAIL: at scale {} the sharded peak is {:.1}% of the materialized peak (bar: < 50%)",
                last.scale,
                ratio * 100.0
            );
            std::process::exit(1);
        }
    }

    let rows = points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("scale", Json::Num(p.scale as f64)),
                ("n1_entities", Json::Num(p.n1 as f64)),
                ("n2_entities", Json::Num(p.n2 as f64)),
                ("queries", Json::Num(p.queries as f64)),
                ("sharded", phase_json(&p.sharded)),
                ("full", phase_json(&p.full)),
                (
                    "peak_ratio",
                    Json::Num(p.sharded.peak_bytes as f64 / p.full.peak_bytes.max(1) as f64),
                ),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("bench", Json::str("bench_scale_pr8")),
        ("links_base", Json::Num(links as f64)),
        ("mem_counting", Json::Num(mem::counting_enabled() as u8 as f64)),
        ("vm_hwm_bytes", mem::vm_hwm_bytes().map_or(Json::Null, |b| Json::Num(b as f64))),
        ("points", Json::Arr(rows)),
    ]);

    let dir = report_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(if smoke { "BENCH_scale_smoke.json" } else { "BENCH_scale.json" });
    match sdea_obs::fsio::atomic_write(&path, out.encode().as_bytes()) {
        Ok(()) => println!("bench report -> {}", path.display()),
        Err(e) => {
            eprintln!("bench report failed: {e}");
            std::process::exit(1);
        }
    }
}
