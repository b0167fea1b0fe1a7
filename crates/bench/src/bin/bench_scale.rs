//! Scaling-curve benchmark: blocked evaluation against the full
//! similarity matrix, with memory as a first-class metric.
//!
//! For each scale factor the bin generates a DBP15K-profile benchmark via
//! [`DatasetProfile::scaled`], builds one attribute module, embeds the seed
//! sources and all of KG2 once, and then ranks every seed against KG2
//! twice over the *same* tables:
//!
//! * **blocked** — `evaluate_blocked` walks the queries in
//!   [`VALID_BLOCK_ROWS`]-high blocks (the height validation uses), so
//!   only one `block × n2` similarity slab is ever resident.
//! * **full** — `cosine_matrix` materializes the whole n×m similarity
//!   matrix and `evaluate_ranking` scans it.
//!
//! The KG2 embedding pass is measured as its own phase (`embed`): its tape
//! peak grows with the worker count, so inside a ranking phase it would
//! make the bar measure the thread budget instead of the evaluator. Each
//! phase is timed and bracketed by `sdea_obs::mem::reset_peak`, so the
//! reported peak is the phase's *incremental* high-water mark over what
//! is live before it. The two ranking phases must agree bitwise on
//! Hits@1/Hits@10/MRR — blocking is an execution detail, not an
//! approximation — and the full run additionally enforces the acceptance
//! bar: at the largest scale the blocked peak must stay below half the
//! materialized peak. The metrics themselves are not reported: the module
//! is an untrained `test_tiny` encoder, so they say nothing about quality.
//!
//! Usage: `bench_scale [--smoke]`. `--smoke` is the CI mode: two small
//! scale points, equality assertions only (the peak ratio is noise at toy
//! sizes), and its own report file. Reports land in
//! `results/BENCH_scale.json` / `results/BENCH_scale_smoke.json`.

#![forbid(unsafe_code)]

use sdea_bench::runner::report_dir;
use sdea_core::config::VALID_BLOCK_ROWS;
use sdea_core::{AttrModule, AttrSequencer, SdeaConfig};
use sdea_eval::{cosine_matrix, evaluate_blocked, evaluate_ranking};
use sdea_obs::json::Json;
use sdea_obs::mem;
use sdea_synth::{generate, DatasetProfile};
use sdea_tensor::Rng;
use std::time::Instant;

/// One measured phase: wall seconds plus its incremental allocator peak.
struct Phase {
    secs: f64,
    peak_bytes: u64,
}

/// Runs `f` with the allocator peak rebased to the current live size, so
/// the returned peak covers only this phase's allocations.
fn measured<T>(f: impl FnOnce() -> T) -> (Phase, T) {
    mem::reset_peak();
    let base = mem::current_bytes();
    let t0 = Instant::now();
    let out = f();
    let phase = Phase {
        secs: t0.elapsed().as_secs_f64(),
        peak_bytes: mem::peak_bytes().saturating_sub(base),
    };
    (phase, out)
}

struct ScalePoint {
    scale: usize,
    n1: usize,
    n2: usize,
    queries: usize,
    embed: Phase,
    blocked: Phase,
    full: Phase,
}

impl ScalePoint {
    fn peak_ratio(&self) -> f64 {
        self.blocked.peak_bytes as f64 / self.full.peak_bytes.max(1) as f64
    }
}

/// Measures one scale point. The module, token caches and both embedding
/// tables are built before the ranking phases, so their peaks compare
/// exactly the part that differs: similarity residency.
fn run_point(links: usize, scale: usize) -> ScalePoint {
    let profile = DatasetProfile::dbp15k_zh_en(links, 3).scaled(scale);
    let ds = generate(&profile);
    let corpus = sdea_synth::corpus::dataset_corpus(&ds);

    let cfg = SdeaConfig::test_tiny();
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

    let (embed, h2) = measured(|| module.embed_all(&cache2, &mut Rng::seed_from_u64(0)));
    let (blocked, blocked_m) =
        measured(|| evaluate_blocked(&src_emb, &h2, &gold, VALID_BLOCK_ROWS));
    let (full, full_m) = measured(|| evaluate_ranking(&cosine_matrix(&src_emb, &h2), &gold));

    for (name, a, b) in [
        ("hits1", blocked_m.hits1, full_m.hits1),
        ("hits10", blocked_m.hits10, full_m.hits10),
        ("mrr", blocked_m.mrr, full_m.mrr),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "scale {scale}: blocked {name} diverged from materialized ({a} vs {b})"
        );
    }

    ScalePoint {
        scale,
        n1: ds.kg1().num_entities(),
        n2: ds.kg2().num_entities(),
        queries: src_rows.len(),
        embed,
        blocked,
        full,
    }
}

fn phase_json(p: &Phase) -> Json {
    Json::obj(vec![("secs", Json::Num(p.secs)), ("peak_bytes", Json::Num(p.peak_bytes as f64))])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    sdea_obs::set_enabled(true);
    mem::set_counting(true);
    let (links, scales): (usize, &[usize]) = if smoke { (60, &[1, 2]) } else { (200, &[1, 4, 10]) };

    let points: Vec<ScalePoint> = scales.iter().map(|&s| run_point(links, s)).collect();

    println!(
        "{:>5} {:>7} {:>7} {:>7}  {:>10} {:>12} {:>12} {:>6}  {:>9} {:>9}",
        "scale",
        "n1",
        "n2",
        "queries",
        "embed KiB",
        "blocked KiB",
        "full KiB",
        "ratio",
        "blocked s",
        "full s"
    );
    for p in &points {
        println!(
            "{:>5} {:>7} {:>7} {:>7}  {:>10} {:>12} {:>12} {:>6.3}  {:>9.3} {:>9.3}",
            p.scale,
            p.n1,
            p.n2,
            p.queries,
            p.embed.peak_bytes / 1024,
            p.blocked.peak_bytes / 1024,
            p.full.peak_bytes / 1024,
            p.peak_ratio(),
            p.blocked.secs,
            p.full.secs,
        );
    }

    // Acceptance bar (full mode only — toy smoke sizes put both phases
    // inside allocator noise): at the largest scale blocked evaluation
    // must hold under half the materialized peak.
    if let Some(last) = points.last().filter(|_| !smoke && mem::counting_enabled()) {
        let ratio = last.peak_ratio();
        if ratio >= 0.5 {
            eprintln!(
                "FAIL: at scale {} the blocked peak is {:.1}% of the materialized peak (bar: < 50%)",
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
                ("embed", phase_json(&p.embed)),
                ("blocked", phase_json(&p.blocked)),
                ("full", phase_json(&p.full)),
                ("peak_ratio", Json::Num(p.peak_ratio())),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("bench", Json::str("bench_scale")),
        ("links_base", Json::Num(links as f64)),
        ("block_rows", Json::Num(VALID_BLOCK_ROWS as f64)),
        ("threads", Json::Num(sdea_tensor::max_threads() as f64)),
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
