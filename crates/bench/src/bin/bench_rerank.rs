//! Cross-encoder reranking benchmark: ΔHits@1 and added latency per
//! shortlist size.
//!
//! The world is the DBP15K ZH-EN profile at the repo's reproduction scale
//! (1/10 of the paper's 15K links). The bin trains the attribute stage
//! (stage 1), fine-tunes a [`CrossEncoder`] on the train seeds with hard
//! negatives from the stage-1 shortlists, then evaluates the test pairs
//! through the blocked retrieval path twice per swept shortlist size `k`
//! — without and with the rerank pass — and measures the per-query
//! latency the pass adds (p50/p99 over the test queries). Everything
//! lands in `results/BENCH_rerank.json`.
//!
//! Usage: `bench_rerank [--smoke]`. `--smoke` is the CI mode: a small
//! world, short training, and determinism assertions (the rerank pass run
//! twice must produce bitwise-equal metrics, and rerank-off must equal
//! the plain blocked path bitwise); it writes its own report file. The
//! full run additionally enforces the PR acceptance bar: at the default
//! shortlist size, Hits@1 **with** reranking must be strictly greater
//! than without.

#![forbid(unsafe_code)]

use sdea_bench::runner::{bench_sdea_config, bench_seed, load_dataset, report_dir};
use sdea_core::attr_module::AttrModule;
use sdea_core::{AttrSequencer, CrossEncoder};
use sdea_eval::{evaluate_blocked, AlignmentMetrics, RescoreFn, Targets};
use sdea_index::{ExactRetriever, Hit, Retriever};
use sdea_kg::EntityId;
use sdea_obs::json::Json;
use sdea_synth::DatasetProfile;
use sdea_tensor::{Rng, Tensor};
use std::time::Instant;

/// Blocked-evaluation block height; results are block-invariant, this just
/// bounds resident hit lists.
const EVAL_BLOCK: usize = 64;

/// Shortlist evaluation of the test queries, optionally rescored.
fn evaluate_shortlist<'a>(
    retr: &'a dyn Retriever,
    test_q: &Tensor,
    gold: &[usize],
    k: usize,
    rescore: Option<&'a mut RescoreFn<'a>>,
) -> AlignmentMetrics {
    let targets = Targets::Shortlist { retr, k, rescore };
    // Only a sharded target source does I/O; a shortlist cannot fail.
    evaluate_blocked(test_q, targets, gold, EVAL_BLOCK).unwrap_or_else(|e| {
        eprintln!("bench_rerank: shortlist evaluation failed: {e}");
        std::process::exit(1)
    })
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct KPoint {
    k: usize,
    base: AlignmentMetrics,
    reranked: AlignmentMetrics,
    rerank_p50_ms: f64,
    rerank_p99_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn sweep_k(
    ce: &CrossEncoder,
    retr: &dyn Retriever,
    test_q: &Tensor,
    gold: &[usize],
    cache1: &[Vec<u32>],
    cache2: &[Vec<u32>],
    test_pairs: &[(EntityId, EntityId)],
    ks: &[usize],
    alpha: f32,
    smoke: bool,
) -> Vec<KPoint> {
    let mut points = Vec::new();
    for &k in ks {
        let base = evaluate_shortlist(retr, test_q, gold, k, None);
        let mut rescore = |start: usize, hits: Vec<Vec<Hit>>| {
            let qtok: Vec<Vec<u32>> = test_pairs[start..start + hits.len()]
                .iter()
                .map(|&(e, _)| cache1[e.0 as usize].clone())
                .collect();
            ce.rerank_hits(&qtok, cache2, &hits, alpha)
        };
        let reranked = evaluate_shortlist(retr, test_q, gold, k, Some(&mut rescore));
        if smoke {
            // Rerank-off is the plain blocked path, bitwise.
            let mut identity = |_: usize, hits: Vec<Vec<Hit>>| hits;
            let off = evaluate_shortlist(retr, test_q, gold, k, Some(&mut identity));
            assert_eq!(off.hits1.to_bits(), base.hits1.to_bits(), "k={k} rerank-off hits1");
            assert_eq!(off.mrr.to_bits(), base.mrr.to_bits(), "k={k} rerank-off mrr");
            // The rerank pass is deterministic: a second evaluation is
            // bitwise identical.
            let again = evaluate_shortlist(retr, test_q, gold, k, Some(&mut rescore));
            assert_eq!(again.hits1.to_bits(), reranked.hits1.to_bits(), "k={k} rerank repeat");
            assert_eq!(again.mrr.to_bits(), reranked.mrr.to_bits(), "k={k} rerank repeat mrr");
        }
        // Added latency: the rerank pass alone (stage 1 pays the same
        // search either way), per query, over the whole test set.
        let d = test_q.shape()[1];
        let mut times: Vec<f64> = Vec::with_capacity(test_pairs.len());
        for (qi, &(e, _)) in test_pairs.iter().enumerate() {
            let row = Tensor::from_vec(test_q.data()[qi * d..(qi + 1) * d].to_vec(), &[1, d]);
            let hits = retr.search(&row, k);
            let qtok = vec![cache1[e.0 as usize].clone()];
            let t0 = Instant::now();
            std::hint::black_box(ce.rerank_hits(&qtok, cache2, &hits, alpha));
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        let p50 = percentile(&times, 0.50) * 1e3;
        let p99 = percentile(&times, 0.99) * 1e3;
        println!(
            "k={k:>3}: H@1 {:.3} -> {:.3} (Δ {:+.3})  MRR {:.3} -> {:.3}  rerank p50 {p50:.2} ms  p99 {p99:.2} ms",
            base.hits1,
            reranked.hits1,
            reranked.hits1 - base.hits1,
            base.mrr,
            reranked.mrr,
        );
        points.push(KPoint { k, base, reranked, rerank_p50_ms: p50, rerank_p99_ms: p99 });
    }
    points
}

fn run(links: usize, smoke: bool) -> (Json, bool) {
    let seed = bench_seed();
    let mut cfg = bench_sdea_config(seed);
    cfg.rerank.enabled = true;
    cfg.rerank.apply_env();
    if smoke {
        cfg.mlm_epochs = 0;
        cfg.attr_epochs = cfg.attr_epochs.min(2);
        cfg.rerank.epochs = cfg.rerank.epochs.min(2);
    }
    let profile = DatasetProfile::dbp15k_zh_en(links, 3);
    eprintln!("[bench_rerank] generating {} ({links} links) ...", profile.name);
    let bundle = load_dataset(&profile);

    // Stage 1, exactly as the pipeline derives it (same stream splits).
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut seq_rng = rng.split();
    let mut build_rng = rng.split();
    let mut fit_rng = rng.split();
    let mut rr_rng = rng.split();
    let t0 = Instant::now();
    let seq1 = AttrSequencer::new(bundle.ds.kg1(), &mut seq_rng);
    let seq2 = AttrSequencer::new(bundle.ds.kg2(), &mut seq_rng);
    let mut attr = AttrModule::build(&cfg, &bundle.corpus, &mut build_rng);
    let cache1 = attr.token_cache(seq1.sequences());
    let cache2 = attr.token_cache(seq2.sequences());
    eprintln!("[bench_rerank] fitting attribute stage ...");
    attr.fit_resumable(
        &cache1,
        &cache2,
        &bundle.split.train,
        &bundle.split.valid,
        &mut fit_rng,
        None,
    );
    let h_a1 = attr.embed_all(&cache1, &mut fit_rng);
    let h_a2 = attr.embed_all(&cache2, &mut fit_rng);
    let stage1_secs = t0.elapsed().as_secs_f64();
    let retr = ExactRetriever::new(&h_a2);

    // Stage 2: fine-tune the cross-encoder on the train seeds.
    eprintln!("[bench_rerank] fitting cross-encoder ({} epochs) ...", cfg.rerank.epochs);
    let t1 = Instant::now();
    let mut ce = CrossEncoder::from_encoder(&attr, &mut rr_rng);
    let report = ce.fit(
        &cache1,
        &cache2,
        &h_a1,
        &retr,
        &bundle.split.train,
        &bundle.split.valid,
        &mut rr_rng,
    );
    let fit_secs = t1.elapsed().as_secs_f64();
    eprintln!(
        "[bench_rerank] cross-encoder fit in {fit_secs:.0}s, best epoch {}, valid H@1 {:?}",
        report.best_epoch, report.valid_hits1
    );

    let test_rows: Vec<usize> = bundle.split.test.iter().map(|&(e, _)| e.0 as usize).collect();
    let gold: Vec<usize> = bundle.split.test.iter().map(|&(_, t)| t.0 as usize).collect();
    let test_q = h_a1.gather_rows(&test_rows);
    // Shortlist evaluation needs k >= 10 so a miss counts toward no Hits@K.
    let ks: &[usize] = if smoke { &[10] } else { &[10, 20] };
    let points = sweep_k(
        &ce,
        &retr,
        &test_q,
        &gold,
        &cache1,
        &cache2,
        &bundle.split.test,
        ks,
        cfg.rerank.alpha,
        smoke,
    );

    // Acceptance bar: at the default shortlist size, reranking must
    // strictly improve Hits@1.
    let primary = points
        .iter()
        .min_by_key(|p| p.k.abs_diff(cfg.rerank.k))
        .map(|p| (p.k, p.base.hits1, p.reranked.hits1));
    let bar_met = primary.map(|(_, b, r)| r > b).unwrap_or(false);
    if let Some((k, b, r)) = primary {
        println!("primary k={k}: H@1 without {b:.4}, with {r:.4} (bar: strictly greater)");
    }

    let rows = points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("k", Json::Num(p.k as f64)),
                ("hits1_base", Json::Num(p.base.hits1)),
                ("hits10_base", Json::Num(p.base.hits10)),
                ("mrr_base", Json::Num(p.base.mrr)),
                ("hits1_reranked", Json::Num(p.reranked.hits1)),
                ("hits10_reranked", Json::Num(p.reranked.hits10)),
                ("mrr_reranked", Json::Num(p.reranked.mrr)),
                ("delta_hits1", Json::Num(p.reranked.hits1 - p.base.hits1)),
                ("rerank_p50_ms", Json::Num(p.rerank_p50_ms)),
                ("rerank_p99_ms", Json::Num(p.rerank_p99_ms)),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("bench", Json::str("bench_rerank_pr9")),
        ("dataset", Json::str(profile.name)),
        ("links", Json::Num(links as f64)),
        ("seed", Json::Num(seed as f64)),
        ("alpha", Json::Num(cfg.rerank.alpha as f64)),
        ("rerank_epochs", Json::Num(cfg.rerank.epochs as f64)),
        ("negatives", Json::Num(cfg.rerank.negatives as f64)),
        ("test_pairs", Json::Num(bundle.split.test.len() as f64)),
        ("stage1_secs", Json::Num(stage1_secs)),
        ("rerank_fit_secs", Json::Num(fit_secs)),
        ("sweep", Json::Arr(rows)),
    ]);
    (out, bar_met)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    sdea_obs::set_enabled(true);
    // Smoke: a small world, minutes. Full: the 1/10 reproduction scale.
    let (out, bar_met) = if smoke { run(150, true) } else { run(1500, false) };
    if !smoke && !bar_met {
        eprintln!("FAIL: reranked Hits@1 must be strictly greater than the stage-1 baseline");
        std::process::exit(1);
    }
    let dir = report_dir();
    let _ = std::fs::create_dir_all(&dir);
    // The smoke run gets its own file so it never clobbers the committed
    // full sweep.
    let path = dir.join(if smoke { "BENCH_rerank_smoke.json" } else { "BENCH_rerank.json" });
    match sdea_obs::fsio::atomic_write(&path, out.encode().as_bytes()) {
        Ok(()) => println!("bench report -> {}", path.display()),
        Err(e) => {
            eprintln!("bench report failed: {e}");
            std::process::exit(1);
        }
    }
}
