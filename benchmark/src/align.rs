//! `align-bulk`: the fixture encoder aligns an unseen world it was not
//! trained on. Both graphs are tokenized and embedded in bulk (64-row
//! batches, for throughput), then every link is ranked by cosine, scored
//! (Hits@1, MRR) and 1-1 matched with Gale–Shapley. This is the one
//! workload where ranking, evaluation and stable matching take measurable
//! time; training and serving are idle.

use crate::inputs::{load_world, save_world, train_fixture, World};
use crate::metrics::Outcome;
use crate::phase::{self, hash_tensors, repeat_setup, run_phase, Ctx};
use crate::stats::{derive_seed, median, tail, SplitMix64};
use crate::trace::timed;
use crate::Report;
use sdea_core::{AlignmentResult, AttrModule, AttrSequencer};
use sdea_eval::AlignmentMetrics;
use sdea_synth::DatasetProfile;
use sdea_tensor::{Rng, Tensor};
use std::collections::BTreeMap;

/// Alignment jobs per phase (tokenize and embed both sides, then one
/// matching pass): two, so the second can be compared with the first
/// (about 8-13 s together at full size).
const JOBS: usize = 2;
/// Matching passes per second of `--seconds`, counting the jobs' own (120
/// at 15 s, about 4-6 s). Counts are fixed rather than timed, so the
/// statistics sit at the same ranks on a fast and on a slow machine.
const MATCH_PASSES_PER_SECOND: f64 = 8.0;
/// Rows whose bulk embedding is compared with a one-row embed.
const CHECKED_ROWS: usize = 32;
/// Even an encoder trained for one epoch on another world ranks far above
/// chance (1/1000); this only catches a broken path.
const MIN_HITS1: f64 = 0.05;

struct State {
    encoder: AttrModule,
    world: World,
    seq1: AttrSequencer,
    seq2: AttrSequencer,
}

/// The last job's token rows and tables, kept for the row check and the
/// probes.
struct Kept {
    cache1: Vec<Vec<u32>>,
    cache2: Vec<Vec<u32>>,
    e1: Tensor,
    e2: Tensor,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut layer = BTreeMap::new();
    let fixture = train_fixture(&ctx.sizes)?;
    let world_seed = derive_seed(ctx.seed, 21);
    let profile =
        DatasetProfile::dbp15k_zh_en(ctx.sizes.bulk_links, world_seed).scaled(ctx.sizes.bulk_scale);
    let (ds, generate_s) = timed("synth.generate", || sdea_synth::generate(&profile));
    layer.insert("synth.generate_s", fixture.generate_s + generate_s);
    layer.insert("core.fixture_train_s", fixture.train_s);
    let encoder_path = ctx.scratch.join("encoder.sdqe");
    let world_dir = ctx.scratch.join("world");
    let (saved, persist_s) = timed("io.persist", || {
        sdea_core::encoder_io::save_encoder(&fixture.encoder, &encoder_path)?;
        save_world(&ds, &world_dir)
    });
    saved.map_err(|e| format!("cannot save the inputs: {e}"))?;
    layer.insert("io.persist_s", persist_s);
    drop((fixture, ds));

    let mut load_times = Vec::new();
    let (state, setup_s) = repeat_setup(|| {
        let (loaded, load_s) = timed("io.load", || -> std::io::Result<_> {
            Ok((sdea_core::encoder_io::load_encoder(&encoder_path)?, load_world(&world_dir)?))
        });
        load_times.push(load_s);
        let (encoder, world) = loaded.map_err(|e| format!("cannot load the inputs: {e}"))?;
        let mut rng = Rng::seed_from_u64(world_seed);
        let seq1 = timed("core.sequence_kg1", || AttrSequencer::new(&world.kg1, &mut rng)).0;
        let seq2 = timed("core.sequence_kg2", || AttrSequencer::new(&world.kg2, &mut rng)).0;
        Ok(State { encoder, world, seq1, seq2 })
    })?;
    layer.insert("io.load_s", median(&load_times));

    let mut kept = None;
    let untraced = run_phase(false, || bulk_phase(ctx, &state, &mut kept));
    let mut extra = Outcome::default();
    let kept = kept.ok_or("no embedding pass completed")?;
    check_rows(ctx.seed, &state.encoder, &kept, &mut extra);
    let traced = if ctx.trace {
        let traced = run_phase(true, || bulk_phase(ctx, &state, &mut None));
        let mut rows = kept.cache1.clone();
        rows.extend(kept.cache2.iter().cloned());
        let (p50, pad) = phase::text_stats(&rows, state.encoder.config().max_seq);
        layer.insert("text.tokens_p50", p50);
        layer.insert("text.pad_frac", pad);
        phase::probes(&state.encoder, state.seq1.sequences(), &kept.e2, &mut layer);
        Some(traced)
    } else {
        None
    };
    Ok(Report { setup_s, untraced, traced, layer, extra })
}

/// Times of one matching pass: the whole pass, then `rank`, `metrics` and
/// stable matching, in seconds.
struct MatchTimes {
    pass: f64,
    rank: f64,
    metrics: f64,
    stable: f64,
}

/// Ranks every link, scores the ranking and runs Gale–Shapley.
fn match_pass(
    sources: &Tensor,
    targets: &Tensor,
    gold: &[usize],
) -> (AlignmentMetrics, MatchTimes) {
    let ((m, rank, metrics, stable), pass) = timed("bench.match_pass", || {
        let (result, rank) =
            timed("core.align_rank", || AlignmentResult::rank(sources, targets, gold.to_vec()));
        let (m, metrics) = timed("core.align_metrics", || result.metrics());
        let stable = timed("core.stable_matching", || result.stable_matching_hits1()).1;
        (m, rank, metrics, stable)
    });
    (m, MatchTimes { pass, rank, metrics, stable })
}

fn bulk_phase(ctx: &Ctx, state: &State, kept: &mut Option<Kept>) -> Outcome {
    let mut out = Outcome::default();
    let rows = (state.world.kg1.num_entities() + state.world.kg2.num_entities()) as f64;
    let src: Vec<usize> = state.world.seeds.pairs.iter().map(|p| p.0 .0 as usize).collect();
    let gold: Vec<usize> = state.world.seeds.pairs.iter().map(|p| p.1 .0 as usize).collect();

    let (mut job_ms, mut rates, mut tokenize_s, mut matches) = (vec![], vec![], vec![], vec![]);
    let (mut hashes, mut quality) = (vec![], vec![]);
    sdea_obs::mem::reset_peak();
    for _ in 0..JOBS {
        out.attempted += 1;
        let ((tables, tok, embed_s, m, times), job_s) = timed("bench.align_job", || {
            let ((tables, tok), embed_s) = timed("bench.embed_pass", || {
                let mut rng = Rng::seed_from_u64(0);
                let ((cache1, cache2), tok) = timed("core.token_cache", || {
                    (
                        state.encoder.token_cache(state.seq1.sequences()),
                        state.encoder.token_cache(state.seq2.sequences()),
                    )
                });
                let e1 = timed("core.embed_all", || state.encoder.embed_all(&cache1, &mut rng)).0;
                let e2 = timed("core.embed_all", || state.encoder.embed_all(&cache2, &mut rng)).0;
                (Kept { cache1, cache2, e1, e2 }, tok)
            });
            let (m, times) = match_pass(&tables.e1.gather_rows(&src), &tables.e2, &gold);
            (tables, tok, embed_s, m, times)
        });
        job_ms.push(job_s * 1e3);
        rates.push(rows / embed_s);
        tokenize_s.push(tok);
        hashes.push(hash_tensors(&[&tables.e1, &tables.e2]));
        quality.push(m);
        matches.push(times);
        *kept = Some(tables);
    }
    let embed_peak = sdea_obs::mem::peak_bytes();
    let Some(tables) = kept.as_ref() else { return out };

    // More matching passes on the last tables, for the matching layers'
    // own statistics.
    sdea_obs::mem::reset_peak();
    let sources = tables.e1.gather_rows(&src);
    let extra = ((ctx.seconds * MATCH_PASSES_PER_SECOND).round() as usize).saturating_sub(JOBS);
    for _ in 0..extra {
        out.attempted += 1;
        let (m, times) = match_pass(&sources, &tables.e2, &gold);
        quality.push(m);
        matches.push(times);
    }
    let match_peak = sdea_obs::mem::peak_bytes();

    let differ = hashes.iter().filter(|&&h| h != hashes[0]).count();
    out.check(
        format!("align-bulk: every pass embeds identical tables ({differ} differ)"),
        differ == 0,
    );
    let m = quality[0];
    let differ = quality.iter().filter(|&&q| q != m).count();
    out.check(
        format!("align-bulk: every matching pass scores the same ({differ} differ)"),
        differ == 0,
    );
    out.check(format!("align-bulk: Hits@1 {:.3} >= {MIN_HITS1}", m.hits1), m.hits1 >= MIN_HITS1);
    let peak_mb = embed_peak.max(match_peak) as f64 / 1e6;
    out.e2e.insert("p50_ms", median(&job_ms));
    out.e2e.insert("tail_ms", tail(&job_ms));
    out.e2e.insert("rows_per_s", median(&rates));
    out.e2e.insert("peak_heap_mb", peak_mb);
    out.primary_s = median(&job_ms) / 1e3;
    let of = |f: fn(&MatchTimes) -> f64| median(&matches.iter().map(f).collect::<Vec<_>>());
    out.layer.insert("core.match_pass_ms", of(|t| t.pass) * 1e3);
    out.layer.insert("core.align_rank_s", of(|t| t.rank));
    out.layer.insert("core.align_metrics_s", of(|t| t.metrics));
    out.layer.insert("core.stable_matching_s", of(|t| t.stable));
    out.layer.insert("quality.hits1", m.hits1);
    out.layer.insert("quality.mrr", m.mrr);
    out.layer.insert("text.tokenize_s", median(&tokenize_s));
    out.layer.insert("mem.embed_peak_mb", embed_peak as f64 / 1e6);
    out.layer.insert("mem.match_peak_mb", match_peak as f64 / 1e6);
    out.layer.insert("mem.peak_mb", peak_mb);
    out
}

/// Sampled rows of the bulk tables must equal a one-row
/// `embed_token_rows` of the same tokens, bit for bit.
fn check_rows(seed: u64, encoder: &AttrModule, kept: &Kept, out: &mut Outcome) {
    let mut rng = SplitMix64::new(seed, 22);
    let mut differ = 0;
    for i in 0..CHECKED_ROWS {
        let (cache, table) =
            if i % 2 == 0 { (&kept.cache1, &kept.e1) } else { (&kept.cache2, &kept.e2) };
        let r = rng.below(cache.len());
        let one = encoder.embed_token_rows(std::slice::from_ref(&cache[r]));
        let same = one.data().iter().zip(table.row(r)).all(|(a, b)| a.to_bits() == b.to_bits());
        differ += usize::from(!same);
    }
    out.check(
        format!(
            "align-bulk: {CHECKED_ROWS} bulk rows equal one-row embeds bitwise ({differ} differ)"
        ),
        differ == 0,
    );
}
