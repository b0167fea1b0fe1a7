//! `train`: what `sdea align <dir>` does, end to end. Each job trains the
//! full pipeline on a ZH-EN world read from disk, ranks the test links and
//! computes Hits@1/MRR. Encoder forward and backward, Adam, the tape pool
//! and the fork-join runtime do nearly all of the work; retrieval,
//! evaluation and serving do almost none.
//!
//! A run trains two worlds drawn from the seed, so its quality figures
//! average two test sets.

use crate::inputs::{corpus, load_world, save_world, World};
use crate::metrics::Outcome;
use crate::phase::{self, hash_tensors, repeat_setup, run_phase, Ctx};
use crate::stats::{derive_seed, median, tail};
use crate::trace::timed;
use crate::Report;
use sdea_core::{AttrSequencer, SdeaConfig, SdeaModel, SdeaPipeline};
use sdea_kg::SplitSeeds;
use sdea_synth::DatasetProfile;
use sdea_tensor::Rng;
use std::collections::BTreeMap;

/// Chance is about 1/180 and the worst seed probed reached 0.26; this
/// floor only catches a broken pipeline.
const MIN_HITS1: f64 = 0.1;

struct Job {
    seed: u64,
    world: World,
    split: SplitSeeds,
    corpus: Vec<String>,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut layer = BTreeMap::new();
    let seeds = [derive_seed(ctx.seed, 0), derive_seed(ctx.seed, 1)];
    let (mut generate_s, mut persist_s) = (0.0, 0.0);
    for (w, &seed) in seeds.iter().enumerate() {
        let profile = DatasetProfile::dbp15k_zh_en(ctx.sizes.train_links, seed);
        let (ds, g) = timed("synth.generate", || sdea_synth::generate(&profile));
        let dir = ctx.scratch.join(format!("world{w}"));
        let (saved, p) = timed("io.persist", || save_world(&ds, &dir));
        saved.map_err(|e| format!("cannot write world {w}: {e}"))?;
        generate_s += g;
        persist_s += p;
    }
    layer.insert("synth.generate_s", generate_s);
    layer.insert("io.persist_s", persist_s);

    let mut load_times = Vec::new();
    let (jobs, setup_s) = repeat_setup(|| {
        let mut load_s = 0.0;
        let jobs = seeds
            .iter()
            .enumerate()
            .map(|(w, &seed)| {
                let (world, s) =
                    timed("io.load_world", || load_world(&ctx.scratch.join(format!("world{w}"))));
                load_s += s;
                let world = world.map_err(|e| format!("cannot load world {w}: {e}"))?;
                let split = world.seeds.split_paper(&mut Rng::seed_from_u64(seed));
                let corpus = corpus(&world.kg1, &world.kg2);
                Ok(Job { seed, world, split, corpus })
            })
            .collect::<Result<Vec<Job>, String>>();
        load_times.push(load_s);
        jobs
    })?;
    layer.insert("io.load_s", median(&load_times));

    let mut plain = None;
    let untraced = run_phase(false, || jobs_phase(ctx, &jobs, &mut plain));
    let mut extra = Outcome::default();
    let traced = if ctx.trace {
        let mut kept = None;
        let traced = run_phase(true, || jobs_phase(ctx, &jobs, &mut kept));
        let tables = |m: &Option<SdeaModel>| m.as_ref().map(|m| hash_tensors(&[&m.ent1, &m.ent2]));
        extra.check(
            "train: tables trained with sdea_obs on equal those trained with it off",
            tables(&kept).is_some() && tables(&kept) == tables(&plain),
        );
        if let Some(model) = kept.as_ref() {
            token_layers(model, &jobs[0], &mut layer)?;
        }
        Some(traced)
    } else {
        None
    };
    Ok(Report { setup_s, untraced, traced, layer, extra })
}

/// Trains one job per world, back to back. A fixed job count (rather than
/// jobs until the phase length passes) keeps the statistics the same on a
/// fast and a slow machine; two jobs take about 15-20 s.
/// World 0's model is left in `kept`.
fn jobs_phase(ctx: &Ctx, jobs: &[Job], kept: &mut Option<SdeaModel>) -> Outcome {
    let (a, r) = ctx.sizes.train_epochs;
    let mut out = Outcome::default();
    let (mut job_ms, mut rows_per_s, mut rank_s, mut metrics_s) = (vec![], vec![], vec![], vec![]);
    let (mut hits1, mut mrr) = (vec![], vec![]);
    for (w, job) in jobs.iter().enumerate() {
        out.attempted += 1;
        let cfg =
            SdeaConfig { seed: job.seed, attr_epochs: a, rel_epochs: r, ..SdeaConfig::default() };
        let (result, secs) = timed("bench.train_job", || -> std::io::Result<_> {
            let pipeline = SdeaPipeline {
                kg1: &job.world.kg1,
                kg2: &job.world.kg2,
                split: &job.split,
                corpus: &job.corpus,
                cfg,
                variant: sdea_core::rel_module::RelVariant::Full,
            };
            let model = timed("core.pipeline_try_run", || pipeline.try_run()).0?;
            let (ranked, rs) = timed("core.align_test", || model.align_test(&job.split.test));
            let (m, ms) = timed("core.align_metrics", || ranked.metrics());
            Ok((model, m, rs, ms))
        });
        let (model, m, rs, ms) = match result {
            Ok(done) => done,
            Err(e) => {
                out.failed += 1;
                out.check(format!("train: world {w} failed to train: {e}"), false);
                continue;
            }
        };
        job_ms.push(secs * 1e3);
        let rows = job.world.kg1.num_entities() + job.world.kg2.num_entities();
        rows_per_s.push(rows as f64 / secs);
        rank_s.push(rs);
        metrics_s.push(ms);
        hits1.push(m.hits1);
        mrr.push(m.mrr);
        if w == 0 {
            *kept = Some(model);
        }
    }
    if job_ms.is_empty() {
        return out;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let hits1 = mean(&hits1);
    out.check(format!("train: Hits@1 {hits1:.3} >= {MIN_HITS1}"), hits1 >= MIN_HITS1);
    out.layer.insert("quality.hits1", hits1);
    out.layer.insert("quality.mrr", mean(&mrr));
    out.e2e.insert("p50_ms", median(&job_ms));
    out.e2e.insert("tail_ms", tail(&job_ms));
    out.e2e.insert("rows_per_s", median(&rows_per_s));
    out.primary_s = median(&job_ms) / 1e3;
    out.layer.insert("core.align_rank_s", median(&rank_s));
    out.layer.insert("core.align_metrics_s", median(&metrics_s));
    out
}

/// Tokenization cost and shape of world 0's entity rows under the trained
/// encoder, plus the single-call probes.
fn token_layers(
    model: &SdeaModel,
    job: &Job,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let encoder = model.attr_module.as_ref().ok_or("the trained model has no encoder")?;
    let mut rng = Rng::seed_from_u64(job.seed);
    let seq1 = AttrSequencer::new(&job.world.kg1, &mut rng);
    let seq2 = AttrSequencer::new(&job.world.kg2, &mut rng);
    let (rows, tokenize_s) = timed("text.token_cache", || {
        let mut rows = encoder.token_cache(seq1.sequences());
        rows.extend(encoder.token_cache(seq2.sequences()));
        rows
    });
    let (p50, pad) = phase::text_stats(&rows, encoder.config().max_seq);
    layer.insert("text.tokenize_s", tokenize_s);
    layer.insert("text.tokens_p50", p50);
    layer.insert("text.pad_frac", pad);
    phase::probes(encoder, seq1.sequences(), &model.h_a2, layer);
    Ok(())
}
