//! Shared experiment machinery for the table binaries.

use sdea_baselines::bert_int::BertInt;
use sdea_baselines::cea::Cea;
use sdea_baselines::gnn::{GatAligner, Gcn, GcnAlign, Hman};
use sdea_baselines::name_gcn::NameGcn;
use sdea_baselines::rsn::Rsn4Ea;
use sdea_baselines::transe::{BootEa, IpTransE, Jape, JapeStru, MTransE, Naea, TransEdge};
use sdea_baselines::{AlignmentMethod, MethodInput};
use sdea_core::rel_module::RelVariant;
use sdea_core::{SdeaConfig, SdeaModel, SdeaPipeline};
use sdea_eval::AlignmentMetrics;
use sdea_kg::SplitSeeds;
use sdea_synth::{generate, DatasetProfile, GeneratedDataset};
use sdea_tensor::Rng;
use std::time::Instant;

/// Dataset sizing for a bench run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BenchScale {
    /// 300 links — minutes for a whole table on one core.
    Quick,
    /// 1 500 links (1/10 of the paper's 15K sets) — the reproduction scale.
    Full,
}

impl BenchScale {
    /// Links for a 15K-class dataset at this scale.
    pub fn links_15k(self) -> usize {
        match self {
            BenchScale::Quick => 300,
            BenchScale::Full => 1500,
        }
    }

    /// Links for the 100K-class dataset at this scale.
    pub fn links_100k(self) -> usize {
        match self {
            BenchScale::Quick => 1000,
            BenchScale::Full => 10_000,
        }
    }
}

/// Reads `SDEA_SCALE` (`quick`/`full`; default `quick`; anything else is a
/// hard startup error — `SDEA_SCALE=ful` used to silently run quick).
pub fn bench_scale() -> BenchScale {
    match sdea_obs::env::enum_or_exit("SDEA_SCALE", &["quick", "full"]) {
        Some("full") => BenchScale::Full,
        _ => BenchScale::Quick,
    }
}

/// Reads `SDEA_SEED` (default 2022, the paper's year; malformed values are
/// a hard startup error).
pub fn bench_seed() -> u64 {
    sdea_obs::env::parse_or_exit::<u64>("SDEA_SEED", "an unsigned integer seed").unwrap_or(2022)
}

/// A generated dataset together with its split and corpus — everything a
/// method needs.
pub struct DatasetBundle {
    /// The generated dataset.
    pub ds: GeneratedDataset,
    /// 2:1:7 split of the seeds.
    pub split: SplitSeeds,
    /// Unlabeled pre-training corpus.
    pub corpus: Vec<String>,
}

/// Generates a dataset bundle from a profile (split seeded from the
/// profile's seed so every method sees identical data).
pub fn load_dataset(profile: &DatasetProfile) -> DatasetBundle {
    let ds = generate(profile);
    let mut split_rng = Rng::seed_from_u64(profile.seed ^ 0x5EED);
    let split = ds.seeds.split_paper(&mut split_rng);
    let corpus = sdea_synth::corpus::dataset_corpus(&ds);
    DatasetBundle { ds, split, corpus }
}

/// What a method run produced.
#[derive(Clone, Debug)]
pub struct MethodOutcome {
    /// Greedy-ranking metrics on the test pairs.
    pub metrics: AlignmentMetrics,
    /// Hits@1 after stable matching, when computed.
    pub stable_hits1: Option<f64>,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs full SDEA (optionally a rel-module ablation variant) on a bundle.
/// Returns the outcome plus the trained model (for ablation reuse).
///
/// The observability registry is reset first, so a [`write_sdea_run_report`]
/// right after captures spans/counters of exactly this run.
pub fn run_sdea(
    bundle: &DatasetBundle,
    cfg: &SdeaConfig,
    variant: RelVariant,
) -> (MethodOutcome, SdeaModel) {
    sdea_obs::reset();
    let start = Instant::now();
    let pipeline = SdeaPipeline {
        kg1: bundle.ds.kg1(),
        kg2: bundle.ds.kg2(),
        split: &bundle.split,
        corpus: &bundle.corpus,
        cfg: cfg.clone(),
        variant,
    };
    let model = pipeline.run();
    let result = model.align_test(&bundle.split.test);
    let outcome = MethodOutcome {
        metrics: result.metrics(),
        stable_hits1: Some(result.stable_matching_hits1()),
        seconds: start.elapsed().as_secs_f64(),
    };
    (outcome, model)
}

/// Directory run reports are written to: `SDEA_REPORT_DIR`, default
/// `results` (relative to the working directory, which the experiment
/// scripts pin to the repo root).
pub fn report_dir() -> std::path::PathBuf {
    sdea_obs::env::string_or_exit("SDEA_REPORT_DIR").unwrap_or_else(|| "results".into()).into()
}

/// Assembles and writes the JSON run report of one SDEA run: config, seed,
/// thread budget, final metrics, per-epoch loss / validation-Hits@1 curves
/// of both training stages, and the observability registry's span timings
/// and counters (reset at the start of [`run_sdea`]). Returns the path
/// written, `results/run_report_<run>_<dataset>.json`.
pub fn write_sdea_run_report(
    run: &str,
    dataset: &str,
    cfg: &SdeaConfig,
    outcome: &MethodOutcome,
    model: &SdeaModel,
) -> std::io::Result<std::path::PathBuf> {
    let mut report =
        sdea_obs::RunReport::new(format!("{run}_{dataset}"), cfg.seed, sdea_tensor::max_threads());
    report.config_kv("dataset", dataset);
    report.config_kv("scale", format!("{:?}", bench_scale()));
    report.config_kv("embed_dim", cfg.embed_dim);
    report.config_kv("lm_hidden", cfg.lm_hidden);
    report.config_kv("lm_layers", cfg.lm_layers);
    report.config_kv("vocab_budget", cfg.vocab_budget);
    report.config_kv("max_seq", cfg.max_seq);
    report.config_kv("mlm_epochs", cfg.mlm_epochs);
    report.config_kv("attr_epochs", cfg.attr_epochs);
    report.config_kv("attr_batch", cfg.attr_batch);
    report.config_kv("attr_lr", cfg.attr_lr);
    report.config_kv("rel_epochs", cfg.rel_epochs);
    report.config_kv("rel_batch", cfg.rel_batch);
    report.config_kv("rel_lr", cfg.rel_lr);
    report.config_kv("margin", cfg.margin);
    report.config_kv("n_candidates", cfg.n_candidates);
    report.config_kv("patience", cfg.patience);
    report.config_kv("max_neighbors", cfg.max_neighbors);
    report.config_kv("pooling", format!("{:?}", cfg.pooling));
    report.metric("test_hits1", outcome.metrics.hits1);
    report.metric("test_hits10", outcome.metrics.hits10);
    report.metric("test_mrr", outcome.metrics.mrr);
    if let Some(h) = outcome.stable_hits1 {
        report.metric("stable_matching_hits1", h);
    }
    report.metric("wall_secs", outcome.seconds);
    report.metric("attr_best_epoch", model.attr_report.best_epoch as f64);
    report.metric("rel_best_epoch", model.rel_report.best_epoch as f64);
    report.curve("attr_loss", model.attr_report.epoch_losses.iter().map(|&l| l as f64));
    report.curve("attr_valid_hits1", model.attr_report.valid_hits1.iter().copied());
    report.curve("rel_loss", model.rel_report.epoch_losses.iter().map(|&l| l as f64));
    report.curve("rel_valid_hits1", model.rel_report.valid_hits1.iter().copied());
    report.write_to_dir(report_dir())
}

/// Runs a baseline method on a bundle (with stable-matching Hits@1 when
/// `with_matching` is set — only CEA's paper row uses it).
pub fn run_baseline(
    method: &dyn AlignmentMethod,
    bundle: &DatasetBundle,
    seed: u64,
    with_matching: bool,
) -> MethodOutcome {
    let start = Instant::now();
    let input = MethodInput {
        kg1: bundle.ds.kg1(),
        kg2: bundle.ds.kg2(),
        split: &bundle.split,
        corpus: &bundle.corpus,
        seed,
    };
    let result = method.align(&input);
    MethodOutcome {
        metrics: result.metrics(),
        stable_hits1: with_matching.then(|| result.stable_matching_hits1()),
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The full baseline suite in the paper's table order (excluding SDEA).
/// The boolean marks methods whose "CEA"-style row needs stable matching.
pub fn baseline_suite() -> Vec<Box<dyn AlignmentMethod>> {
    vec![
        Box::new(MTransE::default()),
        Box::new(JapeStru::default()),
        Box::new(Jape::default()),
        Box::new(Naea::default()),
        Box::new(BootEa::default()),
        Box::new(TransEdge::default()),
        Box::new(IpTransE::default()),
        Box::new(Rsn4Ea::default()),
        Box::new(Gcn::default()),
        Box::new(GcnAlign::default()),
        Box::new(GatAligner::mugnn()),
        Box::new(GatAligner::kecg()),
        Box::new(Hman::default()),
        Box::new(NameGcn::rdgcn()),
        Box::new(NameGcn::hgcn()),
        Box::new(Cea::default()),
        Box::new(BertInt::default()),
    ]
}

/// Runs one full paper-style table: every baseline + CEA's stable-matching
/// row + SDEA + SDEA w/o rel, on each dataset profile. Prints progress to
/// stderr and returns the formatted table plus a paper-vs-measured digest.
pub fn run_full_table(
    title: &str,
    profiles: &[DatasetProfile],
    paper_table: &[crate::paper::PaperRow],
) -> String {
    use sdea_eval::report::{format_table, TableRow};
    let seed = bench_seed();
    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    let bundles: Vec<DatasetBundle> = profiles
        .iter()
        .map(|p| {
            eprintln!("[{}] generating {} ...", title, p.name);
            load_dataset(p)
        })
        .collect();

    let mut rows: Vec<TableRow> = Vec::new();
    let methods = baseline_suite();
    let mut cea_matching_cells: Vec<Option<AlignmentMetrics>> = Vec::new();
    for method in &methods {
        let mut cells = Vec::with_capacity(bundles.len());
        let is_cea = method.name() == "CEA (Emb)";
        let mut matching_cells = Vec::with_capacity(bundles.len());
        for (bundle, name) in bundles.iter().zip(&names) {
            eprintln!("[{}] {} on {} ...", title, method.name(), name);
            let out = run_baseline(method.as_ref(), bundle, seed, is_cea);
            eprintln!("[{}]   H@1 {:.1} ({:.0}s)", title, out.metrics.hits1 * 100.0, out.seconds);
            if is_cea {
                matching_cells.push(out.stable_hits1.map(|h| AlignmentMetrics {
                    hits1: h,
                    hits10: f64::NAN,
                    mrr: f64::NAN,
                }));
            }
            cells.push(out.metrics);
        }
        rows.push(TableRow::full(method.name(), cells));
        if is_cea {
            cea_matching_cells = matching_cells;
        }
        if method.name() == "CEA (Emb)" {
            // paper's "CEA" row: stable matching, H@1 only
            rows.push(TableRow { method: "CEA".into(), cells: cea_matching_cells.clone() });
        }
    }

    // SDEA + ablation
    let cfg = bench_sdea_config(seed);
    let mut sdea_cells = Vec::new();
    let mut ablation_cells = Vec::new();
    for (bundle, name) in bundles.iter().zip(&names) {
        eprintln!("[{}] SDEA on {} ...", title, name);
        let (out, model) = run_sdea(bundle, &cfg, RelVariant::Full);
        eprintln!("[{}]   H@1 {:.1} ({:.0}s)", title, out.metrics.hits1 * 100.0, out.seconds);
        match write_sdea_run_report(title, name, &cfg, &out, &model) {
            Ok(path) => eprintln!("[{}]   run report -> {}", title, path.display()),
            Err(e) => eprintln!("[{}]   run report failed: {e}", title),
        }
        sdea_cells.push(out.metrics);
        ablation_cells.push(model.align_test_attr_only(&bundle.split.test).metrics());
    }
    rows.push(TableRow::full("SDEA", sdea_cells.clone()));
    rows.push(TableRow::full("SDEA w/o rel.", ablation_cells.clone()));

    let mut out = format_table(title, &names, &rows);
    out.push_str("\n--- paper vs measured (Hits@1 %) ---\n");
    for row in &rows {
        for (col, cell) in row.cells.iter().enumerate() {
            if let (Some(m), Some(p)) =
                (cell, crate::paper::paper_h1(paper_table, &row.method, col))
            {
                out.push_str(&format!(
                    "{:<14} {:<12} paper {:5.1}  measured {:5.1}\n",
                    row.method,
                    names[col],
                    p,
                    m.hits1 * 100.0
                ));
            }
        }
    }
    out
}

/// The default bench configuration for SDEA at a given seed.
///
/// Individual knobs can be overridden through `SDEA_*` environment
/// variables (used by the calibration tool):
/// `SDEA_MLM_EPOCHS`, `SDEA_ATTR_EPOCHS`, `SDEA_MAX_SEQ`, `SDEA_HIDDEN`,
/// `SDEA_ATTR_LR`, `SDEA_MARGIN`, `SDEA_VOCAB` (`SDEA_THREADS` is handled
/// by the par layer itself, capped at the machine's cores).
/// `SDEA_CHECKPOINT_DIR` enables crash-safe checkpointing into the given
/// directory (a rerun with the same configuration resumes from it,
/// bit-identically); `SDEA_CKPT_EVERY` sets the mid-stage cadence.
pub fn bench_sdea_config(seed: u64) -> SdeaConfig {
    let mut cfg = SdeaConfig { seed, ..SdeaConfig::default() };
    // Strict parses: a typo'd override (`SDEA_ATTR_EPOCHS=1O`) used to be
    // silently dropped, running the default config under the wrong label.
    let getu = |k: &str| sdea_obs::env::parse_or_exit::<usize>(k, "an unsigned integer");
    let getf = |k: &str| sdea_obs::env::parse_or_exit::<f32>(k, "a floating-point number");
    if let Some(v) = getu("SDEA_MLM_EPOCHS") {
        cfg.mlm_epochs = v;
    }
    // SDEA_THREADS is deliberately NOT copied into cfg.threads: the par
    // layer already resolves it (capped at the machine's cores), while
    // cfg.threads is a literal programmatic override that would bypass
    // the cap and oversubscribe small containers.
    if let Some(v) = getu("SDEA_ATTR_EPOCHS") {
        cfg.attr_epochs = v;
    }
    if let Some(v) = getu("SDEA_MAX_SEQ") {
        cfg.max_seq = v;
    }
    if let Some(v) = getu("SDEA_HIDDEN") {
        cfg.lm_hidden = v;
        cfg.embed_dim = v;
    }
    if let Some(v) = getu("SDEA_VOCAB") {
        cfg.vocab_budget = v;
    }
    if let Some(v) = getf("SDEA_ATTR_LR") {
        cfg.attr_lr = v;
    }
    if let Some(v) = getf("SDEA_MARGIN") {
        cfg.margin = v;
    }
    if let Some(dir) = sdea_obs::env::string_or_exit("SDEA_CHECKPOINT_DIR") {
        cfg.checkpoint_dir = Some(dir.into());
    }
    if let Some(v) = getu("SDEA_CKPT_EVERY") {
        cfg.checkpoint_every = v;
    }
    cfg
}
