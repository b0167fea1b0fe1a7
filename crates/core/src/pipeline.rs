//! End-to-end SDEA pipeline: tokenizer + LM pre-training, Algorithm 2,
//! Algorithm 3, final alignment — the whole of the paper's Fig. 3 behind
//! one call.

use crate::align::AlignmentResult;
use crate::attr_module::{AttrFitReport, AttrModule};
use crate::attr_seq::AttrSequencer;
use crate::checkpoint::{config_fingerprint, Checkpointer};
use crate::config::SdeaConfig;
use crate::rel_module::RelVariant;
use crate::trainer::{RelFitReport, RelStage};
use sdea_eval::AlignmentMetrics;
use sdea_kg::{EntityId, KnowledgeGraph, SplitSeeds};
use sdea_tensor::{Rng, Tensor};

/// Everything the pipeline needs as input.
pub struct SdeaPipeline<'a> {
    /// First knowledge graph (source side).
    pub kg1: &'a KnowledgeGraph,
    /// Second knowledge graph (target side).
    pub kg2: &'a KnowledgeGraph,
    /// Seed alignment split (2:1:7 in the paper).
    pub split: &'a SplitSeeds,
    /// Unlabeled pre-training corpus (typically
    /// [`sdea_synth::corpus::dataset_corpus`], or any text).
    pub corpus: &'a [String],
    /// Hyper-parameters.
    pub cfg: SdeaConfig,
    /// Relation-module variant (for ablations; `Full` = the paper).
    pub variant: RelVariant,
}

/// A trained SDEA model with cached embeddings.
pub struct SdeaModel {
    /// Attribute embeddings of every KG1 entity.
    pub h_a1: Tensor,
    /// Attribute embeddings of every KG2 entity.
    pub h_a2: Tensor,
    /// Full `H_ent` table for KG1.
    pub ent1: Tensor,
    /// Full `H_ent` table for KG2.
    pub ent2: Tensor,
    /// Attribute-stage training report.
    pub attr_report: AttrFitReport,
    /// Relation-stage training report.
    pub rel_report: RelFitReport,
    /// The trained relation stage (for attention introspection). Absent on
    /// models loaded from disk.
    pub rel_stage: Option<crate::trainer::RelStage>,
    /// The trained attribute encoder (for query-time serving; persist with
    /// [`crate::encoder_io::save_encoder`]). Absent on models loaded from
    /// disk and on runs resumed past the attribute stage (the stage
    /// boundary artifact carries only the embedding tables).
    pub attr_module: Option<crate::attr_module::AttrModule>,
}

impl SdeaModel {
    /// Ranks targets for the given test pairs using the full embeddings
    /// (SDEA row of the paper's tables).
    pub fn align_test(&self, test: &[(EntityId, EntityId)]) -> AlignmentResult {
        let rows: Vec<usize> = test.iter().map(|&(e, _)| e.0 as usize).collect();
        let gold: Vec<usize> = test.iter().map(|&(_, e)| e.0 as usize).collect();
        AlignmentResult::rank(&self.ent1.gather_rows(&rows), &self.ent2, gold)
    }

    /// Ranks using only the attribute embeddings (the paper's
    /// "SDEA w/o rel." ablation row).
    pub fn align_test_attr_only(&self, test: &[(EntityId, EntityId)]) -> AlignmentResult {
        let rows: Vec<usize> = test.iter().map(|&(e, _)| e.0 as usize).collect();
        let gold: Vec<usize> = test.iter().map(|&(_, e)| e.0 as usize).collect();
        AlignmentResult::rank(&self.h_a1.gather_rows(&rows), &self.h_a2, gold)
    }

    /// Convenience: metrics of the full model on test pairs.
    pub fn test_metrics(&self, test: &[(EntityId, EntityId)]) -> AlignmentMetrics {
        self.align_test(test).metrics()
    }
}

impl<'a> SdeaPipeline<'a> {
    /// Runs the full pipeline. Deterministic given `cfg.seed`.
    ///
    /// Panics on checkpoint-directory errors; use [`SdeaPipeline::try_run`]
    /// to handle them (the only fallible part — a run without
    /// `cfg.checkpoint_dir` cannot fail).
    pub fn run(&self) -> SdeaModel {
        self.try_execute(None).expect("SDEA pipeline failed")
    }

    /// Semi-supervised variant (extension): after the attribute stage,
    /// augments the training seeds with mutual-nearest entity pairs whose
    /// `H_a` cosine exceeds `threshold` (BootEA-style bootstrapping applied
    /// to SDEA), then trains the relation stage on the augmented set.
    pub fn run_bootstrapped(&self, threshold: f32) -> SdeaModel {
        self.try_execute(Some(threshold)).expect("SDEA pipeline failed")
    }

    /// [`SdeaPipeline::run`], surfacing checkpoint-directory errors (an
    /// unwritable directory, or a manifest written under a different
    /// configuration) instead of panicking.
    pub fn try_run(&self) -> std::io::Result<SdeaModel> {
        self.try_execute(None)
    }

    /// [`SdeaPipeline::run_bootstrapped`], surfacing checkpoint errors.
    pub fn try_run_bootstrapped(&self, threshold: f32) -> std::io::Result<SdeaModel> {
        self.try_execute(Some(threshold))
    }

    fn try_execute(&self, bootstrap_threshold: Option<f32>) -> std::io::Result<SdeaModel> {
        // The budget is process-wide; 0 keeps whatever SDEA_THREADS or the
        // hardware dictates. Observability is likewise process-wide: the
        // config can only force it off (the default `true` defers to the
        // `SDEA_OBS` environment variable).
        if self.cfg.threads != 0 {
            sdea_tensor::set_thread_budget(self.cfg.threads);
        }
        if !self.cfg.obs {
            sdea_obs::set_enabled(false);
        }
        let _span = sdea_obs::span("pipeline");
        let mut rng = Rng::seed_from_u64(self.cfg.seed);
        let mut seq_rng = rng.split();
        let mut build_rng = rng.split();
        let mut fit_rng = rng.split();
        let mut rel_rng = rng.split();

        // Crash-safe checkpointing (see `crate::checkpoint`). The stream
        // splits above stay unconditional: a resumed run re-derives every
        // stream from the seed, then overwrites the consuming stream from
        // the checkpoint, so skipped stages never shift later ones.
        let fingerprint = config_fingerprint(
            &self.cfg,
            self.variant,
            (self.kg1.num_entities(), self.kg2.num_entities()),
            (self.split.train.len(), self.split.valid.len()),
            bootstrap_threshold,
        );
        let mut ckpt = match &self.cfg.checkpoint_dir {
            Some(dir) => Some(Checkpointer::open(dir, fingerprint, self.cfg.checkpoint_every)?),
            None => None,
        };

        // Algorithms 1 + 2. A checkpointed attribute-stage boundary
        // artifact carries both `H_a` tables exactly (f32 bits round-trip),
        // so resume skips sequencing, the tokenizer/LM build, fine-tuning
        // and embedding outright — everything downstream only consumes the
        // tables, never `seq_rng`/`build_rng`/`fit_rng`.
        let done = ckpt.as_mut().and_then(|c| c.attr_done());
        let (attr_report, h_a1, h_a2, attr_module) = match done {
            Some((h_a1, h_a2, attr_report)) => (attr_report, h_a1, h_a2, None),
            None => {
                let (seq1, seq2) = {
                    let _span = sdea_obs::span("sequencing");
                    (
                        AttrSequencer::new(self.kg1, &mut seq_rng),
                        AttrSequencer::new(self.kg2, &mut seq_rng),
                    )
                };
                let _span = sdea_obs::span("attr_stage");
                let mut attr = AttrModule::build(&self.cfg, self.corpus, &mut build_rng);
                let cache1 = attr.token_cache(seq1.sequences());
                let cache2 = attr.token_cache(seq2.sequences());
                let (attr_report, best_h_a2) = attr.fit_resumable(
                    &cache1,
                    &cache2,
                    &self.split.train,
                    &self.split.valid,
                    &mut fit_rng,
                    ckpt.as_mut(),
                );
                let h_a1 = attr.embed_all(&cache1, &mut fit_rng);
                // Validation already embedded KG2 at the restored weights,
                // unless the run resumed past them or has no valid split.
                let h_a2 = match best_h_a2 {
                    Some(t) => t,
                    None => attr.embed_all(&cache2, &mut fit_rng),
                };
                if let Some(c) = ckpt.as_mut() {
                    if let Err(e) = c.record_attr_done(&h_a1, &h_a2, &attr_report) {
                        eprintln!("warning: attribute-stage checkpoint failed ({e}); continuing");
                        sdea_obs::add("ckpt.write_failures", 1);
                    }
                }
                (attr_report, h_a1, h_a2, Some(attr))
            }
        };

        // Optional bootstrapping: confident mutual-nearest pairs under the
        // attribute embeddings become extra (noisy) training seeds. The
        // augmented list is checkpointed so a resumed relation stage trains
        // on the identical pair sequence.
        let saved_pairs = ckpt.as_mut().and_then(|c| c.train_pairs());
        let train = match saved_pairs {
            Some(pairs) => pairs,
            None => {
                let mut train = self.split.train.clone();
                if let Some(threshold) = bootstrap_threshold {
                    let _span = sdea_obs::span("bootstrap");
                    let known1: std::collections::HashSet<EntityId> =
                        self.split.train.iter().map(|&(a, _)| a).collect();
                    let known2: std::collections::HashSet<EntityId> =
                        self.split.train.iter().map(|&(_, b)| b).collect();
                    for (a, b) in crate::bootstrap::mutual_nearest_pairs_with(
                        &h_a1,
                        &h_a2,
                        threshold,
                        &self.cfg.index,
                    ) {
                        if !known1.contains(&a) && !known2.contains(&b) {
                            train.push((a, b));
                        }
                    }
                    sdea_obs::add(
                        "pipeline.bootstrap_pairs",
                        (train.len() - self.split.train.len()) as u64,
                    );
                }
                if let Some(c) = ckpt.as_mut() {
                    if let Err(e) = c.record_train_pairs(&train) {
                        eprintln!("warning: training-pair checkpoint failed ({e}); continuing");
                        sdea_obs::add("ckpt.write_failures", 1);
                    }
                }
                train
            }
        };

        // Algorithm 3. The stage is always rebuilt (deterministic given
        // `rel_rng`); a mid-stage checkpoint then restores weights, Adam
        // moments and the stream state inside `fit_resumable`.
        let (stage, rel_report) = {
            let _span = sdea_obs::span("rel_stage");
            let mut stage =
                RelStage::new(&self.cfg, self.variant, self.kg1, self.kg2, &mut rel_rng);
            let rel_report = stage.fit_resumable(
                &self.cfg,
                &h_a1,
                &h_a2,
                &train,
                &self.split.valid,
                &mut rel_rng,
                ckpt.as_mut(),
            );
            (stage, rel_report)
        };

        // Final embedding tables.
        let (ent1, ent2) = {
            let _span = sdea_obs::span("final_embed");
            let ids1: Vec<EntityId> = (0..self.kg1.num_entities() as u32).map(EntityId).collect();
            let ids2: Vec<EntityId> = (0..self.kg2.num_entities() as u32).map(EntityId).collect();
            (stage.full_embeddings(&h_a1, true, &ids1), stage.full_embeddings(&h_a2, false, &ids2))
        };

        Ok(SdeaModel {
            h_a1,
            h_a2,
            ent1,
            ent2,
            attr_report,
            rel_report,
            rel_stage: Some(stage),
            attr_module,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_synth::{generate, DatasetProfile};

    /// Full end-to-end smoke test on a miniature DBP15K-style dataset.
    /// This is the system's most important invariant: the pipeline must
    /// beat random ranking by a wide margin.
    #[test]
    fn end_to_end_beats_random() {
        let ds = generate(&DatasetProfile::dbp15k_fr_en(80, 42));
        let mut split_rng = Rng::seed_from_u64(1);
        let split = ds.seeds.split_paper(&mut split_rng);
        let corpus = sdea_synth::corpus::dataset_corpus(&ds);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.attr_epochs = 5;
        cfg.rel_epochs = 6;
        let pipeline = SdeaPipeline {
            kg1: ds.kg1(),
            kg2: ds.kg2(),
            split: &split,
            corpus: &corpus,
            cfg,
            variant: RelVariant::Full,
        };
        let model = pipeline.run();
        let metrics = model.test_metrics(&split.test);
        let random_h1 = 1.0 / ds.kg2().num_entities() as f64;
        // The test config is deliberately tiny (1 MLM epoch, 32-dim model,
        // 16 train pairs); at bench scale SDEA reaches far higher — here we
        // only require a decisive margin over chance.
        assert!(
            metrics.hits1 > 8.0 * random_h1,
            "SDEA H@1 {:.3} not better than random {:.5}",
            metrics.hits1,
            random_h1
        );
        assert!(metrics.mrr > 0.05, "MRR {:.3}", metrics.mrr);
        // ablation path also works
        let attr_only = model.align_test_attr_only(&split.test).metrics();
        assert!(attr_only.hits1 >= 0.0 && attr_only.hits10 <= 1.0);
    }

    /// A run resumed from an existing checkpoint directory (attribute stage
    /// complete, relation stage mid-flight) reproduces the uncheckpointed
    /// run bit-for-bit — the resume determinism contract at the pipeline
    /// level. The kill-based variant lives in `tests/checkpoint_resume.rs`.
    #[test]
    fn resumed_run_is_bit_identical() {
        let ds = generate(&DatasetProfile::dbp15k_fr_en(40, 9));
        let mut split_rng = Rng::seed_from_u64(1);
        let split = ds.seeds.split_paper(&mut split_rng);
        let corpus = sdea_synth::corpus::dataset_corpus(&ds);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.attr_epochs = 2;
        cfg.rel_epochs = 4;
        let pipeline = |cfg: SdeaConfig| SdeaPipeline {
            kg1: ds.kg1(),
            kg2: ds.kg2(),
            split: &split,
            corpus: &corpus,
            cfg,
            variant: RelVariant::Full,
        };
        let clean = pipeline(cfg.clone()).run();

        let dir = std::env::temp_dir().join(format!("sdea_pipe_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cfg.checkpoint_dir = Some(dir.clone());
        let first = pipeline(cfg.clone()).try_run().unwrap();
        assert_eq!(first.ent1, clean.ent1, "checkpoint writes must not change results");

        // Drop the newest rel checkpoint so the resumed run actually has
        // epochs left to replay, then resume: attr stage is skipped via the
        // boundary artifact, rel stage restores the fallback checkpoint.
        let mut rel_ckpts: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().into_string().unwrap())
            .filter(|n| n.starts_with("rel_ep"))
            .collect();
        rel_ckpts.sort();
        assert!(rel_ckpts.len() >= 2, "expected two retained rel checkpoints: {rel_ckpts:?}");
        std::fs::remove_file(dir.join(rel_ckpts.last().unwrap())).unwrap();
        let resumed = pipeline(cfg).try_run().unwrap();
        assert_eq!(resumed.ent1, clean.ent1);
        assert_eq!(resumed.ent2, clean.ent2);
        assert_eq!(resumed.h_a1, clean.h_a1);
        assert_eq!(resumed.attr_report.epoch_losses, clean.attr_report.epoch_losses);
        assert_eq!(resumed.rel_report.epoch_losses, clean.rel_report.epoch_losses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins every trained output bit by literal: an FNV-1a hash over the
    /// f32 bits of `h_a1`, `h_a2`, `ent1` and `ent2` plus both reports'
    /// epoch losses and validation Hits@1. Dropout is on and training
    /// batches are 2 rows, most of them shorter than `max_seq`, so a change
    /// that shortens a training-mode tensor (and so shifts the dropout
    /// stream) moves the hash; `max_seq` truncates some rows and not
    /// others, so eval batches mix full-length and short rows.
    #[test]
    fn pipeline_outputs_are_pinned() {
        let ds = generate(&DatasetProfile::dbp15k_fr_en(40, 13));
        let mut split_rng = Rng::seed_from_u64(1);
        let split = ds.seeds.split_paper(&mut split_rng);
        assert!(!split.valid.is_empty());
        let corpus = sdea_synth::corpus::dataset_corpus(&ds);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.dropout = 0.1;
        cfg.max_seq = 48;
        cfg.attr_batch = 2;
        cfg.attr_epochs = 2;
        cfg.rel_epochs = 2;

        // Preconditions: some sequences are cut at `max_seq`, some are not.
        let tok = sdea_text::Tokenizer::new(
            sdea_text::WordPieceTrainer::new(cfg.vocab_budget)
                .train(corpus.iter().map(|s| s.as_str())),
        );
        let lens: Vec<usize> = AttrSequencer::new(ds.kg1(), &mut Rng::seed_from_u64(0))
            .sequences()
            .iter()
            .map(|s| tok.text_to_ids(s).len() + 1)
            .collect();
        assert!(lens.iter().any(|&l| l > cfg.max_seq), "no row is truncated");
        assert!(lens.iter().any(|&l| l < cfg.max_seq), "every row is truncated");

        let model = sdea_tensor::with_thread_budget(1, || {
            SdeaPipeline {
                kg1: ds.kg1(),
                kg2: ds.kg2(),
                split: &split,
                corpus: &corpus,
                cfg,
                variant: RelVariant::Full,
            }
            .run()
        });
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for t in [&model.h_a1, &model.h_a2, &model.ent1, &model.ent2] {
            t.data().iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        }
        for losses in [&model.attr_report.epoch_losses, &model.rel_report.epoch_losses] {
            losses.iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        }
        for hits in [&model.attr_report.valid_hits1, &model.rel_report.valid_hits1] {
            hits.iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        }
        assert_eq!(h, 0xb61b_b854_dbaf_90f5, "trained outputs moved: {h:#018x}");
    }
}
