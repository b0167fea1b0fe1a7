//! Algorithm 3 — model training with pre-trained attribute embeddings.
//!
//! The attribute embeddings `H_a` are frozen (the paper separates the two
//! stages for GPU-memory reasons; the separation is part of the method).
//! The relation module and the joint MLP train with the margin ranking
//! loss computed on `[H_r; H_m]`, candidates generated **once** up front
//! from `H_a` (Algorithm 3 line 1), early stopping on validation Hits@1.

use crate::candidates::CandidateSet;
use crate::checkpoint::{self, Checkpointer};
use crate::config::{SdeaConfig, VALID_BLOCK_ROWS};
use crate::joint::JointHead;
use crate::loss::margin_ranking_loss;
use crate::rel_module::{NeighborBatch, RelModule, RelVariant};
use sdea_eval::evaluate_blocked;
use sdea_kg::{EntityId, KnowledgeGraph};
use sdea_tensor::{Adam, GradClip, Graph, Optimizer, ParamStore, Rng, Tensor};

/// Progress record of the relation-stage training.
#[derive(Clone, Debug, Default)]
pub struct RelFitReport {
    /// Mean margin loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation Hits@1 (on full `H_ent`) per epoch.
    pub valid_hits1: Vec<f64>,
    /// Best epoch restored.
    pub best_epoch: usize,
}

/// The trained relation stage: module + joint head + their weights.
pub struct RelStage {
    /// Relation module (BiGRU + attention).
    pub rel: RelModule,
    /// Joint MLP head.
    pub joint: JointHead,
    /// Weights of both.
    pub store: ParamStore,
    /// Neighbour lists per entity for KG1/KG2 (attr-table row indices).
    pub neigh1: Vec<Vec<usize>>,
    /// Neighbour lists for KG2.
    pub neigh2: Vec<Vec<usize>>,
}

/// Builds capped neighbour lists for every entity. Entities without
/// neighbours fall back to themselves (their own attribute embedding),
/// so `H_r` degrades gracefully to attribute information.
pub fn neighbor_lists(kg: &KnowledgeGraph, cap: usize) -> Vec<Vec<usize>> {
    kg.entities()
        .map(|e| {
            let mut l: Vec<usize> = kg.neighbors(e).iter().map(|&(n, _, _)| n.0 as usize).collect();
            l.truncate(cap);
            if l.is_empty() {
                l.push(e.0 as usize);
            }
            l
        })
        .collect()
}

impl RelStage {
    /// Registers the relation module and joint head.
    pub fn new(
        cfg: &SdeaConfig,
        variant: RelVariant,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
        rng: &mut Rng,
    ) -> Self {
        let mut store = ParamStore::new();
        let rel = RelModule::new(cfg.embed_dim, variant, &mut store, rng);
        let joint = JointHead::new(cfg.embed_dim, &mut store, rng);
        RelStage {
            rel,
            joint,
            store,
            neigh1: neighbor_lists(kg1, cfg.max_neighbors),
            neigh2: neighbor_lists(kg2, cfg.max_neighbors),
        }
    }

    /// Computes the full `H_ent` for the given entities of one side.
    /// `h_a` is the side's complete attribute embedding table.
    pub fn full_embeddings(&self, h_a: &Tensor, side1: bool, ids: &[EntityId]) -> Tensor {
        let neigh = if side1 { &self.neigh1 } else { &self.neigh2 };
        let d3 = 3 * h_a.shape()[1];
        let mut out = Tensor::zeros(&[ids.len(), d3]);
        let batch_size = 256usize;
        let mut start = 0usize;
        while start < ids.len() {
            let end = (start + batch_size).min(ids.len());
            let lists: Vec<Vec<usize>> =
                ids[start..end].iter().map(|e| neigh[e.0 as usize].clone()).collect();
            let rows: Vec<usize> = ids[start..end].iter().map(|e| e.0 as usize).collect();
            let g = Graph::new();
            let table = g.constant(h_a.clone());
            let nb = NeighborBatch::from_lists(&lists);
            let h_r = self.rel.forward(&g, &self.store, table, &nb);
            let h_a_batch = g.constant(h_a.gather_rows(&rows));
            let full = self.joint.full_embedding(&g, &self.store, h_a_batch, h_r);
            let v = g.value(full);
            out.data_mut()[start * d3..end * d3].copy_from_slice(v.data());
            start = end;
        }
        out
    }

    /// Algorithm 3: trains the relation module + joint head.
    ///
    /// Early stopping tracks validation Hits@1 when `valid` is non-empty.
    /// With **no validation pairs** the best epoch is chosen by training
    /// loss instead — previously an empty `valid` made `validate` return a
    /// constant 0.0, so the epoch-0 snapshot stayed "best" forever and all
    /// training after the first epoch was silently thrown away. The
    /// `rel.no_validation` warning counter records that the fallback ran.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        &mut self,
        cfg: &SdeaConfig,
        h_a1: &Tensor,
        h_a2: &Tensor,
        train: &[(EntityId, EntityId)],
        valid: &[(EntityId, EntityId)],
        rng: &mut Rng,
    ) -> RelFitReport {
        self.fit_resumable(cfg, h_a1, h_a2, train, valid, rng, None)
    }

    /// [`RelStage::fit`] with checkpoint/resume support. With a
    /// [`Checkpointer`], the loop restores the latest intact relation-stage
    /// [`crate::checkpoint::StageState`] (weights, Adam moments, RNG
    /// stream, early-stopping bookkeeping) and continues from its epoch —
    /// bit-identically to the uninterrupted run — and writes a new state
    /// every `checkpoint_every` epochs. Candidates are regenerated, not
    /// checkpointed: they derive deterministically from the frozen `H_a`
    /// tables. Checkpoint write failures are reported and training
    /// continues.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_resumable(
        &mut self,
        cfg: &SdeaConfig,
        h_a1: &Tensor,
        h_a2: &Tensor,
        train: &[(EntityId, EntityId)],
        valid: &[(EntityId, EntityId)],
        rng: &mut Rng,
        mut ckpt: Option<&mut Checkpointer>,
    ) -> RelFitReport {
        let _span = sdea_obs::span("rel.fit");
        let has_valid = !valid.is_empty();
        if !has_valid {
            sdea_obs::add("rel.no_validation", 1);
        }
        let mut opt = Adam::new(cfg.rel_lr).with_clip(GradClip::GlobalNorm(2.0));
        let mut report = RelFitReport::default();
        // Line 1: candidates once, from the pre-trained attribute
        // embeddings.
        let sources: Vec<EntityId> = train.iter().map(|&(e, _)| e).collect();
        let src_rows: Vec<usize> = sources.iter().map(|e| e.0 as usize).collect();
        let cands = {
            let _span = sdea_obs::span("candidates");
            CandidateSet::generate(&sources, &h_a1.gather_rows(&src_rows), h_a2, cfg.n_candidates)
        };
        let n_targets = h_a2.shape()[0];

        let mut best_hits = -1.0f64;
        let mut best_loss = f64::INFINITY;
        let mut best_snapshot = self.store.snapshot();
        let mut strikes = 0usize;
        let mut start_epoch = 0usize;
        let resume = ckpt.as_mut().and_then(|c| c.latest_stage_state(checkpoint::Stage::Rel));
        if let Some(st) = resume {
            match self.store.restore_from_named(&st.store) {
                Ok(()) => {
                    opt.set_state(st.adam_t, st.adam_m, st.adam_v);
                    *rng = Rng::from_state(st.rng);
                    best_hits = st.best_hits;
                    best_loss = st.best_loss;
                    best_snapshot = st.best_snapshot;
                    strikes = st.strikes as usize;
                    report.epoch_losses = st.epoch_losses;
                    report.valid_hits1 = st.valid_hits1;
                    report.best_epoch = st.best_epoch as usize;
                    start_epoch = st.next_epoch as usize;
                    sdea_obs::add("ckpt.stage_resumes", 1);
                }
                Err(e) => {
                    eprintln!(
                        "rel checkpoint incompatible with rebuilt model ({e}); starting fresh"
                    )
                }
            }
        }
        // One pool across all batches of the run: tape buffers freed by one
        // step's backward feed the next step's forward.
        let pool = sdea_tensor::BufferPool::new();
        for epoch in start_epoch..cfg.rel_epochs {
            let _span = sdea_obs::span("epoch");
            let mut order: Vec<usize> = (0..train.len()).collect();
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            let mut steps = 0usize;
            for chunk in order.chunks(cfg.rel_batch) {
                let anchors: Vec<EntityId> = chunk.iter().map(|&i| train[i].0).collect();
                let pos: Vec<EntityId> = chunk.iter().map(|&i| train[i].1).collect();
                let neg: Vec<EntityId> = chunk
                    .iter()
                    .map(|&i| cands.sample_negative(train[i].0, train[i].1, n_targets, rng))
                    .collect();
                let g = Graph::with_pool(std::rc::Rc::clone(&pool));
                let t1 = g.constant(h_a1.clone());
                let t2 = g.constant(h_a2.clone());
                let emb = |g: &Graph,
                           table: sdea_tensor::Var,
                           h_a: &Tensor,
                           neigh: &[Vec<usize>],
                           ids: &[EntityId]| {
                    let lists: Vec<Vec<usize>> =
                        ids.iter().map(|e| neigh[e.0 as usize].clone()).collect();
                    let nb = NeighborBatch::from_lists(&lists);
                    let h_r = self.rel.forward(g, &self.store, table, &nb);
                    let rows: Vec<usize> = ids.iter().map(|e| e.0 as usize).collect();
                    let h_a_batch = g.constant(h_a.gather_rows(&rows));
                    // Loss embedding: [H_r; H_m] (Algorithm 3 line 9)
                    self.joint.train_embedding(g, &self.store, h_a_batch, h_r)
                };
                let ea = emb(&g, t1, h_a1, &self.neigh1, &anchors);
                let ep = emb(&g, t2, h_a2, &self.neigh2, &pos);
                let en = emb(&g, t2, h_a2, &self.neigh2, &neg);
                let loss = margin_ranking_loss(&g, ea, ep, en, cfg.margin);
                let lv = g.value_cloned(loss).item();
                g.backward(loss);
                g.accumulate_param_grads(&mut self.store);
                opt.step(&mut self.store);
                epoch_loss += lv as f64;
                steps += 1;
                sdea_obs::add("rel.steps", 1);
                sdea_obs::record("rel.batch_loss", lv as f64);
            }
            let mean_loss = epoch_loss / steps.max(1) as f64;
            report.epoch_losses.push(mean_loss as f32);
            sdea_obs::add("rel.epochs", 1);

            // Line 12: validation on the full embedding. Without validation
            // pairs, fall back to best-epoch-by-training-loss so early
            // stopping never discards trained weights.
            let hits1 = if has_valid {
                let _span = sdea_obs::span("validate");
                self.validate(h_a1, h_a2, valid)
            } else {
                0.0
            };
            report.valid_hits1.push(hits1);
            let improved = if has_valid { hits1 > best_hits } else { mean_loss < best_loss };
            let mut stop = false;
            if improved {
                best_hits = hits1;
                best_loss = mean_loss;
                best_snapshot = self.store.snapshot();
                report.best_epoch = epoch;
                strikes = 0;
            } else {
                strikes += 1;
                if strikes >= cfg.patience {
                    sdea_obs::add("rel.early_stops", 1);
                    stop = true;
                }
            }
            if let Some(c) = ckpt.as_mut() {
                if c.due(epoch) && !stop {
                    let (t, m, v) = opt.state();
                    let state = checkpoint::StageState {
                        next_epoch: (epoch + 1) as u32,
                        rng: rng.state(),
                        store: self.store.clone(),
                        adam_t: t,
                        adam_m: m.to_vec(),
                        adam_v: v.to_vec(),
                        best_snapshot: best_snapshot.clone(),
                        best_hits,
                        best_loss,
                        strikes: strikes as u32,
                        epoch_losses: report.epoch_losses.clone(),
                        valid_hits1: report.valid_hits1.clone(),
                        best_epoch: report.best_epoch as u32,
                    };
                    if let Err(e) = c.record_stage_epoch(checkpoint::Stage::Rel, &state) {
                        eprintln!("rel checkpoint at epoch {epoch} failed: {e}; continuing");
                    }
                }
            }
            if stop {
                break;
            }
        }
        self.store.restore(&best_snapshot);
        report
    }

    /// Validation Hits@1 on the full `H_ent`, ranked in blocks of
    /// [`VALID_BLOCK_ROWS`] query rows.
    pub fn validate(&self, h_a1: &Tensor, h_a2: &Tensor, valid: &[(EntityId, EntityId)]) -> f64 {
        if valid.is_empty() {
            return 0.0;
        }
        let sources: Vec<EntityId> = valid.iter().map(|&(e, _)| e).collect();
        let all_targets: Vec<EntityId> = (0..h_a2.shape()[0] as u32).map(EntityId).collect();
        let src = self.full_embeddings(h_a1, true, &sources);
        let tgt = self.full_embeddings(h_a2, false, &all_targets);
        let gold: Vec<usize> = valid.iter().map(|&(_, e)| e.0 as usize).collect();
        evaluate_blocked(&src, &tgt, &gold, VALID_BLOCK_ROWS).hits1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_kg::KgBuilder;

    /// Builds twin star-shaped KGs whose attribute embeddings are synthetic
    /// and already informative; checks the relation stage trains.
    fn twin_kgs(n: usize) -> (KnowledgeGraph, KnowledgeGraph) {
        let mk = |tag: &str| {
            let mut b = KgBuilder::new();
            for i in 0..n {
                // ring so everyone has neighbours
                b.rel_triple(&format!("{tag}{i}"), "r", &format!("{tag}{}", (i + 1) % n));
            }
            b.build()
        };
        (mk("a"), mk("b"))
    }

    fn synthetic_h_a(n: usize, d: usize, noise: f32, seed: u64) -> (Tensor, Tensor) {
        let mut rng = Rng::seed_from_u64(seed);
        let base = Tensor::rand_normal(&[n, d], 1.0, &mut rng);
        let n1 = Tensor::rand_normal(&[n, d], noise, &mut rng);
        let n2 = Tensor::rand_normal(&[n, d], noise, &mut rng);
        (base.add(&n1), base.add(&n2))
    }

    #[test]
    fn rel_stage_end_to_end_improves_or_holds() {
        let n = 40;
        let (kg1, kg2) = twin_kgs(n);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.embed_dim = 16;
        cfg.rel_epochs = 8;
        let (h1, h2) = synthetic_h_a(n, 16, 0.4, 3);
        let mut rng = Rng::seed_from_u64(4);
        let mut stage = RelStage::new(&cfg, RelVariant::Full, &kg1, &kg2, &mut rng);
        let pairs: Vec<(EntityId, EntityId)> =
            (0..n as u32).map(|i| (EntityId(i), EntityId(i))).collect();
        let train = &pairs[..24];
        let valid = &pairs[24..];
        let before = stage.validate(&h1, &h2, valid);
        let report = stage.fit(&cfg, &h1, &h2, train, valid, &mut rng);
        let after = stage.validate(&h1, &h2, valid);
        assert!(after >= before * 0.9, "rel stage regressed: {before} -> {after}");
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    /// Regression: with an empty validation set, `fit` used to see a
    /// constant 0.0 from `validate`, mark epoch 0 as "best" forever, and
    /// restore the epoch-0 snapshot after `patience` strikes — silently
    /// discarding all training. The fix falls back to best-epoch-by-
    /// training-loss; this asserts the trained weights are kept.
    #[test]
    fn empty_validation_keeps_trained_weights() {
        let n = 40;
        let (kg1, kg2) = twin_kgs(n);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.embed_dim = 16;
        cfg.rel_epochs = 8;
        cfg.patience = 2;
        // Noisy twins + a wide margin keep the hinge active from epoch 0
        // (with easy data the loss is already 0.0 and no epoch improves).
        cfg.margin = 2.0;
        let (h1, h2) = synthetic_h_a(n, 16, 1.0, 3);
        let pairs: Vec<(EntityId, EntityId)> =
            (0..n as u32).map(|i| (EntityId(i), EntityId(i))).collect();

        // Reference run truncated after one epoch: its final weights are
        // exactly the epoch-0 snapshot the buggy code used to restore
        // (training is deterministic given the same seed and config).
        let mut cfg_one = cfg.clone();
        cfg_one.rel_epochs = 1;
        let mut rng_a = Rng::seed_from_u64(4);
        let mut stage_a = RelStage::new(&cfg_one, RelVariant::Full, &kg1, &kg2, &mut rng_a);
        stage_a.fit(&cfg_one, &h1, &h2, &pairs, &[], &mut rng_a);
        let epoch0_weights = stage_a.store.snapshot();

        let before = sdea_obs::snapshot().counters.get("rel.no_validation").copied().unwrap_or(0);
        let mut rng_b = Rng::seed_from_u64(4);
        let mut stage_b = RelStage::new(&cfg, RelVariant::Full, &kg1, &kg2, &mut rng_b);
        let report = stage_b.fit(&cfg, &h1, &h2, &pairs, &[], &mut rng_b);

        // Training loss decreased past epoch 0 and a later epoch won.
        assert!(report.best_epoch > 0, "best epoch stuck at 0: {report:?}");
        let first = report.epoch_losses[0];
        let best = report.epoch_losses[report.best_epoch];
        assert!(best < first, "training loss did not decrease: {report:?}");
        // The restored weights differ from the epoch-0 snapshot.
        let final_weights = stage_b.store.snapshot();
        assert_eq!(final_weights.len(), epoch0_weights.len());
        assert!(
            final_weights.iter().zip(&epoch0_weights).any(|(a, b)| a != b),
            "fit with empty validation restored the epoch-0 snapshot"
        );
        // The fallback was surfaced, not silent.
        if sdea_obs::enabled() {
            let after =
                sdea_obs::snapshot().counters.get("rel.no_validation").copied().unwrap_or(0);
            assert!(after > before, "rel.no_validation warning counter not incremented");
        }
    }

    #[test]
    fn neighbor_lists_fall_back_to_self() {
        let mut b = KgBuilder::new();
        b.entity("lonely");
        b.rel_triple("x", "r", "y");
        let kg = b.build();
        let lists = neighbor_lists(&kg, 5);
        let lonely = kg.find_entity("lonely").unwrap();
        assert_eq!(lists[lonely.0 as usize], vec![lonely.0 as usize]);
    }

    #[test]
    fn neighbor_lists_are_capped() {
        let mut b = KgBuilder::new();
        for i in 0..20 {
            b.rel_triple("hub", "r", &format!("leaf{i}"));
        }
        let kg = b.build();
        let lists = neighbor_lists(&kg, 4);
        let hub = kg.find_entity("hub").unwrap();
        assert_eq!(lists[hub.0 as usize].len(), 4);
    }

    #[test]
    fn full_embeddings_shape() {
        let (kg1, kg2) = twin_kgs(10);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.embed_dim = 8;
        let (h1, _h2) = synthetic_h_a(10, 8, 0.1, 5);
        let mut rng = Rng::seed_from_u64(6);
        let stage = RelStage::new(&cfg, RelVariant::Full, &kg1, &kg2, &mut rng);
        let ids: Vec<EntityId> = (0..10u32).map(EntityId).collect();
        let emb = stage.full_embeddings(&h1, true, &ids);
        assert_eq!(emb.shape(), &[10, 24]);
        assert!(emb.all_finite());
    }
}
