//! The attribute embedding module (paper Section III-A and Algorithm 2).
//!
//! `H_a(e) = MLP(BERT("[CLS]" || S(e)))` — Eq. 5–7 — where the transformer
//! is our pre-trained [`sdea_lm::TransformerLm`]. [`AttrModule::fit`]
//! implements Algorithm 2: per epoch, embed all entities, regenerate the
//! nearest-neighbour candidate set, then fine-tune the transformer + MLP
//! end-to-end with the margin ranking loss (Eq. 18), early-stopping on
//! validation Hits@1.

use crate::candidates::CandidateSet;
use crate::checkpoint::{self, Checkpointer};
use crate::config::{Pooling, SdeaConfig, VALID_BLOCK_ROWS};
use crate::loss::margin_ranking_loss;
use sdea_eval::evaluate_blocked;
use sdea_kg::EntityId;
use sdea_lm::{MlmPretrainer, TokenBatch, TransformerLm};
use sdea_tensor::{
    init, Adam, CsrMatrix, GradClip, Graph, Optimizer, ParamId, ParamStore, Rng, Tensor, Var,
};
use sdea_text::{Tokenizer, WordPieceTrainer};
use std::sync::Arc;

/// Progress record of one fine-tuning run.
#[derive(Clone, Debug, Default)]
pub struct AttrFitReport {
    /// Mean margin loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation Hits@1 per epoch.
    pub valid_hits1: Vec<f64>,
    /// Epoch whose checkpoint was restored.
    pub best_epoch: usize,
}

/// The attribute embedding module: tokenizer + pre-trained transformer +
/// projection MLP.
pub struct AttrModule {
    /// All trainable weights (LM + head).
    pub store: ParamStore,
    lm: TransformerLm,
    tokenizer: Tokenizer,
    mlp_w: ParamId,
    mlp_b: ParamId,
    /// Per-token-id inverse document frequency over the build corpus
    /// (used by [`crate::config::Pooling::IdfMean`]).
    idf: Vec<f32>,
    cfg: SdeaConfig,
}

impl AttrModule {
    /// Builds the module: trains a WordPiece vocabulary on `corpus`,
    /// pre-trains the transformer with masked-LM (the paper's "pre-trained
    /// BERT"), and attaches the `hidden -> embed_dim` projection.
    pub fn build(cfg: &SdeaConfig, corpus: &[String], rng: &mut Rng) -> Self {
        let _span = sdea_obs::span("attr.build");
        let vocab =
            WordPieceTrainer::new(cfg.vocab_budget).train(corpus.iter().map(|s| s.as_str()));
        let tokenizer = Tokenizer::new(vocab);
        let mut store = ParamStore::new();
        let lm = TransformerLm::new(cfg.lm_config(tokenizer.vocab().len()), &mut store, rng);

        // --- masked-LM pre-training ---
        // Token/position embeddings stay frozen during MLM: with a tiny
        // model, distributional training would collapse the identity of
        // anchor tokens (all years become alike), destroying the lexical
        // signal entity alignment depends on. The encoder blocks still
        // learn contextual processing. (A 110M-parameter BERT does not
        // have this problem; see DESIGN.md.)
        if cfg.mlm_epochs > 0 && !corpus.is_empty() {
            store.set_trainable(lm.token_embedding_id(), false);
            store.set_trainable(lm.position_embedding_id(), false);
            let mut order: Vec<usize> = (0..corpus.len()).collect();
            rng.shuffle(&mut order);
            order.truncate(cfg.mlm_corpus_cap);
            let rows: Vec<(Vec<u32>, Vec<u8>)> = order
                .iter()
                .map(|&i| {
                    let e = tokenizer.encode(&corpus[i], cfg.max_seq);
                    (e.ids, e.mask)
                })
                .collect();
            let pre = MlmPretrainer::new(&lm, &mut store, rng);
            pre.pretrain(
                &lm,
                &mut store,
                &rows,
                tokenizer.vocab(),
                cfg.mlm_epochs,
                cfg.mlm_batch,
                cfg.mlm_lr,
                rng,
            );
            store.set_trainable(lm.token_embedding_id(), true);
            store.set_trainable(lm.position_embedding_id(), true);
        }

        let mlp_w =
            store.add("attr.mlp.w", init::xavier_uniform(&[cfg.lm_hidden, cfg.embed_dim], rng));
        let mlp_b = store.add("attr.mlp.b", Tensor::zeros(&[cfg.embed_dim]));

        // IDF over the corpus for weighted pooling.
        let v = tokenizer.vocab().len();
        let mut df = vec![0.0f32; v];
        let mut n_docs = 0.0f32;
        for line in corpus {
            let ids = tokenizer.text_to_ids(line);
            let set: std::collections::BTreeSet<u32> = ids.into_iter().collect();
            for t in set {
                df[t as usize] += 1.0;
            }
            n_docs += 1.0;
        }
        let idf: Vec<f32> =
            df.iter().map(|&d| ((n_docs + 1.0) / (d + 1.0)).ln().max(0.05)).collect();
        AttrModule { store, lm, tokenizer, mlp_w, mlp_b, idf, cfg: cfg.clone() }
    }

    /// The trained tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Pre-tokenizes all entity attribute sequences of a KG.
    pub fn token_cache(&self, sequences: &[String]) -> Vec<Vec<u32>> {
        sequences.iter().map(|s| self.tokenizer.text_to_ids(s)).collect()
    }

    /// The module's configuration (persisted by [`crate::encoder_io`]).
    pub fn config(&self) -> &SdeaConfig {
        &self.cfg
    }

    /// The per-token-id IDF table (persisted by [`crate::encoder_io`]).
    pub fn idf(&self) -> &[f32] {
        &self.idf
    }

    // --- query-time entry points (online serving) ---------------------

    /// Tokenizes one free-text query — the cacheable half of
    /// [`AttrModule::embed_one`]. Serving layers keep these rows warm
    /// across requests instead of re-running the subword pass.
    pub fn tokenize_query(&self, text: &str) -> Vec<u32> {
        self.tokenizer.text_to_ids(text)
    }

    /// Embeds pre-tokenized query rows in eval mode: `H_a` as
    /// `[rows.len(), embed_dim]`. Each row's embedding is bitwise
    /// independent of the batch it rides in and of the length that batch
    /// pads to (see [`AttrModule::embed_rows`]), so a serving batcher may
    /// coalesce arbitrary concurrent queries and still return
    /// bitwise-identical vectors — pinned by the serve-layer determinism
    /// suite and the `sdea-core` batch-invariance property.
    pub fn embed_token_rows(&self, rows: &[Vec<u32>]) -> Tensor {
        let idx: Vec<usize> = (0..rows.len()).collect();
        // Eval-mode forwards draw no randomness; see `embed_rows`.
        let mut rng = Rng::seed_from_u64(0);
        self.embed_rows(rows, &idx, &mut rng)
    }

    /// Embeds a batch of free-text queries (tokenize + embed in one call).
    pub fn embed_batch(&self, texts: &[String]) -> Tensor {
        let rows: Vec<Vec<u32>> = texts.iter().map(|t| self.tokenize_query(t)).collect();
        self.embed_token_rows(&rows)
    }

    /// Embeds one free-text query: `H_a` as `[1, embed_dim]`.
    pub fn embed_one(&self, text: &str) -> Tensor {
        self.embed_token_rows(std::slice::from_ref(&self.tokenize_query(text)))
    }

    /// Rebuilds a module from persisted parts (see [`crate::encoder_io`]):
    /// re-registers the transformer + MLP parameters deterministically by
    /// name, then overwrites every tensor from `saved`. Fails (typed, no
    /// panic) when the saved store disagrees with the architecture `cfg`
    /// implies, or the IDF table does not cover the vocabulary.
    pub fn from_parts(
        cfg: SdeaConfig,
        tokenizer: Tokenizer,
        saved: &ParamStore,
        idf: Vec<f32>,
    ) -> Result<Self, String> {
        let vocab_len = tokenizer.vocab().len();
        cfg.lm_config(vocab_len).validate()?;
        if idf.len() != vocab_len {
            return Err(format!(
                "idf table has {} entries for a {vocab_len}-token vocabulary",
                idf.len()
            ));
        }
        let mut store = ParamStore::new();
        // Throwaway init: registration fixes names and shapes, then the
        // saved store overwrites every value by name.
        let mut init_rng = Rng::seed_from_u64(0);
        let lm = TransformerLm::new(cfg.lm_config(vocab_len), &mut store, &mut init_rng);
        let mlp_w = store.add(
            "attr.mlp.w",
            init::xavier_uniform(&[cfg.lm_hidden, cfg.embed_dim], &mut init_rng),
        );
        let mlp_b = store.add("attr.mlp.b", Tensor::zeros(&[cfg.embed_dim]));
        store.restore_from_named(saved)?;
        Ok(AttrModule { store, lm, tokenizer, mlp_w, mlp_b, idf, cfg })
    }

    /// Real positions of a token row in a forward: `[CLS]` plus the body,
    /// cut at `max_seq`.
    fn real_len(&self, body: &[u32]) -> usize {
        (body.len() + 1).min(self.cfg.max_seq)
    }

    /// Multiply-adds of one eval forward over `rows` rows padded to `s`
    /// positions: per layer and position, the four attention projections
    /// (`4·h²`), the feed-forward (`2·h·ffn`) and the attention scores and
    /// mix (`2·s·h`). The fan-out cost hint of [`AttrModule::embed_rows`].
    fn forward_macs(&self, rows: usize, s: usize) -> usize {
        let (h, ffn) = (self.cfg.lm_hidden, self.cfg.lm_ffn);
        rows * s * self.cfg.lm_layers * (4 * h * h + 2 * h * ffn + 2 * s * h)
    }

    /// Forward pass on a batch of token rows: returns `H_a` as `[b, d]`.
    ///
    /// An eval batch pads only to its longest row. That is exact: a padded
    /// key gets −1e9 and so a softmax weight of exactly 0, the tiled
    /// kernels sum in ascending k with no k-splitting (trailing zero terms
    /// change nothing), pooling reads only real positions, and positions
    /// are gathered by index. A training batch pads to `max_seq`: dropout
    /// draws one value per element, so a shorter tensor would shift the
    /// stream.
    fn embed_batch_var(
        &self,
        g: &Graph,
        cache: &[Vec<u32>],
        ids: &[EntityId],
        training: bool,
        rng: &mut Rng,
    ) -> Var {
        let s = if training {
            self.cfg.max_seq
        } else {
            ids.iter().map(|&e| self.real_len(&cache[e.0 as usize])).max().unwrap_or(1)
        };
        let rows: Vec<sdea_text::Encoded> =
            ids.iter().map(|&e| self.tokenizer.encode_ids(&cache[e.0 as usize], s)).collect();
        let batch = TokenBatch::from_encoded(&rows);
        let (embedded, final_hidden) =
            self.lm.forward_layers(g, &self.store, &batch, training, rng);
        // Layer mix: average of the embedding-layer states (identity
        // preserving) and the final contextual states. A deep pre-trained
        // BERT keeps token identity through its residual stream; a small
        // MLM-trained encoder does not, so we tap both ends explicitly.
        let hidden = g.scale(g.add(embedded, final_hidden), 0.5);
        let pooled = match self.cfg.pooling {
            Pooling::Cls => self.lm.cls_states(g, hidden, &batch),
            Pooling::Mean | Pooling::IdfMean => {
                // (Weighted) masked mean over token states via a constant
                // sparse averaging matrix [b, b*s].
                let (b, s) = (batch.b, batch.s);
                let idf_weight = |tok: u32| -> f32 {
                    if self.cfg.pooling == Pooling::IdfMean {
                        self.idf.get(tok as usize).copied().unwrap_or(1.0)
                    } else {
                        1.0
                    }
                };
                let mut triplets = Vec::with_capacity(b * s);
                for i in 0..b {
                    let mut total = 0.0f32;
                    for j in 0..s {
                        if batch.mask[i * s + j] == 1 && j > 0 {
                            total += idf_weight(batch.ids[i * s + j]);
                        }
                    }
                    if total <= 0.0 {
                        // only [CLS] present (empty attribute sequence)
                        triplets.push((i, i * s, 1.0));
                        continue;
                    }
                    for j in 1..s {
                        if batch.mask[i * s + j] == 1 {
                            let w = idf_weight(batch.ids[i * s + j]) / total;
                            triplets.push((i, i * s + j, w));
                        }
                    }
                }
                let avg = Arc::new(CsrMatrix::from_triplets(b, b * s, &triplets));
                g.spmm(avg, hidden)
            }
        };
        let w = g.param(&self.store, self.mlp_w);
        let b = g.param(&self.store, self.mlp_b);
        let out = g.add_bias(g.matmul(pooled, w), b);
        if self.cfg.normalize_embeddings {
            g.l2_normalize_rows(out)
        } else {
            out
        }
    }

    /// Embeds every entity (rows = entity ids) in eval mode; see
    /// [`AttrModule::embed_rows`].
    pub fn embed_all(&self, cache: &[Vec<u32>], rng: &mut Rng) -> Tensor {
        let rows: Vec<usize> = (0..cache.len()).collect();
        self.embed_rows(cache, &rows, rng)
    }

    /// Embeds only the given `cache` rows, in `rows` order, viewing the
    /// shared token cache by index instead of copying token rows into a
    /// temporary sub-cache (the per-epoch candidate regeneration in
    /// [`AttrModule::fit`] used to clone every source row each round).
    ///
    /// Rows are sorted longest first (ties by position) into 64-row
    /// batches, so rows of similar length share a batch and little of it
    /// is padding; the results are scattered back to `rows` order. Batches fan out
    /// across the thread budget, each worker building its own tape; a
    /// row's embedding does not depend on its batch, so the table is
    /// identical at any thread count and to one-row embeds.
    pub fn embed_rows(&self, cache: &[Vec<u32>], rows: &[usize], rng: &mut Rng) -> Tensor {
        let _span = sdea_obs::span("embed_all");
        // Eval-mode forwards draw no randomness (asserted by the
        // `embed_all_is_deterministic_in_eval` test), so the caller's RNG
        // is left untouched and each worker carries a private
        // deterministically-seeded RNG purely to satisfy the signature.
        let _ = rng;
        let d = self.cfg.embed_dim;
        let len = |i: usize| self.real_len(&cache[rows[i]]);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(len(i)), i));
        let batches: Vec<&[usize]> = order.chunks(64).collect();
        let macs: usize = batches.iter().map(|b| self.forward_macs(b.len(), len(b[0]))).sum();
        let per_batch = macs / batches.len().max(1);
        let parts = sdea_tensor::par_map_collect(batches.len(), per_batch, |bi| {
            let ids: Vec<EntityId> =
                batches[bi].iter().map(|&i| EntityId(rows[i] as u32)).collect();
            let mut batch_rng = Rng::seed_from_u64(0x5dea_0000 ^ bi as u64);
            let g = Graph::new();
            let v = self.embed_batch_var(&g, cache, &ids, false, &mut batch_rng);
            g.value_cloned(v)
        });
        let mut out = Tensor::zeros(&[rows.len(), d]);
        for (batch, t) in batches.iter().zip(&parts) {
            for (&i, row) in batch.iter().zip(t.data().chunks(d)) {
                out.data_mut()[i * d..(i + 1) * d].copy_from_slice(row);
            }
        }
        out
    }

    /// Algorithm 2: fine-tunes the module on seed alignments.
    ///
    /// `cache1`/`cache2` are the token caches of KG1/KG2 (row = entity id);
    /// `train`/`valid` are seed pairs `(e in KG1, e' in KG2)`.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        &mut self,
        cache1: &[Vec<u32>],
        cache2: &[Vec<u32>],
        train: &[(EntityId, EntityId)],
        valid: &[(EntityId, EntityId)],
        rng: &mut Rng,
    ) -> AttrFitReport {
        self.fit_resumable(cache1, cache2, train, valid, rng, None).0
    }

    /// [`AttrModule::fit`] with checkpoint/resume support. With a
    /// [`Checkpointer`], the loop restores the latest intact attribute-
    /// stage [`crate::checkpoint::StageState`] (weights, Adam moments, RNG
    /// stream, early-stopping bookkeeping) and continues from its epoch —
    /// bit-identically to the uninterrupted run — and writes a new state
    /// every `checkpoint_every` epochs. Checkpoint write failures are
    /// reported and training continues: a failed checkpoint never kills a
    /// healthy run.
    ///
    /// Each weight state's KG2 table is embedded once: the table validation
    /// embeds feeds the next epoch's candidate generation, and the restored
    /// best state's table comes back as the second value, bitwise what
    /// `embed_all(cache2)` would give. It is `None` when that table is not
    /// in memory: the best state predates a resume, or `valid` is empty
    /// and validation embedded nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_resumable(
        &mut self,
        cache1: &[Vec<u32>],
        cache2: &[Vec<u32>],
        train: &[(EntityId, EntityId)],
        valid: &[(EntityId, EntityId)],
        rng: &mut Rng,
        mut ckpt: Option<&mut Checkpointer>,
    ) -> (AttrFitReport, Option<Tensor>) {
        let _span = sdea_obs::span("attr.fit");
        let cfg = self.cfg.clone();
        let mut opt = Adam::new(cfg.attr_lr).with_clip(GradClip::GlobalNorm(1.0));
        let mut report = AttrFitReport::default();
        let mut best_hits;
        let mut best_snapshot;
        let mut strikes = 0usize;
        let mut start_epoch = 0usize;
        // KG2 tables of the current and of the best weights, when embedded.
        let mut table2: Option<Tensor> = None;
        let mut best_table2: Option<Tensor> = None;
        let resume = ckpt.as_mut().and_then(|c| c.latest_stage_state(checkpoint::Stage::Attr));
        match resume {
            Some(st) if self.store.restore_from_named(&st.store).is_ok() => {
                opt.set_state(st.adam_t, st.adam_m, st.adam_v);
                *rng = Rng::from_state(st.rng);
                best_hits = st.best_hits;
                best_snapshot = st.best_snapshot;
                strikes = st.strikes as usize;
                report.epoch_losses = st.epoch_losses;
                report.valid_hits1 = st.valid_hits1;
                report.best_epoch = st.best_epoch as usize;
                start_epoch = st.next_epoch as usize;
                sdea_obs::add("ckpt.stage_resumes", 1);
            }
            other => {
                if other.is_some() {
                    // Checksums passed but names/shapes disagree with the
                    // deterministically rebuilt model — should be ruled out
                    // by the config fingerprint; surface and start fresh.
                    eprintln!("attr checkpoint incompatible with rebuilt model; starting fresh");
                }
                // The pre-trained state itself is the first early-stopping
                // candidate: if fine-tuning only hurts (possible with few
                // seeds), it is rolled back entirely.
                let (hits, table) = self.validate_with_table(cache1, cache2, valid, rng);
                best_hits = hits;
                best_snapshot = self.store.snapshot();
                best_table2 = table.clone();
                table2 = table;
            }
        }
        let n_targets = cache2.len();
        let sources: Vec<EntityId> = train.iter().map(|&(e, _)| e).collect();
        // Only the train sources' embeddings are needed for candidate
        // generation (Algorithm 2 line 4); embedding the rest of KG1 every
        // epoch would be wasted work. The sources are embedded as an index
        // view into `cache1` — no token rows are copied per epoch.
        let src_rows: Vec<usize> = sources.iter().map(|e| e.0 as usize).collect();
        // One pool for the whole fine-tuning run: tape buffers freed by one
        // batch's backward are re-used by the next batch's forward.
        let pool = sdea_tensor::BufferPool::new();

        for epoch in start_epoch..cfg.attr_epochs {
            let _span = sdea_obs::span("epoch");
            // Lines 2–4: embed, regenerate candidates.
            let cands = {
                let _span = sdea_obs::span("candidates");
                // Validation already embedded KG2 at these weights, unless
                // this is a resumed run's first epoch or `valid` is empty.
                let emb2_all = match table2.take() {
                    Some(t) => t,
                    None => self.embed_all(cache2, rng),
                };
                let src_emb = self.embed_rows(cache1, &src_rows, rng);
                CandidateSet::generate_with(
                    &sources,
                    &src_emb,
                    &emb2_all,
                    cfg.n_candidates,
                    &cfg.index,
                )
            };

            // Lines 5–10: margin-loss updates over shuffled train pairs.
            let mut order: Vec<usize> = (0..train.len()).collect();
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            let mut steps = 0usize;
            for chunk in order.chunks(cfg.attr_batch) {
                let anchors: Vec<EntityId> = chunk.iter().map(|&i| train[i].0).collect();
                let pos: Vec<EntityId> = chunk.iter().map(|&i| train[i].1).collect();
                let neg: Vec<EntityId> = chunk
                    .iter()
                    .map(|&i| cands.sample_negative(train[i].0, train[i].1, n_targets, rng))
                    .collect();
                let g = Graph::with_pool(std::rc::Rc::clone(&pool));
                let ha = self.embed_batch_var(&g, cache1, &anchors, true, rng);
                let hp = self.embed_batch_var(&g, cache2, &pos, true, rng);
                let hn = self.embed_batch_var(&g, cache2, &neg, true, rng);
                let loss = margin_ranking_loss(&g, ha, hp, hn, cfg.margin);
                let lv = g.value_cloned(loss).item();
                g.backward(loss);
                g.accumulate_param_grads(&mut self.store);
                opt.step(&mut self.store);
                epoch_loss += lv as f64;
                steps += 1;
                sdea_obs::add("attr.steps", 1);
                sdea_obs::record("attr.batch_loss", lv as f64);
            }
            report.epoch_losses.push((epoch_loss / steps.max(1) as f64) as f32);
            sdea_obs::add("attr.epochs", 1);

            // Line 11: validation Hits@1; early stopping (Section V-A3).
            let (hits1, table) = {
                let _span = sdea_obs::span("validate");
                self.validate_with_table(cache1, cache2, valid, rng)
            };
            report.valid_hits1.push(hits1);
            let mut stop = false;
            if hits1 > best_hits {
                best_hits = hits1;
                best_snapshot = self.store.snapshot();
                best_table2 = table.clone();
                report.best_epoch = epoch;
                strikes = 0;
            } else {
                strikes += 1;
                if strikes >= cfg.patience {
                    sdea_obs::add("attr.early_stops", 1);
                    stop = true;
                }
            }
            table2 = table;
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
                        best_loss: f64::INFINITY,
                        strikes: strikes as u32,
                        epoch_losses: report.epoch_losses.clone(),
                        valid_hits1: report.valid_hits1.clone(),
                        best_epoch: report.best_epoch as u32,
                    };
                    if let Err(e) = c.record_stage_epoch(checkpoint::Stage::Attr, &state) {
                        eprintln!("attr checkpoint at epoch {epoch} failed: {e}; continuing");
                    }
                }
            }
            if stop {
                break;
            }
        }
        self.store.restore(&best_snapshot);
        (report, best_table2)
    }

    /// Validation Hits@1 of the current weights.
    pub fn validate(
        &self,
        cache1: &[Vec<u32>],
        cache2: &[Vec<u32>],
        valid: &[(EntityId, EntityId)],
        rng: &mut Rng,
    ) -> f64 {
        self.validate_with_table(cache1, cache2, valid, rng).0
    }

    /// [`AttrModule::validate`], also returning the KG2 table it embedded
    /// (`None` when `valid` is empty and nothing was embedded).
    fn validate_with_table(
        &self,
        cache1: &[Vec<u32>],
        cache2: &[Vec<u32>],
        valid: &[(EntityId, EntityId)],
        rng: &mut Rng,
    ) -> (f64, Option<Tensor>) {
        if valid.is_empty() {
            return (0.0, None);
        }
        let emb2_all = self.embed_all(cache2, rng);
        // embed only the validation sources, viewed in place
        let src_rows: Vec<usize> = valid.iter().map(|&(e, _)| e.0 as usize).collect();
        let src_emb = self.embed_rows(cache1, &src_rows, rng);
        let gold: Vec<usize> = valid.iter().map(|&(_, e)| e.0 as usize).collect();
        let hits1 = evaluate_blocked(&src_emb, &emb2_all, &gold, VALID_BLOCK_ROWS).hits1;
        (hits1, Some(emb2_all))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro "two KGs" setup where aligned entities share anchor tokens.
    fn toy() -> (Vec<String>, Vec<String>, Vec<(EntityId, EntityId)>) {
        let n = 24usize;
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..n {
            // Same "birth year" anchor on both sides, different phrasing.
            s1.push(format!("person alpha{i} born {}", 1900 + i));
            s2.push(format!("celui beta{i} naissance {}", 1900 + i));
            pairs.push((EntityId(i as u32), EntityId(i as u32)));
        }
        (s1, s2, pairs)
    }

    #[test]
    fn build_and_embed_shapes() {
        let (s1, _, _) = toy();
        let mut rng = Rng::seed_from_u64(1);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.mlm_epochs = 0;
        let module = AttrModule::build(&cfg, &s1, &mut rng);
        let cache = module.token_cache(&s1);
        let emb = module.embed_all(&cache, &mut rng);
        assert_eq!(emb.shape(), &[s1.len(), cfg.embed_dim]);
        assert!(emb.all_finite());
    }

    #[test]
    fn fit_improves_validation_hits() {
        let (s1, s2, pairs) = toy();
        let mut rng = Rng::seed_from_u64(2);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.attr_epochs = 6;
        cfg.mlm_epochs = 1;
        let corpus: Vec<String> = s1.iter().chain(&s2).cloned().collect();
        let mut module = AttrModule::build(&cfg, &corpus, &mut rng);
        let cache1 = module.token_cache(&s1);
        let cache2 = module.token_cache(&s2);
        let train = &pairs[..16];
        let valid = &pairs[16..];
        let before = module.validate(&cache1, &cache2, valid, &mut rng);
        let report = module.fit(&cache1, &cache2, train, valid, &mut rng);
        let after = module.validate(&cache1, &cache2, valid, &mut rng);
        assert!(
            after >= before,
            "fine-tuning should not hurt validation: {before} -> {after} ({report:?})"
        );
        assert!(!report.epoch_losses.is_empty());
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn query_entry_points_match_bulk_path_bitwise() {
        let (s1, _, _) = toy();
        let mut rng = Rng::seed_from_u64(5);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.mlm_epochs = 0;
        let module = AttrModule::build(&cfg, &s1, &mut rng);
        let cache = module.token_cache(&s1);
        let bulk = module.embed_all(&cache, &mut rng);
        // Batch query path over the same texts.
        assert_eq!(module.embed_batch(&s1), bulk);
        // Single-query path matches its bulk row exactly.
        let one = module.embed_one(&s1[3]);
        assert_eq!(one.row(0), bulk.row(3));
        // Warm token-cache path (tokenize once, embed later).
        let rows: Vec<Vec<u32>> = s1.iter().map(|t| module.tokenize_query(t)).collect();
        assert_eq!(module.embed_token_rows(&rows), bulk);
    }

    #[test]
    fn embed_all_is_deterministic_in_eval() {
        let (s1, _, _) = toy();
        let mut rng = Rng::seed_from_u64(3);
        let mut cfg = SdeaConfig::test_tiny();
        cfg.mlm_epochs = 0;
        let module = AttrModule::build(&cfg, &s1, &mut rng);
        let cache = module.token_cache(&s1);
        let a = module.embed_all(&cache, &mut rng);
        let b = module.embed_all(&cache, &mut rng);
        assert_eq!(a, b);
    }
}
