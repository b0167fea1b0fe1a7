//! The transformer encoder model.

use crate::batch::TokenBatch;
use crate::config::LmConfig;
use sdea_tensor::{init, Graph, ParamId, ParamStore, Rng, Tensor, Var};

/// Parameters of one encoder block.
#[derive(Clone, Debug)]
struct BlockParams {
    wq: ParamId,
    bq: ParamId,
    wk: ParamId,
    bk: ParamId,
    wv: ParamId,
    bv: ParamId,
    wo: ParamId,
    bo: ParamId,
    ln1_gain: ParamId,
    ln1_bias: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    ln2_gain: ParamId,
    ln2_bias: ParamId,
}

/// A BERT-style transformer encoder whose weights live in an external
/// [`ParamStore`] (so callers can co-train extra heads, checkpoint, or
/// freeze the whole model).
#[derive(Clone, Debug)]
pub struct TransformerLm {
    cfg: LmConfig,
    tok_emb: ParamId,
    pos_emb: ParamId,
    emb_gain: ParamId,
    emb_bias: ParamId,
    blocks: Vec<BlockParams>,
}

impl TransformerLm {
    /// Registers all model weights into `store` and returns the model.
    pub fn new(cfg: LmConfig, store: &mut ParamStore, rng: &mut Rng) -> Self {
        cfg.validate().expect("invalid LmConfig");
        let d = cfg.hidden;
        // In identity-residual mode token embeddings carry the signal, so
        // they start at unit-ish scale and position embeddings start small
        // (they would otherwise swamp token identity under mean pooling).
        let (tok_init, pos_init) = if cfg.identity_residual_init {
            (
                Tensor::rand_normal(&[cfg.vocab_size, d], 1.0 / (d as f32).sqrt(), rng),
                Tensor::rand_normal(&[cfg.max_seq, d], 0.02 / (d as f32).sqrt(), rng),
            )
        } else {
            (
                init::bert_normal(&[cfg.vocab_size, d], rng),
                init::bert_normal(&[cfg.max_seq, d], rng),
            )
        };
        let tok_emb = store.add("lm.tok_emb", tok_init);
        let pos_emb = store.add("lm.pos_emb", pos_init);
        let emb_gain = store.add("lm.emb_ln.gain", Tensor::ones(&[d]));
        let emb_bias = store.add("lm.emb_ln.bias", Tensor::zeros(&[d]));
        let out_scale = if cfg.identity_residual_init { 0.02 } else { 1.0 };
        let blocks = (0..cfg.layers)
            .map(|l| BlockParams {
                wq: store.add(format!("lm.{l}.wq"), init::xavier_uniform(&[d, d], rng)),
                bq: store.add(format!("lm.{l}.bq"), Tensor::zeros(&[d])),
                wk: store.add(format!("lm.{l}.wk"), init::xavier_uniform(&[d, d], rng)),
                bk: store.add(format!("lm.{l}.bk"), Tensor::zeros(&[d])),
                wv: store.add(format!("lm.{l}.wv"), init::xavier_uniform(&[d, d], rng)),
                bv: store.add(format!("lm.{l}.bv"), Tensor::zeros(&[d])),
                wo: store
                    .add(format!("lm.{l}.wo"), init::xavier_uniform(&[d, d], rng).scale(out_scale)),
                bo: store.add(format!("lm.{l}.bo"), Tensor::zeros(&[d])),
                ln1_gain: store.add(format!("lm.{l}.ln1.gain"), Tensor::ones(&[d])),
                ln1_bias: store.add(format!("lm.{l}.ln1.bias"), Tensor::zeros(&[d])),
                w1: store.add(format!("lm.{l}.ffn.w1"), init::xavier_uniform(&[d, cfg.ffn], rng)),
                b1: store.add(format!("lm.{l}.ffn.b1"), Tensor::zeros(&[cfg.ffn])),
                w2: store.add(
                    format!("lm.{l}.ffn.w2"),
                    init::xavier_uniform(&[cfg.ffn, d], rng).scale(out_scale),
                ),
                b2: store.add(format!("lm.{l}.ffn.b2"), Tensor::zeros(&[d])),
                ln2_gain: store.add(format!("lm.{l}.ln2.gain"), Tensor::ones(&[d])),
                ln2_bias: store.add(format!("lm.{l}.ln2.bias"), Tensor::zeros(&[d])),
            })
            .collect();
        TransformerLm { cfg, tok_emb, pos_emb, emb_gain, emb_bias, blocks }
    }

    /// The model's configuration.
    pub fn config(&self) -> &LmConfig {
        &self.cfg
    }

    /// Parameter id of the token embedding table.
    pub fn token_embedding_id(&self) -> ParamId {
        self.tok_emb
    }

    /// Parameter id of the position embedding table.
    pub fn position_embedding_id(&self) -> ParamId {
        self.pos_emb
    }

    /// Marks every LM weight trainable (`true`) or frozen (`false`). SDEA
    /// freezes the LM after the attribute-module pre-training stage.
    pub fn set_trainable(&self, store: &mut ParamStore, trainable: bool) {
        for id in self.all_param_ids() {
            store.set_trainable(id, trainable);
        }
    }

    /// All parameter ids of the model in registration order.
    pub fn all_param_ids(&self) -> Vec<ParamId> {
        let mut ids = vec![self.tok_emb, self.pos_emb, self.emb_gain, self.emb_bias];
        for b in &self.blocks {
            ids.extend_from_slice(&[
                b.wq, b.bq, b.wk, b.bk, b.wv, b.bv, b.wo, b.bo, b.ln1_gain, b.ln1_bias, b.w1, b.b1,
                b.w2, b.b2, b.ln2_gain, b.ln2_bias,
            ]);
        }
        ids
    }

    /// Encodes a batch; returns the final hidden states as `[b*s, hidden]`.
    pub fn forward(
        &self,
        g: &Graph,
        store: &ParamStore,
        batch: &TokenBatch,
        training: bool,
        rng: &mut Rng,
    ) -> Var {
        self.forward_layers(g, store, batch, training, rng).1
    }

    /// Like [`TransformerLm::forward`] but also returns the embedding-layer
    /// output (post-LayerNorm, pre-blocks). Callers that need an
    /// identity-preserving signal (e.g. lexical pooling on top of an
    /// MLM-trained encoder) can mix the two.
    pub fn forward_layers(
        &self,
        g: &Graph,
        store: &ParamStore,
        batch: &TokenBatch,
        training: bool,
        rng: &mut Rng,
    ) -> (Var, Var) {
        let cfg = &self.cfg;
        assert!(batch.s <= cfg.max_seq, "sequence {} exceeds max {}", batch.s, cfg.max_seq);
        let (b, s, h) = (batch.b, batch.s, cfg.heads);

        // Embeddings
        let tok_table = g.param(store, self.tok_emb);
        let pos_table = g.param(store, self.pos_emb);
        let tok = g.gather_rows(tok_table, &batch.ids_usize());
        let pos = g.gather_rows(pos_table, &batch.position_indices());
        let mut x = g.add(tok, pos);
        let eg = g.param(store, self.emb_gain);
        let eb = g.param(store, self.emb_bias);
        x = g.layer_norm(x, eg, eb, cfg.ln_eps);
        x = g.dropout(x, cfg.dropout, training, rng);
        let embedded = x;

        // The additive attention mask stays off the tape: the fused
        // softmax nodes share one copy of it behind an Rc.
        let bias = std::rc::Rc::new(batch.attention_bias(h));
        let scale = 1.0 / (cfg.head_dim() as f32).sqrt();

        for blk in &self.blocks {
            // --- multi-head self-attention (fused score + mask-softmax) ---
            let q = self.linear(g, store, x, blk.wq, blk.bq);
            let k = self.linear(g, store, x, blk.wk, blk.bk);
            let v = self.linear(g, store, x, blk.wv, blk.bv);
            let qh = g.split_heads(q, b, s, h);
            let kh = g.split_heads(k, b, s, h);
            let vh = g.split_heads(v, b, s, h);
            let scores = g.scaled_bmm_nt(qh, kh, scale);
            let attn = g.softmax_bias_lastdim(scores, &bias);
            let attn = g.dropout(attn, cfg.dropout, training, rng);
            let ctx = g.bmm(attn, vh);
            let merged = g.merge_heads(ctx, b, s, h);
            let proj = self.linear(g, store, merged, blk.wo, blk.bo);
            let proj = g.dropout(proj, cfg.dropout, training, rng);
            let g1 = g.param(store, blk.ln1_gain);
            let b1v = g.param(store, blk.ln1_bias);
            x = g.add_layer_norm(x, proj, g1, b1v, cfg.ln_eps);

            // --- feed-forward (fused residual layer-norm) ---
            let f1 = self.linear(g, store, x, blk.w1, blk.b1);
            let act = g.gelu(f1);
            let f2 = self.linear(g, store, act, blk.w2, blk.b2);
            let f2 = g.dropout(f2, cfg.dropout, training, rng);
            let g2 = g.param(store, blk.ln2_gain);
            let b2v = g.param(store, blk.ln2_bias);
            x = g.add_layer_norm(x, f2, g2, b2v, cfg.ln_eps);
        }
        (embedded, x)
    }

    /// Extracts the `[CLS]` hidden state per sequence: `[b, hidden]`
    /// (paper Eq. 6: `C(e_i)`).
    pub fn cls_states(&self, g: &Graph, hidden: Var, batch: &TokenBatch) -> Var {
        g.gather_rows(hidden, &batch.cls_indices())
    }

    fn linear(&self, g: &Graph, store: &ParamStore, x: Var, w: ParamId, b: ParamId) -> Var {
        let wv = g.param(store, w);
        let bv = g.param(store, b);
        g.linear(x, wv, bv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_text::Encoded;

    fn toy_batch(s: usize) -> TokenBatch {
        let enc1 = Encoded { ids: (0..s as u32).map(|i| 2 + i % 8).collect(), mask: vec![1; s] };
        let mut ids2: Vec<u32> = (0..s as u32).map(|i| 2 + (i + 3) % 8).collect();
        let mut mask2 = vec![1u8; s];
        for i in s / 2..s {
            ids2[i] = 0;
            mask2[i] = 0;
        }
        TokenBatch::from_encoded(&[enc1, Encoded { ids: ids2, mask: mask2 }])
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lm = TransformerLm::new(LmConfig::tiny(32), &mut store, &mut rng);
        let batch = toy_batch(8);
        let g = Graph::new();
        let h = lm.forward(&g, &store, &batch, false, &mut rng);
        assert_eq!(g.value(h).shape(), &[16, 32]);
        let cls = lm.cls_states(&g, h, &batch);
        assert_eq!(g.value(cls).shape(), &[2, 32]);
    }

    #[test]
    fn forward_is_deterministic_in_eval_mode() {
        let mut rng = Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let lm = TransformerLm::new(LmConfig::tiny(32), &mut store, &mut rng);
        let batch = toy_batch(8);
        let out1 = {
            let g = Graph::new();
            let h = lm.forward(&g, &store, &batch, false, &mut rng);
            g.value_cloned(h)
        };
        let out2 = {
            let g = Graph::new();
            let h = lm.forward(&g, &store, &batch, false, &mut rng);
            g.value_cloned(h)
        };
        assert_eq!(out1, out2);
    }

    #[test]
    fn padding_does_not_affect_real_positions() {
        // An eval forward's real positions are bitwise the same at every
        // padded length from the real length to `max_seq`, whatever ids the
        // padding holds: a padded key gets a softmax weight of exactly 0,
        // and every kernel sums in ascending k, so trailing zero terms
        // change nothing. This is what lets eval batches pad only to their
        // longest row.
        let mut rng = Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cfg = LmConfig::tiny(32);
        let lm = TransformerLm::new(cfg.clone(), &mut store, &mut rng);
        let real = [2u32, 7, 8, 11, 5];
        let hidden_bits = |s: usize, pad_id: u32| {
            let mut ids = real.to_vec();
            ids.resize(s, pad_id);
            let mut mask = vec![1u8; real.len()];
            mask.resize(s, 0);
            let batch = TokenBatch::from_encoded(&[Encoded { ids, mask }]);
            let g = Graph::new();
            let h = lm.forward(&g, &store, &batch, false, &mut Rng::seed_from_u64(0));
            let out = g.value(h).data()[..real.len() * cfg.hidden].to_vec();
            out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let want = hidden_bits(real.len(), 0);
        for s in real.len()..=cfg.max_seq {
            for pad_id in [0, 9] {
                assert_eq!(hidden_bits(s, pad_id), want, "padded to {s} with id {pad_id}");
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut rng = Rng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let lm = TransformerLm::new(LmConfig::tiny(32), &mut store, &mut rng);
        let batch = toy_batch(8);
        let g = Graph::new();
        let h = lm.forward(&g, &store, &batch, true, &mut rng);
        let cls = lm.cls_states(&g, h, &batch);
        let loss = g.mean_all(g.square(cls));
        g.backward(loss);
        let n = g.accumulate_param_grads(&mut store);
        assert_eq!(n, lm.all_param_ids().len(), "every LM param should receive grad");
        assert!(store.grad_norm() > 0.0);
        assert!(store.grad_norm().is_finite());
    }

    #[test]
    fn freeze_unfreeze_toggles() {
        let mut rng = Rng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lm = TransformerLm::new(LmConfig::tiny(32), &mut store, &mut rng);
        lm.set_trainable(&mut store, false);
        assert!(lm.all_param_ids().iter().all(|&id| !store.is_trainable(id)));
        lm.set_trainable(&mut store, true);
        assert!(lm.all_param_ids().iter().all(|&id| store.is_trainable(id)));
    }
}
