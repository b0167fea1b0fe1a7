//! SDEA hyper-parameters.

use sdea_lm::LmConfig;

/// Query rows per block when validation ranks through
/// `sdea_eval::evaluate_blocked`: only a `VALID_BLOCK_ROWS × n2` similarity
/// slab is resident at a time, and the result is bit-identical to the
/// full-matrix path at any block height.
pub const VALID_BLOCK_ROWS: usize = 512;

/// Configuration of the full SDEA pipeline.
///
/// Paper values (Section V-A3) with our CPU-scale defaults in parentheses:
/// BERT max input 128 (40), attribute batch size 8 (8), relation batch size
/// 256 (128), early-stopping patience 5 validations (5), split 2:1:7 (same).
#[derive(Clone, Debug)]
pub struct SdeaConfig {
    /// Subword vocabulary budget for the trained tokenizer.
    pub vocab_budget: usize,
    /// Transformer hidden width.
    pub lm_hidden: usize,
    /// Transformer layers.
    pub lm_layers: usize,
    /// Attention heads.
    pub lm_heads: usize,
    /// Feed-forward width.
    pub lm_ffn: usize,
    /// Max token sequence length for attribute sequences.
    pub max_seq: usize,
    /// Dimension of `H_a` / `H_r` / `H_m` (each).
    pub embed_dim: usize,
    /// MLM pre-training epochs over the (subsampled) corpus.
    pub mlm_epochs: usize,
    /// MLM corpus subsample cap (sentences).
    pub mlm_corpus_cap: usize,
    /// MLM batch size.
    pub mlm_batch: usize,
    /// MLM learning rate.
    pub mlm_lr: f32,
    /// Margin β of the ranking loss (Eq. 18).
    pub margin: f32,
    /// Attribute-module fine-tuning epochs (upper bound).
    pub attr_epochs: usize,
    /// Attribute-module batch size (pairs per step).
    pub attr_batch: usize,
    /// Attribute-module learning rate.
    pub attr_lr: f32,
    /// Relation-module training epochs (upper bound).
    pub rel_epochs: usize,
    /// Relation-module batch size (pairs per step).
    pub rel_batch: usize,
    /// Relation-module learning rate.
    pub rel_lr: f32,
    /// Number of nearest-neighbour candidates for negative sampling.
    pub n_candidates: usize,
    /// Early-stopping patience (validations without improvement).
    pub patience: usize,
    /// Cap on neighbours fed to the BiGRU.
    pub max_neighbors: usize,
    /// Dropout used during fine-tuning.
    pub dropout: f32,
    /// Pool the transformer output by `[CLS]` (the paper, suited to a deep
    /// pre-trained BERT) or by masked mean over token states (better for
    /// the shallow from-scratch LM used here — see DESIGN.md).
    pub pooling: Pooling,
    /// L2-normalize `H_a` rows (keeps the margin-loss geometry bounded).
    pub normalize_embeddings: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread budget for the fork-join layer (`sdea_tensor::par`);
    /// 0 defers to the `SDEA_THREADS` environment variable, then the
    /// hardware parallelism. Results are identical at any setting.
    // fingerprint: excluded(execution knob; results identical at any thread count)
    pub threads: usize,
    /// Enables the `sdea_obs` instrumentation layer (span timers, counters,
    /// run reports). `false` force-disables it for this process regardless
    /// of `SDEA_OBS`; observability never changes any computed tensor
    /// either way.
    // fingerprint: excluded(instrumentation toggle; never changes computed tensors)
    pub obs: bool,
    /// Checkpoint directory for crash-safe training. `None` (the default)
    /// disables checkpointing; `Some(dir)` writes stage-boundary and
    /// epoch checkpoints there and **resumes** from them when the
    /// directory already holds a manifest written under an identical
    /// configuration. A resumed run is bit-identical to an uninterrupted
    /// one (see `crate::checkpoint`).
    // fingerprint: excluded(storage location; a resumed run is bit-identical)
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Fine-tuning epochs between mid-stage checkpoints (both stages);
    /// 0 checkpoints only at stage boundaries. Ignored without
    /// `checkpoint_dir`. Like `threads`/`obs`, this never changes results.
    // fingerprint: excluded(checkpoint cadence; never changes results)
    pub checkpoint_every: usize,
}

/// Sequence pooling strategy of the attribute module.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pooling {
    /// `[CLS]` hidden state (paper Eq. 6).
    Cls,
    /// Uniform mean over non-padding token states.
    Mean,
    /// IDF-weighted mean over non-padding token states (SIF-style).
    /// Rare, discriminative tokens — names, dates — dominate the pooled
    /// vector, which is what a large fine-tuned BERT learns to do with its
    /// `[CLS]` attention; our small model gets it as an inductive bias.
    IdfMean,
}

impl Default for SdeaConfig {
    fn default() -> Self {
        SdeaConfig {
            // Small subword vocabulary: coarse (word-level) pieces make
            // transliterated name pairs share no tokens; ~300 forces 2-4
            // character pieces, the granularity cross-lingual anchors need.
            vocab_budget: 300,
            lm_hidden: 128,
            lm_layers: 2,
            lm_heads: 4,
            lm_ffn: 256,
            max_seq: 96,
            embed_dim: 128,
            // MLM pre-training is implemented and tested, but defaults to
            // off: at this model scale the distributional objective
            // collapses the identity of anchor tokens (years, names) that
            // alignment depends on — measured in EXPERIMENTS.md. The
            // identity-residual initialization plays the role of the
            // pre-trained checkpoint instead (see DESIGN.md).
            mlm_epochs: 0,
            mlm_corpus_cap: 3000,
            mlm_batch: 16,
            mlm_lr: 2e-3,
            margin: 0.5,
            attr_epochs: 12,
            attr_batch: 8,
            attr_lr: 3e-4,
            rel_epochs: 40,
            rel_batch: 128,
            rel_lr: 2e-3,
            n_candidates: 20,
            patience: 5,
            max_neighbors: 12,
            dropout: 0.1,
            pooling: Pooling::IdfMean,
            normalize_embeddings: true,
            seed: 0,
            threads: 0,
            obs: true,
            checkpoint_dir: None,
            checkpoint_every: 1,
        }
    }
}

impl SdeaConfig {
    /// A configuration for unit tests: tiny but end-to-end functional.
    pub fn test_tiny() -> Self {
        SdeaConfig {
            vocab_budget: 400,
            lm_hidden: 32,
            lm_layers: 1,
            lm_heads: 2,
            lm_ffn: 64,
            max_seq: 24,
            embed_dim: 32,
            mlm_epochs: 0,
            mlm_corpus_cap: 300,
            mlm_batch: 8,
            mlm_lr: 2e-3,
            margin: 0.5,
            attr_epochs: 3,
            attr_batch: 8,
            attr_lr: 1e-3,
            rel_epochs: 10,
            rel_batch: 64,
            rel_lr: 2e-3,
            n_candidates: 8,
            patience: 3,
            max_neighbors: 8,
            dropout: 0.0,
            pooling: Pooling::IdfMean,
            normalize_embeddings: true,
            seed: 7,
            threads: 0,
            obs: true,
            checkpoint_dir: None,
            checkpoint_every: 1,
        }
    }

    /// The transformer configuration induced by this SDEA configuration.
    pub fn lm_config(&self, vocab_size: usize) -> LmConfig {
        LmConfig {
            vocab_size,
            hidden: self.lm_hidden,
            layers: self.lm_layers,
            heads: self.lm_heads,
            ffn: self.lm_ffn,
            max_seq: self.max_seq,
            dropout: self.dropout,
            ln_eps: 1e-5,
            identity_residual_init: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lm_config_is_valid() {
        let cfg = SdeaConfig::default();
        assert!(cfg.lm_config(1000).validate().is_ok());
        assert!(SdeaConfig::test_tiny().lm_config(100).validate().is_ok());
    }
}
