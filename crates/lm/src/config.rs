//! Transformer hyper-parameters.

/// Configuration of a [`crate::TransformerLm`].
///
/// Defaults are the paper's architecture scaled to CPU training: the paper
/// uses BERT-base (12 layers, hidden 768, max sequence length 128); we
/// default to 2 layers, hidden 128, max sequence length 64. The *structure*
/// (attention, residuals, `[CLS]` pooling, fine-tunability) is identical.
#[derive(Clone, Debug, PartialEq)]
pub struct LmConfig {
    /// Subword vocabulary size (including special tokens).
    pub vocab_size: usize,
    /// Hidden width of the encoder.
    pub hidden: usize,
    /// Number of encoder blocks.
    pub layers: usize,
    /// Number of attention heads (`hidden % heads == 0`).
    pub heads: usize,
    /// Feed-forward inner width.
    pub ffn: usize,
    /// Maximum (and fixed) input sequence length.
    pub max_seq: usize,
    /// Dropout probability used at training time.
    pub dropout: f32,
    /// LayerNorm epsilon.
    pub ln_eps: f32,
    /// Initialize each block's output projections (attention `W_o`, FFN
    /// `W_2`) near zero so the untrained encoder is residual-dominated —
    /// i.e. approximately a bag of token embeddings. A 12-layer published
    /// BERT checkpoint arrives with useful weights; a from-scratch small
    /// model must instead *start* harmless and let fine-tuning open the
    /// attention pathways (ReZero-style). See DESIGN.md.
    pub identity_residual_init: bool,
}

impl LmConfig {
    /// The default CPU-scale configuration for a given vocabulary.
    pub fn small(vocab_size: usize) -> Self {
        LmConfig {
            vocab_size,
            hidden: 128,
            layers: 2,
            heads: 4,
            ffn: 256,
            max_seq: 64,
            dropout: 0.1,
            ln_eps: 1e-5,
            identity_residual_init: true,
        }
    }

    /// An even smaller config for unit tests.
    pub fn tiny(vocab_size: usize) -> Self {
        LmConfig {
            vocab_size,
            hidden: 32,
            layers: 1,
            heads: 2,
            ffn: 64,
            max_seq: 16,
            dropout: 0.0,
            ln_eps: 1e-5,
            identity_residual_init: true,
        }
    }

    /// Head width.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Validates internal consistency; call after manual edits.
    pub fn validate(&self) -> Result<(), String> {
        if !self.hidden.is_multiple_of(self.heads) {
            return Err(format!("hidden {} not divisible by heads {}", self.hidden, self.heads));
        }
        if self.vocab_size < 5 {
            return Err("vocab must include the 5 special tokens".into());
        }
        if self.max_seq == 0 || self.layers == 0 {
            return Err("max_seq and layers must be positive".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout {} outside [0,1)", self.dropout));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        assert!(LmConfig::small(1000).validate().is_ok());
        assert!(LmConfig::tiny(100).validate().is_ok());
    }

    #[test]
    fn head_divisibility_checked() {
        let mut c = LmConfig::small(1000);
        c.heads = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tiny_vocab_rejected() {
        assert!(LmConfig::small(3).validate().is_err());
    }
}
