//! Token batches padded to a common length, and the attention padding
//! mask.

use sdea_tensor::Tensor;
use sdea_text::Encoded;

/// A `[b, s]` batch of token ids with padding masks, ready for
/// [`crate::TransformerLm::forward`]. The caller picks `s` (at most
/// `max_seq`): padded keys are masked out of attention, so an eval forward
/// gives a row's real positions the same bits at any `s` that holds the
/// row, and eval callers pad only to the batch's longest row.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenBatch {
    /// Flattened ids, row-major `[b * s]`.
    pub ids: Vec<u32>,
    /// Flattened mask (1 = real token), `[b * s]`.
    pub mask: Vec<u8>,
    /// Batch size.
    pub b: usize,
    /// Sequence length.
    pub s: usize,
}

impl TokenBatch {
    /// Builds a batch from encoded sequences (all must share `s`).
    pub fn from_encoded(rows: &[Encoded]) -> Self {
        assert!(!rows.is_empty(), "empty batch");
        let s = rows[0].ids.len();
        let b = rows.len();
        let mut ids = Vec::with_capacity(b * s);
        let mut mask = Vec::with_capacity(b * s);
        for r in rows {
            assert_eq!(r.ids.len(), s, "ragged batch");
            ids.extend_from_slice(&r.ids);
            mask.extend_from_slice(&r.mask);
        }
        TokenBatch { ids, mask, b, s }
    }

    /// Token ids as usize indices (for embedding gathers).
    pub fn ids_usize(&self) -> Vec<usize> {
        self.ids.iter().map(|&i| i as usize).collect()
    }

    /// Position indices `0..s` repeated per row.
    pub fn position_indices(&self) -> Vec<usize> {
        (0..self.b).flat_map(|_| 0..self.s).collect()
    }

    /// Indices (into the flattened `[b*s]` axis) of each row's `[CLS]`.
    pub fn cls_indices(&self) -> Vec<usize> {
        (0..self.b).map(|i| i * self.s).collect()
    }

    /// Additive attention mask of shape `[b*heads, s, s]`: `0` where the key
    /// position is real, `-1e9` where it is padding. Broadcast over query
    /// positions and heads by materialization (sizes here are small).
    pub fn attention_bias(&self, heads: usize) -> Tensor {
        let (b, s) = (self.b, self.s);
        let mut data = vec![0.0f32; b * heads * s * s];
        for bi in 0..b {
            let row_mask = &self.mask[bi * s..(bi + 1) * s];
            for h in 0..heads {
                let base = (bi * heads + h) * s * s;
                for q in 0..s {
                    let off = base + q * s;
                    for (k, &m) in row_mask.iter().enumerate() {
                        if m == 0 {
                            data[off + k] = -1e9;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(data, &[b * heads, s, s])
    }

    /// Per-position real-token mask as a `[b*s]` float vector.
    pub fn mask_f32(&self) -> Vec<f32> {
        self.mask.iter().map(|&m| m as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(ids: Vec<u32>, real: usize) -> Encoded {
        let mut mask = vec![0u8; ids.len()];
        mask[..real].iter_mut().for_each(|m| *m = 1);
        Encoded { ids, mask }
    }

    #[test]
    fn from_encoded_flattens() {
        let b = TokenBatch::from_encoded(&[enc(vec![2, 7, 0], 2), enc(vec![2, 8, 9], 3)]);
        assert_eq!(b.b, 2);
        assert_eq!(b.s, 3);
        assert_eq!(b.ids, vec![2, 7, 0, 2, 8, 9]);
        assert_eq!(b.cls_indices(), vec![0, 3]);
    }

    #[test]
    fn attention_bias_blocks_padding_keys() {
        let b = TokenBatch::from_encoded(&[enc(vec![2, 7, 0], 2)]);
        let bias = b.attention_bias(2);
        assert_eq!(bias.shape(), &[2, 3, 3]);
        // For every head and query, key 2 (padding) must be -1e9.
        for head in 0..2 {
            for q in 0..3 {
                let base = head * 9 + q * 3;
                assert_eq!(bias.data()[base], 0.0);
                assert_eq!(bias.data()[base + 1], 0.0);
                assert_eq!(bias.data()[base + 2], -1e9);
            }
        }
    }

    #[test]
    fn position_indices_repeat() {
        let b = TokenBatch::from_encoded(&[enc(vec![2, 1], 2), enc(vec![2, 1], 2)]);
        assert_eq!(b.position_indices(), vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_rejected() {
        let _ = TokenBatch::from_encoded(&[enc(vec![2, 1], 2), enc(vec![2], 1)]);
    }
}
