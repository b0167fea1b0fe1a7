//! Bootstrapped seed augmentation (extension).
//!
//! BootEA showed that semi-supervised self-training — promoting confident
//! predictions to training data — lifts alignment accuracy; the paper
//! credits its TransE-family wins partly to this. The same idea composes
//! with SDEA: after the attribute stage, mutual-nearest entity pairs with
//! high `H_a` cosine become additional (noisy) seeds for the relation
//! stage. Exposed through [`crate::SdeaPipeline::run_bootstrapped`].

use sdea_index::{ExactRetriever, Retriever};
use sdea_kg::EntityId;
use sdea_tensor::Tensor;

/// Mutual-nearest pairs above a cosine threshold between two embedding
/// tables (rows = entity ids).
///
/// Each side's nearest neighbour comes from an exact top-1 search against
/// the other side's table. Cosine is symmetric and both matmul
/// orientations accumulate in ascending feature order, so the two
/// directions see bitwise-equal scores; the mutual filter is therefore
/// order-independent.
pub fn mutual_nearest_pairs(
    emb1: &Tensor,
    emb2: &Tensor,
    threshold: f32,
) -> Vec<(EntityId, EntityId)> {
    let (n, m) = (emb1.shape()[0], emb2.shape()[0]);
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let _span = sdea_obs::span("bootstrap.mutual_nearest");
    let fwd = ExactRetriever::new(emb2).search(emb1, 1);
    let bwd = ExactRetriever::new(emb1).search(emb2, 1);
    (0..n)
        .filter_map(|i| {
            let &(j, score) = fwd[i].first()?;
            let &(back, _) = bwd[j].first()?;
            (score >= threshold && back == i).then_some((EntityId(i as u32), EntityId(j as u32)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_tensor::Rng;

    #[test]
    fn identical_tables_pair_everything() {
        let mut rng = Rng::seed_from_u64(1);
        let e = Tensor::rand_normal(&[8, 6], 1.0, &mut rng);
        let pairs = mutual_nearest_pairs(&e, &e, 0.99);
        assert_eq!(pairs.len(), 8);
        assert!(pairs.iter().all(|&(a, b)| a.0 == b.0));
    }

    #[test]
    fn threshold_filters_low_confidence() {
        let mut rng = Rng::seed_from_u64(2);
        // unrelated random tables: expected cosines well below 0.95
        let a = Tensor::rand_normal(&[10, 16], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[10, 16], 1.0, &mut rng);
        let pairs = mutual_nearest_pairs(&a, &b, 0.95);
        assert!(pairs.len() <= 2, "random tables should rarely pass 0.95: {pairs:?}");
    }

    #[test]
    fn mutuality_is_required() {
        // row 0 prefers col 0, but col 0 prefers row 1 -> (0,0) must not pair
        let a = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.05], &[2, 2]);
        let b = Tensor::from_vec(vec![1.0, 0.02], &[1, 2]);
        let pairs = mutual_nearest_pairs(&a, &b, 0.0);
        // only one column; it pairs with its best row only
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].1, EntityId(0));
    }
}
