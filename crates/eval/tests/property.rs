//! Property-based tests for metrics and similarity.

use proptest::prelude::*;
use sdea_eval::{cosine_matrix, evaluate_ranking, rank_of, top_k_indices};
use sdea_tensor::Tensor;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cosine similarity is symmetric and bounded in [-1, 1].
    #[test]
    fn cosine_bounded_and_symmetric(a in matrix(4, 6)) {
        let sim = cosine_matrix(&a, &a);
        for i in 0..4 {
            for j in 0..4 {
                let v = sim.at2(i, j);
                prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&v));
                prop_assert!((v - sim.at2(j, i)).abs() < 1e-4);
            }
        }
    }

    /// Raising the gold score (weakly) improves its rank.
    #[test]
    fn rank_monotone_in_score(scores in prop::collection::vec(-5.0f32..5.0, 3..20), bump in 0.1f32..3.0) {
        let gold = scores.len() / 2;
        let before = rank_of(&scores, gold);
        let mut boosted = scores.clone();
        boosted[gold] += bump;
        let after = rank_of(&boosted, gold);
        prop_assert!(after <= before);
    }

    /// Metrics are invariant under a consistent column permutation.
    #[test]
    fn metrics_invariant_under_column_permutation(sim in matrix(4, 7), shift in 1usize..6) {
        let gold = vec![0usize, 2, 4, 6];
        let base = evaluate_ranking(&sim, &gold);
        // rotate columns by `shift`
        let m = 7;
        let mut rotated = Tensor::zeros(&[4, m]);
        for i in 0..4 {
            for j in 0..m {
                rotated.row_mut(i)[(j + shift) % m] = sim.at2(i, j);
            }
        }
        let gold2: Vec<usize> = gold.iter().map(|&g| (g + shift) % m).collect();
        let permuted = evaluate_ranking(&rotated, &gold2);
        prop_assert!((base.hits1 - permuted.hits1).abs() < 1e-12);
        prop_assert!((base.mrr - permuted.mrr).abs() < 1e-9);
    }

    /// top_k returns strictly descending scores (ties by index) and valid
    /// indices.
    #[test]
    fn top_k_sorted(scores in prop::collection::vec(-5.0f32..5.0, 1..40), k in 1usize..15) {
        let top = top_k_indices(&scores, k);
        prop_assert_eq!(top.len(), k.min(scores.len()));
        for w in top.windows(2) {
            let (a, b) = (w[0], w[1]);
            prop_assert!(
                scores[a] > scores[b] || (scores[a] == scores[b] && a < b),
                "order violated: {} then {}", a, b
            );
        }
    }
}
