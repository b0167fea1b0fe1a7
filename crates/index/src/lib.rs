//! # sdea-index
//!
//! The retrieval layer: negative-candidate generation, bootstrap
//! mutual-nearest pairs and serving retrieve target entities through the
//! [`Retriever`] trait instead of materializing and scanning a full `n×m`
//! similarity matrix themselves.
//!
//! [`ExactRetriever`] is the one backend: a thin wrapper over the blocked
//! cosine matmul (`normalized_view` + `matmul_t` + per-row top-k). Its
//! scores are the cells of `sdea_eval::cosine_matrix`, bit for bit.
//!
//! Scores are always cosine similarities; ordering and NaN handling follow
//! the workspace-wide [`desc_nan_last`] total order (ties broken by lower
//! index). Under that order a top-`k` list is a prefix of the top-`K` list
//! for any `k ≤ K`, so one search at a batch's largest `k` answers every
//! request in it.

#![forbid(unsafe_code)]

pub mod exact;

pub use exact::ExactRetriever;
use sdea_tensor::{desc_nan_last, Tensor};
use std::cmp::Ordering;

/// One retrieval result: `(row index into the indexed table, cosine score)`.
pub type Hit = (usize, f32);

/// A nearest-neighbour retriever over one embedding table.
///
/// `search` returns, for every query row, the top-`k` indexed rows by
/// cosine similarity, descending under [`desc_nan_last`] with ties broken
/// by lower index. Queries are raw (un-normalized) embeddings; every
/// backend normalizes the batch once through
/// [`Tensor::normalized_view`]. Implementations parallelize internally on
/// `sdea_tensor::par` and are bit-identical at any thread budget.
pub trait Retriever: Send + Sync {
    /// Top-`k` hits per query row of `queries: [nq, d]`.
    fn search(&self, queries: &Tensor, k: usize) -> Vec<Vec<Hit>>;
    /// Number of indexed rows.
    fn len(&self) -> usize;
    /// Whether the index holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Embedding width of the indexed table.
    fn dim(&self) -> usize;
}

/// Indices *and scores* of the `k` largest values of `scores`, descending
/// under [`desc_nan_last`] (NaN ranks worst), ties broken by lower index.
/// `k` is clamped to `scores.len()`.
///
/// This is the workspace's one top-k selection kernel:
/// `sdea_eval::top_k_indices` is this with the scores dropped. Partial
/// selection over a small sorted buffer — `O(len · k)` worst case, which
/// beats a full sort for the small `k` retrieval uses.
pub fn top_k_scored(scores: &[f32], k: usize) -> Vec<Hit> {
    let mut best = Vec::new();
    top_k_scored_into(scores, k, &mut best);
    best
}

/// [`top_k_scored`] writing into a caller-owned buffer (cleared first).
/// Hot per-row loops reuse one selection buffer across thousands of rows
/// instead of allocating a fresh one per row; the result is identical.
pub fn top_k_scored_into(scores: &[f32], k: usize, best: &mut Vec<Hit>) {
    best.clear();
    let k = k.min(scores.len());
    if k == 0 {
        return;
    }
    best.reserve(k + 1);
    for (i, &s) in scores.iter().enumerate() {
        let beats = |t: f32| desc_nan_last(s, t) == Ordering::Less;
        if best.len() < k || beats(best[best.len() - 1].1) {
            let pos = best.iter().position(|&(_, bs)| beats(bs)).unwrap_or(best.len());
            best.insert(pos, (i, s));
            if best.len() > k {
                best.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_scored_orders_and_ties_by_index() {
        let scores = [0.1, 0.9, 0.5, 0.9, -1.0];
        assert_eq!(top_k_scored(&scores, 3), vec![(1, 0.9), (3, 0.9), (2, 0.5)]);
        assert_eq!(top_k_scored(&[1.0, 2.0], 10), vec![(1, 2.0), (0, 1.0)]);
        assert!(top_k_scored(&[], 3).is_empty());
        assert!(top_k_scored(&[1.0], 0).is_empty());
        // Prefix property: top-k is the first k entries of the full
        // ranking, so one search at a batch's largest k, truncated per
        // request, answers every smaller k bit for bit.
        let nan = f32::NAN;
        let scores = [0.5, nan, -0.0, 0.9, 0.0, 0.5, nan, -1.0, 0.9, 0.0, -0.0];
        let bits = |hits: &[Hit]| hits.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        let full = bits(&top_k_scored(&scores, scores.len()));
        for k in 0..=scores.len() {
            assert_eq!(bits(&top_k_scored(&scores, k)), full[..k], "k = {k}");
        }
    }

    #[test]
    fn top_k_scored_ranks_nan_last() {
        let scores = [0.2, f32::NAN, 0.9, f32::NAN, -0.5];
        let idx: Vec<usize> = top_k_scored(&scores, 5).into_iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2, 0, 4, 1, 3]);
    }
}
