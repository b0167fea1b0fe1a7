//! The exact backend: blocked cosine matmul + per-row top-k.
//!
//! The target table is normalized once at construction through the shared
//! [`Tensor::normalized_view`] helper, queries are normalized once per
//! batch, and the product rides the tiled `matmul_t` kernel — the same
//! cells `sdea_eval::cosine_matrix` computes. [`exact_search`] is the one
//! exact scan in this crate: IVF's `nprobe = all` bypass calls it too.

use crate::{counters, top_k_scored, Hit, Retriever};
use sdea_tensor::{par_map_collect, Tensor};

/// Exact cosine retriever over an embedding table.
pub struct ExactRetriever {
    /// The indexed table, rows L2-normalized at construction.
    norm: Tensor,
}

impl ExactRetriever {
    /// Indexes `emb: [n, d]`, normalizing its rows once.
    pub fn new(emb: &Tensor) -> Self {
        assert_eq!(emb.rank(), 2, "ExactRetriever expects a rank-2 table");
        ExactRetriever { norm: emb.normalized_view() }
    }

    /// The normalized table (for callers that also need the raw scores).
    pub fn normalized(&self) -> &Tensor {
        &self.norm
    }
}

impl Retriever for ExactRetriever {
    fn search(&self, queries: &Tensor, k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.rank(), 2, "search expects rank-2 queries");
        assert_eq!(queries.shape()[1], self.dim(), "embedding width mismatch");
        exact_search(&self.norm, queries, k)
    }

    fn len(&self) -> usize {
        self.norm.shape()[0]
    }

    fn dim(&self) -> usize {
        self.norm.shape()[1]
    }
}

/// Exact top-`k` hits of every row of `queries` against the row-normalized
/// table `norm`: one normalization of the query batch, one `matmul_t`, then
/// a per-row top-k selection fanned out across the thread budget.
pub(crate) fn exact_search(norm: &Tensor, queries: &Tensor, k: usize) -> Vec<Vec<Hit>> {
    let _span = sdea_obs::span("index.search_exact");
    let (nq, m) = (queries.shape()[0], norm.shape()[0]);
    counters().exact_rescored.add((nq * m) as u64);
    let sim = queries.normalized_view().matmul_t(norm);
    par_map_collect(nq, m.max(1), |i| top_k_scored(sim.row(i), k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_cosine_not_magnitude() {
        // Target 2 points the same way as the query; target 1 is close but
        // off-axis; magnitudes are scrambled to prove normalization.
        let tgt = Tensor::from_vec(vec![0.0, 5.0, 10.0, 1.0, 3.0, 0.0], &[3, 2]);
        let q = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let r = ExactRetriever::new(&tgt);
        let hits = r.search(&q, 2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][0].0, 2);
        assert_eq!(hits[0][1].0, 1);
        assert!(hits[0][0].1 > hits[0][1].1);
    }

    #[test]
    fn zero_rows_score_zero_not_nan() {
        let tgt = Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0], &[2, 2]);
        let q = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let hits = ExactRetriever::new(&tgt).search(&q, 2);
        assert!(hits[0].iter().all(|&(_, s)| s == 0.0), "{:?}", hits[0]);
    }

    #[test]
    fn empty_index_returns_empty_hits() {
        let tgt = Tensor::zeros(&[0, 4]);
        let q = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]);
        let r = ExactRetriever::new(&tgt);
        assert!(r.is_empty());
        assert_eq!(r.search(&q, 5), vec![Vec::<Hit>::new()]);
    }
}
