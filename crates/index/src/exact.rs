//! The exact backend: blocked cosine matmul + per-row top-k.
//!
//! The target table is normalized once at construction through the shared
//! [`Tensor::normalized_view`] helper, queries are normalized once per
//! batch, and the product rides the tiled `matmul_t` kernel — the same
//! cells `sdea_eval::cosine_matrix` computes.

use crate::{top_k_scored, Hit, Retriever};
use sdea_tensor::{par_map_collect, Tensor};
use std::sync::OnceLock;

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
}

/// Query × target cells scored, pre-registered so a search pays one
/// atomic add and no registry lock.
fn cells_scored() -> &'static sdea_obs::Counter {
    static C: OnceLock<sdea_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sdea_obs::counter("index.exact_rescored"))
}

impl Retriever for ExactRetriever {
    /// One normalization of the query batch, one `matmul_t`, then a
    /// per-row top-k selection fanned out across the thread budget.
    fn search(&self, queries: &Tensor, k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.rank(), 2, "search expects rank-2 queries");
        assert_eq!(queries.shape()[1], self.dim(), "embedding width mismatch");
        let _span = sdea_obs::span("index.search_exact");
        let (nq, m) = (queries.shape()[0], self.len());
        cells_scored().add((nq * m) as u64);
        let sim = queries.normalized_view().matmul_t(&self.norm);
        par_map_collect(nq, m.max(1), |i| top_k_scored(sim.row(i), k))
    }

    fn len(&self) -> usize {
        self.norm.shape()[0]
    }

    fn dim(&self) -> usize {
        self.norm.shape()[1]
    }
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
