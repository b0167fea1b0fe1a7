//! Pairwise cosine similarity, top-k selection and full row argsort.
//!
//! All bulk operations here fan out through [`sdea_tensor::par`], so they
//! honor the process-wide thread budget (`SDEA_THREADS` /
//! `SdeaConfig::threads`) and are bit-identical at any thread count.

use sdea_tensor::{par_map_collect, Tensor};

/// A dense `[n, m]` similarity matrix between `n` source and `m` target
/// entities. Row-major like [`Tensor`].
pub type SimilarityMatrix = Tensor;

/// Total descending order over similarity scores with **NaN ranked last**
/// (worst). Historically defined here; now the workspace-wide convention
/// lives in [`sdea_tensor::ord`] (the retrieval layer needs it below this
/// crate) and this re-export keeps every existing call site compiling.
pub use sdea_tensor::desc_nan_last;

/// Cosine similarity of every row of `a: [n,d]` against every row of
/// `b: [m,d]`: L2-normalize both then compute `a · bᵀ`, which rides the
/// parallel [`Tensor::matmul_t`] kernel.
///
/// Zero-norm rows are the documented degenerate case: normalization leaves
/// them as zero vectors (see [`Tensor::l2_normalize_rows`]), so their
/// cosine against anything is exactly `0.0`, never NaN. NaN can still
/// enter through NaN *inputs*; downstream ranking and matching order such
/// scores with [`desc_nan_last`].
pub fn cosine_matrix(a: &Tensor, b: &Tensor) -> SimilarityMatrix {
    assert_eq!(a.rank(), 2, "cosine_matrix lhs rank");
    assert_eq!(b.rank(), 2, "cosine_matrix rhs rank");
    assert_eq!(a.shape()[1], b.shape()[1], "embedding width mismatch");
    let _span = sdea_obs::span("eval.cosine_matrix");
    sdea_obs::add("eval.cosine_cells", (a.shape()[0] * b.shape()[0]) as u64);
    a.normalized_view().matmul_t(&b.normalized_view())
}

/// Indices of the `k` largest values of `scores`, descending under
/// [`desc_nan_last`] (NaN ranks worst), ties broken by lower index. `k` is
/// clamped to `scores.len()`.
///
/// The selection kernel itself lives in the retrieval layer
/// ([`sdea_index::top_k_scored`], which also returns the scores); this is
/// the index-only view of it. The scored selection buffer is a per-thread
/// scratch reused across rows ([`sdea_index::top_k_scored_into`]), so the
/// only allocation per call is the returned index vector — visible in the
/// `sdea_obs::mem` allocation counters on hot ranking paths.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<(usize, f32)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|s| {
        let mut best = s.borrow_mut();
        sdea_index::top_k_scored_into(scores, k, &mut best);
        best.iter().map(|&(i, _)| i).collect()
    })
}

/// Column indices of every row sorted by descending score under
/// [`desc_nan_last`] (NaN columns sort to the back), ties broken by lower
/// column index; rows fanned out across the thread budget.
///
/// Sorting is unstable in place: the comparator's index tie-break makes it
/// a strict total order with no equal elements, so the result is identical
/// to a stable sort — without the stable sort's `O(m)` merge buffer, which
/// used to be allocated and freed once *per row*. The only per-row
/// allocation left is the returned index vector (pinned by the
/// `argsort_allocates_one_vector_per_row` test via the `sdea_obs::mem`
/// counters).
pub fn argsort_rows_desc(sim: &SimilarityMatrix) -> Vec<Vec<usize>> {
    assert_eq!(sim.rank(), 2);
    let (n, m) = (sim.shape()[0], sim.shape()[1]);
    // ~log(m) passes over the row; 8 is a round per-element sort-cost guess.
    par_map_collect(n, m.saturating_mul(8).max(1), |i| {
        let row = sim.row(i);
        let mut idx: Vec<usize> = (0..m).collect();
        idx.sort_unstable_by(|&a, &b| desc_nan_last(row[a], row[b]).then(a.cmp(&b)));
        idx
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_tensor::{with_thread_budget, Rng};

    #[test]
    fn cosine_identity_rows() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let sim = cosine_matrix(&a, &a);
        assert!((sim.at2(0, 0) - 1.0).abs() < 1e-6);
        assert!((sim.at2(1, 1) - 1.0).abs() < 1e-6);
        assert!(sim.at2(0, 1).abs() < 1e-6);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        let sim = cosine_matrix(&a, &b);
        assert!((sim.item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = Rng::seed_from_u64(1);
        // big enough to trigger the threaded path
        let a = Tensor::rand_normal(&[300, 16], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[300, 16], 1.0, &mut rng);
        let sim = with_thread_budget(8, || cosine_matrix(&a, &b));
        // spot-check against direct computation
        for &(i, j) in &[(0usize, 0usize), (7, 123), (299, 299), (150, 3)] {
            let ai = a.row(i);
            let bj = b.row(j);
            let dot: f32 = ai.iter().zip(bj).map(|(&x, &y)| x * y).sum();
            let na: f32 = ai.iter().map(|&x| x * x).sum::<f32>().sqrt();
            let nb: f32 = bj.iter().map(|&x| x * x).sum::<f32>().sqrt();
            let expected = dot / (na * nb);
            assert!((sim.at2(i, j) - expected).abs() < 1e-4, "({i},{j})");
        }
    }

    #[test]
    fn top_k_orders_descending() {
        let scores = [0.1, 0.9, 0.5, 0.9, -1.0];
        let top = top_k_indices(&scores, 3);
        assert_eq!(top, vec![1, 3, 2]); // tie at 0.9 broken by index
    }

    #[test]
    fn top_k_clamps() {
        assert_eq!(top_k_indices(&[1.0, 2.0], 10), vec![1, 0]);
        assert!(top_k_indices(&[], 3).is_empty());
        assert!(top_k_indices(&[1.0], 0).is_empty());
    }

    #[test]
    fn top_k_matches_full_sort() {
        let mut rng = Rng::seed_from_u64(2);
        let scores: Vec<f32> = (0..200).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let top = top_k_indices(&scores, 10);
        let mut idx: Vec<usize> = (0..200).collect();
        idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        assert_eq!(top, idx[..10].to_vec());
    }

    #[test]
    fn argsort_rows_desc_is_a_full_stable_ranking() {
        let sim = Tensor::from_vec(vec![0.5, 0.9, 0.5, -0.1], &[1, 4]);
        let order = argsort_rows_desc(&sim);
        assert_eq!(order, vec![vec![1, 0, 2, 3]]); // 0.5-tie broken by index
    }

    /// The scratch-churn regression guard: a full argsort over `n` rows
    /// must allocate essentially one index vector per row — not the extra
    /// per-row merge buffer the old stable sort used, which doubled the
    /// allocated bytes. The bound is measured with the `sdea_obs::mem`
    /// counting allocator; it is generous enough (+1 MiB) to absorb
    /// allocations from tests running concurrently in this binary, while
    /// the old two-buffers-per-row behavior (~2x the payload) would still
    /// blow through it. The window opens only once the thread-budget lock
    /// is held, so it never spans another test's budget-pinned evaluation.
    #[test]
    fn argsort_allocates_one_vector_per_row() {
        if !sdea_obs::mem::counting_enabled() {
            return; // counting disabled for this process; nothing to measure
        }
        let (n, m) = (256usize, 1024usize);
        let mut rng = Rng::seed_from_u64(5);
        let sim = Tensor::rand_normal(&[n, m], 1.0, &mut rng);
        let (order, delta) = with_thread_budget(1, || {
            let before = sdea_obs::mem::total_allocated_bytes();
            let order = argsort_rows_desc(&sim);
            (order, sdea_obs::mem::total_allocated_bytes() - before)
        });
        assert_eq!(order.len(), n);
        let payload = (n * m * std::mem::size_of::<usize>()) as u64;
        assert!(
            delta < payload + payload / 2 + (1 << 20),
            "argsort allocated {delta} bytes for a {payload}-byte result"
        );
    }

    #[test]
    fn desc_nan_last_is_a_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(desc_nan_last(1.0, 0.5), Less); // higher score ranks first
        assert_eq!(desc_nan_last(0.5, 1.0), Greater);
        assert_eq!(desc_nan_last(0.5, 0.5), Equal);
        assert_eq!(desc_nan_last(f32::NAN, -1e30), Greater); // NaN worst
        assert_eq!(desc_nan_last(f32::NEG_INFINITY, f32::NAN), Less);
        assert_eq!(desc_nan_last(f32::NAN, f32::NAN), Equal);
        assert_eq!(desc_nan_last(f32::INFINITY, f32::MAX), Less);
        // -0.0 vs +0.0: total_cmp puts +0.0 first in descending order.
        assert_eq!(desc_nan_last(0.0, -0.0), Less);
    }

    #[test]
    fn nan_scores_rank_last_never_panic() {
        let scores = [0.2, f32::NAN, 0.9, f32::NAN, -0.5];
        // top_k: NaN never beats a real score, NaN ties broken by index.
        assert_eq!(top_k_indices(&scores, 3), vec![2, 0, 4]);
        assert_eq!(top_k_indices(&scores, 5), vec![2, 0, 4, 1, 3]);
        // argsort: same full ordering, NaN columns at the back.
        let sim = Tensor::from_vec(scores.to_vec(), &[1, 5]);
        assert_eq!(argsort_rows_desc(&sim), vec![vec![2, 0, 4, 1, 3]]);
    }

    #[test]
    fn all_nan_row_is_index_order() {
        let sim = Tensor::from_vec(vec![f32::NAN; 4], &[1, 4]);
        assert_eq!(argsort_rows_desc(&sim), vec![vec![0, 1, 2, 3]]);
        assert_eq!(top_k_indices(sim.row(0), 2), vec![0, 1]);
    }
}
