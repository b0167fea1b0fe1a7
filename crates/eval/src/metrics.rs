//! Hits@K and MRR over similarity rankings (paper Section V-A2).
//!
//! Two entry points live here. [`evaluate_ranking`] scores a pre-computed
//! `n × m` similarity matrix. [`evaluate_blocked`] takes the query
//! embeddings and the target table and walks the queries in bounded row
//! blocks, so only one `block × m` slab is ever resident and the full
//! matrix never exists. Both rank every row with the same [`rank_of`] tie
//! rule and accumulate metrics serially in global row order through
//! [`RankAccum`], so the blocked results are **bit-identical** to the
//! matrix ones at any block size and any `SDEA_THREADS` budget.

use crate::similarity::{desc_nan_last, SimilarityMatrix};
use sdea_tensor::Tensor;
use std::cmp::Ordering;

/// The paper's three reported metrics.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct AlignmentMetrics {
    /// Hits@1 in `[0,1]`.
    pub hits1: f64,
    /// Hits@10 in `[0,1]`.
    pub hits10: f64,
    /// Mean reciprocal rank in `(0,1]`.
    pub mrr: f64,
}

impl AlignmentMetrics {
    /// Formats as the paper's percentage row `H@1 H@10 MRR`.
    pub fn paper_row(&self) -> String {
        format!("{:5.1} {:5.1} {:.2}", self.hits1 * 100.0, self.hits10 * 100.0, self.mrr)
    }
}

/// Serial metric accumulator shared by both entry points. Ranks are
/// integers, so the only floating-point state is the MRR sum; pushing ranks
/// one at a time in global row order makes a blocked evaluation reproduce
/// the one-shot f64 addition sequence exactly — that is what buys bitwise
/// equality between the matrix and blocked paths.
#[derive(Default)]
struct RankAccum {
    rows: usize,
    h1: usize,
    h10: usize,
    mrr: f64,
}

impl RankAccum {
    fn push(&mut self, rank: usize) {
        self.rows += 1;
        if rank == 1 {
            self.h1 += 1;
        }
        if rank <= 10 {
            self.h10 += 1;
        }
        self.mrr += 1.0 / rank as f64;
    }

    /// Ranks every `m`-wide row of the score slab `scores` against its gold
    /// column, rows fanned out across the thread budget, then pushes the
    /// ranks serially in row order so MRR stays bit-stable.
    fn push_slab(&mut self, scores: &[f32], m: usize, gold: &[usize]) {
        let ranks = sdea_tensor::par_map_collect(gold.len(), m.max(1), |r| {
            rank_of(&scores[r * m..(r + 1) * m], gold[r])
        });
        for rank in ranks {
            self.push(rank);
        }
    }

    fn finish(self) -> AlignmentMetrics {
        let n = self.rows.max(1) as f64;
        AlignmentMetrics {
            hits1: self.h1 as f64 / n,
            hits10: self.h10 as f64 / n,
            mrr: self.mrr / n,
        }
    }
}

/// 1-based rank of `gold` within `scores` (descending). Ties are broken
/// pessimistically for indices before `gold` and optimistically after —
/// i.e. rank = 1 + |{j : s_j ranks before s_gold}| + |{j < gold : s_j ==
/// s_gold}|, which is deterministic and matches a stable descending sort
/// under [`desc_nan_last`].
///
/// NaN scores follow the crate-wide convention: they rank *last*. A NaN
/// gold therefore ranks behind every real candidate (it used to silently
/// rank 1 because `NaN > NaN` and `s > NaN` are both false), and a NaN
/// candidate never outranks a real gold.
///
/// Panics with a descriptive message when `gold` is out of range — in
/// particular for an empty `scores` slice (a zero-column similarity
/// matrix), where no rank exists.
pub fn rank_of(scores: &[f32], gold: usize) -> usize {
    assert!(
        gold < scores.len(),
        "rank_of: gold index {gold} out of range for {} candidate scores",
        scores.len()
    );
    let g = scores[gold];
    let mut rank = 1usize;
    for (j, &s) in scores.iter().enumerate() {
        match desc_nan_last(s, g) {
            Ordering::Less => rank += 1,
            Ordering::Equal if j < gold => rank += 1,
            _ => {}
        }
    }
    rank
}

/// Validates on the calling thread that every gold index names one of `m`
/// targets: a failure inside a parallel worker would surface as an opaque
/// join panic instead of this message.
fn check_gold(gold: &[usize], m: usize) {
    for (i, &g) in gold.iter().enumerate() {
        assert!(g < m, "evaluate_ranking: gold[{i}] column {g} out of range for {m} targets");
    }
}

/// Evaluates a similarity matrix against gold targets: `gold[i]` is the
/// column index of source row `i`'s true match.
///
/// Panics with a descriptive message when any gold column is out of range;
/// a zero-column matrix is therefore rejected up front unless `gold` is
/// empty (no rows to rank — all metrics are 0).
pub fn evaluate_ranking(sim: &SimilarityMatrix, gold: &[usize]) -> AlignmentMetrics {
    assert_eq!(sim.shape()[0], gold.len(), "one gold target per source row");
    let m = sim.shape()[1];
    check_gold(gold, m);
    let _span = sdea_obs::span("eval.evaluate_ranking");
    let mut acc = RankAccum::default();
    acc.push_slab(sim.data(), m, gold);
    acc.finish()
}

/// Blocked evaluation: ranks the gold target of every row of `queries`
/// (`gold[i]` is the row of `targets` that is query `i`'s true match),
/// walking the queries in `block_rows`-high blocks (0 means one block).
/// Only one block's similarity slab is resident at a time.
///
/// The result is bit-identical to
/// `evaluate_ranking(&cosine_matrix(queries, targets), gold)` at any block
/// size and thread budget: row normalization and the `matmul_t` kernel are
/// per-row/per-element operations (a block row equals the corresponding
/// full-matrix row bitwise), and [`RankAccum`] replays the same serial f64
/// additions in global row order.
///
/// Panics with a descriptive message on a gold index out of range or a
/// shape mismatch.
pub fn evaluate_blocked(
    queries: &Tensor,
    targets: &Tensor,
    gold: &[usize],
    block_rows: usize,
) -> AlignmentMetrics {
    assert_eq!(queries.rank(), 2, "evaluate_blocked expects rank-2 queries");
    assert_eq!(targets.rank(), 2, "evaluate_blocked expects a rank-2 target table");
    assert_eq!(queries.shape()[0], gold.len(), "one gold target per query row");
    let m = targets.shape()[0];
    assert_eq!(queries.shape()[1], targets.shape()[1], "embedding width mismatch");
    check_gold(gold, m);
    let _span = sdea_obs::span("eval.evaluate_ranking_blocked");
    let n = queries.shape()[0];
    let block = if block_rows == 0 { n.max(1) } else { block_rows };
    // The table is normalized once here, not once per block.
    let table_n = targets.normalized_view();
    let mut acc = RankAccum::default();
    for start in (0..n).step_by(block) {
        let end = (start + block).min(n);
        let q = row_block(queries, start, end);
        sdea_obs::add("eval.cosine_cells", ((end - start) * m) as u64);
        acc.push_slab(q.normalized_view().matmul_t(&table_n).data(), m, &gold[start..end]);
    }
    acc.finish()
}

/// Copies rows `r0..r1` of a rank-2 tensor into a standalone block tensor.
fn row_block(t: &Tensor, r0: usize, r1: usize) -> Tensor {
    let d = t.shape()[1];
    Tensor::from_vec(t.data()[r0 * d..r1 * d].to_vec(), &[r1 - r0, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_matrix;
    use sdea_index::{ExactRetriever, Retriever};
    use sdea_tensor::{with_thread_budget, Rng};

    #[test]
    fn rank_of_basics() {
        assert_eq!(rank_of(&[0.9, 0.5, 0.1], 0), 1);
        assert_eq!(rank_of(&[0.9, 0.5, 0.1], 1), 2);
        assert_eq!(rank_of(&[0.9, 0.5, 0.1], 2), 3);
    }

    #[test]
    fn rank_of_ties_are_stable() {
        // Equal scores: earlier index wins.
        assert_eq!(rank_of(&[0.5, 0.5], 0), 1);
        assert_eq!(rank_of(&[0.5, 0.5], 1), 2);
    }

    #[test]
    fn perfect_ranking_gives_ones() {
        let sim = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        let m = evaluate_ranking(&sim, &[0, 1, 2]);
        assert_eq!(m.hits1, 1.0);
        assert_eq!(m.hits10, 1.0);
        assert_eq!(m.mrr, 1.0);
    }

    #[test]
    fn worst_ranking_metrics() {
        // gold always last of 12 candidates -> rank 12 (> 10)
        let mut data = vec![0.0f32; 12];
        data[..11].iter_mut().enumerate().for_each(|(i, v)| *v = 1.0 + i as f32);
        data[11] = -1.0;
        let sim = Tensor::from_vec(data, &[1, 12]);
        let m = evaluate_ranking(&sim, &[11]);
        assert_eq!(m.hits1, 0.0);
        assert_eq!(m.hits10, 0.0);
        assert!((m.mrr - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn hits1_le_hits10_and_mrr_bounds() {
        // random-ish matrix
        let data: Vec<f32> = (0..50).map(|i| ((i * 37 % 17) as f32).sin()).collect();
        let sim = Tensor::from_vec(data, &[5, 10]);
        let m = evaluate_ranking(&sim, &[3, 1, 4, 0, 9]);
        assert!(m.hits1 <= m.hits10);
        assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        assert!(m.hits1 <= m.mrr + 1e-12, "MRR >= Hits@1 always");
    }

    #[test]
    fn zero_column_matrix_with_no_rows_scores_zero() {
        // Degenerate but valid: nothing to rank, all metrics are 0.
        let sim = Tensor::zeros(&[0, 0]);
        let m = evaluate_ranking(&sim, &[]);
        assert_eq!(m, AlignmentMetrics::default());
    }

    #[test]
    #[should_panic(expected = "gold[0] column 0 out of range for 0 targets")]
    fn zero_column_matrix_with_rows_panics_cleanly() {
        // One source row but no target columns: the gold can never be
        // ranked. Must fail with a descriptive message on the calling
        // thread, not an index panic inside a parallel worker.
        let sim = Tensor::zeros(&[1, 0]);
        evaluate_ranking(&sim, &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 targets")]
    fn out_of_range_gold_panics_cleanly() {
        let sim = Tensor::zeros(&[1, 3]);
        evaluate_ranking(&sim, &[3]);
    }

    #[test]
    #[should_panic(expected = "rank_of: gold index 0 out of range for 0 candidate scores")]
    fn rank_of_empty_scores_panics_cleanly() {
        rank_of(&[], 0);
    }

    #[test]
    fn nan_gold_ranks_last_not_first() {
        // Regression: a NaN gold used to rank 1 because no score compares
        // greater than NaN. Under the NaN-last convention it ranks behind
        // every real candidate.
        assert_eq!(rank_of(&[0.9, f32::NAN, 0.1], 1), 3);
        // NaN candidates never outrank a real gold.
        assert_eq!(rank_of(&[f32::NAN, 0.5, f32::NAN], 1), 1);
        // NaN gold among NaN candidates: index tie-break.
        assert_eq!(rank_of(&[f32::NAN, f32::NAN], 1), 2);
    }

    #[test]
    fn evaluate_ranking_with_nan_rows_never_panics() {
        // Row 0: gold is NaN -> worst rank (3). Row 1: gold real, a NaN
        // competitor is ignored -> rank 1.
        let sim = Tensor::from_vec(vec![0.9, f32::NAN, 0.1, f32::NAN, 0.8, 0.2], &[2, 3]);
        let m = evaluate_ranking(&sim, &[1, 1]);
        assert!((m.hits1 - 0.5).abs() < 1e-12);
        assert!((m.mrr - (1.0 / 3.0 + 1.0) / 2.0).abs() < 1e-12);
    }

    fn assert_bitwise(a: &AlignmentMetrics, b: &AlignmentMetrics, ctx: &str) {
        assert_eq!(a.hits1.to_bits(), b.hits1.to_bits(), "{ctx}: hits1");
        assert_eq!(a.hits10.to_bits(), b.hits10.to_bits(), "{ctx}: hits10");
        assert_eq!(a.mrr.to_bits(), b.mrr.to_bits(), "{ctx}: mrr");
    }

    fn random_pair() -> (Tensor, Tensor, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(9);
        let src = Tensor::rand_normal(&[30, 8], 1.0, &mut rng);
        let tgt = Tensor::rand_normal(&[40, 8], 1.0, &mut rng);
        let gold: Vec<usize> = (0..30).map(|i| (i * 7) % 40).collect();
        (src, tgt, gold)
    }

    /// The oracle test: the blocked driver, at every block height and
    /// thread budget, is bitwise the full-matrix evaluation.
    #[test]
    fn evaluate_blocked_matches_the_matrix_oracle() {
        let (src, tgt, gold) = random_pair();
        let oracle = evaluate_ranking(&cosine_matrix(&src, &tgt), &gold);
        for threads in [1usize, 8] {
            for block in [0usize, 1, 7, 30] {
                let got =
                    with_thread_budget(threads, || evaluate_blocked(&src, &tgt, &gold, block));
                assert_bitwise(&oracle, &got, &format!("block {block}, threads {threads}"));
            }
        }
    }

    /// Regression (serving hardening): zero-norm embedding rows — e.g. an
    /// empty attribute text after normalization — must behave identically
    /// in the matrix path and the exact retriever, and can never push
    /// NaN into MRR. The convention ([`Tensor::normalized_view`]) is that
    /// a zero row's cosine against anything is exactly `0.0`.
    #[test]
    fn zero_norm_rows_agree_across_paths_and_keep_mrr_finite() {
        // src row 1 and tgt rows 0, 2 are all-zero.
        let src = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.6, 0.8], &[3, 2]);
        let tgt =
            Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0], &[5, 2]);
        let gold = vec![1, 0, 4];
        let sim = cosine_matrix(&src, &tgt);
        // Zero rows and zero columns score exactly 0.0 — bitwise, not NaN.
        for j in 0..5 {
            assert_eq!(sim.row(1)[j].to_bits(), 0.0f32.to_bits(), "zero query vs target {j}");
        }
        for (i, row) in (0..3).map(|i| sim.row(i)).enumerate() {
            assert_eq!(row[0].to_bits(), 0.0f32.to_bits(), "query {i} vs zero target");
            assert_eq!(row[2].to_bits(), 0.0f32.to_bits(), "query {i} vs zero target");
        }
        let via_matrix = evaluate_ranking(&sim, &gold);
        assert!(via_matrix.mrr.is_finite() && via_matrix.mrr > 0.0, "MRR must stay finite");
        // Exact retrieval: every hit's score bitwise equals its matrix cell.
        for (i, hits) in ExactRetriever::new(&tgt).search(&src, 5).iter().enumerate() {
            assert_eq!(hits.len(), 5, "query {i} sees every target");
            for &(j, s) in hits {
                assert_eq!(s.to_bits(), sim.row(i)[j].to_bits(), "query {i} target {j}");
            }
        }
    }

    /// An all-zero gold row still ranks deterministically: every score in
    /// its row is an exact 0.0 tie, so rank falls back to index order.
    #[test]
    fn all_zero_query_row_ranks_by_index_ties() {
        let src = Tensor::zeros(&[1, 3]);
        let tgt = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        let sim = cosine_matrix(&src, &tgt);
        assert_eq!(rank_of(sim.row(0), 0), 1);
        assert_eq!(rank_of(sim.row(0), 1), 2);
        let m = evaluate_ranking(&sim, &[1]);
        assert!(m.mrr.is_finite());
        assert!((m.mrr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_row_format() {
        let m = AlignmentMetrics { hits1: 0.87, hits10: 0.966, mrr: 0.91 };
        assert_eq!(m.paper_row(), " 87.0  96.6 0.91");
    }
}
