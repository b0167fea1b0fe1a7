//! # sdea-index
//!
//! The retrieval abstraction layer: negative-candidate generation,
//! bootstrap mutual-nearest pairs and serving retrieve target entities
//! through the [`Retriever`] trait instead of materializing and scanning a
//! full `n×m` similarity matrix themselves.
//!
//! Two interchangeable backends:
//!
//! * [`ExactRetriever`] — a thin wrapper over the blocked cosine matmul
//!   (`normalized_view` + `matmul_t` + per-row top-k). Its scores are the
//!   cells of `sdea_eval::cosine_matrix`, bit for bit.
//! * [`IvfRetriever`] — IVF-style coarse clustering: a deterministic
//!   seeded k-means over the L2-normalized table assigns every row to one
//!   of `nlist` clusters; a query probes the `nprobe` nearest centroids and
//!   scores only their members. With `quantize`, the member scan runs over
//!   an int8 scalar-quantized store ([`sdea_tensor::qkernels`], ~4x memory
//!   cut) and the quantized shortlist is re-scored exactly in `f32`. With
//!   `nprobe = 0` (= all clusters) the search bypasses to the exact scan,
//!   so results are bit-identical to [`ExactRetriever`] at any
//!   `SDEA_THREADS` budget — the equivalence suite asserts this bitwise.
//!
//! Scores are always cosine similarities; ordering and NaN handling follow
//! the workspace-wide [`desc_nan_last`] total order (ties broken by lower
//! index). Built IVF structures persist as `SDIX` blobs through the same
//! atomic container format as checkpoints (see [`ivf`]).

#![forbid(unsafe_code)]

pub mod exact;
pub mod ivf;

pub use exact::ExactRetriever;
pub use ivf::{IvfRetriever, INDEX_KIND};
use sdea_tensor::{desc_nan_last, Tensor};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// One retrieval result: `(row index into the indexed table, cosine score)`.
pub type Hit = (usize, f32);

/// Which retrieval backend to build.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact blocked cosine scan — today's behaviour, bit-for-bit.
    Exact,
    /// IVF coarse clustering with optional int8 quantized member scan.
    Ivf,
}

/// Retrieval configuration, carried by `SdeaConfig::index`.
///
/// The default (`Exact`) reproduces the historical brute-force paths
/// exactly; `Ivf` trades recall for sub-linear candidate scans. Because an
/// approximate index changes which negatives and bootstrap pairs training
/// sees, this struct participates in the checkpoint config fingerprint —
/// it is a result-shaping hyper-parameter, not an execution knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Backend selector.
    pub kind: IndexKind,
    /// Number of k-means clusters; `0` = auto (`⌈√n⌉`, clamped to `n`).
    pub nlist: usize,
    /// Clusters probed per query; `0` = all (exact search, the default).
    pub nprobe: usize,
    /// Scan cluster members through the int8 quantized store, re-scoring
    /// the shortlist exactly in `f32`. Irrelevant while `nprobe` = all.
    pub quantize: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig { kind: IndexKind::Exact, nlist: 0, nprobe: 0, quantize: false }
    }
}

impl IndexConfig {
    /// The effective cluster count for a table of `n` rows: the configured
    /// `nlist` (clamped to `n`), or `⌈√n⌉` when 0.
    pub fn effective_nlist(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let auto = (n as f64).sqrt().ceil() as usize;
        let raw = if self.nlist == 0 { auto } else { self.nlist };
        raw.clamp(1, n)
    }

    /// The effective probe count against `nlist` clusters; `0` = all.
    pub fn effective_nprobe(&self, nlist: usize) -> usize {
        if self.nprobe == 0 {
            nlist
        } else {
            self.nprobe.min(nlist)
        }
    }
}

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

/// Builds the retriever selected by `cfg` over `emb: [n, d]`.
pub fn build_retriever(emb: &Tensor, cfg: &IndexConfig) -> Box<dyn Retriever> {
    match cfg.kind {
        IndexKind::Exact => Box::new(ExactRetriever::new(emb)),
        IndexKind::Ivf => Box::new(IvfRetriever::build(emb, cfg)),
    }
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

/// Pre-registered observability counters for the retrieval layer, so hot
/// search loops pay one atomic add per event and no registry lock.
pub(crate) struct Counters {
    /// Clusters probed across all IVF queries.
    pub probes: sdea_obs::Counter,
    /// Candidate rows gathered from probed clusters before any re-scoring.
    pub shortlist_len: sdea_obs::Counter,
    /// Rows scored exactly in `f32` (shortlist re-scores and exact scans).
    pub exact_rescored: sdea_obs::Counter,
}

pub(crate) fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(|| Counters {
        probes: sdea_obs::counter("index.probes"),
        shortlist_len: sdea_obs::counter("index.shortlist_len"),
        exact_rescored: sdea_obs::counter("index.exact_rescored"),
    })
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
    }

    #[test]
    fn top_k_scored_ranks_nan_last() {
        let scores = [0.2, f32::NAN, 0.9, f32::NAN, -0.5];
        let idx: Vec<usize> = top_k_scored(&scores, 5).into_iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2, 0, 4, 1, 3]);
    }

    #[test]
    fn effective_parameters_clamp() {
        let cfg = IndexConfig { kind: IndexKind::Ivf, nlist: 0, nprobe: 0, quantize: false };
        assert_eq!(cfg.effective_nlist(100), 10);
        assert_eq!(cfg.effective_nlist(0), 0);
        assert_eq!(cfg.effective_nprobe(10), 10, "nprobe 0 probes everything");
        let cfg = IndexConfig { nlist: 64, nprobe: 99, ..cfg };
        assert_eq!(cfg.effective_nlist(16), 16, "nlist clamps to n");
        assert_eq!(cfg.effective_nprobe(8), 8, "nprobe clamps to nlist");
    }

    #[test]
    fn default_config_is_exact() {
        assert_eq!(IndexConfig::default().kind, IndexKind::Exact);
    }
}
