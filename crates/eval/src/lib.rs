//! # sdea-eval
//!
//! Evaluation metrics and similarity computation for entity alignment.
//!
//! Implements the paper's protocol (Section V-A2): for each source entity,
//! target entities are ranked by cosine similarity of their embeddings; the
//! reported metrics are Hits@1, Hits@10 and MRR over the test seed links.
//! [`evaluate_ranking`] scores a pre-computed similarity matrix;
//! [`evaluate_blocked`] ranks query embeddings block by block against the
//! target table, bitwise equal to the matrix path without ever building
//! the matrix. Also provides paper-style table formatting and string
//! similarity helpers.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod report;
pub mod similarity;
pub mod strings;

pub use metrics::{evaluate_blocked, evaluate_ranking, rank_of, AlignmentMetrics};
pub use report::{format_table, TableRow};
pub use similarity::{
    argsort_rows_desc, cosine_matrix, desc_nan_last, top_k_indices, SimilarityMatrix,
};
