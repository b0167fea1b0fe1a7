//! # sdea-core
//!
//! SDEA — *Semantics Driven embedding learning for effective Entity
//! Alignment* (Zhong et al., ICDE 2022) — the paper's primary contribution.
//!
//! The pipeline (paper Fig. 3):
//!
//! 1. **Attribute sequences** ([`attr_seq`], Algorithm 1): all attribute
//!    values of an entity are concatenated in one globally fixed attribute
//!    order into a token sequence.
//! 2. **Attribute embedding module** ([`attr_module`], Eq. 5–7): a
//!    pre-trained transformer encodes the sequence; the `[CLS]` state passes
//!    through an MLP to give `H_a(e)`. Fine-tuned with a margin-based
//!    ranking loss over seed alignments, negatives drawn from a
//!    nearest-neighbour candidate set (Algorithm 2).
//! 3. **Relation embedding module** ([`rel_module`], Eq. 8–15): a BiGRU
//!    runs over the attribute embeddings of an entity's neighbours; a
//!    global attention vector scores each neighbour and `H_r(e)` is the
//!    attention-weighted sum.
//! 4. **Joint representation** ([`joint`], Eq. 16–17):
//!    `H_m = MLP([H_a; H_r])`, final `H_ent = [H_r; H_a; H_m]`; the relation
//!    stage trains on `[H_r; H_m]` with the same loss (Algorithm 3).
//! 5. **Alignment** ([`align`]): cosine ranking of target entities, with
//!    optional Gale–Shapley stable matching for 1-1 output.
//!
//! [`pipeline::SdeaPipeline`] wires everything end-to-end against any pair
//! of [`sdea_kg::KnowledgeGraph`]s with seed alignments.

#![forbid(unsafe_code)]

pub mod align;
pub mod attr_module;
pub mod attr_seq;
pub mod bootstrap;
pub mod candidates;
pub mod checkpoint;
pub mod config;
pub mod encoder_io;
pub mod joint;
pub mod loss;
pub mod model_io;
pub mod numeric;
pub mod pipeline;
pub mod rel_module;
pub mod trainer;

pub use align::{stable_matching, AlignmentResult};
pub use attr_module::AttrModule;
pub use attr_seq::AttrSequencer;
pub use candidates::CandidateSet;
pub use checkpoint::Checkpointer;
pub use config::SdeaConfig;
pub use pipeline::{SdeaModel, SdeaPipeline};
pub use rel_module::RelModule;
