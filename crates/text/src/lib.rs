//! # sdea-text
//!
//! Tokenization substrate for the SDEA entity-alignment system.
//!
//! The paper feeds entity attribute values into BERT, which uses a WordPiece
//! subword vocabulary. This crate provides the equivalent pipeline from
//! scratch: a rule-based pre-tokenizer ([`pretokenize()`]), a trainable
//! subword vocabulary ([`wordpiece`], trained with BPE-style merges and
//! encoded with WordPiece greedy longest-match), and fixed-length encoding
//! with special tokens ([`encode`]).
//!
//! ```
//! use sdea_text::{WordPieceTrainer, Tokenizer};
//!
//! let corpus = ["cristiano ronaldo plays for real madrid", "ronaldo was born in portugal"];
//! let vocab = WordPieceTrainer::new(200).train(corpus.iter().copied());
//! let tok = Tokenizer::new(vocab);
//! let enc = tok.encode("ronaldo of portugal", 16);
//! assert_eq!(enc.ids.len(), 16);
//! assert_eq!(enc.ids[0], tok.vocab().cls_id());
//! ```

#![forbid(unsafe_code)]

pub mod encode;
pub mod pretokenize;
pub mod vocab;
pub mod wordpiece;

pub use encode::{Encoded, Tokenizer};
pub use pretokenize::pretokenize;
pub use vocab::{SpecialToken, Vocab};
pub use wordpiece::WordPieceTrainer;
