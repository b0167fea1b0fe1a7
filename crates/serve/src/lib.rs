//! # sdea-serve
//!
//! Alignment-as-a-service: an online inference server over a trained SDEA
//! model. Training (`sdea align`) exports two artifacts — the embedding
//! tables (`--out`) and the query encoder (`--encoder-out`); this crate
//! loads both, scans the KG2 attribute table with
//! [`sdea_index::ExactRetriever`], and answers alignment queries over
//! HTTP/1.1:
//!
//! * `POST /v1/align` — `{"text": "...", "k": 5}` in, top-k candidate
//!   entities with cosine scores out.
//! * `GET /healthz` — liveness.
//! * `GET /metrics` — the [`sdea_obs`] registry (counters, span timings,
//!   latency histograms) as JSON.
//! * `POST /admin/shutdown` — graceful shutdown: drains in-flight
//!   requests and the batch queue, then exits.
//!
//! The interesting part is the [`batcher`]: concurrent requests coalesce
//! into one embed forward without changing any result bitwise. Like the
//! rest of the workspace this crate has zero external dependencies — the
//! HTTP layer is ~150 lines over [`std::net`].

#![forbid(unsafe_code)]

pub mod batcher;
pub mod http;
pub mod server;
pub mod state;

pub use batcher::{BatchConfig, Batcher, SubmitError};
pub use server::{Server, ShutdownHandle};
pub use state::{ModelState, ServeState};
