//! # sdea-tensor
//!
//! Dense `f32` tensors with reverse-mode automatic differentiation, written
//! from scratch for the SDEA entity-alignment system.
//!
//! The paper's models (a BERT-style transformer, a bidirectional GRU with
//! attention, GCN/GAT/TransE baselines) all train on CPU through this crate.
//! The design is a classic *tape*: every operation appends a node to a
//! [`Graph`]; [`Graph::backward`] walks the tape in reverse and accumulates
//! gradients. Model parameters live in a [`ParamStore`] so the same weights
//! persist across many short-lived tapes (one per training step).
//!
//! ```
//! use sdea_tensor::{Graph, Tensor};
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]), true);
//! let w = g.leaf(Tensor::from_vec(vec![0.5, -1.0, 1.5, 2.0], &[2, 2]), true);
//! let y = g.matmul(x, w);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! let gx = g.grad(x).unwrap();
//! assert_eq!(gx.shape(), &[1, 2]);
//! ```

#![forbid(unsafe_code)]

pub mod fault;
pub mod graph;
pub mod init;
pub mod kernels;
pub mod ops_fused;
pub mod ops_nn;
pub mod ops_shape;
pub mod optim;
pub mod ord;
pub mod par;
pub mod pool;
pub mod rng;
pub mod serialize;
pub mod sparse;
pub mod tensor;

pub use graph::{Graph, Var};
pub use optim::{Adam, GradClip, Optimizer, ParamId, ParamStore, Sgd};
pub use ord::desc_nan_last;
pub use par::{
    fanouts_on_this_thread, max_threads, par_map_collect, par_row_chunks, set_thread_budget,
    with_thread_budget,
};
pub use pool::BufferPool;
pub use rng::Rng;
pub use sparse::CsrMatrix;
pub use tensor::Tensor;
