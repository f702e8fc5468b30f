//! Tape-based reverse-mode automatic differentiation for the `mfaplace`
//! deep-learning stack.
//!
//! The design is an *arena tape*: a [`Graph`] owns every node (parameters,
//! constants and intermediate activations) in creation order, which is a
//! topological order of the computation DAG. Backpropagation walks the tape
//! in reverse. Parameters are created once and persist; per-step activations
//! are discarded with [`Graph::truncate`] after each optimizer step:
//!
//! ```
//! use mfaplace_autograd::Graph;
//! use mfaplace_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let w = g.param(Tensor::from_vec(vec![1], vec![3.0])?);
//! for _ in 0..5 {
//!     let mark = g.mark();
//!     let x = g.constant(Tensor::from_vec(vec![1], vec![2.0])?);
//!     let y = g.mul(w, x);           // y = w * x
//!     let loss = g.mean(y);          // dL/dw = x = 2
//!     g.zero_grads();
//!     g.backward(loss);
//!     assert_eq!(g.grad(w).unwrap().data(), &[2.0]);
//!     // gradient step
//!     let gw = g.grad(w).unwrap().clone();
//!     g.value_mut(w).add_scaled_assign(&gw, -0.1);
//!     g.truncate(mark);
//! }
//! # Ok::<(), mfaplace_tensor::TensorError>(())
//! ```
//!
//! Every primitive's gradient is verified against central finite differences
//! in this crate's test-suite (see [`gradcheck`]).

pub mod gradcheck;
mod graph;
mod recycle;

pub use graph::{Graph, OpTime, TapeOp, Var};
pub use recycle::BufferPool;
