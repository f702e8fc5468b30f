//! Compiled inference plans for the `mfaplace` model zoo.
//!
//! The dynamic autograd tape re-derives shapes, re-allocates node storage
//! and re-walks Rust control flow on every forward. This crate removes all
//! of that from the inference hot path: one tape recording of a model
//! forward is captured into a [`Plan`] — a topologically ordered op list
//! with fixed shapes — which [`run_plan`] then replays serially, in capture
//! order, with **zero heap allocations per forward** from a single
//! liveness-packed arena.
//!
//! Compilation additionally fuses `conv → bias → channel-affine → relu`
//! chains and `add → relu` pairs into single kernels (the fused epilogues
//! already exist in `mfaplace-tensor`). [`Plan::quantize`] lowers a
//! captured plan to int8 storage and int8 GEMMs given an offline
//! [`Calibration`]; the result is another [`Plan`], run the same way.
//!
//! The contract, enforced by this crate's equivalence suite: plan outputs
//! are **bitwise identical** to the tape forward for every zoo
//! architecture.
//!
//! ```
//! use mfaplace_autograd::Graph;
//! use mfaplace_infer::{run_plan, Plan};
//! use mfaplace_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! g.set_grad_enabled(false);
//! let w = g.param(Tensor::from_vec(vec![1, 1, 1, 1], vec![2.0])?);
//! let mark = g.mark();
//! let x = g.constant(Tensor::zeros(vec![1, 1, 2, 2]));
//! let y = g.conv2d(x, w, 1, 0);
//! let y = g.relu(y);
//! let plan = Plan::capture(&g, mark, x, y).unwrap();
//! let mut arena = Vec::new();
//! let out = run_plan(&plan, &mut arena, &[1.0, -1.0, 0.5, 0.0]);
//! assert_eq!(out, &[2.0, 0.0, 1.0, 0.0]);
//! # Ok::<(), mfaplace_tensor::TensorError>(())
//! ```

mod cache;
mod exec;
mod plan;
mod quant;

pub use cache::{
    PlanCache, PlanCacheStats, PlanKey, PlanPrecision, PlanSource, DEFAULT_PLAN_CACHE_BYTES,
};
pub use exec::{profile_plan, run_plan, PlanProfile, StepProfile};
pub use plan::{Plan, PlanStats, StepCost};
pub use quant::{Calibration, QuantOptions, QuantStats};
