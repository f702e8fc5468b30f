//! Runtime substrate for the `mfaplace` workspace: deterministic random
//! numbers, a scoped thread pool, and lightweight instrumentation — with
//! **zero external dependencies**.
//!
//! The workspace builds in fully offline environments, so everything the
//! crates used to pull from crates.io (`rand`, `proptest`, `criterion`) is
//! provided here from `std` alone:
//!
//! - [`rng`] — a seedable xoshiro256\*\*/SplitMix64 generator exposing the
//!   small sampling surface the workspace actually uses (`gen_range`,
//!   uniform/normal `f32` sampling, `seed_from_u64`, stream splitting for
//!   per-worker reproducibility).
//! - [`pool`] — a scoped `std::thread` worker pool and the one fan-out
//!   policy of the kernels (`split`: a threshold per kind of work, then
//!   the thread count capped at the units), with a serial fallback. The
//!   thread count is resolved once, at the first parallel decision, from
//!   the `MFAPLACE_THREADS` env override or
//!   `std::thread::available_parallelism`. Kernels dispatched through it
//!   are **bitwise identical** to their serial versions: work is split
//!   into disjoint output chunks and the per-element reduction order is
//!   never changed.
//! - [`timer`] — RAII scope timers and counters feeding a per-run report
//!   (text or JSON).
//! - [`check`] — a shrink-free randomized-test harness (fixed seeds,
//!   per-case logging) that replaces the former `proptest` suites.
//! - [`bench`] — a warmup + median-of-N microbenchmark harness on
//!   `std::time::Instant` that replaces the former `criterion` benches.
//!
//! # Example
//!
//! ```
//! use mfaplace_rt::rng::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x = rng.gen_range(0.0f32..1.0);
//! assert!((0.0..1.0).contains(&x));
//!
//! // Identical seeds give identical sequences.
//! let mut a = StdRng::seed_from_u64(1);
//! let mut b = StdRng::seed_from_u64(1);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

pub mod bench;
pub mod check;
pub mod pool;
pub mod rng;
pub mod timer;
