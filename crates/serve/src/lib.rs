//! `mfaplace-serve` — a zero-external-dependency inference service for
//! the congestion-prediction models, built directly on `std::net`.
//!
//! # Architecture
//!
//! ```text
//! client ──HTTP/1.1──▶ accept loop ──▶ handler thread (per connection)
//!                                          │ route by slot name
//!                                          │ (header/path; default slot)
//!                                          ▼
//!                                     ModelFleet
//!                              ┌─────────┴─────────┐
//!                        slot "a"              slot "b"     …
//!                  bounded queue (429)    bounded queue (429)
//!                          │                    │
//!                  micro-batch worker    micro-batch worker
//!                          │ one [N,6,H,W] forward each
//!                          ▼                    ▼
//!                  ModelSlot (hot-…)     ModelSlot (hot-reloadable)
//!                          └────────┬───────────┘
//!                       shared byte-bounded PlanCache
//!                     (keyed by checkpoint content hash)
//! ```
//!
//! - [`http`] — minimal HTTP/1.1 parsing/serialization with hard limits.
//! - [`protocol`] — binary wire formats for feature stacks and level
//!   maps, plus server-side featurization of textual design+placement.
//! - [`batcher`] — bounded queue, dynamic micro-batcher, deadlines,
//!   graceful drain, and the hot-swappable [`batcher::ModelSlot`].
//! - [`fleet`] — the [`fleet::ModelFleet`] registry: named slots, per-
//!   tenant admission control, shared compiled-plan cache, zero-downtime
//!   add/remove/reload.
//! - [`metrics`] — request/batch/latency events recorded, slot state and
//!   plan-cache counters read from their owners at scrape time, rendered
//!   as plaintext `GET /metrics` — fleet-wide families plus per-slot
//!   `mfaplace_slot_*` families and `mfaplace_plan_cache_*` gauges.
//! - [`server`] — the TCP front end and endpoint routing.
//! - [`client`] — a matching blocking client for the CLI and tests.
//!
//! Batching never changes results: batched forwards are bitwise
//! identical per sample to single-item inference (asserted by tests in
//! `mfaplace-core` and in this crate).

pub mod batcher;
pub mod client;
pub mod fleet;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batcher::{
    BatchConfig, Batcher, JobError, ModelSlot, SlotStatus, SubmitError, DEFAULT_SLOT,
};
pub use fleet::{FleetSlot, ModelFleet, SlotLimits};
pub use metrics::{Metrics, SlotMetrics};
pub use server::{
    serve, serve_fleet, serve_fleet_with, ExtensionOutcome, ServeConfig, ServeExtension,
    ServerHandle,
};
