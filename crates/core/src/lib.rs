//! End-to-end pipeline of the `mfaplace` reproduction.
//!
//! Ties the substrates together:
//!
//! - [`dataset`] — placement sweeps per design, feature/label extraction
//!   and the paper's rotation augmentation (Sec. V-A);
//! - [`metrics`] — ACC, R^2 and NRMS (Sec. V-B);
//! - [`train`] — the Adam training loop over any [`mfaplace_models::CongestionModel`];
//! - [`predictor`] — adapts a trained model to the placer's
//!   [`mfaplace_placer::CongestionPredictor`] interface;
//! - [`flow`] — the complete routability-driven macro placement flow
//!   (Fig. 6) with routing, scoring and the simulated `T_P&R` (Sec. V-C);
//! - [`report`] — fixed-width table rendering for the Table I/II harnesses.

pub mod compile;
pub mod dataset;
pub mod flow;
pub mod loader;
pub mod metrics;
pub mod predictor;
pub mod report;
pub mod train;

pub use compile::{compile_for_serving, is_artifact, read_artifact, Artifact, CompileReport};
pub use dataset::{Dataset, DatasetConfig, Sample};
pub use flow::{FlowConfig, FlowOutcome, FlowProgress, MacroPlacementFlow};
pub use loader::{
    content_hash, load_predictor, load_predictor_with_cache, save_predictor, LoadOptions,
};
// Re-exported so downstream crates (serve, CLI) can share plan caches
// without depending on `mfaplace-infer` directly.
pub use metrics::{accuracy, nrms, r_squared, ConfusionMatrix, PredictionMetrics};
pub use mfaplace_infer::{
    Calibration, PlanCache, PlanCacheStats, PlanKey, PlanPrecision, PlanSource, QuantOptions,
    QuantStats,
};
pub use predictor::{Engine, ModelPredictor, PredictorStatus};
pub use train::{TrainConfig, TrainReport, Trainer};
