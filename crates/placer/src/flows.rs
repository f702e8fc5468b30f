//! Complete macro-placement flows (Fig. 6 of the paper).
//!
//! Every flow follows the same skeleton — cascade merging, region-aware
//! global placement, congestion prediction + instance inflation once the
//! overflow targets are met, refinement, and legalization — but differs in
//! *how congestion is predicted* and in its tuning:
//!
//! - [`FlowConfig::model_driven`] — the paper's flow: a learned congestion
//!   model (any [`CongestionPredictor`]) replaces RUDY;
//! - [`FlowConfig::utda_like`] — the UTDA contest winner \[11\]: RUDY-based
//!   analytical inflation, aggressive and cheap;
//! - [`FlowConfig::seu_like`] — the SEU entry: tuned RUDY inflation with
//!   stronger spreading;
//! - [`FlowConfig::mpku_like`] — MPKU-Improve \[16\]: multi-electrostatic-
//!   flavoured (more spreading iterations, lower overflow targets) with
//!   moderate RUDY inflation.

use std::time::Instant;

use mfaplace_fpga::design::Design;
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::gridmap::GridMap;
use mfaplace_fpga::placement::Placement;

use crate::gp::{GlobalPlacer, GpConfig, Overflow};
use crate::inflate::{inflate_areas, InflationConfig, InflationStats};
use crate::legal::{legalize_cells, legalize_macros, LegalizeError};

/// Predicts a congestion-*level* map for the current placement snapshot.
///
/// Implementations: [`RudyPredictor`] (analytical baseline) here, and the
/// learned-model predictor in `mfaplace-core` (which wraps the trained
/// MFA+transformer network).
pub trait CongestionPredictor {
    /// Returns a `grid_w x grid_h` map in congestion-level units
    /// (comparable to the router's levels, `0..=7`).
    fn predict(
        &mut self,
        design: &Design,
        placement: &Placement,
        grid_w: usize,
        grid_h: usize,
    ) -> GridMap;

    /// Human-readable predictor name (for reports).
    fn name(&self) -> &str {
        "predictor"
    }
}

/// The RUDY-based analytical predictor used by the contest winners: maps
/// normalized RUDY demand linearly onto the congestion-level scale. RUDY
/// tracks *demand*, not realized congestion, so it systematically smears
/// hotspots — the effect the paper's learned model corrects.
#[derive(Debug, Clone)]
pub struct RudyPredictor {
    /// Level assigned to the peak RUDY cell.
    pub peak_level: f32,
    /// Blend weight of the pin-density term.
    pub pin_weight: f32,
}

impl Default for RudyPredictor {
    fn default() -> Self {
        RudyPredictor {
            peak_level: 7.0,
            pin_weight: 0.25,
        }
    }
}

impl CongestionPredictor for RudyPredictor {
    fn predict(
        &mut self,
        design: &Design,
        placement: &Placement,
        grid_w: usize,
        grid_h: usize,
    ) -> GridMap {
        let features = FeatureStack::extract(design, placement, grid_w, grid_h);
        let mut out = GridMap::new(grid_w, grid_h);
        for i in 0..grid_w * grid_h {
            let demand = (1.0 - self.pin_weight) * features.rudy.data()[i]
                + self.pin_weight * features.pin_rudy.data()[i];
            out.data_mut()[i] = demand * self.peak_level;
        }
        out
    }

    fn name(&self) -> &str {
        "rudy"
    }
}

/// Full flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Display name (team analogue).
    pub name: String,
    /// Stage-1 (pre-inflation) placer settings.
    pub gp_stage1: GpConfig,
    /// Stage-2 (post-inflation) placer settings.
    pub gp_stage2: GpConfig,
    /// Inflation parameters.
    pub inflation: InflationConfig,
    /// Congestion grid used for prediction and inflation.
    pub grid_w: usize,
    /// Congestion grid height.
    pub grid_h: usize,
    /// Number of predict-inflate-refine rounds.
    pub inflation_rounds: usize,
    /// Detailed-placement refinement sweeps after legalization.
    pub refine_passes: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::model_driven()
    }
}

impl FlowConfig {
    fn base(name: &str) -> Self {
        FlowConfig {
            name: name.to_string(),
            gp_stage1: GpConfig::default(),
            gp_stage2: GpConfig {
                iterations: 25,
                ..GpConfig::default()
            },
            inflation: InflationConfig::default(),
            grid_w: 64,
            grid_h: 64,
            inflation_rounds: 1,
            refine_passes: 1,
        }
    }

    /// The paper's model-driven flow: accurate level-scale prediction allows
    /// targeted inflation and two refinement rounds.
    pub fn model_driven() -> Self {
        let mut cfg = FlowConfig::base("Ours");
        cfg.inflation_rounds = 2;
        cfg.gp_stage2.density_step = 1.4;
        cfg
    }

    /// UTDA-like baseline \[11\]: plain RUDY inflation, fewer spreading
    /// iterations (fast, congestion-prone).
    pub fn utda_like() -> Self {
        let mut cfg = FlowConfig::base("UTDA");
        cfg.gp_stage1.iterations = 35;
        cfg.gp_stage1.density_step = 0.9;
        cfg.gp_stage2.iterations = 15;
        cfg.gp_stage2.density_step = 0.9;
        cfg.inflation = InflationConfig {
            epsilon: 3.0,
            ..InflationConfig::default()
        };
        cfg
    }

    /// SEU-like baseline: tuned RUDY inflation with stronger spreading.
    pub fn seu_like() -> Self {
        let mut cfg = FlowConfig::base("SEU");
        cfg.gp_stage1.density_step = 1.1;
        cfg.gp_stage2.iterations = 20;
        cfg.inflation = InflationConfig {
            epsilon: 4.5,
            ..InflationConfig::default()
        };
        cfg
    }

    /// MPKU-Improve-like baseline \[16\]: multi-electrostatics flavour —
    /// longer spreading with tighter overflow targets and moderate RUDY
    /// inflation.
    pub fn mpku_like() -> Self {
        let mut cfg = FlowConfig::base("MPKU-Improve");
        cfg.gp_stage1.iterations = 80;
        cfg.gp_stage1.target_overflow_macro = 0.20;
        cfg.gp_stage1.target_overflow_cell = 0.12;
        cfg.gp_stage2.iterations = 30;
        cfg.inflation = InflationConfig {
            epsilon: 5.0,
            ..InflationConfig::default()
        };
        cfg
    }
}

/// A progress event emitted by an observed placement flow.
///
/// Events carry only values derived deterministically from the placement
/// state — no wall-clock timestamps — so two runs with the same design,
/// seed and predictor produce bitwise-identical event sequences.
#[derive(Debug, Clone)]
pub enum FlowEvent {
    /// A GP stage is starting. `stage` is 1 for the pre-inflation stage and
    /// 2 for each post-inflation stage.
    StageStart {
        /// Stage number (1 or 2).
        stage: usize,
        /// Iteration budget for the stage.
        iterations: usize,
    },
    /// One global-placement iteration finished.
    GpIteration {
        /// Stage number (1 or 2).
        stage: usize,
        /// Zero-based iteration index within the stage.
        iteration: usize,
        /// HPWL of the current (unlegalized) placement.
        hpwl: f64,
        /// Per-type overflow after the iteration.
        overflow: Overflow,
    },
    /// The congestion predictor ran on a placement snapshot.
    Predicted {
        /// Zero-based inflation round.
        round: usize,
        /// Mean predicted congestion level over the grid.
        mean_level: f32,
        /// Peak predicted congestion level.
        max_level: f32,
        /// Tiles at or above level 4 (the "hot" half of the 0..=7 scale).
        hot_tiles: usize,
    },
    /// Instance areas were inflated from the prediction.
    Inflated {
        /// Zero-based inflation round.
        round: usize,
        /// Inflation statistics for the round.
        stats: InflationStats,
    },
    /// Macro and cell legalization (plus refinement) completed.
    Legalized {
        /// HPWL of the final legalized placement.
        hpwl: f64,
    },
}

/// An observed flow was aborted by its observer (e.g. job cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowAborted;

impl std::fmt::Display for FlowAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow aborted by observer")
    }
}

impl std::error::Error for FlowAborted {}

/// Outcome of a placement flow.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// The legalized placement.
    pub placement: Placement,
    /// Macro-placement wall-clock time in minutes (the contest's
    /// `T_macro`).
    pub t_macro_min: f64,
    /// Overflow after the final stage.
    pub final_overflow: Overflow,
    /// Inflation statistics per round.
    pub inflation: Vec<InflationStats>,
    /// Stage-1 iterations used.
    pub stage1_iterations: usize,
}

/// Runs a complete macro-placement flow.
#[derive(Debug, Clone)]
pub struct PlacementFlow {
    config: FlowConfig,
}

impl PlacementFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        PlacementFlow { config }
    }

    /// The flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the flow: stage-1 GP, predict + inflate rounds, stage-2 GP,
    /// legalization.
    ///
    /// # Panics
    ///
    /// Panics if macro legalization fails (generated designs always fit).
    pub fn run(
        &self,
        design: &Design,
        predictor: &mut dyn CongestionPredictor,
        seed: u64,
    ) -> PlacementResult {
        self.run_inner(design, predictor, seed, None)
            .expect("unobserved runs never abort")
    }

    /// Like [`run`](Self::run), but emits a [`FlowEvent`] after every GP
    /// iteration, prediction, inflation round and legalization. The
    /// observer only reads derived values, so an observed run is bitwise
    /// identical to an unobserved one. If `observe` returns `false` the
    /// flow stops at the next event boundary and returns
    /// `Err(FlowAborted)`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowAborted`] when the observer requests an abort.
    ///
    /// # Panics
    ///
    /// Panics if macro legalization fails (generated designs always fit).
    pub fn run_observed(
        &self,
        design: &Design,
        predictor: &mut dyn CongestionPredictor,
        seed: u64,
        observe: &mut dyn FnMut(&FlowEvent) -> bool,
    ) -> Result<PlacementResult, FlowAborted> {
        self.run_inner(design, predictor, seed, Some(observe))
    }

    /// Shared flow body. When `observer` is `None`, events (and the HPWL
    /// sample each one carries) are never computed, so `run` costs exactly
    /// what it did before observers existed.
    fn run_inner<'o>(
        &self,
        design: &Design,
        predictor: &mut dyn CongestionPredictor,
        seed: u64,
        mut observer: Option<&mut (dyn FnMut(&FlowEvent) -> bool + 'o)>,
    ) -> Result<PlacementResult, FlowAborted> {
        let start = Instant::now();
        let cfg = &self.config;
        let mut gp = GlobalPlacer::new(design, seed);

        let mut stage1 = cfg.gp_stage1.clone();
        stage1.seed = seed;
        if let Some(obs) = observer.as_deref_mut() {
            if !obs(&FlowEvent::StageStart {
                stage: 1,
                iterations: stage1.iterations,
            }) {
                return Err(FlowAborted);
            }
        }
        let (stage1_iterations, mut overflow) =
            run_stage_maybe_observed(&mut gp, &stage1, 1, observer.as_deref_mut())?;

        let mut inflation = Vec::new();
        for round in 0..cfg.inflation_rounds {
            let snapshot = gp.placement();
            let congestion = predictor.predict(design, &snapshot, cfg.grid_w, cfg.grid_h);
            if let Some(obs) = observer.as_deref_mut() {
                let cells = congestion.data();
                let mean_level = if cells.is_empty() {
                    0.0
                } else {
                    cells.iter().sum::<f32>() / cells.len() as f32
                };
                let hot_tiles = cells.iter().filter(|&&v| v >= 4.0).count();
                if !obs(&FlowEvent::Predicted {
                    round,
                    mean_level,
                    max_level: congestion.max(),
                    hot_tiles,
                }) {
                    return Err(FlowAborted);
                }
            }
            let stats = inflate_areas(
                design,
                &snapshot,
                &congestion,
                gp.areas_mut(),
                &cfg.inflation,
            );
            if let Some(obs) = observer.as_deref_mut() {
                if !obs(&FlowEvent::Inflated { round, stats }) {
                    return Err(FlowAborted);
                }
            }
            inflation.push(stats);
            let mut stage2 = cfg.gp_stage2.clone();
            stage2.seed = seed.wrapping_add(1);
            if let Some(obs) = observer.as_deref_mut() {
                if !obs(&FlowEvent::StageStart {
                    stage: 2,
                    iterations: stage2.iterations,
                }) {
                    return Err(FlowAborted);
                }
            }
            let (_, of) = run_stage_maybe_observed(&mut gp, &stage2, 2, observer.as_deref_mut())?;
            overflow = of;
        }

        let mut placement = gp.placement();
        legalize_macros(design, &mut placement).expect("macro legalization");
        legalize_cells(design, &mut placement);
        if cfg.refine_passes > 0 {
            crate::detail::refine_cells(design, &mut placement, cfg.refine_passes, seed ^ 0xDE);
        }
        if let Some(obs) = observer {
            if !obs(&FlowEvent::Legalized {
                hpwl: placement.hpwl(&design.netlist),
            }) {
                return Err(FlowAborted);
            }
        }

        Ok(PlacementResult {
            placement,
            t_macro_min: start.elapsed().as_secs_f64() / 60.0,
            final_overflow: overflow,
            inflation,
            stage1_iterations,
        })
    }
}

/// Runs one GP stage, forwarding each iteration to the flow observer (when
/// present) as a [`FlowEvent::GpIteration`]. The per-iteration HPWL sample
/// is only computed when there is an observer to consume it.
fn run_stage_maybe_observed<'o>(
    gp: &mut GlobalPlacer,
    cfg: &GpConfig,
    stage: usize,
    observer: Option<&mut (dyn FnMut(&FlowEvent) -> bool + 'o)>,
) -> Result<(usize, Overflow), FlowAborted> {
    match observer {
        None => Ok(gp.run_stage(cfg)),
        Some(observe) => gp
            .run_stage_observed(cfg, &mut |gp, iteration, overflow| {
                observe(&FlowEvent::GpIteration {
                    stage,
                    iteration,
                    hpwl: gp.hpwl(),
                    overflow: *overflow,
                })
            })
            .ok_or(FlowAborted),
    }
}

/// Convenience: the result type alias used by downstream code.
pub type FlowError = LegalizeError;

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_fpga::design::DesignPreset;

    fn small_design() -> Design {
        DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1)
    }

    fn quick(cfg: FlowConfig) -> FlowConfig {
        let mut cfg = cfg;
        cfg.gp_stage1.iterations = 12;
        cfg.gp_stage2.iterations = 6;
        cfg.grid_w = 32;
        cfg.grid_h = 32;
        cfg
    }

    #[test]
    fn flow_produces_legal_macros() {
        let d = small_design();
        let flow = PlacementFlow::new(quick(FlowConfig::utda_like()));
        let mut pred = RudyPredictor::default();
        let res = flow.run(&d, &mut pred, 1);
        for m in d.netlist.macros() {
            let (x, y) = res.placement.pos(m.0 as usize);
            assert_eq!(x.fract(), 0.0);
            assert_eq!(y.fract(), 0.0);
            assert_eq!(
                d.arch.column_kind(x as usize),
                d.netlist.instance(m).kind.site_kind()
            );
        }
        assert!(res.t_macro_min < 10.0, "must beat the contest limit");
    }

    #[test]
    fn flow_is_deterministic() {
        let d = small_design();
        let flow = PlacementFlow::new(quick(FlowConfig::seu_like()));
        let a = flow
            .run(&d, &mut RudyPredictor::default(), 7)
            .placement
            .hpwl(&d.netlist);
        let b = flow
            .run(&d, &mut RudyPredictor::default(), 7)
            .placement
            .hpwl(&d.netlist);
        assert_eq!(a, b);
    }

    #[test]
    fn rudy_predictor_scales_to_levels() {
        let d = small_design();
        let p = d.random_placement(2);
        let mut pred = RudyPredictor::default();
        let map = pred.predict(&d, &p, 32, 32);
        assert!(map.max() <= 7.0 + 1e-5);
        assert!(map.max() > 0.0);
    }

    #[test]
    fn inflation_happens_under_hot_predictions() {
        let d = small_design();
        // A predictor that claims uniform level-6 congestion.
        struct Hot;
        impl CongestionPredictor for Hot {
            fn predict(&mut self, _d: &Design, _p: &Placement, w: usize, h: usize) -> GridMap {
                GridMap::from_vec(w, h, vec![6.0; w * h])
            }
        }
        let flow = PlacementFlow::new(quick(FlowConfig::model_driven()));
        let res = flow.run(&d, &mut Hot, 3);
        assert!(res.inflation[0].inflated_instances > 0);
        assert!(res.inflation[0].added_area > 0.0);
    }

    #[test]
    fn observed_run_matches_unobserved_bitwise() {
        let d = small_design();
        let flow = PlacementFlow::new(quick(FlowConfig::model_driven()));
        let plain = flow.run(&d, &mut RudyPredictor::default(), 9);
        let mut events = Vec::new();
        let observed = flow
            .run_observed(&d, &mut RudyPredictor::default(), 9, &mut |e| {
                events.push(e.clone());
                true
            })
            .unwrap();
        assert_eq!(plain.placement, observed.placement);
        assert_eq!(plain.final_overflow, observed.final_overflow);
        assert_eq!(plain.stage1_iterations, observed.stage1_iterations);
        // Event shape: stage starts, one GpIteration per iteration, one
        // Predicted + Inflated per round, one Legalized at the end.
        let rounds = flow.config().inflation_rounds;
        let preds = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::Predicted { .. }))
            .count();
        assert_eq!(preds, rounds);
        assert!(matches!(events.last(), Some(FlowEvent::Legalized { .. })));
        let gp_iters = events
            .iter()
            .filter(|e| matches!(e, FlowEvent::GpIteration { .. }))
            .count();
        assert!(gp_iters > 0);
        // A second observed run samples the same HPWL at every iteration.
        let hpwls = |events: &[FlowEvent]| -> Vec<u64> {
            events
                .iter()
                .filter_map(|e| match e {
                    FlowEvent::GpIteration { hpwl, .. } => Some(hpwl.to_bits()),
                    _ => None,
                })
                .collect()
        };
        let mut again = Vec::new();
        flow.run_observed(&d, &mut RudyPredictor::default(), 9, &mut |e| {
            again.push(e.clone());
            true
        })
        .unwrap();
        assert_eq!(hpwls(&events), hpwls(&again));
    }

    #[test]
    fn observer_abort_stops_flow() {
        let d = small_design();
        let flow = PlacementFlow::new(quick(FlowConfig::seu_like()));
        let mut seen = 0usize;
        let res = flow.run_observed(&d, &mut RudyPredictor::default(), 4, &mut |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(res.unwrap_err(), FlowAborted);
        assert_eq!(seen, 3);
    }

    #[test]
    fn presets_have_distinct_tuning() {
        let a = FlowConfig::utda_like();
        let b = FlowConfig::mpku_like();
        assert_ne!(a.gp_stage1.iterations, b.gp_stage1.iterations);
        assert_ne!(a.inflation.epsilon, b.inflation.epsilon);
        assert_eq!(FlowConfig::model_driven().inflation_rounds, 2);
    }
}
