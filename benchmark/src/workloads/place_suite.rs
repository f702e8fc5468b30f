//! `place_suite` — the paper's Table-II journey: the model-driven macro
//! placement flow (`MacroPlacementFlow::run_with`, placer preset
//! `model_driven()`, per-design calibrated scoring router) with a learned
//! `ModelPredictor` over the ten contest designs. Closed loop, one caller.
//!
//! GP, legalization and routing do most of the work; prediction is two
//! rounds of features + forward, a small share. An inference-engine change
//! should barely move this workload; a placer or router change moves only
//! this one.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Instant;

use mfaplace_core::dataset::DatasetConfig;
use mfaplace_core::flow::{
    calibrated_router_for, FlowConfig, FlowOutcome, FlowProgress, MacroPlacementFlow,
};
use mfaplace_core::predictor::ModelPredictor;
use mfaplace_core::train::TrainConfig;
use mfaplace_fpga::design::{Design, DesignPreset};
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::gridmap::GridMap;
use mfaplace_fpga::io;
use mfaplace_fpga::placement::Placement;
use mfaplace_models::{OursConfig, OursModel};
use mfaplace_placer::flows::{CongestionPredictor, FlowConfig as PlacerFlowConfig, FlowEvent};
use mfaplace_router::congestion::CongestionAnalysis;
use mfaplace_router::detailed::detailed_route_iterations;
use mfaplace_router::global::GlobalRouter;

use crate::host;
use crate::json::Json;
use crate::run::{self, Report, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// The percentile the noted tail is taken at here (needs ≥ 40 flows).
const TAIL: u32 = 75;
/// Flow seeds cycled by round; quality is taken over one full cycle.
const FLOW_SEEDS: usize = 2;
/// Capacity calibration the scoring router and the training labels share.
const TARGET_UTIL: f32 = 0.95;

struct Sizes {
    designs: usize,
    scale: Option<(usize, usize, usize)>,
    model: OursConfig,
    gp_iterations: Option<(usize, usize)>,
    train_placements: usize,
    train_epochs: usize,
}

impl Sizes {
    fn of(args: &RunArgs) -> Sizes {
        if args.smoke {
            Sizes {
                designs: 2,
                scale: Some((512, 64, 32)),
                model: OursConfig {
                    grid: 32,
                    base_channels: 4,
                    vit_layers: 1,
                    ..OursConfig::default()
                },
                gp_iterations: Some((10, 5)),
                train_placements: 1,
                train_epochs: 1,
            }
        } else {
            Sizes {
                designs: 10,
                // `None` keeps the presets' default 1/64 scale.
                scale: None,
                model: OursConfig::default(),
                gp_iterations: None,
                train_placements: 3,
                train_epochs: 4,
            }
        }
    }

    fn placer(&self) -> PlacerFlowConfig {
        let mut cfg = PlacerFlowConfig::model_driven();
        cfg.grid_w = self.model.grid;
        cfg.grid_h = self.model.grid;
        if let Some((s1, s2)) = self.gp_iterations {
            cfg.gp_stage1.iterations = s1;
            cfg.gp_stage2.iterations = s2;
        }
        cfg
    }
}

/// Everything the measured part needs, built from the seed.
struct State {
    designs: Vec<Design>,
    flows: Vec<MacroPlacementFlow>,
    predictor: ModelPredictor<OursModel>,
    generate_ms: Vec<f64>,
    calibrate_ms: Vec<f64>,
}

/// Set-up: generate the designs, calibrate one scoring router per design,
/// train the predictor for a fixed small budget (bitwise deterministic for
/// a seed) and compile its plan with one warm-up prediction.
fn setup(seed: u64, sizes: &Sizes) -> State {
    let grid = sizes.model.grid;
    let mut designs = Vec::new();
    let mut generate_ms = Vec::new();
    for preset in DesignPreset::contest_suite()
        .into_iter()
        .take(sizes.designs)
    {
        let preset = match sizes.scale {
            Some((c, d, b)) => preset.with_scale(c, d, b),
            None => preset,
        };
        let t = Instant::now();
        designs.push(preset.generate(seed));
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let mut flows = Vec::new();
    let mut calibrate_ms = Vec::new();
    for design in &designs {
        let t = Instant::now();
        let router = calibrated_router_for(design, grid, TARGET_UTIL, run::sub_seed(seed, 1));
        calibrate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        flows.push(MacroPlacementFlow::new(FlowConfig {
            placer: sizes.placer(),
            router,
        }));
    }

    let dataset = run::build_dataset(
        &designs[..1],
        &DatasetConfig {
            grid,
            placements_per_design: sizes.train_placements,
            target_util: TARGET_UTIL,
            ..DatasetConfig::default()
        },
        run::sub_seed(seed, 2),
    );
    let mut trainer = run::fresh_trainer(
        sizes.model,
        TrainConfig {
            epochs: sizes.train_epochs,
            batch_size: 4,
            seed: run::sub_seed(seed, 3),
            ..TrainConfig::default()
        },
        run::sub_seed(seed, 4),
    );
    trainer.fit(&dataset);
    let (graph, model) = trainer.into_parts();
    let mut predictor = ModelPredictor::new(graph, model);
    let warm = designs[0].random_placement(seed);
    predictor.predict(&designs[0], &warm, grid, grid);

    State {
        designs,
        flows,
        predictor,
        generate_ms,
        calibrate_ms,
    }
}

/// The deterministic part of a flow outcome (everything but wall-clock
/// `t_macro_min`), for bitwise comparison.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint {
    xs: Vec<u32>,
    ys: Vec<u32>,
    s_ir: u64,
    s_dr: u64,
    wirelength: u64,
    overflow: u32,
    hpwl: u64,
}

fn fingerprint(design: &Design, out: &FlowOutcome) -> Fingerprint {
    let p = &out.placement.placement;
    Fingerprint {
        xs: p.xs().iter().map(|v| v.to_bits()).collect(),
        ys: p.ys().iter().map(|v| v.to_bits()).collect(),
        s_ir: out.score.s_ir().to_bits(),
        s_dr: out.score.s_dr().to_bits(),
        wirelength: out.wirelength.to_bits(),
        overflow: out.overflow.to_bits(),
        hpwl: p.hpwl(&design.netlist).to_bits(),
    }
}

/// Every macro sits on its own site, of its own kind, inside the fabric.
fn macros_legal(design: &Design, placement: &Placement) -> bool {
    let mut taken = BTreeSet::new();
    design.netlist.macros().into_iter().all(|m| {
        let (x, y) = placement.pos(m.0 as usize);
        x.is_finite()
            && y.is_finite()
            && x >= 0.0
            && y >= 0.0
            && x < design.arch.width()
            && y < design.arch.height()
            && x.fract() == 0.0
            && y.fract() == 0.0
            && design.arch.column_kind(x as usize) == design.netlist.instance(m).kind.site_kind()
            && taken.insert((x as u32, y as u32))
    })
}

fn flow_seed(seed: u64, round: usize) -> u64 {
    run::sub_seed(seed, 10 + (round % FLOW_SEEDS) as u64)
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let (mut state, setup_s) = run::repeated_setup(args.smoke, || setup(args.seed, &sizes));
    let mut report = Report::new();
    report.note("designs", Json::Num(state.designs.len() as f64));
    report.note("grid", Json::Num(sizes.model.grid as f64));
    report.note("engine", Json::str(state.predictor.engine().name()));
    report.note(
        "plan_workers",
        Json::Num(state.predictor.plan_workers() as f64),
    );
    if args.trace {
        traced(args, &mut state, &mut report);
    } else {
        report.set("setup_s", setup_s);
        untraced(args, &mut state, &mut report);
    }
    report.check(
        state.predictor.plan_broken().is_none(),
        "the default engine served every prediction (no latched fallback)",
    );
    report
}

/// Rounds over all designs until the time is up. Whole rounds only, so the
/// design mix behind the percentiles is the same in every run.
fn untraced(args: &RunArgs, state: &mut State, report: &mut Report) {
    let n = state.designs.len();
    let mut flow_ms = Vec::new();
    // Outcomes of the first seed cycle: the quality sample and the
    // reference later rounds must reproduce bitwise.
    let mut reference: Vec<Fingerprint> = Vec::new();
    let (mut s_r, mut wirelength_per_net) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    loop {
        let seed = flow_seed(args.seed, round);
        for i in 0..n {
            let t = Instant::now();
            let out = state.flows[i].run_with(&state.designs[i], &mut state.predictor, seed);
            flow_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let print = fingerprint(&state.designs[i], &out);
            if round < FLOW_SEEDS {
                report.check(
                    macros_legal(&state.designs[i], &out.placement.placement),
                    "every macro on a distinct in-fabric site of its kind",
                );
                s_r.push(out.score.s_r());
                wirelength_per_net
                    .push(out.wirelength / state.designs[i].netlist.num_nets() as f64);
                reference.push(print);
            } else {
                report.check(
                    reference[(round % FLOW_SEEDS) * n + i] == print,
                    "a repeated (design, seed) reproduces placement, S_R and HPWL bitwise",
                );
            }
        }
        round += 1;
        if run::rounds_fill(start, round, args.seconds) {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    report.ops(flow_ms.len());
    report.note("s_r_mean", Json::Num(stats::mean(&s_r)));
    report.note_tail(&flow_ms, TAIL);
    report.set("op_ms_p50", stats::median(&flow_ms));
    report.set("ops_per_s", flow_ms.len() as f64 / wall);
    report.set("peak_rss_mb", host::peak_rss_mb());
    // Routed wirelength per net, mean over the first seed cycle. The contest
    // score S_R is too coarse to bound: a level step moves one flow from 22 to
    // 55, so its suite mean spreads ~20% across seeds. It is reported per layer.
    report.set("quality_loss", stats::mean(&wirelength_per_net));
}

/// Span bookkeeping shared by the flow observer and the timing predictor:
/// consecutive event boundaries tile the flow, each tile named after the
/// stage that just finished.
struct Stages {
    tracer: Tracer,
    last: Instant,
    /// GP stage the flow is in (1 before the first prediction, then 2).
    gp_stage: u8,
    hpwl: Vec<f64>,
    inflated: Vec<f64>,
}

impl Stages {
    fn close(&mut self, name: &'static str) {
        let now = Instant::now();
        self.tracer.record(name, self.last, now);
        self.last = now;
    }
}

/// `ModelPredictor::predict` spelled out through the same public calls, so
/// feature extraction and the forward get their own spans.
struct TimingPredictor<'a> {
    inner: &'a mut ModelPredictor<OursModel>,
    stages: &'a RefCell<Stages>,
}

impl CongestionPredictor for TimingPredictor<'_> {
    fn predict(&mut self, design: &Design, placement: &Placement, gw: usize, gh: usize) -> GridMap {
        {
            let mut s = self.stages.borrow_mut();
            // The snapshot the placer took before calling us ends the GP stage.
            let stage = if s.gp_stage == 1 {
                "placer.gp_stage1"
            } else {
                "placer.gp_stage2"
            };
            s.close(stage);
            s.gp_stage = 2;
        }
        let features = FeatureStack::extract(design, placement, gw, gh);
        self.stages.borrow_mut().close("fpga.features");
        let levels = self
            .inner
            .predict_batch_tensors(std::slice::from_ref(&features.to_tensor()))
            .pop()
            .expect("one output per input");
        let map = GridMap::from_vec(gw, gh, levels.into_vec());
        self.stages.borrow_mut().close("core.predict");
        map
    }

    fn name(&self) -> &str {
        "timing"
    }
}

fn traced_flow(
    flow: &MacroPlacementFlow,
    design: &Design,
    predictor: &mut ModelPredictor<OursModel>,
    seed: u64,
    stages: &RefCell<Stages>,
) -> FlowOutcome {
    let root = {
        let mut s = stages.borrow_mut();
        s.gp_stage = 1;
        let root = s.tracer.begin("place.flow");
        s.last = Instant::now();
        root
    };
    let mut timing = TimingPredictor {
        inner: predictor,
        stages,
    };
    let out = flow
        .run_with_observer(design, &mut timing, seed, &mut |event| {
            let mut s = stages.borrow_mut();
            let name = match event {
                FlowProgress::Placement(FlowEvent::StageStart { stage: 1, .. }) => "placer.init",
                FlowProgress::Placement(
                    FlowEvent::StageStart { .. } | FlowEvent::GpIteration { stage: 2.., .. },
                ) => "placer.gp_stage2",
                FlowProgress::Placement(FlowEvent::GpIteration { .. }) => "placer.gp_stage1",
                FlowProgress::Placement(FlowEvent::Inflated { stats, .. }) => {
                    let share =
                        stats.inflated_instances as f64 / design.netlist.num_instances() as f64;
                    s.inflated.push(share);
                    "placer.inflate"
                }
                FlowProgress::Placement(FlowEvent::Legalized { hpwl }) => {
                    s.hpwl.push(*hpwl);
                    "placer.legalize_refine"
                }
                FlowProgress::Routed { .. } => "core.route_score",
                // Statistics computed only for the observer's benefit.
                FlowProgress::Placement(FlowEvent::Predicted { .. })
                | FlowProgress::Scored { .. } => "place.observe",
            };
            s.close(name);
            true
        })
        .expect("the observer never aborts");
    let mut s = stages.borrow_mut();
    s.close("place.observe");
    s.tracer.end(root);
    out
}

fn traced(args: &RunArgs, state: &mut State, report: &mut Report) {
    let n = state.designs.len();
    let seed = flow_seed(args.seed, 0);
    let stages = RefCell::new(Stages {
        tracer: Tracer::new(Instant::now()),
        last: Instant::now(),
        gp_stage: 1,
        hpwl: Vec::new(),
        inflated: Vec::new(),
    });
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let (mut s_r, mut overflow, mut wirelength) = (Vec::new(), Vec::new(), Vec::new());
    let (mut route_ms, mut analysis_ms) = (Vec::new(), Vec::new());
    let (mut read_ms, mut write_ms) = (Vec::new(), Vec::new());
    // Each design: the same flow untraced then traced. A traced run takes
    // at most half as many ops as an untraced run of the same length.
    let budget = Instant::now();
    for i in 0..n {
        if i > 0 && budget.elapsed().as_secs_f64() > args.seconds {
            break;
        }
        let design = &state.designs[i];
        let t = Instant::now();
        let plain = state.flows[i].run_with(design, &mut state.predictor, seed);
        plain_ms += t.elapsed().as_secs_f64() * 1e3;

        stages.borrow_mut().tracer.op = i as u64;
        let t = Instant::now();
        let out = traced_flow(&state.flows[i], design, &mut state.predictor, seed, &stages);
        traced_ms += t.elapsed().as_secs_f64() * 1e3;
        report.ops(2);
        report.check(
            fingerprint(design, &plain) == fingerprint(design, &out),
            "the traced flow outcome equals the untraced one bitwise",
        );
        s_r.push(out.score.s_r());
        overflow.push(f64::from(out.overflow));
        wirelength.push(out.wirelength);

        // The router's share, split by calling it on the returned placement.
        let placement = &out.placement.placement;
        let router_cfg = &state.flows[i].config().router;
        let router = GlobalRouter::new(router_cfg.clone());
        let t = Instant::now();
        let routed = router.route(design, placement);
        route_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let analysis = CongestionAnalysis::from_usage(&routed.usage, router_cfg);
        let s_dr = detailed_route_iterations(&analysis, &routed);
        analysis_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(
            routed.total_wirelength == out.wirelength && f64::from(s_dr) == out.score.s_dr(),
            "routing the returned placement again reproduces the flow's wirelength and S_DR",
        );

        // Text I/O as `mfaplace place` pays it.
        let design_text = io::write_design(design);
        let t = Instant::now();
        let parsed = io::read_design(&design_text);
        read_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let placement_text = io::write_placement(placement);
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(
            parsed.is_ok_and(|d| d.netlist.num_instances() == design.netlist.num_instances())
                && io::read_placement(&placement_text).is_ok_and(|p| p.xs() == placement.xs()),
            "design and placement survive the text round trip",
        );
    }

    let stages = stages.into_inner();
    let tracer = stages.tracer;
    let med = |name: &str| stats::median(&tracer.per_op_ms(name));
    report.set("placer.gp_stage1_ms", med("placer.gp_stage1"));
    report.set("placer.gp_stage2_ms", med("placer.gp_stage2"));
    let iterations: Vec<f64> = tracer
        .per_op_count("placer.gp_stage1")
        .iter()
        .zip(tracer.per_op_count("placer.gp_stage2"))
        .map(|(a, b)| a + b)
        .collect();
    report.set("placer.gp_iterations", stats::median(&iterations));
    report.set("placer.inflate_ms", med("placer.inflate"));
    report.set("placer.inflated_share", stats::mean(&stages.inflated));
    report.set("placer.legalize_refine_ms", med("placer.legalize_refine"));
    report.set("placer.hpwl_mean", stats::mean(&stages.hpwl));
    report.set("fpga.features_ms", med("fpga.features"));
    report.set("core.predict_ms", med("core.predict"));
    report.set("core.route_score_ms", med("core.route_score"));
    report.set("router.route_ms", stats::median(&route_ms));
    report.set("router.analysis_ms", stats::median(&analysis_ms));
    report.set("router.overflow_mean", stats::mean(&overflow));
    report.set("router.wirelength_mean", stats::mean(&wirelength));
    report.set(
        "core.calibrate_router_ms",
        stats::median(&state.calibrate_ms),
    );
    report.set("fpga.generate_ms", stats::median(&state.generate_ms));
    report.set("fpga.read_design_ms", stats::median(&read_ms));
    report.set("fpga.write_placement_ms", stats::median(&write_ms));
    report.set("place.s_r_mean", stats::mean(&s_r));
    let coverage = stats::mean(&tracer.coverage("place.flow", "place.observe"));
    report.set("place.stage_coverage", coverage);
    report.set("place.trace_overhead_share", traced_ms / plain_ms - 1.0);
    report.check(
        coverage >= 0.95,
        "named stages cover at least 95% of each traced flow",
    );
    report.tracer = Some(tracer);
}
