//! `map_hires` — placement snapshot → 256×256 congestion-level map, the
//! paper's resolution: `CongestionPredictor::predict` on a `ModelPredictor`
//! (Ours, grid 256, default engine, random-init checkpoint) for distinct
//! random placements of one 1/16-scale design. Closed loop, one caller.
//!
//! The forward is ~70% of each op and feature extraction at this resolution
//! the rest, so attention/GEMM kernels, the plan executor and `fpga` feature
//! extraction show here; placer, router and serve do nothing. It is also the
//! only workload big enough for intra-op parallelism to pay.

use std::time::Instant;

use mfaplace_core::loader::{init_checkpoint, load_predictor, LoadOptions};
use mfaplace_core::predictor::{Engine, ModelPredictor};
use mfaplace_fpga::design::{Design, DesignPreset};
use mfaplace_fpga::features::FeatureStack;
use mfaplace_infer::QuantOptions;
use mfaplace_models::{AnyModel, Arch, ArchSpec};
use mfaplace_placer::flows::CongestionPredictor;
use mfaplace_rt::pool;
use mfaplace_tensor::{attention_tm, lowlevel, Tensor};

use crate::host;
use crate::json::Json;
use crate::run::{self, Report, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// With ~1.5 s per op a run has fewer than 20 samples, so no percentile
/// above the median is supported and the noted tail falls back to it.
const TAIL: u32 = 75;

struct Sizes {
    spec: ArchSpec,
    scale: (usize, usize, usize),
}

impl Sizes {
    fn of(args: &RunArgs) -> Sizes {
        if args.smoke {
            let mut spec = ArchSpec::new(Arch::Ours, 32);
            spec.base_channels = 4;
            spec.vit_layers = 1;
            Sizes {
                spec,
                scale: (512, 64, 32),
            }
        } else {
            Sizes {
                spec: ArchSpec::new(Arch::Ours, 256),
                scale: (16, 4, 2),
            }
        }
    }
}

struct State {
    design: Design,
    predictor: ModelPredictor<AnyModel>,
    checkpoint: String,
    load_ms: f64,
    capture_ms: f64,
}

/// Set-up: generate the design, write a fresh checkpoint, load it as a user
/// would, and capture the compiled plan for a batch of one.
fn setup(seed: u64, sizes: &Sizes) -> State {
    let (c, d, b) = sizes.scale;
    let design = DesignPreset::design_237()
        .with_scale(c, d, b)
        .generate(seed);
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    let checkpoint = dir.join("map_hires.mfaw").to_string_lossy().into_owned();
    init_checkpoint(&sizes.spec, run::sub_seed(seed, 1), &checkpoint).expect("init checkpoint");
    let t = Instant::now();
    let (_, mut predictor) =
        load_predictor(&checkpoint, LoadOptions::default()).expect("load checkpoint");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let grid = sizes.spec.grid;
    let t = Instant::now();
    predictor
        .compile_plan(1, 6, grid, grid)
        .expect("the model compiles to a plan");
    let capture_ms = t.elapsed().as_secs_f64() * 1e3;
    State {
        design,
        predictor,
        checkpoint,
        load_ms,
        capture_ms,
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn levels_sane(values: &[f32]) -> bool {
    values
        .iter()
        .all(|v| v.is_finite() && (0.0..=7.0).contains(v))
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let (mut state, setup_s) = run::repeated_setup(args.smoke, || setup(args.seed, &sizes));
    let mut report = Report::new();
    report.note("grid", Json::Num(sizes.spec.grid as f64));
    report.note(
        "instances",
        Json::Num(state.design.netlist.num_instances() as f64),
    );
    report.note("engine", Json::str(state.predictor.engine().name()));
    report.note(
        "plan_workers",
        Json::Num(state.predictor.plan_workers() as f64),
    );
    if args.trace {
        traced(args, &sizes, &mut state, &mut report);
    } else {
        report.set("setup_s", setup_s);
        untraced(args, &sizes, &mut state, &mut report);
    }
    report.note(
        "precision",
        Json::str(format!("{:?}", state.predictor.precision())),
    );
    report.check(
        state.predictor.plan_broken().is_none() && state.predictor.quant_broken().is_none(),
        "no engine fallback latched",
    );
    std::fs::remove_file(&state.checkpoint).ok();
    report
}

fn untraced(args: &RunArgs, sizes: &Sizes, state: &mut State, report: &mut Report) {
    let grid = sizes.spec.grid;
    let mut map_ms = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while map_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let placement = state
            .design
            .random_placement(run::sub_seed(args.seed, 100 + map_ms.len() as u64));
        let t = Instant::now();
        let map = state
            .predictor
            .predict(&state.design, &placement, grid, grid);
        map_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(
            map.width() == grid && levels_sane(map.data()),
            "a full-size map of finite levels in 0..=7",
        );
        if first.is_none() {
            first = Some((placement, map));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    report.ops(map_ms.len());
    let peak_rss_mb = host::peak_rss_mb();

    // The default engine must agree with the f32 tape reference bitwise.
    let (placement, served) = first.expect("at least one map");
    let engine = state.predictor.engine();
    state.predictor.set_engine(Engine::Tape);
    let reference = state
        .predictor
        .predict(&state.design, &placement, grid, grid);
    state.predictor.set_engine(engine);
    report.check(
        bits(served.data()) == bits(reference.data()),
        "the first map equals the tape engine's bitwise (plan == tape)",
    );
    let deviation = served
        .data()
        .iter()
        .zip(reference.data())
        .map(|(a, b)| f64::from((a - b).abs()))
        .fold(0.0, f64::max);

    report.note_tail(&map_ms, TAIL);
    report.set("op_ms_p50", stats::median(&map_ms));
    report.set("ops_per_s", map_ms.len() as f64 / wall);
    report.set("peak_rss_mb", peak_rss_mb);
    // 1 + the largest level deviation from the reference: exactly 1 while
    // the served engine is bitwise faithful.
    report.set("quality_loss", 1.0 + deviation);
}

fn traced(args: &RunArgs, sizes: &Sizes, state: &mut State, report: &mut Report) {
    let grid = sizes.spec.grid;
    let design = &state.design;
    let predictor = &mut state.predictor;
    let mut tracer = Tracer::new(Instant::now());
    // The traced run splits its time over more variants than the untraced
    // run has ops, so each gets few samples; scale them with the run length.
    let reps = ((args.seconds / 8.0).round() as usize).max(1);

    // The op itself, spelled out through the same public calls.
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut inputs = Vec::new();
    for i in 0..reps {
        let placement = design.random_placement(run::sub_seed(args.seed, 100 + i as u64));
        let t = Instant::now();
        let plain = predictor.predict(design, &placement, grid, grid);
        plain_ms += t.elapsed().as_secs_f64();

        tracer.op = i as u64;
        let t = Instant::now();
        let root = tracer.begin("map.op");
        let features = tracer.span("fpga.features_hires", || {
            FeatureStack::extract(design, &placement, grid, grid).to_tensor()
        });
        let levels = tracer.span("core.predict_hires", || {
            predictor
                .predict_batch_tensors(std::slice::from_ref(&features))
                .pop()
                .expect("one output per input")
        });
        tracer.end(root);
        traced_ms += t.elapsed().as_secs_f64();
        report.ops(2);
        report.check(
            bits(plain.data()) == bits(levels.data()),
            "the spelled-out op equals predict() bitwise",
        );
        inputs.push(features);
    }
    let input = std::slice::from_ref(&inputs[0]);
    let forward = |predictor: &mut ModelPredictor<AnyModel>| {
        stats::time_ms(reps, || {
            std::hint::black_box(predictor.predict_batch_tensors(input));
        })
    };

    // Engine variants on the same input.
    let nproc = host::nproc();
    let default_workers = predictor.plan_workers();
    predictor.set_plan_workers(1);
    report.set("infer.plan_forward_ms", forward(predictor));
    // Needs more than one core; on a one-core host it stays unmeasured (0),
    // never a ratio.
    if nproc > 1 {
        predictor.set_plan_workers(nproc);
        report.set("infer.plan_par_forward_ms", forward(predictor));
    } else {
        report.set("infer.plan_par_forward_ms", 0.0);
        report.note("infer.plan_par_forward_ms", Json::str("unmeasured"));
    }
    predictor.set_plan_workers(default_workers);
    let stats_f32 = predictor.plan_stats().expect("a plan was compiled");
    report.set("infer.plan_ops", stats_f32.ops as f64);
    report.set(
        "infer.plan_arena_mb",
        stats_f32.arena_bytes as f64 / (1 << 20) as f64,
    );

    predictor.set_engine(Engine::Tape);
    report.set("autograd.tape_forward_ms", forward(predictor));

    predictor
        .calibrate(&inputs, QuantOptions::default())
        .expect("calibration over the traced inputs");
    predictor.set_engine(Engine::Quant);
    report.set("infer.int8_forward_ms", forward(predictor));
    let int8_arena = predictor
        .quant_plan_stats()
        .map_or(0.0, |q| q.arena_bytes as f64 / (1 << 20) as f64);
    report.set("infer.int8_arena_mb", int8_arena);
    report.note(
        "quant_served",
        Json::str(format!("{:?}", predictor.precision())),
    );
    predictor.set_engine(Engine::Plan);
    let fallbacks = [predictor.plan_broken(), predictor.quant_broken()];
    for reason in fallbacks.iter().flatten() {
        report.note("fallback", Json::str(*reason));
    }
    report.set(
        "core.engine_fallbacks",
        fallbacks.iter().flatten().count() as f64,
    );
    report.set("infer.plan_capture_ms", state.capture_ms);
    report.set("core.load_predictor_ms", state.load_ms);

    // Kernel ceilings: the public tensor kernels at stated shapes.
    let filled = |shape: Vec<usize>| Tensor::from_fn(shape, |i| ((i % 251) as f32) * 0.004 - 0.5);
    let k = if args.smoke { 64 } else { 256 };
    let (a, b) = (filled(vec![k, k]), filled(vec![k, k]));
    let mut out = vec![0.0f32; k * k];
    report.set(
        "tensor.gemm_256_ms",
        stats::time_ms(5, || {
            lowlevel::gemm_into(a.data(), b.data(), &mut out, k, k, k)
        }),
    );
    let l = if args.smoke { 128 } else { 1024 };
    let (q, kk, v) = (
        filled(vec![4, l, 16]),
        filled(vec![4, l, 16]),
        filled(vec![4, l, 16]),
    );
    report.set(
        "tensor.attention_l1024_ms",
        stats::time_ms(3, || {
            std::hint::black_box(attention_tm(&q, &kk, &v, 0.25));
        }),
    );
    let side = if args.smoke { 32 } else { 128 };
    let (x, w) = (filled(vec![1, 16, side, side]), filled(vec![16, 16 * 9]));
    report.set(
        "tensor.conv3x3_ms",
        stats::time_ms(3, || {
            std::hint::black_box(w.matmul2d(&x.im2col(3, 3, 1, 1)));
        }),
    );
    let rows = filled(vec![l, l]);
    report.set(
        "tensor.softmax_ms",
        stats::time_ms(3, || {
            std::hint::black_box(rows.softmax_lastdim());
        }),
    );

    // Runtime primitives: what every parallel kernel call and every scope
    // timer pays.
    let mut cells = vec![0u8; 64];
    let dispatch_ms = stats::time_ms(200, || {
        pool::parallel_chunks_mut(&mut cells, 1, |_, c| {
            std::hint::black_box(c);
        });
    });
    report.set("rt.pool_dispatch_us", dispatch_ms * 1e3);
    let record_ms = stats::time_ms(5, || {
        for _ in 0..1000 {
            mfaplace_rt::timer::record("benchmark/probe", std::time::Duration::from_nanos(1));
        }
    });
    report.set("rt.timer_record_ns", record_ms * 1e3);

    let med = |name: &str| stats::median(&tracer.durations_ms(name));
    report.set("fpga.features_hires_ms", med("fpga.features_hires"));
    report.set("core.predict_hires_ms", med("core.predict_hires"));
    let coverage = stats::mean(&tracer.coverage("map.op", ""));
    report.set("map.stage_coverage", coverage);
    report.set("map.trace_overhead_share", traced_ms / plain_ms - 1.0);
    report.check(
        coverage >= 0.95,
        "named stages cover at least 95% of each traced map",
    );
    report.tracer = Some(tracer);
}
