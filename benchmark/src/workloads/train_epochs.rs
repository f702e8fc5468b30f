//! `train_epochs` — `Trainer::fit` on the paper's model (Ours, grid 64,
//! C=8, 3 transformer layers), batch 4, default worker resolution, then
//! `Trainer::evaluate` on a held-out design. Closed loop.
//!
//! The same `tensor`/`autograd`/`nn` kernels as `map_hires`, used the other
//! way: training-mode forward that keeps activations, backward, Adam,
//! per-sample sharding and the tree reduce. An inference-only shortcut that
//! costs training shows here.
//!
//! A run is a sequence of identical rounds: each trains a fresh model from
//! the same seed for a fixed budget, so every round must reproduce the first
//! one's losses bitwise, and the quality figure does not depend on how many
//! rounds fit in the time.

use std::time::Instant;

use mfaplace_core::dataset::{batch, Dataset, DatasetConfig};
use mfaplace_core::loader::{load_predictor, save_predictor, LoadOptions};
use mfaplace_core::train::{TrainConfig, TrainReport, Trainer};
use mfaplace_fpga::design::DesignPreset;
use mfaplace_models::{ArchSpec, CongestionModel, OursConfig, OursModel};
use mfaplace_nn::Adam;
use mfaplace_rt::pool;

use crate::host;
use crate::json::Json;
use crate::run::{self, Report, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// The percentile the noted tail is taken at here (needs ≥ 100 steps).
const TAIL: u32 = 90;
const BATCH: usize = 4;

struct Sizes {
    model: OursConfig,
    scale: Option<(usize, usize, usize)>,
    train_designs: usize,
    placements: usize,
    epochs: usize,
}

impl Sizes {
    fn of(args: &RunArgs) -> Sizes {
        if args.smoke {
            Sizes {
                model: OursConfig {
                    grid: 32,
                    base_channels: 4,
                    vit_layers: 1,
                    ..OursConfig::default()
                },
                scale: Some((512, 64, 32)),
                train_designs: 1,
                placements: 1,
                epochs: 2,
            }
        } else {
            Sizes {
                model: OursConfig::default(),
                scale: None,
                train_designs: 2,
                placements: 3,
                epochs: 6,
            }
        }
    }

    fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: BATCH,
            seed: run::sub_seed(seed, 3),
            workers: None,
            ..TrainConfig::default()
        }
    }
}

struct State {
    train: Dataset,
    held_out: Dataset,
    dataset_build_s: f64,
}

/// Set-up: generate the designs and build the labelled datasets (placer
/// sweep, router labels, four rotations each).
fn setup(seed: u64, sizes: &Sizes) -> State {
    let t = Instant::now();
    let designs: Vec<_> = DesignPreset::prediction_suite()
        .into_iter()
        .take(sizes.train_designs + 1)
        .map(|p| match sizes.scale {
            Some((c, d, b)) => p.with_scale(c, d, b),
            None => p,
        })
        .map(|p| p.generate(seed))
        .collect();
    let cfg = DatasetConfig {
        grid: sizes.model.grid,
        placements_per_design: sizes.placements,
        ..DatasetConfig::default()
    };
    let (train_designs, held_out_design) = designs.split_at(sizes.train_designs);
    State {
        train: run::build_dataset(train_designs, &cfg, run::sub_seed(seed, 1)),
        held_out: run::build_dataset(held_out_design, &cfg, run::sub_seed(seed, 2)),
        dataset_build_s: t.elapsed().as_secs_f64(),
    }
}

fn loss_bits(report: &TrainReport) -> Vec<u32> {
    report.steps_log.iter().map(|s| s.loss.to_bits()).collect()
}

/// One round: a fresh model trained for the fixed budget. Returns the fit
/// report and its wall time as timed from outside.
fn round(
    args: &RunArgs,
    sizes: &Sizes,
    state: &State,
    config: TrainConfig,
) -> (Trainer<OursModel>, TrainReport, f64) {
    let mut trainer = run::fresh_trainer(sizes.model, config, run::sub_seed(args.seed, 4));
    let t = Instant::now();
    let report = trainer.fit(&state.train);
    let wall = t.elapsed().as_secs_f64();
    (trainer, report, wall)
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let (state, setup_s) = run::repeated_setup(args.smoke, || setup(args.seed, &sizes));
    let mut report = Report::new();
    report.note("grid", Json::Num(sizes.model.grid as f64));
    report.note("train_samples", Json::Num(state.train.len() as f64));
    report.note("held_out_samples", Json::Num(state.held_out.len() as f64));
    report.note("batch", Json::Num(BATCH as f64));
    if args.trace {
        traced(args, &sizes, &state, &mut report);
    } else {
        report.set("setup_s", setup_s);
        untraced(args, &sizes, &state, &mut report);
    }
    report
}

fn untraced(args: &RunArgs, sizes: &Sizes, state: &State, report: &mut Report) {
    let mut step_ms = Vec::new();
    let (mut samples, mut fit_wall) = (0usize, 0.0f64);
    let mut first: Option<Vec<u32>> = None;
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let (mut trainer, fit, wall) = round(args, sizes, state, sizes.train_config(args.seed));
        rounds += 1;
        fit_wall += wall;
        samples += fit.steps_log.iter().map(|s| s.samples).sum::<usize>();
        step_ms.extend(fit.steps_log.iter().map(|s| s.millis));
        report.ops(fit.steps);
        match &first {
            None => {
                report.note("workers", Json::Num(fit.workers as f64));
                report.check(
                    run::final_loss(&fit) < fit.epoch_losses[0],
                    "the training loss decreases over the budget",
                );
                // Quality and memory, once, after the journey a user makes
                // (one fit, one evaluate). Quality is the same after every
                // round; peak RSS is not: re-spawning the worker team per
                // round makes the allocator's high-water mark drift (88 or
                // 120 MiB after ten rounds, 86.1 ± 0.3 after one).
                let held_out = trainer.evaluate(&state.held_out);
                report.note("eval_acc", Json::Num(held_out.acc));
                report.note("eval_nrms", Json::Num(held_out.nrms));
                report.set("peak_rss_mb", host::peak_rss_mb());
                report.set("quality_loss", f64::from(run::final_loss(&fit)));
                first = Some(loss_bits(&fit));
            }
            Some(reference) => report.check(
                *reference == loss_bits(&fit),
                "a repeated round reproduces every step loss bitwise",
            ),
        }
        if run::rounds_fill(start, rounds, args.seconds) {
            break;
        }
    }
    report.note("rounds", Json::Num(rounds as f64));
    // `op_ms_p50` comes from the program's own step log; it is only a fair
    // account of `fit` if the logged steps are nearly all of fit's wall time.
    // (Smoke fits are a few milliseconds, mostly worker start-up.)
    report.check(
        args.smoke || step_ms.iter().sum::<f64>() >= 0.9 * fit_wall * 1e3,
        "the logged steps account for at least 90% of fit's wall time",
    );
    report.note_tail(&step_ms, TAIL);
    report.set("op_ms_p50", stats::median(&step_ms));
    report.set("ops_per_s", samples as f64 / fit_wall);
}

fn traced(args: &RunArgs, sizes: &Sizes, state: &State, report: &mut Report) {
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");

    // One round unmeasured: set-up is single-threaded, and the first second
    // of two-thread work after it runs at about half speed on the sandbox
    // (the second vCPU wakes slowly), which would be charged to the plain fit.
    round(args, sizes, state, sizes.train_config(args.seed));
    // The op, then the op with the program's own per-step log streamed: the
    // only tracing `fit` has today. Same steps, so the ratio is its cost.
    let (mut trainer, plain, plain_wall) = round(args, sizes, state, sizes.train_config(args.seed));
    let log_path = dir.join("train_epochs.steps.jsonl");
    let logged_config = TrainConfig {
        log_path: Some(log_path.clone()),
        ..sizes.train_config(args.seed)
    };
    let (_, logged, logged_wall) = round(args, sizes, state, logged_config);
    report.ops(plain.steps + logged.steps);
    report.check(
        loss_bits(&plain) == loss_bits(&logged),
        "the logged fit reproduces the plain fit's step losses bitwise",
    );
    let logged_lines = std::fs::read_to_string(&log_path).map_or(0, |s| s.lines().count());
    report.check(logged_lines == logged.steps, "one log line per step");
    std::fs::remove_file(&log_path).ok();
    let step_p50 = stats::median(&plain.steps_log.iter().map(|s| s.millis).collect::<Vec<_>>());

    let t = Instant::now();
    let held_out = trainer.evaluate(&state.held_out);
    report.set("core.evaluate_ms", t.elapsed().as_secs_f64() * 1e3);
    report.set("train.eval_acc", held_out.acc);
    report.set("train.final_loss", f64::from(run::final_loss(&plain)));
    report.set("core.train_workers", plain.workers as f64);
    report.set("core.dataset_build_s", state.dataset_build_s);
    report.set("train.trace_overhead_share", logged_wall / plain_wall - 1.0);

    // Checkpoint I/O with byte counts.
    let spec = ArchSpec::from_ours(sizes.model);
    let (graph, model) = trainer.into_parts();
    let ckpt = dir.join("train_epochs.mfaw").to_string_lossy().into_owned();
    let t = Instant::now();
    save_predictor(&graph, &model, &spec, &ckpt).expect("save checkpoint");
    report.set("nn.checkpoint_save_ms", t.elapsed().as_secs_f64() * 1e3);
    let bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
    report.set("nn.checkpoint_mb", bytes as f64 / (1 << 20) as f64);
    let t = Instant::now();
    let loaded = load_predictor(&ckpt, LoadOptions::default());
    report.set("nn.checkpoint_load_ms", t.elapsed().as_secs_f64() * 1e3);
    report.check(
        loaded.is_ok_and(|(s, _)| s == spec),
        "the saved checkpoint loads back with the same architecture",
    );
    std::fs::remove_file(&ckpt).ok();

    // A hand-rolled single-sample step through the public Graph / model /
    // Adam API on the same model and data: what one shard costs.
    let (mut graph, mut model) = (graph, model);
    let params = model.params();
    let mut adam = Adam::new(1e-3);
    let mut tracer = Tracer::new(Instant::now());
    let mark = graph.mark();
    let steps = (args.seconds as usize).clamp(2, state.train.len());
    // `fit` splits the kernel threads among its workers; a shard here runs
    // with the same share.
    let kernel_threads = (pool::max_threads() / plain.workers).max(1);
    report.note("shard_kernel_threads", Json::Num(kernel_threads as f64));
    for i in 0..steps {
        tracer.op = i as u64;
        let root = tracer.begin("train.step");
        let (x, labels) = tracer.span("core.batch_assemble", || batch(&state.train, &[i]));
        let loss = tracer.span("autograd.forward_train", || {
            pool::with_threads(kernel_threads, || {
                let xv = graph.constant(x);
                let logits = model.forward(&mut graph, xv, true);
                graph.cross_entropy2d_sum(logits, &labels, None)
            })
        });
        tracer.span("autograd.backward", || {
            pool::with_threads(kernel_threads, || {
                graph.zero_grads();
                graph.backward_seeded(loss, 1.0 / labels.len() as f32);
            })
        });
        tracer.span("nn.adam_step", || adam.step(&mut graph, &params));
        tracer.end(root);
        graph.truncate(mark);
        report.ops(1);
    }
    let med = |name: &str| stats::median(&tracer.durations_ms(name));
    let (forward, backward, adam_ms) = (
        med("autograd.forward_train"),
        med("autograd.backward"),
        med("nn.adam_step"),
    );
    report.set("autograd.forward_train_ms", forward);
    report.set("autograd.backward_ms", backward);
    report.set("nn.adam_step_ms", adam_ms);
    report.set("core.batch_assemble_us", med("core.batch_assemble") * 1e3);
    // What a step of `fit` takes beyond its shards and the optimizer:
    // snapshot, dispatch, tree reduce, batch-norm replay.
    let shards = (BATCH as f64 / plain.workers as f64).ceil();
    report.set(
        "core.shard_reduce_ms",
        step_p50 - (forward + backward) * shards - adam_ms,
    );
    report.note("fit_step_ms_p50", Json::Num(step_p50));
    report.tracer = Some(tracer);
}
