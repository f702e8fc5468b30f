//! `mfaplace` command-line tool: generate benchmarks, place, route, score
//! and render — the end-user face of the reproduction.
//!
//! ```sh
//! mfaplace generate   --design 116 --seed 1 --out design.nl
//! mfaplace place      --design design.nl --flow seu --seed 1 --out placement.pl
//! mfaplace place      --design design.nl --model ours.mfaw --out placement.pl
//! mfaplace route      --design design.nl --placement placement.pl
//! mfaplace features   --design design.nl --placement placement.pl --grid 48 --out feats
//! mfaplace render     --design design.nl --placement placement.pl --out place.ppm
//! mfaplace init-model --arch ours --grid 32 --out ours.mfaw
//! mfaplace serve      --model ours.mfaw --addr 127.0.0.1:8953
//! mfaplace serve      --model a=ours.mfaw --model b=ablation.mfaw
//! mfaplace predict    --addr 127.0.0.1:8953 --design design.nl --placement placement.pl
//! mfaplace predict    --addr 127.0.0.1:8953 --slot b --design design.nl --placement placement.pl
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mfaplace::core::dataset::{build_design_dataset, DatasetConfig};
use mfaplace::core::flow::{calibrated_router_for, simulated_pnr_hours};
use mfaplace::core::loader::{
    content_hash, init_checkpoint, load_predictor, peek_meta, peek_train_state, LoadOptions,
};
use mfaplace::core::predictor::Engine;
use mfaplace::core::train::{TrainConfig, Trainer};
use mfaplace::core::{compile_for_serving, is_artifact, read_artifact};
use mfaplace::fpga::design::{Design, DesignPreset};
use mfaplace::fpga::features::FeatureStack;
use mfaplace::fpga::gridmap::GridMap;
use mfaplace::fpga::io;
use mfaplace::fpga::viz::{render_heatmap, render_placement};
use mfaplace::jobs::{JobEngine, JobsConfig, JobsExtension};
use mfaplace::models::{Arch, ArchSpec};
use mfaplace::placer::flows::{
    CongestionPredictor, FlowConfig, FlowEvent, PlacementFlow, RudyPredictor,
};
use mfaplace::placer::gp::{PASS_TIMERS, STAGE_TIMER};
use mfaplace::router::congestion::CongestionAnalysis;
use mfaplace::router::detailed::detailed_route_iterations;
use mfaplace::router::global::GlobalRouter;
use mfaplace::router::score::{RoutabilityScore, ScoreInputs};
use mfaplace::serve::{
    client, serve_fleet_with, Metrics, ModelFleet, ServeConfig, SlotLimits, DEFAULT_SLOT,
};
use mfaplace::tensor::{simd, softmax_row, Tensor};
use mfaplace_rt::timer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    };
    // Per-run timing report, opt-in: timers always record, but the report
    // only prints when MFAPLACE_TIMERS is explicitly set (and not "0").
    if std::env::var("MFAPLACE_TIMERS").is_ok_and(|v| v != "0") {
        eprint!("{}", timer::report());
    }
    code
}

const USAGE: &str = "usage:
  mfaplace generate   --design <116|120|136|156|176|180|190|197|227|230|237> \\
                      [--seed N] [--preset small|large] [--scale cells,dsp,bram] \\
                      --out <file.nl>
  mfaplace place      --design <file.nl> [--flow ours|utda|seu|mpku] [--seed N] \\
                      [--iterations N] [--model <file.mfaw> [--arch ours|unet|pgnn|pros2] \\
                      [--grid N] [--channels N]] --out <file.pl>
  mfaplace route      --design <file.nl> --placement <file.pl> [--grid N]
  mfaplace features   --design <file.nl> --placement <file.pl> [--grid N] --out <prefix>
  mfaplace render     --design <file.nl> --placement <file.pl> --out <file.ppm>
  mfaplace init-model [--arch ours|unet|pgnn|pros2] [--grid N] [--channels N] \\
                      [--seed N] --out <file.mfaw>
  mfaplace train      --design <file.nl> --out <file.mfaw> [--resume] \\
                      [--arch ours|unet|pgnn|pros2] [--grid N] [--channels N] \\
                      [--epochs N] [--batch N] [--lr F] [--seed N] [--workers N] \\
                      [--save-every N] [--stop-after N] [--log <file.jsonl>] \\
                      [--placements N] [--iterations N]
  mfaplace model-info --model <file.mfaw|file.mfaq> [--grid N]
  mfaplace profile    --model <file.mfaw|file.mfaq> [--grid N] [--engine plan|quant]
  mfaplace profile    --flow ours|utda|seu|mpku --design <file.nl> [--seed N] \\
                      [--iterations N] [--model <file.mfaw>]
  mfaplace kernels    (report detected/active SIMD kernel backend)
  mfaplace compile    --model <file.mfaw> --calib <file.nl> [--calib <file.nl> ...] \\
                      [--placements N] [--iterations N] [--seed N] \\
                      [--fold-bn] --out <file.mfaq>
  mfaplace serve      --model [name=]<file.mfaw|file.mfaq> [--model name=<path> ...] \\
                      [--addr host:port] [--engine tape|plan|quant] \\
                      [--arch ...] [--grid N] [--channels N]   (v1 checkpoints)
  mfaplace predict    --addr host:port --design <file.nl> --placement <file.pl> \\
                      [--slot name] [--engine tape|plan|quant] [--out <file.ppm>]
  mfaplace job submit --addr host:port --design <file.nl> [--flow ours|utda|seu|mpku] \\
                      [--seed N] [--slot name] [--predictor model|rudy] \\
                      [--iterations N] [--grid N] [--deadline-ms N] [--watch]
  mfaplace job status --addr host:port --id <job-N>
  mfaplace job watch  --addr host:port --id <job-N>
  mfaplace job cancel --addr host:port --id <job-N>
  mfaplace job list   --addr host:port

serve loads one hot-swappable slot per --model (repeatable; a bare path
names its slot \"default\", and the first slot is the default routing
target). Requests pick a slot with the x-mfaplace-model header or a
/models/<name>/... path; manage slots at runtime via POST /admin/slots
(add/remove/reload). All slots compile into one shared plan cache sized
by MFAPLACE_PLAN_CACHE_MB; serve also honors MFAPLACE_MAX_BATCH,
MFAPLACE_BATCH_WINDOW_MS and MFAPLACE_QUEUE_BOUND, and stops with
POST /admin/shutdown. The inference engine defaults to the compiled plan
(bitwise identical to the tape); --engine or MFAPLACE_ENGINE selects it,
and predict's --engine switches the remote server (its --slot's slot)
via POST /admin/engine before predicting.
compile runs the offline quantization step: it calibrates activation
ranges over placements of the --calib designs and writes a self-contained
serving artifact (checkpoint + calibration + precision). serve, predict
and model-info accept the artifact anywhere a checkpoint is accepted and
default it to the quant engine; the int8 arena never changes the predicted
congestion level map, and anything calibration cannot cover stays f32.
serve also runs the placement job engine at /jobs (sized by
MFAPLACE_JOB_WORKERS, MFAPLACE_JOB_QUEUE and MFAPLACE_JOB_DEADLINE_MS);
job submit ships the design inline and prints the job id, job watch
follows the NDJSON per-iteration event stream to completion.
generate --preset large builds ~1/16-scale designs (default small is
~1/64); an explicit --scale overrides the preset.
train honors MFAPLACE_TRAIN_WORKERS when --workers is not given; --resume
continues bitwise-exactly from the checkpoint at --out if it exists.
profile times every step of one warm serial forward of the compiled plan
(batch 1, synthetic input at the model's grid) and prints the steps sorted
by time, a per-op-kind roll-up and how much of the forward they cover.
profile --flow runs the placement flow place would run with the same flags
and prints, per global-placement stage, the calls, time and share of each
pass (wirelength, spreading, region, overflow, observer) and how much of
the stages they cover.
every subcommand accepts --kernels auto|scalar|avx2|neon to pin the SIMD
kernel backend (strict; the MFAPLACE_KERNELS env var is the forgiving
equivalent, falling back to auto-detection with a warning). scalar is the
bitwise-golden reference; vector backends carry a documented 1e-5-of-scale
tolerance and never change the predicted congestion level map.";

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    if cmd == "job" {
        return run_job(&args[1..]);
    }
    let flags = parse_flags(&args[1..])?;
    apply_kernels_flag(&flags)?;
    match cmd.as_str() {
        "kernels" => cmd_kernels(),
        "generate" => cmd_generate(&flags),
        "place" => cmd_place(&flags),
        "route" => cmd_route(&flags),
        "features" => cmd_features(&flags),
        "render" => cmd_render(&flags),
        "init-model" => cmd_init_model(&flags),
        "train" => cmd_train(&flags),
        "model-info" => cmd_model_info(&flags),
        "profile" => cmd_profile(&flags),
        "compile" => cmd_compile(&flags),
        "serve" => cmd_serve(&flags),
        "predict" => cmd_predict(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// `mfaplace job <action> --flags…` — the action is positional, everything
/// after it is ordinary flags.
fn run_job(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        return Err("job needs an action: submit, status, watch, cancel or list".into());
    };
    let flags = parse_flags(&args[1..])?;
    match action.as_str() {
        "submit" => cmd_job_submit(&flags),
        "status" => cmd_job_status(&flags),
        "watch" => cmd_job_watch(&flags),
        "cancel" => cmd_job_cancel(&flags),
        "list" => cmd_job_list(&flags),
        other => Err(format!(
            "unknown job action {other:?} (submit, status, watch, cancel, list)"
        )),
    }
}

/// `--arch/--grid/--channels` overrides for loading v1 checkpoints (v2
/// files are self-describing and ignore these).
fn load_options(flags: &Flags) -> Result<LoadOptions, String> {
    let arch = match flags.get("arch") {
        None => None,
        Some(s) => Some(s.parse::<Arch>()?),
    };
    Ok(LoadOptions {
        arch,
        grid: match flags.get("grid") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --grid: {v:?}"))?,
            ),
        },
        base_channels: match flags.get("channels") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --channels: {v:?}"))?,
            ),
        },
    })
}

/// `--kernels auto|scalar|avx2|neon` — strict: an unsupported backend is a
/// CLI error here, unlike the forgiving `MFAPLACE_KERNELS` environment
/// fallback. Applied before every subcommand so `serve`, `predict`,
/// `train` and `model-info` all honor it.
fn apply_kernels_flag(flags: &Flags) -> Result<(), String> {
    if let Some(v) = flags.get("kernels") {
        let choice =
            simd::Backend::parse(v).map_err(|e| format!("invalid value for --kernels: {e}"))?;
        simd::force(choice)?;
    }
    Ok(())
}

/// `mfaplace kernels`: reports the runtime kernel-backend dispatch state.
fn cmd_kernels() -> Result<(), String> {
    let names: Vec<&str> = simd::supported().iter().map(|b| b.name()).collect();
    println!("active backend: {}", simd::active().name());
    println!("detected best:  {}", simd::detect().name());
    println!("supported:      {}", names.join(" "));
    println!(
        "int8 GEMM:      exact i32 accumulation, bitwise across backends \
         (max contraction {})",
        simd::I8_GEMM_MAX_K,
    );
    Ok(())
}

/// `--engine tape|plan|quant`; `None` leaves the `MFAPLACE_ENGINE` default.
fn parse_engine(flags: &Flags) -> Result<Option<Engine>, String> {
    match flags.get("engine") {
        None => Ok(None),
        Some(v) => Engine::parse(v)
            .map(Some)
            .ok_or_else(|| format!("invalid value for --engine: {v:?} (use tape, plan or quant)")),
    }
}

/// Flags that take no value (presence means "on").
const BOOL_FLAGS: &[&str] = &["resume", "watch", "fold-bn"];

/// Parsed command-line flags. Every flag may repeat; `get` returns the
/// last occurrence (so `--grid 16 --grid 32` means 32) and `all` returns
/// every occurrence in order (used by `serve --model`).
#[derive(Debug, Default)]
struct Flags(HashMap<String, Vec<String>>);

impl Flags {
    /// The last value given for `--name`, if any.
    fn get(&self, name: &str) -> Option<&String> {
        self.0.get(name).and_then(|v| v.last())
    }

    /// Every value given for `--name`, in command-line order.
    fn all(&self, name: &str) -> &[String] {
        self.0.get(name).map_or(&[][..], Vec::as_slice)
    }

    fn contains_key(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags: HashMap<String, Vec<String>> = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, found {key:?}"));
        };
        if BOOL_FLAGS.contains(&name) {
            flags.entry(name.to_string()).or_default().push("1".into());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags
            .entry(name.to_string())
            .or_default()
            .push(value.clone());
    }
    Ok(Flags(flags))
}

fn get<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn get_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{name}: {v:?}")),
    }
}

fn load_design(flags: &Flags) -> Result<Design, String> {
    let path = get(flags, "design")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    io::read_design(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_placement(flags: &Flags) -> Result<mfaplace::fpga::Placement, String> {
    let path = get(flags, "placement")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    io::read_placement(&text).map_err(|e| format!("{path}: {e}"))
}

fn preset_by_name(name: &str) -> Result<DesignPreset, String> {
    let all = DesignPreset::contest_suite()
        .into_iter()
        .chain([DesignPreset::design_237()]);
    for p in all {
        if p.name() == format!("Design_{name}") || p.name() == name {
            return Ok(p);
        }
    }
    Err(format!("unknown design {name:?}"))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let preset = preset_by_name(get(flags, "design")?)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    // --preset picks a named scale; an explicit --scale wins over it.
    let preset_scale = match flags.get("preset").map(String::as_str) {
        None | Some("small") => (128, 24, 12),
        Some("large") => (32, 6, 3),
        Some(other) => return Err(format!("unknown preset {other:?} (small|large)")),
    };
    let preset = match flags.get("scale") {
        None => preset.with_scale(preset_scale.0, preset_scale.1, preset_scale.2),
        Some(s) => {
            let parts: Vec<&str> = s.split(',').collect();
            if parts.len() != 3 {
                return Err("--scale needs cells,dsp,bram".into());
            }
            preset.with_scale(
                parts[0].parse().map_err(|_| "bad cells divisor")?,
                parts[1].parse().map_err(|_| "bad dsp divisor")?,
                parts[2].parse().map_err(|_| "bad bram divisor")?,
            )
        }
    };
    let design = preset.generate(seed);
    let out = get(flags, "out")?;
    std::fs::write(out, io::write_design(&design)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} instances, {} nets, {} cascades, {} regions)",
        out,
        design.netlist.num_instances(),
        design.netlist.num_nets(),
        design.cascades.len(),
        design.regions.len()
    );
    Ok(())
}

/// The flow `place` and `profile --flow` run: the `--flow` preset capped by
/// `--iterations`, and its congestion predictor.
fn flow_from_flags(flags: &Flags) -> Result<(PlacementFlow, Box<dyn CongestionPredictor>), String> {
    let iterations: usize = get_num(flags, "iterations", 30)?;
    let mut cfg = match flags.get("flow").map(String::as_str) {
        None | Some("ours") => FlowConfig::model_driven(),
        Some("utda") => FlowConfig::utda_like(),
        Some("seu") => FlowConfig::seu_like(),
        Some("mpku") => FlowConfig::mpku_like(),
        Some(other) => return Err(format!("unknown flow {other:?}")),
    };
    cfg.gp_stage1.iterations = cfg.gp_stage1.iterations.min(iterations);
    cfg.gp_stage2.iterations = cfg.gp_stage2.iterations.min(iterations / 2 + 1);

    // With --model, the learned predictor from the checkpoint drives the
    // inflation rounds instead of RUDY; the congestion grid follows the
    // model's training grid.
    let predictor: Box<dyn CongestionPredictor> = match flags.get("model") {
        None => Box::new(RudyPredictor::default()),
        Some(path) => {
            let (spec, predictor) = load_predictor(path, load_options(flags)?)?;
            cfg.grid_w = spec.grid;
            cfg.grid_h = spec.grid;
            println!(
                "predicting with {} from {path} (grid {})",
                spec.arch.model_name(),
                spec.grid
            );
            Box::new(predictor)
        }
    };
    Ok((PlacementFlow::new(cfg), predictor))
}

fn cmd_place(flags: &Flags) -> Result<(), String> {
    let design = load_design(flags)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let (flow, mut predictor) = flow_from_flags(flags)?;
    let result = flow.run(&design, predictor.as_mut(), seed);
    let out = get(flags, "out")?;
    std::fs::write(out, io::write_placement(&result.placement)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} (T_macro {:.2} min, HPWL {:.0})",
        out,
        result.t_macro_min,
        result.placement.hpwl(&design.netlist)
    );
    Ok(())
}

fn cmd_init_model(flags: &Flags) -> Result<(), String> {
    let arch: Arch = flags
        .get("arch")
        .map_or(Ok(Arch::Ours), |s| s.parse::<Arch>())?;
    let grid: usize = get_num(flags, "grid", 32)?;
    let seed: u64 = get_num(flags, "seed", 0)?;
    let mut spec = ArchSpec::new(arch, grid);
    if let Some(v) = flags.get("channels") {
        spec.base_channels = v
            .parse()
            .map_err(|_| format!("invalid value for --channels: {v:?}"))?;
    }
    let out = get(flags, "out")?;
    init_checkpoint(&spec, seed, out)?;
    println!(
        "wrote {out} ({} at grid {grid}, {} base channels, randomly initialized)",
        arch.model_name(),
        spec.base_channels
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    use mfaplace_rt::rng::{SeedableRng, StdRng};

    let design = load_design(flags)?;
    let out = get(flags, "out")?;
    let resume = flags.contains_key("resume");
    let seed: u64 = get_num(flags, "seed", 0)?;

    // With --resume and an existing checkpoint, the architecture comes from
    // the file (it is self-describing); otherwise from the flags.
    let spec = if resume && std::path::Path::new(out).exists() {
        match peek_meta(out)? {
            Some(meta) => ArchSpec::from_meta(&meta).map_err(|e| format!("{out}: {e}"))?,
            None => {
                return Err(format!(
                    "{out}: cannot resume from a v1 checkpoint (no metadata)"
                ))
            }
        }
    } else {
        let arch: Arch = flags
            .get("arch")
            .map_or(Ok(Arch::Ours), |s| s.parse::<Arch>())?;
        let mut spec = ArchSpec::new(arch, get_num(flags, "grid", 32)?);
        if let Some(v) = flags.get("channels") {
            spec.base_channels = v
                .parse()
                .map_err(|_| format!("invalid value for --channels: {v:?}"))?;
        }
        spec
    };

    // Dataset from the design: legal placements scored by the global
    // router, at the model's grid.
    let mut ds_cfg = DatasetConfig {
        grid: spec.grid,
        placements_per_design: get_num(flags, "placements", 4)?,
        placer_iterations: get_num(flags, "iterations", 10)?,
        ..DatasetConfig::default()
    };
    ds_cfg.router.grid_w = spec.grid;
    ds_cfg.router.grid_h = spec.grid;
    let dataset = build_design_dataset(&design, &ds_cfg, seed.wrapping_add(1));
    println!(
        "dataset: {} samples at grid {} from {}",
        dataset.len(),
        spec.grid,
        design.name
    );

    let mut g = mfaplace::autograd::Graph::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = spec.build(&mut g, &mut rng)?;
    let config = TrainConfig {
        epochs: get_num(flags, "epochs", 4)?,
        batch_size: get_num(flags, "batch", 2)?,
        lr: get_num(flags, "lr", 1e-3)?,
        seed,
        workers: match flags.get("workers") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --workers: {v:?}"))?,
            ),
        },
        save_every: get_num(flags, "save-every", 0)?,
        checkpoint: Some(out.into()),
        resume,
        stop_after_steps: match flags.get("stop-after") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --stop-after: {v:?}"))?,
            ),
        },
        log_path: flags.get("log").map(Into::into),
        ..TrainConfig::default()
    };
    let workers = config.effective_workers();
    let mut trainer = Trainer::new(g, model, config);
    trainer.set_checkpoint_meta(spec.to_meta());
    let report = trainer.fit(&dataset);
    if let Some(at) = report.resumed_at_step {
        println!("resumed from {out} at step {at}");
    }
    println!(
        "trained {} ({} workers): {} steps, loss {:.4} -> {:.4}",
        spec.arch.model_name(),
        workers,
        report.steps,
        report.epoch_losses.first().copied().unwrap_or(0.0),
        report.epoch_losses.last().copied().unwrap_or(0.0),
    );
    let m = trainer.evaluate(&dataset);
    println!(
        "train-set metrics: ACC {:.3}, R2 {:.3}, NRMS {:.3}",
        m.acc, m.r2, m.nrms
    );
    println!("wrote {out}");
    Ok(())
}

/// `mfaplace compile`: the offline "compile for serving" step. Calibrates
/// activation ranges over placements of the `--calib` designs (generated
/// exactly like `train`'s dataset sweep) and writes a self-contained
/// quantized serving artifact next to nothing — the checkpoint bytes ride
/// inside it.
fn cmd_compile(flags: &Flags) -> Result<(), String> {
    let model_path = get(flags, "model")?;
    let out = get(flags, "out")?;
    let fold_bn = flags.contains_key("fold-bn");
    let calib_paths = flags.all("calib");
    if calib_paths.is_empty() {
        return Err("compile needs at least one --calib <file.nl> design".into());
    }
    let opts = load_options(flags)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    // The calibration sweep must run at the model's grid; load once just
    // to learn it (the compile step reloads from the file anyway).
    let (spec, _) = load_predictor(model_path, opts)?;

    let mut ds_cfg = DatasetConfig {
        grid: spec.grid,
        placements_per_design: get_num(flags, "placements", 4)?,
        placer_iterations: get_num(flags, "iterations", 10)?,
        ..DatasetConfig::default()
    };
    ds_cfg.router.grid_w = spec.grid;
    ds_cfg.router.grid_h = spec.grid;
    let mut inputs = Vec::new();
    for (i, path) in calib_paths.iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let design = io::read_design(&text).map_err(|e| format!("{path}: {e}"))?;
        let ds = build_design_dataset(&design, &ds_cfg, seed.wrapping_add(i as u64));
        println!(
            "calibration: {} placements of {} at grid {}",
            ds.len(),
            design.name,
            spec.grid
        );
        inputs.extend(ds.samples.into_iter().map(|s| s.features));
    }

    let report = compile_for_serving(model_path, opts, &inputs, fold_bn, out)?;
    let q = report
        .stats
        .quant
        .as_ref()
        .expect("compile_for_serving returns the quantized plan's stats");
    println!(
        "compiled {} (grid {}) for int8 serving{}: {} calibration inputs",
        report.spec.arch.model_name(),
        report.spec.grid,
        if fold_bn { ", bn folded" } else { "" },
        report.calib_inputs,
    );
    println!(
        "  quant plan (batch 1): {} ops, arena {} bytes ({:.2}x of f32 {} bytes)",
        report.stats.ops,
        q.arena_bytes,
        q.arena_bytes as f64 / q.f32_arena_bytes.max(1) as f64,
        q.f32_arena_bytes,
    );
    println!(
        "  quant storage: {} i8 / {} f16 / {} f32 values; {} int8-GEMM steps, {} generic; \
         {} quantized weight bytes",
        q.i8_values, q.f16_values, q.f32_values, q.i8_steps, q.generic_steps, q.qweight_bytes,
    );
    println!("wrote {out} ({} bytes)", report.artifact_bytes);
    Ok(())
}

fn cmd_model_info(flags: &Flags) -> Result<(), String> {
    let path = get(flags, "model")?;
    // The fleet's plan-cache key: slots serving byte-identical files share
    // one compiled plan set, and this is how to tell from the outside.
    let hash = content_hash(path)?;
    // Serving artifacts are not checkpoints — branch before peek_meta
    // chokes on the magic.
    if is_artifact(path) {
        let art = read_artifact(path)?;
        println!(
            "{path}: quantized serving artifact (int8, bn {})",
            if art.fold_bn { "folded" } else { "unfolded" },
        );
        println!(
            "  calibration: {} plan steps; embedded checkpoint {} bytes",
            art.calibration.steps(),
            art.checkpoint.len(),
        );
        println!("  content hash {hash:016x}");
        println!("  kernel backend: {}", simd::active().name());
        match load_predictor(path, load_options(flags)?) {
            Err(e) => println!("  quant plan: unavailable ({e})"),
            Ok((spec, mut predictor)) => {
                predictor.set_engine(Engine::Quant);
                match predictor.compile_plan(1, 6, spec.grid, spec.grid) {
                    Err(e) => println!("  quant plan: unavailable ({e})"),
                    Ok(s) => {
                        let q = s.quant.as_ref().expect("the quant engine compiles int8");
                        println!(
                            "  quant plan (batch 1, grid {}): {} ops, arena {} bytes \
                             ({:.2}x of f32 {} bytes), {} levels",
                            spec.grid,
                            s.ops,
                            q.arena_bytes,
                            q.arena_bytes as f64 / q.f32_arena_bytes.max(1) as f64,
                            q.f32_arena_bytes,
                            s.levels,
                        );
                        println!(
                            "  quant storage: {} i8 / {} f16 / {} f32 values; \
                             {} int8-GEMM steps, {} generic",
                            q.i8_values, q.f16_values, q.f32_values, q.i8_steps, q.generic_steps,
                        );
                        println!("  quant weights: {} bytes quantized", q.qweight_bytes);
                    }
                }
            }
        }
        return Ok(());
    }
    match peek_meta(path)? {
        None => println!("{path}: v1 checkpoint (no metadata; load with --arch/--grid)"),
        Some(meta) => {
            let train = peek_train_state(path)?;
            let version = if train.is_some() { 3 } else { 2 };
            println!("{path}: v{version} checkpoint, model {}", meta.model);
            for (key, value) in meta.entries() {
                println!("  {key} = {value}");
            }
            if let Some((steps, epoch, losses)) = train {
                println!(
                    "  training state: step {steps}, epoch {epoch}, {} completed epoch(s){}",
                    losses.len(),
                    losses
                        .last()
                        .map(|l| format!(", last epoch loss {l:.4}"))
                        .unwrap_or_default()
                );
            }
        }
    }
    println!("  content hash {hash:016x}");
    println!("  kernel backend: {}", simd::active().name());
    // Compile the inference plan for a batch-1 forward and summarize it.
    match load_predictor(path, load_options(flags)?) {
        Err(e) => println!("  plan: unavailable ({e})"),
        Ok((spec, mut predictor)) => match predictor.compile_plan(1, 6, spec.grid, spec.grid) {
            Err(e) => println!("  plan: unavailable ({e})"),
            Ok(s) => {
                println!(
                    "  plan (batch 1, grid {}): {} ops, arena {:.2} MiB ({} bytes)",
                    spec.grid,
                    s.ops,
                    s.arena_bytes as f64 / (1024.0 * 1024.0),
                    s.arena_bytes
                );
                println!(
                    "  plan fusions: {} conv+bias, {} conv+affine, {} conv+relu, \
                         {} add+relu; {} weight tensors ({} bytes)",
                    s.fused_conv_bias,
                    s.fused_conv_affine,
                    s.fused_conv_relu,
                    s.fused_add_relu,
                    s.weights,
                    s.weight_bytes
                );
                println!(
                    "  plan scheduler: {} levels, critical-path depth {} ops, \
                         widest level {} ops, {} copies elided",
                    s.levels, s.levels, s.max_level_width, s.copies_elided,
                );
            }
        },
    }
    Ok(())
}

/// `mfaplace profile --flow`: where the global-placement stages of one flow
/// spend their time, pass by pass, read from the scope timers inside
/// `GlobalPlacer::run_stage_observed`.
fn cmd_profile_flow(flags: &Flags) -> Result<(), String> {
    let design = load_design(flags)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let (flow, mut predictor) = flow_from_flags(flags)?;

    // What a GP stage recorded is the difference of two timer snapshots:
    // one at its StageStart, one at the first event after its iterations.
    #[derive(Default)]
    struct Stage {
        runs: usize,
        iterations: usize,
        /// Calls and time per pass of `PASS_TIMERS`, then of the stage.
        timers: [(u64, Duration); 6],
    }
    let labels = || PASS_TIMERS.into_iter().chain([STAGE_TIMER]);
    let mut stages = [Stage::default(), Stage::default()];
    let mut open: Option<(usize, timer::Snapshot)> = None;
    flow.run_observed(&design, predictor.as_mut(), seed, &mut |event| {
        match event {
            FlowEvent::StageStart { stage, .. } => open = Some((*stage, timer::snapshot())),
            FlowEvent::GpIteration { stage, .. } => stages[stage - 1].iterations += 1,
            _ => {
                if let Some((stage, before)) = open.take() {
                    let after = timer::snapshot();
                    let stage = &mut stages[stage - 1];
                    stage.runs += 1;
                    for (sum, label) in stage.timers.iter_mut().zip(labels()) {
                        let was = before.timers.get(label).copied().unwrap_or_default();
                        let now = after.timers.get(label).copied().unwrap_or_default();
                        sum.0 += now.calls - was.calls;
                        sum.1 += now.total - was.total;
                    }
                }
            }
        }
        true
    })
    .map_err(|e| e.to_string())?;

    println!(
        "{}: {} instances, {} nets, flow {}, seed {seed}, predictor {}",
        design.name,
        design.netlist.num_instances(),
        design.netlist.num_nets(),
        flow.config().name,
        predictor.name(),
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut passes_total, mut stages_total) = (Duration::ZERO, Duration::ZERO);
    for (k, stage) in stages.iter().enumerate() {
        let stage_total = stage.timers[PASS_TIMERS.len()].1;
        if stage_total.is_zero() {
            continue;
        }
        println!(
            "stage {}: {} iterations in {} run(s), {:.3} ms",
            k + 1,
            stage.iterations,
            stage.runs,
            ms(stage_total)
        );
        println!(
            "  {:<16} {:>7} {:>10} {:>7}",
            "pass", "calls", "ms", "share"
        );
        for (label, &(calls, total)) in PASS_TIMERS.iter().zip(&stage.timers) {
            println!(
                "  {label:<16} {calls:>7} {:>10.3} {:>6.1}%",
                ms(total),
                100.0 * total.as_secs_f64() / stage_total.as_secs_f64()
            );
            passes_total += total;
        }
        stages_total += stage_total;
    }
    if stages_total.is_zero() {
        return Err("no placer timers were recorded (is MFAPLACE_TIMERS=0 set?)".into());
    }
    println!(
        "passes sum {:.3} ms of {:.3} ms {STAGE_TIMER}: coverage {:.4}",
        ms(passes_total),
        ms(stages_total),
        passes_total.as_secs_f64() / stages_total.as_secs_f64()
    );
    Ok(())
}

/// `mfaplace profile`: where one forward of the compiled plan spends its
/// time, step by step — or, with `--flow`, where a placement flow's GP
/// stages spend theirs.
fn cmd_profile(flags: &Flags) -> Result<(), String> {
    if flags.contains_key("flow") {
        return cmd_profile_flow(flags);
    }
    let path = get(flags, "model")?;
    let opts = load_options(flags)?;
    let (spec, mut predictor) = load_predictor(path, opts)?;
    if let Some(grid) = opts.grid {
        if grid != spec.grid {
            return Err(format!(
                "{path} is a grid-{} model; profile runs at the model's own grid",
                spec.grid
            ));
        }
    }
    match parse_engine(flags)? {
        Some(Engine::Tape) => return Err("profile needs a compiled plan (plan or quant)".into()),
        Some(engine) => predictor.set_engine(engine),
        None => {}
    }
    // Feature maps are non-negative and O(1); any such input exercises the
    // same kernels (no vector kernel branches on data).
    let input = Tensor::from_fn(vec![6, spec.grid, spec.grid], |i| {
        0.5 + 0.5 * (i as f32 * 0.37).sin()
    });
    let profile = predictor.profile_plan(&input)?;
    let status = predictor.status();
    println!(
        "{path}: {} grid {}, engine {} ({}), kernels {}, {} pool threads",
        spec.arch.model_name(),
        spec.grid,
        status.served.name(),
        status.precision.name(),
        simd::active().name(),
        mfaplace_rt::pool::max_threads(),
    );
    if let Some(why) = &status.fallback {
        println!("  fallback from {}: {why}", status.requested.name());
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let total: u64 = profile.steps.iter().map(|s| s.ns).sum();
    let share = |ns: u64| 100.0 * ns as f64 / total.max(1) as f64;
    // Work per nanosecond is G-units per second.
    let rate = |work: u64, ns: u64| work as f64 / ns.max(1) as f64;
    let (gemm_gflops, softmax_gexps) = reference_rates();
    println!(
        "reference rates, timed now: gemm 256^3 over the pool {gemm_gflops:.1} GFLOP/s, \
         softmax rows of 256 on one thread {softmax_gexps:.2} Gexp/s"
    );
    let mut steps: Vec<_> = profile.steps.iter().collect();
    steps.sort_by_key(|s| std::cmp::Reverse(s.ns));
    println!(
        "{:>5}  {:<16} {:>10} {:>10} {:>7} {:>10} {:>9} {:>8} {:>8} {:>7} {:>6}  dims",
        "step",
        "op",
        "out numel",
        "ms",
        "share",
        "MFLOP",
        "Mexp",
        "MB",
        "GFLOP/s",
        "Gexp/s",
        "GB/s"
    );
    for s in steps {
        println!(
            "{:>5}  {:<16} {:>10} {:>10.3} {:>6.1}% {:>10.2} {:>9.2} {:>8.2} {:>8.2} {:>7.3} {:>6.2}  {}",
            s.index,
            s.kind,
            s.out_numel,
            ms(s.ns),
            share(s.ns),
            s.cost.flops as f64 / 1e6,
            s.cost.exps as f64 / 1e6,
            s.cost.bytes as f64 / 1e6,
            rate(s.cost.flops, s.ns),
            rate(s.cost.exps, s.ns),
            rate(s.cost.bytes, s.ns),
            s.cost.dims,
        );
    }
    let mut kinds: Vec<(&str, usize, u64)> = Vec::new();
    for s in &profile.steps {
        match kinds.iter_mut().find(|k| k.0 == s.kind) {
            Some(k) => {
                k.1 += 1;
                k.2 += s.ns;
            }
            None => kinds.push((&s.kind, 1, s.ns)),
        }
    }
    kinds.sort_by_key(|k| std::cmp::Reverse(k.2));
    println!(
        "{:<16} {:>6} {:>10} {:>7}",
        "op kind", "steps", "ms", "share"
    );
    for (kind, count, ns) in kinds {
        println!("{kind:<16} {count:>6} {:>10.3} {:>6.1}%", ms(ns), share(ns));
    }
    println!(
        "steps sum {:.3} ms of {:.3} ms replay wall: coverage {:.4}",
        ms(total),
        ms(profile.wall_ns),
        total as f64 / profile.wall_ns.max(1) as f64
    );
    Ok(())
}

/// The two reference rates `profile` prints beside each step's achieved
/// GFLOP/s and Gexp/s, timed here (best of five, a few ms) so they carry
/// this process's backend, thread count and host phase: the `simd_kernels`
/// bench's 256³ GEMM over the pool, and one thread softmaxing rows of that
/// bench's width — 64 rows (64 KiB) swept 64 times, so the rate is the
/// kernel's and not the memory system's. A row softmax is a max, an exp and
/// a divide sweep, so an op whose `exp` share is leaner can read above it.
fn reference_rates() -> (f64, f64) {
    let best_ns = |f: &mut dyn FnMut()| {
        (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_nanos().max(1) as f64
            })
            .fold(f64::MAX, f64::min)
    };
    let dim = 256;
    let a = Tensor::from_fn(vec![dim, dim], |i| (i as f32 * 0.37).sin());
    let mut out = vec![0.0f32; dim * dim];
    let gemm_ns = best_ns(&mut || a.matmul2d_into(&a, &mut out));
    let (rows, width, sweeps) = (64, 256, 64);
    let mut logits: Vec<f32> = (0..rows * width).map(|i| (i as f32 * 0.11).cos()).collect();
    // Softmaxed in place: one sweep's output is a valid input to the next.
    let softmax_ns = best_ns(&mut || {
        for _ in 0..sweeps {
            logits.chunks_mut(width).for_each(softmax_row);
        }
    });
    (
        2.0 * (dim * dim * dim) as f64 / gemm_ns,
        (rows * width * sweeps) as f64 / softmax_ns,
    )
}

/// Splits the repeated `--model` values into `(slot, path)` pairs.
///
/// Each value is `name=path`; a bare `path` (no `=`) names the slot
/// "default" for single-model back-compat. The first entry becomes the
/// default routing target. Duplicate slot names are rejected here, at
/// parse time, before any checkpoint is read.
fn parse_model_specs(values: &[String]) -> Result<Vec<(String, String)>, String> {
    if values.is_empty() {
        return Err("missing required flag --model".into());
    }
    let mut specs: Vec<(String, String)> = Vec::with_capacity(values.len());
    for value in values {
        let (name, path) = match value.split_once('=') {
            Some((name, path)) => (name, path),
            None => (DEFAULT_SLOT, value.as_str()),
        };
        if name.is_empty() || path.is_empty() {
            return Err(format!(
                "invalid --model {value:?}: expected name=path or a bare path"
            ));
        }
        if specs.iter().any(|(n, _)| n == name) {
            return Err(format!("duplicate --model name {name:?}"));
        }
        specs.push((name.to_owned(), path.to_owned()));
    }
    Ok(specs)
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let specs = parse_model_specs(flags.all("model"))?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8953".into());
    let opts = load_options(flags)?;
    let engine = parse_engine(flags)?;
    let metrics = Arc::new(Metrics::new());
    let cfg = ServeConfig {
        addr,
        ..ServeConfig::default()
    };
    let batch = cfg.batch;
    let fleet = Arc::new(ModelFleet::new(metrics.clone(), batch));
    let mut slot_lines = Vec::with_capacity(specs.len());
    for (name, path) in &specs {
        let fs = fleet.add_slot(name, path, opts, SlotLimits::default())?;
        if let Some(engine) = engine {
            fs.slot().set_engine(engine);
        }
        let status = fs.slot().status();
        slot_lines.push(format!(
            "  slot {name}: {} (grid {}, {} engine) from {path}",
            status.spec.arch.model_name(),
            status.spec.grid,
            status.predictor.requested.name()
        ));
    }
    // Placement jobs run through the same fleet, so their per-iteration
    // predictions coalesce with /predict traffic in the slot batchers.
    let jobs_cfg = JobsConfig::from_env();
    let engine = JobEngine::start(Arc::clone(&fleet), jobs_cfg.clone());
    engine.register_metrics(&metrics);
    let handle = serve_fleet_with(
        fleet,
        metrics,
        cfg,
        vec![Arc::new(JobsExtension::new(engine))],
    )
    .map_err(|e| format!("bind: {e}"))?;
    println!(
        "serving {} model slot(s) on http://{} (default slot {:?})",
        specs.len(),
        handle.addr(),
        specs[0].0
    );
    for line in slot_lines {
        println!("{line}");
    }
    println!(
        "batching: up to {} requests per {:?} window, queue bound {} per slot",
        batch.max_batch, batch.batch_window, batch.queue_bound
    );
    println!(
        "jobs: {} worker(s), queue bound {}, default deadline {:?}",
        jobs_cfg.workers, jobs_cfg.queue_bound, jobs_cfg.default_deadline
    );
    println!("endpoints: POST /predict, POST /predict/design, GET /metrics, GET /model,");
    println!("           GET /models, POST /models/<name>/predict[/design],");
    println!("           POST|GET /jobs, GET /jobs/<id>[/events], DELETE /jobs/<id>,");
    println!("           GET|POST /admin/slots, POST /admin/reload, POST /admin/shutdown");
    handle.wait();
    println!("server drained and stopped");
    Ok(())
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let slot = flags.get("slot").map(String::as_str);
    if let Some(engine) = parse_engine(flags)? {
        let mut headers = Vec::new();
        if let Some(name) = slot {
            headers.push(("x-mfaplace-model", name));
        }
        let r = client::request(
            addr,
            "POST",
            "/admin/engine",
            &headers,
            engine.name().as_bytes(),
        )?;
        if r.status != 200 {
            return Err(format!("engine switch failed: {}", r.text().trim()));
        }
        match slot {
            Some(name) => println!("slot {name} engine set to {}", engine.name()),
            None => println!("server engine set to {}", engine.name()),
        }
    }
    let design_path = get(flags, "design")?;
    let placement_path = get(flags, "placement")?;
    let design_text = std::fs::read_to_string(design_path)
        .map_err(|e| format!("cannot read {design_path}: {e}"))?;
    let placement_text = std::fs::read_to_string(placement_path)
        .map_err(|e| format!("cannot read {placement_path}: {e}"))?;
    let levels = client::predict_design_slot(addr, slot, &design_text, &placement_text)?;
    let (h, w) = (levels.shape()[0], levels.shape()[1]);
    let data = levels.data();
    let max = data.iter().cloned().fold(0.0f32, f32::max);
    let mean = data.iter().sum::<f32>() / data.len() as f32;
    let hot = data.iter().filter(|&&v| v >= 4.0).count();
    println!("{h}x{w} congestion levels from {addr}");
    println!("  mean level {mean:.3}, max level {max:.3}, tiles >= level 4: {hot}");
    if let Some(out) = flags.get("out") {
        let map = GridMap::from_vec(w, h, data.to_vec());
        std::fs::write(out, render_heatmap(&map, 7.0).to_ppm()).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Builds the `POST /jobs` body from the submit flags: an option header,
/// then the design shipped inline after the `---DESIGN---` marker.
fn job_submit_body(flags: &Flags) -> Result<String, String> {
    let design_path = get(flags, "design")?;
    let design_text = std::fs::read_to_string(design_path)
        .map_err(|e| format!("cannot read {design_path}: {e}"))?;
    let mut header = Vec::new();
    for key in ["flow", "seed", "slot", "predictor", "iterations", "grid"] {
        if let Some(value) = flags.get(key) {
            header.push(format!("{key}={value}"));
        }
    }
    if let Some(ms) = flags.get("deadline-ms") {
        header.push(format!("deadline_ms={ms}"));
    }
    Ok(format!("{}\n---DESIGN---\n{design_text}", header.join(" ")))
}

fn cmd_job_submit(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let body = job_submit_body(flags)?;
    let r = client::request(addr, "POST", "/jobs", &[], body.as_bytes())?;
    if r.status != 200 {
        return Err(format!("submit failed ({}): {}", r.status, r.text().trim()));
    }
    let text = r.text();
    print!("{text}");
    if flags.contains_key("watch") {
        let id = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("id "))
            .ok_or("submit response did not start with the job id")?
            .to_owned();
        return watch_job(addr, &id);
    }
    Ok(())
}

/// Follows a job's NDJSON event stream, printing each line as it arrives.
fn watch_job(addr: &str, id: &str) -> Result<(), String> {
    let path = format!("/jobs/{id}/events");
    let status = client::stream_lines(addr, "GET", &path, &[], b"", &mut |line| {
        if !line.is_empty() {
            println!("{line}");
        }
        true
    })?;
    if status != 200 {
        return Err(format!("watch failed ({status})"));
    }
    Ok(())
}

fn cmd_job_status(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let id = get(flags, "id")?;
    let r = client::request(addr, "GET", &format!("/jobs/{id}"), &[], b"")?;
    if r.status != 200 {
        return Err(format!("status failed ({}): {}", r.status, r.text().trim()));
    }
    print!("{}", r.text());
    Ok(())
}

fn cmd_job_watch(flags: &Flags) -> Result<(), String> {
    watch_job(get(flags, "addr")?, get(flags, "id")?)
}

fn cmd_job_cancel(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let id = get(flags, "id")?;
    let r = client::request(addr, "DELETE", &format!("/jobs/{id}"), &[], b"")?;
    if r.status != 200 {
        return Err(format!("cancel failed ({}): {}", r.status, r.text().trim()));
    }
    print!("{}", r.text());
    Ok(())
}

fn cmd_job_list(flags: &Flags) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    let r = client::request(addr, "GET", "/jobs", &[], b"")?;
    if r.status != 200 {
        return Err(format!("list failed ({}): {}", r.status, r.text().trim()));
    }
    let text = r.text();
    if text.is_empty() {
        println!("no jobs");
    } else {
        print!("{text}");
    }
    Ok(())
}

fn cmd_route(flags: &Flags) -> Result<(), String> {
    let design = load_design(flags)?;
    let placement = load_placement(flags)?;
    let grid: usize = get_num(flags, "grid", 48)?;
    let router_cfg = calibrated_router_for(&design, grid, 0.7, 99);
    let outcome = GlobalRouter::new(router_cfg.clone()).route(&design, &placement);
    let analysis = CongestionAnalysis::from_usage(&outcome.usage, &router_cfg);
    let s_dr = detailed_route_iterations(&analysis, &outcome);
    let score = RoutabilityScore::new(ScoreInputs {
        l_short: analysis.short_levels(),
        l_global: analysis.global_levels(),
        s_dr,
        t_macro_min: 0.0,
        t_pr_hours: simulated_pnr_hours(&outcome, s_dr, &router_cfg),
    });
    println!("wirelength      {:.0}", outcome.total_wirelength);
    println!("overflow        {:.0}", outcome.total_overflow);
    println!("short levels    {:?}", analysis.short_levels());
    println!("global levels   {:?}", analysis.global_levels());
    println!("S_IR            {:.0}", score.s_ir());
    println!("S_DR            {:.0}", score.s_dr());
    println!("S_R             {:.0}", score.s_r());
    println!("T_P&R           {:.2} h", score.inputs().t_pr_hours);
    println!("S_score         {:.2}", score.s_score());
    Ok(())
}

fn cmd_features(flags: &Flags) -> Result<(), String> {
    let design = load_design(flags)?;
    let placement = load_placement(flags)?;
    let grid: usize = get_num(flags, "grid", 48)?;
    let prefix = get(flags, "out")?;
    let f = FeatureStack::extract(&design, &placement, grid, grid);
    for (name, map) in [
        ("macro", &f.macro_map),
        ("hnet", &f.hnet),
        ("vnet", &f.vnet),
        ("rudy", &f.rudy),
        ("pin_rudy", &f.pin_rudy),
        ("cell_density", &f.cell_density),
    ] {
        let path = format!("{prefix}_{name}.ppm");
        std::fs::write(&path, render_heatmap(map, 1.0).to_ppm()).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_render(flags: &Flags) -> Result<(), String> {
    let design = load_design(flags)?;
    let placement = load_placement(flags)?;
    let out = get(flags, "out")?;
    let img = render_placement(&design, &placement, 6);
    std::fs::write(out, img.to_ppm()).map_err(|e| e.to_string())?;
    println!("wrote {out} ({}x{})", img.width(), img.height());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_keep_every_occurrence_and_get_returns_the_last() {
        let flags = parse_flags(&argv(&[
            "--model", "a=x.mfaw", "--grid", "16", "--model", "b=y.mfaw", "--grid", "32",
        ]))
        .unwrap();
        assert_eq!(flags.get("grid").unwrap(), "32");
        assert_eq!(flags.all("model"), ["a=x.mfaw", "b=y.mfaw"]);
        assert!(flags.all("missing").is_empty());
        assert!(!flags.contains_key("resume"));
    }

    #[test]
    fn model_specs_split_names_and_default_bare_paths() {
        let specs = parse_model_specs(&argv(&["a=x.mfaw", "b=y.mfaw"])).unwrap();
        assert_eq!(specs[0], ("a".into(), "x.mfaw".into()));
        assert_eq!(specs[1], ("b".into(), "y.mfaw".into()));

        let specs = parse_model_specs(&argv(&["x.mfaw"])).unwrap();
        assert_eq!(specs, [("default".into(), "x.mfaw".into())]);
    }

    #[test]
    fn model_specs_reject_duplicates_at_parse_time() {
        let err = parse_model_specs(&argv(&["a=x.mfaw", "a=y.mfaw"])).unwrap_err();
        assert!(err.contains("duplicate --model name \"a\""), "{err}");
        // Two bare paths collide on the implicit "default" name.
        let err = parse_model_specs(&argv(&["x.mfaw", "y.mfaw"])).unwrap_err();
        assert!(err.contains("duplicate --model name \"default\""), "{err}");
        let err = parse_model_specs(&argv(&["=x.mfaw"])).unwrap_err();
        assert!(err.contains("expected name=path"), "{err}");
        let err = parse_model_specs(&[]).unwrap_err();
        assert!(err.contains("--model"), "{err}");
    }
}
