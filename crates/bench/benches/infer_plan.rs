//! Before/after benchmark for the compiled inference plan: the full
//! `ours` model forward through `ModelPredictor` on the tape engine
//! versus the plan engine, at grids 32/64 with batches 1/8 plus a
//! batch-1 run at grid 256 (the placement-scale stress case; batch 8
//! there would push a single sample past ten seconds for no extra
//! signal). Grids 64 and 256 additionally run the int8 `plan-int8`
//! variant. Writes `results/infer_plan.json`.
//!
//! Every (grid, batch, engine) combination runs in its **own child
//! process**: peak RSS is sampled from the kernel's `VmHWM` watermark,
//! and a watermark observed after another engine already ran in the same
//! process would inherit that engine's retained heap (the tape's graph
//! pool, the plan's arena). One process per combination makes the peak
//! attributable. The parent re-execs itself with
//! `MFA_PLAN_CHILD=<grid>:<batch>:<engine>` and merges the JSON.

use mfaplace_autograd::Graph;
use mfaplace_core::predictor::{Engine, ModelPredictor};
use mfaplace_core::QuantOptions;
use mfaplace_models::{Arch, ArchSpec};
use mfaplace_rt::bench::Suite;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

const CHILD_ENV: &str = "MFA_PLAN_CHILD";
const CONFIGS: [(usize, usize); 5] = [(32, 1), (32, 8), (64, 1), (64, 8), (256, 1)];
/// Engine variants for one grid: tape and plan everywhere; the quantized
/// variant (int8 arena with int8 GEMMs) at the grids where arena size
/// matters (64 and the placement-scale 256).
fn variants(grid: usize) -> &'static [&'static str] {
    if grid >= 64 {
        &["tape", "plan", "plan-int8"]
    } else {
        &["tape", "plan"]
    }
}

fn spec(grid: usize) -> ArchSpec {
    let mut spec = ArchSpec::new(Arch::Ours, grid);
    spec.base_channels = 4;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec
}

/// Child mode: benchmark one (grid, batch, engine) and print the suite
/// JSON on stdout (the table goes to stderr).
fn run_child(child: &str) {
    let mut parts = child.split(':');
    let grid: usize = parts.next().and_then(|s| s.parse().ok()).expect("grid");
    let batch: usize = parts.next().and_then(|s| s.parse().ok()).expect("batch");
    let variant = parts.next().expect("engine");
    let engine = match variant {
        "tape" => Engine::Tape,
        "plan-int8" => Engine::Quant,
        other => Engine::parse(other).expect("engine"),
    };

    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = spec(grid).build(&mut g, &mut rng).expect("build model");
    let mut predictor = ModelPredictor::new(g, model);
    if engine == Engine::Quant {
        // Offline calibration happens outside the sampled region, like
        // the plan compilation warm-up below.
        let mut c_rng = StdRng::seed_from_u64(2);
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(vec![6, grid, grid], 1.0, &mut c_rng))
            .collect();
        predictor
            .calibrate(&calib, QuantOptions::default())
            .expect("calibrate");
    }
    assert!(predictor.set_engine(engine), "{variant}: engine refused");

    let mut in_rng = StdRng::seed_from_u64(1);
    let inputs: Vec<Tensor> = (0..batch)
        .map(|_| Tensor::randn(vec![6, grid, grid], 1.0, &mut in_rng))
        .collect();

    // Warm up outside the sampled region: the plan engine compiles its
    // shape-specialized plan here, the tape engine populates its buffer
    // pool. After this, the plan path runs with zero heap allocations.
    let warm = predictor.predict_batch_tensors(&inputs);
    std::hint::black_box(warm);

    let mut suite = Suite::new("infer_plan").with_config(2, 7);
    suite.run(
        &format!("infer/{variant}/grid{grid}/batch{batch}/forward"),
        |b| b.iter(|| std::hint::black_box(predictor.predict_batch_tensors(&inputs))),
    );
    print!("{}", suite.to_json());
}

/// Extracts the contents of the top-level `"benchmarks":[...]` array.
fn benchmarks_fragment(json: &str) -> &str {
    let start = json.find("\"benchmarks\":[").expect("benchmarks array") + "\"benchmarks\":[".len();
    let end = json.rfind("]}").expect("array close");
    &json[start..end]
}

fn median_of(json: &str, name: &str) -> Option<f64> {
    let entry = json.split("{\"name\":\"").find(|s| s.starts_with(name))?;
    let field = entry.split("\"median_ns\":").nth(1)?;
    field
        .split(|c: char| c != '.' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn peak_rss_of(json: &str, name: &str) -> Option<u64> {
    let entry = json.split("{\"name\":\"").find(|s| s.starts_with(name))?;
    let field = entry.split("\"peak_rss_bytes\":").nth(1)?;
    field
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    if let Ok(child) = std::env::var(CHILD_ENV) {
        run_child(&child);
        return;
    }

    let exe = std::env::current_exe().expect("current exe");
    let mut fragments = Vec::new();
    for (grid, batch) in CONFIGS {
        for engine in variants(grid) {
            let out = std::process::Command::new(&exe)
                .env(CHILD_ENV, format!("{grid}:{batch}:{engine}"))
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn bench child");
            assert!(out.status.success(), "child {grid}:{batch}:{engine} failed");
            let json = String::from_utf8(out.stdout).expect("child json");
            fragments.push(benchmarks_fragment(&json).to_owned());
        }
    }
    let merged = format!(
        "{{\"suite\":\"infer_plan\",\"benchmarks\":[{}]}}",
        fragments.join(",")
    );

    for (grid, batch) in CONFIGS {
        let tape = median_of(
            &merged,
            &format!("infer/tape/grid{grid}/batch{batch}/forward"),
        );
        let plan = median_of(
            &merged,
            &format!("infer/plan/grid{grid}/batch{batch}/forward"),
        );
        let rss_t = peak_rss_of(
            &merged,
            &format!("infer/tape/grid{grid}/batch{batch}/forward"),
        );
        let rss_p = peak_rss_of(
            &merged,
            &format!("infer/plan/grid{grid}/batch{batch}/forward"),
        );
        if let (Some(t), Some(p)) = (tape, plan) {
            let rss = match (rss_t, rss_p) {
                (Some(t), Some(p)) => format!(
                    "peak rss {:.1} -> {:.1} MiB",
                    t as f64 / (1024.0 * 1024.0),
                    p as f64 / (1024.0 * 1024.0)
                ),
                _ => "peak rss n/a".to_owned(),
            };
            println!(
                "grid {grid} batch {batch}  tape {:>12.1} ns  plan {:>12.1} ns  speedup {:.2}x  {rss}",
                t,
                p,
                t / p
            );
            let name = format!("infer/plan-int8/grid{grid}/batch{batch}/forward");
            if let Some(qn) = median_of(&merged, &name) {
                let rss_q = peak_rss_of(&merged, &name)
                    .map(|r| format!("peak rss {:.1} MiB", r as f64 / (1024.0 * 1024.0)))
                    .unwrap_or_else(|| "peak rss n/a".to_owned());
                println!(
                    "grid {grid} batch {batch}  plan {:>12.1} ns  plan-int8 {:>12.1} ns  speedup {:.2}x  {rss_q}",
                    p,
                    qn,
                    p / qn
                );
            }
        }
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/infer_plan.json");
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    std::fs::write(out, merged).expect("write infer_plan.json");
}
