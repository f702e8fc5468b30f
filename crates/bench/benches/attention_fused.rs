//! Before/after benchmark for the fused attention path: the full `ours`
//! model forward with the fused `attention`/`attention_fm` graph ops
//! versus the composed `permute → bmm → softmax → bmm` chains they
//! replaced, at grids 32/64 (forward + train step) and at the
//! paper-fidelity grid 256 (fused forward only: at grid 256 the PAM
//! spatial length is L = 65536, so one composed score tensor alone is
//! L² ≈ 17 GiB and a single composed forward runs for many minutes —
//! there is no composed baseline to measure, which is itself the
//! result: only the tiled fused kernel reaches paper-fidelity
//! resolution at all). Writes `results/attention_fused.json`.
//!
//! A second block times the paper-resolution position attention alone —
//! `attention_fm` at L = 16384, n = nv = 2, the `mfa1` step that is most of
//! a grid-256 forward — on Gaussian q / k scaled to a logit standard
//! deviation of 1, 6 and 12. The arithmetic is identical; what changes is
//! how many softmax terms land in the subnormals on their way to zero,
//! which the hardware handles with microcode assists (EXPERIMENTS.md,
//! "Subnormal sensitivity").
//!
//! Every (grid, variant) combination runs in its **own child process**:
//! peak RSS is sampled from the kernel's `VmHWM` watermark, and a
//! watermark observed after another variant already ran in the same
//! process would inherit that variant's retained heap. One process per
//! variant makes the peak attributable. The parent re-execs itself with
//! `MFA_ATTN_CHILD=<grid>:<variant>` and merges the children's JSON.

use mfaplace_autograd::Graph;
use mfaplace_models::{CongestionModel, OursConfig, OursModel};
use mfaplace_nn::set_composed_attention;
use mfaplace_rt::bench::Suite;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::{attention_fm, Tensor};

const CHILD_ENV: &str = "MFA_ATTN_CHILD";
/// Logit standard deviations of the position-attention rows.
const PAM_AMPLITUDES: [u32; 3] = [1, 6, 12];
const PAM_L: usize = 16384;
const PAM_N: usize = 2;
const GRIDS: [usize; 3] = [32, 64, 256];
const VARIANTS: [&str; 2] = ["composed", "fused"];
/// Largest grid benchmarked beyond a fused-only forward: the composed
/// baseline and the training tape are quadratic in the PAM spatial
/// length and stop being measurable above this (see module docs).
const MAX_FULL_GRID: usize = 64;

fn model(g: &mut Graph, grid: usize) -> OursModel {
    let mut rng = StdRng::seed_from_u64(0);
    OursModel::new(
        g,
        OursConfig {
            grid,
            base_channels: 4,
            vit_layers: 1,
            vit_heads: 2,
            use_mfa: true,
            mfa_reduction: 4,
        },
        &mut rng,
    )
}

fn pam_name(amp: u32) -> String {
    format!("attention/pam_l{PAM_L}_n{PAM_N}/amp{amp}/forward")
}

/// Child mode for one position-attention row: q, k ~ N(0, σ²) with
/// `σ² · √n = amp`, so a logit `Σ_p q_p·k_p` has standard deviation `amp`.
fn run_pam_child(amp: u32) {
    let mut rng = StdRng::seed_from_u64(5);
    let sigma = (amp as f32 / (PAM_N as f32).sqrt()).sqrt();
    let q = Tensor::randn(vec![1, PAM_N, PAM_L], sigma, &mut rng);
    let k = Tensor::randn(vec![1, PAM_N, PAM_L], sigma, &mut rng);
    let v = Tensor::randn(vec![1, PAM_N, PAM_L], 1.0, &mut rng);
    let mut suite = Suite::new("attention_fused").with_config(2, 7);
    suite.run(&pam_name(amp), |b| {
        b.iter(|| std::hint::black_box(attention_fm(&q, &k, &v, 1.0).sum()))
    });
    print!("{}", suite.to_json());
}

/// Child mode: benchmark one (grid, variant) — or, for `pam:<amp>`, one
/// position-attention row — and print the suite JSON on stdout (the table
/// goes to stderr).
fn run_child(spec: &str) {
    let (grid, variant) = spec
        .split_once(':')
        .expect("MFA_ATTN_CHILD=<grid>:<variant>");
    if grid == "pam" {
        return run_pam_child(variant.parse().expect("amplitude"));
    }
    let grid: usize = grid.parse().expect("grid");
    set_composed_attention(variant == "composed");

    let mut g = Graph::new();
    let mut m = model(&mut g, grid);
    let mut rng = StdRng::seed_from_u64(1);
    let input = Tensor::randn(vec![1, 6, grid, grid], 1.0, &mut rng);

    let mut suite = Suite::new("attention_fused").with_config(2, 7);

    // Inference hot path: the predictor records forwards with gradients off.
    g.set_grad_enabled(false);
    let mark = g.mark();
    suite.run(&format!("attention/{variant}/grid{grid}/forward"), |b| {
        b.iter(|| {
            let x = g.constant(input.clone());
            let y = m.forward(&mut g, x, false);
            let out = g.value(y).sum();
            g.truncate(mark);
            std::hint::black_box(out)
        })
    });

    // Training step (forward + backward over the same tape).
    if grid > MAX_FULL_GRID {
        print!("{}", suite.to_json());
        return;
    }
    g.set_grad_enabled(true);
    let mark = g.mark();
    suite.run(&format!("attention/{variant}/grid{grid}/train_step"), |b| {
        b.iter(|| {
            let x = g.constant(input.clone());
            let y = m.forward(&mut g, x, true);
            let loss = g.mean(y);
            g.backward(loss);
            let out = g.value(loss).item();
            g.zero_grads();
            g.truncate(mark);
            std::hint::black_box(out)
        })
    });

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
    if let Ok(spec) = std::env::var(CHILD_ENV) {
        run_child(&spec);
        return;
    }

    let exe = std::env::current_exe().expect("current exe");
    let mut specs = Vec::new();
    for grid in GRIDS {
        for variant in VARIANTS {
            if grid <= MAX_FULL_GRID || variant != "composed" {
                specs.push(format!("{grid}:{variant}"));
            }
        }
    }
    specs.extend(PAM_AMPLITUDES.map(|amp| format!("pam:{amp}")));
    let mut fragments = Vec::new();
    for spec in specs {
        let out = std::process::Command::new(&exe)
            .env(CHILD_ENV, &spec)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn bench child");
        assert!(out.status.success(), "child {spec} failed");
        let json = String::from_utf8(out.stdout).expect("child json");
        fragments.push(benchmarks_fragment(&json).to_owned());
    }
    let merged = format!(
        "{{\"suite\":\"attention_fused\",\"benchmarks\":[{}]}}",
        fragments.join(",")
    );

    for grid in GRIDS {
        for stage in ["forward", "train_step"] {
            let composed = median_of(&merged, &format!("attention/composed/grid{grid}/{stage}"));
            let fused = median_of(&merged, &format!("attention/fused/grid{grid}/{stage}"));
            let rss_c = peak_rss_of(&merged, &format!("attention/composed/grid{grid}/{stage}"));
            let rss_f = peak_rss_of(&merged, &format!("attention/fused/grid{grid}/{stage}"));
            if let (Some(c), Some(f)) = (composed, fused) {
                let rss = match (rss_c, rss_f) {
                    (Some(c), Some(f)) => format!(
                        "peak rss {:.1} -> {:.1} MiB",
                        c as f64 / (1024.0 * 1024.0),
                        f as f64 / (1024.0 * 1024.0)
                    ),
                    _ => "peak rss n/a".to_owned(),
                };
                println!(
                    "grid {grid} {stage:<10} composed {:>12.1} ns  fused {:>12.1} ns  speedup {:.2}x  {rss}",
                    c,
                    f,
                    c / f
                );
            } else if let Some(f) = fused {
                let rss = match rss_f {
                    Some(f) => format!("peak rss {:.1} MiB", f as f64 / (1024.0 * 1024.0)),
                    None => "peak rss n/a".to_owned(),
                };
                println!(
                    "grid {grid} {stage:<10} composed   (not measurable)  fused {f:>12.1} ns  {rss}"
                );
            }
        }
    }

    let base = median_of(&merged, &pam_name(PAM_AMPLITUDES[0]));
    for amp in PAM_AMPLITUDES {
        if let (Some(t), Some(base)) = (median_of(&merged, &pam_name(amp)), base) {
            println!(
                "pam L={PAM_L} n=nv={PAM_N} logit std {amp:<2} {:>8.1} ms  {:.2}x of std {}",
                t / 1e6,
                t / base,
                PAM_AMPLITUDES[0]
            );
        }
    }

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/attention_fused.json"
    );
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    std::fs::write(out, merged).expect("write attention_fused.json");
}
