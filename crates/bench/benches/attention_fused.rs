//! Benchmark of the fused attention path: the full `ours` model forward
//! with the fused `attention`/`attention_fm` graph ops at grids 32/64
//! (forward + train step) and at the paper-fidelity grid 256 (forward
//! only: at grid 256 the PAM spatial length is L = 65536 and the training
//! tape stops being measurable). The composed `permute → bmm → softmax →
//! bmm` chains these ops replaced survive only as the bitwise reference in
//! the attention modules' unit tests; their last timings are in
//! EXPERIMENTS.md ("Fused attention"). Writes `results/attention_fused.json`.
//!
//! A second block times the paper-resolution position attention alone —
//! `attention_fm` at L = 16384, n = nv = 2, the `mfa1` step that is most of
//! a grid-256 forward — on Gaussian q / k scaled to a logit standard
//! deviation of 1, 6 and 12. The arithmetic is identical; what changes is
//! how many softmax terms land in the subnormals on their way to zero,
//! which the hardware handles with microcode assists (EXPERIMENTS.md,
//! "Subnormal sensitivity"). A third block times the backward of the
//! training shape — `attention_fm_backward_into` at L = 1024, n = nv = 2, the
//! grid-64 model's `mfa1` — at logit standard deviations 1 and 12: the
//! subnormal weights a trained model's sharper logits produce slow it far
//! more than they slow the forward (EXPERIMENTS.md, "The seed-8 anomaly").
//!
//! Every grid and every attention row runs in its **own child process**:
//! peak RSS is sampled from the kernel's `VmHWM` watermark, and a
//! watermark observed after another configuration already ran in the same
//! process would inherit its retained heap. One process per configuration
//! makes the peak attributable. The parent re-execs itself with
//! `MFA_ATTN_CHILD=<grid>` (or `pam:<amp>` / `pam_bwd:<amp>`) and merges
//! the children's JSON.

use mfaplace_autograd::Graph;
use mfaplace_models::{CongestionModel, OursConfig, OursModel};
use mfaplace_rt::bench::Suite;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::{attention_fm, attention_fm_backward_into, Tensor};

const CHILD_ENV: &str = "MFA_ATTN_CHILD";
/// Logit standard deviations of the position-attention rows.
const PAM_AMPLITUDES: [u32; 3] = [1, 6, 12];
const PAM_L: usize = 16384;
const PAM_N: usize = 2;
/// Logit standard deviations of the backward rows, and their length.
const PAM_BWD_AMPLITUDES: [u32; 2] = [1, 12];
const PAM_BWD_L: usize = 1024;
const GRIDS: [usize; 3] = [32, 64, 256];
/// Largest grid whose train step is benchmarked: the training tape is
/// quadratic in the PAM spatial length above it (see module docs).
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

fn pam_bwd_name(amp: u32) -> String {
    format!("attention/pam_l{PAM_BWD_L}_n{PAM_N}/amp{amp}/backward")
}

/// Position-attention operands of length `l`: q, k ~ N(0, σ²) with
/// `σ² · √n = amp`, so a logit `Σ_p q_p·k_p` has standard deviation `amp`;
/// v (and the upstream gradient) ~ N(0, 1).
fn pam_operands(l: usize, amp: u32) -> [Tensor; 4] {
    let mut rng = StdRng::seed_from_u64(5);
    let sigma = (amp as f32 / (PAM_N as f32).sqrt()).sqrt();
    let mut draw = |s: f32| Tensor::randn(vec![1, PAM_N, l], s, &mut rng);
    [draw(sigma), draw(sigma), draw(1.0), draw(1.0)]
}

/// Child mode for one position-attention row: the paper-resolution forward,
/// or with `backward` the training shape's backward, on one pool thread
/// (the backward is serial; the forward fans out).
fn run_pam_child(amp: u32, backward: bool) {
    let mut suite = Suite::new("attention_fused").with_config(2, 7);
    if backward {
        let [q, k, v, dy] = pam_operands(PAM_BWD_L, amp);
        let [mut dq, mut dk, mut dv] = [&q, &k, &v].map(|x| vec![0.0; x.numel()]);
        suite.run(&pam_bwd_name(amp), |b| {
            b.iter(|| {
                attention_fm_backward_into(&q, &k, &v, 1.0, &dy, &mut dq, &mut dk, &mut dv);
                std::hint::black_box(dq.iter().sum::<f32>())
            })
        });
    } else {
        let [q, k, v, _] = pam_operands(PAM_L, amp);
        suite.run(&pam_name(amp), |b| {
            b.iter(|| std::hint::black_box(attention_fm(&q, &k, &v, 1.0).sum()))
        });
    }
    print!("{}", suite.to_json());
}

/// Child mode: benchmark one grid — or, for `pam:<amp>`, one
/// position-attention row — and print the suite JSON on stdout (the table
/// goes to stderr).
fn run_child(spec: &str) {
    if let Some((pass, amp)) = spec.split_once(':') {
        return run_pam_child(amp.parse().expect("amplitude"), pass == "pam_bwd");
    }
    let grid: usize = spec.parse().expect("MFA_ATTN_CHILD=<grid>");

    let mut g = Graph::new();
    let mut m = model(&mut g, grid);
    let mut rng = StdRng::seed_from_u64(1);
    let input = Tensor::randn(vec![1, 6, grid, grid], 1.0, &mut rng);

    let mut suite = Suite::new("attention_fused").with_config(2, 7);

    // Inference hot path: the predictor records forwards with gradients off.
    g.set_grad_enabled(false);
    let mark = g.mark();
    suite.run(&format!("attention/fused/grid{grid}/forward"), |b| {
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
    suite.run(&format!("attention/fused/grid{grid}/train_step"), |b| {
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
    let mut specs: Vec<String> = GRIDS.iter().map(usize::to_string).collect();
    specs.extend(PAM_AMPLITUDES.map(|amp| format!("pam:{amp}")));
    specs.extend(PAM_BWD_AMPLITUDES.map(|amp| format!("pam_bwd:{amp}")));
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
            let name = format!("attention/fused/grid{grid}/{stage}");
            if let Some(t) = median_of(&merged, &name) {
                let rss = peak_rss_of(&merged, &name).map_or("peak rss n/a".to_owned(), |r| {
                    format!("peak rss {:.1} MiB", r as f64 / (1024.0 * 1024.0))
                });
                println!("grid {grid} {stage:<10} fused {t:>12.1} ns  {rss}");
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

    let base = median_of(&merged, &pam_bwd_name(PAM_BWD_AMPLITUDES[0]));
    for amp in PAM_BWD_AMPLITUDES {
        if let (Some(t), Some(base)) = (median_of(&merged, &pam_bwd_name(amp)), base) {
            println!(
                "pam backward L={PAM_BWD_L} n=nv={PAM_N} logit std {amp:<2} {:>8.3} ms  {:.2}x of std {}",
                t / 1e6,
                t / base,
                PAM_BWD_AMPLITUDES[0]
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
