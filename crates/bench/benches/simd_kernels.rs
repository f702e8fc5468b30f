//! Microbenchmarks for the dispatched SIMD kernels: packed-panel GEMM,
//! fused attention (one head batch of the grid-256 model's multi-head
//! self-attention, feature-major), softmax rows, and the conv
//! bias→affine→ReLU epilogue, each run once per supported kernel
//! backend. Writes `results/simd_kernels.json` and prints the
//! vector-vs-scalar speedup per kernel.
//!
//! Every backend runs in its **own child process**: the backend choice is
//! latched per process at first kernel use, and thread-local pack
//! scratch, code paging, and the RSS watermark would otherwise bleed
//! between backends measured in one process. The parent re-execs itself
//! with `MFA_SIMD_CHILD=<backend>` (and `MFAPLACE_KERNELS=<backend>` so
//! any lazy init agrees) and merges the children's JSON.

use mfaplace_rt::bench::Suite;
use mfaplace_rt::rng::{Rng, SeedableRng, StdRng};
use mfaplace_tensor::simd::{self, Backend};
use mfaplace_tensor::{attention_fm_slices, Tensor};

const CHILD_ENV: &str = "MFA_SIMD_CHILD";

/// GEMM problem: 256x256x256, the ViT-block scale at grid 256.
const GEMM_DIM: usize = 256;
/// Attention problem: the grid-256 model's multi-head self-attention, four
/// heads (`B·H`) over 256 tokens, head dim 16, in the feature-major layout
/// `[B·H, dh, L]` it splits its heads into.
const ATTN_B: usize = 4;
const ATTN_L: usize = 256;
const ATTN_D: usize = 16;
/// Softmax problem: 4096 rows of 256 logits, softmaxed in place (the
/// output of one pass is a valid input for the next, so no per-iteration
/// copy pollutes the measurement).
const SOFTMAX_ROWS: usize = 4096;
const SOFTMAX_N: usize = 256;
/// Conv-epilogue problem: 1 MiB of f32 activations, bias + affine + relu.
const EPILOGUE_LEN: usize = 1 << 20;

fn randn_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Child mode: benchmark every kernel under one backend and print the
/// suite JSON on stdout (the table goes to stderr).
fn run_child(name: &str) {
    let bk = Backend::parse(name)
        .expect("child backend")
        .expect("child backend is never auto");
    simd::force(Some(bk)).expect("force child backend");

    let mut rng = StdRng::seed_from_u64(42);
    let mut suite = Suite::new("simd_kernels").with_config(2, 7);

    let a = Tensor::from_vec(
        vec![GEMM_DIM, GEMM_DIM],
        randn_vec(&mut rng, GEMM_DIM * GEMM_DIM),
    )
    .expect("gemm a");
    let b = Tensor::from_vec(
        vec![GEMM_DIM, GEMM_DIM],
        randn_vec(&mut rng, GEMM_DIM * GEMM_DIM),
    )
    .expect("gemm b");
    let mut out = vec![0.0f32; GEMM_DIM * GEMM_DIM];
    suite.run(&format!("simd/{name}/gemm/{GEMM_DIM}cubed"), |bch| {
        bch.iter(|| {
            a.matmul2d_into(&b, &mut out);
            std::hint::black_box(out[0])
        })
    });

    let q = randn_vec(&mut rng, ATTN_B * ATTN_L * ATTN_D);
    let k = randn_vec(&mut rng, ATTN_B * ATTN_L * ATTN_D);
    let v = randn_vec(&mut rng, ATTN_B * ATTN_L * ATTN_D);
    let mut attn_out = vec![0.0f32; ATTN_B * ATTN_L * ATTN_D];
    let mut scratch = vec![0.0f32; ATTN_L];
    let scale = 1.0 / (ATTN_D as f32).sqrt();
    suite.run(
        &format!("simd/{name}/attention_fm/b{ATTN_B}l{ATTN_L}d{ATTN_D}"),
        |bch| {
            bch.iter(|| {
                attention_fm_slices(
                    &q,
                    &k,
                    &v,
                    ATTN_B,
                    ATTN_D,
                    ATTN_D,
                    ATTN_L,
                    scale,
                    &mut attn_out,
                    &mut scratch,
                );
                std::hint::black_box(attn_out[0])
            })
        },
    );

    let mut rows = randn_vec(&mut rng, SOFTMAX_ROWS * SOFTMAX_N);
    suite.run(
        &format!("simd/{name}/softmax/{SOFTMAX_ROWS}x{SOFTMAX_N}"),
        |bch| {
            bch.iter(|| {
                for r in rows.chunks_exact_mut(SOFTMAX_N) {
                    simd::softmax_row_with(simd::active(), r);
                }
                std::hint::black_box(rows[0])
            })
        },
    );

    let src = randn_vec(&mut rng, EPILOGUE_LEN);
    let mut dst = vec![0.0f32; EPILOGUE_LEN];
    suite.run(&format!("simd/{name}/conv_epilogue/1m"), |bch| {
        bch.iter(|| {
            simd::conv_epilogue_with(
                simd::active(),
                &src,
                &mut dst,
                Some(0.125),
                Some((1.01, -0.05)),
                true,
            );
            std::hint::black_box(dst[0])
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

fn main() {
    if let Ok(name) = std::env::var(CHILD_ENV) {
        run_child(&name);
        return;
    }

    let backends = simd::supported();
    let exe = std::env::current_exe().expect("current exe");
    let mut fragments = Vec::new();
    for bk in &backends {
        let out = std::process::Command::new(&exe)
            .env(CHILD_ENV, bk.name())
            .env("MFAPLACE_KERNELS", bk.name())
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn bench child");
        assert!(out.status.success(), "child {} failed", bk.name());
        let json = String::from_utf8(out.stdout).expect("child json");
        fragments.push(benchmarks_fragment(&json).to_owned());
    }
    let merged = format!(
        "{{\"suite\":\"simd_kernels\",\"benchmarks\":[{}]}}",
        fragments.join(",")
    );

    let kernels = [
        format!("gemm/{GEMM_DIM}cubed"),
        format!("attention_fm/b{ATTN_B}l{ATTN_L}d{ATTN_D}"),
        format!("softmax/{SOFTMAX_ROWS}x{SOFTMAX_N}"),
        "conv_epilogue/1m".to_owned(),
    ];
    for kernel in &kernels {
        let scalar = median_of(&merged, &format!("simd/scalar/{kernel}"));
        for bk in &backends {
            if *bk == Backend::Scalar {
                continue;
            }
            let vector = median_of(&merged, &format!("simd/{}/{kernel}", bk.name()));
            if let (Some(s), Some(v)) = (scalar, vector) {
                println!(
                    "{kernel:<28} scalar {s:>12.1} ns  {} {v:>12.1} ns  speedup {:.2}x",
                    bk.name(),
                    s / v
                );
            }
        }
    }

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/simd_kernels.json"
    );
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    std::fs::write(out, merged).expect("write simd_kernels.json");
}
