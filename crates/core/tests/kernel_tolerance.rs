//! Model-level kernel-backend tolerance suite.
//!
//! Drives every zoo architecture end-to-end under each supported vector
//! backend and checks the `crate::simd` numeric contract at the predictor
//! level:
//!
//! - tape forward and compiled-plan forward under a vector backend stay
//!   within the documented max-norm bound (≤ `1e-5` of the scalar output's
//!   scale) of the scalar reference;
//! - plan-vs-tape stays **bitwise** within each backend (the
//!   within-backend contracts are backend-uniform);
//! - the predictor-level acceptance: the 8-class argmax congestion level
//!   map is unchanged between scalar and vector backends.
//!
//! Everything runs in one `#[test]` because the backend switch
//! (`simd::force`) is process-global; scalar bitwise stability against the
//! committed goldens is covered separately by `golden_regression.rs`,
//! which pins the scalar backend.

use std::collections::HashMap;

use mfaplace_autograd::Graph;
use mfaplace_infer::{run_plan, Plan};
use mfaplace_models::{AnyModel, Arch, ArchSpec, CongestionModel};
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::simd::{self, Backend};
use mfaplace_tensor::Tensor;

const ARCHS: [Arch; 4] = [Arch::Ours, Arch::UNet, Arch::Pgnn, Arch::Pros2];
const GRID: usize = 16;
const BATCH: usize = 2;

fn input_for(b: usize, grid: usize) -> Tensor {
    let n = b * 6 * grid * grid;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2_654_435_761);
            (h >> 8) as f32 / (1 << 24) as f32 * 2.0 - 1.0
        })
        .collect();
    Tensor::from_vec(vec![b, 6, grid, grid], data).expect("input tensor")
}

fn build(arch: Arch) -> (Graph, AnyModel) {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut spec = ArchSpec::new(arch, GRID);
    spec.base_channels = 2;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    let model = spec.build(&mut g, &mut rng).expect("build model");
    g.set_grad_enabled(false);
    (g, model)
}

/// One eval-mode tape forward plus a compiled-plan forward under the
/// currently active backend.
fn forward_both(g: &mut Graph, model: &mut AnyModel, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(g, xv, false);
    let tape = g.value(y).data().to_vec();
    let mut cache = HashMap::new();
    let plan = Plan::capture_cached(g, mark, xv, y, &mut cache).expect("plan");
    g.truncate(mark);
    let plan_out = run_plan(&plan, &mut Vec::new(), x.data()).to_vec();
    (tape, plan_out)
}

/// Per-cell argmax over the 8 class channels of a `[b, 8, g, g]` logit
/// volume — first maximum wins, exactly the predictor's level-map rule.
fn level_map(out: &[f32], b: usize, grid: usize) -> Vec<u8> {
    let cells = grid * grid;
    let classes = out.len() / (b * cells);
    let mut map = vec![0u8; b * cells];
    for bi in 0..b {
        for cell in 0..cells {
            let mut best = 0usize;
            let mut best_v = f32::NEG_INFINITY;
            for c in 0..classes {
                let v = out[(bi * classes + c) * cells + cell];
                if v > best_v {
                    best_v = v;
                    best = c;
                }
            }
            map[bi * cells + cell] = best as u8;
        }
    }
    map
}

fn assert_tolerance(tag: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    let scale = want.iter().fold(0.0f32, |a, &x| a.max(x.abs())).max(1.0);
    let mut worst = 0.0f32;
    for (&g, &w) in got.iter().zip(want) {
        worst = worst.max((g - w).abs());
    }
    assert!(
        worst <= 1e-5 * scale,
        "{tag}: max-norm error {worst} exceeds 1e-5 of scale {scale}"
    );
}

#[test]
fn vector_backends_track_scalar_across_the_zoo() {
    let vector: Vec<Backend> = simd::supported()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .collect();
    if vector.is_empty() {
        eprintln!("no vector backend on this host; scalar-only run is trivially green");
        return;
    }
    let x = input_for(BATCH, GRID);
    for arch in ARCHS {
        let (mut g, mut model) = build(arch);
        simd::force(Some(Backend::Scalar)).unwrap();
        let (scalar_tape, scalar_plan) = forward_both(&mut g, &mut model, &x);
        // Scalar plan-vs-tape bitwise (pre-existing contract, re-asserted
        // here so a dispatch regression in either path is caught locally).
        for (t, p) in scalar_tape.iter().zip(&scalar_plan) {
            assert_eq!(t.to_bits(), p.to_bits(), "{arch:?}: scalar plan != tape");
        }
        let scalar_map = level_map(&scalar_tape, BATCH, GRID);
        for &bk in &vector {
            simd::force(Some(bk)).unwrap();
            let (vec_tape, vec_plan) = forward_both(&mut g, &mut model, &x);
            for (t, p) in vec_tape.iter().zip(&vec_plan) {
                assert_eq!(
                    t.to_bits(),
                    p.to_bits(),
                    "{arch:?}: {bk:?} plan != tape (within-backend contract)"
                );
            }
            assert_tolerance(&format!("{arch:?} {bk:?} tape"), &vec_tape, &scalar_tape);
            assert_tolerance(&format!("{arch:?} {bk:?} plan"), &vec_plan, &scalar_plan);
            assert_eq!(
                level_map(&vec_tape, BATCH, GRID),
                scalar_map,
                "{arch:?}: {bk:?} changed the argmax congestion level map"
            );
        }
        simd::force(None).unwrap();
    }
}
