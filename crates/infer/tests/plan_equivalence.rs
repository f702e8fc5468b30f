//! Plan-vs-tape equivalence across the whole model zoo.
//!
//! The contract under test: a compiled plan's output is **bitwise
//! identical** to the dynamic tape forward for every zoo architecture,
//! batch size and grid size. Also asserts the zero-allocation contract (stable arena, no
//! regrowth across forwards) and the fusion/stats counters.

use std::collections::HashMap;

use mfaplace_autograd::{Graph, Var};
use mfaplace_infer::{run_plan, Plan};
use mfaplace_models::{AnyModel, Arch, ArchSpec, CongestionModel};
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

const ARCHS: [Arch; 4] = [Arch::Ours, Arch::UNet, Arch::Pgnn, Arch::Pros2];

/// Small-but-complete spec: every structural feature on (MFA, ViT) at a
/// test-friendly width.
fn spec_for(arch: Arch, grid: usize) -> ArchSpec {
    let mut spec = ArchSpec::new(arch, grid);
    spec.base_channels = 2;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    spec
}

/// Deterministic pseudo-random `[b, 6, grid, grid]` input.
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

struct Recorded {
    tape_out: Vec<f32>,
    plan: Plan,
}

/// Records one eval-mode forward on the tape and compiles it.
fn record(
    g: &mut Graph,
    model: &mut AnyModel,
    x: &Tensor,
    cache: &mut HashMap<usize, std::sync::Arc<Tensor>>,
) -> Recorded {
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(g, xv, false);
    let tape_out = g.value(y).data().to_vec();
    let plan = Plan::capture_cached(g, mark, xv, y, cache).expect("plan capture");
    g.truncate(mark);
    Recorded { tape_out, plan }
}

fn build(arch: Arch, grid: usize) -> (Graph, AnyModel) {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let model = spec_for(arch, grid)
        .build(&mut g, &mut rng)
        .expect("build model");
    g.set_grad_enabled(false);
    (g, model)
}

fn assert_bitwise(arch: Arch, b: usize, grid: usize, tape: &[f32], plan: &[f32]) {
    assert_eq!(tape.len(), plan.len(), "{arch:?} b={b} grid={grid}: length");
    for (i, (t, p)) in tape.iter().zip(plan).enumerate() {
        assert_eq!(
            t.to_bits(),
            p.to_bits(),
            "{arch:?} b={b} grid={grid}: output[{i}] tape={t} plan={p}"
        );
    }
}

#[test]
fn plan_matches_tape_bitwise_across_zoo_batches_and_grids() {
    for arch in ARCHS {
        for grid in [16, 32] {
            let (mut g, mut model) = build(arch, grid);
            let mut cache = HashMap::new();
            for b in [1, 3, 8] {
                let x = input_for(b, grid);
                let rec = record(&mut g, &mut model, &x, &mut cache);
                let got = run_plan(&rec.plan, &mut Vec::new(), x.data()).to_vec();
                assert_bitwise(arch, b, grid, &rec.tape_out, &got);
            }
            // The per-model weight snapshot cache deduplicates parameters
            // across the three per-batch-size plans.
            assert!(!cache.is_empty(), "{arch:?}: weight cache unused");
        }
    }
}

#[test]
fn repeated_runs_reuse_the_arena_and_stay_bitwise_stable() {
    let (mut g, mut model) = build(Arch::Ours, 16);
    let x = input_for(3, 16);
    let mut cache = HashMap::new();
    let rec = record(&mut g, &mut model, &x, &mut cache);
    let mut arena = Vec::new();
    let first = run_plan(&rec.plan, &mut arena, x.data()).to_vec();
    let ptr = arena.as_ptr();
    for _ in 0..3 {
        let again = run_plan(&rec.plan, &mut arena, x.data());
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "outputs drifted across arena reuse"
        );
    }
    assert_eq!(ptr, arena.as_ptr(), "arena was reallocated between runs");
}

#[test]
fn fusion_collapses_conv_chains_and_reports_stats() {
    let (mut g, mut model) = build(Arch::Ours, 16);
    let x = input_for(2, 16);
    let mut cache = HashMap::new();
    let rec = record(&mut g, &mut model, &x, &mut cache);
    let s = rec.plan.stats();
    assert!(s.ops > 0);
    assert!(s.fused_conv_bias > 0, "no conv+bias fusions: {s:?}");
    assert!(s.fused_conv_affine > 0, "no conv+affine fusions: {s:?}");
    assert!(s.fused_conv_relu > 0, "no conv+relu fusions: {s:?}");
    assert!(s.arena_bytes > 0 && s.weight_bytes > 0);
    assert_eq!(rec.plan.input_shape(), &[2, 6, 16, 16]);
    assert_eq!(rec.plan.output_shape(), &[2, 8, 16, 16]);
    let summary = rec.plan.summary();
    assert!(summary.contains("compiled plan"), "summary: {summary}");
    assert!(summary.contains("arena"), "summary: {summary}");
}

/// Every training-only op is a capture error that names it; the sum form
/// of the cross entropy records the same op as the mean form.
#[test]
fn capture_rejects_training_only_tapes() {
    type Head = fn(&mut Graph, Var) -> Var;
    let cases: [(&str, Head); 6] = [
        ("batch_norm2d", |g, y| {
            let gamma = g.param(Tensor::ones(vec![2]));
            let beta = g.param(Tensor::zeros(vec![2]));
            g.batch_norm2d(y, gamma, beta, 1e-5).0
        }),
        ("cross_entropy2d", |g, y| {
            g.cross_entropy2d(y, &[0, 1, 1, 0], None)
        }),
        ("cross_entropy2d", |g, y| {
            g.cross_entropy2d_sum(y, &[0, 1, 1, 0], Some(&[1.0, 2.0]))
        }),
        ("mse_loss", |g, y| {
            g.mse_loss(y, &Tensor::zeros(vec![1, 2, 2, 2]))
        }),
        ("mean", |g, y| g.mean(y)),
        ("sum", |g, y| g.sum(y)),
    ];
    for (name, head) in cases {
        let mut g = Graph::new();
        let w = g.param(Tensor::full(vec![1, 2, 2, 2], 0.5));
        let mark = g.mark();
        let x = g.constant(Tensor::from_fn(vec![1, 2, 2, 2], |i| i as f32));
        let y = g.mul(w, x);
        let out = head(&mut g, y);
        let err = Plan::capture(&g, mark, x, out).unwrap_err();
        assert!(
            err.contains("training-only") && err.contains(name),
            "{name}: unexpected error: {err}"
        );
    }
}
