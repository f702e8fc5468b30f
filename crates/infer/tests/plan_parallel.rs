//! Parallel level-scheduler and copy-elision safety suite.
//!
//! The contract under test: executing a compiled plan — as captured or
//! quantized to int8 — with any worker count is **bitwise identical** to
//! serial replay, for every zoo
//! architecture — same-level ops write pairwise-disjoint arena spans and
//! every kernel is deterministic at any worker count, so the merge order
//! of a level cannot change the result. Also pins the copy-elision
//! aliasing rules: eliding a reshape never changes outputs, even when the
//! elided source is read again *after* the alias is created.

use std::collections::HashMap;

use mfaplace_autograd::Graph;
use mfaplace_infer::{
    profile_plan, run_plan, Calibration, Plan, PlanExecutor, PlanOptions, QuantOptions,
};
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

fn build(arch: Arch, grid: usize) -> (Graph, AnyModel) {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let model = spec_for(arch, grid)
        .build(&mut g, &mut rng)
        .expect("build model");
    g.set_grad_enabled(false);
    (g, model)
}

/// Records one eval-mode forward on the tape and compiles it.
fn record(g: &mut Graph, model: &mut AnyModel, x: &Tensor) -> (Vec<f32>, Plan) {
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(g, xv, false);
    let tape_out = g.value(y).data().to_vec();
    let mut cache = HashMap::new();
    let plan = Plan::capture_cached(g, mark, xv, y, PlanOptions::default(), &mut cache)
        .expect("plan capture");
    g.truncate(mark);
    (tape_out, plan)
}

fn assert_bitwise(what: &str, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, p)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.to_bits(),
            p.to_bits(),
            "{what}: output[{i}] want={w} got={p}"
        );
    }
}

#[test]
fn parallel_execution_is_bitwise_identical_to_serial_across_zoo() {
    for arch in ARCHS {
        for grid in [16, 32] {
            let (mut g, mut model) = build(arch, grid);
            let x = input_for(2, grid);
            let (tape_out, plan) = record(&mut g, &mut model, &x);
            let mut arena = Vec::new();
            let serial = run_plan(&plan, &mut arena, x.data(), 1).to_vec();
            assert_bitwise(
                &format!("{arch:?} grid={grid} serial-vs-tape"),
                &tape_out,
                &serial,
            );
            let calib = Calibration::collect(&plan, [x.data()]).expect("calibration");
            let int8 = plan
                .quantize(&calib, QuantOptions::default())
                .expect("quantize");
            for (flavour, plan) in [("f32", &plan), ("int8", &int8)] {
                // Each flavour against its own serial replay: once per
                // worker count, then a second run over the same arena.
                let serial = run_plan(plan, &mut arena, x.data(), 1).to_vec();
                for workers in [1, 2, 4, 4] {
                    let got = run_plan(plan, &mut arena, x.data(), workers);
                    assert_bitwise(
                        &format!("{arch:?} grid={grid} {flavour} workers={workers}"),
                        &serial,
                        got,
                    );
                }
            }
        }
    }
}

#[test]
fn profile_lists_every_step_once_and_accounts_for_the_replay() {
    let (mut g, mut model) = build(Arch::Ours, 16);
    let x = input_for(1, 16);
    let (_, plan) = record(&mut g, &mut model, &x);
    let calib = Calibration::collect(&plan, [x.data()]).expect("calibration");
    let int8 = plan
        .quantize(&calib, QuantOptions::default())
        .expect("quantize");
    let mut arena = Vec::new();
    for (flavour, plan) in [("f32", &plan), ("int8", &int8)] {
        let want = run_plan(plan, &mut arena, x.data(), 1).to_vec();
        let profile = profile_plan(plan, &mut arena, x.data());
        // Profiling is a replay: the arena holds the same output after it.
        assert_bitwise(flavour, &want, run_plan(plan, &mut arena, x.data(), 1));
        let indices: Vec<usize> = profile.steps.iter().map(|s| s.index).collect();
        assert_eq!(
            indices,
            (0..plan.stats().ops).collect::<Vec<_>>(),
            "{flavour}"
        );
        let kinds: Vec<&str> = profile.steps.iter().map(|s| s.kind.as_str()).collect();
        assert!(kinds.contains(&"AttentionFm"), "{flavour}: {kinds:?}");
        assert_eq!(
            kinds.contains(&"Conv2d[i8]"),
            flavour == "int8",
            "{flavour}: {kinds:?}"
        );
        assert!(profile.steps.iter().all(|s| s.out_numel > 0));
        // Every step carries its roofline inputs: writing the output alone
        // is bytes it must move (one per element at the narrowest store),
        // and a position attention does `2·(n + nv)` FLOPs per `exp`.
        for s in &profile.steps {
            assert!(s.cost.bytes >= s.out_numel as u64, "{flavour}: {s:?}");
            if s.kind == "AttentionFm" {
                assert!(s.cost.dims.contains("L="), "{flavour}: {s:?}");
                assert!(
                    s.cost.exps > 0 && s.cost.flops % (2 * s.cost.exps) == 0,
                    "{flavour}: {s:?}"
                );
            }
        }
        // Steps tile the replay: they can only fall short of its wall
        // time, by the run loop's prologue and epilogue.
        let sum: u64 = profile.steps.iter().map(|s| s.ns).sum();
        assert!(
            sum <= profile.wall_ns,
            "{flavour}: {sum} > {}",
            profile.wall_ns
        );
    }
}

#[test]
fn executor_worker_count_is_configurable_and_output_stable() {
    let (mut g, mut model) = build(Arch::Ours, 16);
    let x = input_for(3, 16);
    let (tape_out, plan) = record(&mut g, &mut model, &x);
    let mut exec = PlanExecutor::new(plan);
    exec.set_workers(1);
    let serial = exec.run_batch(x.data()).to_vec();
    assert_bitwise("Ours serial-vs-tape", &tape_out, &serial);
    for workers in [2, 4] {
        exec.set_workers(workers);
        assert_eq!(exec.workers(), workers);
        let got = exec.run_batch(x.data());
        assert_bitwise(&format!("Ours workers={workers}"), &serial, got);
    }
    // set_workers clamps to ≥ 1.
    exec.set_workers(0);
    assert_eq!(exec.workers(), 1);
}

#[test]
fn scheduler_finds_parallel_width_and_reports_stats() {
    for arch in ARCHS {
        let (mut g, mut model) = build(arch, 16);
        let x = input_for(1, 16);
        let (_, plan) = record(&mut g, &mut model, &x);
        let s = plan.stats();
        assert!(s.levels > 0, "{arch:?}: no levels: {s:?}");
        assert!(s.levels <= s.ops, "{arch:?}: more levels than ops: {s:?}");
        if arch == Arch::Ours {
            // The MFA block's parallel dilation branches and the ViT
            // attention path give the paper's architecture levels wider
            // than one op, and its reshapes all elide into aliases. (A
            // plain sequential conv stack like UNet legitimately has
            // width 1 and nothing to elide.)
            assert!(
                s.max_level_width >= 2,
                "{arch:?}: scheduler found no intra-plan parallelism: {s:?}"
            );
            assert!(s.copies_elided > 0, "{arch:?}: no reshapes elided: {s:?}");
        }
        let summary = plan.summary();
        assert!(summary.contains("scheduler"), "summary: {summary}");
        assert!(summary.contains("critical path"), "summary: {summary}");
    }
}

/// Regression: a reshape whose *source* is read again after the alias is
/// created. Eliding `b = reshape(a)` makes `b` an alias of `a`'s span; if
/// liveness were computed per-value instead of per-alias-class, `a`'s span
/// could be freed and recycled while `b` still needs it, or the later
/// `scale(a)` read could observe a clobbered span.
#[test]
fn copy_elision_is_safe_when_source_is_read_after_the_alias() {
    let mut g = Graph::new();
    g.set_grad_enabled(false);
    let mark = g.mark();
    let x = g.constant(input_for(1, 4)); // [1, 6, 4, 4], 96 elements
    let a = g.relu(x);
    let b = g.reshape(a, vec![1, 96]); // alias candidate for a's span
    let c = g.scale(a, 2.0); // reads a AFTER b aliased it
    let b2 = g.reshape(b, vec![1, 6, 4, 4]); // alias chain through b
    let y = g.add(b2, c);
    let tape_out = g.value(y).data().to_vec();

    let plan = Plan::capture(&g, mark, x, y, PlanOptions::default()).expect("capture");
    let s = plan.stats();
    assert!(s.copies_elided >= 2, "reshapes not elided: {s:?}");
    let mut arena = Vec::new();
    for workers in [1, 2, 4] {
        let got = run_plan(&plan, &mut arena, g.value(x).data(), workers);
        assert_bitwise(&format!("elision workers={workers}"), &tape_out, got);
    }
}

/// A reshape that *is* the plan output and roots at the input must keep
/// its Copy: the executor hands out an arena slice, so the output has to
/// live in the arena even when the data is just the input reinterpreted.
#[test]
fn output_reshape_of_the_input_keeps_its_copy() {
    let mut g = Graph::new();
    g.set_grad_enabled(false);
    let mark = g.mark();
    let x = g.constant(input_for(1, 4));
    let y = g.reshape(x, vec![96]);
    let tape_out = g.value(y).data().to_vec();

    let plan = Plan::capture(&g, mark, x, y, PlanOptions::default()).expect("capture");
    let mut arena = Vec::new();
    let got = run_plan(&plan, &mut arena, g.value(x).data(), 4);
    assert_bitwise("input-rooted output reshape", &tape_out, got);
}
