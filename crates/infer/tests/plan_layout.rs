//! Plan layout suite: the per-step profile of a serial replay, and the
//! copy-elision aliasing rules. Eliding a reshape never changes outputs,
//! even when the elided source is read again *after* the alias is created.
//! (Plan ≡ tape across the zoo is `plan_equivalence`'s job; int8
//! run-to-run stability is `quant_tolerance`'s.)

use mfaplace_autograd::Graph;
use mfaplace_infer::{profile_plan, run_plan, Calibration, Plan, QuantOptions};
use mfaplace_models::{Arch, ArchSpec, CongestionModel};
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

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

/// The paper's architecture at a test-friendly width with every structural
/// feature on (MFA, ViT), captured from one eval-mode forward over `x`.
fn ours_plan(x: &Tensor) -> Plan {
    let mut spec = ArchSpec::new(Arch::Ours, x.shape()[2]);
    spec.base_channels = 2;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    let mut g = Graph::new();
    let mut model = spec
        .build(&mut g, &mut StdRng::seed_from_u64(7))
        .expect("build model");
    g.set_grad_enabled(false);
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(&mut g, xv, false);
    Plan::capture(&g, mark, xv, y).expect("plan capture")
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
fn profile_lists_every_step_once_and_accounts_for_the_replay() {
    let x = input_for(1, 16);
    let plan = ours_plan(&x);
    // The paper's architecture reshapes into and out of its attention
    // blocks, and those reshapes elide into aliases.
    assert!(plan.stats().copies_elided > 0, "{:?}", plan.stats());
    let calib = Calibration::collect(&plan, [x.data()]).expect("calibration");
    let int8 = plan
        .quantize(&calib, QuantOptions::default())
        .expect("quantize");
    let mut arena = Vec::new();
    for (flavour, plan) in [("f32", &plan), ("int8", &int8)] {
        let want = run_plan(plan, &mut arena, x.data()).to_vec();
        let profile = profile_plan(plan, &mut arena, x.data());
        // Profiling is a replay: the arena holds the same output after it.
        assert_bitwise(flavour, &want, run_plan(plan, &mut arena, x.data()));
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
        // An f32 convolution packs its lowering in the thread's kernel
        // scratch, one column block at a time: it declares no arena
        // scratch. The int8 conv still lowers into the arena.
        for s in &profile.steps {
            match s.kind.as_str() {
                "Conv2d" => assert_eq!(s.scratch_bytes, 0, "{flavour}: {s:?}"),
                "Conv2d[i8]" => assert!(s.scratch_bytes > 0, "{flavour}: {s:?}"),
                _ => {}
            }
        }
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

    let plan = Plan::capture(&g, mark, x, y).expect("capture");
    let s = plan.stats();
    assert!(s.copies_elided >= 2, "reshapes not elided: {s:?}");
    let mut arena = Vec::new();
    let got = run_plan(&plan, &mut arena, g.value(x).data());
    assert_bitwise("elision", &tape_out, got);
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

    let plan = Plan::capture(&g, mark, x, y).expect("capture");
    let mut arena = Vec::new();
    let got = run_plan(&plan, &mut arena, g.value(x).data());
    assert_bitwise("input-rooted output reshape", &tape_out, got);
}
