//! The allocation contract: after one warm-up, a forward of a compiled
//! plan — f32 as captured, or quantized to int8 — performs **zero heap
//! allocations** at one worker.
//!
//! Allocations are counted by a wrapping `#[global_allocator]`, on the
//! test thread only (the harness and other threads allocate freely), and
//! only while the forward under test runs. Kernels are pinned to one pool
//! thread: fanning a large kernel out across the `mfaplace-rt` pool spawns
//! threads, which is the pool's cost, not the executor's. The plan's
//! position attentions run the feature-major forward's serial arm — under
//! AVX2 the query-lane kernel, whose scratch is thread-local and warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use mfaplace_autograd::Graph;
use mfaplace_infer::{profile_plan, run_plan, Calibration, Plan, PlanOptions, QuantOptions};
use mfaplace_models::{Arch, ArchSpec, CongestionModel};
use mfaplace_rt::pool;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the bookkeeping
// touches only const-initialized, destructor-free thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCS.set(ALLOCS.get() + 1);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCS.set(ALLOCS.get() + 1);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

#[test]
fn warm_forwards_of_f32_and_int8_plans_allocate_nothing() {
    let grid = 16;
    let mut spec = ArchSpec::new(Arch::Ours, grid);
    spec.base_channels = 4;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = spec.build(&mut g, &mut rng).expect("build model");
    g.set_grad_enabled(false);

    let x = Tensor::from_fn(vec![2, 6, grid, grid], |i| ((i as f32) * 0.37).sin());
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(&mut g, xv, false);
    let plan = Plan::capture_cached(&g, mark, xv, y, PlanOptions::default(), &mut HashMap::new())
        .expect("plan capture");
    g.truncate(mark);
    let calib = Calibration::collect(&plan, [x.data()]).expect("calibration");
    let int8 = plan
        .quantize(&calib, QuantOptions::default())
        .expect("quantize");
    assert!(
        int8.stats()
            .quant
            .as_ref()
            .expect("quantized")
            .generic_steps
            > 0
    );

    pool::with_threads(1, || {
        for (flavour, plan) in [("f32", &plan), ("int8", &int8)] {
            let mut arena = Vec::new();
            // Both plans carry position attentions: under AVX2 at one pool
            // thread these run the query-lane forward's serial arm, whose
            // only buffer is the thread's kernel scratch.
            let pams = profile_plan(plan, &mut arena, x.data())
                .steps
                .iter()
                .filter(|s| s.kind == "AttentionFm")
                .count();
            assert!(pams > 0, "{flavour}: plan has no position attention");
            // Warm-up: sizes the arena and registers the timer labels.
            let warm = run_plan(plan, &mut arena, x.data(), 1).to_vec();
            let mut same = true;
            let allocs = allocations_in(|| {
                for _ in 0..3 {
                    same &= run_plan(plan, &mut arena, x.data(), 1) == &warm[..];
                }
            });
            assert!(same, "{flavour}: warm forwards drifted from the warm-up");
            assert_eq!(allocs, 0, "{flavour}: warm forwards allocated");
        }
    });
}
