//! The allocation contract of global placement: once a stage's first
//! iteration has sized the placer's scratch, a star-model iteration —
//! wirelength passes, spreading of every class along both axes, region
//! pass, overflow and the five pass timers — performs **zero heap
//! allocations**: no per-pass accumulators, per-band capacity profiles,
//! column lists or bucket vectors.
//!
//! Allocations are counted by a wrapping `#[global_allocator]`, on the
//! test thread only (the pattern of `crates/infer/tests/no_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfaplace_fpga::design::DesignPreset;
use mfaplace_placer::gp::{GlobalPlacer, GpConfig};

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

#[test]
fn star_iterations_after_the_first_allocate_nothing() {
    let design = DesignPreset::design_176()
        .with_scale(512, 64, 32)
        .generate(4);
    let cfg = GpConfig {
        iterations: 8,
        ..GpConfig::default()
    };
    // A first use of each timer label copies it into the registry; let a
    // throwaway stage pay for that.
    GlobalPlacer::new(&design, 1).run_stage(&GpConfig {
        iterations: 1,
        ..cfg.clone()
    });

    let mut gp = GlobalPlacer::new(&design, 2);
    ALLOCS.set(0);
    let (iterations, _) = gp
        .run_stage_observed(&cfg, &mut |_, _, _| {
            // From the end of the first iteration to the end of the stage.
            COUNTING.set(true);
            true
        })
        .expect("the observer never aborts");
    COUNTING.set(false);
    assert!(iterations > 1, "only the first iteration ran");
    assert_eq!(ALLOCS.get(), 0, "warm iterations allocated");

    // A later stage starts warm, area writes in between included.
    gp.areas_mut()[0] *= 2.0;
    COUNTING.set(true);
    gp.run_stage(&cfg);
    COUNTING.set(false);
    assert_eq!(ALLOCS.get(), 0, "a second stage allocated");
}
