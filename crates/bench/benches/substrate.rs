//! Microbenchmarks of the EDA substrates: feature extraction, global
//! routing + congestion analysis, one global-placement iteration, and the
//! parallel-vs-serial dense kernels — the per-iteration costs behind the
//! `T_macro` budget.
//!
//! Runs on the self-contained `mfaplace_rt::bench` harness (warmup +
//! median-of-N over `std::time::Instant`) and writes
//! `results/bench_substrate.json`. The GEMM/conv pairs at the bottom
//! compare the serial path (`with_threads(1)`) against the pooled path at
//! the host's full thread count; on a multi-core host the parallel median
//! should be a small fraction of the serial one, with bitwise-identical
//! outputs (asserted before timing).

use mfaplace_fpga::design::DesignPreset;
use mfaplace_fpga::features::FeatureStack;
use mfaplace_placer::gp::{GlobalPlacer, GpConfig};
use mfaplace_router::congestion::CongestionAnalysis;
use mfaplace_router::global::GlobalRouter;
use mfaplace_router::RouterConfig;
use mfaplace_rt::bench::Suite;
use mfaplace_rt::pool;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

fn substrate_benches(suite: &mut Suite) {
    let design = DesignPreset::design_116()
        .with_scale(256, 32, 16)
        .generate(1);
    let placement = design.random_placement(2);

    suite.run("substrate/feature_extraction_64", |b| {
        b.iter(|| std::hint::black_box(FeatureStack::extract(&design, &placement, 64, 64)))
    });

    // The paper's resolution on the design the `map_hires` workload uses.
    let hires = DesignPreset::design_237().with_scale(16, 4, 2).generate(1);
    let hires_placement = hires.random_placement(2);
    suite.run("substrate/feature_extraction_256", |b| {
        b.iter(|| std::hint::black_box(FeatureStack::extract(&hires, &hires_placement, 256, 256)))
    });

    let cfg = RouterConfig::default();
    let router = GlobalRouter::new(cfg.clone());
    suite.run("substrate/global_route_64", |b| {
        b.iter(|| std::hint::black_box(router.route(&design, &placement)))
    });

    let maze_router = GlobalRouter::new(RouterConfig {
        algorithm: mfaplace_router::RoutingAlgorithm::Maze,
        ..cfg.clone()
    });
    suite.run("substrate/maze_route_64", |b| {
        b.iter(|| std::hint::black_box(maze_router.route(&design, &placement)))
    });

    let outcome = router.route(&design, &placement);
    suite.run("substrate/congestion_analysis_64", |b| {
        b.iter(|| std::hint::black_box(CongestionAnalysis::from_usage(&outcome.usage, &cfg)))
    });

    // Iterations of one placer: construction flattens the netlist once, by
    // design, and is not what an iteration costs.
    let mut gp = GlobalPlacer::new(&design, 3);
    let one_iteration = GpConfig {
        iterations: 1,
        ..GpConfig::default()
    };
    suite.run("substrate/gp_iteration", |b| {
        b.iter(|| std::hint::black_box(gp.run_stage(&one_iteration)))
    });
}

/// Serial-vs-parallel kernel pairs; the speedup criterion of the runtime
/// migration is read off these entries.
fn kernel_benches(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::randn(vec![256, 256], 1.0, &mut rng);
    let b = Tensor::randn(vec![256, 256], 1.0, &mut rng);
    let serial = pool::with_threads(1, || a.matmul2d(&b));
    let parallel = a.matmul2d(&b);
    assert_eq!(serial.data(), parallel.data(), "gemm parallel != serial");

    suite.run("kernels/gemm_256_serial", |bch| {
        bch.iter(|| pool::with_threads(1, || std::hint::black_box(a.matmul2d(&b))))
    });
    suite.run("kernels/gemm_256_parallel", |bch| {
        bch.iter(|| std::hint::black_box(a.matmul2d(&b)))
    });

    let x = Tensor::randn(vec![4, 8, 64, 64], 1.0, &mut rng);
    let serial = pool::with_threads(1, || x.im2col(3, 3, 1, 1));
    let parallel = x.im2col(3, 3, 1, 1);
    assert_eq!(serial.data(), parallel.data(), "im2col parallel != serial");

    suite.run("kernels/im2col_3x3_serial", |bch| {
        bch.iter(|| pool::with_threads(1, || std::hint::black_box(x.im2col(3, 3, 1, 1))))
    });
    suite.run("kernels/im2col_3x3_parallel", |bch| {
        bch.iter(|| std::hint::black_box(x.im2col(3, 3, 1, 1)))
    });
}

fn main() {
    let mut suite = Suite::new("substrate").with_config(2, 10);
    substrate_benches(&mut suite);
    kernel_benches(&mut suite);
    print!("{}", suite.table());
    // Anchor on the manifest dir: `cargo bench` sets cwd to the package,
    // but results/ lives at the workspace root.
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/bench_substrate.json"
    );
    suite.write_json(out).expect("write bench_substrate.json");
}
