//! Pins global placement against its own past, bit for bit.
//!
//! Every other determinism check in the repo compares a run with itself
//! (`flow_determinism`, the benchmark's repeated `(design, seed)` check);
//! the goldens under `crates/core/tests/golden/` hold model outputs only.
//! The constants below were recorded from the placer as it stood at
//! commit `c04a657` (nested-netlist scatter loops, stable float sort,
//! per-movable binary search) and must survive any restructuring of
//! `gp.rs`: a different hash means the placer computes something else,
//! which is a numerics change that needs its own contract, never a side
//! effect of an optimisation.
//!
//! The flow hashes cover more than the placer: `RudyPredictor` feeds the
//! continuous `rudy` / `pin_rudy` values of `fpga::FeatureStack::extract`
//! into area inflation, so `FLOWS` also pins `fpga` feature bits. All 24
//! were re-recorded once, when `extract` went from f32 running sums to the
//! exact summed-area rasterizer (a numerics change with its own contract,
//! `fpga/tests/raster_exact.rs`); `crates/placer/src` had an empty diff in
//! that change, and `B2B_STAGE` and `AREAS_BETWEEN_STAGES`, which never
//! pass through features, held unchanged — they are the constants that
//! still date from `c04a657`.
//!
//! On a mismatch the test prints every recomputed constant so the moved
//! cases can be read off at once.

use mfaplace_fpga::design::{Design, DesignPreset};
use mfaplace_fpga::placement::Placement;
use mfaplace_placer::flows::{FlowConfig, PlacementFlow, RudyPredictor};
use mfaplace_placer::gp::{GlobalPlacer, GpConfig, NetModel, Overflow};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn placement(&mut self, p: &Placement) {
        for v in p.xs().iter().chain(p.ys()) {
            self.u32(v.to_bits());
        }
    }

    fn stage(&mut self, iterations: usize, of: &Overflow) {
        self.u32(iterations as u32);
        for v in [of.lut, of.ff, of.dsp, of.bram, of.uram] {
            self.u32(v.to_bits());
        }
    }
}

fn designs() -> [Design; 3] {
    [
        DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1),
        DesignPreset::design_180()
            .with_scale(512, 64, 32)
            .generate(2),
        // Default 1/64 scale: what `place_suite` and Table II run.
        DesignPreset::design_136().generate(3),
    ]
}

const SEEDS: [u64; 2] = [7, 42];

/// `FLOWS[design][preset][seed]`, presets in the order of `presets()`.
const FLOWS: [[[u64; 2]; 4]; 3] = [
    [
        [0x3581_74e0_7c2f_8937, 0xf4d5_b72d_e709_a2a7],
        [0x3a9d_afcc_6818_ded0, 0x1851_856a_cdf0_cf63],
        [0xc2f7_e3b4_561f_c519, 0xf467_1912_d377_d222],
        [0x85bc_8f33_d422_a579, 0xd180_6a9f_21ae_d30c],
    ],
    [
        [0xcdd8_835f_c821_1bca, 0x5fdd_dad1_4c90_e92b],
        [0x4aa8_5835_7490_0188, 0x7d0d_9df6_a2db_fb6d],
        [0x944c_40fd_7ceb_1f69, 0xdc59_a6e2_8bdd_8b93],
        [0x1c0b_ed4f_f131_4434, 0x9d8c_6aef_7ee3_668a],
    ],
    [
        [0x2303_9999_8654_4585, 0x3239_8a4a_5d9e_d341],
        [0x1301_5c0c_9f25_617f, 0xe272_fb2e_726a_8b2e],
        [0x4e6a_878d_6eac_67ba, 0x9546_4a07_5790_db14],
        [0x81eb_9665_0dcc_3a7b, 0x1a14_b85d_aaf4_50ee],
    ],
];

fn presets() -> [FlowConfig; 4] {
    [
        FlowConfig::model_driven(),
        FlowConfig::utda_like(),
        FlowConfig::seu_like(),
        FlowConfig::mpku_like(),
    ]
}

fn flow_hash(design: &Design, cfg: &FlowConfig, seed: u64) -> u64 {
    let res = PlacementFlow::new(cfg.clone()).run(design, &mut RudyPredictor::default(), seed);
    let mut h = Fnv::new();
    h.placement(&res.placement);
    h.stage(res.stage1_iterations, &res.final_overflow);
    h.0
}

#[test]
fn flows_reproduce_the_recorded_bits() {
    let mut got = [[[0u64; 2]; 4]; 3];
    for (d, design) in designs().iter().enumerate() {
        for (p, cfg) in presets().iter().enumerate() {
            for (s, &seed) in SEEDS.iter().enumerate() {
                got[d][p][s] = flow_hash(design, cfg, seed);
            }
        }
    }
    assert!(
        got == FLOWS,
        "flow fingerprints moved; recomputed:\n{got:#018x?}"
    );
}

const B2B_STAGE: u64 = 0xa436_262d_2498_2b82;

#[test]
fn b2b_stage_reproduces_the_recorded_bits() {
    let design = &designs()[0];
    let mut gp = GlobalPlacer::new(design, 5);
    let (iterations, of) = gp.run_stage(&GpConfig {
        iterations: 12,
        net_model: NetModel::B2b,
        wl_passes: 4,
        ..GpConfig::default()
    });
    let mut h = Fnv::new();
    h.placement(&gp.placement());
    h.stage(iterations, &of);
    assert!(h.0 == B2B_STAGE, "B2B stage moved: {:#018x}", h.0);
}

const AREAS_BETWEEN_STAGES: u64 = 0x995e_3505_6924_af2b;

/// `areas_mut()` is public, so anything the placer caches from the areas
/// must be refreshed on every stage entry.
#[test]
fn areas_written_between_stages_reproduce_the_recorded_bits() {
    let design = &designs()[1];
    let mut gp = GlobalPlacer::new(design, 11);
    let cfg = GpConfig {
        iterations: 10,
        ..GpConfig::default()
    };
    let mut h = Fnv::new();
    let (iterations, of) = gp.run_stage(&cfg);
    h.stage(iterations, &of);
    for (i, a) in gp.areas_mut().iter_mut().enumerate() {
        if i % 3 == 0 {
            *a *= 1.75;
        }
    }
    let (iterations, of) = gp.run_stage(&cfg);
    h.placement(&gp.placement());
    h.stage(iterations, &of);
    assert!(
        h.0 == AREAS_BETWEEN_STAGES,
        "stage after an area write moved: {:#018x}",
        h.0
    );
}
