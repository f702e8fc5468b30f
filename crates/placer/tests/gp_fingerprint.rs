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
        [0x97bf_ea29_9cac_935f, 0xdfcc_59b1_7bce_3aca],
        [0xa70a_28de_6600_73c4, 0xca79_3af8_c12d_c48c],
        [0x81c5_e07c_355d_583d, 0x7c78_0d26_0bb6_3e13],
        [0x5059_9926_d89f_c067, 0x4e0b_d018_0c47_9d77],
    ],
    [
        [0x104f_58d1_e3ee_666b, 0x6b0f_54e8_fcad_cacc],
        [0x7b0a_0af9_3091_758a, 0xb10c_825d_0acb_fe1f],
        [0x9dac_e9d8_a073_0b27, 0x16e0_d907_d67d_3513],
        [0x5864_3c1c_6c3d_ff4f, 0x8499_223d_38d4_1d0e],
    ],
    [
        [0xc62d_e24d_372f_b0f3, 0x4629_1acc_df49_05f3],
        [0xb4ea_7d18_60e4_4129, 0x0a3e_781e_4e2b_d21a],
        [0xd36a_7ddf_ea95_45c5, 0xd289_b92b_9b1d_5dda],
        [0x4ee5_3ee6_fe09_3b01, 0x4490_3853_2936_0ba0],
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
