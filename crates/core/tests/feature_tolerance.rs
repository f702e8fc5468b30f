//! Feature-rasterizer acceptance contract at the level map.
//!
//! `FeatureStack::extract` sums RUDY / pin-RUDY exactly in fixed point
//! where it used to keep f32 running sums, so its net channels moved in the
//! sixth decimal (`fpga/tests/raster_exact.rs` bounds that at 5e-5). The
//! contract here is the one `infer/tests/quant_tolerance.rs` holds the int8
//! plan to, with the same decision tolerance: for every zoo architecture at
//! grid 32, on placement snapshots of two designs,
//!
//! - every *decisive* tile (top-2 logit margin above 2% of the output
//!   scale) predicts the **same 8-class congestion level** from features
//!   painted the old way (cell by cell in f32 through `GridMap::add_rect`)
//!   and from `extract`;
//! - level changes on all tiles, near-ties included, are counted and
//!   printed — and there are few enough of them to say so in an assertion.
//!
//! Dataset labels are deliberately not asserted unchanged: they come from
//! the router on placements that `RudyPredictor` flows produced, those
//! flows read `rudy` / `pin_rudy`, and a flow amplifies even a 1e-6 feature
//! move through inflation thresholds and legalization into a different
//! placement (EXPERIMENTS.md records how many label tiles differ).

use mfaplace_autograd::Graph;
use mfaplace_fpga::design::{Design, DesignPreset};
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::{GridMap, Placement};
use mfaplace_models::{AnyModel, Arch, ArchSpec, CongestionModel};
use mfaplace_rt::rng::{SeedableRng, StdRng};

const ARCHS: [Arch; 4] = [Arch::Ours, Arch::UNet, Arch::Pgnn, Arch::Pros2];
const GRID: usize = 32;
const CLASSES: usize = 8;
/// Decision tolerance: a tile is decisive when its top-2 logit margin
/// exceeds this fraction of the output's abs-max (as `quant_tolerance.rs`).
const DECISION_TOL: f32 = 0.02;
/// Ceiling on level changes across all tiles. A feature move of 5e-5
/// reaches the logits at about that size, so only exact near-ties can flip.
const MAX_FLIP_FRACTION: f32 = 0.002;

/// The stack `extract` produced before the summed-area rasterizer: the four
/// net channels painted cell by cell in f32, in netlist order. The macro and
/// cell-density maps were not touched and are taken from `extract`.
fn old_painter_features(design: &Design, placement: &Placement) -> FeatureStack {
    let sx = GRID as f32 / design.arch.width();
    let sy = GRID as f32 / design.arch.height();
    let cell = |x: f32, y: f32| {
        (
            ((x * sx) as usize).min(GRID - 1),
            ((y * sy) as usize).min(GRID - 1),
        )
    };
    let mut hnet = GridMap::new(GRID, GRID);
    let mut vnet = GridMap::new(GRID, GRID);
    let mut pin_rudy = GridMap::new(GRID, GRID);
    for (_, net) in design.netlist.nets() {
        let (x0, y0, x1, y1) = placement.net_bbox(net);
        let (gx0, gy0) = cell(x0, y0);
        let (gx1, gy1) = cell(x1, y1);
        let (gx1, gy1) = (gx1 + 1, gy1 + 1);
        let (w, h) = ((gx1 - gx0) as f32, (gy1 - gy0) as f32);
        hnet.add_rect(gx0, gy0, gx1, gy1, 1.0 / h);
        vnet.add_rect(gx0, gy0, gx1, gy1, 1.0 / w);
        pin_rudy.add_rect(gx0, gy0, gx1, gy1, net.degree() as f32 / (w * h));
    }
    let mut rudy = GridMap::new(GRID, GRID);
    for (r, (h, v)) in rudy
        .data_mut()
        .iter_mut()
        .zip(hnet.data().iter().zip(vnet.data()))
    {
        *r = h + v;
    }
    for m in [&mut hnet, &mut vnet, &mut rudy, &mut pin_rudy] {
        m.normalize_max();
    }
    FeatureStack {
        hnet,
        vnet,
        rudy,
        pin_rudy,
        ..FeatureStack::extract(design, placement, GRID, GRID)
    }
}

/// Random spreads plus one clustered snapshot per design (every movable
/// pulled halfway to the fabric centre: tall sums, many nets per tile).
fn snapshots() -> Vec<(Design, Placement)> {
    let mut out = Vec::new();
    for (preset, seed) in [
        (DesignPreset::design_116(), 1u64),
        (DesignPreset::design_180(), 2),
    ] {
        let design = preset.with_scale(128, 32, 16).generate(seed);
        let spread = design.random_placement(seed + 10);
        let mut clustered = spread.clone();
        let (cx, cy) = (design.arch.width() / 2.0, design.arch.height() / 2.0);
        for (id, inst) in design.netlist.instances() {
            if inst.movable {
                let (x, y) = clustered.pos(id.0 as usize);
                clustered.set_pos(id.0 as usize, (x + cx) / 2.0, (y + cy) / 2.0);
            }
        }
        out.push((design.clone(), spread));
        out.push((design, clustered));
    }
    out
}

/// Same small-but-complete spec as `quant_tolerance.rs`.
fn build(arch: Arch) -> (Graph, AnyModel) {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut spec = ArchSpec::new(arch, GRID);
    spec.base_channels = 4;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    let model = spec.build(&mut g, &mut rng).expect("build model");
    g.set_grad_enabled(false);
    (g, model)
}

fn logits(g: &mut Graph, model: &mut AnyModel, features: &FeatureStack) -> Vec<f32> {
    let mark = g.mark();
    let x = features
        .to_tensor()
        .reshape(vec![1, 6, GRID, GRID])
        .expect("batch of one");
    let xv = g.constant(x);
    let y = model.forward(g, xv, false);
    let out = g.value(y).data().to_vec();
    g.truncate(mark);
    out
}

/// Per-tile argmax of `[1, 8, g, g]` logits from old vs new features.
/// Returns `(flips_on_decisive_tiles, flips_total)`.
fn compare_level_maps(old_out: &[f32], new_out: &[f32]) -> (usize, usize) {
    let tiles = GRID * GRID;
    assert_eq!(old_out.len(), CLASSES * tiles);
    assert_eq!(new_out.len(), old_out.len());
    let scale = old_out.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let argmax = |out: &[f32], t: usize| {
        (0..CLASSES)
            .map(|c| out[c * tiles + t])
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite logits"))
            .expect("nonempty")
    };
    let (mut flips_decisive, mut flips_total) = (0, 0);
    for t in 0..tiles {
        let (old_level, old_best) = argmax(old_out, t);
        let (new_level, _) = argmax(new_out, t);
        if old_level == new_level {
            continue;
        }
        flips_total += 1;
        let runner_up = (0..CLASSES)
            .filter(|&c| c != old_level)
            .map(|c| old_out[c * tiles + t])
            .fold(f32::NEG_INFINITY, f32::max);
        if old_best - runner_up > DECISION_TOL * scale {
            flips_decisive += 1;
        }
    }
    (flips_decisive, flips_total)
}

#[test]
fn exact_features_preserve_the_level_map_across_the_zoo() {
    let snapshots = snapshots();
    let stacks: Vec<(FeatureStack, FeatureStack)> = snapshots
        .iter()
        .map(|(d, p)| {
            (
                old_painter_features(d, p),
                FeatureStack::extract(d, p, GRID, GRID),
            )
        })
        .collect();
    // The comparison must not be vacuous: the two painters do differ.
    assert!(
        stacks.iter().any(|(old, new)| old.rudy != new.rudy),
        "old-painter and exact features are identical; nothing is compared"
    );

    let tiles = snapshots.len() * GRID * GRID;
    for arch in ARCHS {
        let (mut g, mut model) = build(arch);
        let (mut decisive, mut total, mut logit_move) = (0, 0, 0.0f32);
        for (old, new) in &stacks {
            let old_out = logits(&mut g, &mut model, old);
            let new_out = logits(&mut g, &mut model, new);
            let scale = old_out.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, b) in old_out.iter().zip(&new_out) {
                logit_move = logit_move.max((a - b).abs() / scale);
            }
            let (d, t) = compare_level_maps(&old_out, &new_out);
            decisive += d;
            total += t;
        }
        eprintln!(
            "{arch:?}: {total} of {tiles} tiles changed level ({decisive} decisive); \
             largest logit move {logit_move:.2e} of scale"
        );
        assert_eq!(
            decisive, 0,
            "{arch:?}: exact features changed the predicted level on a decisive \
             tile (margin > {DECISION_TOL} of output scale)"
        );
        assert!(
            (total as f32) <= MAX_FLIP_FRACTION * tiles as f32,
            "{arch:?}: {total} of {tiles} tiles changed level \
             (near-tie budget is {MAX_FLIP_FRACTION})"
        );
    }
}
