//! The feature rasterizer's numerical contract.
//!
//! `FeatureStack::extract` builds `hnet` / `vnet` / `rudy` / `pin_rudy` from
//! fixed-point corner deltas and one 2-D prefix pass (DESIGN.md, "Exact
//! feature rasterizer"). Three parties are compared here, per channel and
//! after max-normalization:
//!
//! - the **f64 reference**: every net's grid box painted cell by cell in
//!   `f64`, from the same grid boxes and the same f32 addends;
//! - the **old painter**: the same loop in f32 through
//!   [`GridMap::add_rect`], which is what `extract` did before (one rounding
//!   per covering net, in netlist order);
//! - **`extract`** itself.
//!
//! The contract: `extract` is within `NEW_BOUND` of the reference everywhere
//! (the sums are exact, so what is left is the f32 roundings of convert and
//! normalize), within `OLD_BOUND` of the old painter, and at grid 64 and
//! above at least ten times closer to the reference than the old painter
//! was. Because integer addition commutes, `extract` is also a pure function
//! of the *multiset* of (box, addend): any net order gives identical bits.
//! Debug builds carry overflow checks, so running the largest design the
//! repo generates here also proves that no delta, prefix intermediate or
//! cell sum leaves `i64`.
//!
//! Mutation-checked: dropping the sign flip of one corner in `extract`
//! fails `extract_tracks_the_f64_reference` and `edge_boxes_by_construction`.

use mfaplace_fpga::design::{Design, DesignPreset};
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::{FpgaArch, GridMap, InstKind, Netlist, Placement};
use mfaplace_rt::rng::{SeedableRng, SliceRandom, StdRng};

/// `extract` vs the f64 reference: three f32 roundings (a cell's conversion,
/// the maximum's, their quotient) on values in `[0, 1]`, 1.8e-7 in theory.
const NEW_BOUND: f64 = 2.5e-7;
/// `extract` vs the old f32 painter, whose running sums drift with the
/// number of nets covering a cell.
const OLD_BOUND: f64 = 5e-5;

const CHANNELS: [&str; 4] = ["hnet", "vnet", "rudy", "pin_rudy"];

/// One net as the rasterizer sees it: a half-open grid box and the three
/// f32 addends (`hnet`, `vnet`, `pin_rudy`).
struct NetBox {
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
    addends: [f32; 3],
}

/// The grid boxes and addends of every net: the mapping `extract` documents,
/// written out independently.
fn net_boxes(design: &Design, placement: &Placement, gw: usize, gh: usize) -> Vec<NetBox> {
    let sx = gw as f32 / design.arch.width();
    let sy = gh as f32 / design.arch.height();
    design
        .netlist
        .nets()
        .map(|(_, net)| {
            let (x0, y0, x1, y1) = placement.net_bbox(net);
            let x0 = ((x0 * sx) as usize).min(gw - 1);
            let y0 = ((y0 * sy) as usize).min(gh - 1);
            let x1 = ((x1 * sx) as usize).min(gw - 1) + 1;
            let y1 = ((y1 * sy) as usize).min(gh - 1) + 1;
            let (w, h) = ((x1 - x0) as f32, (y1 - y0) as f32);
            NetBox {
                x0,
                y0,
                x1,
                y1,
                addends: [1.0 / h, 1.0 / w, net.degree() as f32 / (w * h)],
            }
        })
        .collect()
}

/// The four net channels painted cell by cell in f32, in netlist order.
fn old_painter(boxes: &[NetBox], gw: usize, gh: usize) -> [GridMap; 4] {
    let mut hnet = GridMap::new(gw, gh);
    let mut vnet = GridMap::new(gw, gh);
    let mut pin_rudy = GridMap::new(gw, gh);
    for b in boxes {
        hnet.add_rect(b.x0, b.y0, b.x1, b.y1, b.addends[0]);
        vnet.add_rect(b.x0, b.y0, b.x1, b.y1, b.addends[1]);
        pin_rudy.add_rect(b.x0, b.y0, b.x1, b.y1, b.addends[2]);
    }
    let mut rudy = GridMap::new(gw, gh);
    for (r, (h, v)) in rudy
        .data_mut()
        .iter_mut()
        .zip(hnet.data().iter().zip(vnet.data()))
    {
        *r = h + v;
    }
    let mut maps = [hnet, vnet, rudy, pin_rudy];
    for m in &mut maps {
        m.normalize_max();
    }
    maps
}

/// The same painting in f64, normalized in f64.
fn reference(boxes: &[NetBox], gw: usize, gh: usize) -> [Vec<f64>; 4] {
    let mut net = [
        vec![0.0f64; gw * gh],
        vec![0.0f64; gw * gh],
        vec![0.0f64; gw * gh],
    ];
    for b in boxes {
        for (map, &v) in net.iter_mut().zip(&b.addends) {
            for y in b.y0..b.y1 {
                for cell in &mut map[y * gw + b.x0..y * gw + b.x1] {
                    *cell += f64::from(v);
                }
            }
        }
    }
    let [hnet, vnet, pin_rudy] = net;
    let rudy = hnet.iter().zip(&vnet).map(|(h, v)| h + v).collect();
    let mut maps = [hnet, vnet, rudy, pin_rudy];
    for m in &mut maps {
        let max = m.iter().copied().fold(0.0, f64::max);
        if max > 0.0 {
            m.iter_mut().for_each(|v| *v /= max);
        }
    }
    maps
}

fn net_channels(f: &FeatureStack) -> [&GridMap; 4] {
    [&f.hnet, &f.vnet, &f.rudy, &f.pin_rudy]
}

/// Largest absolute difference between an f32 map and an f64 one.
fn max_abs(a: &[f32], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) - y).abs())
        .fold(0.0, f64::max)
}

/// Checks the two absolute bounds on one case and returns, per channel,
/// `(|new - reference|, |old - reference|)`.
fn differential(
    tag: &str,
    design: &Design,
    placement: &Placement,
    gw: usize,
    gh: usize,
) -> [(f64, f64); 4] {
    let boxes = net_boxes(design, placement, gw, gh);
    let old = old_painter(&boxes, gw, gh);
    let want = reference(&boxes, gw, gh);
    let new = FeatureStack::extract(design, placement, gw, gh);
    let mut errors = [(0.0, 0.0); 4];
    for (c, name) in CHANNELS.iter().enumerate() {
        let got = net_channels(&new)[c];
        assert_eq!((got.width(), got.height()), (gw, gh), "{tag} {name}");
        let new_err = max_abs(got.data(), &want[c]);
        let old_err = max_abs(old[c].data(), &want[c]);
        let moved = got
            .data()
            .iter()
            .zip(old[c].data())
            .map(|(a, b)| f64::from((a - b).abs()))
            .fold(0.0, f64::max);
        eprintln!(
            "{tag} {gw}x{gh} {name}: new-ref {new_err:.2e}  old-ref {old_err:.2e}  old-new {moved:.2e}"
        );
        assert!(
            new_err <= NEW_BOUND,
            "{tag} {gw}x{gh} {name}: extract is {new_err:e} from the f64 reference"
        );
        assert!(
            moved <= OLD_BOUND,
            "{tag} {gw}x{gh} {name}: extract moved {moved:e} from the old painter"
        );
        errors[c] = (new_err, old_err);
    }
    errors
}

fn assert_ten_times_closer(tag: &str, errors: &[(f64, f64); 4]) {
    for (name, &(new_err, old_err)) in CHANNELS.iter().zip(errors) {
        assert!(
            new_err * 10.0 <= old_err,
            "{tag} {name}: new {new_err:e} is not 10x closer to the reference than old {old_err:e}"
        );
    }
}

/// Two designs at 1/128 scale: enough nets over each cell for the old
/// painter's running sums to show their drift.
fn small_designs() -> [(Design, Placement); 2] {
    let a = DesignPreset::design_116()
        .with_scale(128, 32, 16)
        .generate(1);
    let b = DesignPreset::design_180()
        .with_scale(128, 32, 16)
        .generate(2);
    let (pa, pb) = (a.random_placement(11), b.random_placement(12));
    [(a, pa), (b, pb)]
}

#[test]
fn extract_tracks_the_f64_reference() {
    for (design, placement) in &small_designs() {
        for (gw, gh) in [(16, 16), (64, 64), (32, 24)] {
            let errors = differential(&design.name, design, placement, gw, gh);
            if gw == 64 {
                assert_ten_times_closer(&design.name, &errors);
            }
        }
    }
}

#[test]
fn extract_tracks_the_f64_reference_at_paper_resolution() {
    // Default 1/64 scale keeps the two cell-by-cell painters to a few seconds.
    let design = DesignPreset::design_237().generate(3);
    let placement = design.random_placement(13);
    let errors = differential(&design.name, &design, &placement, 256, 256);
    assert_ten_times_closer(&design.name, &errors);
}

/// A bare design over `netlist`: no constraints, no anchors.
fn bare_design(netlist: Netlist) -> Design {
    Design {
        name: "hand-built".to_string(),
        arch: FpgaArch::xcvu3p_scaled(),
        cluster_of: vec![0; netlist.num_instances()],
        netlist,
        cascades: Vec::new(),
        regions: Vec::new(),
        io_anchors: Vec::new(),
        paper_stats: (0, 0, 0, 0),
    }
}

#[test]
fn edge_boxes_by_construction() {
    let mut netlist = Netlist::new();
    let ids: Vec<_> = (0..9)
        .map(|_| netlist.add_instance(InstKind::Lut, true))
        .collect();
    // A box ending on the last column and row, a 1x1 box, the full grid,
    // and a three-pin box in the interior.
    netlist.add_net(vec![ids[0], ids[1]]);
    netlist.add_net(vec![ids[2], ids[3]]);
    netlist.add_net(vec![ids[4], ids[5]]);
    netlist.add_net(vec![ids[6], ids[7], ids[8]]);
    let design = bare_design(netlist);
    let (w, h) = (design.arch.width(), design.arch.height());
    let mut placement = Placement::new(9);
    for (i, (fx, fy)) in [
        (0.55, 0.6),
        (1.0, 1.0),
        (0.3, 0.3),
        (0.3, 0.3),
        (0.0, 0.0),
        (1.0, 1.0),
        (0.2, 0.7),
        (0.45, 0.1),
        (0.35, 0.4),
    ]
    .into_iter()
    .enumerate()
    {
        placement.set_pos(i, fx * w, fy * h);
    }
    for (gw, gh) in [(16, 16), (32, 24), (5, 9), (1, 1)] {
        differential("edges", &design, &placement, gw, gh);
        let boxes = net_boxes(&design, &placement, gw, gh);
        assert_eq!(
            (boxes[0].x1, boxes[0].y1),
            (gw, gh),
            "ends on the last cell"
        );
        assert_eq!(
            (boxes[1].x1 - boxes[1].x0, boxes[1].y1 - boxes[1].y0),
            (1, 1)
        );
        assert_eq!(
            (boxes[2].x0, boxes[2].y0, boxes[2].x1, boxes[2].y1),
            (0, 0, gw, gh)
        );
    }

    // One closed form beside the painters: at 16x16 the top-left cell lies
    // in the full-grid box only (hnet 1/16), the top-right one also in the
    // first box, which is 7 rows tall (1/16 + 1/7).
    let f = FeatureStack::extract(&design, &placement, 16, 16);
    let corner = f.hnet.get(0, 15) / f.hnet.get(15, 15);
    let want = (1.0 / 16.0) / (1.0 / 16.0 + 1.0 / 7.0);
    assert!((corner - want).abs() < 1e-6, "{corner} vs {want}");
}

#[test]
fn a_netlist_without_nets_gives_zero_net_maps() {
    let mut netlist = Netlist::new();
    for _ in 0..4 {
        netlist.add_instance(InstKind::Lut, true);
    }
    netlist.add_instance(InstKind::Dsp, true);
    let design = bare_design(netlist);
    let placement = design.random_placement(5);
    let f = FeatureStack::extract(&design, &placement, 12, 7);
    for (name, map) in CHANNELS.iter().zip(net_channels(&f)) {
        assert!(map.data().iter().all(|&v| v == 0.0), "{name} must be zero");
    }
    assert_eq!(f.cell_density.max(), 1.0);
    assert_eq!(f.macro_map.max(), 1.0);
}

/// A box whose pins are all non-finite maps to an inverted grid box
/// (`x0 = W - 1`, `x1 = 1`); `extract` must skip it rather than underflow a
/// `usize` or paint it negative. (`io::read_placement` rejects such
/// coordinates; a placement built in-process can still carry them.)
#[test]
fn an_inverted_box_is_skipped() {
    let (design, placement) = &small_designs()[0];
    let clean = FeatureStack::extract(design, placement, 16, 16);

    let mut netlist = design.netlist.clone();
    let a = netlist.add_instance(InstKind::Lut, true);
    let b = netlist.add_instance(InstKind::Lut, true);
    netlist.add_net(vec![a, b]);
    let mut poisoned_design = design.clone();
    poisoned_design.netlist = netlist;
    let (mut xs, mut ys) = (placement.xs().to_vec(), placement.ys().to_vec());
    xs.extend([f32::NAN, f32::NAN]);
    ys.extend([f32::NAN, f32::NAN]);
    let poisoned = FeatureStack::extract(&poisoned_design, &Placement::from_coords(xs, ys), 16, 16);
    for (name, (got, want)) in CHANNELS.iter().zip(
        net_channels(&poisoned)
            .into_iter()
            .zip(net_channels(&clean)),
    ) {
        assert!(bits(got) == bits(want), "{name} moved by a skipped box");
    }
}

fn bits(map: &GridMap) -> Vec<u32> {
    map.data().iter().map(|v| v.to_bits()).collect()
}

/// `design` with its nets in the order `order` (instances unchanged).
fn with_net_order(design: &Design, order: &[usize]) -> Design {
    let mut netlist = Netlist::new();
    for (_, inst) in design.netlist.instances() {
        netlist.add_instance(inst.kind, inst.movable);
    }
    let nets: Vec<_> = design.netlist.nets().map(|(_, n)| n).collect();
    for &i in order {
        netlist.add_net(nets[i].pins.clone());
    }
    let mut out = design.clone();
    out.netlist = netlist;
    out
}

#[test]
fn net_order_never_moves_a_bit() {
    // The largest design the repo generates (`map_hires` runs on it): in a
    // debug build this is also the overflow proof for the prefix pass.
    let large = DesignPreset::design_237().with_scale(16, 4, 2).generate(4);
    let (small, _) = small_designs()[0].clone();
    for (design, grids) in [
        (&large, &[(256, 256), (64, 64)][..]),
        (&small, &[(16, 16), (32, 24)][..]),
    ] {
        let placement = design.random_placement(21);
        let n = design.netlist.num_nets();
        let mut orders = vec![(0..n).rev().collect::<Vec<_>>()];
        for seed in [1u64, 2] {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            orders.push(order);
        }
        let reordered: Vec<Design> = orders.iter().map(|o| with_net_order(design, o)).collect();
        for &(gw, gh) in grids {
            let base = FeatureStack::extract(design, &placement, gw, gh);
            for (k, other) in reordered.iter().enumerate() {
                let got = FeatureStack::extract(other, &placement, gw, gh);
                for (c, (a, b)) in got.maps().into_iter().zip(base.maps()).enumerate() {
                    assert!(
                        bits(a) == bits(b),
                        "{} {gw}x{gh}: map {c} differs under net order {k}",
                        design.name
                    );
                }
            }
        }
    }
}
