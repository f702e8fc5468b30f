//! Region-aware analytical global placement.
//!
//! A CPU-scale stand-in for DREAMPlaceFPGA's electrostatic placer that keeps
//! the same structure: iterative wirelength minimization (star or
//! bound-to-bound net model, damped fixed-point updates) interleaved with
//! order-preserving 1-D capacity spreading per resource type
//! (Kraftwerk-style cell shifting), a region tension force for
//! region-constrained instances (Sec. IV), and cascade-shape macros merged
//! into single movable clusters before placement (the cascade handling of
//! \[11\]). A stage anneals: the wirelength pull cools while spreading
//! strengthens, and it exits early once the paper's overflow targets are
//! met.
//!
//! The passes never walk the `Design` object graph. [`GlobalPlacer::new`]
//! flattens the netlist once into a `FlatView` — pins as position slots in
//! CSR form with nets in ascending degree, the inverse movable → incidence
//! CSR, per-class movable lists — and every iteration runs on that view with
//! scratch the placer owns, so a star-model iteration allocates nothing.
//! The rewrite moves no bit of any placement (DESIGN.md, "Flat placer
//! view"; `tests/gp_fingerprint.rs` holds the constants).

use mfaplace_fpga::arch::SiteKind;
use mfaplace_fpga::design::Design;
use mfaplace_fpga::netlist::{InstId, InstKind, NetId};
use mfaplace_fpga::placement::Placement;
use mfaplace_rt::rng::StdRng;
use mfaplace_rt::rng::{Rng, SeedableRng};
use mfaplace_rt::timer::ScopeTimer;

/// Wirelength net model used by the fixed-point updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetModel {
    /// Clique-to-star: every pin pulls toward the net centroid. Cheap and
    /// robust; the default.
    #[default]
    Star,
    /// Bound-to-bound (B2B): pins connect to the net's boundary pins with
    /// distance-normalized weights — the HPWL-faithful quadratic model used
    /// by analytic placers like DREAMPlaceFPGA/SimPL.
    B2b,
}

/// Global placement parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Maximum spreading iterations for a stage.
    pub iterations: usize,
    /// Wirelength net model.
    pub net_model: NetModel,
    /// Star-model wirelength passes per iteration.
    pub wl_passes: usize,
    /// Density grid width (bins).
    pub bin_w: usize,
    /// Density grid height (bins).
    pub bin_h: usize,
    /// Spreading step size (bins per iteration at unit gradient).
    pub density_step: f32,
    /// Pull strength toward assigned regions.
    pub region_weight: f32,
    /// Damping of the wirelength update (0 = frozen, 1 = jump to star).
    pub wl_damping: f32,
    /// Target overflow for macro types (paper: 0.25).
    pub target_overflow_macro: f32,
    /// Target overflow for LUT/FF (paper: 0.15).
    pub target_overflow_cell: f32,
    /// Seed for the initial jitter.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            iterations: 60,
            net_model: NetModel::Star,
            wl_passes: 3,
            bin_w: 16,
            bin_h: 16,
            density_step: 0.5,
            region_weight: 0.35,
            wl_damping: 0.55,
            target_overflow_macro: 0.25,
            target_overflow_cell: 0.15,
            seed: 1,
        }
    }
}

/// Per-type bin overflow ratios (overflowing area / total area).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Overflow {
    /// LUT overflow.
    pub lut: f32,
    /// FF overflow.
    pub ff: f32,
    /// DSP overflow.
    pub dsp: f32,
    /// BRAM overflow.
    pub bram: f32,
    /// URAM overflow.
    pub uram: f32,
}

impl Overflow {
    /// The paper's stage-switch condition: macro overflow `< 0.25` and
    /// cell overflow `< 0.15`.
    pub fn meets_targets(&self, macro_target: f32, cell_target: f32) -> bool {
        self.dsp < macro_target
            && self.bram < macro_target
            && self.uram < macro_target
            && self.lut < cell_target
            && self.ff < cell_target
    }
}

/// Site classes in spreading order; `FlatView::classes` is indexed alike.
const CLASSES: [SiteKind; 4] = [SiteKind::Clb, SiteKind::Dsp, SiteKind::Bram, SiteKind::Uram];

fn class_index(class: SiteKind) -> usize {
    match class {
        SiteKind::Clb => 0,
        SiteKind::Dsp => 1,
        SiteKind::Bram => 2,
        SiteKind::Uram => 3,
    }
}

/// Index of an instance kind in the per-kind tables.
fn kind_index(kind: InstKind) -> usize {
    match kind {
        InstKind::Lut => 0,
        InstKind::Ff => 1,
        InstKind::Dsp => 2,
        InstKind::Bram => 3,
        InstKind::Uram => 4,
    }
}

/// Per [`kind_index`]: the kind's class in [`CLASSES`] and its share of the
/// class capacity (LUTs and FFs split a CLB).
const KIND_CAPACITY: [(usize, f32); 5] = [(0, 0.5), (0, 0.5), (1, 1.0), (2, 1.0), (3, 1.0)];

/// Scope-timer label of one stage.
pub const STAGE_TIMER: &str = "placer/gp_stage";
/// Scope-timer labels of the five passes of one iteration, in the order they
/// run; `mfaplace profile --flow` prints them against [`STAGE_TIMER`].
pub const PASS_TIMERS: [&str; 5] = [
    "placer/wl",
    "placer/spread",
    "placer/region",
    "placer/overflow",
    "placer/observe",
];

/// One pin of a net: where to read its position, and the vertical offset of
/// the instance inside its movable (0 for singles and fixed instances).
#[derive(Debug, Clone, Copy)]
struct Pin {
    slot: u32,
    off: f32,
}

/// One (net, pin) incidence of a movable; `net` is the net's position in
/// degree order.
#[derive(Debug, Clone, Copy)]
struct Incidence {
    net: u32,
    off: f32,
}

/// What a star pass needs of one net: `w * cx`, `cy` and the clique-to-star
/// weight `w = 2 / degree`.
#[derive(Debug, Clone, Copy, Default)]
struct Centroid {
    wcx: f32,
    cy: f32,
    w: f32,
}

/// The movables of one site class, in movable order (the order the
/// spreading sort breaks ties by).
#[derive(Debug, Default)]
struct ClassView {
    movs: Vec<u32>,
    /// Summed member areas per entry of `movs`. `areas_mut` is public, so
    /// this is recomputed on every stage entry.
    area: Vec<f32>,
    /// Fabric columns of the class.
    cols: Vec<usize>,
}

/// The netlist as the passes read it, built once per placer. A movable is a
/// single instance or a merged cascade cluster whose members sit at
/// consecutive vertical offsets; positions live in one slot array, movables
/// first, then one slot per fixed instance, so no per-pin loop branches on
/// movability.
#[derive(Debug)]
struct FlatView {
    /// Position slot per instance.
    inst_slot: Vec<u32>,
    /// Vertical offset of the instance from its slot's position.
    inst_off: Vec<f32>,
    /// [`kind_index`] per instance.
    inst_kind: Vec<u8>,
    /// Height extent per movable (cascade length, 1 for singles).
    extent: Vec<f32>,
    /// Clamp bounds: one x limit, one y limit per movable.
    max_x: f32,
    max_y: Vec<f32>,
    /// CSR movable → member instances.
    member_start: Vec<u32>,
    member_inst: Vec<u32>,
    /// CSR net → pins with nets stored in ascending degree (pins in netlist
    /// order), so nets of equal trip count run together.
    net_start: Vec<u32>,
    pins: Vec<Pin>,
    /// Position in degree order per original net index.
    net_rank: Vec<u32>,
    /// Movables in ascending incidence count, and the CSR over that order
    /// of each movable's incidences in netlist (net, pin) order — the order
    /// the scatter loop this replaces added them in.
    wl_order: Vec<u32>,
    inc_start: Vec<u32>,
    incs: Vec<Incidence>,
    /// Sum of star weights per entry of `wl_order`; constant for a netlist.
    wsum: Vec<f32>,
    classes: [ClassView; 4],
    /// Region-bound movables as `(movable, region index)`.
    regions: Vec<(u32, u32)>,
}

/// Buffers of one spreading pass.
#[derive(Debug, Default)]
struct SpreadScratch {
    /// Band and main-axis coordinate per class member.
    band: Vec<u32>,
    main: Vec<f32>,
    /// Counting-sort offsets (`bands + 1`) and fill cursors.
    band_start: Vec<u32>,
    fill: Vec<u32>,
    /// [`sort_key`] per class member, grouped by band.
    keys: Vec<u64>,
    /// Capacity profile of the current band and its prefix sums.
    cap: Vec<f32>,
    prefix: Vec<f32>,
}

/// Capacity grids per class for one bin configuration, and the demand
/// grids per instance kind.
#[derive(Debug, Default)]
struct OverflowScratch {
    bins: Option<(usize, usize)>,
    cap: [Vec<f32>; 4],
    dens: [Vec<f32>; 5],
}

/// Per-movable accumulators of a bound-to-bound pass.
#[derive(Debug, Default)]
struct B2bScratch {
    positions: Vec<(f32, f32)>,
    acc_x: Vec<f32>,
    acc_y: Vec<f32>,
    acc_wx: Vec<f32>,
    acc_wy: Vec<f32>,
}

/// The global placer state. Create once per design, then drive stages.
#[derive(Debug)]
pub struct GlobalPlacer<'a> {
    design: &'a Design,
    view: FlatView,
    /// Inflatable area per instance (site units).
    areas: Vec<f32>,
    /// Position per slot: movables, then fixed instances (anchors, or the
    /// origin for an unanchored one).
    pos: Vec<(f32, f32)>,
    /// Buffers the passes reuse, so a warm iteration allocates nothing.
    centroids: Vec<Centroid>,
    spread: SpreadScratch,
    grids: OverflowScratch,
    b2b: B2bScratch,
}

impl<'a> GlobalPlacer<'a> {
    /// Builds the movable system: cascade members are merged into clusters;
    /// everything starts near the fabric center with seeded jitter.
    pub fn new(design: &'a Design, seed: u64) -> Self {
        let netlist = &design.netlist;
        let n = netlist.num_instances();

        // First region listing each instance (what `Design::region_of`
        // answers, without its scan per query).
        let mut region_of = vec![None; n];
        for (r, region) in design.regions.iter().enumerate().rev() {
            for m in &region.members {
                region_of[m.0 as usize] = Some(r as u32);
            }
        }

        // Movables: cascade clusters first, then the remaining movable
        // singles.
        let mut in_cascade = vec![false; n];
        for m in design.cascades.iter().flat_map(|c| &c.members) {
            in_cascade[m.0 as usize] = true;
        }
        let singles: Vec<InstId> = netlist
            .instances()
            .filter(|(id, inst)| inst.movable && !in_cascade[id.0 as usize])
            .map(|(id, _)| id)
            .collect();
        let groups = design
            .cascades
            .iter()
            .map(|c| &c.members[..])
            .chain(singles.iter().map(std::slice::from_ref));
        let mut inst_slot = vec![u32::MAX; n];
        let mut inst_off = vec![0.0f32; n];
        let mut extent = Vec::new();
        let mut member_start = vec![0u32];
        let mut member_inst = Vec::new();
        let mut classes: [ClassView; 4] = Default::default();
        let mut regions = Vec::new();
        for members in groups {
            let m = extent.len() as u32;
            for (k, id) in members.iter().enumerate() {
                inst_slot[id.0 as usize] = m;
                inst_off[id.0 as usize] = k as f32;
                member_inst.push(id.0);
            }
            extent.push(members.len() as f32);
            member_start.push(member_inst.len() as u32);
            let kind = netlist.instance(members[0]).kind;
            classes[class_index(kind.site_kind())].movs.push(m);
            if let Some(r) = members.iter().find_map(|id| region_of[id.0 as usize]) {
                regions.push((m, r));
            }
        }
        let nm = extent.len();

        let mut rng = StdRng::seed_from_u64(seed);
        let (cw, ch) = (design.arch.width() * 0.5, design.arch.height() * 0.5);
        let mut bound = regions.iter().peekable();
        let mut pos: Vec<(f32, f32)> = (0..nm as u32)
            .map(|m| {
                // Region-bound movables start at their region center.
                if let Some(&(_, r)) = bound.next_if(|&&(bm, _)| bm == m) {
                    let (rx, ry) = design.regions[r as usize].rect.center();
                    (
                        rx + rng.gen_range(-1.0f32..1.0),
                        ry + rng.gen_range(-1.0f32..1.0),
                    )
                } else {
                    (
                        cw + rng.gen_range(-4.0f32..4.0),
                        ch + rng.gen_range(-4.0f32..4.0),
                    )
                }
            })
            .collect();

        // Fixed instances: one slot each, at the anchor when there is one.
        for slot in inst_slot.iter_mut().filter(|s| **s == u32::MAX) {
            *slot = pos.len() as u32;
            pos.push((0.0, 0.0));
        }
        for &(id, x, y) in &design.io_anchors {
            let slot = inst_slot[id.0 as usize] as usize;
            if slot >= nm {
                pos[slot] = (x, y);
            }
        }

        // Nets in ascending degree (stable: equal degrees keep netlist
        // order), pins in netlist order.
        let mut by_degree: Vec<u32> = (0..netlist.num_nets() as u32).collect();
        by_degree.sort_by_key(|&k| netlist.net(NetId(k)).degree());
        let mut net_rank = vec![0u32; by_degree.len()];
        let mut net_start = Vec::with_capacity(by_degree.len() + 1);
        let mut pins = Vec::with_capacity(netlist.pin_count());
        net_start.push(0u32);
        for (rank, &k) in by_degree.iter().enumerate() {
            net_rank[k as usize] = rank as u32;
            pins.extend(netlist.net(NetId(k)).pins.iter().map(|p| Pin {
                slot: inst_slot[p.0 as usize],
                off: inst_off[p.0 as usize],
            }));
            net_start.push(pins.len() as u32);
        }

        // Movable → incidences, movables in ascending incidence count.
        let mut inc_count = vec![0u32; nm];
        for pin in pins.iter().filter(|p| (p.slot as usize) < nm) {
            inc_count[pin.slot as usize] += 1;
        }
        let mut wl_order: Vec<u32> = (0..nm as u32).collect();
        wl_order.sort_by_key(|&m| inc_count[m as usize]);
        let mut wl_rank = vec![0u32; nm];
        let mut inc_start = Vec::with_capacity(nm + 1);
        inc_start.push(0u32);
        for (k, &m) in wl_order.iter().enumerate() {
            wl_rank[m as usize] = k as u32;
            inc_start.push(inc_start[k] + inc_count[m as usize]);
        }
        // Filled in netlist (net, pin) order: each movable's weights and,
        // later, its pulls are summed in the sequence the per-net scatter
        // loop this replaces added them in.
        let mut fill = inc_start[..nm].to_vec();
        let mut incs = vec![Incidence { net: 0, off: 0.0 }; inc_start[nm] as usize];
        let mut wsum = vec![0.0f32; nm];
        for &rank in &net_rank {
            let r = rank as usize;
            let net = &pins[net_start[r] as usize..net_start[r + 1] as usize];
            let w = 2.0 / net.len() as f32;
            for pin in net.iter().filter(|p| (p.slot as usize) < nm) {
                let k = wl_rank[pin.slot as usize] as usize;
                incs[fill[k] as usize] = Incidence {
                    net: rank,
                    off: pin.off,
                };
                fill[k] += 1;
                wsum[k] += w;
            }
        }

        for (class, view) in CLASSES.iter().zip(classes.iter_mut()) {
            view.cols = design.arch.columns_of(*class);
            view.area = vec![0.0; view.movs.len()];
        }
        let height = design.arch.height();
        let view = FlatView {
            inst_slot,
            inst_off,
            inst_kind: netlist
                .instances()
                .map(|(_, inst)| kind_index(inst.kind) as u8)
                .collect(),
            max_x: design.arch.width() - 1e-3,
            max_y: extent.iter().map(|e| (height - e).max(0.0)).collect(),
            extent,
            member_start,
            member_inst,
            net_start,
            pins,
            net_rank,
            wl_order,
            inc_start,
            incs,
            wsum,
            classes,
            regions,
        };
        GlobalPlacer {
            design,
            areas: netlist
                .instances()
                .map(|(_, inst)| inst.kind.base_area())
                .collect(),
            pos,
            centroids: vec![Centroid::default(); view.net_rank.len()],
            spread: SpreadScratch::default(),
            grids: OverflowScratch::default(),
            b2b: B2bScratch::default(),
            view,
        }
    }

    /// Number of movable objects (cascade clusters count once).
    pub fn num_movables(&self) -> usize {
        self.view.extent.len()
    }

    /// Current inflatable areas (one per instance, site units).
    pub fn areas(&self) -> &[f32] {
        &self.areas
    }

    /// Mutable access to the inflatable areas (used by inflation).
    pub fn areas_mut(&mut self) -> &mut [f32] {
        &mut self.areas
    }

    /// The current continuous placement of every instance.
    pub fn placement(&self) -> Placement {
        let nm = self.num_movables();
        let (xs, ys) = self
            .view
            .inst_slot
            .iter()
            .zip(&self.view.inst_off)
            .map(|(&slot, &off)| {
                let (x, y) = self.pos[slot as usize];
                // A fixed instance sits exactly at its anchor.
                (x, if (slot as usize) < nm { y + off } else { y })
            })
            .unzip();
        Placement::from_coords(xs, ys)
    }

    /// Half-perimeter wirelength of the current placement: the `f64`
    /// `self.placement().hpwl(netlist)` returns, bit for bit, without
    /// building the placement.
    ///
    /// Per-net extents are taken in degree order, then summed in netlist
    /// order as `Placement::hpwl` sums them. The bounds use compare-and-select
    /// where `Placement::hpwl` uses `f32::min`/`max`: bounds that start
    /// infinite are never NaN, so the two can differ only in the sign of a
    /// zero bound, which changes an extent only when the extent is itself
    /// zero — and adding a zero of either sign leaves the total as it was.
    pub fn hpwl(&self) -> f64 {
        let v = &self.view;
        let mut extents = vec![0.0f64; v.net_rank.len()];
        for (extent, bounds) in extents.iter_mut().zip(v.net_start.windows(2)) {
            let mut min_x = f32::INFINITY;
            let mut max_x = f32::NEG_INFINITY;
            let mut min_y = f32::INFINITY;
            let mut max_y = f32::NEG_INFINITY;
            for pin in &v.pins[bounds[0] as usize..bounds[1] as usize] {
                let (x, y) = self.pos[pin.slot as usize];
                let y = y + pin.off;
                if x < min_x {
                    min_x = x;
                }
                if x > max_x {
                    max_x = x;
                }
                if y < min_y {
                    min_y = y;
                }
                if y > max_y {
                    max_y = y;
                }
            }
            *extent = f64::from(max_x - min_x) + f64::from(max_y - min_y);
        }
        let mut total = 0.0f64;
        for &rank in &v.net_rank {
            total += extents[rank as usize];
        }
        total
    }

    /// One damped star-model pass: every pin pulls toward its net's
    /// centroid with the clique-to-star weight `2 / degree`.
    ///
    /// Centroids per net first, then each movable sums its own incidences.
    /// A centroid depends on no other net, so the order nets are visited in
    /// is free; a movable's sums run over its incidences in netlist order,
    /// so every `f32` add happens in the sequence a scatter over nets would
    /// have made it in.
    fn star_pass(&mut self, damping: f32) {
        let v = &self.view;
        let pos = &mut self.pos;
        let centroids = &mut self.centroids;
        for (c, bounds) in centroids.iter_mut().zip(v.net_start.windows(2)) {
            let pins = &v.pins[bounds[0] as usize..bounds[1] as usize];
            let deg = pins.len() as f32;
            let mut cx = 0.0f32;
            let mut cy = 0.0f32;
            for pin in pins {
                let (x, y) = pos[pin.slot as usize];
                cx += x;
                cy += y + pin.off;
            }
            cx /= deg;
            cy /= deg;
            let w = 2.0 / deg;
            *c = Centroid { wcx: w * cx, cy, w };
        }
        for ((&m, &wsum), bounds) in v.wl_order.iter().zip(&v.wsum).zip(v.inc_start.windows(2)) {
            let mut acc_x = 0.0f32;
            let mut acc_y = 0.0f32;
            for inc in &v.incs[bounds[0] as usize..bounds[1] as usize] {
                let c = centroids[inc.net as usize];
                acc_x += c.wcx;
                acc_y += c.w * (c.cy - inc.off);
            }
            let m = m as usize;
            let (x, y) = pos[m];
            pos[m] = v.clamped(
                m,
                pulled(x, acc_x, wsum, damping),
                pulled(y, acc_y, wsum, damping),
            );
        }
    }

    /// One damped bound-to-bound pass: per axis, the min and max pins
    /// anchor the net; every pin connects to both bounds with weight
    /// `2 / ((deg-1) * distance)`, the SimPL linearization of HPWL. Nets are
    /// visited in netlist order because the pulls scatter into per-movable
    /// accumulators.
    fn b2b_pass(&mut self, damping: f32) {
        let v = &self.view;
        let pos = &mut self.pos;
        let nm = v.extent.len();
        let B2bScratch {
            positions,
            acc_x,
            acc_y,
            acc_wx,
            acc_wy,
        } = &mut self.b2b;
        for acc in [&mut *acc_x, &mut *acc_y, &mut *acc_wx, &mut *acc_wy] {
            acc.clear();
            acc.resize(nm, 0.0);
        }
        for &rank in &v.net_rank {
            let pins = v.net_pins(rank);
            let deg = pins.len();
            if deg < 2 {
                continue;
            }
            positions.clear();
            positions.extend(pins.iter().map(|pin| {
                let (x, y) = pos[pin.slot as usize];
                (x, y + pin.off)
            }));
            for axis in 0..2 {
                let coord = |i: usize| {
                    if axis == 0 {
                        positions[i].0
                    } else {
                        positions[i].1
                    }
                };
                let mut lo = 0usize;
                let mut hi = 0usize;
                for i in 1..deg {
                    if coord(i) < coord(lo) {
                        lo = i;
                    }
                    if coord(i) > coord(hi) {
                        hi = i;
                    }
                }
                let base = 2.0 / (deg as f32 - 1.0);
                for i in 0..deg {
                    for &b in &[lo, hi] {
                        if i == b {
                            continue;
                        }
                        let d = (coord(i) - coord(b)).abs().max(0.5);
                        let w = base / d;
                        // pull pin i toward bound b (and vice versa)
                        for (from, to) in [(i, b), (b, i)] {
                            let pin = pins[from];
                            let m = pin.slot as usize;
                            if m < nm {
                                let target = coord(to);
                                if axis == 0 {
                                    acc_x[m] += w * target;
                                    acc_wx[m] += w;
                                } else {
                                    acc_y[m] += w * (target - pin.off);
                                    acc_wy[m] += w;
                                }
                            }
                        }
                    }
                }
            }
        }
        for m in 0..nm {
            let (x, y) = pos[m];
            pos[m] = v.clamped(
                m,
                pulled(x, acc_x[m], acc_wx[m], damping),
                pulled(y, acc_y[m], acc_wy[m], damping),
            );
        }
    }

    /// Density spreading: per resource class, alternate order-preserving
    /// 1-D capacity spreading along x (within horizontal bands) and along y
    /// (within vertical strips) — Kraftwerk-style cell shifting. Each
    /// movable's target is the fabric position where the cumulative site
    /// capacity of its class equals its cumulative area demand; positions
    /// are blended toward the targets with strength `density_step`.
    fn density_pass(&mut self, density_step: f32, bin_w: usize, bin_h: usize) {
        let alpha = density_step.clamp(0.0, 1.0);
        for (ci, &class) in CLASSES.iter().enumerate() {
            // Macro populations are small: coarser bands and decisive moves
            // keep the per-band transport statistics meaningful.
            let (bands_x, bands_y, a) = if class == SiteKind::Clb {
                (bin_h, bin_w, alpha)
            } else {
                (bin_h.min(6), bin_w.min(6), alpha.max(0.8))
            };
            self.spread_axis(ci, Axis::X, bands_x, a);
            self.spread_axis(ci, Axis::Y, bands_y, a);
        }
        for (m, p) in self.pos[..self.view.extent.len()].iter_mut().enumerate() {
            *p = self.view.clamped(m, p.0, p.1);
        }
    }

    /// One 1-D spreading pass for class `ci` of [`CLASSES`] along `axis`,
    /// banding the orthogonal axis into `bands` stripes.
    fn spread_axis(&mut self, ci: usize, axis: Axis, bands: usize, alpha: f32) {
        let arch = &self.design.arch;
        let v = &self.view;
        let class = &v.classes[ci];
        if class.cols.is_empty() {
            return;
        }
        let pos = &mut self.pos;
        let SpreadScratch {
            band,
            main,
            band_start,
            fill,
            keys,
            cap,
            prefix,
        } = &mut self.spread;
        let (main_len, ortho_len) = match axis {
            Axis::X => (arch.columns(), arch.height()),
            Axis::Y => (arch.rows(), arch.width()),
        };
        let band_size = ortho_len / bands as f32;

        // Counting sort of the class members into bands, in movable order.
        band.clear();
        main.clear();
        band_start.clear();
        band_start.resize(bands + 1, 0);
        for &m in &class.movs {
            let (x, y) = pos[m as usize];
            let mid_y = y + v.extent[m as usize] * 0.5;
            let (along, ortho) = match axis {
                Axis::X => (x, mid_y),
                Axis::Y => (mid_y, x),
            };
            let b = ((ortho / band_size) as usize).min(bands - 1);
            band.push(b as u32);
            main.push(along);
            band_start[b + 1] += 1;
        }
        for b in 0..bands {
            band_start[b + 1] += band_start[b];
        }
        fill.clear();
        fill.extend_from_slice(&band_start[..bands]);
        keys.clear();
        keys.resize(class.movs.len(), 0);
        for (j, (&b, &along)) in band.iter().zip(main.iter()).enumerate() {
            let at = &mut fill[b as usize];
            keys[*at as usize] = sort_key(along, j);
            *at += 1;
        }

        // Capacity per unit cell along the main axis. Along X: column c has
        // `rows` sites scaled to the band height, the same profile in every
        // band. Along Y: every row has as many sites as the strip has class
        // columns, so the profile is per band.
        let mut total_cap = 0.0f32;
        if axis == Axis::X {
            let per_col = arch.rows() as f32 * band_size / arch.height();
            cap.clear();
            cap.resize(main_len, 0.0);
            for &c in &class.cols {
                cap[c] = per_col;
            }
            total_cap = prefix_sums(cap, prefix);
        }
        for b in 0..bands {
            let bucket = &mut keys[band_start[b] as usize..band_start[b + 1] as usize];
            if bucket.is_empty() {
                continue;
            }
            if axis == Axis::Y {
                // count class columns inside this band's x-range
                let x0 = b as f32 * band_size;
                let x1 = x0 + band_size;
                let n_cols = class
                    .cols
                    .iter()
                    .filter(|&&c| (c as f32 + 0.5) >= x0 && (c as f32 + 0.5) < x1)
                    .count();
                if n_cols == 0 {
                    // no sites of this class in the strip: push toward
                    // the nearest class column instead of spreading
                    for &key in bucket.iter() {
                        let m = class.movs[key as u32 as usize] as usize;
                        let x = pos[m].0;
                        let nearest = class
                            .cols
                            .iter()
                            .copied()
                            .min_by(|&a, &bc| {
                                (a as f32 - x)
                                    .abs()
                                    .partial_cmp(&(bc as f32 - x).abs())
                                    .expect("finite")
                            })
                            .expect("non-empty cols");
                        pos[m].0 += alpha * (nearest as f32 - x);
                    }
                    continue;
                }
                cap.clear();
                cap.resize(main_len, n_cols as f32);
                total_cap = prefix_sums(cap, prefix);
            }
            if total_cap <= 0.0 {
                continue;
            }
            // Keys are distinct, so this is the order a stable sort on the
            // coordinate alone gives.
            bucket.sort_unstable();
            let members = || {
                bucket.iter().map(|&key| {
                    let j = key as u32 as usize;
                    (j, main[j], class.area[j])
                })
            };
            let total_demand: f32 = members().map(|(_, _, a)| a).sum();
            // Map cumulative demand onto cumulative capacity. An over-full
            // band spans the whole capacity (compression ratio C/D); an
            // under-full band occupies a capacity window of width D anchored
            // at the demand centroid, so cells do not teleport to the edge.
            let (offset, squeeze) = if total_demand > total_cap {
                (0.0, total_cap / total_demand)
            } else {
                let centroid: f32 =
                    members().map(|(_, m, a)| m * a).sum::<f32>() / total_demand.max(1e-6);
                let cell = (centroid as usize).min(main_len - 1);
                let c_pos = prefix[cell] + (centroid - cell as f32).clamp(0.0, 1.0) * cap[cell];
                (
                    (c_pos - total_demand * 0.5).clamp(0.0, total_cap - total_demand),
                    1.0,
                )
            };
            let mut cum = 0.0f32;
            let mut below = 0usize;
            for (j, along, area) in members() {
                let d = offset + (cum + area * 0.5) * squeeze;
                cum += area;
                // find cell where cumulative capacity reaches d
                let target_cum = d.min(total_cap - 1e-6);
                let idx =
                    (search_from(prefix, &mut below, target_cum).max(1) - 1).min(main_len - 1);
                let within = if cap[idx] > 0.0 {
                    (target_cum - prefix[idx]) / cap[idx]
                } else {
                    0.5
                };
                let target = idx as f32 + within;
                // Blend toward an interpolation between the WL-preferred
                // position and the capacity-balanced one.
                let blended = along + alpha * (target - along);
                let m = class.movs[j] as usize;
                match axis {
                    Axis::X => pos[m].0 = blended,
                    Axis::Y => pos[m].1 = blended - v.extent[m] * 0.5,
                }
            }
        }
    }

    /// Region tension: pull region-bound movables inside their rectangles.
    /// Only they move, and everything else was clamped by the density pass.
    fn region_pass(&mut self, weight: f32) {
        for &(m, r) in &self.view.regions {
            let m = m as usize;
            let rect = self.design.regions[r as usize].rect;
            let (mut x, mut y) = self.pos[m];
            if !rect.contains(x, y) {
                let tx = x.clamp(rect.x0 + 0.25, rect.x1 - 0.25);
                let ty = y.clamp(rect.y0 + 0.25, rect.y1 - 0.25);
                (x, y) = (x + weight * (tx - x), y + weight * (ty - y));
            }
            self.pos[m] = self.view.clamped(m, x, y);
        }
    }

    /// Current per-type overflow ratios.
    pub fn overflow(&self, cfg: &GpConfig) -> Overflow {
        self.overflow_with(cfg, &mut OverflowScratch::default())
    }

    /// [`overflow`](Self::overflow) on caller-kept grids: the capacity
    /// grids are rebuilt only when the bin configuration changes, and all
    /// five demand grids fill in one pass over the instances.
    fn overflow_with(&self, cfg: &GpConfig, s: &mut OverflowScratch) -> Overflow {
        let arch = &self.design.arch;
        let v = &self.view;
        // Macro populations are small, so measure them on the same coarse
        // bins the macro spreading uses; fine bins would make the ratio a
        // brittle quantization artifact.
        let bins = CLASSES.map(|class| {
            if class == SiteKind::Clb {
                (cfg.bin_w, cfg.bin_h)
            } else {
                (cfg.bin_w.min(6), cfg.bin_h.min(6))
            }
        });
        let scale = bins.map(|(w, h)| (w as f32 / arch.width(), h as f32 / arch.height()));
        if s.bins != Some((cfg.bin_w, cfg.bin_h)) {
            s.bins = Some((cfg.bin_w, cfg.bin_h));
            for (ci, cap) in s.cap.iter_mut().enumerate() {
                let ((bin_w, bin_h), (sx, sy)) = (bins[ci], scale[ci]);
                cap.clear();
                cap.resize(bin_w * bin_h, 0.0);
                for &col in &v.classes[ci].cols {
                    let bx = (((col as f32 + 0.5) * sx) as usize).min(bin_w - 1);
                    for row in 0..arch.rows() {
                        let by = (((row as f32 + 0.5) * sy) as usize).min(bin_h - 1);
                        cap[by * bin_w + bx] += 1.0;
                    }
                }
            }
        }
        for (dens, (ci, _)) in s.dens.iter_mut().zip(KIND_CAPACITY) {
            dens.clear();
            dens.resize(bins[ci].0 * bins[ci].1, 0.0);
        }
        // Each grid receives its instances in index order.
        for (i, &kind) in v.inst_kind.iter().enumerate() {
            let ci = KIND_CAPACITY[kind as usize].0;
            let ((bin_w, bin_h), (sx, sy)) = (bins[ci], scale[ci]);
            let (x, y) = self.pos[v.inst_slot[i] as usize];
            let y = y + v.inst_off[i];
            let bx = ((x * sx) as usize).min(bin_w - 1);
            let by = ((y * sy) as usize).min(bin_h - 1);
            s.dens[kind as usize][by * bin_w + bx] += self.areas[i];
        }
        let ratio = |kind: InstKind| -> f32 {
            let dens = &s.dens[kind_index(kind)];
            let (ci, share) = KIND_CAPACITY[kind_index(kind)];
            let total: f32 = dens.iter().sum();
            if total == 0.0 {
                return 0.0;
            }
            let over: f32 = dens
                .iter()
                .zip(&s.cap[ci])
                .map(|(&d, &c)| (d - c * share).max(0.0))
                .sum();
            over / total
        };
        Overflow {
            lut: ratio(InstKind::Lut),
            ff: ratio(InstKind::Ff),
            dsp: ratio(InstKind::Dsp),
            bram: ratio(InstKind::Bram),
            uram: ratio(InstKind::Uram),
        }
    }

    /// Runs global-placement iterations until the overflow targets are met
    /// or `cfg.iterations` is exhausted. Returns the iteration count and the
    /// final overflow.
    pub fn run_stage(&mut self, cfg: &GpConfig) -> (usize, Overflow) {
        self.run_stage_observed(cfg, &mut |_, _, _| true)
            .expect("no-op observer never aborts")
    }

    /// Like [`run_stage`](Self::run_stage), but calls `observe` after every
    /// iteration with the placer state, the iteration index and the current
    /// overflow. The observer must not mutate placement state (it only gets
    /// a shared borrow) so observed and unobserved runs stay bitwise
    /// identical; returning `false` aborts the stage, yielding `None`.
    ///
    /// A stage records [`STAGE_TIMER`], and each iteration the five
    /// [`PASS_TIMERS`] under it.
    pub fn run_stage_observed(
        &mut self,
        cfg: &GpConfig,
        observe: &mut dyn FnMut(&GlobalPlacer, usize, &Overflow) -> bool,
    ) -> Option<(usize, Overflow)> {
        let _t = ScopeTimer::new(STAGE_TIMER);
        let v = &mut self.view;
        for class in &mut v.classes {
            for (area, &m) in class.area.iter_mut().zip(&class.movs) {
                let m = m as usize;
                *area = v.member_inst[v.member_start[m] as usize..v.member_start[m + 1] as usize]
                    .iter()
                    .map(|&i| self.areas[i as usize])
                    .sum();
            }
        }
        // Measuring overflow reads the whole placer, so its grids step
        // outside it for the stage.
        let mut grids = std::mem::take(&mut self.grids);
        let outcome = self.iterate(cfg, observe, &mut grids);
        self.grids = grids;
        outcome
    }

    fn iterate(
        &mut self,
        cfg: &GpConfig,
        observe: &mut dyn FnMut(&GlobalPlacer, usize, &Overflow) -> bool,
        grids: &mut OverflowScratch,
    ) -> Option<(usize, Overflow)> {
        let [wl, spread, region, overflow, observed] = PASS_TIMERS;
        let mut overflow = |gp: &GlobalPlacer| {
            let _t = ScopeTimer::new(overflow);
            gp.overflow_with(cfg, grids)
        };
        let mut last = overflow(self);
        for it in 0..cfg.iterations {
            // Anneal: wirelength pull cools while spreading strengthens, so
            // late iterations prioritize legality (density) over wirelength.
            let cool = 0.94f32.powi(it as i32);
            let damping = cfg.wl_damping * cool;
            let density_step = (cfg.density_step * (1.0 + it as f32 * 0.04)).min(1.0);
            {
                let _t = ScopeTimer::new(wl);
                for _ in 0..cfg.wl_passes {
                    match cfg.net_model {
                        NetModel::Star => self.star_pass(damping),
                        NetModel::B2b => self.b2b_pass(damping),
                    }
                }
            }
            {
                let _t = ScopeTimer::new(spread);
                self.density_pass(density_step, cfg.bin_w, cfg.bin_h);
            }
            {
                let _t = ScopeTimer::new(region);
                self.region_pass(cfg.region_weight);
            }
            last = overflow(self);
            let done = last.meets_targets(cfg.target_overflow_macro, cfg.target_overflow_cell);
            {
                let _t = ScopeTimer::new(observed);
                if !observe(self, it, &last) {
                    return None;
                }
            }
            if done {
                return Some((it + 1, last));
            }
        }
        Some((cfg.iterations, last))
    }
}

impl FlatView {
    /// The pins of the net at position `rank` of the degree order.
    fn net_pins(&self, rank: u32) -> &[Pin] {
        let r = rank as usize;
        &self.pins[self.net_start[r] as usize..self.net_start[r + 1] as usize]
    }

    /// `(x, y)` clamped into the fabric for movable `m`.
    fn clamped(&self, m: usize, x: f32, y: f32) -> (f32, f32) {
        (x.clamp(0.0, self.max_x), y.clamp(0.0, self.max_y[m]))
    }
}

/// The damped fixed-point update of one coordinate: toward `acc / w` when
/// anything pulls.
fn pulled(p: f32, acc: f32, w: f32, damping: f32) -> f32 {
    if w > 0.0 {
        p + damping * (acc / w - p)
    } else {
        p
    }
}

/// Sort key of a band member: the coordinate's bits mapped so that integer
/// order is numeric order (`-0.0` and `0.0` compare equal, so they map to
/// one key), then the member's index in its class list. Sorting these keys
/// gives the order of a stable `partial_cmp` sort on the coordinate over
/// members pushed in list order.
///
/// # Panics
///
/// Panics on a NaN coordinate, which has no place in that order.
fn sort_key(coord: f32, index: usize) -> u64 {
    assert!(!coord.is_nan(), "finite coordinate");
    let bits = if coord == 0.0 { 0 } else { coord.to_bits() };
    let ordered = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(ordered) << 32 | index as u64
}

/// Fills `prefix` with the running sums of `cap` (one more entry than
/// `cap`, starting at 0) and returns the total.
fn prefix_sums(cap: &[f32], prefix: &mut Vec<f32>) -> f32 {
    prefix.clear();
    prefix.push(0.0);
    for (i, &c) in cap.iter().enumerate() {
        prefix.push(prefix[i] + c);
    }
    cap.iter().sum()
}

/// What `prefix.binary_search_by(|p| p.partial_cmp(&target))` answers
/// (found or insertion index alike) for a non-decreasing `prefix`, found by
/// walking `below` — the count of entries strictly below the previous
/// target — to the count for this one. Targets of a band rise almost
/// monotonically, so the walk is a step or two. Where entries equal the
/// target, which of them a binary search reports is implementation-defined,
/// so that case asks the very same call.
fn search_from(prefix: &[f32], below: &mut usize, target: f32) -> usize {
    while *below < prefix.len() && prefix[*below] < target {
        *below += 1;
    }
    while *below > 0 && prefix[*below - 1] >= target {
        *below -= 1;
    }
    if *below < prefix.len() && prefix[*below] == target {
        match prefix.binary_search_by(|p| p.partial_cmp(&target).expect("finite")) {
            Ok(i) | Err(i) => i,
        }
    } else {
        *below
    }
}

/// Spreading axis selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_fpga::design::DesignPreset;

    fn small_design() -> Design {
        DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1)
    }

    #[test]
    fn placer_reduces_hpwl_vs_random() {
        let d = small_design();
        let random = d.random_placement(3);
        let mut gp = GlobalPlacer::new(&d, 3);
        let cfg = GpConfig {
            iterations: 20,
            ..GpConfig::default()
        };
        gp.run_stage(&cfg);
        let placed = gp.placement();
        assert!(
            placed.hpwl(&d.netlist) < random.hpwl(&d.netlist) * 0.7,
            "gp {} vs random {}",
            placed.hpwl(&d.netlist),
            random.hpwl(&d.netlist)
        );
    }

    #[test]
    fn spreading_reduces_overflow() {
        let d = small_design();
        let mut gp = GlobalPlacer::new(&d, 5);
        let cfg = GpConfig::default();
        let before = gp.overflow(&cfg);
        gp.run_stage(&cfg);
        let after = gp.overflow(&cfg);
        assert!(
            after.lut <= before.lut,
            "lut overflow grew: {} -> {}",
            before.lut,
            after.lut
        );
        assert!(after.dsp <= before.dsp + 1e-3);
    }

    #[test]
    fn cascade_members_stay_stacked() {
        let d = small_design();
        assert!(!d.cascades.is_empty());
        let mut gp = GlobalPlacer::new(&d, 7);
        gp.run_stage(&GpConfig {
            iterations: 10,
            ..GpConfig::default()
        });
        let p = gp.placement();
        for c in &d.cascades {
            let (x0, y0) = p.pos(c.members[0].0 as usize);
            for (k, &m) in c.members.iter().enumerate() {
                let (x, y) = p.pos(m.0 as usize);
                assert_eq!(x, x0, "cascade member drifted in x");
                assert!((y - (y0 + k as f32)).abs() < 1e-4, "cascade offset broken");
            }
        }
    }

    #[test]
    fn region_members_converge_into_region() {
        let d = small_design();
        assert!(!d.regions.is_empty());
        let mut gp = GlobalPlacer::new(&d, 9);
        gp.run_stage(&GpConfig {
            iterations: 30,
            ..GpConfig::default()
        });
        let p = gp.placement();
        let mut inside = 0usize;
        let mut total = 0usize;
        for (ri, r) in d.regions.iter().enumerate() {
            for &m in &r.members {
                // only members whose movable is bound to this region
                if d.region_of(m) == Some(ri) {
                    total += 1;
                    let (x, y) = p.pos(m.0 as usize);
                    if r.rect.contains(x, y) {
                        inside += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            inside as f32 / total as f32 > 0.8,
            "only {inside}/{total} region members inside"
        );
    }

    #[test]
    fn all_positions_inside_fabric() {
        let d = small_design();
        let mut gp = GlobalPlacer::new(&d, 11);
        gp.run_stage(&GpConfig {
            iterations: 15,
            ..GpConfig::default()
        });
        let p = gp.placement();
        for i in 0..p.len() {
            let (x, y) = p.pos(i);
            assert!(x >= 0.0 && x <= d.arch.width(), "x {x} out of fabric");
            assert!(y >= 0.0 && y <= d.arch.height(), "y {y} out of fabric");
        }
    }

    #[test]
    fn b2b_model_converges_with_more_passes() {
        // B2B's distance-normalized weights converge more slowly per damped
        // fixed-point pass than the star model (SimPL applies it inside full
        // linear solves); with a higher pass budget it reaches comparable
        // wirelength.
        let d = small_design();
        let run = |model: NetModel, passes: usize| {
            let mut gp = GlobalPlacer::new(&d, 4);
            gp.run_stage(&GpConfig {
                iterations: 15,
                net_model: model,
                wl_passes: passes,
                ..GpConfig::default()
            });
            gp.placement().hpwl(&d.netlist)
        };
        let star = run(NetModel::Star, 3);
        let b2b = run(NetModel::B2b, 10);
        assert!(
            b2b < star * 1.25,
            "b2b {b2b} should approach star {star} with extra passes"
        );
        // And more passes must help B2B itself.
        let b2b_few = run(NetModel::B2b, 2);
        assert!(
            b2b < b2b_few,
            "passes should improve b2b: {b2b} vs {b2b_few}"
        );
    }

    #[test]
    fn flat_hpwl_equals_placement_hpwl_bitwise() {
        let d = small_design();
        let mut gp = GlobalPlacer::new(&d, 6);
        assert_eq!(
            gp.hpwl().to_bits(),
            gp.placement().hpwl(&d.netlist).to_bits()
        );
        gp.run_stage_observed(
            &GpConfig {
                iterations: 6,
                ..GpConfig::default()
            },
            &mut |gp, _, _| {
                assert_eq!(
                    gp.hpwl().to_bits(),
                    gp.placement().hpwl(&d.netlist).to_bits()
                );
                true
            },
        );
    }

    #[test]
    fn sort_keys_order_like_a_stable_float_sort() {
        let coords = [
            3.5,
            -0.0,
            f32::INFINITY,
            0.0,
            -2.0,
            1e-40,
            3.5,
            f32::NEG_INFINITY,
            -1e-40,
            0.0,
            -2.0,
            f32::MAX,
            -0.0,
        ];
        let mut stable: Vec<(usize, f32)> = coords.iter().copied().enumerate().collect();
        stable.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite coordinate"));
        let mut keys: Vec<u64> = coords
            .iter()
            .enumerate()
            .map(|(j, &c)| sort_key(c, j))
            .collect();
        keys.sort_unstable();
        let by_key: Vec<usize> = keys.iter().map(|&k| k as u32 as usize).collect();
        let by_stable: Vec<usize> = stable.iter().map(|&(j, _)| j).collect();
        assert_eq!(by_key, by_stable);
    }

    #[test]
    #[should_panic(expected = "finite coordinate")]
    fn sort_key_rejects_nan() {
        sort_key(f32::NAN, 0);
    }

    #[test]
    fn cursor_search_answers_like_binary_search() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            // Capacity profiles with zero-capacity cells, so the prefix
            // sums carry runs of equal entries.
            let len = rng.gen_range(1usize..40);
            let cap: Vec<f32> = (0..len)
                .map(|_| {
                    if rng.gen_range(0u32..3) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0f32..4.0)
                    }
                })
                .collect();
            let mut prefix = Vec::new();
            let total = prefix_sums(&cap, &mut prefix);
            let mut below = 0usize;
            for _ in 0..60 {
                // Exact hits, off-range values and anything in between, in
                // no particular order.
                let target = match rng.gen_range(0u32..4) {
                    0 => prefix[rng.gen_range(0usize..prefix.len())],
                    1 => rng.gen_range(-1.0f32..1.0),
                    2 => total + rng.gen_range(-0.5f32..0.5),
                    _ => rng.gen_range(0.0f32..total.max(1e-3)),
                };
                let want =
                    match prefix.binary_search_by(|p| p.partial_cmp(&target).expect("finite")) {
                        Ok(i) | Err(i) => i,
                    };
                assert_eq!(
                    search_from(&prefix, &mut below, target),
                    want,
                    "target {target} in {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = small_design();
        let run = |seed| {
            let mut gp = GlobalPlacer::new(&d, seed);
            gp.run_stage(&GpConfig {
                iterations: 5,
                ..GpConfig::default()
            });
            gp.placement().hpwl(&d.netlist)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
