//! The six grid-based input features of the congestion-prediction model
//! (Sec. III-B of the paper):
//!
//! 1. **Macro map** — per-grid macro occupancy,
//! 2. **Horizontal net density** — RUDY-style horizontal routing demand,
//! 3. **Vertical net density** — RUDY-style vertical routing demand,
//! 4. **RUDY map** — superposition of the two net densities,
//! 5. **Pin RUDY map** — pin density spread over each net's bounding box,
//! 6. **Cell density map** — placed cell count per grid.
//!
//! Each map is max-normalized to `[0, 1]`; the stack converts to the model
//! input tensor `X in R^{6 x H x W}`.

use mfaplace_rt::timer::ScopeTimer;
use mfaplace_tensor::Tensor;

use crate::design::Design;
use crate::gridmap::GridMap;
use crate::placement::Placement;

/// Number of feature channels.
pub const NUM_FEATURES: usize = 6;

/// The six extracted feature maps for one placement snapshot.
#[derive(Debug, Clone)]
pub struct FeatureStack {
    /// Macro occupancy.
    pub macro_map: GridMap,
    /// Horizontal net density.
    pub hnet: GridMap,
    /// Vertical net density.
    pub vnet: GridMap,
    /// RUDY (horizontal + vertical demand).
    pub rudy: GridMap,
    /// Pin RUDY.
    pub pin_rudy: GridMap,
    /// Cell density.
    pub cell_density: GridMap,
}

impl FeatureStack {
    /// Extracts the six features on a `grid_w x grid_h` grid.
    ///
    /// The maps depend only on the set of instances and the multiset of
    /// nets, not on their order: the two count maps add ones and the four
    /// net maps are summed exactly in fixed point (`net_maps` below).
    pub fn extract(design: &Design, placement: &Placement, grid_w: usize, grid_h: usize) -> Self {
        let _t = ScopeTimer::new("fpga/features");
        let sx = grid_w as f32 / design.arch.width();
        let sy = grid_h as f32 / design.arch.height();
        let cell = |x: f32, y: f32| -> (usize, usize) {
            (
                ((x * sx) as usize).min(grid_w - 1),
                ((y * sy) as usize).min(grid_h - 1),
            )
        };

        let mut macro_map = GridMap::new(grid_w, grid_h);
        let mut cell_density = GridMap::new(grid_w, grid_h);
        for (id, inst) in design.netlist.instances() {
            let (x, y) = placement.pos(id.0 as usize);
            let (gx, gy) = cell(x, y);
            if inst.kind.is_macro() {
                macro_map.add(gx, gy, 1.0);
            } else {
                cell_density.add(gx, gy, 1.0);
            }
        }

        let [mut hnet, mut vnet, mut rudy, mut pin_rudy] =
            net_maps(design, placement, grid_w, grid_h, cell);

        for m in [
            &mut macro_map,
            &mut hnet,
            &mut vnet,
            &mut rudy,
            &mut pin_rudy,
            &mut cell_density,
        ] {
            m.normalize_max();
        }

        FeatureStack {
            macro_map,
            hnet,
            vnet,
            rudy,
            pin_rudy,
            cell_density,
        }
    }

    /// The maps in channel order.
    pub fn maps(&self) -> [&GridMap; NUM_FEATURES] {
        [
            &self.macro_map,
            &self.hnet,
            &self.vnet,
            &self.rudy,
            &self.pin_rudy,
            &self.cell_density,
        ]
    }

    /// Stacks the maps into the model input tensor `[6, H, W]`.
    pub fn to_tensor(&self) -> Tensor {
        let h = self.macro_map.height();
        let w = self.macro_map.width();
        let mut data = Vec::with_capacity(NUM_FEATURES * h * w);
        for m in self.maps() {
            data.extend_from_slice(m.data());
        }
        Tensor::from_vec(vec![NUM_FEATURES, h, w], data).expect("feature tensor")
    }

    /// Rotates every map by `k * 90` degrees (dataset augmentation).
    pub fn rot90(&self, k: usize) -> FeatureStack {
        FeatureStack {
            macro_map: self.macro_map.rot90(k),
            hnet: if k % 2 == 1 {
                // rotating by 90/270 swaps horizontal and vertical demand
                self.vnet.rot90(k)
            } else {
                self.hnet.rot90(k)
            },
            vnet: if k % 2 == 1 {
                self.hnet.rot90(k)
            } else {
                self.vnet.rot90(k)
            },
            rudy: self.rudy.rot90(k),
            pin_rudy: self.pin_rudy.rot90(k),
            cell_density: self.cell_density.rot90(k),
        }
    }
}

/// Fractional bits of the fixed-point net-channel sums. On a grid of up to
/// 512 x 512 no addend is smaller than `2 / (512 * 512) = 2^-17` (a net has
/// at least two pins), so the last mantissa bit of every f32 addend is worth
/// at least `2^-40` and widening it to this scale loses nothing; the paper's
/// 256 x 256 leaves two bits spare.
const FRAC_BITS: u32 = 40;

/// The fractional bits `net_maps` works at for a netlist of `pins` pins
/// (`sum of degree`): [`FRAC_BITS`] below `2^22` pins, fewer above.
///
/// No addend exceeds its net's degree (`w * h >= 1`) and `hnet + vnet` adds
/// at most 2 per net, so at `b` fractional bits every corner delta, every
/// running sum of the prefix pass and every cell sum is bounded in magnitude
/// by `2^b * pins`. Choosing `b <= 62 - bit_length(pins)` keeps that below
/// `2^62`: this one check per extract is the whole overflow guard, none is
/// needed per add. A netlist too large for the full scale still rasterizes
/// order-independently; its addends are truncated to the coarser scale.
fn frac_bits(pins: usize) -> u32 {
    FRAC_BITS.min(62 - (usize::BITS - pins.leading_zeros()))
}

/// `hnet`, `vnet`, `rudy` and `pin_rudy` before normalization, as a
/// summed-area rasterization: each net adds its three addends at the four
/// corners of its grid box in one `(W + 1) x (H + 1)` delta array, and one
/// 2-D prefix pass turns the deltas into per-cell sums.
///
/// The addends are the f32 values `1 / h`, `1 / w` and `degree / (w * h)`
/// (RUDY: horizontal demand `w / (w * h)` per cell, vertical `h / (w * h)`),
/// widened exactly to fixed-point `i64` ([`frac_bits`]). Integer addition
/// commutes, so the maps are a pure function of the multiset of
/// (box, addend) — the same bits for any net order — and each cell is
/// rounded once here and once by `normalize_max`, not once per covering net.
fn net_maps(
    design: &Design,
    placement: &Placement,
    grid_w: usize,
    grid_h: usize,
    cell: impl Fn(f32, f32) -> (usize, usize),
) -> [GridMap; 4] {
    let bits = frac_bits(design.netlist.pin_count());
    let scale = (1u64 << bits) as f64;
    // The extra row and column take the corners of boxes that end on the
    // last cell; the prefix pass never reads them.
    let stride = grid_w + 1;
    let mut sums = vec![[0i64; 3]; stride * (grid_h + 1)];
    for (_, net) in design.netlist.nets() {
        let (x0, y0, x1, y1) = placement.net_bbox(net);
        let (gx0, gy0) = cell(x0, y0);
        let (gx1, gy1) = cell(x1, y1);
        let (gx1, gy1) = (gx1 + 1, gy1 + 1); // half-open
        if gx0 >= gx1 || gy0 >= gy1 {
            // Only non-finite pins invert a box; corner deltas would paint
            // it negative.
            continue;
        }
        let w = (gx1 - gx0) as f32;
        let h = (gy1 - gy0) as f32;
        let q = [1.0 / h, 1.0 / w, net.degree() as f32 / (w * h)]
            .map(|v| (f64::from(v) * scale) as i64);
        for (corner, sign) in [
            (gy0 * stride + gx0, 1),
            (gy0 * stride + gx1, -1),
            (gy1 * stride + gx0, -1),
            (gy1 * stride + gx1, 1),
        ] {
            for (s, q) in sums[corner].iter_mut().zip(q) {
                *s += sign * q;
            }
        }
    }

    let unscale = 1.0 / scale as f32;
    let mut maps = [(); 4].map(|()| GridMap::new(grid_w, grid_h));
    for y in 0..grid_h {
        let mut row = [0i64; 3];
        for x in 0..grid_w {
            let i = y * stride + x;
            let above = if y == 0 { [0; 3] } else { sums[i - stride] };
            for c in 0..3 {
                row[c] += sums[i][c];
                sums[i][c] = above[c] + row[c];
            }
            let [h, v, pin] = sums[i];
            for (map, sum) in maps.iter_mut().zip([h, v, h + v, pin]) {
                map.data_mut()[y * grid_w + x] = sum as f32 * unscale;
            }
        }
    }
    maps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPreset;

    fn small_design() -> Design {
        DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1)
    }

    #[test]
    fn frac_bits_leaves_headroom_for_the_pin_count() {
        assert_eq!(frac_bits(0), FRAC_BITS);
        assert_eq!(frac_bits(220_445), FRAC_BITS); // the `map_hires` design
        assert_eq!(frac_bits((1 << 22) - 1), FRAC_BITS);
        assert_eq!(frac_bits(1 << 22), FRAC_BITS - 1);
        assert_eq!(frac_bits(1 << 30), 31);
        for pins in [1usize, 3, 1 << 22, (1 << 30) + 7, usize::MAX >> 3] {
            // 2^bits * pins stays below 2^62.
            assert!((pins as u128) << frac_bits(pins) < 1 << 62, "{pins}");
        }
    }

    #[test]
    fn features_have_expected_shape_and_range() {
        let d = small_design();
        let p = d.random_placement(2);
        let f = FeatureStack::extract(&d, &p, 32, 24);
        let t = f.to_tensor();
        assert_eq!(t.shape(), &[6, 24, 32]);
        assert!(t.max() <= 1.0 + 1e-6);
        assert!(t.min() >= 0.0);
    }

    #[test]
    fn macro_map_counts_macros_only() {
        let d = small_design();
        let p = d.random_placement(3);
        let f = FeatureStack::extract(&d, &p, 16, 16);
        // normalized, but nonzero iff macros exist
        assert!(f.macro_map.max() > 0.0);
    }

    #[test]
    fn rudy_is_superposition() {
        let d = small_design();
        let p = d.random_placement(4);
        let f = FeatureStack::extract(&d, &p, 16, 16);
        // after normalization RUDY != hnet + vnet elementwise, but the raw
        // peak cell of rudy must be at least the peak of each component's
        // normalized contribution; check positivity structure instead:
        for i in 0..16 * 16 {
            if f.hnet.data()[i] > 0.0 || f.vnet.data()[i] > 0.0 {
                assert!(f.rudy.data()[i] > 0.0, "rudy missing demand at {i}");
            }
        }
    }

    #[test]
    fn rot90_k2_reverses_rows_and_cols() {
        let d = small_design();
        let p = d.random_placement(5);
        let f = FeatureStack::extract(&d, &p, 8, 8);
        let r = f.rot90(2);
        assert_eq!(r.cell_density.get(0, 0), f.cell_density.get(7, 7));
    }

    #[test]
    fn rot90_swaps_h_and_v_demand() {
        let d = small_design();
        let p = d.random_placement(6);
        let f = FeatureStack::extract(&d, &p, 8, 8);
        let r = f.rot90(1);
        // The rotated hnet is the rotation of the original vnet.
        assert_eq!(r.hnet, f.vnet.rot90(1));
        assert_eq!(r.vnet, f.hnet.rot90(1));
    }

    #[test]
    fn denser_placement_increases_peak_cell_density_before_normalization() {
        let d = small_design();
        // All movables at one point -> cell density concentrates.
        let mut p = d.random_placement(7);
        for (id, inst) in d.netlist.instances() {
            if inst.movable {
                p.set_pos(id.0 as usize, 1.0, 1.0);
            }
        }
        let f = FeatureStack::extract(&d, &p, 8, 8);
        // The movable cells all land in grid (0, 0); the 24 fixed I/O anchors
        // remain spread on the boundary, so (0, 0) must be the normalized peak.
        assert_eq!(f.cell_density.get(0, 0), 1.0);
        let nonzero = f.cell_density.data().iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero <= 25, "only anchors elsewhere, got {nonzero}");
    }
}
