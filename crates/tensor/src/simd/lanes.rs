//! The query-lane attention forward at any vector width (x86_64).
//!
//! [`Lanes`] is one register of query lanes: the handful of per-lane
//! operations the forward performs, implemented for `__m256` (eight
//! queries, AVX2 + FMA) and `__m512` (sixteen, AVX-512F). Every method is
//! one IEEE operation (or load / store) per lane, and `__m256` and `__m512`
//! give the same lane the same bits, so the one generic body below gives
//! every output the same bits at either width: no operation of a lane
//! depends on how many other queries share its register. This is the only
//! file that names AVX-512 intrinsics.
//!
//! Everything here is `#[inline(always)]` and carries no target feature of
//! its own; each width has one `#[target_feature]` entry point
//! ([`fm_query_block_x8`], [`fm_query_block_x16`]) that the whole body is
//! inlined into. The AVX2 backward and row softmax (`simd/avx2.rs`) reuse
//! the 8-lane sweeps and [`exp`] from inside their own AVX2 functions.

use core::arch::x86_64::*;

use super::exp::{
    exp_scalar, EXP_C1, EXP_C2, EXP_HI, EXP_LO, EXP_P0, EXP_P1, EXP_P2, EXP_P3, EXP_P4, EXP_P5,
    LOG2EF,
};

/// One vector of query lanes. See the module docs.
///
/// # Safety
///
/// Every method requires the instruction set of its width (AVX2 + FMA for
/// `__m256`, AVX-512F for `__m512`) and must be inlined into a function
/// that enables it; pointers must be valid for the lanes they touch.
pub(super) trait Lanes: Copy {
    /// Queries per register.
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// The first `t ≤ LANES` lanes from `p`; lanes past `t` are zero.
    unsafe fn load_first(p: *const f32, t: usize) -> Self;
    /// Stores the first `t ≤ LANES` lanes to `p`, dropping the rest.
    unsafe fn store_first(self, p: *mut f32, t: usize);
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    unsafe fn min(self, b: Self) -> Self;
    unsafe fn max(self, b: Self) -> Self;
    /// `self · b + c`, one rounding.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// `c − self · b`, one rounding.
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self;
    unsafe fn floor(self) -> Self;
    /// `2^fx` for integral `fx`, assembled in the exponent bits:
    /// `((trunc(fx) + 127) << 23)` reinterpreted as f32.
    unsafe fn pow2(self) -> Self;
}

impl Lanes for __m256 {
    const LANES: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm256_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn load_first(p: *const f32, t: usize) -> Self {
        if t == 8 {
            return _mm256_loadu_ps(p);
        }
        let mut lanes = [0.0f32; 8];
        std::ptr::copy_nonoverlapping(p, lanes.as_mut_ptr(), t);
        _mm256_loadu_ps(lanes.as_ptr())
    }
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, t: usize) {
        if t == 8 {
            return _mm256_storeu_ps(p, self);
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), self);
        std::ptr::copy_nonoverlapping(lanes.as_ptr(), p, t);
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm256_add_ps(self, b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        _mm256_sub_ps(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_ps(self, b)
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        _mm256_div_ps(self, b)
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        _mm256_min_ps(self, b)
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        _mm256_max_ps(self, b)
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm256_fmadd_ps(self, b, c)
    }
    #[inline(always)]
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
        _mm256_fnmadd_ps(self, b, c)
    }
    #[inline(always)]
    unsafe fn floor(self) -> Self {
        _mm256_floor_ps(self)
    }
    #[inline(always)]
    unsafe fn pow2(self) -> Self {
        let e = _mm256_add_epi32(_mm256_cvttps_epi32(self), _mm256_set1_epi32(127));
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(e))
    }
}

impl Lanes for __m512 {
    const LANES: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> Self {
        _mm512_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm512_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn load_first(p: *const f32, t: usize) -> Self {
        _mm512_maskz_loadu_ps(first_lanes(t), p)
    }
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, t: usize) {
        _mm512_mask_storeu_ps(p, first_lanes(t), self)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm512_add_ps(self, b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        _mm512_sub_ps(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_ps(self, b)
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        _mm512_div_ps(self, b)
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        _mm512_min_ps(self, b)
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        _mm512_max_ps(self, b)
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm512_fmadd_ps(self, b, c)
    }
    #[inline(always)]
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
        _mm512_fnmadd_ps(self, b, c)
    }
    #[inline(always)]
    unsafe fn floor(self) -> Self {
        _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(self)
    }
    #[inline(always)]
    unsafe fn pow2(self) -> Self {
        let e = _mm512_add_epi32(_mm512_cvttps_epi32(self), _mm512_set1_epi32(127));
        _mm512_castsi512_ps(_mm512_slli_epi32::<23>(e))
    }
}

/// The mask of lanes `0..t`, `t ≤ 16`.
#[inline(always)]
fn first_lanes(t: usize) -> __mmask16 {
    ((1u32 << t) - 1) as __mmask16
}

/// Polynomial `exp` of every lane (Cephes coefficients, FMA evaluation;
/// `super::exp` has the scalar twin and the constants).
///
/// # Safety
///
/// As [`Lanes`].
#[inline(always)]
pub(super) unsafe fn exp<V: Lanes>(x: V) -> V {
    let x = x.min(V::splat(EXP_HI)).max(V::splat(EXP_LO));
    let fx = x.fmadd(V::splat(LOG2EF), V::splat(0.5)).floor();
    let x = fx.fnmadd(V::splat(EXP_C1), x);
    let x = fx.fnmadd(V::splat(EXP_C2), x);
    let z = x.mul(x);
    let mut y = V::splat(EXP_P0);
    y = y.fmadd(x, V::splat(EXP_P1));
    y = y.fmadd(x, V::splat(EXP_P2));
    y = y.fmadd(x, V::splat(EXP_P3));
    y = y.fmadd(x, V::splat(EXP_P4));
    y = y.fmadd(x, V::splat(EXP_P5));
    y = y.fmadd(z, x).add(V::splat(1.0));
    y.mul(fx.pow2())
}

// ------------------------------------- feature-major attention, query lanes

/// Largest channel group a sweep keeps in registers: one accumulator (or
/// query vector) per channel, leaving room for the operands around them.
pub(super) const LANE_GROUP: usize = 8;

/// [`fm_query_block`] at eight queries per block.
///
/// # Safety
///
/// Requires AVX2 + FMA; otherwise as [`fm_query_block`].
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn fm_query_block_x8(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: &mut [f32],
    out: &mut [f32],
    o_stride: usize,
) {
    fm_query_block::<__m256>(q, k, v, scale, n, nv, l, y0, t, scr, out, o_stride)
}

/// [`fm_query_block`] at sixteen queries per block.
///
/// # Safety
///
/// Requires AVX-512F; otherwise as [`fm_query_block`].
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn fm_query_block_x16(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: &mut [f32],
    out: &mut [f32],
    o_stride: usize,
) {
    fm_query_block::<__m512>(q, k, v, scale, n, nv, l, y0, t, scr, out, o_stride)
}

/// One block of the feature-major attention forward with the **queries in
/// the vector lanes**: output columns `[y0, y0 + t)`, `t ≤ V::LANES`, of
/// `out[c, y] = Σ_x softmax_x(Σ_p q[p,y]·k[p,x] · scale) · v[c,x]`, written
/// to `out[c * o_stride + r]` for `r < t`.
///
/// In `[D, L]` layout the query columns `q[p, y0..y0 + LANES]` are
/// contiguous, so with lane = query and the key index `x` as the loop
/// nothing has to be gathered, packed or transposed. Three sweeps over the
/// `[l, LANES]` scratch `scr` (row `x` holds the block's queries' values
/// for key `x`), each performing per element exactly the operations of the
/// composed `bmm → scale → softmax → bmm` chain under the AVX2 backend:
///
/// 1. `s[x] = fma(q_{n-1}, k_{n-1}[x], … fma(q_0, k_0[x], +0)) · scale` —
///    the score microkernel's one FMA chain per element over the channel
///    index, then the `Scale` node's multiply — with the exact running max;
/// 2. `e[x] = exp(s[x] − m)`, summed into eight vectors keyed by `x mod 8`
///    and combined `((z0+z4)+(z1+z5))+((z2+z6)+(z3+z7))`, then the `l mod 8`
///    tail through `exp_scalar` in index order: a query's lane of `z_j` is
///    lane `j` of `exp_row_scaled`'s running sum, so this is that row
///    sum's fixed tree, transposed (the eight is the row softmax's lane
///    count, not `LANES`);
/// 3. `w[x] = e[x] / z` (the softmax's IEEE divide) and
///    `o_c = fma(v[c,x], w[x], o_c)` for `x` increasing — the value
///    microkernel's chain.
///
/// Channels are taken [`LANE_GROUP`] at a time: a score chain is carried
/// from one group to the next through the scratch (an exact f32 store and
/// reload), and with more than one value group the first stores `w` back
/// for the rest. Lanes `t..LANES` of a ragged block compute on zero
/// queries (finite throughout) and are dropped at the store.
///
/// # Safety
///
/// The instruction set of `V`. `n ≥ 1`, `nv ≥ 1`, `1 ≤ t ≤ V::LANES`,
/// `y0 + t ≤ l`; `q` and `k` hold `n * l` elements, `v` holds `nv * l`,
/// `scr` at least `V::LANES * l`, and `out` at least
/// `(nv - 1) * o_stride + t` (all asserted by [`super::fm_query_block`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn fm_query_block<V: Lanes>(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: &mut [f32],
    out: &mut [f32],
    o_stride: usize,
) {
    let scr = scr.as_mut_ptr();
    // (1) Scaled scores and their max; (2) softmax numerators and their sum.
    let m = score_sweeps::<V>(q, k, scale, n, l, y0, t, scr);
    let z = exp_sweep::<V>(scr, l, m);

    // (3) Divide and weighted values.
    for c0 in (0..nv).step_by(LANE_GROUP) {
        let vp = v.as_ptr().add(c0 * l);
        let op = out.as_mut_ptr().add(c0 * o_stride);
        // The first group divides; it stores `w` only if another follows.
        let divide = (c0 == 0).then_some((z, nv > LANE_GROUP));
        match nv - c0 {
            1 => value_sweep::<V, 1>(vp, l, t, scr, divide, op, o_stride),
            2 => value_sweep::<V, 2>(vp, l, t, scr, divide, op, o_stride),
            3 => value_sweep::<V, 3>(vp, l, t, scr, divide, op, o_stride),
            4 => value_sweep::<V, 4>(vp, l, t, scr, divide, op, o_stride),
            5 => value_sweep::<V, 5>(vp, l, t, scr, divide, op, o_stride),
            6 => value_sweep::<V, 6>(vp, l, t, scr, divide, op, o_stride),
            7 => value_sweep::<V, 7>(vp, l, t, scr, divide, op, o_stride),
            _ => value_sweep::<V, LANE_GROUP>(vp, l, t, scr, divide, op, o_stride),
        }
    }
}

/// Sweep (1) of [`fm_query_block`] over every channel group: the scaled
/// scores of the block's queries into `scr`, returning their per-query max.
///
/// # Safety
///
/// As [`fm_query_block`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn score_sweeps<V: Lanes>(
    q: &[f32],
    k: &[f32],
    scale: f32,
    n: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: *mut f32,
) -> V {
    let mut m = V::zero();
    for p0 in (0..n).step_by(LANE_GROUP) {
        let qp = q.as_ptr().add(p0 * l + y0);
        let kp = k.as_ptr().add(p0 * l);
        let scale = (p0 + LANE_GROUP >= n).then_some(scale);
        m = match n - p0 {
            1 => score_sweep::<V, 1>(qp, kp, l, t, scr, p0 == 0, scale),
            2 => score_sweep::<V, 2>(qp, kp, l, t, scr, p0 == 0, scale),
            3 => score_sweep::<V, 3>(qp, kp, l, t, scr, p0 == 0, scale),
            4 => score_sweep::<V, 4>(qp, kp, l, t, scr, p0 == 0, scale),
            5 => score_sweep::<V, 5>(qp, kp, l, t, scr, p0 == 0, scale),
            6 => score_sweep::<V, 6>(qp, kp, l, t, scr, p0 == 0, scale),
            7 => score_sweep::<V, 7>(qp, kp, l, t, scr, p0 == 0, scale),
            _ => score_sweep::<V, LANE_GROUP>(qp, kp, l, t, scr, p0 == 0, scale),
        };
    }
    m
}

/// Sweep (2) of [`fm_query_block`]: `scr` from scaled scores to softmax
/// numerators `exp(s − m)`, returning their per-query sum. The eights here
/// are the row softmax's lane count (the key-index modulus), not
/// `V::LANES`.
///
/// # Safety
///
/// The instruction set of `V`; `scr` holds `l * V::LANES` floats.
#[inline(always)]
pub(super) unsafe fn exp_sweep<V: Lanes>(scr: *mut f32, l: usize, m: V) -> V {
    let body = l / 8 * 8;
    let mut zs = [V::zero(); 8];
    for x in (0..body).step_by(8) {
        for (j, zj) in zs.iter_mut().enumerate() {
            let s = scr.add((x + j) * V::LANES);
            let e = exp(V::load(s).sub(m));
            e.store(s);
            *zj = zj.add(e);
        }
    }
    let mut z =
        (zs[0].add(zs[4]).add(zs[1].add(zs[5]))).add(zs[2].add(zs[6]).add(zs[3].add(zs[7])));
    for x in body..l {
        let s = scr.add(x * V::LANES);
        V::load(s).sub(m).store(s);
        for lane in 0..V::LANES {
            *s.add(lane) = exp_scalar(*s.add(lane));
        }
        z = z.add(V::load(s));
    }
    z
}

/// Score sweep of [`fm_query_block`] for channels `p0..p0 + P`: continues
/// each element's FMA chain (from `+0` when `first`, else from the scratch)
/// and stores it back; the last group passes `scale`, multiplies by it and
/// returns the per-query max of the scaled scores (other groups return an
/// unused value). `qp` points at `q[p0, y0]`, `kp` at `k[p0, 0]`.
///
/// # Safety
///
/// As [`fm_query_block`], with `p0 + P ≤ n`.
#[inline(always)]
unsafe fn score_sweep<V: Lanes, const P: usize>(
    qp: *const f32,
    kp: *const f32,
    l: usize,
    t: usize,
    scr: *mut f32,
    first: bool,
    scale: Option<f32>,
) -> V {
    let mut qv = [V::zero(); P];
    for (i, qv) in qv.iter_mut().enumerate() {
        *qv = V::load_first(qp.add(i * l), t);
    }
    let sv = V::splat(scale.unwrap_or(1.0));
    // The max is the one loop-carried dependency; even and odd keys keep
    // separate chains (the max of finite values is exact in any order).
    let mut m = [V::splat(f32::NEG_INFINITY); 2];
    for x in 0..l {
        let s = scr.add(x * V::LANES);
        let mut acc = if first { V::zero() } else { V::load(s) };
        for (i, &qi) in qv.iter().enumerate() {
            acc = qi.fmadd(V::splat(*kp.add(i * l + x)), acc);
        }
        if scale.is_some() {
            acc = acc.mul(sv);
            m = [m[1], m[0].max(acc)];
        }
        acc.store(s);
    }
    m[0].max(m[1])
}

/// Value sweep of [`fm_query_block`] for channels `c0..c0 + C`: one
/// accumulator per channel walking the keys in increasing order, stored to
/// `op[i * o_stride..][..t]`. With `divide = Some((z, keep))` the weights
/// are formed here as `e / z` (and written back over `e` when `keep`);
/// with `None` the scratch already holds them. `vp` points at `v[c0, 0]`.
///
/// # Safety
///
/// As [`fm_query_block`], with `c0 + C ≤ nv` and `op` at `out[c0 * o_stride]`.
#[inline(always)]
unsafe fn value_sweep<V: Lanes, const C: usize>(
    vp: *const f32,
    l: usize,
    t: usize,
    scr: *mut f32,
    divide: Option<(V, bool)>,
    op: *mut f32,
    o_stride: usize,
) {
    let mut acc = [V::zero(); C];
    for x in 0..l {
        let s = scr.add(x * V::LANES);
        let mut w = V::load(s);
        if let Some((z, keep)) = divide {
            w = w.div(z);
            if keep {
                w.store(s);
            }
        }
        for (i, a) in acc.iter_mut().enumerate() {
            *a = V::splat(*vp.add(i * l + x)).fmadd(w, *a);
        }
    }
    for (i, &a) in acc.iter().enumerate() {
        a.store_first(op.add(i * o_stride), t);
    }
}
