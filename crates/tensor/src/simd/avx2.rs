//! AVX2 + FMA microkernels (x86_64).
//!
//! Every function in this module is `unsafe` and carries
//! `#[target_feature(enable = "avx2", enable = "fma")]`: callers must have
//! verified support via `is_x86_feature_detected!` (the dispatch layer in
//! `simd::mod` does this once per process).
//!
//! The GEMM microkernel computes `MR x NR` output tiles from broadcast-A /
//! packed-B panels: per output element the contraction is a single FMA
//! chain over `p` in increasing order, so lane position and tile shape
//! never change an element's bits (see the `simd` module docs for why this
//! is the load-bearing property). Column tails run the same full-width
//! panel arithmetic against zero-padded lanes and store through a stack
//! buffer; row tails drop to a 1 x NR variant of the identical chain.

use core::arch::x86_64::*;

use super::{AView, MR, NR};

/// Packed-panel GEMM tile loop. See [`super::kernel`] for the contract;
/// bounds are asserted there.
///
/// # Safety
///
/// Requires AVX2 + FMA. `packed` must hold `ceil(n/NR)` panels of `k*NR`
/// elements; `out` must be `rows * n`; the A view must be in bounds for
/// all `(row, p)` pairs.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn gemm_packed(
    a: AView<'_>,
    packed: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let ad = a.data.as_ptr();
    let nb = n.div_ceil(NR);
    for jb in 0..nb {
        let j0 = jb * NR;
        let width = NR.min(n - j0);
        let panel = packed.as_ptr().add(jb * k * NR);
        let mut r = 0;
        while r + MR <= rows {
            gemm_tile::<MR>(ad, &a, r, panel, out, j0, width, k, n, accumulate);
            r += MR;
        }
        while r < rows {
            gemm_tile::<1>(ad, &a, r, panel, out, j0, width, k, n, accumulate);
            r += 1;
        }
    }
}

/// One `R x NR` tile: R row accumulator pairs walking the panel over `p`.
/// Full-width tiles load/store `out` directly; column tails bounce through
/// a zero-padded stack buffer so the arithmetic (and therefore every
/// element's FMA chain) is identical to the full-width path.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_tile<const R: usize>(
    ad: *const f32,
    a: &AView<'_>,
    r0: usize,
    panel: *const f32,
    out: &mut [f32],
    j0: usize,
    width: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let full = width == NR;
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    if accumulate {
        if full {
            for (i, accr) in acc.iter_mut().enumerate() {
                let orow = out.as_ptr().add((r0 + i) * n + j0);
                accr[0] = _mm256_loadu_ps(orow);
                accr[1] = _mm256_loadu_ps(orow.add(8));
            }
        } else {
            let mut buf = [0.0f32; NR];
            for (i, accr) in acc.iter_mut().enumerate() {
                let orow = out.as_ptr().add((r0 + i) * n + j0);
                buf[width..].fill(0.0);
                for (lane, b) in buf.iter_mut().enumerate().take(width) {
                    *b = *orow.add(lane);
                }
                accr[0] = _mm256_loadu_ps(buf.as_ptr());
                accr[1] = _mm256_loadu_ps(buf.as_ptr().add(8));
            }
        }
    }
    for p in 0..k {
        let b0 = _mm256_loadu_ps(panel.add(p * NR));
        let b1 = _mm256_loadu_ps(panel.add(p * NR + 8));
        for (i, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ad.add(a.base + (r0 + i) * a.row_stride + p * a.p_stride));
            accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
        }
    }
    if full {
        for (i, accr) in acc.iter().enumerate() {
            let orow = out.as_mut_ptr().add((r0 + i) * n + j0);
            _mm256_storeu_ps(orow, accr[0]);
            _mm256_storeu_ps(orow.add(8), accr[1]);
        }
    } else {
        let mut buf = [0.0f32; NR];
        for (i, accr) in acc.iter().enumerate() {
            let orow = out.as_mut_ptr().add((r0 + i) * n + j0);
            _mm256_storeu_ps(buf.as_mut_ptr(), accr[0]);
            _mm256_storeu_ps(buf.as_mut_ptr().add(8), accr[1]);
            for (lane, &b) in buf.iter().enumerate().take(width) {
                *orow.add(lane) = b;
            }
        }
    }
}

// --------------------------------------------------------------- softmax

use super::exp::{
    exp_scalar, EXP_C1, EXP_C2, EXP_HI, EXP_LO, EXP_P0, EXP_P1, EXP_P2, EXP_P3, EXP_P4, EXP_P5,
    LOG2EF,
};

/// Polynomial `exp` of 8 lanes (Cephes coefficients, FMA evaluation).
///
/// # Safety
///
/// Requires AVX2 + FMA.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp8(x: __m256) -> __m256 {
    let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
    let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
    let fx = _mm256_floor_ps(_mm256_fmadd_ps(
        x,
        _mm256_set1_ps(LOG2EF),
        _mm256_set1_ps(0.5),
    ));
    let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(EXP_C1), x);
    let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(EXP_C2), x);
    let z = _mm256_mul_ps(x, x);
    let mut y = _mm256_set1_ps(EXP_P0);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P1));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P2));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P3));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P4));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P5));
    y = _mm256_add_ps(_mm256_fmadd_ps(y, z, x), _mm256_set1_ps(1.0));
    let emm0 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(127)),
        23,
    );
    _mm256_mul_ps(y, _mm256_castsi256_ps(emm0))
}

/// Softmax numerators of one scaled row, in place:
/// `row[i] = exp(row[i]·scale − max_j(row[j]·scale))`; returns their sum.
/// Exact max of the scaled values, polynomial exp (vector body +
/// scalar-twin tail), fixed-tree lane sum + in-order tail sum — see
/// [`super::exp_row_scaled`]. Deterministic for a given row regardless of
/// surrounding shape.
///
/// # Safety
///
/// Requires AVX2 + FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn exp_row_scaled(row: &mut [f32], scale: f32) -> f32 {
    if row.is_empty() {
        return 0.0;
    }
    let n = row.len();
    let body = n / 8 * 8;
    let ptr = row.as_mut_ptr();
    let sv = _mm256_set1_ps(scale);
    // Row max (exact, so reduction shape is irrelevant for finite data).
    let mut m = f32::NEG_INFINITY;
    if body > 0 {
        let mut mv = _mm256_mul_ps(_mm256_loadu_ps(ptr), sv);
        for i in (8..body).step_by(8) {
            mv = _mm256_max_ps(mv, _mm256_mul_ps(_mm256_loadu_ps(ptr.add(i)), sv));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
        for &l in &lanes {
            m = m.max(l);
        }
    }
    for i in body..n {
        m = m.max(*ptr.add(i) * scale);
    }
    // exp(x·scale - m) and the sum: lane partials in a fixed tree, then the
    // tail in index order.
    let mv = _mm256_set1_ps(m);
    let mut zv = _mm256_setzero_ps();
    for i in (0..body).step_by(8) {
        let x = _mm256_mul_ps(_mm256_loadu_ps(ptr.add(i)), sv);
        let e = exp8(_mm256_sub_ps(x, mv));
        _mm256_storeu_ps(ptr.add(i), e);
        zv = _mm256_add_ps(zv, e);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), zv);
    let mut z = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for i in body..n {
        let e = exp_scalar(*ptr.add(i) * scale - m);
        *ptr.add(i) = e;
        z += e;
    }
    z
}

// ------------------------------------- feature-major attention, query lanes

use super::QUERY_LANES;

/// Largest channel group a sweep keeps in registers: one accumulator (or
/// query vector) per channel, leaving room for the operands around them.
const LANE_GROUP: usize = 8;

/// One block of the feature-major attention forward with the **queries in
/// the vector lanes**: output columns `[y0, y0 + t)`, `t ≤ QUERY_LANES`, of
/// `out[c, y] = Σ_x softmax_x(Σ_p q[p,y]·k[p,x] · scale) · v[c,x]`, written
/// to `out[c * o_stride + r]` for `r < t`.
///
/// In `[D, L]` layout the query columns `q[p, y0..y0 + 8]` are contiguous,
/// so with lane = query and the key index `x` as the loop nothing has to be
/// gathered, packed or transposed. Three sweeps over the `[l, 8]` scratch
/// `scr` (row `x` holds the eight queries' values for key `x`), each
/// performing per element exactly the operations of the composed
/// `bmm → scale → softmax → bmm` chain under this backend:
///
/// 1. `s[x] = fma(q_{n-1}, k_{n-1}[x], … fma(q_0, k_0[x], +0)) · scale` —
///    the score microkernel's one FMA chain per element over the channel
///    index, then the `Scale` node's multiply — with the exact running max;
/// 2. `e[x] = exp8(s[x] − m)`, summed into eight vectors keyed by `x mod 8`
///    and combined `((z0+z4)+(z1+z5))+((z2+z6)+(z3+z7))`, then the `l mod 8`
///    tail through `exp_scalar` in index order: a query's lane of `z_j` is
///    lane `j` of [`exp_row_scaled`]'s running sum, so this is that row
///    sum's fixed tree, transposed;
/// 3. `w[x] = e[x] / z` (the softmax's IEEE divide) and
///    `o_c = fma(v[c,x], w[x], o_c)` for `x` increasing — the value
///    microkernel's chain.
///
/// Channels are taken [`LANE_GROUP`] at a time: a score chain is carried
/// from one group to the next through the scratch (an exact f32 store and
/// reload), and with more than one value group the first stores `w` back
/// for the rest. Lanes `t..8` of a ragged block compute on zero queries
/// (finite throughout) and are dropped at the store.
///
/// # Safety
///
/// Requires AVX2 + FMA. `n ≥ 1`, `nv ≥ 1`, `1 ≤ t ≤ QUERY_LANES`,
/// `y0 + t ≤ l`; `q` and `k` hold `n * l` elements, `v` holds `nv * l`,
/// `scr` at least `QUERY_LANES * l`, and `out` at least
/// `(nv - 1) * o_stride + t` (all asserted by [`super::fm_query_block`]).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn fm_query_block(
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

    // (1) Scaled scores and their max.
    let mut m = _mm256_setzero_ps();
    for p0 in (0..n).step_by(LANE_GROUP) {
        let qp = q.as_ptr().add(p0 * l + y0);
        let kp = k.as_ptr().add(p0 * l);
        let scale = (p0 + LANE_GROUP >= n).then_some(scale);
        m = match n - p0 {
            1 => score_sweep::<1>(qp, kp, l, t, scr, p0 == 0, scale),
            2 => score_sweep::<2>(qp, kp, l, t, scr, p0 == 0, scale),
            3 => score_sweep::<3>(qp, kp, l, t, scr, p0 == 0, scale),
            4 => score_sweep::<4>(qp, kp, l, t, scr, p0 == 0, scale),
            5 => score_sweep::<5>(qp, kp, l, t, scr, p0 == 0, scale),
            6 => score_sweep::<6>(qp, kp, l, t, scr, p0 == 0, scale),
            7 => score_sweep::<7>(qp, kp, l, t, scr, p0 == 0, scale),
            _ => score_sweep::<LANE_GROUP>(qp, kp, l, t, scr, p0 == 0, scale),
        };
    }

    // (2) Softmax numerators and their sum. The eights here are the row
    // softmax's lane count (the key-index modulus), not `QUERY_LANES`.
    let body = l / 8 * 8;
    let mut zs = [_mm256_setzero_ps(); 8];
    for x in (0..body).step_by(8) {
        for (j, zj) in zs.iter_mut().enumerate() {
            let s = scr.add((x + j) * QUERY_LANES);
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(s), m));
            _mm256_storeu_ps(s, e);
            *zj = _mm256_add_ps(*zj, e);
        }
    }
    let mut z = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(zs[0], zs[4]), _mm256_add_ps(zs[1], zs[5])),
        _mm256_add_ps(_mm256_add_ps(zs[2], zs[6]), _mm256_add_ps(zs[3], zs[7])),
    );
    for x in body..l {
        let s = scr.add(x * QUERY_LANES);
        let mut lanes = [0.0f32; QUERY_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_sub_ps(_mm256_loadu_ps(s), m));
        for lane in &mut lanes {
            *lane = exp_scalar(*lane);
        }
        let e = _mm256_loadu_ps(lanes.as_ptr());
        _mm256_storeu_ps(s, e);
        z = _mm256_add_ps(z, e);
    }

    // (3) Divide and weighted values.
    for c0 in (0..nv).step_by(LANE_GROUP) {
        let vp = v.as_ptr().add(c0 * l);
        let op = out.as_mut_ptr().add(c0 * o_stride);
        // The first group divides; it stores `w` only if another follows.
        let divide = (c0 == 0).then_some((z, nv > LANE_GROUP));
        match nv - c0 {
            1 => value_sweep::<1>(vp, l, t, scr, divide, op, o_stride),
            2 => value_sweep::<2>(vp, l, t, scr, divide, op, o_stride),
            3 => value_sweep::<3>(vp, l, t, scr, divide, op, o_stride),
            4 => value_sweep::<4>(vp, l, t, scr, divide, op, o_stride),
            5 => value_sweep::<5>(vp, l, t, scr, divide, op, o_stride),
            6 => value_sweep::<6>(vp, l, t, scr, divide, op, o_stride),
            7 => value_sweep::<7>(vp, l, t, scr, divide, op, o_stride),
            _ => value_sweep::<LANE_GROUP>(vp, l, t, scr, divide, op, o_stride),
        }
    }
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
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn score_sweep<const P: usize>(
    qp: *const f32,
    kp: *const f32,
    l: usize,
    t: usize,
    scr: *mut f32,
    first: bool,
    scale: Option<f32>,
) -> __m256 {
    let mut qv = [_mm256_setzero_ps(); P];
    for (i, qv) in qv.iter_mut().enumerate() {
        // Lanes past a ragged block's last query stay zero.
        let mut lanes = [0.0f32; QUERY_LANES];
        std::ptr::copy_nonoverlapping(qp.add(i * l), lanes.as_mut_ptr(), t);
        *qv = _mm256_loadu_ps(lanes.as_ptr());
    }
    let sv = _mm256_set1_ps(scale.unwrap_or(1.0));
    // The max is the one loop-carried dependency; even and odd keys keep
    // separate chains (the max of finite values is exact in any order).
    let mut m = [_mm256_set1_ps(f32::NEG_INFINITY); 2];
    for x in 0..l {
        let s = scr.add(x * QUERY_LANES);
        let mut acc = if first {
            _mm256_setzero_ps()
        } else {
            _mm256_loadu_ps(s)
        };
        for (i, &qi) in qv.iter().enumerate() {
            acc = _mm256_fmadd_ps(qi, _mm256_set1_ps(*kp.add(i * l + x)), acc);
        }
        if scale.is_some() {
            acc = _mm256_mul_ps(acc, sv);
            m = [m[1], _mm256_max_ps(m[0], acc)];
        }
        _mm256_storeu_ps(s, acc);
    }
    _mm256_max_ps(m[0], m[1])
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
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn value_sweep<const C: usize>(
    vp: *const f32,
    l: usize,
    t: usize,
    scr: *mut f32,
    divide: Option<(__m256, bool)>,
    op: *mut f32,
    o_stride: usize,
) {
    let mut acc = [_mm256_setzero_ps(); C];
    for x in 0..l {
        let s = scr.add(x * QUERY_LANES);
        let mut w = _mm256_loadu_ps(s);
        if let Some((z, keep)) = divide {
            w = _mm256_div_ps(w, z);
            if keep {
                _mm256_storeu_ps(s, w);
            }
        }
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm256_fmadd_ps(_mm256_set1_ps(*vp.add(i * l + x)), w, *a);
        }
    }
    for (i, &a) in acc.iter().enumerate() {
        if t == QUERY_LANES {
            _mm256_storeu_ps(op.add(i * o_stride), a);
        } else {
            let mut lanes = [0.0f32; QUERY_LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), a);
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), op.add(i * o_stride), t);
        }
    }
}

// ------------------------------------------------------------ layer norm

/// Layer norm over rows of width `d` with optional `xhat`/`inv_std`
/// capture for the tape backward. Mean and variance are lane-parallel
/// reductions (one FMA chain per lane for the variance) combined in a
/// fixed tree plus an in-order scalar tail; the normalize stage is one
/// FMA per element, with `f32::mul_add` on the row tail so every element
/// of a row sees identical arithmetic. Deterministic per row.
///
/// # Safety
///
/// Requires AVX2 + FMA. Slice lengths are asserted by the dispatching
/// caller (`layer_norm_rows_with`).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn layer_norm_rows(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    d: usize,
    out: &mut [f32],
    mut xhat: Option<&mut [f32]>,
    mut inv_std: Option<&mut [f32]>,
) {
    let rows = src.len() / d;
    let body = d / 8 * 8;
    let gp = gamma.as_ptr();
    let bp = beta.as_ptr();
    for r in 0..rows {
        let rp = src.as_ptr().add(r * d);
        // Row sum: lane partials, fixed-tree combine, in-order tail.
        let mut sv = _mm256_setzero_ps();
        for i in (0..body).step_by(8) {
            sv = _mm256_add_ps(sv, _mm256_loadu_ps(rp.add(i)));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), sv);
        let mut sum = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
        for i in body..d {
            sum += *rp.add(i);
        }
        let mean = sum / d as f32;
        // Σ (x - mean)²: one FMA chain per lane, same combine shape.
        let mv = _mm256_set1_ps(mean);
        let mut vv = _mm256_setzero_ps();
        for i in (0..body).step_by(8) {
            let dv = _mm256_sub_ps(_mm256_loadu_ps(rp.add(i)), mv);
            vv = _mm256_fmadd_ps(dv, dv, vv);
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), vv);
        let mut varsum = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
        for i in body..d {
            let dv = *rp.add(i) - mean;
            varsum = dv.mul_add(dv, varsum);
        }
        let var = varsum / d as f32;
        let is = 1.0 / (var + eps).sqrt();
        if let Some(buf) = inv_std.as_deref_mut() {
            buf[r] = is;
        }
        // Normalize + affine: xh = (x - mean) * is, out = fma(g, xh, b).
        let op = out.as_mut_ptr().add(r * d);
        let isv = _mm256_set1_ps(is);
        let xh_ptr = xhat.as_deref_mut().map(|buf| buf.as_mut_ptr().add(r * d));
        for i in (0..body).step_by(8) {
            let xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(rp.add(i)), mv), isv);
            if let Some(xp) = xh_ptr {
                _mm256_storeu_ps(xp.add(i), xh);
            }
            let o = _mm256_fmadd_ps(_mm256_loadu_ps(gp.add(i)), xh, _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(op.add(i), o);
        }
        for i in body..d {
            let xh = (*rp.add(i) - mean) * is;
            if let Some(xp) = xh_ptr {
                *xp.add(i) = xh;
            }
            *op.add(i) = (*gp.add(i)).mul_add(xh, *bp.add(i));
        }
    }
}

// --------------------------------------------------------- conv epilogue

/// Fused bias/affine/ReLU run. Per element this is the same IEEE
/// add / mul / add / max sequence as the scalar reference (the affine
/// stage is deliberately mul-then-add, **not** FMA), so the result is
/// bitwise identical to scalar — which keeps the compiled plan bitwise
/// equal to the tape under every backend.
///
/// # Safety
///
/// Requires AVX2 + FMA. `src.len() == dst.len()` (asserted by the caller).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn conv_epilogue(
    src: &[f32],
    dst: &mut [f32],
    bias: Option<f32>,
    affine: Option<(f32, f32)>,
    relu: bool,
) {
    let n = src.len();
    let body = n / 8 * 8;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let bv = _mm256_set1_ps(bias.unwrap_or(0.0));
    let (sc, sh) = affine.unwrap_or((0.0, 0.0));
    let scv = _mm256_set1_ps(sc);
    let shv = _mm256_set1_ps(sh);
    let zero = _mm256_setzero_ps();
    for i in (0..body).step_by(8) {
        let mut v = _mm256_loadu_ps(sp.add(i));
        if bias.is_some() {
            v = _mm256_add_ps(v, bv);
        }
        if affine.is_some() {
            v = _mm256_add_ps(_mm256_mul_ps(scv, v), shv);
        }
        if relu {
            v = _mm256_max_ps(v, zero);
        }
        _mm256_storeu_ps(dp.add(i), v);
    }
    for i in body..n {
        let mut v = *sp.add(i);
        if let Some(b) = bias {
            v += b;
        }
        if let Some((sc, sh)) = affine {
            v = sc * v + sh;
        }
        if relu {
            v = v.max(0.0);
        }
        *dp.add(i) = v;
    }
}

// -------------------------------------------------------------- int8 GEMM

/// Exact int8 GEMM over full rows: `out[r, j] = Σ_p a[r,p] · b[p,j]` in
/// i32, `a` row-major `[m, k]`, `b` row-major `[k, n]`.
///
/// Pairs of contraction rows are sign-extended to i16 lanes, interleaved
/// with `unpacklo/hi_epi16` and combined by `_mm256_madd_epi16` — the
/// `maddubs`-style pair-accumulate shape, but on i16 inputs so nothing can
/// saturate (|q| ≤ 127 keeps each pair sum ≤ 2·127², far below the i32
/// madd result range). Every output element is an exact integer sum, so
/// this kernel is **bitwise identical** to the scalar reference and the
/// NEON twin — a stronger contract than the f32 kernels carry.
///
/// # Safety
///
/// Requires AVX2. `a` must hold `m*k`, `b` `k*n`, `out` `m*n` elements.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn i8_gemm(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    #[inline]
    unsafe fn load16(b: &[i8], off: usize, width: usize) -> __m128i {
        if width == 16 {
            _mm_loadu_si128(b.as_ptr().add(off) as *const __m128i)
        } else {
            let mut buf = [0i8; 16];
            buf[..width].copy_from_slice(&b[off..off + width]);
            _mm_loadu_si128(buf.as_ptr() as *const __m128i)
        }
    }

    for r in 0..m {
        let arow = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        let mut j0 = 0usize;
        while j0 < n {
            let width = (n - j0).min(16);
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            let mut p = 0usize;
            while p < k {
                let pair = p + 1 < k;
                let w0 = _mm256_cvtepi8_epi16(load16(b, p * n + j0, width));
                let w1 = if pair {
                    _mm256_cvtepi8_epi16(load16(b, (p + 1) * n + j0, width))
                } else {
                    _mm256_setzero_si256()
                };
                // Interleave rows p and p+1 so each i32 madd lane holds one
                // column's (b[p,j], b[p+1,j]) pair.
                let lo = _mm256_unpacklo_epi16(w0, w1);
                let hi = _mm256_unpackhi_epi16(w0, w1);
                let a0 = u32::from(arow[p] as i16 as u16);
                let a1 = if pair {
                    u32::from(arow[p + 1] as i16 as u16)
                } else {
                    0
                };
                let apair = _mm256_set1_epi32((a0 | (a1 << 16)) as i32);
                acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(apair, lo));
                acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(apair, hi));
                p += 2;
            }
            // acc_lo i32 lanes are columns j0+{0..3 | 8..11}, acc_hi
            // j0+{4..7 | 12..15}; permute back to column order.
            let res0 = _mm256_permute2x128_si256(acc_lo, acc_hi, 0x20);
            let res1 = _mm256_permute2x128_si256(acc_lo, acc_hi, 0x31);
            if width == 16 {
                _mm256_storeu_si256(orow.as_mut_ptr().add(j0) as *mut __m256i, res0);
                _mm256_storeu_si256(orow.as_mut_ptr().add(j0 + 8) as *mut __m256i, res1);
            } else {
                let mut buf = [0i32; 16];
                _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, res0);
                _mm256_storeu_si256(buf.as_mut_ptr().add(8) as *mut __m256i, res1);
                orow[j0..j0 + width].copy_from_slice(&buf[..width]);
            }
            j0 += 16;
        }
    }
}
