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

use super::exp::exp_scalar;
use super::lanes::{self, Lanes, LANE_GROUP};

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
        let e = lanes::exp(_mm256_sub_ps(x, mv));
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

// ------------------------------------ feature-major attention backward, lanes

use super::QUERY_LANES;

/// One block of the feature-major attention **backward** with the queries
/// in the vector lanes: for queries `[y0, y0 + t)`, writes their columns of
/// `dq` and adds their terms to `dk` and `dv` (every `[·, l]`, row-major),
/// given the upstream `dy: [nv, l]`.
///
/// Per element these are the operations of the four-pass tile backward —
/// the unit tests' reference, itself the composed chain's backward under
/// this backend — in the same order:
///
/// 1. the forward's score sweep ([`lanes::score_sweeps`]) at eight lanes,
///    reused unchanged;
/// 2. its exp sweep ([`lanes::exp_sweep`]), likewise, so `e` and `z` are the
///    forward's;
/// 3. `w = e / z`, stored over `e`; `g = fma(dy[c,y], v[c,x], ·)` over `c`
///    increasing from `+0` (the `dy·vᵀ` microkernel chain); and
///    `dot = dot + w·g` — an IEEE multiply then add, from `−0.0`, keys in
///    increasing order: the `f32: Sum` fold of the tape's softmax backward,
///    one chain per query lane;
/// 4. `gs = (w·(g − dot))·scale`, stored over `g`, and
///    `dq[p,y] = fma(k[p,x], gs, ·)` over `x` increasing from `+0` (the
///    `k·gsᵀ` microkernel chain);
/// 5. keys in the lanes: each 8 × 8 block of the stored `w` / `gs` is
///    transposed in registers, and `dv[c, x..x+8]` / `dk[p, x..x+8]`
///    continue `fma(dy[c,y0+r] or q[p,y0+r], ·, acc)` for `r` increasing
///    from the stored value — the accumulate-reload chain over the query
///    index that the tile backward's `accumulate` kernel runs. The `l mod 8`
///    key tail runs the same chain through `f32::mul_add`.
///
/// Channel groups carry `g` across groups through `scr_g` (an exact store
/// and reload). Lanes `t..8` of a ragged block see zero queries and zero
/// `dy` (finite throughout) and feed nothing: `dq` stores drop them and the
/// key-lane chains stop at `r = t`.
///
/// # Safety
///
/// Requires AVX2 + FMA. `n ≥ 1`, `nv ≥ 1`, `1 ≤ t ≤ QUERY_LANES`,
/// `y0 + t ≤ l`; `q`, `k`, `dq` and `dk` hold `n * l` elements, `v`, `dy`
/// and `dv` hold `nv * l`, and `scr`, `scr_g` at least `QUERY_LANES * l`
/// (all asserted by [`super::fm_query_block_backward`]).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn fm_query_block_backward(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dy: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: &mut [f32],
    scr_g: &mut [f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let (scr, scr_g) = (scr.as_mut_ptr(), scr_g.as_mut_ptr());
    let m = lanes::score_sweeps::<__m256>(q, k, scale, n, l, y0, t, scr);
    let z = lanes::exp_sweep::<__m256>(scr, l, m);

    // (3) Weights, upstream products and their dot.
    let mut dot = _mm256_set1_ps(-0.0);
    for c0 in (0..nv).step_by(LANE_GROUP) {
        let dyp = dy.as_ptr().add(c0 * l + y0);
        let vp = v.as_ptr().add(c0 * l);
        let divide = (c0 == 0).then_some(z);
        let last = c0 + LANE_GROUP >= nv;
        dot = match nv - c0 {
            1 => grad_sweep::<1>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            2 => grad_sweep::<2>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            3 => grad_sweep::<3>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            4 => grad_sweep::<4>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            5 => grad_sweep::<5>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            6 => grad_sweep::<6>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            7 => grad_sweep::<7>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
            _ => grad_sweep::<LANE_GROUP>(dyp, vp, l, t, scr, scr_g, divide, last, dot),
        };
    }

    // (4) Score gradients and dq.
    for p0 in (0..n).step_by(LANE_GROUP) {
        let kp = k.as_ptr().add(p0 * l);
        let op = dq.as_mut_ptr().add(p0 * l + y0);
        let form = (p0 == 0).then_some((dot, scale));
        match n - p0 {
            1 => dq_sweep::<1>(kp, l, t, scr, scr_g, form, op),
            2 => dq_sweep::<2>(kp, l, t, scr, scr_g, form, op),
            3 => dq_sweep::<3>(kp, l, t, scr, scr_g, form, op),
            4 => dq_sweep::<4>(kp, l, t, scr, scr_g, form, op),
            5 => dq_sweep::<5>(kp, l, t, scr, scr_g, form, op),
            6 => dq_sweep::<6>(kp, l, t, scr, scr_g, form, op),
            7 => dq_sweep::<7>(kp, l, t, scr, scr_g, form, op),
            _ => dq_sweep::<LANE_GROUP>(kp, l, t, scr, scr_g, form, op),
        }
    }

    // (5) Keys in the lanes: dv from w, dk from gs.
    key_lane_sweep(dy.as_ptr().add(y0), dv.as_mut_ptr(), nv, l, t, scr);
    key_lane_sweep(q.as_ptr().add(y0), dk.as_mut_ptr(), n, l, t, scr_g);
}

/// Sweep (3) of [`fm_query_block_backward`] for value channels
/// `c0..c0 + C`: continues each key's `g` chain (from `+0` in the first
/// group, else from `scr_g`) and stores it to `scr_g`. The first group
/// (`divide = Some(z)`) also forms `w = e / z` over `scr`; the last adds
/// `w·g` into the per-query `dot` it returns. `dyp` points at
/// `dy[c0, y0]`, `vp` at `v[c0, 0]`.
///
/// # Safety
///
/// As [`fm_query_block_backward`], with `c0 + C ≤ nv`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn grad_sweep<const C: usize>(
    dyp: *const f32,
    vp: *const f32,
    l: usize,
    t: usize,
    scr: *mut f32,
    scr_g: *mut f32,
    divide: Option<__m256>,
    last: bool,
    mut dot: __m256,
) -> __m256 {
    let mut dyv = [_mm256_setzero_ps(); C];
    for (i, d) in dyv.iter_mut().enumerate() {
        *d = __m256::load_first(dyp.add(i * l), t);
    }
    for x in 0..l {
        let s = scr.add(x * QUERY_LANES);
        let gp = scr_g.add(x * QUERY_LANES);
        let mut g = match divide {
            Some(_) => _mm256_setzero_ps(),
            None => _mm256_loadu_ps(gp),
        };
        for (i, &d) in dyv.iter().enumerate() {
            g = _mm256_fmadd_ps(d, _mm256_set1_ps(*vp.add(i * l + x)), g);
        }
        _mm256_storeu_ps(gp, g);
        let w = match divide {
            Some(z) => {
                let w = _mm256_div_ps(_mm256_loadu_ps(s), z);
                _mm256_storeu_ps(s, w);
                w
            }
            None if last => _mm256_loadu_ps(s),
            None => continue,
        };
        if last {
            dot = _mm256_add_ps(dot, _mm256_mul_ps(w, g));
        }
    }
    dot
}

/// Sweep (4) of [`fm_query_block_backward`] for key channels `p0..p0 + P`:
/// one `dq` accumulator per channel walking the keys in increasing order,
/// stored to `op[i * l..][..t]`. The first group (`form = Some((dot,
/// scale))`) forms `gs = (w·(g − dot))·scale` from `scr` and `scr_g` and
/// stores it over `g`; later groups read it back. `kp` points at `k[p0, 0]`,
/// `op` at `dq[p0, y0]`.
///
/// # Safety
///
/// As [`fm_query_block_backward`], with `p0 + P ≤ n`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dq_sweep<const P: usize>(
    kp: *const f32,
    l: usize,
    t: usize,
    scr: *const f32,
    scr_g: *mut f32,
    form: Option<(__m256, f32)>,
    op: *mut f32,
) {
    let sv = _mm256_set1_ps(form.map_or(1.0, |(_, scale)| scale));
    let mut acc = [_mm256_setzero_ps(); P];
    for x in 0..l {
        let gp = scr_g.add(x * QUERY_LANES);
        let gs = match form {
            Some((dot, _)) => {
                let w = _mm256_loadu_ps(scr.add(x * QUERY_LANES));
                let gs = _mm256_mul_ps(
                    _mm256_mul_ps(w, _mm256_sub_ps(_mm256_loadu_ps(gp), dot)),
                    sv,
                );
                _mm256_storeu_ps(gp, gs);
                gs
            }
            None => _mm256_loadu_ps(gp),
        };
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm256_fmadd_ps(_mm256_set1_ps(*kp.add(i * l + x)), gs, *a);
        }
    }
    for (i, &a) in acc.iter().enumerate() {
        a.store_first(op.add(i * l), t);
    }
}

/// Sweep (5) of [`fm_query_block_backward`] for one output: for each of
/// its `rows` channels, `out[c, x] = fma(a[c, y0 + r], src[x, r], out[c, x])`
/// for `r < t` increasing, eight keys per vector. `a` points at `a[0, y0]`
/// (row stride `l`), `src` is the `[l, QUERY_LANES]` scratch, `out` is
/// `[rows, l]`.
///
/// # Safety
///
/// Requires AVX2 + FMA; `a` and `out` hold `rows * l` floats from their
/// row starts, `src` holds `l * QUERY_LANES`, `t ≤ QUERY_LANES`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn key_lane_sweep(
    a: *const f32,
    out: *mut f32,
    rows: usize,
    l: usize,
    t: usize,
    src: *const f32,
) {
    let body = l / 8 * 8;
    for x0 in (0..body).step_by(8) {
        let mut keys = [_mm256_setzero_ps(); 8];
        for (j, key) in keys.iter_mut().enumerate() {
            *key = _mm256_loadu_ps(src.add((x0 + j) * QUERY_LANES));
        }
        let cols = transpose8(keys);
        for c in 0..rows {
            let o = out.add(c * l + x0);
            let ap = a.add(c * l);
            let mut acc = _mm256_loadu_ps(o);
            for (r, &col) in cols.iter().enumerate().take(t) {
                acc = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(r)), col, acc);
            }
            _mm256_storeu_ps(o, acc);
        }
    }
    for x in body..l {
        let s = src.add(x * QUERY_LANES);
        for c in 0..rows {
            let o = out.add(c * l + x);
            let ap = a.add(c * l);
            let mut acc = *o;
            for r in 0..t {
                acc = (*ap.add(r)).mul_add(*s.add(r), acc);
            }
            *o = acc;
        }
    }
}

/// 8 × 8 transpose: lane `j` of output `r` is lane `r` of input `j`.
///
/// # Safety
///
/// Requires AVX.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
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
/// this kernel is **bitwise identical** to the scalar reference — a
/// stronger contract than the f32 kernels carry.
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
