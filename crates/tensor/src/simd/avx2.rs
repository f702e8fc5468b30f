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
