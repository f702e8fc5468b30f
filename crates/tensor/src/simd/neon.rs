//! NEON microkernels (aarch64).
//!
//! Structurally identical to the AVX2 backend: the same `MR x NR` packed
//! panel walk with per-element FMA chains over the contraction index (four
//! 4-lane registers per row instead of two 8-lane ones), the same
//! polynomial softmax with the shared scalar tail twin, and the same
//! bitwise elementwise conv epilogue. Because GEMM outputs are pure
//! per-element FMA chains on both vector ISAs, NEON and AVX2 GEMM results
//! are bitwise identical to each other; only the softmax lane-sum tree
//! differs (8-lane vs 4-lane partials), which the tolerance contract
//! covers.
//!
//! NEON is baseline on aarch64, so these functions are `unsafe` only for
//! the raw-pointer arithmetic; the dispatch layer still routes through the
//! same `Backend` checks as AVX2.

use core::arch::aarch64::*;

use super::exp::{
    exp_scalar, EXP_C1, EXP_C2, EXP_HI, EXP_LO, EXP_P0, EXP_P1, EXP_P2, EXP_P3, EXP_P4, EXP_P5,
    LOG2EF,
};
use super::{AView, MR, NR};

/// Packed-panel GEMM tile loop. See `super::kernel` for the contract.
///
/// # Safety
///
/// `packed` must hold `ceil(n/NR)` panels of `k*NR` elements; `out` must
/// be `rows * n`; the A view must be in bounds for all `(row, p)` pairs.
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

/// One `R x NR` tile: per output element a single FMA chain over `p`,
/// exactly like the AVX2 tile. Column tails bounce through a zero-padded
/// stack buffer.
#[allow(clippy::too_many_arguments)]
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
    let mut acc = [[vdupq_n_f32(0.0); 4]; R];
    if accumulate {
        if full {
            for (i, accr) in acc.iter_mut().enumerate() {
                let orow = out.as_ptr().add((r0 + i) * n + j0);
                for (q, accq) in accr.iter_mut().enumerate() {
                    *accq = vld1q_f32(orow.add(4 * q));
                }
            }
        } else {
            let mut buf = [0.0f32; NR];
            for (i, accr) in acc.iter_mut().enumerate() {
                let orow = out.as_ptr().add((r0 + i) * n + j0);
                buf[width..].fill(0.0);
                for (lane, b) in buf.iter_mut().enumerate().take(width) {
                    *b = *orow.add(lane);
                }
                for (q, accq) in accr.iter_mut().enumerate() {
                    *accq = vld1q_f32(buf.as_ptr().add(4 * q));
                }
            }
        }
    }
    for p in 0..k {
        let b = [
            vld1q_f32(panel.add(p * NR)),
            vld1q_f32(panel.add(p * NR + 4)),
            vld1q_f32(panel.add(p * NR + 8)),
            vld1q_f32(panel.add(p * NR + 12)),
        ];
        for (i, accr) in acc.iter_mut().enumerate() {
            let av = vdupq_n_f32(*ad.add(a.base + (r0 + i) * a.row_stride + p * a.p_stride));
            for (q, accq) in accr.iter_mut().enumerate() {
                *accq = vfmaq_f32(*accq, av, b[q]);
            }
        }
    }
    if full {
        for (i, accr) in acc.iter().enumerate() {
            let orow = out.as_mut_ptr().add((r0 + i) * n + j0);
            for (q, accq) in accr.iter().enumerate() {
                vst1q_f32(orow.add(4 * q), *accq);
            }
        }
    } else {
        let mut buf = [0.0f32; NR];
        for (i, accr) in acc.iter().enumerate() {
            let orow = out.as_mut_ptr().add((r0 + i) * n + j0);
            for (q, accq) in accr.iter().enumerate() {
                vst1q_f32(buf.as_mut_ptr().add(4 * q), *accq);
            }
            for (lane, &b) in buf.iter().enumerate().take(width) {
                *orow.add(lane) = b;
            }
        }
    }
}

// --------------------------------------------------------------- softmax

/// Polynomial `exp` of 4 lanes — the shared Cephes sequence with NEON FMA.
///
/// # Safety
///
/// NEON baseline; no extra requirements.
unsafe fn exp4(x: float32x4_t) -> float32x4_t {
    let x = vminq_f32(x, vdupq_n_f32(EXP_HI));
    let x = vmaxq_f32(x, vdupq_n_f32(EXP_LO));
    let fx = vrndmq_f32(vfmaq_f32(vdupq_n_f32(0.5), x, vdupq_n_f32(LOG2EF)));
    let x = vfmsq_f32(x, fx, vdupq_n_f32(EXP_C1));
    let x = vfmsq_f32(x, fx, vdupq_n_f32(EXP_C2));
    let z = vmulq_f32(x, x);
    let mut y = vdupq_n_f32(EXP_P0);
    y = vfmaq_f32(vdupq_n_f32(EXP_P1), y, x);
    y = vfmaq_f32(vdupq_n_f32(EXP_P2), y, x);
    y = vfmaq_f32(vdupq_n_f32(EXP_P3), y, x);
    y = vfmaq_f32(vdupq_n_f32(EXP_P4), y, x);
    y = vfmaq_f32(vdupq_n_f32(EXP_P5), y, x);
    y = vaddq_f32(vfmaq_f32(x, y, z), vdupq_n_f32(1.0));
    let emm0 = vshlq_n_s32::<23>(vaddq_s32(vcvtq_s32_f32(fx), vdupq_n_s32(127)));
    vmulq_f32(y, vreinterpretq_f32_s32(emm0))
}

/// Softmax numerators of one scaled row, in place:
/// `row[i] = exp(row[i]·scale − max_j(row[j]·scale))`; returns their sum.
/// Exact max of the scaled values, polynomial exp (vector body +
/// scalar-twin tail), fixed 4-lane sum tree plus in-order tail sum — see
/// [`super::exp_row_scaled`].
///
/// # Safety
///
/// NEON baseline; no extra requirements.
pub(crate) unsafe fn exp_row_scaled(row: &mut [f32], scale: f32) -> f32 {
    if row.is_empty() {
        return 0.0;
    }
    let n = row.len();
    let body = n / 4 * 4;
    let ptr = row.as_mut_ptr();
    let sv = vdupq_n_f32(scale);
    let mut m = f32::NEG_INFINITY;
    if body > 0 {
        let mut mv = vmulq_f32(vld1q_f32(ptr), sv);
        for i in (4..body).step_by(4) {
            mv = vmaxq_f32(mv, vmulq_f32(vld1q_f32(ptr.add(i)), sv));
        }
        m = m.max(vmaxvq_f32(mv));
    }
    for i in body..n {
        m = m.max(*ptr.add(i) * scale);
    }
    let mv = vdupq_n_f32(m);
    let mut zv = vdupq_n_f32(0.0);
    for i in (0..body).step_by(4) {
        let x = vmulq_f32(vld1q_f32(ptr.add(i)), sv);
        let e = exp4(vsubq_f32(x, mv));
        vst1q_f32(ptr.add(i), e);
        zv = vaddq_f32(zv, e);
    }
    let mut lanes = [0.0f32; 4];
    vst1q_f32(lanes.as_mut_ptr(), zv);
    let mut z = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for i in body..n {
        let e = exp_scalar(*ptr.add(i) * scale - m);
        *ptr.add(i) = e;
        z += e;
    }
    z
}

// ------------------------------------------------------------ layer norm

/// Layer norm over rows of width `d` with optional `xhat`/`inv_std`
/// capture. Mirrors the AVX2 kernel: lane-parallel mean/variance
/// reductions (one FMA chain per lane) combined in a fixed tree plus an
/// in-order scalar tail, then one FMA per element for the affine with
/// `f32::mul_add` on the row tail. Deterministic per row.
///
/// # Safety
///
/// NEON baseline. Slice lengths are asserted by the dispatching caller
/// (`layer_norm_rows_with`).
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
    let body = d / 4 * 4;
    let gp = gamma.as_ptr();
    let bp = beta.as_ptr();
    for r in 0..rows {
        let rp = src.as_ptr().add(r * d);
        let mut sv = vdupq_n_f32(0.0);
        for i in (0..body).step_by(4) {
            sv = vaddq_f32(sv, vld1q_f32(rp.add(i)));
        }
        let mut lanes = [0.0f32; 4];
        vst1q_f32(lanes.as_mut_ptr(), sv);
        let mut sum = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for i in body..d {
            sum += *rp.add(i);
        }
        let mean = sum / d as f32;
        let mv = vdupq_n_f32(mean);
        let mut vv = vdupq_n_f32(0.0);
        for i in (0..body).step_by(4) {
            let dv = vsubq_f32(vld1q_f32(rp.add(i)), mv);
            vv = vfmaq_f32(vv, dv, dv);
        }
        vst1q_f32(lanes.as_mut_ptr(), vv);
        let mut varsum = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for i in body..d {
            let dv = *rp.add(i) - mean;
            varsum = dv.mul_add(dv, varsum);
        }
        let var = varsum / d as f32;
        let is = 1.0 / (var + eps).sqrt();
        if let Some(buf) = inv_std.as_deref_mut() {
            buf[r] = is;
        }
        let op = out.as_mut_ptr().add(r * d);
        let isv = vdupq_n_f32(is);
        let xh_ptr = xhat.as_deref_mut().map(|buf| buf.as_mut_ptr().add(r * d));
        for i in (0..body).step_by(4) {
            let xh = vmulq_f32(vsubq_f32(vld1q_f32(rp.add(i)), mv), isv);
            if let Some(xp) = xh_ptr {
                vst1q_f32(xp.add(i), xh);
            }
            let o = vfmaq_f32(vld1q_f32(bp.add(i)), vld1q_f32(gp.add(i)), xh);
            vst1q_f32(op.add(i), o);
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

/// Fused bias/affine/ReLU run — same IEEE add / mul / add / max sequence
/// per element as the scalar reference, so bitwise identical to scalar.
///
/// # Safety
///
/// NEON baseline. `src.len() == dst.len()` (asserted by the caller).
pub(crate) unsafe fn conv_epilogue(
    src: &[f32],
    dst: &mut [f32],
    bias: Option<f32>,
    affine: Option<(f32, f32)>,
    relu: bool,
) {
    let n = src.len();
    let body = n / 4 * 4;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let bv = vdupq_n_f32(bias.unwrap_or(0.0));
    let (sc, sh) = affine.unwrap_or((0.0, 0.0));
    let scv = vdupq_n_f32(sc);
    let shv = vdupq_n_f32(sh);
    let zero = vdupq_n_f32(0.0);
    for i in (0..body).step_by(4) {
        let mut v = vld1q_f32(sp.add(i));
        if bias.is_some() {
            v = vaddq_f32(v, bv);
        }
        if affine.is_some() {
            v = vaddq_f32(vmulq_f32(scv, v), shv);
        }
        if relu {
            v = vmaxq_f32(v, zero);
        }
        vst1q_f32(dp.add(i), v);
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
/// Each contraction step widens one B row to i16 (`vmovl_s8` — the
/// `smull` family) and accumulates with the widening `vmlal_s16`, i.e.
/// i16×i16 products added straight into i32 lanes. Integer accumulation
/// is exact and order-independent, so the result is **bitwise identical**
/// to the scalar reference and the AVX2 twin.
///
/// # Safety
///
/// `a` must hold `m*k`, `b` `k*n`, `out` `m*n` elements (NEON itself is
/// baseline on aarch64).
pub(crate) unsafe fn i8_gemm(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    #[inline]
    unsafe fn load8(b: &[i8], off: usize, width: usize) -> int8x8_t {
        if width == 8 {
            vld1_s8(b.as_ptr().add(off))
        } else {
            let mut buf = [0i8; 8];
            buf[..width].copy_from_slice(&b[off..off + width]);
            vld1_s8(buf.as_ptr())
        }
    }

    for r in 0..m {
        let arow = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        let mut j0 = 0usize;
        while j0 < n {
            let width = (n - j0).min(8);
            let mut acc_lo = vdupq_n_s32(0); // columns j0..j0+4
            let mut acc_hi = vdupq_n_s32(0); // columns j0+4..j0+8
            for (p, &av) in arow.iter().enumerate() {
                let b16 = vmovl_s8(load8(b, p * n + j0, width));
                let a16 = vdup_n_s16(i16::from(av));
                acc_lo = vmlal_s16(acc_lo, vget_low_s16(b16), a16);
                acc_hi = vmlal_s16(acc_hi, vget_high_s16(b16), a16);
            }
            if width == 8 {
                vst1q_s32(orow.as_mut_ptr().add(j0), acc_lo);
                vst1q_s32(orow.as_mut_ptr().add(j0 + 4), acc_hi);
            } else {
                let mut buf = [0i32; 8];
                vst1q_s32(buf.as_mut_ptr(), acc_lo);
                vst1q_s32(buf.as_mut_ptr().add(4), acc_hi);
                orow[j0..j0 + width].copy_from_slice(&buf[..width]);
            }
            j0 += 8;
        }
    }
}
