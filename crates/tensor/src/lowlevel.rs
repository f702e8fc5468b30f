//! Slice-level kernels: the one implementation of every forward op the
//! autograd tape records and the compiled inference plan replays, and of
//! every backward op the tape runs (the "backward" section below).
//!
//! Each function works on raw `&[f32]` slices plus explicit dimensions and
//! writes a caller-provided output without allocating, so the plan executor
//! (`mfaplace-infer`) runs it on arena spans, the tape (`Graph` in
//! `mfaplace-autograd`) on its pooled buffers and the [`Tensor`] methods on
//! fresh vectors — GEMM family, conv lowering and epilogue, element-wise
//! ops, shape ops, softmax — with the same parallel-dispatch thresholds, so
//! plan ≡ tape bit for bit holds by construction, not by keeping copies.
//!
//! [`conv2d_into`] is the convolution of training and inference alike: it
//! packs the im2col lowering one L2-sized column block at a time straight
//! into the GEMM microkernel's panels and writes each block's product
//! through the epilogue into `[B, OC, OH·OW]`, with the bits of the lowered
//! path ([`im2col_into`] → [`gemm_into`] → [`conv_reorder_epilogue`]); its
//! backward kernels keep the lowered backward's bits the same way.
//! [`conv_reorder_epilogue`] folds the conv output reorder (`[OC, B·OH·OW]
//! → [B, OC, OH·OW]`) together with the optional bias / channel-affine /
//! ReLU epilogue into a single pass. The per-element arithmetic (`v = y; v
//! += bias[c]; v = scale[c]*v + shift[c]; v = v.max(0.0)`) is the sequence
//! the tape's separate `add_bias_channel`, `channel_affine` and `relu` ops
//! apply — they run the same epilogue one stage at a time through
//! [`channel_epilogue`] — so fusing the loop in the plan changes memory
//! traffic, not bits.
//!
//! [`Tensor`]: crate::Tensor

use mfaplace_rt::pool::{self, Work};

use crate::attention::softmax_row;
use crate::kernels::{self, conv_out_size, valid_range};
use crate::simd::{self, AView, Backend, NR};

/// `out = a[m,k] x b[k,n]`, overwriting `out`: the tape's and the plan's
/// matmul and convolution GEMM.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_into output length mismatch");
    kernels::gemm(a, b, out, m, k, n, false);
}

/// The batched-GEMM dispatch every batched product runs: with at least one
/// batch per worker and enough work, fan out across batches (each inner
/// GEMM serial, as in every block of a fan-out); otherwise let each
/// per-batch GEMM decide its own row-level parallelism. `gemm(a_i, b_i,
/// out_i)` computes batch `i` from `a`'s and `b`'s `i`-th blocks.
#[allow(clippy::too_many_arguments)]
fn batched(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    gemm: impl Fn(&[f32], &[f32], &mut [f32]) + Sync,
) {
    let (sa, sb) = (a.len() / bt.max(1), b.len() / bt.max(1));
    let nt = pool::split(Work::Flops(bt * m * k * n), usize::MAX);
    let workers = if bt >= nt { nt } else { 1 };
    let batches = out.chunks_mut((m * n).max(1)).enumerate();
    pool::fan_out(workers, batches, |(i, chunk)| {
        gemm(&a[i * sa..(i + 1) * sa], &b[i * sb..(i + 1) * sb], chunk);
    });
}

/// Batched `[bt, m, k] x [bt, k, n] -> [bt, m, n]`, the kernel behind
/// [`crate::Tensor::bmm`].
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn bmm_into(a: &[f32], b: &[f32], out: &mut [f32], bt: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), bt * m * k, "bmm_into lhs length mismatch");
    assert_eq!(b.len(), bt * k * n, "bmm_into rhs length mismatch");
    assert_eq!(out.len(), bt * m * n, "bmm_into output length mismatch");
    batched(a, b, out, bt, m, k, n, |a, b, o| {
        kernels::gemm(a, b, o, m, k, n, false);
    });
}

/// Batched `a x b^T`: `[bt, m, k] x [bt, n, k] -> [bt, m, n]`, bitwise
/// identical to the product with the transpose, without materializing it:
/// the tape's `bmm_nt` and the products' backwards (a 2-D product is a
/// batch of one).
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn bmm_nt_into(a: &[f32], b: &[f32], out: &mut [f32], bt: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), bt * m * k, "bmm_nt_into lhs length mismatch");
    assert_eq!(b.len(), bt * n * k, "bmm_nt_into rhs length mismatch");
    assert_eq!(out.len(), bt * m * n, "bmm_nt_into output length mismatch");
    batched(a, b, out, bt, m, k, n, |a, b, o| {
        kernels::gemm_nt(a, b, o, m, k, n, false)
    });
}

/// Batched `a^T x b`: `[bt, k, m] x [bt, k, n] -> [bt, m, n]` — the
/// transposed-left twin of [`bmm_nt_into`].
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn bmm_tn_into(a: &[f32], b: &[f32], out: &mut [f32], bt: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), bt * k * m, "bmm_tn_into lhs length mismatch");
    assert_eq!(b.len(), bt * k * n, "bmm_tn_into rhs length mismatch");
    assert_eq!(out.len(), bt * m * n, "bmm_tn_into output length mismatch");
    batched(a, b, out, bt, m, k, n, |a, b, o| {
        kernels::gemm_tn(a, b, o, m, k, n)
    });
}

/// Lowers a `[b, c, h, w]` slice to the `[c*kh*kw, b*oh*ow]` im2col matrix,
/// writing every element of `out` (any prior contents; padding positions
/// get `T::default()`: `0.0` for the f32 tape and plan, `0` for the int8
/// plan, where symmetric quantization keeps that exact). The kernel behind
/// [`crate::Tensor::im2col`] and the int8 plan's convolution.
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn im2col_into<T: Copy + Default + Send + Sync>(
    src: &[T],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut [T],
) {
    let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
    let rows = c * kh * kw;
    let cols = b * oh * ow;
    assert_eq!(src.len(), b * c * h * w, "im2col input length mismatch");
    assert_eq!(out.len(), rows * cols, "im2col_into output length mismatch");
    // Each output row (ci, ki, kj) gathers independently; rows fan out
    // to the pool when the matrix is large. Every element is written
    // exactly once, so parallel and serial results are bitwise identical.
    let low = Lowering::new(c, h, w, kh, kw, stride, pad);
    let fill_row = |row: usize, out_row: &mut [T]| {
        for (bi, out_b) in out_row.chunks_exact_mut(oh * ow).enumerate() {
            low.fill_lines(src, row, (bi, 0, 0), out_b);
        }
    };
    let nt = pool::split(Work::Elems(rows * cols), rows);
    pool::fan_out(nt, out.chunks_mut(cols).enumerate(), |(row, out_row)| {
        fill_row(row, out_row);
    });
}

/// The shape of one 2-D convolution: input `[b, c, h, w]`, weight `[oc, c,
/// kh, kw]`, one stride for both axes and zero padding on every side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvDims {
    pub b: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub oc: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvDims {
    /// Output spatial size `(oh, ow)`.
    pub fn out_size(&self) -> (usize, usize) {
        conv_out_size(self.h, self.w, self.kh, self.kw, self.stride, self.pad)
    }
}

/// Floats of packed lowering per column block of [`conv2d_into`] (64 KiB):
/// a block's panels stay in L2 while every output-channel row sweeps them.
const CONV_BLOCK_FLOATS: usize = 1 << 14;

/// Convolution of `x: [b, c, h, w]` with `w: [oc, c·kh·kw]` into `dst: [b,
/// oc, oh·ow]` (overwritten), with the optional fused epilogue of
/// [`conv_reorder_epilogue`] — without ever building the im2col matrix.
///
/// The output's `b·oh·ow` columns are walked in blocks whose lowering
/// fits 16K floats (L2-sized). Each block's lowering is packed straight
/// from `x`, one run per output line (a copy at unit stride, a gather
/// otherwise, padding written as zeros) into the vector microkernel's
/// `[panel][p][NR]` layout — or, under the scalar backend, a row-major
/// `[c·kh·kw, width]` block for the reference `i-k-j` loop. The block's
/// product for all `oc` rows then goes through the epilogue straight into
/// `dst`. Large convolutions fan out over column blocks, never rows, so
/// each worker packs only its own columns and runs full-height tiles.
///
/// Every output element is the same chain over `p = (ci, ki, kj)` from
/// zero that `im2col_into` → [`gemm_into`] → [`conv_reorder_epilogue`]
/// computes under the active backend (an FMA chain, or the scalar
/// reference's zero-skipping mul+add), followed by the same epilogue: the
/// bits are those of the lowered path at any block width and thread count.
/// The packed block and its product live in the executing thread's kernel
/// scratch, so a warm serial call allocates nothing.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn conv2d_into(
    x: &[f32],
    w: &[f32],
    dims: ConvDims,
    bias: Option<&[f32]>,
    affine: Option<(&[f32], &[f32])>,
    relu: bool,
    dst: &mut [f32],
) {
    let ConvDims { b, c, h, oc, .. } = dims;
    let low = Lowering::new(c, h, dims.w, dims.kh, dims.kw, dims.stride, dims.pad);
    let k = low.rows();
    let ohow = low.oh * low.ow;
    let ncols = b * ohow;
    assert_eq!(x.len(), b * c * h * dims.w, "conv2d input length mismatch");
    assert_eq!(w.len(), oc * k, "conv2d weight length mismatch");
    assert_eq!(dst.len(), b * oc * ohow, "conv2d output length mismatch");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), oc, "conv2d bias length mismatch");
    }
    if let Some((sc, sh)) = affine {
        assert_eq!(sc.len(), oc, "conv2d scale length mismatch");
        assert_eq!(sh.len(), oc, "conv2d shift length mismatch");
    }
    if ncols == 0 || oc == 0 {
        return;
    }
    let nt = pool::split(Work::Flops(oc * k * ncols), usize::MAX);
    // Whole panels per block, and at least one block per worker.
    let nb = (CONV_BLOCK_FLOATS / k.max(1) / NR * NR)
        .max(NR)
        .min(ncols.div_ceil(nt).next_multiple_of(NR));
    let n_blocks = ncols.div_ceil(nb);
    let conv = DirectConv {
        x,
        w,
        dims,
        low,
        nb,
        bias,
        affine,
        relu,
        bk: simd::active(),
    };
    if nt.min(n_blocks) <= 1 {
        conv.blocks(0..n_blocks, |j, o, run| {
            let (bi, pix) = (j / ohow, j % ohow);
            conv.epilogue(o, run, &mut dst[(bi * oc + o) * ohow + pix..][..run.len()]);
        });
        return;
    }
    // Worker `wi` owns the columns `[wi·span, (wi + 1)·span)`: in every
    // `[oh·ow]` output row, one run, handed out as disjoint row pieces.
    let per = n_blocks.div_ceil(nt);
    let span = per * nb;
    let workers = n_blocks.div_ceil(per);
    let mut parts: Vec<Vec<&mut [f32]>> =
        (0..workers).map(|_| Vec::with_capacity(b * oc)).collect();
    for (r, mut row) in dst.chunks_mut(ohow).enumerate() {
        let base = r / oc * ohow;
        for (wi, part) in parts.iter_mut().enumerate() {
            let lo = (wi * span).clamp(base, base + ohow);
            let hi = ((wi + 1) * span).clamp(base, base + ohow);
            let (piece, rest) = std::mem::take(&mut row).split_at_mut(hi - lo);
            part.push(piece);
            row = rest;
        }
    }
    pool::fan_out(workers, parts.into_iter().enumerate(), |(wi, mut rows)| {
        conv.blocks(wi * per..((wi + 1) * per).min(n_blocks), |j, o, run| {
            let bi = j / ohow;
            let start = (wi * span).max(bi * ohow);
            conv.epilogue(o, run, &mut rows[bi * oc + o][j - start..][..run.len()]);
        });
    });
}

/// The invariants of one direct convolution.
struct DirectConv<'a> {
    x: &'a [f32],
    w: &'a [f32],
    dims: ConvDims,
    low: Lowering,
    /// Columns per block, a multiple of `NR`.
    nb: usize,
    bias: Option<&'a [f32]>,
    affine: Option<(&'a [f32], &'a [f32])>,
    relu: bool,
    bk: Backend,
}

impl DirectConv<'_> {
    /// Computes the column blocks `blocks` in order, handing each block's
    /// product to `emit(j, o, run)` as one run per output channel `o` and
    /// batch: columns `[j, j + run.len())`, all in one batch.
    fn blocks(&self, blocks: std::ops::Range<usize>, mut emit: impl FnMut(usize, usize, &[f32])) {
        let ohow = self.low.oh * self.low.ow;
        let ncols = self.dims.b * ohow;
        simd::with_scratch(|sc| {
            let simd::Scratch {
                conv_cols,
                conv_out,
                ..
            } = sc;
            for blk in blocks {
                let j0 = blk * self.nb;
                let width = self.nb.min(ncols - j0);
                let y = self.block_product(conv_cols, conv_out, j0, width);
                let mut j = j0;
                while j < j0 + width {
                    let len = ((j / ohow + 1) * ohow).min(j0 + width) - j;
                    for (o, y_row) in y.chunks_exact(width).enumerate() {
                        emit(j, o, &y_row[j - j0..][..len]);
                    }
                    j += len;
                }
            }
        });
    }

    /// The `[oc, width]` product of the block of columns starting at `j0`,
    /// in `out`, its lowering packed in `cols`.
    fn block_product<'s>(
        &self,
        cols: &mut Vec<f32>,
        out: &'s mut Vec<f32>,
        j0: usize,
        width: usize,
    ) -> &'s [f32] {
        let (k, oc) = (self.low.rows(), self.dims.oc);
        let out = grown(out, oc * width);
        match self.bk {
            Backend::Scalar => {
                // The lowering's columns `[j0, j0 + width)`, row-major.
                let cols = grown(cols, k * width);
                let start = self.low.position(j0);
                for (p, row) in cols.chunks_exact_mut(width).enumerate() {
                    self.low.fill_row(self.x, p, start, row);
                }
                kernels::gemm_rows(self.w, cols, out, 0, k, width, false);
            }
            bk => {
                let cols = grown(cols, width.div_ceil(NR) * k * NR);
                self.pack_panels(j0, width, cols);
                simd::kernel(
                    bk,
                    AView::rows(self.w, 0, k),
                    cols,
                    out,
                    oc,
                    k,
                    width,
                    false,
                );
            }
        }
        out
    }

    /// Packs the lowering's columns `[j0, j0 + width)` into `NR`-column
    /// panels, `panel[p][lane]` (lanes past `width` zero). From the input,
    /// per kernel offset, panel and output-line run of the panel's lanes,
    /// the valid span is found once; then per channel one head of padding,
    /// one input run and one tail.
    fn pack_panels(&self, j0: usize, width: usize, out: &mut [f32]) {
        let low = &self.low;
        let (k, taps, hw) = (low.rows(), low.kh * low.kw, low.h * low.w);
        if k == 0 {
            return;
        }
        // Lanes past `width` feed only lanes the kernel never stores; zeros
        // keep stale (possibly subnormal) scratch out of them.
        let lanes_last = width - (width - 1) / NR * NR;
        if lanes_last < NR {
            let last = out.len() - k * NR;
            for prow in out[last..].chunks_exact_mut(NR) {
                prow[lanes_last..].fill(0.0);
            }
        }
        let start = low.position(j0);
        for ki in 0..low.kh {
            for kj in 0..low.kw {
                let valid = low.valid(ki, kj);
                // Row p = (ci·kh + ki)·kw + kj of each channel ci.
                let p0 = (ki * low.kw + kj) * NR;
                let mut pos = start;
                for (panel, dst) in out.chunks_exact_mut(k * NR).enumerate() {
                    let lanes = NR.min(width - panel * NR);
                    pos = low.runs(pos, lanes, |lane, at, len| {
                        let seg = low.segment(at, len, ki, kj, valid);
                        let prows = dst[p0 + lane..].chunks_mut(taps * NR).take(low.c);
                        for (ci, prow) in prows.enumerate() {
                            put_segment(&mut prow[..len], seg, self.x, ci * hw, low.stride);
                        }
                    });
                }
            }
        }
    }

    /// The epilogue of output channel `o` over one run.
    fn epilogue(&self, o: usize, src: &[f32], dst: &mut [f32]) {
        let bias = self.bias.map(|bv| bv[o]);
        let affine = self.affine.map(|(sc, sh)| (sc[o], sh[o]));
        simd::conv_epilogue_with(self.bk, src, dst, bias, affine, self.relu);
    }
}

/// The first `len` elements of `v`, grown to hold them if it is shorter.
fn grown(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// An output position `(bi, oi, oj)`: batch, output row, output column.
type Pos = (usize, usize, usize);

/// The geometry of the im2col lowering of a `[b, c, h, w]` input by a
/// `kh × kw` kernel: row `p = (ci·kh + ki)·kw + kj`, column `(bi·oh +
/// oi)·ow + oj`, walked by [`conv2d_into`]'s packers and the backward in
/// pieces of output lines, each written like [`im2col_into`]'s lines.
#[derive(Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Lowering {
    fn new(c: usize, h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
        Lowering {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        }
    }

    /// Rows of the lowering, `c·kh·kw`.
    fn rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// The output position of lowering column `j`.
    fn position(&self, j: usize) -> Pos {
        let rem = j % (self.oh * self.ow);
        (j / (self.oh * self.ow), rem / self.ow, rem % self.ow)
    }

    /// The valid output rows, then columns, of kernel offset `(ki, kj)`.
    fn valid(&self, ki: usize, kj: usize) -> ((usize, usize), (usize, usize)) {
        let Lowering {
            h,
            w,
            stride,
            pad,
            oh,
            ow,
            ..
        } = *self;
        (
            valid_range(oh, h, ki, stride, pad),
            valid_range(ow, w, kj, stride, pad),
        )
    }

    /// Walks `width` columns from output position `start` in output-line
    /// runs, calling `run(col, at, len)` with `col` counted from `start`;
    /// returns the position after the last column.
    fn runs(&self, start: Pos, width: usize, mut run: impl FnMut(usize, Pos, usize)) -> Pos {
        let (mut bi, mut oi, mut oj) = start;
        let mut col = 0;
        while col < width {
            let len = (self.ow - oj).min(width - col);
            run(col, (bi, oi, oj), len);
            col += len;
            oj += len;
            if oj == self.ow {
                (oj, oi) = (0, oi + 1);
                if oi == self.oh {
                    (oi, bi) = (0, bi + 1);
                }
            }
        }
        (bi, oi, oj)
    }

    /// Where the lowering row of kernel offset `(ki, kj)` (valid output
    /// ranges `valid`) reads the `len` outputs from `(bi, oi, oj)` on one
    /// line: `(head, run, at)` — `head` padding, then `run` inputs from
    /// `x[at + ci·h·w]` on (channel `ci`), then padding.
    fn segment(
        &self,
        (bi, oi, oj): Pos,
        len: usize,
        ki: usize,
        kj: usize,
        ((oi_lo, oi_hi), (oj_lo, oj_hi)): ((usize, usize), (usize, usize)),
    ) -> (usize, usize, usize) {
        if oi < oi_lo || oi >= oi_hi {
            return (len, 0, 0);
        }
        let lo = oj_lo.clamp(oj, oj + len);
        let hi = oj_hi.clamp(lo, oj + len);
        if hi == lo {
            return (len, 0, 0);
        }
        let Lowering {
            c,
            h,
            w,
            stride,
            pad,
            ..
        } = *self;
        let iy = oi * stride + ki - pad;
        (
            lo - oj,
            hi - lo,
            (bi * c * h + iy) * w + lo * stride + kj - pad,
        )
    }

    /// Writes lowering row `p` over `out.len()` columns from output
    /// position `start`.
    fn fill_row(&self, x: &[f32], p: usize, start: Pos, out: &mut [f32]) {
        let (ci, ki, kj) = (p / (self.kh * self.kw), p / self.kw % self.kh, p % self.kw);
        let (valid, ci_off) = (self.valid(ki, kj), ci * self.h * self.w);
        self.runs(start, out.len(), |col, at, len| {
            let seg = self.segment(at, len, ki, kj, valid);
            put_segment(&mut out[col..][..len], seg, x, ci_off, self.stride);
        });
    }

    /// Writes lowering row `p` over whole output lines from `start` on into
    /// `out`, `ow` columns a line: per line one input run between padding.
    fn fill_lines<T: Copy + Default>(&self, x: &[T], p: usize, start: Pos, out: &mut [T]) {
        let ((bi, oi, _), ci, ki, kj) = (
            start,
            p / (self.kh * self.kw),
            p / self.kw % self.kh,
            p % self.kw,
        );
        let ((oi_lo, oi_hi), (oj_lo, oj_hi)) = self.valid(ki, kj);
        let (h, w, stride) = (self.h, self.w, self.stride);
        let plane = &x[(bi * self.c + ci) * h * w..][..h * w];
        for (oi, out_line) in (oi..).zip(out.chunks_exact_mut(self.ow)) {
            if oi < oi_lo || oi >= oi_hi || oj_lo == oj_hi {
                out_line.fill(T::default());
                continue;
            }
            let iy = oi * stride + ki - self.pad;
            let line = &plane[iy * w + oj_lo * stride + kj - self.pad..(iy + 1) * w];
            put_run(out_line, oj_lo, oj_hi - oj_lo, line, stride);
        }
    }

    /// Adds `rows: [c·kh·kw, width]`, columns from output position `start`,
    /// into `dst`, a `[b, c, h, w]` gradient: the adjoint of
    /// [`Lowering::fill_row`], each pixel's terms in row order.
    fn scatter(&self, rows: &[f32], start: Pos, width: usize, dst: &mut [f32]) {
        let (taps, hw) = (self.kh * self.kw, self.h * self.w);
        for (p, row) in rows.chunks_exact(width).enumerate() {
            let (ci, ki, kj) = (p / taps, p / self.kw % self.kh, p % self.kw);
            let valid = self.valid(ki, kj);
            self.runs(start, width, |col, at, len| {
                let (head, run, at) = self.segment(at, len, ki, kj, valid);
                if run == 0 {
                    return;
                }
                let (src, line) = (&row[col + head..][..run], &mut dst[at + ci * hw..]);
                if self.stride == 1 {
                    for (o, &v) in line.iter_mut().zip(src) {
                        *o += v;
                    }
                } else {
                    for (o, &v) in line.iter_mut().step_by(self.stride).zip(src) {
                        *o += v;
                    }
                }
            });
        }
    }
}

/// Writes one lowering run: `head` zeros, `run` inputs `src[0]`,
/// `src[stride]`, …, then zeros to the end of `seg` — the one writer of
/// every im2col element, by [`im2col_into`] a whole output line at a time
/// and by [`conv2d_into`]'s packers one piece of a line at a time.
#[inline(always)]
fn put_run<T: Copy + Default>(seg: &mut [T], head: usize, run: usize, src: &[T], stride: usize) {
    let (pre, rest) = seg.split_at_mut(head);
    let (body, post) = rest.split_at_mut(run);
    pre.fill(T::default());
    post.fill(T::default());
    if stride == 1 {
        body.copy_from_slice(&src[..body.len()]);
    } else {
        for (o, &v) in body.iter_mut().zip(src.iter().step_by(stride)) {
            *o = v;
        }
    }
}

/// [`put_run`] for a [`Lowering::segment`] of channel offset `ci_off`,
/// with a fixed-size store for a whole vector panel row.
fn put_segment(
    seg: &mut [f32],
    (head, run, at): (usize, usize, usize),
    x: &[f32],
    ci_off: usize,
    stride: usize,
) {
    if let Ok(whole) = <&mut [f32; NR]>::try_from(&mut *seg) {
        if run == 0 {
            *whole = [0.0; NR];
            return;
        }
        if run == NR && stride == 1 {
            whole.copy_from_slice(&x[at + ci_off..][..NR]);
            return;
        }
    }
    put_run(seg, head, run, &x[at + ci_off..], stride);
}

/// Reorders a conv GEMM result `y_mat: [oc, b*ohow]` into the `[b, oc,
/// ohow]` output layout, applying the optional fused epilogue in the same
/// pass: `v = y; v += bias[c]; v = scale[c]*v + shift[c]; v = v.max(0.0)` —
/// per element exactly the sequence of the tape's `AddBiasChannel`,
/// `ChannelAffine` and `Relu` nodes, so the fused result is bitwise
/// identical to the composed chain.
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv_reorder_epilogue(
    y_mat: &[f32],
    out: &mut [f32],
    b: usize,
    oc: usize,
    ohow: usize,
    bias: Option<&[f32]>,
    affine: Option<(&[f32], &[f32])>,
    relu: bool,
) {
    assert_eq!(y_mat.len(), oc * b * ohow, "conv epilogue y_mat mismatch");
    assert_eq!(out.len(), b * oc * ohow, "conv epilogue output mismatch");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), oc, "conv epilogue bias length mismatch");
    }
    if let Some((sc, sh)) = affine {
        assert_eq!(sc.len(), oc, "conv epilogue scale length mismatch");
        assert_eq!(sh.len(), oc, "conv epilogue shift length mismatch");
    }
    // The epilogue is elementwise, so the vector backends are bitwise
    // identical to the scalar loop (same IEEE add/mul/add/max per element);
    // dispatching per contiguous run costs one branch per (oc, b) pair.
    let bk = crate::simd::active();
    for ocx in 0..oc {
        let bias_v = bias.map(|bv| bv[ocx]);
        let aff = affine.map(|(sc, sh)| (sc[ocx], sh[ocx]));
        for bi in 0..b {
            let src = &y_mat[(ocx * b + bi) * ohow..(ocx * b + bi + 1) * ohow];
            let dst = &mut out[(bi * oc + ocx) * ohow..(bi * oc + ocx + 1) * ohow];
            crate::simd::conv_epilogue_with(bk, src, dst, bias_v, aff, relu);
        }
    }
}

/// The per-channel epilogue of [`conv_reorder_epilogue`] without the
/// reorder: `x: [b, c, hw]` to `dst` in the same layout, `v = x; v +=
/// bias[c]; v = scale[c]*v + shift[c]` — the tape's `add_bias_channel` and
/// `channel_affine` ops and their unfused plan steps.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn channel_epilogue(
    x: &[f32],
    dst: &mut [f32],
    b: usize,
    c: usize,
    hw: usize,
    bias: Option<&[f32]>,
    affine: Option<(&[f32], &[f32])>,
) {
    assert_eq!(x.len(), b * c * hw, "channel epilogue input mismatch");
    assert_eq!(dst.len(), x.len(), "channel epilogue output mismatch");
    let batch = (c * hw).max(1);
    for (xb, db) in x.chunks(batch).zip(dst.chunks_mut(batch)) {
        conv_reorder_epilogue(xb, db, 1, c, hw, bias, affine, false);
    }
}

// ------------------------------------------------------------ element-wise

/// `dst[i] = f(src[i])`. The tape's and the plan's unary ops pass the
/// definitions below as `f`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn map_into(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32) {
    assert_eq!(src.len(), dst.len(), "elementwise length mismatch");
    for (o, &x) in dst.iter_mut().zip(src) {
        *o = f(x);
    }
}

/// `dst[i] = f(a[i], b[i])`. The tape's and the plan's binary ops pass the
/// definitions below as `f`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn zip_into(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.len(), b.len(), "elementwise length mismatch");
    assert_eq!(a.len(), dst.len(), "elementwise length mismatch");
    for ((o, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// Element-wise sum.
#[inline]
pub fn add(a: f32, b: f32) -> f32 {
    a + b
}

/// Element-wise difference.
#[inline]
pub fn sub(a: f32, b: f32) -> f32 {
    a - b
}

/// Element-wise product; also scaling by a recorded constant (`scale`)
/// and by the value of a one-element node (`mul_scalar_var`).
#[inline]
pub fn mul(a: f32, b: f32) -> f32 {
    a * b
}

/// Negation.
#[inline]
pub fn neg(x: f32) -> f32 {
    -x
}

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with negative slope `slope`.
#[inline]
pub fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        slope * x
    }
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// GELU, tanh approximation.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// [`relu`]'s input gradient.
#[inline]
pub fn relu_grad(dy: f32, x: f32) -> f32 {
    if x > 0.0 {
        dy
    } else {
        0.0
    }
}

/// [`leaky_relu`]'s input gradient.
#[inline]
pub fn leaky_relu_grad(dy: f32, x: f32, slope: f32) -> f32 {
    if x > 0.0 {
        dy
    } else {
        slope * dy
    }
}

/// [`sigmoid`]'s input gradient, given its output `s`.
#[inline]
pub fn sigmoid_grad(dy: f32, s: f32) -> f32 {
    dy * s * (1.0 - s)
}

/// [`gelu`]'s input gradient.
#[inline]
pub fn gelu_grad(dy: f32, x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044_715 * x * x);
    dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
}

/// Adds `bias: [d]` to every length-`d` row of `x`.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn add_bias_row(x: &[f32], bias: &[f32], dst: &mut [f32]) {
    assert_eq!(x.len(), dst.len(), "row bias length mismatch");
    for (row_o, row_x) in dst.chunks_mut(bias.len()).zip(x.chunks(bias.len())) {
        zip_into(row_x, bias, row_o, add);
    }
}

// -------------------------------------------------------------- shape ops

/// General axis permutation (like `np.transpose`) of `src` with shape
/// `shape` into `dst`: output axis `d` is input axis `axes[d]`. Walks the
/// output in order with the multi-index on the stack, so rank is at most 8,
/// and carries the input offset along with it: a per-element dot product
/// over the stack index measured ≈ 3× slower at rank 4.
///
/// # Panics
///
/// Panics if `axes` is not a permutation of `0..rank`, if rank exceeds 8,
/// or on slice-length mismatches.
pub fn permute_into(src: &[f32], shape: &[usize], axes: &[usize], dst: &mut [f32]) {
    let rank = shape.len();
    assert!(rank <= 8, "permute supports rank <= 8, got {rank}");
    assert_eq!(axes.len(), rank, "permute axes rank mismatch");
    assert_eq!(
        src.len(),
        crate::numel(shape),
        "permute input length mismatch"
    );
    assert_eq!(dst.len(), src.len(), "permute output length mismatch");
    let mut seen = [false; 8];
    for &a in axes {
        assert!(a < rank && !seen[a], "permute axes must be a permutation");
        seen[a] = true;
    }
    // Input stride and extent of each output axis.
    let (mut stride, mut dims) = ([0usize; 8], [0usize; 8]);
    for (d, &a) in axes.iter().enumerate() {
        stride[d] = shape[a + 1..].iter().product();
        dims[d] = shape[a];
    }
    let (mut idx, mut off) = ([0usize; 8], 0usize);
    for o in dst.iter_mut() {
        *o = src[off];
        for d in (0..rank).rev() {
            idx[d] += 1;
            off += stride[d];
            if idx[d] < dims[d] {
                break;
            }
            off -= dims[d] * stride[d];
            idx[d] = 0;
        }
    }
}

/// Concatenates `[b, pc, hw]` parts, given as `(data, pc)`, along the
/// channel axis into `dst: [b, total_c, hw]`.
///
/// # Panics
///
/// Panics if a part or `dst` is too short.
pub fn concat_channels_into<'a>(
    parts: impl Iterator<Item = (&'a [f32], usize)> + Clone,
    b: usize,
    hw: usize,
    total_c: usize,
    dst: &mut [f32],
) {
    for bi in 0..b {
        let mut c_off = 0usize;
        for (src, pc) in parts.clone() {
            dst[(bi * total_c + c_off) * hw..(bi * total_c + c_off + pc) * hw]
                .copy_from_slice(&src[bi * pc * hw..(bi + 1) * pc * hw]);
            c_off += pc;
        }
    }
}

/// Extracts channels `[c0, c1)` of `x: [b, c, hw]` into `dst: [b, c1 - c0,
/// hw]`.
///
/// # Panics
///
/// Panics unless `c0 <= c1 <= c`, or on slice-length mismatches.
pub fn slice_channels_into(
    x: &[f32],
    b: usize,
    c: usize,
    c0: usize,
    c1: usize,
    hw: usize,
    dst: &mut [f32],
) {
    assert!(c0 <= c1 && c1 <= c, "slice_channels out of range");
    let nc = c1 - c0;
    for bi in 0..b {
        dst[bi * nc * hw..(bi + 1) * nc * hw]
            .copy_from_slice(&x[(bi * c + c0) * hw..(bi * c + c1) * hw]);
    }
}

/// Nearest-neighbour 2× upsampling of `planes` planes of `h × w` into
/// `dst: [planes, 2h, 2w]`. Planes fan out to the pool when the output is
/// large; every element is written once, so any thread count gives the
/// same bits.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn upsample2x_into(src: &[f32], planes: usize, h: usize, w: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), planes * h * w, "upsample input length mismatch");
    assert_eq!(dst.len(), 4 * src.len(), "upsample output length mismatch");
    let fill_plane = |bc: usize, plane: &mut [f32]| {
        for i in 0..h {
            for j in 0..w {
                let v = src[bc * h * w + i * w + j];
                for di in 0..2 {
                    for dj in 0..2 {
                        plane[(i * 2 + di) * 2 * w + (j * 2 + dj)] = v;
                    }
                }
            }
        }
    };
    let nt = pool::split(Work::Elems(dst.len()), planes);
    pool::fan_out(nt, dst.chunks_mut(4 * h * w).enumerate(), |(bc, plane)| {
        fill_plane(bc, plane);
    });
}

/// 2×2 max pooling with stride 2 over `planes` planes of `h × w` (both
/// even) into `dst: [planes, h/2, w/2]`. With `arg`, also writes each
/// output's flat index into `src` — always inside its own window, even when
/// no element beats `-inf` — for the tape's backward. Planes fan out to
/// the pool when the input is large; bitwise identical at any thread count.
///
/// # Panics
///
/// Panics on odd `h` or `w`, or on slice-length mismatches.
pub fn maxpool2x2_into(
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    dst: &mut [f32],
    arg: Option<&mut [usize]>,
) {
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "maxpool2x2 needs even H, W"
    );
    let (oh, ow) = (h / 2, w / 2);
    assert_eq!(src.len(), planes * h * w, "maxpool input length mismatch");
    assert_eq!(
        dst.len(),
        planes * oh * ow,
        "maxpool output length mismatch"
    );
    let pool_plane = |bc: usize, out_plane: &mut [f32], mut arg_plane: Option<&mut [usize]>| {
        let base = bc * h * w;
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = base + oi * 2 * w + oj * 2;
                for di in 0..2 {
                    for dj in 0..2 {
                        let idx = base + (oi * 2 + di) * w + (oj * 2 + dj);
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                out_plane[oi * ow + oj] = best;
                if let Some(a) = arg_plane.as_deref_mut() {
                    a[oi * ow + oj] = best_idx;
                }
            }
        }
    };
    let nt = pool::split(Work::Elems(src.len()), planes);
    let outs = dst.chunks_mut(oh * ow);
    match arg {
        Some(arg) => {
            assert_eq!(
                arg.len(),
                planes * oh * ow,
                "maxpool argmax length mismatch"
            );
            let pairs = outs.zip(arg.chunks_mut(oh * ow)).enumerate();
            pool::fan_out(nt, pairs, |(bc, (o, a))| pool_plane(bc, o, Some(a)));
        }
        None => pool::fan_out(nt, outs.enumerate(), |(bc, o)| pool_plane(bc, o, None)),
    }
}

/// Softmax over rows of length `d`: `dst` is `x` with every row run
/// through the shared dispatched [`crate::softmax_row`], the row loop the
/// fused attention kernels use too.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn softmax_last_into(x: &[f32], d: usize, dst: &mut [f32]) {
    dst.copy_from_slice(x);
    if d > 0 {
        for row in dst.chunks_mut(d) {
            softmax_row(row);
        }
    }
}

// --------------------------------------------------------------- backward
//
// The tape's backward arithmetic. Every kernel overwrites its output (any
// prior contents). A node's first gradient contribution is that output;
// the tape adds a later one to the gradient with [`accumulate_into`].
// Zero-filling the gradient and adding every contribution would not be the
// same: `0.0 + (−0.0)` is `+0.0`, and gradients carry negative zeros. The
// element-wise backwards are [`map_into`] / [`zip_into`] with `|g| mul(g,
// c)` (`scale`, `neg` and `sub`'s right operand at `c = −1`, a multiply,
// not a sign flip), [`mul`], [`relu_grad`], [`leaky_relu_grad`],
// [`sigmoid_grad`] (given the output) or [`gelu_grad`].

/// `dst += src`: lands a finished contribution on an existing gradient.
pub fn accumulate_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "accumulate length mismatch");
    for (o, &x) in dst.iter_mut().zip(src) {
        *o += x;
    }
}

/// `ds[0] = Σ dy ⊙ x`: `mul_scalar_var`'s scalar operand's gradient.
pub fn mul_scalar_var_backward_into(dy: &[f32], x: &[f32], ds: &mut [f32]) {
    ds[0] = dy.iter().zip(x).map(|(&g, &xv)| g * xv).sum();
}

/// The bias gradient of `dy: [b, c, hw]` into `db: [c]`, overwriting: each
/// channel sums its batches' runs in order.
pub fn bias_channel_backward_into(dy: &[f32], hw: usize, db: &mut [f32]) {
    db.fill(0.0);
    for (run, i) in dy.chunks(hw.max(1)).zip(0..) {
        let sum = &mut db[i % db.len()];
        for &g in run {
            *sum += g;
        }
    }
}

/// The bias gradient of `dy: [.., d]` into `db: [d]`, overwriting: each
/// column sums its rows in order.
pub fn bias_row_backward_into(dy: &[f32], db: &mut [f32]) {
    db.fill(0.0);
    for row in dy.chunks(db.len().max(1)) {
        for (sum, &g) in db.iter_mut().zip(row) {
            *sum += g;
        }
    }
}

/// The constant channel affine's input gradient over `[b, c, hw]`, `c =
/// scale.len()`: `dx = dy · scale[c]`.
pub fn channel_affine_backward_into(dy: &[f32], scale: &[f32], hw: usize, dx: &mut [f32]) {
    let runs = dy.chunks(hw.max(1)).zip(dx.chunks_mut(hw.max(1)));
    for ((grun, orun), &sc) in runs.zip(scale.iter().cycle()) {
        map_into(grun, orun, |g| g * sc);
    }
}

/// Batch norm's sums over `dy, xhat: [b, c, hw]`, `c = gamma.len()`, into
/// `sums: [4c]` (overwritten): `dγ`, `dβ`, `Σ dx̂` and `Σ dx̂·x̂` with `dx̂ =
/// dy·γ`, each channel summing its batches' runs in order.
pub fn batch_norm2d_backward_sums(
    dy: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    hw: usize,
    sums: &mut [f32],
) {
    let c = gamma.len();
    assert_eq!(sums.len(), 4 * c, "batch norm sums length mismatch");
    sums.fill(0.0);
    let (dgamma, rest) = sums.split_at_mut(c);
    let (dbeta, rest) = rest.split_at_mut(c);
    let (sum_dxhat, sum_dxhat_xhat) = rest.split_at_mut(c);
    let runs = dy.chunks(hw.max(1)).zip(xhat.chunks(hw.max(1)));
    for ((grun, xrun), i) in runs.zip(0..) {
        let ci = i % c;
        for (&g, &xh) in grun.iter().zip(xrun) {
            dgamma[ci] += g * xh;
            dbeta[ci] += g;
            let dxh = g * gamma[ci];
            sum_dxhat[ci] += dxh;
            sum_dxhat_xhat[ci] += dxh * xh;
        }
    }
}

/// Batch norm's input gradient from [`batch_norm2d_backward_sums`]' `sums`:
/// `dx = inv_std/n · (n·dx̂ − Σ dx̂ − x̂·Σ dx̂·x̂)`, `n = b·hw`.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm2d_backward_into(
    dy: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    inv_std: &[f32],
    sums: &[f32],
    hw: usize,
    dx: &mut [f32],
) {
    let c = gamma.len();
    let n = (dy.len() / c.max(1)) as f32;
    let runs = dy.chunks(hw.max(1)).zip(xhat.chunks(hw.max(1)));
    for (((grun, xrun), orun), i) in runs.zip(dx.chunks_mut(hw.max(1))).zip(0..) {
        let ci = i % c;
        let (gm, is) = (gamma[ci], inv_std[ci]);
        let (s1, s2) = (sums[2 * c + ci], sums[3 * c + ci]);
        zip_into(grun, xrun, orun, |g, xh| {
            is / n * (n * (g * gm) - s1 - xh * s2)
        });
    }
}

/// Layer norm's `dγ = Σ_rows dy ⊙ x̂` into `dgamma: [d]`, overwriting: each
/// column sums its rows in order. Its `dβ` is [`bias_row_backward_into`].
pub fn layer_norm_gamma_backward_into(dy: &[f32], xhat: &[f32], dgamma: &mut [f32]) {
    dgamma.fill(0.0);
    let d = dgamma.len().max(1);
    for (grow, xrow) in dy.chunks(d).zip(xhat.chunks(d)) {
        for ((sum, &g), &xh) in dgamma.iter_mut().zip(grow).zip(xrow) {
            *sum += g * xh;
        }
    }
}

/// Layer norm's input gradient over rows of `d = gamma.len()`: `dx =
/// inv_std/d · (d·dx̂ − Σ dx̂ − x̂·Σ dx̂·x̂)` with `dx̂ = dy·γ`, the sums per
/// row.
pub fn layer_norm_backward_into(
    dy: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    inv_std: &[f32],
    dx: &mut [f32],
) {
    let d = gamma.len();
    let rows = dy.chunks(d.max(1)).zip(xhat.chunks(d.max(1)));
    for (((grow, xrow), orow), &is) in rows.zip(dx.chunks_mut(d.max(1))).zip(inv_std) {
        let (mut sum_dxh, mut sum_dxh_xh) = (0.0f32, 0.0f32);
        for k in 0..d {
            let dxh = grow[k] * gamma[k];
            sum_dxh += dxh;
            sum_dxh_xh += dxh * xrow[k];
        }
        for k in 0..d {
            let dxh = grow[k] * gamma[k];
            orow[k] = is / d as f32 * (d as f32 * dxh - sum_dxh - xrow[k] * sum_dxh_xh);
        }
    }
}

/// The gradient of a softmax over rows of `d`, given its output `s`: per
/// row `dx = s ⊙ (dy − Σ s ⊙ dy)`.
pub fn softmax_last_backward_into(s: &[f32], dy: &[f32], d: usize, dx: &mut [f32]) {
    let rows = s.chunks(d.max(1)).zip(dy.chunks(d.max(1)));
    for ((srow, grow), orow) in rows.zip(dx.chunks_mut(d.max(1))) {
        let dot: f32 = srow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
        zip_into(srow, grow, orow, |s, g| s * (g - dot));
    }
}

/// Pixel-wise cross entropy's logit gradient from its saved softmax
/// `probs: [b, k, hw]` and `labels: [b, hw]`: `dx = gy · w_y · (p −
/// [class = y]) / weight_sum`, `w_y` the label's class weight (1 without).
#[allow(clippy::too_many_arguments)]
pub fn cross_entropy2d_backward_into(
    probs: &[f32],
    labels: &[u8],
    class_weights: Option<&[f32]>,
    gy: f32,
    weight_sum: f32,
    hw: usize,
    dx: &mut [f32],
) {
    let k = probs.len() / labels.len().max(1);
    assert_eq!(dx.len(), probs.len(), "cross entropy backward mismatch");
    for (i, &label) in labels.iter().enumerate() {
        let (y, base) = (label as usize, (i / hw * k) * hw + i % hw);
        let wgt = class_weights.map_or(1.0, |cw| cw[y]);
        for ki in 0..k {
            let indicator = if ki == y { 1.0 } else { 0.0 };
            let at = base + ki * hw;
            dx[at] = gy * wgt * (probs[at] - indicator) / weight_sum;
        }
    }
}

/// Mean squared error's gradient: `dx = gy · 2 · (pred − target) / n`.
pub fn mse_backward_into(pred: &[f32], target: &[f32], gy: f32, dx: &mut [f32]) {
    let n = target.len().max(1) as f32;
    zip_into(pred, target, dx, |p, t| gy * 2.0 * (p - t) / n);
}

/// `dx = gy / dx.len()` everywhere: `mean`'s gradient (`sum`'s is a
/// `fill`).
pub fn mean_backward_into(gy: f32, dx: &mut [f32]) {
    dx.fill(gy / dx.len().max(1) as f32);
}

/// A convolution's weight gradient `dw: [oc, c·kh·kw]` (overwritten) from
/// its input `x` and output gradient `dy: [b, oc, oh·ow]`: `x` re-lowered
/// one block of output lines at a time, each block continuing every chain
/// of `dw` in column order, for the bits of `im2col_into` → [`bmm_nt_into`].
pub fn conv2d_weight_backward_into(x: &[f32], dy: &[f32], dims: ConvDims, dw: &mut [f32]) {
    let grad = ConvGrad::new(dy, dims);
    let (k, chw) = (grad.low.rows(), dims.c * dims.h * dims.w);
    assert_eq!(x.len(), dims.b * chw, "conv2d x length mismatch");
    assert_eq!(dw.len(), dims.oc * k, "conv2d dw length mismatch");
    grad.weight(x, dw);
}

/// A convolution's input gradient `dx: [b, c, h, w]` (overwritten) from its
/// weight `w: [oc, c·kh·kw]` and `dy`: `wᵀ · dy` one block of output lines
/// at a time, scattered back at once. Later columns bring a pixel smaller
/// kernel offsets, so blocks in descending order sum every pixel's terms in
/// the order of [`bmm_tn_into`] → [`col2im_into`], and so its bits.
pub fn conv2d_input_backward_into(w: &[f32], dy: &[f32], dims: ConvDims, dx: &mut [f32]) {
    let (grad, chw) = (ConvGrad::new(dy, dims), dims.c * dims.h * dims.w);
    assert_eq!(w.len(), dims.oc * grad.low.rows(), "conv2d weight mismatch");
    assert_eq!(dx.len(), dims.b * chw, "conv2d dx length mismatch");
    grad.input(w, dx);
}

/// Floats of lowering per block of a backward (256 KiB, an L2 share).
const CONV_GRAD_BLOCK_FLOATS: usize = 1 << 16;

/// A convolution's backward, over each image in even blocks of output
/// lines, as few as fit [`CONV_GRAD_BLOCK_FLOATS`] (or one line each).
struct ConvGrad<'a> {
    dy: &'a [f32],
    dims: ConvDims,
    low: Lowering,
}

impl<'a> ConvGrad<'a> {
    fn new(dy: &'a [f32], dims: ConvDims) -> Self {
        let ConvDims { c, h, w, .. } = dims;
        let low = Lowering::new(c, h, w, dims.kh, dims.kw, dims.stride, dims.pad);
        let ohow = low.oh * low.ow;
        assert_eq!(dy.len(), dims.b * dims.oc * ohow, "conv2d dy mismatch");
        ConvGrad { dy, dims, low }
    }

    /// Image `bi`'s blocks as `(first column, width)`, ascending.
    fn blocks(&self, bi: usize) -> impl DoubleEndedIterator<Item = (usize, usize)> {
        let (oh, ow) = (self.low.oh, self.low.ow);
        let most = (CONV_GRAD_BLOCK_FLOATS / (self.low.rows() * ow).max(1)).max(1);
        let lines = oh.div_ceil(oh.div_ceil(most));
        (0..oh)
            .step_by(lines)
            .map(move |oi| ((bi * oh + oi) * ow, lines.min(oh - oi) * ow))
    }

    /// `dy` over the columns `[j0, j0 + width)` of one image as `[oc,
    /// width]`, in `out`.
    fn dy_block<'s>(&self, j0: usize, width: usize, out: &'s mut Vec<f32>) -> &'s [f32] {
        let (oc, ohow) = (self.dims.oc, self.low.oh * self.low.ow);
        let out = grown(out, oc * width);
        for (o, row) in out.chunks_exact_mut(width).enumerate() {
            row.copy_from_slice(&self.dy[(j0 / ohow * oc + o) * ohow + j0 % ohow..][..width]);
        }
        out
    }

    /// The weight gradient: the first block (at column 0) starts every
    /// chain, the others continue it. Each block's GEMM fans out over `dw`
    /// rows as any large GEMM does.
    fn weight(&self, x: &[f32], dw: &mut [f32]) {
        let (k, oc) = (self.low.rows(), self.dims.oc);
        if self.dims.b == 0 {
            dw.fill(0.0);
        }
        conv_scratch(|cols, dyb| {
            for (j0, width) in (0..self.dims.b).flat_map(|bi| self.blocks(bi)) {
                let dyb = self.dy_block(j0, width, dyb);
                let low = grown(cols, k * width);
                for (p, row) in low.chunks_exact_mut(width).enumerate() {
                    self.low.fill_lines(x, p, self.low.position(j0), row);
                }
                kernels::gemm_nt(dyb, low, dw, oc, width, k, j0 > 0);
            }
        });
    }

    /// The input gradient, each image's blocks in descending order. Each
    /// block's GEMM fans out over its `c·kh·kw` rows.
    fn input(&self, w: &[f32], dx: &mut [f32]) {
        let (k, oc) = (self.low.rows(), self.dims.oc);
        dx.fill(0.0);
        conv_scratch(|cols, dyb| {
            for bi in 0..self.dims.b {
                for (j0, width) in self.blocks(bi).rev() {
                    let dyb = self.dy_block(j0, width, dyb);
                    let dcols = grown(cols, k * width);
                    kernels::gemm_tn(w, dyb, dcols, k, oc, width);
                    self.low.scatter(dcols, self.low.position(j0), width, dx);
                }
            }
        });
    }
}

/// Runs `f` on this thread's conv scratch, lifted out of the kernel scratch
/// so that `f` may run GEMMs, which use the rest.
fn conv_scratch(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>)) {
    let lift = |v: &mut Vec<f32>| std::mem::take(v);
    let (mut cols, mut out) =
        simd::with_scratch(|sc| (lift(&mut sc.conv_cols), lift(&mut sc.conv_out)));
    f(&mut cols, &mut out);
    simd::with_scratch(|sc| (sc.conv_cols, sc.conv_out) = (cols, out));
}

/// The adjoint of [`im2col_into`]: scatters `cols: [c·kh·kw, b·oh·ow]` into
/// `dst: [b, c, h, w]` (overwritten), each pixel's terms in `(ki, kj)`
/// order — [`conv2d_input_backward_into`]'s scatter over the whole matrix.
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    cols: &[f32],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    dst: &mut [f32],
) {
    let low = Lowering::new(c, h, w, kh, kw, stride, pad);
    let n = b * low.oh * low.ow;
    assert_eq!(cols.len(), low.rows() * n, "col2im input length mismatch");
    assert_eq!(dst.len(), b * c * h * w, "col2im output length mismatch");
    dst.fill(0.0);
    if n > 0 {
        low.scatter(cols, (0, 0, 0), n, dst);
    }
}

/// The adjoint of [`upsample2x_into`]: sums each 2×2 block of `dy:
/// [planes, 2h, 2w]` into `dx: [planes, h, w]` (overwritten) in row-major
/// order. Planes fan out to the pool when `dy` is large; bitwise identical
/// at any thread count.
pub fn upsample2x_backward_into(dy: &[f32], h: usize, w: usize, dx: &mut [f32]) {
    assert_eq!(dy.len(), 4 * dx.len(), "upsample backward length mismatch");
    dx.fill(0.0);
    let fill_plane = |bc: usize, plane: &mut [f32]| {
        let src = &dy[bc * 4 * h * w..(bc + 1) * 4 * h * w];
        for (i, row) in src.chunks(2 * w).enumerate() {
            for (j, &g) in row.iter().enumerate() {
                plane[(i / 2) * w + j / 2] += g;
            }
        }
    };
    let planes = dx.chunks_mut(h * w);
    let nt = pool::split(Work::Elems(dy.len()), planes.len());
    pool::fan_out(nt, planes.enumerate(), |(bc, plane)| fill_plane(bc, plane));
}

/// Max pooling's input gradient into `dx` (overwritten): zero but at each
/// output's argmax from [`maxpool2x2_into`], which receives `0.0 + dy`.
pub fn maxpool2x2_backward_into(dy: &[f32], arg: &[usize], dx: &mut [f32]) {
    dx.fill(0.0);
    for (&g, &src) in dy.iter().zip(arg) {
        dx[src] += g;
    }
}

/// [`permute_into`]'s adjoint: `dx = dy` permuted by the inverse of `axes`,
/// where `dy` has the permuted shape `shape`.
pub fn permute_backward_into(dy: &[f32], shape: &[usize], axes: &[usize], dx: &mut [f32]) {
    let mut inv = [0usize; 8];
    for (i, &a) in axes.iter().enumerate() {
        inv[a] = i;
    }
    permute_into(dy, shape, &inv[..axes.len()], dx);
}

/// [`slice_channels_into`]'s adjoint: `dx: [b, c, hw]` (overwritten) is
/// `dy: [b, c1 − c0, hw]` on channels `[c0, c1)` and zero on the others.
pub fn slice_channels_backward_into(
    dy: &[f32],
    c: usize,
    c0: usize,
    c1: usize,
    hw: usize,
    dx: &mut [f32],
) {
    dx.fill(0.0);
    let part = (c1 - c0) * hw;
    for (bi, plane) in dx.chunks_mut((c * hw).max(1)).enumerate() {
        plane[c0 * hw..c1 * hw].copy_from_slice(&dy[bi * part..(bi + 1) * part]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn tensor(shape: Vec<usize>, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            (((i * 2_654_435_761 + seed * 131) % 997) as f32 / 498.0 - 1.0) * 0.6
        })
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The one batched fan-out, serial and batch-parallel, against
    /// per-batch 2-D products (which never take it).
    #[test]
    fn batched_gemms_match_per_batch_products() {
        for (bt, m, k, n) in [(2, 3, 4, 5), (4, 32, 64, 64)] {
            let a = tensor(vec![bt, m, k], 3);
            let b = tensor(vec![bt, k, n], 4);
            let bnt = tensor(vec![bt, n, k], 5);
            let atn = tensor(vec![bt, k, m], 6);
            let block = |t: &Tensor, i: usize, r: usize, c: usize| {
                Tensor::from_vec(vec![r, c], t.data()[i * r * c..(i + 1) * r * c].to_vec()).unwrap()
            };
            let (mut nn, mut nt, mut tn) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..bt {
                let (ai, bi) = (block(&a, i, m, k), block(&b, i, k, n));
                nn.extend_from_slice(ai.matmul2d(&bi).data());
                let bnt_t = block(&bnt, i, n, k).permute(&[1, 0]);
                nt.extend_from_slice(ai.matmul2d(&bnt_t).data());
                let atn_t = block(&atn, i, k, m).permute(&[1, 0]);
                tn.extend_from_slice(atn_t.matmul2d(&bi).data());
            }
            for threads in [1, 2] {
                pool::with_threads(threads, || {
                    let mut out = vec![f32::NAN; bt * m * n];
                    bmm_into(a.data(), b.data(), &mut out, bt, m, k, n);
                    assert_eq!(bits(&out), bits(&nn));
                    bmm_nt_into(a.data(), bnt.data(), &mut out, bt, m, k, n);
                    assert_eq!(bits(&out), bits(&nt));
                    bmm_tn_into(atn.data(), b.data(), &mut out, bt, m, k, n);
                    assert_eq!(bits(&out), bits(&tn));
                });
            }
        }
    }

    #[test]
    fn conv_epilogue_matches_composed_chain() {
        let (b, oc, ohow) = (2, 3, 4);
        let y = tensor(vec![oc, b * ohow], 8);
        let bias = [0.3f32, -0.6, 0.1];
        let scale = [1.2f32, -0.8, 0.5];
        let shift = [-0.2f32, 0.4, 0.0];
        // Composed reference: reorder, then +=bias, then affine, then relu.
        let mut reference = vec![0.0f32; b * oc * ohow];
        for o in 0..oc {
            for bi in 0..b {
                for k in 0..ohow {
                    reference[(bi * oc + o) * ohow + k] = y.data()[(o * b + bi) * ohow + k];
                }
            }
        }
        for bi in 0..b {
            for o in 0..oc {
                for k in 0..ohow {
                    let v = &mut reference[(bi * oc + o) * ohow + k];
                    *v += bias[o];
                    *v = scale[o] * *v + shift[o];
                    *v = v.max(0.0);
                }
            }
        }
        let mut out = vec![f32::NAN; b * oc * ohow];
        conv_reorder_epilogue(
            y.data(),
            &mut out,
            b,
            oc,
            ohow,
            Some(&bias),
            Some((&scale, &shift)),
            true,
        );
        for (x, r) in out.iter().zip(&reference) {
            assert_eq!(x.to_bits(), r.to_bits());
        }
    }

    /// One stage at a time, the epilogue is the per-channel loop the tape
    /// kept before sharing it: a bias add, or `scale·x + shift` with no FMA.
    /// `hw = 13` leaves a vector tail on every run.
    #[test]
    fn channel_epilogue_matches_per_channel_loops() {
        let (b, c, hw) = (2, 3, 13);
        let x = tensor(vec![b, c, hw], 9);
        let (bias, scale, shift) = (
            tensor(vec![c], 10),
            tensor(vec![c], 11),
            tensor(vec![c], 12),
        );
        let (mut biased, mut affine) = (x.data().to_vec(), x.data().to_vec());
        for (i, (bv, av)) in biased.iter_mut().zip(&mut affine).enumerate() {
            let ci = i / hw % c;
            *bv += bias.data()[ci];
            *av = scale.data()[ci] * *av + shift.data()[ci];
        }
        let mut out = vec![f32::NAN; b * c * hw];
        channel_epilogue(x.data(), &mut out, b, c, hw, Some(bias.data()), None);
        assert_eq!(bits(&out), bits(&biased));
        channel_epilogue(
            x.data(),
            &mut out,
            b,
            c,
            hw,
            None,
            Some((scale.data(), shift.data())),
        );
        assert_eq!(bits(&out), bits(&affine));
    }

    #[test]
    fn maxpool_without_argmax_pools_the_same_values() {
        let x = tensor(vec![3, 2, 6, 8], 13);
        let (mut with_arg, mut arg) = (vec![f32::NAN; x.numel() / 4], vec![0; x.numel() / 4]);
        maxpool2x2_into(x.data(), 6, 6, 8, &mut with_arg, Some(&mut arg));
        let mut out = vec![f32::NAN; with_arg.len()];
        maxpool2x2_into(x.data(), 6, 6, 8, &mut out, None);
        assert_eq!(bits(&out), bits(&with_arg));
    }

    /// The carried offset reads the element the multi-index names, for
    /// every axis order of a rank-4 shape with a unit axis.
    #[test]
    fn permute_reads_the_indexed_element_for_every_axis_order() {
        let shape = [2usize, 1, 3, 4];
        let strides = crate::strides_for(&shape);
        let x = tensor(shape.to_vec(), 14);
        for p in 0..24 {
            let (mut rest, mut axes, mut k) = (vec![0, 1, 2, 3], Vec::new(), p);
            for n in (1..=4).rev() {
                axes.push(rest.remove(k % n));
                k /= n;
            }
            let mut out = vec![f32::NAN; x.numel()];
            permute_into(x.data(), &shape, &axes, &mut out);
            for (o, got) in out.iter().enumerate() {
                let (mut rem, mut src) = (o, 0);
                for d in (0..4).rev() {
                    src += rem % shape[axes[d]] * strides[axes[d]];
                    rem /= shape[axes[d]];
                }
                assert_eq!(got.to_bits(), x.data()[src].to_bits(), "axes {axes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank <= 8")]
    fn permute_rejects_rank_above_eight() {
        let shape = [1usize; 9];
        let axes: Vec<usize> = (0..9).collect();
        permute_into(&[0.0], &shape, &axes, &mut [0.0]);
    }
}
