//! [`Tensor`]-typed kernel entry points: GEMM, convolution lowering,
//! permutation, concatenation, softmax.
//!
//! The methods are discoverable from the type. A forward op's method
//! allocates its output and calls that op's slice kernel in
//! [`crate::lowlevel`], the code the autograd tape and the compiled plan
//! run too; the backward kernels live only there, as slice kernels. The
//! scalar GEMM references live here. Shape
//! preconditions are documented per method and violations panic — these
//! are internal hot paths where a malformed shape is a programming error,
//! not a recoverable condition.
//!
//! # Parallel dispatch and serial equivalence
//!
//! The hot kernels (GEMM, batched GEMM, im2col, convolution, pooling,
//! upsampling, attention) fan out through [`mfaplace_rt::pool`], whose
//! `split` alone decides from the work's size whether a call is worth a
//! thread and how many it gets; the thread count is read once, at the
//! first parallel decision. Every dispatch splits the **output** buffer
//! into disjoint chunks and keeps the per-element computation — including
//! the order of floating-point accumulation — identical to the serial
//! loop, so results are bitwise identical at any thread count
//! (`MFAPLACE_THREADS=1` vs. N is exact, not approximate). Small tensors
//! stay on the serial path, where a thread spawn would dominate.

use mfaplace_rt::pool;

use crate::{lowlevel, Tensor};

impl Tensor {
    // ------------------------------------------------------------- matmul

    /// Matrix product of `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner dimension.
    pub fn matmul2d(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul2d lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul2d rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul2d inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), other.data(), &mut out, m, k, n, false);
        Tensor::from_vec(vec![m, n], out).expect("matmul2d shape")
    }

    /// Batched matrix product of `[b, m, k] x [b, k, n] -> [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-3 with matching batch and inner
    /// dimensions.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm lhs must be rank-3");
        assert_eq!(other.rank(), 3, "bmm rhs must be rank-3");
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        assert_eq!(b, b2, "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dimension mismatch");
        let mut out = vec![0.0f32; b * m * n];
        lowlevel::bmm_into(self.data(), other.data(), &mut out, b, m, k, n);
        Tensor::from_vec(vec![b, m, n], out).expect("bmm shape")
    }

    /// [`Tensor::matmul2d`] writing into a caller-provided buffer (any
    /// contents; it is overwritten).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or if `out.len() != m * n`.
    pub fn matmul2d_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.rank(), 2, "matmul2d lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul2d rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul2d inner dimension mismatch");
        assert_eq!(out.len(), m * n, "matmul2d_into output length mismatch");
        lowlevel::gemm_into(self.data(), other.data(), out, m, k, n);
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// Cache-blocked: the matrix is walked in `TILE x TILE` tiles so both
    /// the strided reads and the strided writes stay within a tile that
    /// fits in L1, instead of streaming one side with a full-column stride.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-2.
    pub fn transpose2d(&self) -> Tensor {
        const TILE: usize = 32;
        assert_eq!(self.rank(), 2, "transpose2d requires rank-2");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let src = self.data();
        let mut out = vec![0.0f32; m * n];
        for i0 in (0..m).step_by(TILE) {
            let i1 = (i0 + TILE).min(m);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    for j in j0..j1 {
                        out[j * m + i] = src[i * n + j];
                    }
                }
            }
        }
        Tensor::from_vec(vec![n, m], out).expect("transpose2d shape")
    }

    /// General axis permutation (like `np.transpose`), rank at most 8.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation of `0..rank` or rank exceeds 8.
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        lowlevel::permute_into(self.data(), self.shape(), axes, &mut out);
        let out_shape = axes.iter().map(|&a| self.shape()[a]).collect();
        Tensor::from_vec(out_shape, out).expect("permute shape")
    }

    // ------------------------------------------------------ conv lowering

    /// Lowers a `[B, C, H, W]` input to the im2col matrix
    /// `[C*kh*kw, B*oh*ow]` for a convolution with the given kernel, stride
    /// and zero padding.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 and the output size is positive.
    pub fn im2col(&self, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
        let (b, c, h, w) = self.dims4();
        let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
        let rows = c * kh * kw;
        let cols = b * oh * ow;
        let mut out = vec![0.0f32; rows * cols];
        lowlevel::im2col_into(self.data(), b, c, h, w, kh, kw, stride, pad, &mut out);
        Tensor::from_vec(vec![rows, cols], out).expect("im2col shape")
    }

    // ------------------------------------------------------------ pooling

    /// 2×2 max pooling with stride 2 on a `[B, C, H, W]` tensor with even
    /// `H`, `W`. Returns the pooled tensor and the flat argmax index of each
    /// output element (into the input buffer, inside the output's window),
    /// for use by the backward pass.
    ///
    /// # Panics
    ///
    /// Panics unless rank-4 with even spatial dimensions.
    pub fn maxpool2x2(&self) -> (Tensor, Vec<usize>) {
        let (b, c, h, w) = self.dims4();
        let mut out = vec![0.0f32; self.numel() / 4];
        let mut arg = vec![0usize; out.len()];
        lowlevel::maxpool2x2_into(self.data(), b * c, h, w, &mut out, Some(&mut arg));
        let pooled = Tensor::from_vec(vec![b, c, h / 2, w / 2], out).expect("maxpool shape");
        (pooled, arg)
    }

    /// Nearest-neighbour 2× upsampling of a `[B, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics unless rank-4.
    pub fn upsample2x(&self) -> Tensor {
        let (b, c, h, w) = self.dims4();
        let mut out = vec![0.0f32; b * c * 4 * h * w];
        lowlevel::upsample2x_into(self.data(), b * c, h, w, &mut out);
        Tensor::from_vec(vec![b, c, 2 * h, 2 * w], out).expect("upsample shape")
    }

    // ------------------------------------------------------ concat / split

    /// Concatenates rank-4 tensors along the channel axis (axis 1).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or batch/spatial dimensions differ.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_channels needs at least one part");
        let (b, _, h, w) = parts[0].dims4();
        let total_c: usize = parts
            .iter()
            .map(|p| {
                let (pb, pc, ph, pw) = p.dims4();
                assert_eq!((pb, ph, pw), (b, h, w), "concat_channels dim mismatch");
                pc
            })
            .sum();
        let mut out = vec![0.0f32; b * total_c * h * w];
        let data = parts.iter().map(|p| (p.data(), p.shape()[1]));
        lowlevel::concat_channels_into(data, b, h * w, total_c, &mut out);
        Tensor::from_vec(vec![b, total_c, h, w], out).expect("concat shape")
    }

    /// Softmax over the last axis ([`lowlevel::softmax_last_into`]).
    pub fn softmax_lastdim(&self) -> Tensor {
        let n = *self.shape().last().expect("softmax needs rank >= 1");
        let mut out = vec![0.0f32; self.numel()];
        lowlevel::softmax_last_into(self.data(), n, &mut out);
        Tensor::from_vec(self.shape().to_vec(), out).expect("softmax shape")
    }

    /// Destructures the shape of a rank-4 tensor as `(B, C, H, W)`.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.rank(),
            4,
            "expected rank-4 tensor, got {:?}",
            self.shape()
        );
        (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        )
    }
}

/// Output spatial size of a convolution.
pub fn conv_out_size(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    (oh, ow)
}

/// The output positions `[lo, hi)` of a convolution axis of `out_len`
/// outputs whose input coordinate `o·stride + k_off − pad` lands inside
/// `[0, len)` for kernel offset `k_off` — every other output reads padding.
/// Empty ranges come back as `lo == hi`.
pub(crate) fn valid_range(
    out_len: usize,
    len: usize,
    k_off: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    let hi = (len + pad)
        .saturating_sub(k_off)
        .div_ceil(stride)
        .min(out_len);
    let lo = pad.saturating_sub(k_off).div_ceil(stride).min(hi);
    (lo, hi)
}

/// GEMM `out (+)= a[m,k] * b[k,n]`, dispatched to the active kernel
/// backend: the scalar reference below, or the packed-panel vector
/// microkernels in [`crate::simd`]. If `accumulate` is false, `out` is
/// overwritten.
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    crate::simd::gemm_with(crate::simd::active(), a, b, out, m, k, n, accumulate);
}

/// Scalar reference GEMM — the bitwise-golden path. Large products are
/// split over output-row blocks on the worker pool; each row's i-k-j
/// reduction order is unchanged, so the result is bitwise identical to
/// the serial path.
pub(crate) fn gemm_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    // Degenerate dims: nothing to compute, and the row workers divide by
    // `n` (and fan out on `out` chunks), so bail out before they would.
    if m == 0 || n == 0 {
        return;
    }
    pool::row_blocks(out, m, m * k * n, |row0, rows| {
        gemm_rows(a, b, rows, row0, k, n, accumulate);
    });
}

/// Column-block width for [`gemm_rows`]: chosen so a `k x GEMM_COL_BLOCK`
/// slab of `b` stays cache-resident while every output row reuses it.
/// Without blocking, wide products (e.g. batched-inference GEMMs, where
/// `n` scales with the batch) re-stream all of `b` from memory once per
/// output row.
const GEMM_COL_BLOCK: usize = 512;

/// GEMM over the row block starting at `row0` whose output rows occupy
/// `out` (`out.len() / n` rows). i-k-j loop order within each column
/// block: for any output element the reduction over `p` runs in the same
/// order as the unblocked serial loop, so blocking (and thread count)
/// never changes results bitwise.
pub(crate) fn gemm_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if !accumulate {
        out.fill(0.0);
    }
    let rows = out.len() / n;
    for j0 in (0..n).step_by(GEMM_COL_BLOCK) {
        let j1 = (j0 + GEMM_COL_BLOCK).min(n);
        for r in 0..rows {
            let i = row0 + r;
            let out_row = &mut out[r * n + j0..r * n + j1];
            for p in 0..k {
                let aik = a[i * k + p];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[p * n + j0..p * n + j1];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }
}

/// `out (+)= a x b^T` for `a: [m, k]`, `b: [n, k]`, dispatched to the
/// active kernel backend. With `accumulate`, each element's chain continues
/// from its value in `out`, so splitting the reduction into leading blocks
/// changes no bit.
pub(crate) fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    crate::simd::gemm_nt_with(crate::simd::active(), a, b, out, m, k, n, accumulate);
}

/// Scalar reference `a x b^T` without materializing the transpose. Each
/// output element is a contiguous-row dot product whose reduction over `p`
/// runs in increasing order with the lhs zero-skip of [`gemm_rows`], so
/// the result is bitwise identical to `gemm(a, transpose(b))`. Large
/// products split over output-row blocks.
pub(crate) fn gemm_nt_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    pool::row_blocks(out, m, m * k * n, |row0, rows| {
        gemm_nt_rows(a, b, rows, row0, k, n, accumulate);
    });
}

fn gemm_nt_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let rows = out.len() / n;
    for r in 0..rows {
        let arow = &a[(row0 + r) * k..(row0 + r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = if accumulate { *o } else { 0.0 };
            for (&av, &bv) in arow.iter().zip(brow) {
                if av == 0.0 {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// `out = a^T x b` for `a: [k, m]`, `b: [k, n]`, dispatched to the active
/// kernel backend.
pub(crate) fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    crate::simd::gemm_tn_with(crate::simd::active(), a, b, out, m, k, n);
}

/// Scalar reference `a^T x b` without materializing the transpose. The `p`
/// (contraction) loop is outermost so both operand rows stream
/// contiguously; for any output element the reduction over `p` still runs
/// in increasing order with the transposed-lhs zero-skip, bitwise
/// identical to `gemm(transpose(a), b)`. Large products split over
/// output-row blocks.
pub(crate) fn gemm_tn_scalar(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    pool::row_blocks(out, m, m * k * n, |row0, rows| {
        gemm_tn_rows(a, b, rows, row0, m, k, n);
    });
}

fn gemm_tn_rows(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, m: usize, k: usize, n: usize) {
    out.fill(0.0);
    let rows = out.len() / n;
    for p in 0..k {
        let brow = &b[p * n..(p + 1) * n];
        for r in 0..rows {
            let av = a[p * m + row0 + r];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[r * n..(r + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul2d(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn bmm_nt_bitwise_matches_permuted_bmm() {
        // Includes a size large enough to cross the parallel thresholds and
        // an odd (non-multiple-of-block) shape; equality must be bitwise.
        for (b, m, k, n) in [(1, 2, 3, 4), (3, 7, 5, 9), (2, 96, 64, 96)] {
            let a = Tensor::from_fn(vec![b, m, k], |i| ((i * 37 % 19) as f32 - 9.0) * 0.13);
            let bt = Tensor::from_fn(vec![b, n, k], |i| ((i * 23 % 17) as f32 - 8.0) * 0.07);
            let mut fused = vec![f32::NAN; b * m * n];
            lowlevel::bmm_nt_into(a.data(), bt.data(), &mut fused, b, m, k, n);
            let composed = a.bmm(&bt.permute(&[0, 2, 1]));
            for (x, y) in fused.iter().zip(composed.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bmm_tn_bitwise_matches_permuted_bmm() {
        for (b, m, k, n) in [(1, 2, 3, 4), (3, 7, 5, 9), (2, 96, 64, 96)] {
            let a = Tensor::from_fn(vec![b, k, m], |i| ((i * 41 % 23) as f32 - 11.0) * 0.11);
            let bt = Tensor::from_fn(vec![b, k, n], |i| ((i * 29 % 13) as f32 - 6.0) * 0.17);
            let mut fused = vec![f32::NAN; b * m * n];
            lowlevel::bmm_tn_into(a.data(), bt.data(), &mut fused, b, m, k, n);
            let composed = a.permute(&[0, 2, 1]).bmm(&bt);
            for (x, y) in fused.iter().zip(composed.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn single_batch_nt_tn_bitwise_match_transposed_matmul() {
        let a = Tensor::from_fn(vec![5, 7], |i| ((i * 31 % 11) as f32 - 5.0) * 0.19);
        let b = Tensor::from_fn(vec![4, 7], |i| ((i * 13 % 9) as f32 - 4.0) * 0.23);
        let mut nt = vec![f32::NAN; 5 * 4];
        lowlevel::bmm_nt_into(a.data(), b.data(), &mut nt, 1, 5, 7, 4);
        let nt_ref = a.matmul2d(&b.transpose2d());
        for (x, y) in nt.iter().zip(nt_ref.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let c = Tensor::from_fn(vec![7, 5], |i| ((i * 17 % 13) as f32 - 6.0) * 0.29);
        let d = Tensor::from_fn(vec![7, 4], |i| ((i * 19 % 15) as f32 - 7.0) * 0.31);
        let mut tn = vec![f32::NAN; 5 * 4];
        lowlevel::bmm_tn_into(c.data(), d.data(), &mut tn, 1, 5, 7, 4);
        let tn_ref = c.transpose2d().matmul2d(&d);
        for (x, y) in tn.iter().zip(tn_ref.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_fn(vec![3, 4], |i| i as f32);
        let back = a.transpose2d().transpose2d();
        assert_eq!(back.data(), a.data());
    }

    #[test]
    fn permute_matches_transpose_for_rank2() {
        let a = Tensor::from_fn(vec![3, 4], |i| i as f32);
        assert_eq!(a.permute(&[1, 0]).data(), a.transpose2d().data());
    }

    #[test]
    fn permute_rank4() {
        let a = Tensor::from_fn(vec![2, 3, 4, 5], |i| i as f32);
        let p = a.permute(&[0, 2, 3, 1]);
        assert_eq!(p.shape(), &[2, 4, 5, 3]);
        assert_eq!(p.at(&[1, 2, 3, 1]), a.at(&[1, 1, 2, 3]));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
        let a = Tensor::from_fn(vec![1, 2, 3, 3], |i| i as f32);
        let cols = a.im2col(1, 1, 1, 0);
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.data(), a.data());
    }

    #[test]
    fn conv_via_im2col_known_values() {
        // 3x3 input, 2x2 kernel of ones: output = 2x2 block sums.
        let x = Tensor::from_fn(vec![1, 1, 3, 3], |i| i as f32);
        let cols = x.im2col(2, 2, 1, 0);
        let w = Tensor::ones(vec![1, 4]);
        let y = w.matmul2d(&cols);
        assert_eq!(
            y.data(),
            &[
                0. + 1. + 3. + 4.,
                1. + 2. + 4. + 5.,
                3. + 4. + 6. + 7.,
                4. + 5. + 7. + 8.
            ]
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let x = Tensor::from_fn(vec![1, 2, 4, 4], |i| (i as f32 * 0.37).sin());
        let cols = x.im2col(3, 3, 1, 1);
        let y = Tensor::from_fn(cols.shape().to_vec(), |i| (i as f32 * 0.11).cos());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut back = vec![f32::NAN; x.numel()];
        lowlevel::col2im_into(y.data(), 1, 2, 4, 4, 3, 3, 1, 1, &mut back);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_picks_max_and_indices() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        let (y, arg) = x.maxpool2x2();
        assert_eq!(y.data(), &[5.0]);
        assert_eq!(arg, vec![1]);
        // A window nothing beats `-inf` in keeps its argmax inside itself.
        let mut data = vec![1.0, 5.0, 2.0, 3.0];
        data.extend([f32::NEG_INFINITY; 4]);
        let x = Tensor::from_vec(vec![1, 2, 2, 2], data).unwrap();
        let (y, arg) = x.maxpool2x2();
        assert_eq!(y.data(), &[5.0, f32::NEG_INFINITY]);
        assert_eq!(arg, vec![1, 4]);
    }

    #[test]
    fn upsample_downsample_adjoint() {
        let x = Tensor::from_fn(vec![1, 1, 2, 2], |i| i as f32 + 1.0);
        let up = x.upsample2x();
        assert_eq!(up.shape(), &[1, 1, 4, 4]);
        assert_eq!(up.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(up.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 3, 3]), 4.0);
        let mut down = vec![f32::NAN; 4];
        lowlevel::upsample2x_backward_into(up.data(), 2, 2, &mut down);
        assert_eq!(down, [4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn concat_and_slice_channels_round_trip() {
        let a = Tensor::from_fn(vec![2, 2, 2, 2], |i| i as f32);
        let b = Tensor::from_fn(vec![2, 3, 2, 2], |i| -(i as f32));
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 5, 2, 2]);
        let mut slice = vec![f32::NAN; b.numel()];
        lowlevel::slice_channels_into(cat.data(), 2, 5, 2, 5, 4, &mut slice);
        assert_eq!(slice, b.data());
        slice.truncate(a.numel());
        lowlevel::slice_channels_into(cat.data(), 2, 5, 0, 2, 4, &mut slice);
        assert_eq!(slice, a.data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_fn(vec![3, 5], |i| (i as f32) * 0.3 - 2.0);
        let s = x.softmax_lastdim();
        for r in 0..3 {
            let sum: f32 = s.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_out_size_matches_formula() {
        assert_eq!(conv_out_size(8, 8, 3, 3, 1, 1), (8, 8));
        assert_eq!(conv_out_size(8, 8, 3, 3, 2, 1), (4, 4));
        assert_eq!(conv_out_size(7, 7, 3, 3, 2, 1), (4, 4));
    }
}
