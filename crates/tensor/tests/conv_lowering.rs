//! The convolution lowering against its element-at-a-time definition:
//! `im2col` gathers contiguous runs between runs of padding and writes every
//! element of its output; `col2im` adds contiguous runs back and keeps the
//! (ki, kj, oi, oj) order of terms per input pixel.
//!
//! The references below are the element loops the run-based kernels
//! replaced, kept here verbatim: two bounds branches per element, padding
//! left to a zero-filled output. The cases walk the seams of the valid-range
//! arithmetic — stride 1 and 2, padding 0–2 (including padding at or past
//! the kernel's reach, where whole output rows read nothing), kernels 1, 3
//! and 5, inputs smaller than the kernel, one and several batches — in f32
//! and through the int8 twin the quantized plan uses.
//!
//! The direct convolution `conv2d_into`, which packs the lowering one column
//! block at a time instead of building it, is held to the lowered path it
//! replaced — `im2col_into` → `gemm_into` → `conv_reorder_epilogue` — bit for
//! bit over the same seams, output widths that make panels straddle lines,
//! three epilogues, 1–3 threads and every supported kernel backend. Its
//! backward kernels, which re-lower `x` and scatter `wᵀ · dy` one block of
//! output lines at a time, are held to the lowered backward — `im2col_into`
//! → `bmm_nt_into` for the weight gradient, `bmm_tn_into` → `col2im_into`
//! for the input gradient — the same way, with shapes that split an image
//! into several blocks.

use mfaplace_rt::pool;
use mfaplace_tensor::lowlevel::ConvDims;
use mfaplace_tensor::{conv_out_size, lowlevel, simd, Tensor};

/// The element-loop im2col: writes the in-bounds positions of a
/// `[c*kh*kw, b*oh*ow]` matrix and leaves padding as it finds it.
#[allow(clippy::too_many_arguments)]
fn im2col_reference<T: Copy>(
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
    let cols = b * oh * ow;
    for row in 0..c * kh * kw {
        let ci = row / (kh * kw);
        let ki = (row / kw) % kh;
        let kj = row % kw;
        for bi in 0..b {
            for oi in 0..oh {
                let iy = (oi * stride + ki) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let iy = iy as usize;
                for oj in 0..ow {
                    let ix = (oj * stride + kj) as isize - pad as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    out[row * cols + bi * oh * ow + oi * ow + oj] =
                        src[((bi * c + ci) * h + iy) * w + ix as usize];
                }
            }
        }
    }
}

/// The element-loop col2im: per `(batch, channel)` plane, terms added in
/// (ki, kj, oi, oj) order into a zeroed `[b, c, h, w]` output.
#[allow(clippy::too_many_arguments)]
fn col2im_reference(
    src: &[f32],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
    let cols = b * oh * ow;
    let mut out = vec![0.0f32; b * c * h * w];
    for (bc, plane) in out.chunks_mut(h * w).enumerate() {
        let (bi, ci) = (bc / c, bc % c);
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ci * kh * kw + ki * kw + kj;
                for oi in 0..oh {
                    let iy = (oi * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for oj in 0..ow {
                        let ix = (oj * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        plane[iy as usize * w + ix as usize] +=
                            src[row * cols + bi * oh * ow + oi * ow + oj];
                    }
                }
            }
        }
    }
    out
}

/// `(b, c, h, w, k, stride, pad)` over every combination of the seams above,
/// skipping the ones with no output (`h + 2·pad < k`). Non-square inputs
/// make a transposed index visible.
fn cases() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
    let mut out = Vec::new();
    for b in [1, 3] {
        for k in [1, 3, 5] {
            for stride in [1, 2] {
                for pad in [0, 1, 2] {
                    for (h, w) in [(1, 1), (2, 3), (4, 4), (7, 5), (9, 12)] {
                        if h + 2 * pad >= k && w + 2 * pad >= k {
                            out.push((b, 2, h, w, k, stride, pad));
                        }
                    }
                }
            }
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn im2col_writes_every_element_and_matches_the_element_loop() {
    for (b, c, h, w, k, stride, pad) in cases() {
        let label = format!("b={b} c={c} h={h} w={w} k={k} stride={stride} pad={pad}");
        // Signed values, zeros and a -0.0 among them.
        let x = Tensor::from_fn(vec![b, c, h, w], |i| match i % 7 {
            3 => -0.0,
            5 => 0.0,
            _ => (i as f32 * 0.61).sin() + 0.1,
        });
        let (oh, ow) = conv_out_size(h, w, k, k, stride, pad);
        let len = c * k * k * b * oh * ow;
        let mut want = vec![0.0f32; len];
        im2col_reference(x.data(), b, c, h, w, k, k, stride, pad, &mut want);
        // A NaN-dirtied buffer must come out exactly as a zeroed one.
        for fill in [0.0, f32::NAN] {
            let mut got = vec![fill; len];
            lowlevel::im2col_into(x.data(), b, c, h, w, k, k, stride, pad, &mut got);
            assert_eq!(bits(&got), bits(&want), "{label} fill={fill}");
        }
        assert_eq!(
            bits(x.im2col(k, k, stride, pad).data()),
            bits(&want),
            "{label}"
        );
        // Large enough to fan out: any thread count gives the same bits.
        if len >= 1 << 16 {
            let mut got = vec![f32::NAN; len];
            pool::with_threads(3, || {
                lowlevel::im2col_into(x.data(), b, c, h, w, k, k, stride, pad, &mut got)
            });
            assert_eq!(bits(&got), bits(&want), "{label} threads=3");
        }
    }
}

#[test]
fn int8_im2col_writes_every_element_and_matches_the_element_loop() {
    for (b, c, h, w, k, stride, pad) in cases() {
        let label = format!("b={b} c={c} h={h} w={w} k={k} stride={stride} pad={pad}");
        let x: Vec<i8> = (0..b * c * h * w)
            .map(|i| ((i * 37 % 255) as i32 - 127) as i8)
            .collect();
        let (oh, ow) = conv_out_size(h, w, k, k, stride, pad);
        let len = c * k * k * b * oh * ow;
        let mut want = vec![0i8; len];
        im2col_reference(&x, b, c, h, w, k, k, stride, pad, &mut want);
        for fill in [0, i8::MIN, 0x55] {
            let mut got = vec![fill; len];
            lowlevel::im2col_into(&x, b, c, h, w, k, k, stride, pad, &mut got);
            assert_eq!(got, want, "{label} fill={fill}");
        }
    }
}

/// `lowlevel::col2im_into` for a `k × k` kernel, into a NaN-filled buffer
/// it must overwrite.
#[allow(clippy::too_many_arguments)]
fn col2im(
    cols: &[f32],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let mut out = vec![f32::NAN; b * c * h * w];
    lowlevel::col2im_into(cols, b, c, h, w, k, k, stride, pad, &mut out);
    out
}

#[test]
fn col2im_matches_the_element_loop_bitwise() {
    for (b, c, h, w, k, stride, pad) in cases() {
        let label = format!("b={b} c={c} h={h} w={w} k={k} stride={stride} pad={pad}");
        let (oh, ow) = conv_out_size(h, w, k, k, stride, pad);
        // Magnitudes spread over four decades: overlapping terms added in
        // another order would round differently.
        let cols = Tensor::from_fn(vec![c * k * k, b * oh * ow], |i| {
            (i as f32 * 0.73).sin() * 10f32.powi((i % 4) as i32 - 2)
        });
        let want = col2im_reference(cols.data(), b, c, h, w, k, k, stride, pad);
        let got = col2im(cols.data(), b, c, h, w, k, stride, pad);
        assert_eq!(bits(&got), bits(&want), "{label}");
    }
}

#[test]
fn paper_sized_lowering_matches_the_element_loops_at_any_thread_count() {
    // The grid-64 model's 3×3 convs, big enough for the pool fan-out.
    let (b, c, h, w) = (1, 8, 64, 64);
    let x = Tensor::from_fn(vec![b, c, h, w], |i| (i as f32 * 0.37).cos());
    let mut want = vec![0.0f32; c * 9 * h * w];
    im2col_reference(x.data(), b, c, h, w, 3, 3, 1, 1, &mut want);
    let cols = Tensor::from_vec(vec![c * 9, h * w], want.clone()).expect("cols");
    let want_back = col2im_reference(&want, b, c, h, w, 3, 3, 1, 1);
    for nt in [1, 2, 3] {
        let got = pool::with_threads(nt, || x.im2col(3, 3, 1, 1));
        assert_eq!(bits(got.data()), bits(&want), "im2col threads={nt}");
        let back = pool::with_threads(nt, || col2im(cols.data(), b, c, h, w, 3, 1, 1));
        assert_eq!(bits(&back), bits(&want_back), "col2im threads={nt}");
    }
}

/// Serializes the tests that force the process-global kernel backend.
static BACKEND: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A square-kernel convolution shape.
#[allow(clippy::too_many_arguments)]
fn dims(
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> ConvDims {
    ConvDims {
        b,
        c,
        h,
        w,
        oc,
        kh: k,
        kw: k,
        stride,
        pad,
    }
}

/// The lowering's seams above with more channels, plus output widths that
/// are not multiples of the sixteen-lane panel (2, 4, 8, 10, 20), so panels
/// straddle output lines and batches.
fn conv_cases() -> Vec<ConvDims> {
    let mut out: Vec<_> = cases()
        .into_iter()
        .map(|(b, _, h, w, k, stride, pad)| dims(b, 3, h, w, 5, k, stride, pad))
        .collect();
    for b in [1, 3] {
        for (h, w) in [(3, 2), (5, 4), (6, 8), (4, 10), (9, 20)] {
            for (k, stride, pad) in [(1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2)] {
                if h + 2 * pad >= k && w + 2 * pad >= k {
                    out.push(dims(b, 4, h, w, 6, k, stride, pad));
                }
            }
        }
    }
    out
}

/// A fused epilogue: name, bias, channel affine, ReLU.
type Epilogue<'a> = (
    &'a str,
    Option<&'a [f32]>,
    Option<(&'a [f32], &'a [f32])>,
    bool,
);

/// `conv2d_into` against the lowered path it replaces, `im2col_into` →
/// `gemm_into` → `conv_reorder_epilogue`, bit for bit, under each epilogue
/// and thread count, into a NaN-filled destination.
fn check_direct_conv(label: &str, x: &Tensor, wt: &Tensor, d: ConvDims, threads: &[usize]) {
    let ConvDims {
        b,
        c,
        h,
        w,
        oc,
        kh,
        kw,
        stride,
        pad,
    } = d;
    let (oh, ow) = d.out_size();
    let (k, ncols) = (c * kh * kw, b * oh * ow);
    let bias: Vec<f32> = (0..oc).map(|i| (i as f32 * 0.9).sin()).collect();
    let scale: Vec<f32> = (0..oc).map(|i| 1.0 - (i as f32 * 0.4).cos()).collect();
    let shift: Vec<f32> = (0..oc).map(|i| (i as f32 * 1.3).sin() * 0.2).collect();
    let epilogues: [Epilogue; 3] = [
        ("plain", None, None, false),
        ("bias+relu", Some(&bias), None, true),
        (
            "bias+affine+relu",
            Some(&bias),
            Some((&scale, &shift)),
            true,
        ),
    ];
    let mut cols = vec![0.0f32; k * ncols];
    lowlevel::im2col_into(x.data(), b, c, h, w, kh, kw, stride, pad, &mut cols);
    let mut ymat = vec![0.0f32; oc * ncols];
    lowlevel::gemm_into(wt.data(), &cols, &mut ymat, oc, k, ncols);
    for (name, bias, affine, relu) in epilogues {
        let mut want = vec![0.0f32; b * oc * oh * ow];
        lowlevel::conv_reorder_epilogue(&ymat, &mut want, b, oc, oh * ow, bias, affine, relu);
        for &nt in threads {
            let mut got = vec![f32::NAN; want.len()];
            pool::with_threads(nt, || {
                lowlevel::conv2d_into(x.data(), wt.data(), d, bias, affine, relu, &mut got)
            });
            assert_eq!(bits(&got), bits(&want), "{label} {name} threads={nt}");
        }
    }
}

#[test]
fn direct_conv_matches_the_lowered_path_bitwise_on_every_backend() {
    let _forced = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    for bk in simd::supported() {
        simd::force(Some(bk)).expect("supported backend");
        for d in conv_cases() {
            let label = format!("{} {d:?}", bk.name());
            // Signed values with zeros, a -0.0 and the odd exact zero
            // weight, which the scalar reference skips.
            let x = Tensor::from_fn(vec![d.b, d.c, d.h, d.w], |i| match i % 7 {
                3 => -0.0,
                5 => 0.0,
                _ => (i as f32 * 0.61).sin() + 0.1,
            });
            let wt = Tensor::from_fn(vec![d.oc, d.c * d.kh * d.kw], |i| match i % 11 {
                4 => 0.0,
                _ => (i as f32 * 0.83).cos() * 0.5,
            });
            check_direct_conv(&label, &x, &wt, d, &[1, 2, 3]);
        }
    }
    simd::force(None).expect("auto");
}

#[test]
fn paper_sized_direct_convs_match_the_lowered_path_at_any_thread_count() {
    let _forced = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    // Shapes big enough to fan out over column blocks: a wide first layer,
    // a batched 1×1, a deep layer with many blocks per output line, and a
    // strided one with a ragged last block.
    let shapes = [
        dims(1, 6, 64, 64, 8, 3, 1, 1),
        dims(2, 8, 32, 32, 32, 1, 1, 0),
        dims(1, 64, 16, 16, 64, 3, 1, 1),
        dims(1, 8, 63, 61, 8, 3, 2, 1),
    ];
    for bk in simd::supported() {
        simd::force(Some(bk)).expect("supported backend");
        for d in shapes {
            let label = format!("{} {d:?}", bk.name());
            let x = Tensor::from_fn(vec![d.b, d.c, d.h, d.w], |i| (i as f32 * 0.37).cos());
            let wt = Tensor::from_fn(vec![d.oc, d.c * d.kh * d.kw], |i| {
                (i as f32 * 0.53).sin() * 0.3
            });
            check_direct_conv(&label, &x, &wt, d, &[1, 2, 3]);
        }
    }
    simd::force(None).expect("auto");
}

/// The conv backward kernels against the lowered backward they replace, bit
/// for bit, under each thread count, into NaN-filled gradients: `dw =
/// dym · im2col(x)ᵀ` and `dx = col2im(wᵀ · dym)`, `dym` being `dy`
/// reordered to `[oc, b·oh·ow]`.
fn check_conv_backward(label: &str, x: &Tensor, wt: &Tensor, dy: &Tensor, d: ConvDims) {
    let ConvDims {
        b,
        c,
        h,
        w,
        oc,
        kh,
        kw,
        stride,
        pad,
    } = d;
    let (oh, ow) = d.out_size();
    let (k, ohow) = (c * kh * kw, oh * ow);
    let n = b * ohow;
    let mut dym = vec![0.0f32; oc * n];
    for (i, run) in dy.data().chunks(ohow.max(1)).enumerate() {
        let (bi, o) = (i / oc, i % oc);
        dym[(o * b + bi) * ohow..][..ohow].copy_from_slice(run);
    }
    let mut cols = vec![0.0f32; k * n];
    lowlevel::im2col_into(x.data(), b, c, h, w, kh, kw, stride, pad, &mut cols);
    let mut want_dw = vec![0.0f32; oc * k];
    lowlevel::bmm_nt_into(&dym, &cols, &mut want_dw, 1, oc, n, k);
    let mut dcols = vec![0.0f32; k * n];
    lowlevel::bmm_tn_into(wt.data(), &dym, &mut dcols, 1, k, oc, n);
    let mut want_dx = vec![0.0f32; b * c * h * w];
    lowlevel::col2im_into(&dcols, b, c, h, w, kh, kw, stride, pad, &mut want_dx);
    for nt in [1, 2, 3] {
        let mut got = vec![f32::NAN; want_dw.len()];
        pool::with_threads(nt, || {
            lowlevel::conv2d_weight_backward_into(x.data(), dy.data(), d, &mut got)
        });
        assert_eq!(bits(&got), bits(&want_dw), "{label} dw threads={nt}");
        let mut got = vec![f32::NAN; want_dx.len()];
        pool::with_threads(nt, || {
            lowlevel::conv2d_input_backward_into(wt.data(), dy.data(), d, &mut got)
        });
        assert_eq!(bits(&got), bits(&want_dx), "{label} dx threads={nt}");
    }
}

/// Input, weight and output gradient for `d`: signed values with zeros and
/// a -0.0 (the scalar reference skips zero `dy` and weight entries), `dy`
/// spread over four decades so that overlapping input-gradient terms added
/// in another order would round differently.
fn backward_operands(d: ConvDims) -> (Tensor, Tensor, Tensor) {
    let (oh, ow) = d.out_size();
    let x = Tensor::from_fn(vec![d.b, d.c, d.h, d.w], |i| match i % 7 {
        3 => -0.0,
        5 => 0.0,
        _ => (i as f32 * 0.61).sin() + 0.1,
    });
    let wt = Tensor::from_fn(vec![d.oc, d.c * d.kh * d.kw], |i| match i % 11 {
        4 => 0.0,
        _ => (i as f32 * 0.83).cos() * 0.5,
    });
    let dy = Tensor::from_fn(vec![d.b, d.oc, oh, ow], |i| match i % 13 {
        6 => 0.0,
        9 => -0.0,
        _ => (i as f32 * 0.73).sin() * 10f32.powi((i % 4) as i32 - 2),
    });
    (x, wt, dy)
}

#[test]
fn conv_backward_matches_the_lowered_backward_bitwise_on_every_backend() {
    let _forced = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    // The seams of `conv_cases`, then lowerings of thousands of rows whose
    // output lines are wide enough that each image splits into blocks of one
    // or two lines (256 KiB of lowering a block), the last one short.
    let mut shapes = conv_cases();
    shapes.extend([
        dims(1, 256, 9, 16, 4, 3, 1, 1),
        dims(2, 128, 11, 20, 3, 3, 2, 1),
        dims(1, 2048, 5, 13, 2, 1, 1, 0),
        dims(3, 256, 9, 40, 3, 3, 2, 0),
        dims(1, 96, 12, 30, 3, 5, 2, 2),
    ]);
    for bk in simd::supported() {
        simd::force(Some(bk)).expect("supported backend");
        for d in &shapes {
            let (x, wt, dy) = backward_operands(*d);
            check_conv_backward(&format!("{} {d:?}", bk.name()), &x, &wt, &dy, *d);
        }
    }
    simd::force(None).expect("auto");
}

#[test]
fn paper_sized_conv_backward_matches_the_lowered_backward_at_any_thread_count() {
    let _forced = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    // The third shape's per-block GEMMs are big enough to fan out over
    // their output rows.
    let shapes = [
        dims(1, 6, 64, 64, 8, 3, 1, 1),
        dims(2, 8, 32, 32, 32, 1, 1, 0),
        dims(1, 64, 16, 16, 64, 3, 1, 1),
        dims(1, 8, 63, 61, 8, 3, 2, 1),
    ];
    for bk in simd::supported() {
        simd::force(Some(bk)).expect("supported backend");
        for d in shapes {
            let (x, wt, dy) = backward_operands(d);
            check_conv_backward(&format!("{} {d:?}", bk.name()), &x, &wt, &dy, d);
        }
    }
    simd::force(None).expect("auto");
}
