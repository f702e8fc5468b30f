//! Differential scalar-vs-vector kernel suite.
//!
//! Every vectorized kernel is driven over randomized shapes (via the `rt`
//! check harness) against the scalar reference backend and must land
//! within the documented tolerance: max-norm error ≤ `1e-5` of the scalar
//! output's max-norm scale (`crate::simd` module docs). Shapes are drawn
//! to cross the microkernel's blocking boundaries — column tails that are
//! not a multiple of the 16-lane panel width, row tails off the 4-row
//! group, `K = 0` / `K = 1` contractions, and single-row/column outputs.
//!
//! Two invariants are checked bitwise rather than with a tolerance:
//! accumulate-chaining (a split-K GEMM accumulated in two calls equals the
//! one-shot GEMM under the same vector backend) and the elementwise conv
//! epilogue (identical IEEE ops per element on every backend).

use mfaplace_rt::check::{run_cases, vec_f32};
use mfaplace_rt::rng::Rng;
use mfaplace_tensor::simd::{self, Backend};
use mfaplace_tensor::{attention_fm_backward_with, attention_fm_slices_with, Tensor};

/// Backends to differentiate against scalar (empty on a scalar-only host,
/// which leaves the suite trivially green rather than failing).
fn vector_backends() -> Vec<Backend> {
    simd::supported()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .collect()
}

/// Runs the explicit-backend feature-major attention backward into
/// NaN-filled buffers it must overwrite and returns `(dq, dk, dv)`.
fn backward(
    bk: Backend,
    [q, k, v]: [&Tensor; 3],
    scale: f32,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let [mut dq, mut dk, mut dv] = [q, k, v].map(|x| vec![f32::NAN; x.numel()]);
    let [b, n, l] = [0, 1, 2].map(|i| q.shape()[i]);
    let [qd, kd, vd, dyd] = [q, k, v, dy].map(Tensor::data);
    let nv = v.shape()[1];
    attention_fm_backward_with(
        bk, qd, kd, vd, dyd, b, n, nv, l, scale, &mut dq, &mut dk, &mut dv,
    );
    let t = |x: &Tensor, d| Tensor::from_vec(x.shape().to_vec(), d).expect("grad shape");
    (t(q, dq), t(k, dk), t(v, dv))
}

/// Max-norm tolerance from the kernel layer's numeric contract.
fn assert_close(tag: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    let scale = want.iter().fold(0.0f32, |a, &x| a.max(x.abs())).max(1.0);
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-5 * scale,
            "{tag}: element {i}: {g} vs {w} (scale {scale})"
        );
    }
}

#[test]
fn gemm_family_matches_scalar_over_random_shapes() {
    let backends = vector_backends();
    run_cases("gemm_family", 64, 0x51D0, |case, rng| {
        // Bias the draw toward blocking boundaries: lane tails, row-group
        // tails, and degenerate contractions.
        let edge = [0usize, 1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33];
        let dim = |rng: &mut _| {
            if Rng::gen_range::<u32, _>(rng, 0..2) == 0 {
                edge[Rng::gen_range::<usize, _>(rng, 0..edge.len())]
            } else {
                Rng::gen_range::<usize, _>(rng, 1..48)
            }
        };
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let a = vec_f32(rng, m * k, -1.0, 1.0);
        let b = vec_f32(rng, k * n, -1.0, 1.0);
        let accumulate = case % 3 == 0;
        let seed_out = vec_f32(rng, m * n, -1.0, 1.0);
        let mut want = if accumulate {
            seed_out.clone()
        } else {
            vec![0.0f32; m * n]
        };
        simd::gemm_with(Backend::Scalar, &a, &b, &mut want, m, k, n, accumulate);
        for &bk in &backends {
            let mut got = if accumulate {
                seed_out.clone()
            } else {
                vec![f32::NAN; m * n]
            };
            simd::gemm_with(bk, &a, &b, &mut got, m, k, n, accumulate);
            assert_close(&format!("gemm {m}x{k}x{n} {bk:?}"), &got, &want);
        }
        // NT: b viewed as [n, k]; TN: a viewed as [k, m].
        let bt = vec_f32(rng, n * k, -1.0, 1.0);
        let mut want_nt = vec![0.0f32; m * n];
        simd::gemm_nt_with(Backend::Scalar, &a, &bt, &mut want_nt, m, k, n, false);
        let at = vec_f32(rng, k * m, -1.0, 1.0);
        let mut want_tn = vec![0.0f32; m * n];
        simd::gemm_tn_with(Backend::Scalar, &at, &b, &mut want_tn, m, k, n);
        for &bk in &backends {
            let mut got = vec![f32::NAN; m * n];
            simd::gemm_nt_with(bk, &a, &bt, &mut got, m, k, n, false);
            assert_close(&format!("gemm_nt {m}x{k}x{n} {bk:?}"), &got, &want_nt);
            let mut got = vec![f32::NAN; m * n];
            simd::gemm_tn_with(bk, &at, &b, &mut got, m, k, n);
            assert_close(&format!("gemm_tn {m}x{k}x{n} {bk:?}"), &got, &want_tn);
        }
    });
}

#[test]
fn split_k_accumulate_is_bitwise_chained() {
    // Accumulate restarts each element's FMA chain from the exact stored
    // f32, so a K-split accumulation must be bitwise identical to the
    // one-shot product under the same backend.
    run_cases("split_k", 16, 0xACC0, |_case, rng| {
        let (m, k1, k2, n) = (
            Rng::gen_range::<usize, _>(rng, 1..8),
            Rng::gen_range::<usize, _>(rng, 1..24),
            Rng::gen_range::<usize, _>(rng, 1..24),
            Rng::gen_range::<usize, _>(rng, 1..40),
        );
        let k = k1 + k2;
        let a = vec_f32(rng, m * k, -1.0, 1.0);
        let b = vec_f32(rng, k * n, -1.0, 1.0);
        // Column-split a into contiguous [m, k1] / [m, k2] halves.
        let a1: Vec<f32> = (0..m).flat_map(|r| a[r * k..r * k + k1].to_vec()).collect();
        let a2: Vec<f32> = (0..m)
            .flat_map(|r| a[r * k + k1..(r + 1) * k].to_vec())
            .collect();
        let (b1, b2) = b.split_at(k1 * n);
        for bk in vector_backends() {
            let mut full = vec![0.0f32; m * n];
            simd::gemm_with(bk, &a, &b, &mut full, m, k, n, false);
            let mut split = vec![0.0f32; m * n];
            simd::gemm_with(bk, &a1, b1, &mut split, m, k1, n, false);
            simd::gemm_with(bk, &a2, b2, &mut split, m, k2, n, true);
            for (x, y) in split.iter().zip(&full) {
                assert_eq!(x.to_bits(), y.to_bits(), "{bk:?}: {x} vs {y}");
            }
        }
    });
}

#[test]
fn softmax_rows_match_scalar_within_tolerance() {
    let backends = vector_backends();
    run_cases("softmax_row", 48, 0x50F7, |case, rng| {
        // Lengths crossing the vector body/tail split, including 0 and 1.
        let n = match case % 6 {
            0 => 0,
            1 => 1,
            2 => Rng::gen_range::<usize, _>(rng, 2..8),
            _ => Rng::gen_range::<usize, _>(rng, 8..100),
        };
        let row = vec_f32(rng, n, -6.0, 6.0);
        let mut want = row.clone();
        simd::softmax_row_with(Backend::Scalar, &mut want);
        for &bk in &backends {
            let mut got = row.clone();
            simd::softmax_row_with(bk, &mut got);
            assert_close(&format!("softmax n={n} {bk:?}"), &got, &want);
            if n > 0 {
                let z: f32 = got.iter().sum();
                assert!((z - 1.0).abs() < 1e-5, "{bk:?}: softmax sums to {z}");
            }
        }
    });
}

#[test]
fn conv_epilogue_is_bitwise_on_every_backend() {
    run_cases("conv_epilogue", 32, 0xC0E7, |case, rng| {
        let n = Rng::gen_range::<usize, _>(rng, 0..70);
        let src = vec_f32(rng, n, -2.0, 2.0);
        let bias = (case % 2 == 0).then(|| Rng::gen_range::<f32, _>(rng, -1.0..1.0));
        let affine = (case % 3 != 1).then(|| {
            (
                Rng::gen_range::<f32, _>(rng, -2.0..2.0),
                Rng::gen_range::<f32, _>(rng, -1.0..1.0),
            )
        });
        let relu = case % 4 != 2;
        let mut want = vec![f32::NAN; n];
        simd::conv_epilogue_with(Backend::Scalar, &src, &mut want, bias, affine, relu);
        for bk in simd::supported() {
            let mut got = vec![f32::NAN; n];
            simd::conv_epilogue_with(bk, &src, &mut got, bias, affine, relu);
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "{bk:?}: {x} vs {y}");
            }
        }
    });
}

#[test]
fn layer_norm_rows_match_scalar_within_tolerance() {
    let backends = vector_backends();
    run_cases("layer_norm", 48, 0x1A7E, |case, rng| {
        // Cross the 8-lane AVX2 body-tail split, including
        // d = 1 (zero variance, the eps path carries the normalization).
        let d = match case % 6 {
            0 => 1,
            1 => Rng::gen_range::<usize, _>(rng, 2..8),
            _ => Rng::gen_range::<usize, _>(rng, 8..80),
        };
        let rows = Rng::gen_range::<usize, _>(rng, 1..6);
        let eps = 1e-5;
        let src = vec_f32(rng, rows * d, -2.0, 2.0);
        let gamma = vec_f32(rng, d, -1.5, 1.5);
        let beta = vec_f32(rng, d, -1.0, 1.0);
        let with_aux = case % 2 == 0;

        let mut want = vec![f32::NAN; rows * d];
        let mut want_xhat = vec![f32::NAN; rows * d];
        let mut want_is = vec![f32::NAN; rows];
        simd::layer_norm_rows_with(
            Backend::Scalar,
            &src,
            &gamma,
            &beta,
            eps,
            d,
            &mut want,
            with_aux.then_some(&mut want_xhat[..]),
            with_aux.then_some(&mut want_is[..]),
        );
        for &bk in &backends {
            let mut got = vec![f32::NAN; rows * d];
            let mut got_xhat = vec![f32::NAN; rows * d];
            let mut got_is = vec![f32::NAN; rows];
            simd::layer_norm_rows_with(
                bk,
                &src,
                &gamma,
                &beta,
                eps,
                d,
                &mut got,
                with_aux.then_some(&mut got_xhat[..]),
                with_aux.then_some(&mut got_is[..]),
            );
            assert_close(&format!("ln {rows}x{d} {bk:?}"), &got, &want);
            if with_aux {
                assert_close(&format!("ln xhat {rows}x{d} {bk:?}"), &got_xhat, &want_xhat);
                assert_close(&format!("ln inv_std {rows}x{d} {bk:?}"), &got_is, &want_is);
            }
        }
    });
}

#[test]
fn attention_fm_forward_and_backward_match_scalar() {
    let backends = vector_backends();
    run_cases("attention_fm", 24, 0xFA77, |case, rng| {
        let b = Rng::gen_range::<usize, _>(rng, 1..3);
        let n = if case % 5 == 0 {
            1
        } else {
            Rng::gen_range::<usize, _>(rng, 1..12)
        };
        let nv = Rng::gen_range::<usize, _>(rng, 1..12);
        let l = Rng::gen_range::<usize, _>(rng, 1..70);
        let scale = Rng::gen_range::<f32, _>(rng, 0.1..1.3);
        let q = Tensor::from_vec(vec![b, n, l], vec_f32(rng, b * n * l, -1.0, 1.0)).unwrap();
        let k = Tensor::from_vec(vec![b, n, l], vec_f32(rng, b * n * l, -1.0, 1.0)).unwrap();
        let v = Tensor::from_vec(vec![b, nv, l], vec_f32(rng, b * nv * l, -1.0, 1.0)).unwrap();
        let dy = Tensor::from_vec(vec![b, nv, l], vec_f32(rng, b * nv * l, -1.0, 1.0)).unwrap();
        let mut scratch = vec![0.0f32; l];
        let mut want = vec![f32::NAN; b * nv * l];
        attention_fm_slices_with(
            Backend::Scalar,
            q.data(),
            k.data(),
            v.data(),
            b,
            n,
            nv,
            l,
            scale,
            &mut want,
            &mut scratch,
        );
        let (wdq, wdk, wdv) = backward(Backend::Scalar, [&q, &k, &v], scale, &dy);
        for &bk in &backends {
            let mut got = vec![f32::NAN; b * nv * l];
            attention_fm_slices_with(
                bk,
                q.data(),
                k.data(),
                v.data(),
                b,
                n,
                nv,
                l,
                scale,
                &mut got,
                &mut scratch,
            );
            assert_close(&format!("fm fwd {n}x{nv}x{l} {bk:?}"), &got, &want);
            let (dq, dk, dv_) = backward(bk, [&q, &k, &v], scale, &dy);
            assert_close(&format!("fm dq {bk:?}"), dq.data(), wdq.data());
            assert_close(&format!("fm dk {bk:?}"), dk.data(), wdk.data());
            assert_close(&format!("fm dv {bk:?}"), dv_.data(), wdv.data());
        }
    });
}

#[test]
fn i8_gemm_is_bitwise_identical_on_every_backend() {
    // Integer accumulation is exact, so the int8 GEMM carries a *bitwise*
    // cross-backend contract — stronger than the f32 tolerance above.
    let backends = vector_backends();
    run_cases("i8_gemm", 64, 0x18D0, |_case, rng| {
        let edge = [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33];
        let dim = |rng: &mut _| {
            if Rng::gen_range::<u32, _>(rng, 0..2) == 0 {
                edge[Rng::gen_range::<usize, _>(rng, 0..edge.len())]
            } else {
                Rng::gen_range::<usize, _>(rng, 1..48)
            }
        };
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let draw = |rng: &mut _, len: usize| -> Vec<i8> {
            (0..len)
                .map(|_| Rng::gen_range::<i8, _>(rng, -127..=127))
                .collect()
        };
        let a = draw(rng, m * k);
        let b = draw(rng, k * n);
        let mut want = vec![0i32; m * n];
        simd::i8_gemm_with(Backend::Scalar, &a, &b, &mut want, m, k, n);
        // Cross-check the scalar twin against a widened reference sum.
        for r in 0..m {
            for j in 0..n {
                let sum: i64 = (0..k)
                    .map(|p| i64::from(a[r * k + p]) * i64::from(b[p * n + j]))
                    .sum();
                assert_eq!(
                    i64::from(want[r * n + j]),
                    sum,
                    "scalar i8 gemm at ({r},{j})"
                );
            }
        }
        for &bk in &backends {
            let mut got = vec![i32::MIN; m * n];
            simd::i8_gemm_with(bk, &a, &b, &mut got, m, k, n);
            assert_eq!(got, want, "i8 gemm {m}x{k}x{n} {bk:?} must be bitwise");
        }
        // The dispatched entry (row-parallel fan-out) must agree too.
        let mut got = vec![i32::MIN; m * n];
        simd::i8_gemm(&a, &b, &mut got, m, k, n);
        assert_eq!(got, want, "dispatched i8 gemm {m}x{k}x{n} must be bitwise");
    });
}

#[test]
fn f16_storage_round_trips_and_bounds_error() {
    use mfaplace_tensor::half::{f16_slice_to_f32, f32_slice_to_f16};
    run_cases("f16_round_trip", 16, 0xF16, |_case, rng| {
        let len = Rng::gen_range::<usize, _>(rng, 1..257);
        let src = vec_f32(rng, len, -100.0, 100.0);
        let mut bits = vec![0u16; len];
        let mut back = vec![0.0f32; len];
        f32_slice_to_f16(&src, &mut bits);
        f16_slice_to_f32(&bits, &mut back);
        for (&s, &b) in src.iter().zip(&back) {
            // Relative error of one f16 rounding: ≤ 2^-11 of the value.
            assert!((s - b).abs() <= s.abs() * 4.8829e-4 + 1e-6, "{s} -> {b}");
        }
        // A second store/load of the same bits is the identity.
        let mut bits2 = vec![0u16; len];
        f32_slice_to_f16(&back, &mut bits2);
        assert_eq!(bits, bits2, "f16 re-store must be stable");
    });
}
