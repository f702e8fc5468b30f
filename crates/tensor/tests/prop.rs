//! Randomized tests of the tensor kernels (fixed seeds, in-tree harness).

use mfaplace_rt::check::{run_cases, vec_f32};
use mfaplace_rt::rng::Rng;
use mfaplace_tensor::{lowlevel, Tensor};

fn small_dims(rng: &mut mfaplace_rt::rng::StdRng) -> (usize, usize) {
    (rng.gen_range(1usize..6), rng.gen_range(1usize..6))
}

#[test]
fn reshape_preserves_data() {
    run_cases("reshape_preserves_data", 32, 0x7E_01, |_case, rng| {
        let t = Tensor::from_vec(vec![6, 6], vec_f32(rng, 36, -10.0, 10.0)).unwrap();
        let r = t.reshape(vec![4, 9]).unwrap();
        assert_eq!(r.data(), t.data());
        assert_eq!(r.reshape(vec![6, 6]).unwrap(), t);
    });
}

#[test]
fn transpose_is_involution() {
    run_cases("transpose_is_involution", 64, 0x7E_02, |_case, rng| {
        let (m, n) = small_dims(rng);
        let seed = rng.gen_range(0u64..1000);
        let t = Tensor::from_fn(vec![m, n], |i| ((i as u64 * 31 + seed) % 17) as f32);
        assert_eq!(t.transpose2d().transpose2d(), t);
    });
}

#[test]
fn matmul_identity_is_noop() {
    run_cases("matmul_identity_is_noop", 64, 0x7E_03, |_case, rng| {
        let (m, n) = small_dims(rng);
        let seed = rng.gen_range(0u64..1000);
        let t = Tensor::from_fn(vec![m, n], |i| ((i as u64 * 13 + seed) % 23) as f32 - 11.0);
        let i = Tensor::eye(n);
        assert_eq!(t.matmul2d(&i).data(), t.data());
        let il = Tensor::eye(m);
        assert_eq!(il.matmul2d(&t).data(), t.data());
    });
}

#[test]
fn matmul_distributes_over_addition() {
    run_cases(
        "matmul_distributes_over_addition",
        32,
        0x7E_04,
        |_case, rng| {
            let seed = rng.gen_range(0u64..500);
            let a = Tensor::from_fn(vec![3, 4], |i| ((i as u64 + seed) % 7) as f32 - 3.0);
            let b = Tensor::from_fn(vec![4, 2], |i| ((i as u64 * 3 + seed) % 5) as f32 - 2.0);
            let c = Tensor::from_fn(vec![4, 2], |i| ((i as u64 * 5 + seed) % 9) as f32 - 4.0);
            let lhs = a.matmul2d(&b.add(&c));
            let rhs = a.matmul2d(&b).add(&a.matmul2d(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                assert!((x - y).abs() < 1e-3);
            }
        },
    );
}

#[test]
fn permute_inverse_restores() {
    run_cases("permute_inverse_restores", 64, 0x7E_05, |_case, rng| {
        let seed = rng.gen_range(0u64..1000);
        let t = Tensor::from_fn(vec![2, 3, 4], |i| ((i as u64 ^ seed) % 19) as f32);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.permute(&[1, 2, 0]), t);
    });
}

#[test]
fn im2col_col2im_adjoint() {
    run_cases("im2col_col2im_adjoint", 48, 0x7E_06, |_case, rng| {
        let kh = rng.gen_range(1usize..4);
        let stride = rng.gen_range(1usize..3);
        let pad = rng.gen_range(0usize..2);
        let seed = rng.gen_range(0u64..100);
        let h = 6usize;
        if h + 2 * pad < kh {
            return;
        }
        let x = Tensor::from_fn(vec![1, 2, h, h], |i| {
            (((i as u64 * 7) ^ seed) % 13) as f32 - 6.0
        });
        let cols = x.im2col(kh, kh, stride, pad);
        let y = Tensor::from_fn(cols.shape().to_vec(), |i| {
            (((i as u64 * 11) ^ seed) % 9) as f32 - 4.0
        });
        let lhs: f64 = cols
            .data()
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let mut back = vec![f32::NAN; 2 * h * h];
        lowlevel::col2im_into(y.data(), 1, 2, h, h, kh, kh, stride, pad, &mut back);
        let rhs: f64 = x
            .data()
            .iter()
            .zip(&back)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    });
}

#[test]
fn softmax_rows_are_distributions() {
    run_cases(
        "softmax_rows_are_distributions",
        48,
        0x7E_07,
        |_case, rng| {
            let rows = rng.gen_range(1usize..5);
            let cols = rng.gen_range(1usize..6);
            let seed = rng.gen_range(0u64..100);
            let t = Tensor::from_fn(vec![rows, cols], |i| {
                (((i as u64 * 3) ^ seed) % 11) as f32 - 5.0
            });
            let s = t.softmax_lastdim();
            for row in s.data().chunks(cols) {
                let sum: f32 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
                assert!(row.iter().all(|&v| v >= 0.0));
            }
        },
    );
}

#[test]
fn concat_slice_roundtrip() {
    run_cases("concat_slice_roundtrip", 48, 0x7E_08, |_case, rng| {
        let c1 = rng.gen_range(1usize..4);
        let c2 = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..100);
        let a = Tensor::from_fn(vec![2, c1, 3, 3], |i| ((i as u64 ^ seed) % 7) as f32);
        let b = Tensor::from_fn(vec![2, c2, 3, 3], |i| ((i as u64 ^ (seed * 3)) % 5) as f32);
        let cat = Tensor::concat_channels(&[&a, &b]);
        let slice = |c0: usize, c1_: usize| {
            let mut out = vec![f32::NAN; 2 * (c1_ - c0) * 9];
            lowlevel::slice_channels_into(cat.data(), 2, c1 + c2, c0, c1_, 9, &mut out);
            Tensor::from_vec(vec![2, c1_ - c0, 3, 3], out).unwrap()
        };
        assert_eq!(slice(0, c1), a);
        assert_eq!(slice(c1, c1 + c2), b);
    });
}

#[test]
fn upsample_quadruples_mass() {
    run_cases("upsample_quadruples_mass", 48, 0x7E_09, |_case, rng| {
        let seed = rng.gen_range(0u64..100);
        let x = Tensor::from_fn(vec![1, 2, 3, 3], |i| ((i as u64 ^ seed) % 9) as f32);
        let up = x.upsample2x();
        assert!((up.sum() - 4.0 * x.sum()).abs() < 1e-3);
        let mut down = vec![f32::NAN; x.numel()];
        lowlevel::upsample2x_backward_into(up.data(), 3, 3, &mut down);
        let down = Tensor::from_vec(vec![1, 2, 3, 3], down).unwrap();
        assert_eq!(down.map(|v| v * 0.25), x);
    });
}

#[test]
fn maxpool_upper_bounds_mean() {
    run_cases("maxpool_upper_bounds_mean", 48, 0x7E_0A, |_case, rng| {
        let seed = rng.gen_range(0u64..100);
        let x = Tensor::from_fn(vec![1, 1, 4, 4], |i| ((i as u64 ^ seed) % 31) as f32);
        let (pooled, _) = x.maxpool2x2();
        assert!(pooled.mean() >= x.mean() - 1e-6);
        assert!(pooled.max() == x.max());
    });
}
