//! Parallel-vs-serial kernel equivalence: every pooled kernel must be
//! **bitwise identical** to its serial path at any worker count. The
//! sizes below exceed the kernels' parallel-dispatch thresholds, and the
//! worker count is pinned with `pool::with_threads`, so the parallel path
//! genuinely executes even on a single-core host.

use mfaplace_rt::check::run_cases;
use mfaplace_rt::pool;
use mfaplace_tensor::{
    attention_fm, attention_fm_backward_into, attention_tm, attention_tm_backward_into,
    attention_tm_scratch, lowlevel, Tensor,
};

/// Runs `f` serially and at several forced worker counts; all results
/// must agree exactly, element for element (no tolerance).
fn assert_bitwise_equal_across_threads(label: &str, f: impl Fn() -> Tensor) {
    let serial = pool::with_threads(1, &f);
    for nt in [2, 3, 4, 8] {
        let parallel = pool::with_threads(nt, &f);
        assert_eq!(
            parallel.shape(),
            serial.shape(),
            "{label}: shape at nt={nt}"
        );
        let bits_equal = parallel
            .data()
            .iter()
            .zip(serial.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bits_equal, "{label}: parallel result differs at nt={nt}");
    }
}

/// `lowlevel::col2im_into` of a 3×3, stride-1, pad-1 lowering into a
/// `[b, c, h, w]` tensor, from a NaN-filled buffer it must overwrite.
fn col2im(cols: &Tensor, b: usize, c: usize, h: usize, w: usize) -> Tensor {
    let mut out = vec![f32::NAN; b * c * h * w];
    lowlevel::col2im_into(cols.data(), b, c, h, w, 3, 3, 1, 1, &mut out);
    Tensor::from_vec(vec![b, c, h, w], out).expect("col2im shape")
}

#[test]
fn gemm_parallel_matches_serial_bitwise() {
    run_cases("gemm_parallel_matches_serial", 4, 0xE9_01, |case, rng| {
        // 96x64 * 64x96 exceeds the GEMM parallel threshold (~590k MACs).
        let a = Tensor::randn(vec![96, 64], 1.0, rng);
        let b = Tensor::randn(vec![64, 96], 1.0, rng);
        let _ = case;
        assert_bitwise_equal_across_threads("gemm", || a.matmul2d(&b));
    });
}

#[test]
fn bmm_parallel_matches_serial_bitwise() {
    run_cases("bmm_parallel_matches_serial", 2, 0xE9_02, |_case, rng| {
        let a = Tensor::randn(vec![16, 32, 48], 1.0, rng);
        let b = Tensor::randn(vec![16, 48, 32], 1.0, rng);
        assert_bitwise_equal_across_threads("bmm", || a.bmm(&b));
    });
}

#[test]
fn im2col_parallel_matches_serial_bitwise() {
    run_cases(
        "im2col_parallel_matches_serial",
        2,
        0xE9_03,
        |_case, rng| {
            // rows = 8*9 = 72, cols = 4*64*64 = 16384 -> 1.18M elements.
            let x = Tensor::randn(vec![4, 8, 64, 64], 1.0, rng);
            assert_bitwise_equal_across_threads("im2col", || x.im2col(3, 3, 1, 1));
        },
    );
}

#[test]
fn col2im_parallel_matches_serial_bitwise() {
    run_cases(
        "col2im_parallel_matches_serial",
        2,
        0xE9_04,
        |_case, rng| {
            let x = Tensor::randn(vec![4, 8, 64, 64], 1.0, rng);
            let cols = x.im2col(3, 3, 1, 1);
            assert_bitwise_equal_across_threads("col2im", || col2im(&cols, 4, 8, 64, 64));
        },
    );
}

#[test]
fn conv_forward_backward_parallel_matches_serial_bitwise() {
    // Full conv lowering round trip: im2col -> GEMM -> col2im, as the nn
    // layer's forward/backward passes compose them.
    run_cases("conv_parallel_matches_serial", 2, 0xE9_05, |_case, rng| {
        let x = Tensor::randn(vec![2, 8, 64, 64], 1.0, rng);
        let w = Tensor::randn(vec![16, 8 * 9], 0.1, rng);
        assert_bitwise_equal_across_threads("conv_forward", || {
            let cols = x.im2col(3, 3, 1, 1);
            w.matmul2d(&cols)
        });
        let wt = w.transpose2d();
        assert_bitwise_equal_across_threads("conv_backward_data", || {
            let cols = x.im2col(3, 3, 1, 1);
            let grad_cols = wt.matmul2d(&w.matmul2d(&cols));
            col2im(&grad_cols, 2, 8, 64, 64)
        });
    });
}

#[test]
fn pooling_and_upsample_parallel_match_serial_bitwise() {
    run_cases(
        "pool_up_parallel_matches_serial",
        2,
        0xE9_06,
        |_case, rng| {
            let x = Tensor::randn(vec![4, 16, 64, 64], 1.0, rng);
            assert_bitwise_equal_across_threads("maxpool", || x.maxpool2x2().0);
            assert_bitwise_equal_across_threads("upsample", || x.upsample2x());
            // The 2×2 sum into a buffer it must overwrite.
            assert_bitwise_equal_across_threads("downsample", || {
                let mut out = vec![f32::NAN; x.numel() / 4];
                lowlevel::upsample2x_backward_into(x.data(), 32, 32, &mut out);
                Tensor::from_vec(vec![4, 16, 32, 32], out).expect("downsample shape")
            });
            // Argmax indices must agree too.
            let serial = pool::with_threads(1, || x.maxpool2x2().1);
            let parallel = pool::with_threads(4, || x.maxpool2x2().1);
            assert_eq!(serial, parallel, "maxpool argmax indices");
        },
    );
}

/// The signature of the attention backwards.
type Backward = fn(&Tensor, &Tensor, &Tensor, f32, &Tensor, &mut [f32], &mut [f32], &mut [f32]);

/// Runs an attention backward into NaN-filled buffers and flattens the
/// gradient triple into one tensor so the thread-count helper compares all
/// three at once.
fn cat3(kernel: Backward, [q, k, v]: [&Tensor; 3], scale: f32, dy: &Tensor) -> Tensor {
    let mut grads = [q, k, v].map(|x| vec![f32::NAN; x.numel()]);
    let [dq, dk, dv] = &mut grads;
    kernel(q, k, v, scale, dy, dq, dk, dv);
    let data = grads.concat();
    Tensor::from_vec(vec![data.len()], data).expect("cat3 shape")
}

#[test]
fn attention_parallel_matches_serial_bitwise() {
    run_cases(
        "attention_parallel_matches_serial",
        2,
        0xE9_08,
        |_case, rng| {
            // Both layouts above the fan-out threshold (L²·(D+Dv) ≥ 2¹⁹,
            // more than one query block), with a ragged last block, Dv != D
            // and two batches — under whichever kernel backend is active.
            let (b, l, d, dv) = (2, 150, 24, 16);
            assert!(l % 16 != 0 && l * l * (d + dv) >= 1 << 19);
            let q = Tensor::randn(vec![b, l, d], 1.0, rng);
            let k = Tensor::randn(vec![b, l, d], 1.0, rng);
            let v = Tensor::randn(vec![b, l, dv], 1.0, rng);
            let dy = Tensor::randn(vec![b, l, dv], 1.0, rng);
            assert_bitwise_equal_across_threads("attention_tm", || attention_tm(&q, &k, &v, 0.2));
            let tm_backward: Backward = |q, k, v, scale, dy, dq, dk, dv| {
                let [b, l, d] = [0, 1, 2].map(|i| q.shape()[i]);
                let mut sc = vec![f32::NAN; attention_tm_scratch(b, l, d, v.shape()[2], false)[1]];
                attention_tm_backward_into(q, k, v, scale, dy, dq, dk, dv, &mut sc);
            };
            assert_bitwise_equal_across_threads("attention_tm_backward", || {
                cat3(tm_backward, [&q, &k, &v], 0.2, &dy)
            });

            let (b, n, nv, l) = (2, 3, 5, 300);
            assert!(l % 16 != 0 && l * l * (n + nv) >= 1 << 19);
            let q = Tensor::randn(vec![b, n, l], 1.0, rng);
            let k = Tensor::randn(vec![b, n, l], 1.0, rng);
            let v = Tensor::randn(vec![b, nv, l], 1.0, rng);
            let dy = Tensor::randn(vec![b, nv, l], 1.0, rng);
            assert_bitwise_equal_across_threads("attention_fm", || attention_fm(&q, &k, &v, 0.6));
            assert_bitwise_equal_across_threads("attention_fm_backward", || {
                cat3(attention_fm_backward_into, [&q, &k, &v], 0.6, &dy)
            });

            // The paper-resolution PAM's channel count (n = nv = 2), long
            // enough to fan out with so few channels and ragged in both the
            // query blocks and the key tail: where a backend has the
            // query-lane forward, this is its parallel arm.
            let (b, n, l) = (2, 2, 373);
            assert!(l % 8 != 0 && l * l * (n + n) >= 1 << 19);
            let q = Tensor::randn(vec![b, n, l], 1.0, rng);
            let k = Tensor::randn(vec![b, n, l], 1.0, rng);
            let v = Tensor::randn(vec![b, n, l], 1.0, rng);
            assert_bitwise_equal_across_threads("attention_fm n=nv=2", || {
                attention_fm(&q, &k, &v, 1.0)
            });
        },
    );
}

#[test]
fn transpose_blocked_matches_reference() {
    run_cases(
        "transpose_blocked_matches_reference",
        4,
        0xE9_07,
        |_case, rng| {
            // Sizes straddling the 32-wide tile, including non-multiples.
            for (m, n) in [(31, 33), (64, 64), (1, 97), (100, 3)] {
                let t = Tensor::randn(vec![m, n], 1.0, rng);
                let tt = t.transpose2d();
                assert_eq!(tt.shape(), &[n, m]);
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(tt.at(&[j, i]).to_bits(), t.at(&[i, j]).to_bits());
                    }
                }
            }
        },
    );
}
