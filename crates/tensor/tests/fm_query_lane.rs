//! Bitwise matrix for the feature-major attention forward's query-lane
//! kernel (`simd::fm_query_block`, the AVX2 path): every output must equal,
//! **bit for bit**, the composed
//! `permute → bmm → scale → permute → softmax → permute → bmm` chain run
//! under the same backend, at any pool thread count.
//!
//! The shapes walk the kernel's seams: a ragged last query block
//! (`L mod 8 ≠ 0`, including `L < 8`), a ragged key tail (the `exp_scalar`
//! lanes), one and several channel groups on either side (`n`, `nv` around
//! 8), batches, and `L` large enough for the pool fan-out. Under a backend
//! without the kernel (scalar, NEON) the same assertions hold for the path
//! that backend takes. The comparison against the retained four-pass tile
//! lives next to the kernels in `attention.rs`'s unit tests, which can name
//! the two private forwards.

use mfaplace_rt::pool;
use mfaplace_tensor::{attention_fm, Tensor};

/// `(n, nv)`: the diagonal the zoo produces plus lopsided pairs; 9 and 32
/// carry a score or value chain across channel groups.
const CHANNELS: [(usize, usize); 13] = [
    (1, 1),
    (2, 2),
    (3, 3),
    (4, 4),
    (8, 8),
    (16, 16),
    (32, 32),
    (1, 16),
    (16, 1),
    (3, 9),
    (9, 3),
    (2, 32),
    (32, 2),
];

const LENGTHS: [usize; 11] = [1, 7, 8, 9, 15, 16, 17, 31, 33, 100, 1030];

/// Composed feature-major (PAM) reference: `kᵀ·q` scores, transposed
/// row-softmax, `v·pᵀ` output — the op chain the tape records unfused.
fn composed(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
    let e = k.permute(&[0, 2, 1]).bmm(q).scale(scale);
    let p = e.permute(&[0, 2, 1]).softmax_lastdim();
    v.bmm(&p.permute(&[0, 2, 1]))
}

/// Deterministic values in `[-amp, amp]`, a different stream per `seed`.
fn tensor(shape: Vec<usize>, seed: usize, amp: f32) -> Tensor {
    Tensor::from_fn(shape, |i| {
        (((i * 2_654_435_761 + seed * 97) % 1000) as f32 / 499.5 - 1.0) * amp
    })
}

fn assert_bitwise(label: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: element {i}: {x} vs {y}");
    }
}

/// Fused forward against the composed chain at one thread and — where the
/// op is large enough to fan out at all — at 2, 3, 4 and 8.
fn check(label: &str, q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) {
    let want = pool::with_threads(1, || composed(q, k, v, scale));
    let l = q.shape()[2];
    let threads: &[usize] = if l >= 100 { &[1, 2, 3, 4, 8] } else { &[1] };
    for &nt in threads {
        let got = pool::with_threads(nt, || attention_fm(q, k, v, scale));
        assert_bitwise(&format!("{label} threads={nt}"), &got, &want);
    }
}

#[test]
fn shape_matrix_matches_composed_bitwise() {
    for (n, nv) in CHANNELS {
        for l in LENGTHS {
            for b in [1, 3] {
                let q = tensor(vec![b, n, l], 1, 0.7);
                let k = tensor(vec![b, n, l], 2, 0.7);
                let v = tensor(vec![b, nv, l], 3, 0.7);
                for scale in [1.0, 0.37] {
                    let label = format!("n={n} nv={nv} l={l} b={b} scale={scale}");
                    check(&label, &q, &k, &v, scale);
                }
            }
        }
    }
}

#[test]
fn aliased_operands_match_composed_bitwise() {
    // Self-attention of one tensor with itself: q, k and v are the same
    // allocation, as `PamBlock` would produce with shared projections.
    for (n, l) in [(2, 33), (4, 100), (9, 17)] {
        let x = tensor(vec![2, n, l], 4, 0.9);
        check(&format!("aliased n={n} l={l}"), &x, &x, &x, 0.5);
    }
}

#[test]
fn zero_rows_and_signed_zeros_match_composed_bitwise() {
    // The chains start from +0 and are never zero-skipped on the vector
    // backends; the scalar reference skips exact-zero multiplicands. Either
    // way the composed chain does the same, so ±0 inputs, whole zero
    // channels and zero-sum products must not move a bit.
    let (b, n, nv, l) = (2, 3, 9, 41);
    let signed = |seed: usize| {
        Tensor::from_fn(vec![b, n, l], |i| match (i + seed) % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => (((i * 7 + seed) % 13) as f32 - 6.0) * 0.21,
        })
    };
    let mut q = signed(0);
    let mut k = signed(2);
    let mut v = tensor(vec![b, nv, l], 5, 1.0);
    // Channel 1 of q entirely -0, channel 0 of k entirely +0, channels 0
    // and 8 of v zero with mixed signs.
    for bi in 0..b {
        for x in 0..l {
            q.data_mut()[(bi * n + 1) * l + x] = -0.0;
            k.data_mut()[bi * n * l + x] = 0.0;
            v.data_mut()[bi * nv * l + x] = if x % 2 == 0 { 0.0 } else { -0.0 };
            v.data_mut()[(bi * nv + 8) * l + x] = -0.0;
        }
    }
    check("signed zeros", &q, &k, &v, 1.0);
    check("signed zeros, negative scale", &q, &k, &v, -0.37);
    let zq = Tensor::zeros(vec![b, n, l]);
    check("all-zero q", &zq, &k, &v, 1.0);
    let zv = Tensor::zeros(vec![b, nv, l]);
    check("all-zero v", &q, &k, &zv, 1.0);
}

#[test]
fn wide_logits_flush_and_still_match_composed_bitwise() {
    // Logits spread over several hundred units: most `exp(s − max)` hit the
    // polynomial's clamp and flush to 0 (or land in the subnormals on the
    // way down), a few queries keep a handful of live keys.
    for (n, nv, l) in [(2, 2, 100), (4, 3, 33), (16, 16, 1030)] {
        for amp in [6.0, 14.0] {
            let q = tensor(vec![1, n, l], 6, amp);
            let k = tensor(vec![1, n, l], 7, amp);
            let v = tensor(vec![1, nv, l], 8, 1.0);
            let label = format!("wide n={n} nv={nv} l={l} amp={amp}");
            check(&label, &q, &k, &v, 1.0);
            let out = attention_fm(&q, &k, &v, 1.0);
            assert!(out.data().iter().all(|x| x.is_finite()), "{label}: finite");
        }
    }
}
