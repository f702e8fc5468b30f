//! Pins the bits of every backward arm of the tape.
//!
//! One small tape per `TapeOp` arm (plus the aliasing forms CAM and `x·x`
//! record), on ragged shapes: odd H/W, channel counts that are not
//! multiples of 8, and sequence lengths that are multiples of neither the
//! attention tile nor the query-lane width. Each tape seeds its op's output
//! with an upstream gradient holding `+0.0`, `−0.0` and subnormals, and
//! gives the op's first input a second path recorded *after* the op, so the
//! op's contribution to that input lands on an existing gradient (add mode)
//! while every other input receives its first contribution (overwrite
//! mode). The FNV-1a hash of every input gradient's bits is compared with
//! a recorded constant, one table per kernel backend.
//!
//! The finite-difference gradchecks are tolerance-based; this suite is what
//! catches a moved bit in a backward kernel, including a `−0.0` turned into
//! `+0.0` by a zero-fill-then-add.

use mfaplace_autograd::{Graph, Var};
use mfaplace_tensor::simd::{self, Backend};
use mfaplace_tensor::Tensor;

/// An input of `shape`: values in about `(−0.9, 0.9)`, with exact `+0.0`
/// and `−0.0` entries (zero-skips and `x > 0` branches).
fn input(shape: &[usize], seed: usize) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |i| match (i + seed) % 13 {
        4 => 0.0,
        9 => -0.0,
        _ => (((i * 2_654_435_761 + seed * 97) % 1000) as f32 / 499.5 - 1.0) * 0.9,
    })
}

/// An upstream gradient of `shape`: `+0.0`, `−0.0` and a subnormal of
/// either sign at fixed strides; index 0 is always a normal value, so a
/// scalar output is seeded with one.
fn upstream(shape: &[usize], seed: usize) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |i| match i % 7 {
        1 => 0.0,
        3 => -0.0,
        5 if i % 2 == 0 => f32::from_bits(0x0000_0123),
        5 => -f32::from_bits(0x0004_5678),
        _ => (((i * 40_503 + seed * 131) % 997) as f32 / 498.0 - 1.0) * 1.3,
    })
}

/// FNV-1a over the little-endian bytes of every element's bits.
fn fnv1a(hash: u64, xs: &[f32]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Records `build` on `inputs` (all parameters), seeds its output `y` with
/// [`upstream`], adds the second path `Σ x₀ ⊙ u₂` into the first input after
/// the op, runs backward and hashes every input gradient in order.
fn arm(inputs: &[Tensor], build: impl FnOnce(&mut Graph, &[Var]) -> Var) -> u64 {
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.param(t.clone())).collect();
    let y = build(&mut g, &vars);
    let u = g.constant(upstream(g.value(y).shape(), 1));
    let seeded = g.mul(y, u);
    let l1 = g.sum(seeded);
    let u2 = g.constant(upstream(inputs[0].shape(), 2));
    let side = g.mul(vars[0], u2);
    let l2 = g.sum(side);
    let loss = g.add(l1, l2);
    g.backward(loss);
    vars.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        let grad = g.grad(v).expect("every input requires grad");
        fnv1a(h, grad.data())
    })
}

/// Every arm's hash, in a fixed order.
fn arm_hashes() -> Vec<(&'static str, u64)> {
    let t = input;
    let labels: Vec<u8> = (0..2 * 3 * 5).map(|i| ((i * 7 + 1) % 3) as u8).collect();
    let weights = [0.5f32, 1.0, 2.0];
    vec![
        (
            "add",
            arm(&[t(&[3, 7], 1), t(&[3, 7], 2)], |g, v| g.add(v[0], v[1])),
        ),
        (
            "sub",
            arm(&[t(&[3, 7], 3), t(&[3, 7], 4)], |g, v| g.sub(v[0], v[1])),
        ),
        (
            "mul",
            arm(&[t(&[3, 7], 5), t(&[3, 7], 6)], |g, v| g.mul(v[0], v[1])),
        ),
        (
            "mul_aliased",
            arm(&[t(&[3, 7], 7)], |g, v| g.mul(v[0], v[0])),
        ),
        ("neg", arm(&[t(&[3, 7], 8)], |g, v| g.neg(v[0]))),
        ("scale", arm(&[t(&[3, 7], 9)], |g, v| g.scale(v[0], -2.5))),
        (
            "matmul",
            arm(&[t(&[3, 5], 10), t(&[5, 4], 11)], |g, v| {
                g.matmul(v[0], v[1])
            }),
        ),
        (
            "bmm",
            arm(&[t(&[2, 3, 5], 12), t(&[2, 5, 4], 13)], |g, v| {
                g.bmm(v[0], v[1])
            }),
        ),
        (
            "bmm_nt",
            arm(&[t(&[2, 3, 5], 14), t(&[2, 4, 5], 15)], |g, v| {
                g.bmm_nt(v[0], v[1])
            }),
        ),
        (
            "bmm_tn",
            arm(&[t(&[2, 5, 3], 16), t(&[2, 5, 4], 17)], |g, v| {
                g.bmm_tn(v[0], v[1])
            }),
        ),
        (
            "attention_tm",
            arm(
                &[t(&[2, 37, 5], 18), t(&[2, 37, 5], 19), t(&[2, 37, 3], 20)],
                |g, v| g.attention(v[0], v[1], v[2], 0.37),
            ),
        ),
        (
            "attention_tm_aliased",
            arm(&[t(&[2, 5, 13], 21)], |g, v| {
                g.attention(v[0], v[0], v[0], 1.0)
            }),
        ),
        (
            "attention_fm",
            arm(
                &[t(&[2, 5, 37], 22), t(&[2, 5, 37], 23), t(&[2, 3, 37], 24)],
                |g, v| g.attention_fm(v[0], v[1], v[2], 0.8),
            ),
        ),
        (
            "conv2d_3x3",
            arm(&[t(&[2, 3, 7, 5], 25), t(&[5, 3, 3, 3], 26)], |g, v| {
                g.conv2d(v[0], v[1], 1, 1)
            }),
        ),
        (
            "conv2d_stride2",
            arm(&[t(&[2, 3, 7, 9], 27), t(&[3, 3, 3, 3], 28)], |g, v| {
                g.conv2d(v[0], v[1], 2, 0)
            }),
        ),
        (
            "conv2d_1x1_weight_first",
            arm(&[t(&[5, 3, 1, 1], 29), t(&[2, 3, 5, 7], 30)], |g, v| {
                g.conv2d(v[1], v[0], 1, 0)
            }),
        ),
        (
            "add_bias_channel",
            arm(&[t(&[2, 3, 5, 7], 31), t(&[3], 32)], |g, v| {
                g.add_bias_channel(v[0], v[1])
            }),
        ),
        (
            "add_bias_channel_bias_first",
            arm(&[t(&[3], 33), t(&[2, 3, 5, 7], 34)], |g, v| {
                g.add_bias_channel(v[1], v[0])
            }),
        ),
        (
            "add_bias_row",
            arm(&[t(&[2, 7, 5], 35), t(&[5], 36)], |g, v| {
                g.add_bias_row(v[0], v[1])
            }),
        ),
        (
            "add_bias_row_bias_first",
            arm(&[t(&[5], 37), t(&[2, 7, 5], 38)], |g, v| {
                g.add_bias_row(v[1], v[0])
            }),
        ),
        ("relu", arm(&[t(&[3, 13], 39)], |g, v| g.relu(v[0]))),
        (
            "leaky_relu",
            arm(&[t(&[3, 13], 40)], |g, v| g.leaky_relu(v[0], 0.1)),
        ),
        ("sigmoid", arm(&[t(&[3, 13], 41)], |g, v| g.sigmoid(v[0]))),
        ("gelu", arm(&[t(&[3, 13], 42)], |g, v| g.gelu(v[0]))),
        (
            "batch_norm2d",
            arm(&[t(&[2, 3, 5, 7], 43), t(&[3], 44), t(&[3], 45)], |g, v| {
                g.batch_norm2d(v[0], v[1], v[2], 1e-5).0
            }),
        ),
        (
            "batch_norm2d_gamma_first",
            arm(&[t(&[3], 46), t(&[2, 3, 5, 7], 47), t(&[3], 48)], |g, v| {
                g.batch_norm2d(v[1], v[0], v[2], 1e-5).0
            }),
        ),
        (
            "channel_affine",
            arm(&[t(&[2, 3, 5, 7], 49)], |g, v| {
                g.channel_affine(v[0], vec![1.5, -0.25, 0.0], vec![0.1, 0.2, 0.3])
            }),
        ),
        (
            "layer_norm",
            arm(&[t(&[2, 7, 5], 50), t(&[5], 51), t(&[5], 52)], |g, v| {
                g.layer_norm(v[0], v[1], v[2], 1e-5)
            }),
        ),
        (
            "layer_norm_beta_first",
            arm(&[t(&[5], 53), t(&[2, 7, 5], 54), t(&[5], 55)], |g, v| {
                g.layer_norm(v[1], v[2], v[0], 1e-5)
            }),
        ),
        (
            "softmax_last",
            arm(&[t(&[3, 13], 56)], |g, v| g.softmax_last(v[0])),
        ),
        (
            "cross_entropy2d",
            arm(&[t(&[2, 3, 3, 5], 57)], |g, v| {
                g.cross_entropy2d(v[0], &labels, None)
            }),
        ),
        (
            "cross_entropy2d_weighted",
            arm(&[t(&[2, 3, 3, 5], 58)], |g, v| {
                g.cross_entropy2d(v[0], &labels, Some(&weights))
            }),
        ),
        (
            "cross_entropy2d_sum",
            arm(&[t(&[2, 3, 3, 5], 59)], |g, v| {
                g.cross_entropy2d_sum(v[0], &labels, Some(&weights))
            }),
        ),
        (
            "mse_loss",
            arm(&[t(&[3, 7], 60)], |g, v| {
                g.mse_loss(v[0], &input(&[3, 7], 61))
            }),
        ),
        (
            "reshape",
            arm(&[t(&[2, 3, 5], 62)], |g, v| g.reshape(v[0], vec![6, 5])),
        ),
        (
            "permute",
            arm(&[t(&[2, 3, 4, 5], 63)], |g, v| {
                g.permute(v[0], &[3, 0, 2, 1])
            }),
        ),
        (
            "concat_channels",
            arm(
                &[
                    t(&[2, 3, 3, 5], 64),
                    t(&[2, 2, 3, 5], 65),
                    t(&[2, 5, 3, 5], 66),
                ],
                |g, v| g.concat_channels(&[v[0], v[1], v[2]]),
            ),
        ),
        (
            "concat_channels_repeated",
            arm(&[t(&[2, 3, 3, 5], 67), t(&[2, 2, 3, 5], 68)], |g, v| {
                g.concat_channels(&[v[1], v[0], v[1]])
            }),
        ),
        (
            "slice_channels",
            arm(&[t(&[2, 5, 3, 3], 69)], |g, v| g.slice_channels(v[0], 1, 4)),
        ),
        (
            "upsample2x",
            arm(&[t(&[2, 3, 5, 7], 70)], |g, v| g.upsample2x(v[0])),
        ),
        (
            "maxpool2x2",
            arm(&[t(&[2, 3, 6, 10], 71)], |g, v| g.maxpool2x2(v[0])),
        ),
        ("mean", arm(&[t(&[3, 7], 72)], |g, v| g.mean(v[0]))),
        ("sum", arm(&[t(&[3, 7], 73)], |g, v| g.sum(v[0]))),
        (
            "mul_scalar_var",
            arm(&[t(&[2, 3, 5], 74), t(&[1], 75)], |g, v| {
                g.mul_scalar_var(v[0], v[1])
            }),
        ),
        (
            "mul_scalar_var_scalar_first",
            arm(&[t(&[1], 76), t(&[2, 3, 5], 77)], |g, v| {
                g.mul_scalar_var(v[1], v[0])
            }),
        ),
    ]
}

/// `(arm, hash under the scalar backend, hash under AVX2)`, recorded from
/// the tape before its backward arithmetic moved into `tensor::lowlevel`.
const RECORDED: &[(&str, u64, u64)] = &[
    ("add", 0xbcfeaa9f5de873f0, 0xbcfeaa9f5de873f0),
    ("sub", 0x0d0448e9f297f270, 0x0d0448e9f297f270),
    ("mul", 0x7b943e629b3b32ca, 0x7b943e629b3b32ca),
    ("mul_aliased", 0x136a553b12f4a6de, 0x136a553b12f4a6de),
    ("neg", 0xcd6438de60359ee6, 0xcd6438de60359ee6),
    ("scale", 0x00a9b1a7c3b224ed, 0x00a9b1a7c3b224ed),
    ("matmul", 0x84c8d87618a45ec9, 0x44111593cee676e7),
    ("bmm", 0xa47e89d87e23893c, 0xf680aae563e91e60),
    ("bmm_nt", 0x27379bdfd60743e4, 0xfe2ed93c0a67dddc),
    ("bmm_tn", 0xb455d1c9f09276cc, 0x010cff42a2d65442),
    ("attention_tm", 0xb96c1416b688afb2, 0xf4705f0e9bd72ca0),
    (
        "attention_tm_aliased",
        0xbf662e9fb73fcc6d,
        0x744a04047b4d0134,
    ),
    ("attention_fm", 0x67d1c4f6043eec51, 0xcbe521b4f087a56e),
    ("conv2d_3x3", 0x208ffcd318b17988, 0x77584827f849df85),
    ("conv2d_stride2", 0xc95f2c371610b1a3, 0x750ecb18683f779c),
    (
        "conv2d_1x1_weight_first",
        0xbcb5b75475fe6071,
        0x3ccad89414afe6a5,
    ),
    ("add_bias_channel", 0x89badfc3ddb49c88, 0x89badfc3ddb49c88),
    (
        "add_bias_channel_bias_first",
        0x06b56eae1665f1cb,
        0x06b56eae1665f1cb,
    ),
    ("add_bias_row", 0x22ec70bcb10ecfb7, 0x22ec70bcb10ecfb7),
    (
        "add_bias_row_bias_first",
        0xa54511fb0f884902,
        0xa54511fb0f884902,
    ),
    ("relu", 0x81c7214933c773d5, 0x81c7214933c773d5),
    ("leaky_relu", 0xe7c974681b045fe4, 0xe7c974681b045fe4),
    ("sigmoid", 0x39252cf6cfb1cc75, 0x39252cf6cfb1cc75),
    ("gelu", 0xf148602cf8751820, 0xf148602cf8751820),
    ("batch_norm2d", 0x1dfb8cdabaceaa1d, 0x1dfb8cdabaceaa1d),
    (
        "batch_norm2d_gamma_first",
        0x4729c96468d9d0d2,
        0x4729c96468d9d0d2,
    ),
    ("channel_affine", 0xdcdf4f4608734645, 0xdcdf4f4608734645),
    ("layer_norm", 0x6de5eb6a89af1d01, 0xd2529908ef39513d),
    (
        "layer_norm_beta_first",
        0xe218c6cd56384c8c,
        0xe218c6cd56384c8c,
    ),
    ("softmax_last", 0x57e2f95473bfc0a4, 0xd104a01b9da7021c),
    ("cross_entropy2d", 0x6e2b0ac65f90aa12, 0x6e2b0ac65f90aa12),
    (
        "cross_entropy2d_weighted",
        0xbc6f812dcc70c5af,
        0xbc6f812dcc70c5af,
    ),
    (
        "cross_entropy2d_sum",
        0xea9bd68ab4a68a63,
        0xea9bd68ab4a68a63,
    ),
    ("mse_loss", 0x6b57fd7b71cea7e5, 0x6b57fd7b71cea7e5),
    ("reshape", 0x572759fd6b632f97, 0x572759fd6b632f97),
    ("permute", 0xdde83ba2acdba15f, 0xdde83ba2acdba15f),
    ("concat_channels", 0x98a6ae40397f00e4, 0x98a6ae40397f00e4),
    (
        "concat_channels_repeated",
        0x06b54031fa31b302,
        0x06b54031fa31b302,
    ),
    ("slice_channels", 0xeb10a7c8a74adf63, 0xeb10a7c8a74adf63),
    ("upsample2x", 0xc6fc31b92817bfee, 0xc6fc31b92817bfee),
    ("maxpool2x2", 0x8fe0894009d573f8, 0x8fe0894009d573f8),
    ("mean", 0x0112de2ac81ef8d4, 0x0112de2ac81ef8d4),
    ("sum", 0x7a02f0dae831a95a, 0x7a02f0dae831a95a),
    ("mul_scalar_var", 0xa77e0de8d556b645, 0xa77e0de8d556b645),
    (
        "mul_scalar_var_scalar_first",
        0x7799b841e9a525b7,
        0x7799b841e9a525b7,
    ),
];

#[test]
fn every_backward_arm_keeps_its_bits() {
    let backend = simd::active();
    let got = arm_hashes();
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), RECORDED.len(), "arm list changed:\n{table}");
    let mut moved = Vec::new();
    for ((name, h), &(rec_name, scalar, avx2)) in got.iter().zip(RECORDED) {
        assert_eq!(*name, rec_name, "arm order changed:\n{table}");
        let want = match backend {
            Backend::Scalar => scalar,
            Backend::Avx2 => avx2,
        };
        if *h != want {
            moved.push(*name);
        }
    }
    assert!(
        moved.is_empty(),
        "backward bits moved under {} in {moved:?}; this backend's hashes:\n{table}",
        backend.name()
    );
}
