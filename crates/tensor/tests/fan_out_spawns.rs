//! The fan-out of every pooled kernel family, pinned by the number of
//! worker threads it spawns: one above-threshold call per family at three
//! workers, plus a below-threshold call that must stay on the calling
//! thread. Each count follows from the family's split — the row blocks,
//! batches, planes, column blocks or query blocks it hands the pool — so a
//! change to any split moves a count here before it moves a bit
//! elsewhere.
//!
//! The spawn counter is process-wide, so this binary holds one test.

use mfaplace_rt::pool;
use mfaplace_tensor::simd::{self, Backend};
use mfaplace_tensor::{attention_fm_slices_with, lowlevel};

/// Worker threads `f` spawns at a budget of three.
fn spawned(f: impl FnOnce()) -> u64 {
    let before = pool::spawns();
    pool::with_threads(3, f);
    pool::spawns() - before
}

fn filled(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
        .collect()
}

fn gemm_spawns(bk: Backend, m: usize, k: usize, n: usize) -> [u64; 3] {
    let (a, b) = (filled(m * k), filled(k * n));
    let mut out = vec![0.0; m * n];
    [
        spawned(|| simd::gemm_with(bk, &a, &b, &mut out, m, k, n, false)),
        spawned(|| simd::gemm_nt_with(bk, &a, &b, &mut out, m, k, n, false)),
        spawned(|| simd::gemm_tn_with(bk, &a, &b, &mut out, m, k, n)),
    ]
}

fn attention_spawns(bk: Backend) -> u64 {
    // One batch of 256 positions over 8 channels.
    let (n, l) = (8, 256);
    let x = filled(n * l);
    let mut out = vec![0.0; n * l];
    let mut scratch = vec![0.0; l];
    spawned(|| attention_fm_slices_with(bk, &x, &x, &x, 1, n, n, l, 0.25, &mut out, &mut scratch))
}

#[test]
fn every_kernel_family_keeps_its_split() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut want: Vec<(String, u64)> = Vec::new();
    let mut expect = |label: &str, n, w| {
        got.push((label.to_owned(), n));
        want.push((label.to_owned(), w));
    };

    // Row blocks: 37 rows over three workers are three blocks of 13; four
    // rows are two blocks of two; a small product stays serial.
    let vector = simd::supported()
        .into_iter()
        .find(|&b| b != Backend::Scalar);
    for bk in [Some(Backend::Scalar), vector].into_iter().flatten() {
        let name = bk.name();
        for ((m, k, n), want) in [((37, 128, 128), 2), ((4, 512, 256), 1), ((8, 8, 8), 0)] {
            let [nn, nt, tn] = gemm_spawns(bk, m, k, n);
            expect(&format!("{name} gemm nn {m}x{k}x{n}"), nn, want);
            expect(&format!("{name} gemm nt {m}x{k}x{n}"), nt, want);
            expect(&format!("{name} gemm tn {m}x{k}x{n}"), tn, want);
        }
        // The scalar attention loop never fans out.
        let fm_want = if bk == Backend::Scalar { 0 } else { 2 };
        expect(
            &format!("{name} attention fm 8x256"),
            attention_spawns(bk),
            fm_want,
        );
    }
    let (a, b) = (vec![1i8; 37 * 128], vec![1i8; 128 * 128]);
    let mut out = vec![0i32; 37 * 128];
    expect(
        "i8 gemm 37x128x128",
        spawned(|| simd::i8_gemm(&a, &b, &mut out, 37, 128, 128)),
        2,
    );

    // Batches: two batches, fewer than the workers, fan out inside each
    // product; four batches fan out as two buckets of two, serial inside.
    let (m, k, n) = (64, 64, 128);
    let (a, b) = (filled(4 * m * k), filled(4 * k * n));
    let mut out = vec![0.0; 4 * m * n];
    let two = spawned(|| {
        lowlevel::bmm_into(
            &a[..2 * m * k],
            &b[..2 * k * n],
            &mut out[..2 * m * n],
            2,
            m,
            k,
            n,
        )
    });
    expect("bmm bt=2", two, 4);
    expect(
        "bmm bt=4",
        spawned(|| lowlevel::bmm_into(&a, &b, &mut out, 4, m, k, n)),
        1,
    );

    // Convolution column blocks and the im2col rows of the same shape.
    let dims = lowlevel::ConvDims {
        b: 1,
        c: 16,
        h: 64,
        w: 64,
        oc: 16,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let x = filled(16 * 64 * 64);
    let w = filled(16 * 16 * 9);
    let mut y = vec![0.0; 16 * 64 * 64];
    expect(
        "conv 16x64x64 3x3",
        spawned(|| lowlevel::conv2d_into(&x, &w, dims, None, None, false, &mut y)),
        2,
    );
    let mut cols = vec![0.0; 16 * 9 * 64 * 64];
    expect(
        "im2col 16x64x64 3x3",
        spawned(|| lowlevel::im2col_into(&x, 1, 16, 64, 64, 3, 3, 1, 1, &mut cols)),
        2,
    );

    // Planes: four planes over three workers are two buckets of two.
    let src = filled(4 * 64 * 64);
    let mut up = vec![0.0; 4 * src.len()];
    expect(
        "upsample 4x64x64",
        spawned(|| lowlevel::upsample2x_into(&src, 4, 64, 64, &mut up)),
        1,
    );
    let mut dx = vec![0.0; src.len()];
    expect(
        "upsample backward 4x64x64",
        spawned(|| lowlevel::upsample2x_backward_into(&up, 64, 64, &mut dx)),
        1,
    );
    let src = filled(4 * 128 * 128);
    let mut pooled = vec![0.0; 4 * 64 * 64];
    let mut arg = vec![0usize; pooled.len()];
    expect(
        "maxpool 4x128x128",
        spawned(|| lowlevel::maxpool2x2_into(&src, 4, 128, 128, &mut pooled, None)),
        1,
    );
    expect(
        "maxpool argmax 4x128x128",
        spawned(|| lowlevel::maxpool2x2_into(&src, 4, 128, 128, &mut pooled, Some(&mut arg))),
        1,
    );
    expect(
        "maxpool 4x8x8",
        spawned(|| lowlevel::maxpool2x2_into(&src[..256], 4, 8, 8, &mut pooled[..64], None)),
        0,
    );

    for (g, w) in got.iter().zip(&want) {
        println!("{:<32} spawns {} (want {})", g.0, g.1, w.1);
    }
    assert_eq!(got, want);
}
