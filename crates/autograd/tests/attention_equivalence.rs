//! Randomized bitwise equivalence of the fused attention / transpose-aware
//! bmm graph ops against the composed op chains they replace.
//!
//! The contract (same one PR 1 established for parallel kernels): for every
//! shape — including odd lengths that are not multiples of the attention
//! tile and batch·head counts above one — the fused forward value and all
//! input gradients must be **bit-for-bit** equal to recording the composed
//! `permute → bmm → scale → softmax_last → bmm` chain on the same tape.

use mfaplace_autograd::{Graph, Var};
use mfaplace_rt::check::{run_cases, vec_f32};
use mfaplace_rt::rng::StdRng;
use mfaplace_tensor::Tensor;

fn rand_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, vec_f32(rng, n, -1.5, 1.5)).expect("rand tensor")
}

fn assert_bitwise(label: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{label}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Seeds a non-trivial upstream gradient: `loss = Σ (y ⊙ w)` with a random
/// constant `w`, so `d loss / d y = w` on both tapes.
fn weighted_sum_loss(g: &mut Graph, y: Var, w: &Tensor) -> Var {
    let wc = g.constant(w.clone());
    let prod = g.mul(y, wc);
    g.sum(prod)
}

fn grad(g: &Graph, v: Var) -> Tensor {
    g.grad(v).cloned().expect("gradient present")
}

#[test]
fn fused_tm_attention_matches_composed_bitwise() {
    // Odd L (not a multiple of the query-lane width), B·H > 1, odd head
    // dims, Dv != D, and one size large enough for the parallel path.
    let shapes: &[(usize, usize, usize, usize, usize)] = &[
        (1, 5, 5, 4, 2),
        (2, 7, 7, 3, 3),
        (3, 33, 33, 5, 7),
        (1, 129, 129, 16, 16),
    ];
    run_cases("fused_tm_attention", 12, 0xA77E_0001, |case, rng| {
        let (b, lq, lk, d, dv) = shapes[case % shapes.len()];
        let scale = if case % 2 == 0 { 1.0 } else { 0.37 };
        let q = rand_tensor(rng, vec![b, lq, d]);
        let k = rand_tensor(rng, vec![b, lk, d]);
        let v = rand_tensor(rng, vec![b, lk, dv]);
        let w = rand_tensor(rng, vec![b, lq, dv]);

        let mut gf = Graph::new();
        let (qf, kf, vf) = (
            gf.param(q.clone()),
            gf.param(k.clone()),
            gf.param(v.clone()),
        );
        let yf = gf.attention(qf, kf, vf, scale);
        let lf = weighted_sum_loss(&mut gf, yf, &w);
        gf.backward(lf);

        let mut gc = Graph::new();
        let (qc, kc, vc) = (gc.param(q), gc.param(k), gc.param(v));
        let kt = gc.permute(kc, &[0, 2, 1]);
        let scores = gc.bmm(qc, kt);
        let scaled = gc.scale(scores, scale);
        let attn = gc.softmax_last(scaled);
        let yc = gc.bmm(attn, vc);
        let lc = weighted_sum_loss(&mut gc, yc, &w);
        gc.backward(lc);

        assert_bitwise("tm value", gf.value(yf), gc.value(yc));
        assert_bitwise("tm dq", &grad(&gf, qf), &grad(&gc, qc));
        assert_bitwise("tm dk", &grad(&gf, kf), &grad(&gc, kc));
        assert_bitwise("tm dv", &grad(&gf, vf), &grad(&gc, vc));
    });
}

/// Fused feature-major attention against the composed PAM chain on two
/// tapes — scores from kᵀ·q, transposed row-softmax, output v·pᵀ — with
/// upstream gradient `w`: the value and all three gradients, bit for bit.
fn check_fm_against_composed(label: &str, q: Tensor, k: Tensor, v: Tensor, w: &Tensor, scale: f32) {
    let mut gf = Graph::new();
    let (qf, kf, vf) = (
        gf.param(q.clone()),
        gf.param(k.clone()),
        gf.param(v.clone()),
    );
    let yf = gf.attention_fm(qf, kf, vf, scale);
    let lf = weighted_sum_loss(&mut gf, yf, w);
    gf.backward(lf);

    let mut gc = Graph::new();
    let (qc, kc, vc) = (gc.param(q), gc.param(k), gc.param(v));
    let bt = gc.permute(kc, &[0, 2, 1]);
    let e = gc.bmm(bt, qc);
    let scaled = gc.scale(e, scale);
    let et = gc.permute(scaled, &[0, 2, 1]);
    let p = gc.softmax_last(et);
    let pt = gc.permute(p, &[0, 2, 1]);
    let yc = gc.bmm(vc, pt);
    let lc = weighted_sum_loss(&mut gc, yc, w);
    gc.backward(lc);

    assert_bitwise(&format!("{label} value"), gf.value(yf), gc.value(yc));
    assert_bitwise(&format!("{label} dq"), &grad(&gf, qf), &grad(&gc, qc));
    assert_bitwise(&format!("{label} dk"), &grad(&gf, kf), &grad(&gc, kc));
    assert_bitwise(&format!("{label} dv"), &grad(&gf, vf), &grad(&gc, vc));
}

#[test]
fn fused_fm_attention_matches_composed_bitwise() {
    let shapes: &[(usize, usize, usize, usize)] =
        &[(1, 2, 3, 5), (2, 3, 3, 33), (1, 4, 2, 100), (2, 5, 5, 49)];
    run_cases("fused_fm_attention", 12, 0xA77E_0002, |case, rng| {
        let (b, n, nv, l) = shapes[case % shapes.len()];
        let scale = if case % 2 == 0 { 1.0 } else { 0.61 };
        let q = rand_tensor(rng, vec![b, n, l]);
        let k = rand_tensor(rng, vec![b, n, l]);
        let v = rand_tensor(rng, vec![b, nv, l]);
        let w = rand_tensor(rng, vec![b, nv, l]);
        check_fm_against_composed("fm", q, k, v, &w, scale);
    });
}

#[test]
fn fused_fm_backward_matches_composed_across_query_lane_seams() {
    // Shapes for the feature-major backward's query-lane kernel (the AVX2
    // path; other backends check their own path the same way): channel
    // groups past 8 on either side, ragged query blocks and key tails, the
    // grid-64 model's L = 1024 position attention, logits wide enough that
    // most weights are subnormal or flushed, and a query column with no
    // upstream gradient.
    let shapes: &[(usize, usize, usize, usize, f32)] = &[
        (3, 1, 1, 7, 1.5),
        (1, 9, 16, 17, 1.5),
        (2, 16, 9, 64, 1.5),
        (1, 2, 2, 200, 8.0),
        (1, 2, 2, 1024, 1.5),
    ];
    run_cases("fused_fm_backward_lanes", 10, 0xA77E_0005, |case, rng| {
        let (b, n, nv, l, amp) = shapes[case % shapes.len()];
        let scale = if case < shapes.len() { 1.0 } else { 0.37 };
        let mut wide = |rows: usize| {
            Tensor::from_vec(vec![b, rows, l], vec_f32(rng, b * rows * l, -amp, amp))
                .expect("rand tensor")
        };
        let (q, k) = (wide(n), wide(n));
        let v = rand_tensor(rng, vec![b, nv, l]);
        let mut w = rand_tensor(rng, vec![b, nv, l]);
        for row in w.data_mut().chunks_mut(l) {
            row[l / 2] = 0.0;
        }
        let label = format!("b={b} n={n} nv={nv} l={l} amp={amp} scale={scale}");
        check_fm_against_composed(&label, q, k, v, &w, scale);
    });
}

#[test]
fn fused_aliased_self_attention_matches_composed_bitwise() {
    // CAM's q = k = v aliasing: all three gradient contributions land in
    // ONE accumulator, so the fused backward must add them in the composed
    // order (v, then k, then q) on top of the residual for bitwise equality.
    run_cases("fused_aliased_attention", 8, 0xA77E_0003, |case, rng| {
        let (b, n, l) = [(1, 3, 7), (2, 5, 9), (1, 8, 33), (2, 4, 4)][case % 4];
        let m = rand_tensor(rng, vec![b, n, l]);
        let w = rand_tensor(rng, vec![b, n, l]);

        let mut gf = Graph::new();
        let mf = gf.param(m.clone());
        let att_f = gf.attention(mf, mf, mf, 1.0);
        let out_f = gf.add(att_f, mf); // residual, like CamBlock
        let lf = weighted_sum_loss(&mut gf, out_f, &w);
        gf.backward(lf);

        let mut gc = Graph::new();
        let mc = gc.param(m);
        let mt = gc.permute(mc, &[0, 2, 1]);
        let e = gc.bmm(mc, mt);
        let et = gc.permute(e, &[0, 2, 1]);
        let c = gc.softmax_last(et);
        let att_c = gc.bmm(c, mc);
        let out_c = gc.add(att_c, mc);
        let lc = weighted_sum_loss(&mut gc, out_c, &w);
        gc.backward(lc);

        assert_bitwise("aliased value", gf.value(out_f), gc.value(out_c));
        assert_bitwise("aliased dm", &grad(&gf, mf), &grad(&gc, mc));
    });
}

#[test]
fn bmm_nt_tn_match_permuted_bmm_bitwise() {
    run_cases("bmm_transpose_aware", 10, 0xA77E_0004, |case, rng| {
        let (b, m, k, n) = [(1, 2, 3, 4), (3, 7, 5, 9), (2, 33, 17, 11)][case % 3];
        let a = rand_tensor(rng, vec![b, m, k]);
        let bt = rand_tensor(rng, vec![b, n, k]); // "b transposed" layout
        let w = rand_tensor(rng, vec![b, m, n]);

        // nt: a · bᵀ vs bmm(a, permute(bᵀ)).
        let mut gf = Graph::new();
        let (af, bf) = (gf.param(a.clone()), gf.param(bt.clone()));
        let yf = gf.bmm_nt(af, bf);
        let lf = weighted_sum_loss(&mut gf, yf, &w);
        gf.backward(lf);

        let mut gc = Graph::new();
        let (ac, bc) = (gc.param(a.clone()), gc.param(bt.clone()));
        let bp = gc.permute(bc, &[0, 2, 1]);
        let yc = gc.bmm(ac, bp);
        let lc = weighted_sum_loss(&mut gc, yc, &w);
        gc.backward(lc);

        assert_bitwise("nt value", gf.value(yf), gc.value(yc));
        assert_bitwise("nt da", &grad(&gf, af), &grad(&gc, ac));
        assert_bitwise("nt db", &grad(&gf, bf), &grad(&gc, bc));

        // tn: aᵀ · b vs bmm(permute(aᵀ), b).
        let at = rand_tensor(rng, vec![b, k, m]);
        let bb = rand_tensor(rng, vec![b, k, n]);
        let mut gf = Graph::new();
        let (af, bf) = (gf.param(at.clone()), gf.param(bb.clone()));
        let yf = gf.bmm_tn(af, bf);
        let lf = weighted_sum_loss(&mut gf, yf, &w);
        gf.backward(lf);

        let mut gc = Graph::new();
        let (ac, bc) = (gc.param(at), gc.param(bb));
        let ap = gc.permute(ac, &[0, 2, 1]);
        let yc = gc.bmm(ap, bc);
        let lc = weighted_sum_loss(&mut gc, yc, &w);
        gc.backward(lc);

        assert_bitwise("tn value", gf.value(yf), gc.value(yc));
        assert_bitwise("tn da", &grad(&gf, af), &grad(&gc, ac));
        assert_bitwise("tn db", &grad(&gf, bf), &grad(&gc, bc));
    });
}

#[test]
fn buffer_pool_recycles_across_mark_forward_truncate() {
    let mut g = Graph::new();
    let p = g.param(Tensor::from_vec(vec![4, 4], vec![0.25; 16]).unwrap());
    let mut first_out: Option<Vec<f32>> = None;
    for step in 0..4 {
        let mark = g.mark();
        let x = g.constant(Tensor::from_vec(vec![4, 4], vec![1.0; 16]).unwrap());
        let y = g.matmul(x, p);
        let z = g.relu(y);
        match &first_out {
            None => first_out = Some(g.value(z).data().to_vec()),
            Some(expect) => {
                // Recycling must be bitwise-invisible: identical inputs give
                // identical outputs whether storage came from the allocator
                // or the free list.
                assert_eq!(g.value(z).data(), &expect[..], "step {step} differs");
            }
        }
        g.truncate(mark);
    }
    let (hits, misses, bytes, retained) = g.pool_stats();
    assert!(hits > 0, "free list never hit (misses={misses})");
    assert!(bytes > 0, "no bytes recycled");
    assert!(retained > 0, "truncate retained nothing");
}

#[test]
fn no_grad_mode_drops_requires_grad_and_conv_cols() {
    let mut g = Graph::new();
    let w = g.param(Tensor::from_vec(vec![2, 3, 3, 3], vec![0.1; 54]).unwrap());
    g.set_grad_enabled(false);
    assert!(!g.grad_enabled());
    let x = g.constant(Tensor::from_vec(vec![1, 3, 8, 8], vec![0.5; 192]).unwrap());
    let (hits, misses, _, _) = g.pool_stats();
    let y = g.conv2d(x, w, 1, 1);
    // A no-grad conv builds no im2col lowering at all: it takes only its
    // output from the pool.
    let (hits2, misses2, _, _) = g.pool_stats();
    assert_eq!(
        hits2 + misses2 - hits - misses,
        1,
        "no-grad conv took buffers beyond its output"
    );
    let s = g.sum(y);
    // Nothing recorded grads, so backward must leave the param untouched.
    g.backward(s);
    assert!(g.grad(w).is_none(), "no-grad forward produced a gradient");
    // Re-enabling restores normal training behavior.
    g.set_grad_enabled(true);
    let x2 = g.constant(Tensor::from_vec(vec![1, 3, 8, 8], vec![0.5; 192]).unwrap());
    let y2 = g.conv2d(x2, w, 1, 1);
    let s2 = g.sum(y2);
    g.backward(s2);
    assert!(g.grad(w).is_some(), "grad mode did not restore");
}

#[test]
fn grad_conv_takes_only_its_output_and_saves_nothing() {
    let mut g = Graph::new();
    let w = g.param(Tensor::from_vec(vec![2, 3, 3, 3], vec![0.1; 54]).unwrap());
    let mark = g.mark();
    let x = g.constant(Tensor::from_vec(vec![1, 3, 8, 8], vec![0.5; 192]).unwrap());
    let (hits, misses, _, retained) = g.pool_stats();
    let y = g.conv2d(x, w, 1, 1);
    assert_eq!(g.value(y).shape(), &[1, 2, 8, 8]);
    // A conv that requires grad packs its forward from the input, as at
    // inference: it takes only its output from the pool.
    let (hits2, misses2, _, _) = g.pool_stats();
    assert_eq!(
        hits2 + misses2 - hits - misses,
        1,
        "grad conv took buffers beyond its output"
    );
    // Its node keeps nothing for the backward, so truncating it returns
    // only its value to the pool (the input stays on the tape).
    g.truncate(mark + 1);
    let (_, _, _, retained2) = g.pool_stats();
    assert_eq!(retained2 - retained, 1, "grad conv saved a buffer");
    // The backward re-lowers the input instead, and still reaches w.
    let y = g.conv2d(x, w, 1, 1);
    let s = g.sum(y);
    g.backward(s);
    assert!(g.grad(w).is_some(), "grad conv produced no weight gradient");
}
