//! Finite-difference gradient verification for every autograd primitive.

use mfaplace_autograd::gradcheck::assert_grads_close;
use mfaplace_autograd::{Graph, Var};
use mfaplace_rt::rng::SeedableRng;
use mfaplace_rt::rng::StdRng;
use mfaplace_tensor::Tensor;

const EPS: f32 = 1e-2;
const TOL: f32 = 3e-2;

fn rt(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape.to_vec(), 1.0, &mut rng)
}

#[test]
fn grad_add_sub_mul() {
    let a = rt(&[2, 3], 1);
    let b = rt(&[2, 3], 2);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g, v| {
        let s = g.add(v[0], v[1]);
        g.mean(s)
    });
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g, v| {
        let s = g.sub(v[0], v[1]);
        let s2 = g.mul(s, s);
        g.mean(s2)
    });
    assert_grads_close(&[a, b], EPS, TOL, |g, v| {
        let s = g.mul(v[0], v[1]);
        g.sum(s)
    });
}

#[test]
fn grad_neg_scale() {
    let a = rt(&[4], 3);
    assert_grads_close(&[a], EPS, TOL, |g, v| {
        let n = g.neg(v[0]);
        let s = g.scale(n, 2.5);
        let sq = g.mul(s, s);
        g.mean(sq)
    });
}

#[test]
fn grad_matmul() {
    let a = rt(&[3, 4], 4);
    let b = rt(&[4, 2], 5);
    assert_grads_close(&[a, b], EPS, TOL, |g, v| {
        let c = g.matmul(v[0], v[1]);
        let c2 = g.mul(c, c);
        g.mean(c2)
    });
}

#[test]
fn grad_bmm() {
    let a = rt(&[2, 3, 4], 6);
    let b = rt(&[2, 4, 2], 7);
    assert_grads_close(&[a, b], EPS, TOL, |g, v| {
        let c = g.bmm(v[0], v[1]);
        let c2 = g.mul(c, c);
        g.mean(c2)
    });
}

#[test]
fn grad_conv2d() {
    let x = rt(&[2, 3, 5, 5], 8);
    let w = rt(&[4, 3, 3, 3], 9);
    assert_grads_close(&[x, w], EPS, TOL, |g, v| {
        let y = g.conv2d(v[0], v[1], 1, 1);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_conv2d_strided() {
    let x = rt(&[1, 2, 6, 6], 10);
    let w = rt(&[3, 2, 3, 3], 11);
    assert_grads_close(&[x, w], EPS, TOL, |g, v| {
        let y = g.conv2d(v[0], v[1], 2, 1);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_bias_ops() {
    let x = rt(&[2, 3, 2, 2], 12);
    let b = rt(&[3], 13);
    assert_grads_close(&[x.clone(), b.clone()], EPS, TOL, |g, v| {
        let y = g.add_bias_channel(v[0], v[1]);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
    let xr = rt(&[5, 4], 14);
    let br = rt(&[4], 15);
    assert_grads_close(&[xr, br], EPS, TOL, |g, v| {
        let y = g.add_bias_row(v[0], v[1]);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_activations() {
    // Shift away from the ReLU kink to keep finite differences meaningful.
    let x = rt(&[3, 3], 16).map(|v| v + if v.abs() < 0.05 { 0.2 } else { 0.0 });
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        let y = g.relu(v[0]);
        g.sum(y)
    });
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        let y = g.leaky_relu(v[0], 0.1);
        g.sum(y)
    });
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        let y = g.sigmoid(v[0]);
        g.sum(y)
    });
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        let y = g.gelu(v[0]);
        g.sum(y)
    });
}

#[test]
fn grad_batch_norm() {
    let x = rt(&[2, 3, 3, 3], 17);
    let gamma = rt(&[3], 18).map(|v| v + 1.5);
    let beta = rt(&[3], 19);
    assert_grads_close(&[x, gamma, beta], EPS, 6e-2, |g, v| {
        let (y, _, _) = g.batch_norm2d(v[0], v[1], v[2], 1e-5);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_channel_affine() {
    let x = rt(&[2, 2, 2, 2], 20);
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        let y = g.channel_affine(v[0], vec![0.5, 2.0], vec![0.1, -0.2]);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_layer_norm() {
    let x = rt(&[4, 6], 21);
    let gamma = rt(&[6], 22).map(|v| v + 1.5);
    let beta = rt(&[6], 23);
    assert_grads_close(&[x, gamma, beta], EPS, 6e-2, |g, v| {
        let y = g.layer_norm(v[0], v[1], v[2], 1e-5);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_softmax() {
    let x = rt(&[3, 5], 24);
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        let s = g.softmax_last(v[0]);
        let s2 = g.mul(s, s);
        g.mean(s2)
    });
}

#[test]
fn grad_cross_entropy() {
    let x = rt(&[2, 4, 2, 2], 25);
    let labels: Vec<u8> = vec![0, 1, 2, 3, 3, 2, 1, 0];
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        g.cross_entropy2d(v[0], &labels, None)
    });
    let weights = [0.5f32, 1.0, 2.0, 4.0];
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        g.cross_entropy2d(v[0], &labels, Some(&weights))
    });
}

#[test]
fn grad_mse() {
    let x = rt(&[3, 3], 26);
    let target = rt(&[3, 3], 27);
    assert_grads_close(&[x], EPS, TOL, |g, v| g.mse_loss(v[0], &target));
}

#[test]
fn grad_shape_ops() {
    let x = rt(&[2, 3, 4], 28);
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        let r = g.reshape(v[0], vec![6, 4]);
        let r2 = g.mul(r, r);
        g.mean(r2)
    });
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        let p = g.permute(v[0], &[2, 0, 1]);
        let p2 = g.mul(p, p);
        g.mean(p2)
    });
}

#[test]
fn grad_concat_slice() {
    let a = rt(&[1, 2, 2, 2], 29);
    let b = rt(&[1, 3, 2, 2], 30);
    assert_grads_close(&[a.clone(), b.clone()], EPS, TOL, |g, v| {
        let c = g.concat_channels(&[v[0], v[1]]);
        let c2 = g.mul(c, c);
        g.mean(c2)
    });
    assert_grads_close(&[b], EPS, TOL, |g, v| {
        let s = g.slice_channels(v[0], 1, 3);
        let s2 = g.mul(s, s);
        g.mean(s2)
    });
}

#[test]
fn grad_upsample_maxpool() {
    let x = rt(&[1, 2, 4, 4], 31);
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        let u = g.upsample2x(v[0]);
        let u2 = g.mul(u, u);
        g.mean(u2)
    });
    // Spread values so the pooling argmax is stable under perturbation.
    let x = Tensor::from_fn(vec![1, 1, 4, 4], |i| (i as f32) * 0.7 - 3.0);
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        let p = g.maxpool2x2(v[0]);
        let p2 = g.mul(p, p);
        g.mean(p2)
    });
}

#[test]
fn grad_mul_scalar_var() {
    let x = rt(&[3, 3], 32);
    let s = Tensor::from_vec(vec![1], vec![0.7]).unwrap();
    assert_grads_close(&[x, s], EPS, TOL, |g, v| {
        let y = g.mul_scalar_var(v[0], v[1]);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_composed_attention_like_chain() {
    // A miniature PAM-style chain: softmax(B^T C) applied to D.
    let q = rt(&[1, 4, 3], 33);
    let k = rt(&[1, 4, 3], 34);
    let d = rt(&[1, 4, 3], 35);
    assert_grads_close(&[q, k, d], EPS, 6e-2, |g, v| {
        let qt = g.permute(v[0], &[0, 2, 1]); // [1,3,4]
        let e = g.bmm(qt, v[1]); // [1,3,3]
        let a = g.softmax_last(e);
        let at = g.permute(a, &[0, 2, 1]);
        let o = g.bmm(v[2], at); // [1,4,3]
        let o2 = g.mul(o, o);
        g.mean(o2)
    });
}

#[test]
fn grad_skips_constants() {
    let mut g = Graph::new();
    let w = g.param(rt(&[2, 2], 36));
    let c = g.constant(rt(&[2, 2], 37));
    let y = g.mul(w, c);
    let loss = g.mean(y);
    g.backward(loss);
    assert!(g.grad(w).is_some());
    assert!(g.grad(c).is_none(), "constants must not accumulate grads");

    // Mul and LayerNorm with a constant operand each: the dispatcher
    // computes nothing for the constant (the product's other factor, the
    // norm's gamma), and the parameters' gradients still arrive.
    let mut g = Graph::new();
    let w = g.param(rt(&[3, 4], 38));
    let c = g.constant(rt(&[3, 4], 39));
    let gamma = g.constant(rt(&[4], 40));
    let beta = g.param(rt(&[4], 41));
    let y = g.mul(c, w);
    let z = g.layer_norm(y, gamma, beta, 1e-5);
    let z2 = g.mul(z, z);
    let loss = g.mean(z2);
    g.backward(loss);
    assert!(g.grad(w).is_some() && g.grad(beta).is_some());
    assert!(g.grad(c).is_none() && g.grad(gamma).is_none());
}

#[test]
fn truncate_keeps_params() {
    let mut g = Graph::new();
    let w = g.param(Tensor::ones(vec![2]));
    let mark = g.mark();
    for step in 0..3 {
        let x = g.constant(Tensor::full(vec![2], step as f32 + 1.0));
        let y = g.mul(w, x);
        let loss = g.sum(y);
        g.zero_grads();
        g.backward(loss);
        let grad = g.grad(w).expect("param grad").clone();
        assert_eq!(grad.data(), &[step as f32 + 1.0, step as f32 + 1.0]);
        g.truncate(mark);
        assert_eq!(g.len(), mark);
    }
}

#[test]
fn gradient_descent_converges_on_quadratic() {
    // minimize ||w - t||^2 by plain SGD through the tape.
    let mut g = Graph::new();
    let target = Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.5]).unwrap();
    let w = g.param(Tensor::zeros(vec![3]));
    let mark = g.mark();
    for _ in 0..200 {
        let loss = g.mse_loss(w, &target);
        g.zero_grads();
        g.backward(loss);
        let gw = g.grad(w).unwrap().clone();
        g.value_mut(w).add_scaled_assign(&gw, -0.2);
        g.truncate(mark);
    }
    let final_w = g.value(w).clone();
    for (a, b) in final_w.data().iter().zip(target.data()) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

#[test]
fn second_backward_accumulates() {
    let mut g = Graph::new();
    let w = g.param(Tensor::ones(vec![1]));
    let x = g.constant(Tensor::full(vec![1], 2.0));
    let y = g.mul(w, x);
    let loss = g.sum(y);
    g.backward(loss);
    g.backward(loss);
    // Two backward passes without zero_grads accumulate. The loss node's
    // seed also accumulates, so the second pass contributes 2x: 2 + 4 = 6...
    // Verify against an explicit model of the accumulation semantics.
    let acc = g.grad(w).unwrap().data()[0];
    assert!(acc > 2.0, "gradients should accumulate, got {acc}");
}

fn scalar_chain(g: &mut Graph, v: &[Var]) -> Var {
    let a = g.relu(v[0]);
    let b = g.sigmoid(a);
    g.mean(b)
}

#[test]
fn check_reports_structure() {
    let x = rt(&[2, 2], 40).map(|v| v + 0.3);
    let reports = mfaplace_autograd::gradcheck::check(&[x], EPS, scalar_chain);
    assert_eq!(reports.len(), 1);
    assert!(reports[0].max_rel_diff < TOL);
}

#[test]
fn graph_and_var_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Graph>();
    assert_send::<mfaplace_autograd::Var>();
}

// ---------------------------------------------------------------------------
// Module-level checks: finite differences through whole paper modules
// (constructor-created parameters), not just primitives. Valid because these
// modules are stateless in train mode — no batch norm, dropout p = 0 — so
// the loss is a pure function of the parameter values.
// ---------------------------------------------------------------------------

use mfaplace_nn::Module;

/// Finite-difference check of `d loss / d params` for a module built by
/// `build`. Parameters are re-randomized after construction so zero-init
/// layers (e.g. the MFA restore projection) don't make the check vacuous.
fn module_gradcheck<M: Module>(
    seed: u64,
    x: Tensor,
    rtol: f32,
    build: impl Fn(&mut Graph, &mut StdRng) -> M,
) {
    use mfaplace_autograd::gradcheck::ATOL;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let mut module = build(&mut g, &mut rng);
    let params = module.params();
    assert!(!params.is_empty());
    for &p in &params {
        let shape = g.value(p).shape().to_vec();
        *g.value_mut(p) = Tensor::randn(shape, 0.5, &mut rng);
    }
    let mark = g.mark();
    let eval = |g: &mut Graph, module: &mut M| -> f32 {
        let xv = g.constant(x.clone());
        let y = module.forward(g, xv, true);
        let y2 = g.mul(y, y);
        let loss = g.mean(y2);
        let v = g.value(loss).item();
        g.truncate(mark);
        v
    };

    // Analytic gradients.
    let analytic: Vec<Tensor> = {
        let xv = g.constant(x.clone());
        let y = module.forward(&mut g, xv, true);
        let y2 = g.mul(y, y);
        let loss = g.mean(y2);
        g.zero_grads();
        g.backward(loss);
        let grads = params
            .iter()
            .map(|&p| {
                g.grad(p)
                    .expect("every module param reaches the loss")
                    .clone()
            })
            .collect();
        g.truncate(mark);
        grads
    };

    // Central differences, element by element.
    for (pi, &p) in params.iter().enumerate() {
        for k in 0..analytic[pi].data().len() {
            let old = g.value(p).data()[k];
            g.value_mut(p).data_mut()[k] = old + EPS;
            let up = eval(&mut g, &mut module);
            g.value_mut(p).data_mut()[k] = old - EPS;
            let down = eval(&mut g, &mut module);
            g.value_mut(p).data_mut()[k] = old;
            let numeric = (up - down) / (2.0 * EPS);
            let a = analytic[pi].data()[k];
            let diff = (a - numeric).abs();
            let bound = ATOL + rtol * a.abs().max(numeric.abs());
            assert!(
                diff <= bound,
                "param {pi} elem {k}: analytic {a} vs numeric {numeric} (diff {diff} > {bound})"
            );
        }
    }
}

#[test]
fn grad_mfa_pam_cam_module() {
    // The full MFA block: 1x1 reduce -> PAM + CAM dual attention -> restore
    // -> outer residual.
    let x = rt(&[1, 4, 4, 4], 60);
    module_gradcheck(61, x, 6e-2, |g, rng| {
        mfaplace_models::MfaBlock::with_reduction(g, 4, 2, rng)
    });
}

#[test]
fn grad_transformer_block_module() {
    // LayerNorm + multi-head self-attention + MLP, both residual branches.
    let x = rt(&[1, 5, 4], 62);
    module_gradcheck(63, x, 6e-2, |g, rng| {
        mfaplace_nn::TransformerBlock::new(g, 4, 2, 2, 0.0, rng)
    });
}

#[test]
fn grad_cross_entropy_sum() {
    // The un-normalized sum variant used by the data-parallel trainer.
    let x = rt(&[2, 4, 2, 2], 64);
    let labels: Vec<u8> = vec![0, 1, 2, 3, 3, 2, 1, 0];
    assert_grads_close(std::slice::from_ref(&x), EPS, TOL, |g, v| {
        g.cross_entropy2d_sum(v[0], &labels, None)
    });
    let weights = [0.5f32, 1.0, 2.0, 4.0];
    assert_grads_close(&[x], EPS, TOL, |g, v| {
        g.cross_entropy2d_sum(v[0], &labels, Some(&weights))
    });
}

#[test]
fn seeded_backward_on_sum_matches_normalized_backward() {
    // backward_seeded(sum_loss, 1/den) is how the trainer folds the batch
    // denominator into per-shard backward passes; it must agree with the
    // normalized loss + plain backward up to rounding.
    let x = rt(&[2, 4, 2, 2], 65);
    let labels: Vec<u8> = vec![0, 1, 2, 3, 3, 2, 1, 0];
    let weights = [0.5f32, 1.0, 2.0, 4.0];
    let den: f64 = labels.iter().map(|&y| f64::from(weights[y as usize])).sum();

    let mut g1 = Graph::new();
    let v1 = g1.param(x.clone());
    let l1 = g1.cross_entropy2d(v1, &labels, Some(&weights));
    g1.backward(l1);

    let mut g2 = Graph::new();
    let v2 = g2.param(x);
    let l2 = g2.cross_entropy2d_sum(v2, &labels, Some(&weights));
    g2.backward_seeded(l2, (1.0 / den) as f32);

    let sum = f64::from(g1.value(l1).item()) * den;
    let got = f64::from(g2.value(l2).item());
    assert!(
        (sum - got).abs() < 1e-4 * sum.abs().max(1.0),
        "{sum} vs {got}"
    );
    for (a, b) in g1
        .grad(v1)
        .unwrap()
        .data()
        .iter()
        .zip(g2.grad(v2).unwrap().data())
    {
        assert!(
            (a - b).abs() <= 1e-6 + 1e-4 * a.abs().max(b.abs()),
            "{a} vs {b}"
        );
    }
}

#[test]
fn grad_bmm_nt_tn() {
    let a = rt(&[2, 3, 4], 40);
    let b = rt(&[2, 5, 4], 41); // b in [B, N, K]: bmm_nt contracts over K
    assert_grads_close(&[a, b], EPS, TOL, |g, v| {
        let c = g.bmm_nt(v[0], v[1]);
        let c2 = g.mul(c, c);
        g.mean(c2)
    });
    let a = rt(&[2, 4, 3], 42); // a in [B, K, M]: bmm_tn contracts over K
    let b = rt(&[2, 4, 5], 43);
    assert_grads_close(&[a, b], EPS, TOL, |g, v| {
        let c = g.bmm_tn(v[0], v[1]);
        let c2 = g.mul(c, c);
        g.mean(c2)
    });
}

#[test]
fn grad_fused_attention_token_major() {
    let q = rt(&[2, 5, 3], 44);
    let k = rt(&[2, 5, 3], 45);
    let v = rt(&[2, 5, 4], 46);
    assert_grads_close(&[q, k, v], EPS, TOL, |g, vars| {
        let y = g.attention(vars[0], vars[1], vars[2], 0.7);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_fused_attention_feature_major() {
    let q = rt(&[2, 3, 6], 47);
    let k = rt(&[2, 3, 6], 48);
    let v = rt(&[2, 4, 6], 49);
    assert_grads_close(&[q, k, v], EPS, TOL, |g, vars| {
        let y = g.attention_fm(vars[0], vars[1], vars[2], 0.5);
        let y2 = g.mul(y, y);
        g.mean(y2)
    });
}

#[test]
fn grad_fused_attention_aliased_self() {
    // q = k = v through one parameter, like the CAM block.
    let m = rt(&[1, 4, 5], 50);
    assert_grads_close(&[m], EPS, TOL, |g, vars| {
        let y = g.attention(vars[0], vars[0], vars[0], 1.0);
        let out = g.add(y, vars[0]);
        let o2 = g.mul(out, out);
        g.mean(o2)
    });
}
