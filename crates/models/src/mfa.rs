//! The Multiscale Feature Attention (MFA) block (Fig. 3, Eqs. 4-7).
//!
//! The MFA block runs a *position attention module* (PAM) and a *channel
//! attention module* (CAM) — the dual attention of DANet \[14\] — in parallel
//! on a channel-reduced feature (reduction factor 16), sums the branches and
//! restores the original channel count with a 1x1 convolution. Placed on
//! every skip-connection level and before the transformer stage.

use mfaplace_autograd::{Graph, Var};
use mfaplace_nn::{Conv2d, Module};
use mfaplace_rt::rng::Rng;
use mfaplace_tensor::Tensor;

/// Position attention (Eqs. 4-5): spatial L x L attention where
/// `P_ji = softmax_i(B_i . C_j)` and the output is
/// `M^p_j = alpha * sum_i P_ji D_i + M_j` with learnable `alpha`
/// (initialized to 0, as in DANet).
#[derive(Debug, Clone)]
pub struct PamBlock {
    conv_b: Conv2d,
    conv_c: Conv2d,
    conv_d: Conv2d,
    alpha: Var,
    channels: usize,
}

impl PamBlock {
    /// Creates a PAM over `channels` feature maps.
    pub fn new(g: &mut Graph, channels: usize, rng: &mut impl Rng) -> Self {
        PamBlock {
            conv_b: Conv2d::new(g, channels, channels, 1, 1, 0, false, rng),
            conv_c: Conv2d::new(g, channels, channels, 1, 1, 0, false, rng),
            conv_d: Conv2d::new(g, channels, channels, 1, 1, 0, false, rng),
            alpha: g.param(Tensor::zeros(vec![1])),
            channels,
        }
    }

    /// The forward with the position attention `attend(g, q, k, v)` over
    /// `[B, N, L]` features (C the query, B the key, D the value): the fused
    /// feature-major op, or in the unit tests the composed chain.
    fn forward_with(
        &mut self,
        g: &mut Graph,
        m: Var,
        train: bool,
        attend: impl FnOnce(&mut Graph, Var, Var, Var) -> Var,
    ) -> Var {
        let (b, n, h, w) = g.value(m).dims4();
        assert_eq!(n, self.channels, "PAM channel mismatch");
        let l = h * w;
        let fb = self.conv_b.forward(g, m, train);
        let fc = self.conv_c.forward(g, m, train);
        let fd = self.conv_d.forward(g, m, train);
        let fb = g.reshape(fb, vec![b, n, l]);
        let fc = g.reshape(fc, vec![b, n, l]);
        let fd = g.reshape(fd, vec![b, n, l]);
        let attended = attend(g, fc, fb, fd);
        let m_flat = g.reshape(m, vec![b, n, l]);
        let scaled = g.mul_scalar_var(attended, self.alpha);
        let out = g.add(scaled, m_flat);
        g.reshape(out, vec![b, n, h, w])
    }
}

impl Module for PamBlock {
    /// Fused feature-major attention: none of the `[B, L, L]` score,
    /// softmax or permute tensors are materialized, and the result is
    /// bitwise identical to the composed `bmm → permute → softmax → bmm`
    /// chain.
    fn forward(&mut self, g: &mut Graph, m: Var, train: bool) -> Var {
        self.forward_with(g, m, train, |g, q, k, v| g.attention_fm(q, k, v, 1.0))
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.conv_b.params();
        p.extend(self.conv_c.params());
        p.extend(self.conv_d.params());
        p.push(self.alpha);
        p
    }
}

/// Channel attention (Eqs. 6-7): channel-wise Gram attention
/// `C_ji = softmax_i(M_i . M_j)` with output
/// `M^c_j = beta * sum_i C_ji M_i + M_j` and learnable `beta`.
///
/// (The paper writes `C in R^{L x L}`; as in DANet the Gram matrix is over
/// *channels*, i.e. `N x N` — we implement the channel form.)
#[derive(Debug, Clone)]
pub struct CamBlock {
    beta: Var,
}

impl CamBlock {
    /// Creates a CAM (its only parameter is the scalar `beta`).
    pub fn new(g: &mut Graph) -> Self {
        CamBlock {
            beta: g.param(Tensor::zeros(vec![1])),
        }
    }

    /// The forward with the channel self-attention `attend(g, m)` over the
    /// `[B, N, L]` feature (tokens are channel vectors).
    fn forward_with(
        &mut self,
        g: &mut Graph,
        m: Var,
        attend: impl FnOnce(&mut Graph, Var) -> Var,
    ) -> Var {
        let (b, n, h, w) = g.value(m).dims4();
        let m_flat = g.reshape(m, vec![b, n, h * w]);
        let attended = attend(g, m_flat);
        let scaled = g.mul_scalar_var(attended, self.beta);
        let out = g.add(scaled, m_flat);
        g.reshape(out, vec![b, n, h, w])
    }
}

impl Module for CamBlock {
    /// Fused token-major self-attention with `q = k = v = M`, bitwise
    /// identical to the composed `bmm → permute → softmax → bmm` chain,
    /// including the aliased-gradient accumulation order into `M`. That
    /// order is why the transposes to the feature-major kernel's layout sit
    /// inside [`Graph::attention`]: as permute nodes here, the three
    /// contributions would be summed before the residual's, not after it.
    fn forward(&mut self, g: &mut Graph, m: Var, _train: bool) -> Var {
        self.forward_with(g, m, |g, m| g.attention(m, m, m, 1.0))
    }

    fn params(&self) -> Vec<Var> {
        vec![self.beta]
    }
}

/// The full MFA block: 1x1 reduce (factor 16) -> PAM and CAM in parallel ->
/// sum -> 1x1 restore, with an outer residual connection preserving the
/// multiscale feature (Fig. 3).
#[derive(Debug, Clone)]
pub struct MfaBlock {
    reduce: Conv2d,
    pam: PamBlock,
    cam: CamBlock,
    restore: Conv2d,
    reduced: usize,
}

impl MfaBlock {
    /// Creates an MFA block over `channels` feature maps with the paper's
    /// channel reduction factor of 16.
    pub fn new(g: &mut Graph, channels: usize, rng: &mut impl Rng) -> Self {
        Self::with_reduction(g, channels, 16, rng)
    }

    /// Creates an MFA block with an explicit channel-reduction factor.
    ///
    /// The paper's factor of 16 assumes full-scale widths (C >= 16); the
    /// scaled experiments use a smaller factor so the reduced feature keeps
    /// more than one channel (preserving the *structure* of the dual
    /// attention rather than its literal arithmetic).
    pub fn with_reduction(
        g: &mut Graph,
        channels: usize,
        reduction: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let reduced = (channels / reduction.max(1)).max(1);
        MfaBlock {
            reduce: Conv2d::new(g, channels, reduced, 1, 1, 0, true, rng),
            pam: PamBlock::new(g, reduced, rng),
            cam: CamBlock::new(g),
            // Zero-init restore: the MFA block starts as the identity on
            // its outer residual and learns its attention contribution.
            restore: Conv2d::new_zeroed(g, reduced, channels, 1, 1, 0, true),
            reduced,
        }
    }

    /// Channel count of the internal reduced feature.
    pub fn reduced_channels(&self) -> usize {
        self.reduced
    }
}

impl Module for MfaBlock {
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool) -> Var {
        let r = self.reduce.forward(g, x, train);
        let p = self.pam.forward(g, r, train);
        let c = self.cam.forward(g, r, train);
        let sum = g.add(p, c);
        let restored = self.restore.forward(g, sum, train);
        g.add(restored, x)
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.reduce.params();
        p.extend(self.pam.params());
        p.extend(self.cam.params());
        p.extend(self.restore.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_rt::rng::SeedableRng;
    use mfaplace_rt::rng::StdRng;

    /// The composed PAM chain the fused op replaced: `E[i, j] = B_i · C_j`,
    /// `P_ji` the softmax over `i` of `E[i, j]` (a row softmax of `Eᵀ`), and
    /// `out_j = Σ_i P_ji D_i`.
    fn composed_pam(g: &mut Graph, c: Var, b: Var, d: Var) -> Var {
        let bt = g.permute(b, &[0, 2, 1]);
        let e = g.bmm(bt, c);
        let et = g.permute(e, &[0, 2, 1]);
        let p = g.softmax_last(et);
        let pt = g.permute(p, &[0, 2, 1]);
        g.bmm(d, pt)
    }

    /// The composed CAM chain: `E[i, j] = M_i · M_j`, `C_ji` the softmax over
    /// `i`, `out_j = Σ_i C_ji M_i`.
    fn composed_cam(g: &mut Graph, m: Var) -> Var {
        let mt = g.permute(m, &[0, 2, 1]);
        let e = g.bmm(m, mt);
        let et = g.permute(e, &[0, 2, 1]);
        let c = g.softmax_last(et);
        g.bmm(c, m)
    }

    /// [`MfaBlock::forward`] with both attentions composed.
    fn composed_mfa(mfa: &mut MfaBlock, g: &mut Graph, x: Var) -> Var {
        let r = mfa.reduce.forward(g, x, true);
        let p = mfa.pam.forward_with(g, r, true, composed_pam);
        let c = mfa.cam.forward_with(g, r, composed_cam);
        let sum = g.add(p, c);
        let restored = mfa.restore.forward(g, sum, true);
        g.add(restored, x)
    }

    /// Builds a block from a fixed seed with every scalar gate set to 0.8
    /// (at their zero init the gates would mask any backward divergence),
    /// runs `forward` and a backward on a fixed input, and returns the bits
    /// of the output, the input gradient and every parameter gradient.
    fn run_block<M: Module>(
        shape: &[usize],
        build: impl FnOnce(&mut Graph, &mut StdRng) -> M,
        forward: impl FnOnce(&mut M, &mut Graph, Var) -> Var,
    ) -> Vec<Vec<u32>> {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut block = build(&mut g, &mut rng);
        for &p in &block.params() {
            if g.value(p).numel() == 1 {
                *g.value_mut(p) = Tensor::from_vec(vec![1], vec![0.8]).expect("scalar");
            }
        }
        let x = g.param(Tensor::randn(shape.to_vec(), 1.0, &mut rng));
        let y = forward(&mut block, &mut g, x);
        let y2 = g.mul(y, y);
        let loss = g.mean(y2);
        g.backward(loss);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut out = vec![bits(g.value(y)), bits(g.grad(x).expect("input grad"))];
        for p in block.params() {
            out.push(g.grad(p).map_or_else(|| vec![0], bits));
        }
        out
    }

    #[test]
    fn pam_fused_matches_composed_bitwise() {
        // 5x5 and 7x7 grids give L = 25 / 49: odd, not tile multiples.
        for (shape, n) in [([2, 3, 5, 5], 3), ([1, 4, 7, 7], 4)] {
            let build = |g: &mut Graph, rng: &mut StdRng| PamBlock::new(g, n, rng);
            let fused = run_block(&shape, build, |b, g, x| b.forward(g, x, true));
            let composed = run_block(&shape, build, |b, g, x| {
                b.forward_with(g, x, true, composed_pam)
            });
            assert_eq!(fused, composed, "pam {shape:?}");
        }
    }

    #[test]
    fn cam_fused_matches_composed_bitwise() {
        // CAM aliases q = k = v onto one tensor; this exercises the fused
        // backward's accumulation order into the shared gradient buffer.
        for shape in [[2, 3, 5, 5], [1, 5, 6, 6]] {
            let build = |g: &mut Graph, _: &mut StdRng| CamBlock::new(g);
            let fused = run_block(&shape, build, |b, g, x| b.forward(g, x, true));
            let composed = run_block(&shape, build, |b, g, x| b.forward_with(g, x, composed_cam));
            assert_eq!(fused, composed, "cam {shape:?}");
        }
    }

    #[test]
    fn mfa_block_fused_matches_composed_bitwise() {
        let build = |g: &mut Graph, rng: &mut StdRng| MfaBlock::with_reduction(g, 8, 2, rng);
        let fused = run_block(&[1, 8, 8, 8], build, |b, g, x| b.forward(g, x, true));
        let composed = run_block(&[1, 8, 8, 8], build, composed_mfa);
        assert_eq!(fused, composed);
    }

    #[test]
    fn pam_preserves_shape() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut pam = PamBlock::new(&mut g, 3, &mut rng);
        let x = g.constant(Tensor::randn(vec![2, 3, 4, 4], 1.0, &mut rng));
        let y = pam.forward(&mut g, x, true);
        assert_eq!(g.value(y).shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn pam_with_zero_alpha_is_identity() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pam = PamBlock::new(&mut g, 2, &mut rng);
        let xt = Tensor::randn(vec![1, 2, 3, 3], 1.0, &mut rng);
        let x = g.constant(xt.clone());
        let y = pam.forward(&mut g, x, true);
        // alpha starts at 0 so the block must be exactly the identity.
        for (a, b) in g.value(y).data().iter().zip(xt.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cam_with_zero_beta_is_identity() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut cam = CamBlock::new(&mut g);
        let xt = Tensor::randn(vec![1, 3, 2, 2], 1.0, &mut rng);
        let x = g.constant(xt.clone());
        let y = cam.forward(&mut g, x, true);
        for (a, b) in g.value(y).data().iter().zip(xt.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn mfa_reduces_by_sixteen() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mfa = MfaBlock::new(&mut g, 32, &mut rng);
        assert_eq!(mfa.reduced_channels(), 2);
        let mfa_small = MfaBlock::new(&mut g, 8, &mut rng);
        assert_eq!(mfa_small.reduced_channels(), 1, "floor at one channel");
    }

    #[test]
    fn mfa_preserves_shape_and_trains() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut mfa = MfaBlock::new(&mut g, 4, &mut rng);
        let x = g.constant(Tensor::randn(vec![1, 4, 8, 8], 1.0, &mut rng));
        let y = mfa.forward(&mut g, x, true);
        assert_eq!(g.value(y).shape(), &[1, 4, 8, 8]);
        let loss = g.mean(y);
        g.backward(loss);
        let grads = mfa
            .params()
            .iter()
            .filter(|&&p| g.grad(p).is_some())
            .count();
        // alpha/beta receive zero-path gradients only through the residual,
        // but every conv must have a gradient.
        assert!(grads >= mfa.params().len() - 2, "missing gradients");
    }

    #[test]
    fn attention_rows_are_stochastic() {
        // The PAM attention map rows must sum to 1 (softmax over i).
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(5);
        let xt = Tensor::randn(vec![1, 2, 3], 1.0, &mut rng); // [B, N, L]
        let x = g.constant(xt);
        let xtv = g.permute(x, &[0, 2, 1]);
        let e = g.bmm(xtv, x);
        let et = g.permute(e, &[0, 2, 1]);
        let p = g.softmax_last(et);
        for row in g.value(p).data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
