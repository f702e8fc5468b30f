use mfaplace_autograd::{Graph, Var};
use mfaplace_rt::rng::Rng;

use crate::{Linear, Module};

/// Multi-head scaled-dot-product self-attention (Eq. 9 of the paper).
///
/// Operates on token sequences of shape `[B, L, D]`. `D` must be divisible
/// by the number of heads. Each head attends in the feature-major layout
/// `[dh, L]` of the one fused attention kernel.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadSelfAttention {
    /// Creates the four projection matrices.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(g: &mut Graph, dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert_eq!(dim % heads, 0, "attention dim must be divisible by heads");
        MultiHeadSelfAttention {
            wq: Linear::new(g, dim, dim, true, rng),
            wk: Linear::new(g, dim, dim, true, rng),
            wv: Linear::new(g, dim, dim, true, rng),
            wo: Linear::new(g, dim, dim, true, rng),
            heads,
            dim,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The forward with the per-head attention `attend(g, q, k, v, scale)`
    /// on `[B·H, ·, ·]` heads: the permutation `split` of `[B, L, H, dh]`,
    /// merged back by the permutation `merge` of the result.
    fn forward_heads(
        &mut self,
        g: &mut Graph,
        x: Var,
        train: bool,
        [split, merge]: [[usize; 4]; 2],
        attend: impl FnOnce(&mut Graph, Var, Var, Var, f32) -> Var,
    ) -> Var {
        let shape = g.value(x).shape().to_vec();
        assert_eq!(shape.len(), 3, "attention input must be [B, L, D]");
        let (b, l, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(d, self.dim, "attention dim mismatch");
        let (h, dh) = (self.heads, self.dim / self.heads);
        let heads = split.map(|a| [b, l, h, dh][a]);
        let split_heads = |g: &mut Graph, x| {
            let x = g.reshape(x, vec![b, l, h, dh]);
            let x = g.permute(x, &split);
            g.reshape(x, vec![b * h, heads[2], heads[3]])
        };

        let q = self.wq.forward(g, x, train);
        let k = self.wk.forward(g, x, train);
        let v = self.wv.forward(g, x, train);
        let (q, k, v) = (split_heads(g, q), split_heads(g, k), split_heads(g, v));
        let ctx = attend(g, q, k, v, 1.0 / (dh as f32).sqrt());

        let ctx = g.reshape(ctx, heads.to_vec());
        let ctx = g.permute(ctx, &merge); // [B, L, H, dh]
        let ctx = g.reshape(ctx, vec![b, l, self.dim]);
        self.wo.forward(g, ctx, train)
    }

    /// The forward with token-major heads (`[B·H, L, dh]`), the layout of
    /// the composed chain the unit tests hold the fused forward to.
    #[cfg(test)]
    fn forward_with(
        &mut self,
        g: &mut Graph,
        x: Var,
        train: bool,
        attend: impl FnOnce(&mut Graph, Var, Var, Var, f32) -> Var,
    ) -> Var {
        self.forward_heads(g, x, train, [[0, 2, 1, 3]; 2], attend)
    }
}

impl Module for MultiHeadSelfAttention {
    /// Fused streamed attention on feature-major heads: the split permutes
    /// straight to `[B·H, dh, L]` for [`Graph::attention_fm`] and the merge
    /// permutes back, bitwise identical to the composed `permute → bmm →
    /// scale → softmax → bmm` chain on token-major heads (each head operand
    /// has one consumer, so the permutes' gradients are exact).
    fn forward(&mut self, g: &mut Graph, x: Var, train: bool) -> Var {
        const FEATURE_MAJOR: [[usize; 4]; 2] = [[0, 2, 3, 1], [0, 3, 1, 2]];
        self.forward_heads(g, x, train, FEATURE_MAJOR, Graph::attention_fm)
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p.extend(self.wo.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use mfaplace_rt::rng::{SeedableRng, StdRng};
    use mfaplace_tensor::Tensor;

    use super::*;

    /// The composed chain the fused op replaced:
    /// `permute → bmm → scale → softmax_last → bmm`.
    fn composed(g: &mut Graph, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let kt = g.permute(k, &[0, 2, 1]); // [B*H, dh, L]
        let scores = g.bmm(q, kt); // [B*H, L, L]
        let scaled = g.scale(scores, scale);
        let attn = g.softmax_last(scaled);
        g.bmm(attn, v)
    }

    /// One MHSA forward + backward from a fixed seed, fused or composed:
    /// `(output, input grad, per-param grads)`.
    fn run(dim: usize, heads: usize, tokens: usize, fused: bool) -> (Tensor, Tensor, Vec<Tensor>) {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut mhsa = MultiHeadSelfAttention::new(&mut g, dim, heads, &mut rng);
        let x = g.param(Tensor::randn(vec![2, tokens, dim], 1.0, &mut rng));
        let y = if fused {
            mhsa.forward(&mut g, x, true)
        } else {
            mhsa.forward_with(&mut g, x, true, composed)
        };
        let y2 = g.mul(y, y);
        let loss = g.mean(y2);
        g.backward(loss);
        let grad = |v| g.grad(v).cloned().unwrap_or_else(|| Tensor::zeros(vec![1]));
        let dparams = mhsa.params().into_iter().map(grad).collect();
        (g.value(y).clone(), grad(x), dparams)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn mhsa_fused_matches_composed_bitwise() {
        // Odd token counts (not multiples of the attention tile) and several
        // head layouts, including single-head.
        for (dim, heads, tokens) in [(8, 2, 5), (6, 3, 9), (4, 1, 33), (8, 4, 7)] {
            let (y_f, dx_f, dp_f) = run(dim, heads, tokens, true);
            let (y_c, dx_c, dp_c) = run(dim, heads, tokens, false);
            let label = format!("mhsa d{dim} h{heads} t{tokens}");
            assert_eq!(bits(&y_f), bits(&y_c), "{label} value");
            assert_eq!(bits(&dx_f), bits(&dx_c), "{label} dx");
            assert_eq!(dp_f.len(), dp_c.len());
            for (i, (a, b)) in dp_f.iter().zip(&dp_c).enumerate() {
                assert_eq!(a.shape(), b.shape(), "{label} dparam{i} shape");
                assert_eq!(bits(a), bits(b), "{label} dparam{i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "attention dim must be divisible by heads")]
    fn mhsa_rejects_heads_not_dividing_dim() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiHeadSelfAttention::new(&mut g, 10, 3, &mut rng);
    }
}
