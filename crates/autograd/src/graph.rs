use std::time::{Duration, Instant};

use mfaplace_tensor::lowlevel::{self, ConvDims};
use mfaplace_tensor::{
    attention_fm_backward_into, attention_fm_into, attention_tm_backward_into, attention_tm_into,
    attention_tm_scratch, numel, Tensor,
};

use crate::recycle::BufferPool;

/// Handle to a node in a [`Graph`].
///
/// `Var`s are cheap copyable indices; they are only meaningful for the graph
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw tape index (stable for persistent parameters).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded tape op: its operands and op parameters, as the backward
/// replays it and as the compiled inference plan (`mfaplace-infer`) lowers
/// it — see [`Graph::segment`]. Backward-only state (normalization
/// statistics, loss targets, pool argmaxes) is kept beside the op in its
/// node, not here.
#[derive(Clone, Debug)]
pub enum TapeOp {
    /// A parameter, input or constant.
    Leaf,
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// Elementwise `a - b`.
    Sub(Var, Var),
    /// Elementwise `a * b`.
    Mul(Var, Var),
    /// Elementwise negation.
    Neg(Var),
    /// Elementwise `x * c` for a recorded scalar.
    Scale(Var, f32),
    /// `[m,k] x [k,n]` matrix product.
    Matmul(Var, Var),
    /// Batched `[b,m,k] x [b,k,n]`.
    Bmm(Var, Var),
    /// Batched `a · bᵀ`.
    BmmNT(Var, Var),
    /// Batched `aᵀ · b`.
    BmmTN(Var, Var),
    /// Fused attention (token-major when `feature_major` is false).
    Attention {
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        feature_major: bool,
    },
    /// 2-D convolution of `x` with weight `w`.
    Conv2d {
        x: Var,
        w: Var,
        stride: usize,
        pad: usize,
    },
    /// Per-channel bias add on a rank-4 tensor.
    AddBiasChannel(Var, Var),
    /// Last-axis bias add.
    AddBiasRow(Var, Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Var, f32),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// GELU (tanh approximation).
    Gelu(Var),
    /// Batch normalization with batch statistics (training only).
    BatchNorm2d { x: Var, gamma: Var, beta: Var },
    /// Constant per-channel affine (inference-mode batch norm).
    ChannelAffine {
        x: Var,
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    /// Last-axis layer normalization.
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    /// Softmax over the last axis.
    SoftmaxLast(Var),
    /// Pixel-wise cross entropy, optionally class-weighted (training only).
    CrossEntropy2d {
        logits: Var,
        class_weights: Option<Vec<f32>>,
    },
    /// Mean squared error against a constant target (training only).
    MseLoss(Var),
    /// Reshape (tape semantics: a copy).
    Reshape(Var),
    /// General axis permutation.
    Permute { x: Var, axes: Vec<usize> },
    /// Channel-axis concatenation.
    ConcatChannels(Vec<Var>),
    /// Channel slice `[c0, c1)`.
    SliceChannels { x: Var, c0: usize, c1: usize },
    /// Nearest-neighbour 2× upsampling.
    Upsample2x(Var),
    /// 2×2 max pooling with stride 2.
    MaxPool2x2(Var),
    /// Mean of all elements (training only).
    Mean(Var),
    /// Sum of all elements (training only).
    Sum(Var),
    /// Broadcast product with a single-element node.
    MulScalarVar(Var, Var),
}

impl TapeOp {
    /// The variant's name, as [`OpTime::kind`] reports it; feature-major
    /// attention is `AttentionFm`, as in the compiled plan.
    fn kind(&self) -> &'static str {
        match self {
            TapeOp::Leaf => "Leaf",
            TapeOp::Add(..) => "Add",
            TapeOp::Sub(..) => "Sub",
            TapeOp::Mul(..) => "Mul",
            TapeOp::Neg(_) => "Neg",
            TapeOp::Scale(..) => "Scale",
            TapeOp::Matmul(..) => "Matmul",
            TapeOp::Bmm(..) => "Bmm",
            TapeOp::BmmNT(..) => "BmmNT",
            TapeOp::BmmTN(..) => "BmmTN",
            TapeOp::Attention {
                feature_major: true,
                ..
            } => "AttentionFm",
            TapeOp::Attention { .. } => "Attention",
            TapeOp::Conv2d { .. } => "Conv2d",
            TapeOp::AddBiasChannel(..) => "AddBiasChannel",
            TapeOp::AddBiasRow(..) => "AddBiasRow",
            TapeOp::Relu(_) => "Relu",
            TapeOp::LeakyRelu(..) => "LeakyRelu",
            TapeOp::Sigmoid(_) => "Sigmoid",
            TapeOp::Gelu(_) => "Gelu",
            TapeOp::BatchNorm2d { .. } => "BatchNorm2d",
            TapeOp::ChannelAffine { .. } => "ChannelAffine",
            TapeOp::LayerNorm { .. } => "LayerNorm",
            TapeOp::SoftmaxLast(_) => "SoftmaxLast",
            TapeOp::CrossEntropy2d { .. } => "CrossEntropy2d",
            TapeOp::MseLoss(_) => "MseLoss",
            TapeOp::Reshape(_) => "Reshape",
            TapeOp::Permute { .. } => "Permute",
            TapeOp::ConcatChannels(_) => "ConcatChannels",
            TapeOp::SliceChannels { .. } => "SliceChannels",
            TapeOp::Upsample2x(_) => "Upsample2x",
            TapeOp::MaxPool2x2(_) => "MaxPool2x2",
            TapeOp::Mean(_) => "Mean",
            TapeOp::Sum(_) => "Sum",
            TapeOp::MulScalarVar(..) => "MulScalarVar",
        }
    }
}

/// What a node keeps for its backward beyond its op and value (the pool
/// argmax only when the node requires grad; a convolution keeps nothing);
/// recycled by [`Graph::truncate`].
#[derive(Clone)]
enum Saved {
    None,
    /// Batch / layer norm: the normalized input and the inverse std per
    /// channel or row.
    Norm {
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    /// Cross entropy: the softmax probabilities, the labels and the loss
    /// denominator (1 for the un-normalized sum).
    CrossEntropy {
        probs: Tensor,
        labels: Vec<u8>,
        weight_sum: f32,
    },
    /// The MSE target.
    Target(Tensor),
    /// Max pooling: each output's flat input index.
    Argmax(Vec<usize>),
}

/// Wall time one tape node took while op timing was on — see
/// [`Graph::set_op_timing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpTime {
    /// Raw tape index of the node.
    pub index: usize,
    /// Op variant name (`Conv2d`, `AttentionFm`, `BatchNorm2d`, …).
    pub kind: &'static str,
    /// Elements in the node's value.
    pub out_numel: usize,
    /// From the previous node's push to this one's: the op's forward plus
    /// whatever the caller ran between the two calls (as the plan profile
    /// charges its steps).
    pub forward: Duration,
    /// The node's backward step, zero if backward never reached it.
    pub backward: Duration,
}

/// The opt-in per-node clock behind [`Graph::set_op_timing`].
#[derive(Clone)]
struct OpClock {
    /// When the last node was pushed (or the clock started).
    last: Instant,
    /// Per tape index: forward, backward.
    spans: Vec<[Duration; 2]>,
}

impl OpClock {
    fn span(&mut self, index: usize) -> &mut [Duration; 2] {
        if self.spans.len() <= index {
            self.spans.resize(index + 1, [Duration::ZERO; 2]);
        }
        &mut self.spans[index]
    }
}

#[derive(Clone)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: TapeOp,
    saved: Saved,
    requires_grad: bool,
}

/// Arena tape holding values, gradients and the recorded operations.
///
/// See the [crate-level documentation](crate) for the usage pattern.
///
/// `Graph` is `Clone`: a clone is an independent tape whose `Var` handles
/// coincide with the original's — cloning a params-only graph is how the
/// data-parallel trainer builds worker-local replicas that accept the same
/// parameter `Var`s as the primary.
#[derive(Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Size-keyed free list fed by [`Graph::truncate`]/[`Graph::zero_grads`]
    /// and drained by the forward ops — mark/forward/truncate loops stop
    /// round-tripping activations through the allocator. Cloned graphs
    /// (trainer replicas) start with an empty pool.
    pool: BufferPool,
    /// When `false`, every pushed node records `requires_grad = false`, so
    /// backward-only storage (pool argmaxes) is never kept. The inference
    /// `Predictor` disables grads after building its model.
    grad_enabled: bool,
    /// Per-node timings, only while [`Graph::set_op_timing`] is on.
    clock: Option<Box<OpClock>>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.len())
    }
}

impl Graph {
    /// Creates an empty graph (gradients enabled).
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            pool: BufferPool::default(),
            grad_enabled: true,
            clock: None,
        }
    }

    /// Enables or disables gradient recording for subsequently pushed
    /// nodes. With grads disabled every new node has
    /// `requires_grad = false` and ops skip retaining backward-only
    /// storage (the pool argmaxes); existing nodes are untouched, so
    /// a predictor can build its parameters first and then switch the
    /// graph to inference mode.
    pub fn set_grad_enabled(&mut self, enabled: bool) {
        self.grad_enabled = enabled;
    }

    /// Whether new nodes currently record gradients.
    pub fn grad_enabled(&self) -> bool {
        self.grad_enabled
    }

    /// Buffer-pool counters `(hits, misses, recycled_bytes, retained)`.
    pub fn pool_stats(&self) -> (u64, u64, u64, usize) {
        (
            self.pool.hits(),
            self.pool.misses(),
            self.pool.recycled_bytes(),
            self.pool.retained(),
        )
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: TapeOp, requires_grad: bool) -> Var {
        self.push_saved(value, op, Saved::None, requires_grad)
    }

    /// [`Graph::push`] for an op with backward-only state.
    fn push_saved(&mut self, value: Tensor, op: TapeOp, saved: Saved, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            saved,
            requires_grad: requires_grad && self.grad_enabled,
        });
        let index = self.nodes.len() - 1;
        if let Some(clock) = &mut self.clock {
            let now = Instant::now();
            clock.span(index)[0] = now - clock.last;
            clock.last = now;
        }
        Var(index)
    }

    /// Switches per-node timing on (a fresh clock) or off (discarding what
    /// was recorded). While on, every pushed node is charged the wall time
    /// since the previous push and every backward step its own wall time;
    /// [`Graph::op_times`] reads them. Off — the default — the tape keeps no
    /// clock, reads none and allocates nothing for it.
    pub fn set_op_timing(&mut self, on: bool) {
        self.clock = on.then(|| {
            Box::new(OpClock {
                last: Instant::now(),
                spans: Vec::new(),
            })
        });
    }

    /// What the clock recorded per node still on the tape, in tape order,
    /// skipping nodes it never saw (empty while timing is off).
    pub fn op_times(&self) -> Vec<OpTime> {
        let Some(clock) = &self.clock else {
            return Vec::new();
        };
        clock
            .spans
            .iter()
            .zip(&self.nodes)
            .enumerate()
            .filter(|(_, (span, _))| span.iter().any(|d| !d.is_zero()))
            .map(|(index, (&[forward, backward], node))| OpTime {
                index,
                kind: node.op.kind(),
                out_numel: node.value.numel(),
                forward,
                backward,
            })
            .collect()
    }

    /// A value of `shape` in storage from the free list, which `fill`
    /// (any prior contents; it must write every element) computes from the
    /// tape's nodes.
    fn pooled(&mut self, shape: Vec<usize>, fill: impl FnOnce(&[Node], &mut [f32])) -> Tensor {
        let mut buf = self.pool.take_any(numel(&shape));
        fill(&self.nodes, &mut buf);
        Tensor::from_vec(shape, buf).expect("pooled value")
    }

    /// Pooled elementwise map through [`lowlevel::map_into`].
    fn pooled_map(&mut self, x: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let shape = self.value(x).shape().to_vec();
        self.pooled(shape, |n, o| lowlevel::map_into(n[x.0].value.data(), o, f))
    }

    /// Pooled elementwise zip of two same-shape nodes through
    /// [`lowlevel::zip_into`].
    fn pooled_zip(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let shape = self.value(a).shape().to_vec();
        assert_eq!(shape, self.value(b).shape(), "elementwise shape mismatch");
        self.pooled(shape, |n, o| {
            lowlevel::zip_into(n[a.0].value.data(), n[b.0].value.data(), o, f);
        })
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Inserts a trainable leaf (a parameter). Persistent across truncation
    /// as long as it was created before the mark.
    pub fn param(&mut self, t: Tensor) -> Var {
        self.push(t, TapeOp::Leaf, true)
    }

    /// Inserts a non-trainable leaf (an input or constant).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, TapeOp::Leaf, false)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Mutable access to a node's value (used by optimizers on parameters).
    pub fn value_mut(&mut self, v: Var) -> &mut Tensor {
        &mut self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if any was produced by
    /// [`Graph::backward`].
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Clears all gradients (recycling their storage).
    pub fn zero_grads(&mut self) {
        for n in &mut self.nodes {
            if let Some(g) = n.grad.take() {
                self.pool.give(g.into_vec());
            }
        }
    }

    /// Overwrites a node's gradient accumulator directly.
    ///
    /// This is the injection point for externally-combined gradients: a
    /// data-parallel trainer runs backward on worker replicas, tree-reduces
    /// the per-shard gradients, and stores the result here so a stock
    /// optimizer `step` on this graph sees them as if `backward` had run.
    ///
    /// # Panics
    ///
    /// Panics if `g` is `Some` with a shape different from the node value.
    pub fn set_grad(&mut self, v: Var, g: Option<Tensor>) {
        if let Some(t) = &g {
            assert_eq!(
                t.shape(),
                self.nodes[v.0].value.shape(),
                "set_grad shape mismatch"
            );
        }
        self.nodes[v.0].grad = g;
    }

    /// Returns a mark for later [`Graph::truncate`].
    pub fn mark(&self) -> usize {
        self.nodes.len()
    }

    /// Drops every node created after `mark`, freeing per-step activations
    /// while keeping parameters created before the mark.
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds the current length.
    pub fn truncate(&mut self, mark: usize) {
        assert!(mark <= self.nodes.len(), "truncate beyond tape length");
        for node in self.nodes.drain(mark..) {
            match node.saved {
                Saved::Norm { xhat: t, .. }
                | Saved::CrossEntropy { probs: t, .. }
                | Saved::Target(t) => self.pool.give(t.into_vec()),
                Saved::None | Saved::Argmax(_) => {}
            }
            if let Some(g) = node.grad {
                self.pool.give(g.into_vec());
            }
            self.pool.give(node.value.into_vec());
        }
        if let Some(clock) = &mut self.clock {
            clock.spans.truncate(mark);
        }
        self.pool.flush_counters();
    }

    // ----------------------------------------------------------------- ops

    /// Element-wise sum of two same-shape nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.pooled_zip(a, b, lowlevel::add);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::Add(a, b), rg)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.pooled_zip(a, b, lowlevel::sub);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::Sub(a, b), rg)
    }

    /// Element-wise product of two same-shape nodes.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.pooled_zip(a, b, lowlevel::mul);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::Mul(a, b), rg)
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.pooled_map(a, lowlevel::neg);
        let rg = self.rg(a);
        self.push(v, TapeOp::Neg(a), rg)
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.pooled_map(a, |x| lowlevel::mul(x, c));
        let rg = self.rg(a);
        self.push(v, TapeOp::Scale(a, c), rg)
    }

    /// 2-D matrix product `[m,k] x [k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = (self.value(a).shape()[0], self.value(b).shape()[1]);
        let v = self.pooled(vec![m, n], |nd, o| {
            nd[a.0].value.matmul2d_into(&nd[b.0].value, o)
        });
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::Matmul(a, b), rg)
    }

    /// Batched matrix product `[b,m,k] x [b,k,n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).bmm(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::Bmm(a, b), rg)
    }

    /// Batched transpose-aware product `a · bᵀ`:
    /// `[b,m,k] x [b,n,k] -> [b,m,n]`, bitwise identical to
    /// `bmm(a, permute(b, [0,2,1]))` without materializing the permuted
    /// copy.
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let [ba, m, k, n] = self.bmm_dims(a, b, "bmm_nt", [1, 2, 1, 2]);
        let v = self.pooled(vec![ba, m, n], |nd, o| {
            lowlevel::bmm_nt_into(nd[a.0].value.data(), nd[b.0].value.data(), o, ba, m, k, n);
        });
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::BmmNT(a, b), rg)
    }

    /// Batched transpose-aware product `aᵀ · b`:
    /// `[b,k,m] x [b,k,n] -> [b,m,n]`, bitwise identical to
    /// `bmm(permute(a, [0,2,1]), b)` without materializing the permuted
    /// copy.
    pub fn bmm_tn(&mut self, a: Var, b: Var) -> Var {
        let [ba, m, k, n] = self.bmm_dims(a, b, "bmm_tn", [2, 1, 2, 1]);
        let v = self.pooled(vec![ba, m, n], |nd, o| {
            lowlevel::bmm_tn_into(nd[a.0].value.data(), nd[b.0].value.data(), o, ba, m, k, n);
        });
        let rg = self.rg(a) || self.rg(b);
        self.push(v, TapeOp::BmmTN(a, b), rg)
    }

    /// `[batch, m, k, n]` of a transpose-aware product of rank-3 `a` and
    /// `b`, read at the axes `[m in a, k in a, n in b, k in b]`.
    ///
    /// # Panics
    ///
    /// Panics on a rank, batch or inner-dimension mismatch.
    fn bmm_dims(&self, a: Var, b: Var, op: &str, axes: [usize; 4]) -> [usize; 4] {
        let (sa, sb) = (self.value(a).shape(), self.value(b).shape());
        assert_eq!(sa.len(), 3, "{op} lhs must be rank-3");
        assert_eq!(sb.len(), 3, "{op} rhs must be rank-3");
        assert_eq!(sa[0], sb[0], "{op} batch mismatch");
        let (k, k2) = (sa[axes[1]], sb[axes[3]]);
        assert_eq!(k, k2, "{op} inner dimension mismatch");
        [sa[0], sa[axes[0]], k, sb[axes[2]]]
    }

    /// Fused token-major attention `softmax(q·kᵀ·scale)·v` for
    /// `q, k: [B,L,D]`, `v: [B,L,Dv]` (the CAM): one tape node that
    /// transposes into pooled scratch around the feature-major kernel,
    /// forward and backward. Output and all three gradients are bitwise
    /// identical to the composed `permute → bmm → scale → softmax_last → bmm`
    /// chain, also when `q`, `k`, `v` alias one node: the contributions
    /// reach it in the composed order (v, then k, then q). Permute nodes
    /// around [`Graph::attention_fm`] would first sum the three in their own
    /// gradient, another f32 sum — hence the transposes inside the op.
    pub fn attention(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let [b, l, d] = <[usize; 3]>::try_from(self.value(q).shape()).expect("attention q rank");
        let dv = self.value(v).shape()[2];
        let [len, _] = attention_tm_scratch(b, l, d, dv, q == k && k == v);
        let mut scratch = self.pool.take_any(len);
        let val = self.pooled(vec![b, l, dv], |n, o| {
            let [qv, kv, vv] = [q, k, v].map(|x| &n[x.0].value);
            attention_tm_into(qv, kv, vv, scale, o, &mut scratch);
        });
        self.pool.give(scratch);
        let rg = self.rg(q) || self.rg(k) || self.rg(v);
        self.push(
            val,
            TapeOp::Attention {
                q,
                k,
                v,
                scale,
                feature_major: false,
            },
            rg,
        )
    }

    /// Fused feature-major attention for `q, k: [B,D,L]`, `v: [B,Dv,L]`
    /// (the PAM position-attention layout: channels outermost, attention
    /// over spatial positions).
    ///
    /// `out[b,c,y] = Σ_x softmax_x(Σ_p q[b,p,y]·k[b,p,x]·scale) · v[b,c,x]`,
    /// bitwise identical to the composed PAM chain
    /// `bmm(kᵀ, q) → permute → softmax_last → permute → bmm(v, ·)`.
    pub fn attention_fm(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let (b, l) = (self.value(q).shape()[0], self.value(q).shape()[2]);
        let nv = self.value(v).shape()[1];
        let val = self.pooled(vec![b, nv, l], |n, o| {
            attention_fm_into(&n[q.0].value, &n[k.0].value, &n[v.0].value, scale, o);
        });
        let rg = self.rg(q) || self.rg(k) || self.rg(v);
        self.push(
            val,
            TapeOp::Attention {
                q,
                k,
                v,
                scale,
                feature_major: true,
            },
            rg,
        )
    }

    /// 2-D convolution of `x: [B,C,H,W]` with `w: [OC,C,KH,KW]`, building no
    /// im2col matrix with or without grad.
    pub fn conv2d(&mut self, x: Var, w: Var, stride: usize, pad: usize) -> Var {
        let dims = conv_dims(&self.nodes, x, w, stride, pad);
        let (oh, ow) = dims.out_size();
        let v = self.pooled(vec![dims.b, dims.oc, oh, ow], |n, o| {
            lowlevel::conv2d_into(val(n, x), val(n, w), dims, None, None, false, o);
        });
        let rg = self.rg(x) || self.rg(w);
        self.push(v, TapeOp::Conv2d { x, w, stride, pad }, rg)
    }

    /// Adds a per-channel bias `b: [C]` to `x: [B,C,H,W]`.
    pub fn add_bias_channel(&mut self, x: Var, b: Var) -> Var {
        let (bs, c, h, w) = self.value(x).dims4();
        assert_eq!(self.value(b).shape(), &[c], "bias shape mismatch");
        let v = self.pooled(vec![bs, c, h, w], |n, o| {
            let bias = Some(n[b.0].value.data());
            lowlevel::channel_epilogue(n[x.0].value.data(), o, bs, c, h * w, bias, None);
        });
        let rg = self.rg(x) || self.rg(b);
        self.push(v, TapeOp::AddBiasChannel(x, b), rg)
    }

    /// Adds a bias `b: [D]` to the last axis of `x: [..., D]`.
    pub fn add_bias_row(&mut self, x: Var, b: Var) -> Var {
        let shape = self.value(x).shape().to_vec();
        let d = *shape.last().expect("rank >= 1");
        assert_eq!(self.value(b).shape(), &[d], "row bias shape mismatch");
        let v = self.pooled(shape, |n, o| {
            lowlevel::add_bias_row(n[x.0].value.data(), n[b.0].value.data(), o);
        });
        let rg = self.rg(x) || self.rg(b);
        self.push(v, TapeOp::AddBiasRow(x, b), rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.pooled_map(x, lowlevel::relu);
        let rg = self.rg(x);
        self.push(v, TapeOp::Relu(x), rg)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let v = self.pooled_map(x, |a| lowlevel::leaky_relu(a, slope));
        let rg = self.rg(x);
        self.push(v, TapeOp::LeakyRelu(x, slope), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.pooled_map(x, lowlevel::sigmoid);
        let rg = self.rg(x);
        self.push(v, TapeOp::Sigmoid(x), rg)
    }

    /// GELU activation (tanh approximation), used in transformer MLPs.
    pub fn gelu(&mut self, x: Var) -> Var {
        let v = self.pooled_map(x, lowlevel::gelu);
        let rg = self.rg(x);
        self.push(v, TapeOp::Gelu(x), rg)
    }

    /// Batch normalization over `(B, H, W)` per channel using batch
    /// statistics, with affine parameters `gamma, beta: [C]`.
    ///
    /// Returns the normalized output plus the per-channel batch mean and
    /// variance (for running-statistic tracking by the layer).
    pub fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> (Var, Vec<f32>, Vec<f32>) {
        let (b, c, h, w) = self.value(x).dims4();
        let n = (b * h * w) as f32;
        let src = self.nodes[x.0].value.data();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for bi in 0..b {
            for ci in 0..c {
                for &v in &src[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w] {
                    mean[ci] += v;
                }
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        for bi in 0..b {
            for ci in 0..c {
                for &v in &src[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w] {
                    let d = v - mean[ci];
                    var[ci] += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= n;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut xhat = self.pool.take_any(src.len());
        let g = self.value(gamma).data().to_vec();
        let be = self.value(beta).data().to_vec();
        let mut out = self.pool.take_any(src.len());
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                for k in 0..h * w {
                    let xh = (src[base + k] - mean[ci]) * inv_std[ci];
                    xhat[base + k] = xh;
                    out[base + k] = g[ci] * xh + be[ci];
                }
            }
        }
        let xhat = Tensor::from_vec(vec![b, c, h, w], xhat).expect("bn xhat");
        let v = Tensor::from_vec(vec![b, c, h, w], out).expect("bn out");
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let var_out = var.clone();
        let node = self.push_saved(
            v,
            TapeOp::BatchNorm2d { x, gamma, beta },
            Saved::Norm { xhat, inv_std },
            rg,
        );
        (node, mean, var_out)
    }

    /// Per-channel affine transform `y = scale_c * x + shift_c` with
    /// *constant* (non-differentiable) coefficients — the inference-mode form
    /// of batch normalization with running statistics folded in.
    pub fn channel_affine(&mut self, x: Var, scale: Vec<f32>, shift: Vec<f32>) -> Var {
        let (b, c, h, w) = self.value(x).dims4();
        assert_eq!(scale.len(), c, "channel_affine scale length");
        assert_eq!(shift.len(), c, "channel_affine shift length");
        let v = self.pooled(vec![b, c, h, w], |n, o| {
            let affine = Some((&scale[..], &shift[..]));
            lowlevel::channel_epilogue(n[x.0].value.data(), o, b, c, h * w, None, affine);
        });
        let rg = self.rg(x);
        self.push(v, TapeOp::ChannelAffine { x, scale, shift }, rg)
    }

    /// Layer normalization over the last axis with affine `gamma, beta: [D]`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let d = *self.value(x).shape().last().expect("rank >= 1");
        let src = self.nodes[x.0].value.data();
        let rows = src.len() / d;
        let g = self.value(gamma).data().to_vec();
        let be = self.value(beta).data().to_vec();
        let mut xhat = self.pool.take_any(src.len());
        let mut out = self.pool.take_any(src.len());
        let mut inv_std = vec![0.0f32; rows];
        // Dispatched kernel shared with the plan executor: scalar backend
        // is the verbatim reference loop, vector backends vectorize the
        // row reductions (see `mfaplace_tensor::simd`).
        mfaplace_tensor::layer_norm_rows(
            src,
            &g,
            &be,
            eps,
            d,
            &mut out,
            Some(&mut xhat),
            Some(&mut inv_std),
        );
        let xhat = Tensor::from_vec(self.value(x).shape().to_vec(), xhat).expect("ln xhat");
        let v = Tensor::from_vec(self.value(x).shape().to_vec(), out).expect("ln out");
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push_saved(
            v,
            TapeOp::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
            Saved::Norm { xhat, inv_std },
            rg,
        )
    }

    /// Softmax over the last axis.
    pub fn softmax_last(&mut self, x: Var) -> Var {
        let shape = self.value(x).shape().to_vec();
        let d = *shape.last().expect("softmax needs rank >= 1");
        let v = self.pooled(shape, |n, o| {
            lowlevel::softmax_last_into(n[x.0].value.data(), d, o);
        });
        let rg = self.rg(x);
        self.push(v, TapeOp::SoftmaxLast(x), rg)
    }

    /// Pixel-wise multi-class cross entropy between `logits: [B,K,H,W]` and
    /// integer `labels` (length `B*H*W`, values `< K`), optionally weighted
    /// per class. Returns a scalar loss node.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or out-of-range labels.
    pub fn cross_entropy2d(
        &mut self,
        logits: Var,
        labels: &[u8],
        class_weights: Option<&[f32]>,
    ) -> Var {
        self.cross_entropy2d_impl(logits, labels, class_weights, true)
    }

    /// Un-normalized variant of [`Graph::cross_entropy2d`]: the node value
    /// is the **weighted loss sum** (not divided by the weight sum), and
    /// backward propagates the upstream gradient unscaled.
    ///
    /// This is the per-shard loss of the data-parallel trainer: each shard
    /// contributes its loss sum, the trainer divides by a weight
    /// denominator it computes serially from the labels (see
    /// [`Graph::backward_seeded`]), so the combined gradient is independent
    /// of how samples were sharded.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or out-of-range labels.
    pub fn cross_entropy2d_sum(
        &mut self,
        logits: Var,
        labels: &[u8],
        class_weights: Option<&[f32]>,
    ) -> Var {
        self.cross_entropy2d_impl(logits, labels, class_weights, false)
    }

    fn cross_entropy2d_impl(
        &mut self,
        logits: Var,
        labels: &[u8],
        class_weights: Option<&[f32]>,
        normalize: bool,
    ) -> Var {
        let (b, k, h, w) = self.value(logits).dims4();
        assert_eq!(labels.len(), b * h * w, "label count mismatch");
        if let Some(cw) = class_weights {
            assert_eq!(cw.len(), k, "class weight count mismatch");
        }
        let src = self.nodes[logits.0].value.data();
        let hw = h * w;
        let mut probs = self.pool.take_any(src.len());
        let mut loss = 0.0f64;
        let mut weight_sum = 0.0f64;
        for bi in 0..b {
            for p in 0..hw {
                // softmax over k at pixel p
                let mut m = f32::NEG_INFINITY;
                for ki in 0..k {
                    m = m.max(src[(bi * k + ki) * hw + p]);
                }
                let mut z = 0.0f32;
                for ki in 0..k {
                    let e = (src[(bi * k + ki) * hw + p] - m).exp();
                    probs[(bi * k + ki) * hw + p] = e;
                    z += e;
                }
                let y = labels[bi * hw + p] as usize;
                assert!(y < k, "label {y} out of range for {k} classes");
                let wgt = class_weights.map_or(1.0, |cw| cw[y]);
                let py = probs[(bi * k + y) * hw + p] / z;
                loss += wgt as f64 * -(py.max(1e-12).ln() as f64);
                weight_sum += wgt as f64;
                for ki in 0..k {
                    probs[(bi * k + ki) * hw + p] /= z;
                }
            }
        }
        let weight_sum = if normalize {
            weight_sum.max(1e-12) as f32
        } else {
            1.0
        };
        let v = Tensor::scalar((loss / weight_sum as f64) as f32);
        let probs = Tensor::from_vec(vec![b, k, h, w], probs).expect("ce probs");
        let rg = self.rg(logits);
        self.push_saved(
            v,
            TapeOp::CrossEntropy2d {
                logits,
                class_weights: class_weights.map(<[f32]>::to_vec),
            },
            Saved::CrossEntropy {
                probs,
                labels: labels.to_vec(),
                weight_sum,
            },
            rg,
        )
    }

    /// Mean-squared-error loss against a constant target of the same shape.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).shape(),
            target.shape(),
            "mse target shape mismatch"
        );
        let diff = self.value(pred).sub(target);
        let v = Tensor::scalar(diff.sq_norm() / diff.numel().max(1) as f32);
        let rg = self.rg(pred);
        self.push_saved(v, TapeOp::MseLoss(pred), Saved::Target(target.clone()), rg)
    }

    /// Reshape (element count preserved).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, x: Var, shape: Vec<usize>) -> Var {
        assert_eq!(
            numel(&shape),
            self.value(x).numel(),
            "reshape element mismatch"
        );
        let v = self.pooled(shape, |n, o| o.copy_from_slice(n[x.0].value.data()));
        let rg = self.rg(x);
        self.push(v, TapeOp::Reshape(x), rg)
    }

    /// General axis permutation.
    pub fn permute(&mut self, x: Var, axes: &[usize]) -> Var {
        let in_shape = self.value(x).shape().to_vec();
        let shape = axes.iter().map(|&a| in_shape[a]).collect();
        let v = self.pooled(shape, |n, o| {
            lowlevel::permute_into(n[x.0].value.data(), &in_shape, axes, o);
        });
        let rg = self.rg(x);
        let axes = axes.to_vec();
        self.push(v, TapeOp::Permute { x, axes }, rg)
    }

    /// Channel-axis concatenation of rank-4 nodes.
    pub fn concat_channels(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_channels(&tensors);
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(v, TapeOp::ConcatChannels(parts.to_vec()), rg)
    }

    /// Extracts channels `[c0, c1)` of a rank-4 node.
    pub fn slice_channels(&mut self, x: Var, c0: usize, c1: usize) -> Var {
        let (b, c, h, w) = self.value(x).dims4();
        let v = self.pooled(vec![b, c1.saturating_sub(c0), h, w], |n, o| {
            lowlevel::slice_channels_into(n[x.0].value.data(), b, c, c0, c1, h * w, o);
        });
        let rg = self.rg(x);
        self.push(v, TapeOp::SliceChannels { x, c0, c1 }, rg)
    }

    /// Nearest-neighbour 2× upsampling.
    pub fn upsample2x(&mut self, x: Var) -> Var {
        let (b, c, h, w) = self.value(x).dims4();
        let v = self.pooled(vec![b, c, 2 * h, 2 * w], |n, o| {
            lowlevel::upsample2x_into(n[x.0].value.data(), b * c, h, w, o);
        });
        let rg = self.rg(x);
        self.push(v, TapeOp::Upsample2x(x), rg)
    }

    /// 2×2 max pooling with stride 2.
    pub fn maxpool2x2(&mut self, x: Var) -> Var {
        let (b, c, h, w) = self.value(x).dims4();
        let rg = self.rg(x) && self.grad_enabled;
        // The argmax is backward-only state, kept only when it is needed.
        let mut arg = vec![0usize; if rg { b * c * (h / 2) * (w / 2) } else { 0 }];
        let v = self.pooled(vec![b, c, h / 2, w / 2], |n, o| {
            let arg = rg.then_some(&mut arg[..]);
            lowlevel::maxpool2x2_into(n[x.0].value.data(), b * c, h, w, o, arg);
        });
        let saved = if rg { Saved::Argmax(arg) } else { Saved::None };
        self.push_saved(v, TapeOp::MaxPool2x2(x), saved, rg)
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).mean());
        let rg = self.rg(x);
        self.push(v, TapeOp::Mean(x), rg)
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).sum());
        let rg = self.rg(x);
        self.push(v, TapeOp::Sum(x), rg)
    }

    /// Broadcast product with a single-element node (e.g. the learnable
    /// `alpha`/`beta` of the PAM/CAM blocks).
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        assert_eq!(self.value(s).numel(), 1, "scalar var must hold one element");
        let sv = self.value(s).item();
        let v = self.pooled_map(x, |a| lowlevel::mul(a, sv));
        let rg = self.rg(x) || self.rg(s);
        self.push(v, TapeOp::MulScalarVar(x, s), rg)
    }

    // ------------------------------------------------------------ backward

    /// Runs reverse-mode differentiation from a scalar `loss` node,
    /// accumulating gradients into every node with `requires_grad`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        self.backward_seeded(loss, 1.0);
    }

    /// The tape segment `[from, len)` as `(node, value shape, recorded op)`
    /// in tape order — what the compiled inference plan (`mfaplace-infer`)
    /// lowers. Operands before `from` are pre-existing leaves (parameters);
    /// operands inside the segment include constants materialized
    /// mid-forward (e.g. the PGNN aggregation kernels).
    pub fn segment(&self, from: usize) -> impl Iterator<Item = (Var, &[usize], &TapeOp)> {
        let nodes = self.nodes.iter().enumerate().skip(from);
        nodes.map(|(i, n)| (Var(i), n.value.shape(), &n.op))
    }

    /// [`Graph::backward`] with an explicit seed gradient `d(out)/d(loss)`
    /// instead of `1.0`.
    ///
    /// Seeding with a reciprocal denominator turns a loss-**sum** node
    /// (e.g. [`Graph::cross_entropy2d_sum`]) into the exact gradient of
    /// `sum / denom` without adding the division to the tape — the
    /// data-parallel trainer uses this with a denominator computed serially
    /// over the whole minibatch so per-shard gradients are shard-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward_seeded(&mut self, loss: Var, seed: f32) {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss"
        );
        let node = &mut self.nodes[loss.0];
        match &mut node.grad {
            Some(grad) => grad.data_mut()[0] += seed,
            slot @ None => {
                let mut buf = self.pool.take_any(1);
                buf[0] = seed;
                *slot = Some(tensor(node.value.shape(), buf));
            }
        }
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].requires_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            let t0 = self.clock.is_some().then(Instant::now);
            // A node's op only ever accumulates into its parents (indices
            // below `i`), so its own gradient is read in place.
            let (parents, me) = self.nodes.split_at_mut(i);
            let node = &me[0];
            let dy = node.grad.as_ref().expect("checked above");
            let mut grads = Grads {
                nodes: parents,
                pool: &mut self.pool,
            };
            backward_op(node, dy, &mut grads);
            if let (Some(clock), Some(t0)) = (&mut self.clock, t0) {
                clock.span(i)[1] += t0.elapsed();
            }
        }
    }
}

/// The backward's view of the tape below the node it is differentiating:
/// the parents, and the pool every gradient and scratch buffer comes from.
struct Grads<'a> {
    nodes: &'a mut [Node],
    pool: &'a mut BufferPool,
}

impl Grads<'_> {
    /// Runs `kernel`, which overwrites its output, on a pooled buffer that
    /// [`Grads::give`] hands to `v`, if `v` requires grad. The kernel reads
    /// the other nodes through its first argument.
    fn put(&mut self, v: Var, kernel: impl FnOnce(&[Node], &mut [f32])) {
        if self.nodes[v.0].requires_grad {
            let mut buf = self.pool.take_any(self.nodes[v.0].value.numel());
            kernel(self.nodes, &mut buf);
            self.give(v, buf);
        }
    }

    /// Hands `buf`, a finished contribution to `v`'s gradient, to `v`: as
    /// the gradient itself if it is the first, else added into it. A buffer
    /// `v` does not keep goes back to the pool.
    fn give(&mut self, v: Var, buf: Vec<f32>) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            _ if !node.requires_grad => self.pool.give(buf),
            Some(grad) => {
                lowlevel::accumulate_into(&buf, grad.data_mut());
                self.pool.give(buf);
            }
            slot @ None => *slot = Some(tensor(node.value.shape(), buf)),
        }
    }
}

/// The value of `v`'s node, as a kernel operand.
fn val(nodes: &[Node], v: Var) -> &[f32] {
    nodes[v.0].value.data()
}

/// The shape of the convolution of `x: [B,C,H,W]` by `w: [OC,C,KH,KW]`.
fn conv_dims(nodes: &[Node], x: Var, w: Var, stride: usize, pad: usize) -> ConvDims {
    let ((b, c, h, wd), (oc, _, kh, kw)) = (nodes[x.0].value.dims4(), nodes[w.0].value.dims4());
    ConvDims {
        b,
        c,
        h,
        w: wd,
        oc,
        kh,
        kw,
        stride,
        pad,
    }
}

/// A tensor of `shape` over `buf`.
fn tensor(shape: &[usize], buf: Vec<f32>) -> Tensor {
    Tensor::from_vec(shape.to_vec(), buf).expect("buffer matches its shape")
}

/// Accumulates `node`'s input gradients into its parents given its upstream
/// gradient `dy`: a dispatch to the `tensor::lowlevel` backward kernels,
/// skipping every parent that does not require grad.
fn backward_op(node: &Node, dy: &Tensor, g: &mut Grads) {
    use lowlevel::*;
    let (shape, gy) = (node.value.shape(), dy.data());
    let pass = |_: &[Node], d: &mut [f32]| d.copy_from_slice(gy);
    let scaled = |c: f32| move |_: &[Node], d: &mut [f32]| map_into(gy, d, |g| mul(g, c));
    let times = |o: Var| move |n: &[Node], d: &mut [f32]| zip_into(gy, val(n, o), d, mul);
    let dims = |g: &Grads, v: Var| g.nodes[v.0].value.dims4();
    match &node.op {
        TapeOp::Leaf => {}
        TapeOp::Add(a, b) => {
            g.put(*a, pass);
            g.put(*b, pass);
        }
        TapeOp::Sub(a, b) => {
            g.put(*a, pass);
            g.put(*b, scaled(-1.0));
        }
        TapeOp::Mul(a, b) => {
            g.put(*a, times(*b));
            g.put(*b, times(*a));
        }
        TapeOp::Neg(a) => g.put(*a, scaled(-1.0)),
        TapeOp::Scale(a, c) => g.put(*a, scaled(*c)),
        TapeOp::Matmul(a, b) => {
            let (m, n, k) = (shape[0], shape[1], g.nodes[a.0].value.shape()[1]);
            // dy·bᵀ and aᵀ·dy as batches of one, without transposed copies.
            g.put(*a, |nd, d| bmm_nt_into(gy, val(nd, *b), d, 1, m, n, k));
            g.put(*b, |nd, d| bmm_tn_into(val(nd, *a), gy, d, 1, k, m, n));
        }
        TapeOp::Bmm(a, b) => {
            let (bt, m, n, k) = (shape[0], shape[1], shape[2], g.nodes[a.0].value.shape()[2]);
            g.put(*a, |nd, d| bmm_nt_into(gy, val(nd, *b), d, bt, m, n, k));
            g.put(*b, |nd, d| bmm_tn_into(val(nd, *a), gy, d, bt, k, m, n));
        }
        TapeOp::BmmNT(a, b) => {
            // y = a·bᵀ ⇒ da = dy·b, db = dyᵀ·a.
            let (bt, m, n, k) = (shape[0], shape[1], shape[2], g.nodes[a.0].value.shape()[2]);
            g.put(*a, |nd, d| bmm_into(gy, val(nd, *b), d, bt, m, n, k));
            g.put(*b, |nd, d| bmm_tn_into(gy, val(nd, *a), d, bt, n, m, k));
        }
        TapeOp::BmmTN(a, b) => {
            // y = aᵀ·b ⇒ da = b·dyᵀ, db = a·dy.
            let (bt, m, n, k) = (shape[0], shape[1], shape[2], g.nodes[a.0].value.shape()[1]);
            g.put(*a, |nd, d| bmm_nt_into(val(nd, *b), gy, d, bt, k, n, m));
            g.put(*b, |nd, d| bmm_into(val(nd, *a), gy, d, bt, k, m, n));
        }
        TapeOp::Attention {
            q,
            k,
            v,
            scale,
            feature_major,
        } => {
            let lens = [*q, *k, *v].map(|x| g.nodes[x.0].value.numel());
            let [mut dq, mut dk, mut dv] = lens.map(|len| g.pool.take_any(len));
            let [qv, kv, vv] = [q, k, v].map(|x| &g.nodes[x.0].value);
            if *feature_major {
                attention_fm_backward_into(qv, kv, vv, *scale, dy, &mut dq, &mut dk, &mut dv);
            } else {
                let [b, l, d] = [0, 1, 2].map(|i| qv.shape()[i]);
                let [_, len] = attention_tm_scratch(b, l, d, vv.shape()[2], q == k && k == v);
                let mut s = g.pool.take_any(len);
                let (dq, dk, dv) = (&mut dq, &mut dk, &mut dv);
                attention_tm_backward_into(qv, kv, vv, *scale, dy, dq, dk, dv, &mut s);
                g.pool.give(s);
            }
            // Accumulation order v, k, q replicates the composed chain's
            // backward sequence (softmax·v bmm, then the key permute, then
            // the score bmm), which is what makes gradients bitwise
            // identical when q/k/v alias one node (CAM's self-attention).
            g.give(*v, dv);
            g.give(*k, dk);
            g.give(*q, dq);
        }
        TapeOp::Conv2d { x, w, stride, pad } => {
            let conv = conv_dims(g.nodes, *x, *w, *stride, *pad);
            g.put(*w, |n, d| {
                conv2d_weight_backward_into(val(n, *x), gy, conv, d)
            });
            g.put(*x, |n, d| {
                conv2d_input_backward_into(val(n, *w), gy, conv, d)
            });
        }
        TapeOp::AddBiasChannel(x, bias) => {
            let (_, _, h, w) = node.value.dims4();
            g.put(*bias, |_, d| bias_channel_backward_into(gy, h * w, d));
            g.put(*x, pass);
        }
        TapeOp::AddBiasRow(x, bias) => {
            g.put(*bias, |_, d| bias_row_backward_into(gy, d));
            g.put(*x, pass);
        }
        TapeOp::Relu(x) => g.put(*x, |n, d| zip_into(gy, val(n, *x), d, relu_grad)),
        TapeOp::LeakyRelu(x, slope) => g.put(*x, |n, d| {
            zip_into(gy, val(n, *x), d, |g, x| leaky_relu_grad(g, x, *slope));
        }),
        TapeOp::Sigmoid(x) => g.put(*x, |_, d| zip_into(gy, node.value.data(), d, sigmoid_grad)),
        TapeOp::Gelu(x) => g.put(*x, |n, d| zip_into(gy, val(n, *x), d, gelu_grad)),
        TapeOp::BatchNorm2d { x, gamma, beta } => {
            let Saved::Norm { xhat, inv_std } = &node.saved else {
                unreachable!("batch_norm2d keeps its statistics");
            };
            let ((_, c, h, w), xhat) = (node.value.dims4(), xhat.data());
            let mut sums = g.pool.take_any(4 * c);
            batch_norm2d_backward_sums(gy, xhat, val(g.nodes, *gamma), h * w, &mut sums);
            g.put(*x, |n, d| {
                let gm = val(n, *gamma);
                batch_norm2d_backward_into(gy, xhat, gm, inv_std, &sums, h * w, d);
            });
            g.put(*gamma, |_, d| d.copy_from_slice(&sums[..c]));
            g.put(*beta, |_, d| d.copy_from_slice(&sums[c..2 * c]));
            g.pool.give(sums);
        }
        TapeOp::ChannelAffine { x, scale, .. } => {
            let (_, _, h, w) = node.value.dims4();
            g.put(*x, |_, d| channel_affine_backward_into(gy, scale, h * w, d));
        }
        TapeOp::LayerNorm { x, gamma, beta, .. } => {
            let Saved::Norm { xhat, inv_std } = &node.saved else {
                unreachable!("layer_norm keeps its statistics");
            };
            let xhat = xhat.data();
            g.put(*x, |n, d| {
                layer_norm_backward_into(gy, xhat, val(n, *gamma), inv_std, d);
            });
            g.put(*gamma, |_, d| layer_norm_gamma_backward_into(gy, xhat, d));
            g.put(*beta, |_, d| bias_row_backward_into(gy, d));
        }
        TapeOp::SoftmaxLast(x) => {
            let (s, d) = (node.value.data(), shape[shape.len() - 1]);
            g.put(*x, |_, dx| softmax_last_backward_into(s, gy, d, dx));
        }
        TapeOp::CrossEntropy2d {
            logits,
            class_weights,
        } => {
            let Saved::CrossEntropy {
                probs,
                labels,
                weight_sum: ws,
            } = &node.saved
            else {
                unreachable!("cross_entropy2d keeps its probabilities");
            };
            let ((_, _, h, w), cw) = (probs.dims4(), class_weights.as_deref());
            g.put(*logits, |_, d| {
                let p = probs.data();
                cross_entropy2d_backward_into(p, labels, cw, dy.item(), *ws, h * w, d);
            });
        }
        TapeOp::MseLoss(pred) => {
            let Saved::Target(target) = &node.saved else {
                unreachable!("mse_loss keeps its target");
            };
            g.put(*pred, |n, d| {
                mse_backward_into(val(n, *pred), target.data(), dy.item(), d);
            });
        }
        TapeOp::Reshape(x) => g.put(*x, pass),
        TapeOp::Permute { x, axes } => {
            g.put(*x, |_, d| permute_backward_into(gy, shape, axes, d));
        }
        TapeOp::ConcatChannels(parts) => {
            let (b, total_c, h, w) = node.value.dims4();
            let mut c0 = 0usize;
            for &p in parts {
                let c1 = c0 + g.nodes[p.0].value.shape()[1];
                g.put(p, |_, d| {
                    slice_channels_into(gy, b, total_c, c0, c1, h * w, d)
                });
                c0 = c1;
            }
        }
        TapeOp::SliceChannels { x, c0, c1 } => {
            let (_, c, h, w) = dims(g, *x);
            g.put(*x, |_, d| {
                slice_channels_backward_into(gy, c, *c0, *c1, h * w, d)
            });
        }
        TapeOp::Upsample2x(x) => {
            let (_, _, h, w) = dims(g, *x);
            g.put(*x, |_, d| upsample2x_backward_into(gy, h, w, d));
        }
        TapeOp::MaxPool2x2(x) => {
            let Saved::Argmax(arg) = &node.saved else {
                unreachable!("maxpool2x2 keeps its argmax when it requires grad");
            };
            g.put(*x, |_, d| maxpool2x2_backward_into(gy, arg, d));
        }
        TapeOp::Mean(x) => g.put(*x, |_, d| mean_backward_into(dy.item(), d)),
        TapeOp::Sum(x) => g.put(*x, |_, d| d.fill(dy.item())),
        TapeOp::MulScalarVar(x, s) => {
            g.put(*s, |n, d| mul_scalar_var_backward_into(gy, val(n, *x), d));
            let sv = g.nodes[s.0].value.item();
            g.put(*x, scaled(sv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A conv → relu → sum tape over two parameters, so the conv runs both
    /// halves of its backward; returns `(w, conv, loss)`.
    fn conv_tape(g: &mut Graph) -> (Var, Var, Var) {
        let w = g.param(Tensor::from_fn(vec![2, 3, 3, 3], |i| {
            (i as f32 * 0.3).sin()
        }));
        let x = g.param(Tensor::from_fn(vec![1, 3, 6, 6], |i| {
            (i as f32 * 0.7).cos()
        }));
        let y = g.conv2d(x, w, 1, 1);
        let r = g.relu(y);
        (w, y, g.sum(r))
    }

    #[test]
    fn op_timing_charges_every_node_and_changes_no_gradient() {
        let mut plain = Graph::new();
        let (w0, _, loss0) = conv_tape(&mut plain);
        plain.backward(loss0);
        assert!(plain.op_times().is_empty(), "timing is off by default");

        let mut g = Graph::new();
        g.set_op_timing(true);
        let (w, conv, loss) = conv_tape(&mut g);
        g.backward(loss);
        assert_eq!(
            g.grad(w).expect("grad").data(),
            plain.grad(w0).expect("grad").data()
        );
        let times = g.op_times();
        let kinds: Vec<_> = times.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, ["Leaf", "Leaf", "Conv2d", "Relu", "Sum"]);
        let c = times
            .iter()
            .find(|t| t.index == conv.index())
            .expect("conv");
        assert_eq!(c.out_numel, 2 * 6 * 6);
        assert!(!c.forward.is_zero() && !c.backward.is_zero());

        // Truncation drops the truncated nodes' times; switching off drops
        // the clock.
        g.truncate(1);
        assert!(g.op_times().iter().all(|t| t.index < 1));
        g.set_op_timing(false);
        assert!(g.op_times().is_empty());
    }

    /// Shapes whose element counts agree but whose batch or inner sizes do
    /// not are refused, not multiplied.
    #[test]
    fn transpose_aware_products_check_their_shapes() {
        let panics = |a: Vec<usize>, b: Vec<usize>, tn: bool| {
            std::panic::catch_unwind(move || {
                let mut g = Graph::new();
                let (a, b) = (g.constant(Tensor::zeros(a)), g.constant(Tensor::zeros(b)));
                if tn {
                    g.bmm_tn(a, b);
                } else {
                    g.bmm_nt(a, b);
                }
            })
            .is_err()
        };
        assert!(panics(vec![2, 3, 4], vec![1, 5, 8], false), "nt batch");
        assert!(panics(vec![2, 3, 4], vec![2, 6, 2], false), "nt inner");
        assert!(panics(vec![2, 4, 3], vec![1, 8, 5], true), "tn batch");
        assert!(panics(vec![2, 4, 3], vec![2, 2, 10], true), "tn inner");
        assert!(!panics(vec![2, 3, 4], vec![2, 5, 4], false));
        assert!(!panics(vec![2, 4, 3], vec![2, 4, 5], true));
    }

    #[test]
    #[should_panic(expected = "matmul2d inner dimension mismatch")]
    fn matmul_checks_its_inner_dimension() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::zeros(vec![2, 3]));
        let b = g.constant(Tensor::zeros(vec![6, 1]));
        g.matmul(a, b);
    }
}
