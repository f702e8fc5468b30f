//! Plan compilation: tape capture, fusion passes, BN folding and the
//! liveness-packed activation arena.
//!
//! A [`Plan`] is compiled from **one** recording of a model forward on the
//! dynamic autograd tape ([`Graph::export_segment`]). Because every zoo
//! model's control flow depends only on input *shape* (never on input
//! *values*), a single recording at a given `[B, C, H, W]` is a faithful
//! static program for every batch of that shape.
//!
//! Compilation runs these passes over the exported segment:
//!
//! 1. **Lowering** — tape nodes become [`IrOp`]s with all shapes baked in;
//!    pre-mark operands (parameters) and mid-segment constants (e.g. the
//!    PGNN aggregation kernels) are snapshotted into a weight table of
//!    `Arc<Tensor>` (shared across per-batch-size plans via a caller cache).
//! 2. **Fusion** — a conv's single-consumer chain of
//!    `add_bias_channel → channel_affine → relu` collapses into the conv's
//!    epilogue (executed by `conv_reorder_epilogue`, whose per-element
//!    arithmetic is exactly the tape's op sequence, keeping outputs
//!    bitwise); `add → relu` pairs fuse the same way.
//! 3. **BN folding** (optional, [`PlanOptions::fold_bn`]) — a fused
//!    `channel_affine` epilogue is folded into the conv weight/bias through
//!    an f64 refold. This changes weight values, so it is off by default:
//!    the bitwise contract becomes a ≤1e-6 one.
//! 4. **Copy elision** — pure-reshape [`IrOp::Copy`] steps are rewritten
//!    into *aliases* of their source value: no op in the IR ever mutates an
//!    existing span, so a reshape output can share its source's storage as
//!    long as the liveness pass keeps the shared span alive until the last
//!    reader of **either** value (a write-after-read extension of the
//!    plain per-value liveness).
//! 5. **Level scheduling** — the op-level dependency DAG (an edge per
//!    operand definition, aliases resolved to their roots) is partitioned
//!    into topological levels: waves of mutually independent ops. Steps are
//!    reordered level-major (stable within a level), so serial replay is
//!    still a valid topological order and the executor can run any level's
//!    ops concurrently.
//! 6. **Arena assignment** — liveness intervals for every intermediate plus
//!    the op-local scratch each step declares (conv im2col/GEMM buffers,
//!    attention score rows, quantize/dequantize staging) are packed by a
//!    first-fit free list with coalescing into a single byte arena (64-byte
//!    blocks, so every typed view is aligned) whose peak size is known at
//!    compile time. Spans are allocated and released at *level*
//!    granularity, so ops in the same level always hold pairwise-disjoint
//!    write spans (verified after the pass) — the property that makes
//!    parallel level execution bitwise identical to serial replay. The
//!    executor then runs every forward with zero heap allocations.
//!
//! A captured plan stores every value as f32 and runs every step on the
//! generic f32 kernel. [`Plan::quantize`] (see `quant.rs`) is an IR→IR
//! lowering that rewrites only the per-value [`Store`] and per-step
//! [`Kernel`] tables and re-runs pass 6.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use mfaplace_autograd::{Graph, TapeOp, Var};
use mfaplace_tensor::{conv_out_size, strides_for, Tensor};

/// Compile-time options for [`Plan::capture`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanOptions {
    /// Fold the fused inference-mode batch-norm epilogue
    /// (`channel_affine`) into the preceding conv's weight and bias using
    /// f64 intermediate arithmetic. Saves one multiply-add per output
    /// element but changes weight values, so plan outputs are no longer
    /// bitwise identical to the tape — only within 1e-6 of the output
    /// scale in max-norm (asserted by the equivalence suite). Default
    /// **off** to preserve the bitwise contract.
    pub fold_bn: bool,
}

/// Counters describing a compiled plan, for `/metrics` and `model-info`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Executable ops after fusion.
    pub ops: usize,
    /// Bias adds absorbed into conv epilogues.
    pub fused_conv_bias: usize,
    /// Channel affines (inference BN) absorbed into conv epilogues.
    pub fused_conv_affine: usize,
    /// ReLUs absorbed into conv epilogues.
    pub fused_conv_relu: usize,
    /// `add → relu` pairs fused.
    pub fused_add_relu: usize,
    /// Conv weights rewritten by BN folding.
    pub folded_bn: usize,
    /// Activation arena size in bytes (peak, fixed at compile time).
    pub arena_bytes: usize,
    /// Weight-table tensors.
    pub weights: usize,
    /// Weight-table bytes (shared `Arc`s counted once per plan).
    pub weight_bytes: usize,
    /// Dependency-DAG levels (waves of mutually independent ops). Each
    /// level advances the longest dependency chain by exactly one op, so
    /// this is also the critical-path depth in ops.
    pub levels: usize,
    /// Ops in the widest level — the plan's maximum op-level parallelism.
    pub max_level_width: usize,
    /// Pure-reshape `Copy` steps elided into arena aliases.
    pub copies_elided: usize,
    /// Quantization counters; `None` for a plan as captured (all f32).
    pub quant: Option<crate::quant::QuantStats>,
}

pub(crate) type ValId = usize;

/// Where a plan value lives at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loc {
    /// The forward input slice passed to `run_batch`.
    Input,
    /// Index into the plan weight table.
    Weight(usize),
    /// Bytes `[off, off+len)` of the execution arena.
    Arena { off: usize, len: usize },
    /// Not yet placed (pre-arena pass) or fused away.
    Unassigned,
}

/// Arena allocation granularity in bytes: every span starts on a 64-byte
/// boundary, so f32/f16/i32/i8 views over the `u64` backing are aligned.
pub(crate) const BLOCK: usize = 64;

/// Storage class of one plan value. Everything is `F32` as captured;
/// [`Plan::quantize`] narrows arena-resident values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Store {
    F32,
    F16,
    I8 { scale: f32 },
}

impl Store {
    pub(crate) fn elem_bytes(self) -> usize {
        match self {
            Store::F32 => 4,
            Store::F16 => 2,
            Store::I8 { .. } => 1,
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct ValueInfo {
    pub shape: Vec<usize>,
    pub numel: usize,
    pub loc: Loc,
    pub store: Store,
}

/// An op-local scratch span in the arena, in bytes (live only during its
/// op's level).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ArenaRange {
    pub off: usize,
    pub len: usize,
}

/// How one step executes. Everything is `Generic` as captured;
/// [`Plan::quantize`] moves eligible convs and linears onto the exact int8
/// GEMM, carrying their quantized weight copies.
#[derive(Clone, Debug)]
pub(crate) enum Kernel {
    /// The f32 reference arithmetic (`exec_op`); operands stored narrower
    /// than f32 are dequantized into scratch first, and a narrower output
    /// is staged in f32 and stored after.
    Generic,
    /// Conv on the int8 GEMM: per-OC weight scales, fused
    /// bias/affine/ReLU dequant epilogue.
    ConvI8 {
        qw: Vec<i8>,
        wscale: Vec<f32>,
        x_scale: f32,
    },
    /// `x @ W` on the int8 GEMM: per-column weight scales.
    MatmulI8 {
        qb: Vec<i8>,
        bscale: Vec<f32>,
        a_scale: f32,
    },
}

/// Batched-GEMM transpose flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BmmKind {
    Nn,
    Nt,
    Tn,
}

/// One executable plan op, with all dims resolved at compile time.
///
/// Field-for-field these mirror the tape forwards in
/// `mfaplace_autograd::Graph`; the executor replicates the recorded
/// per-element arithmetic exactly (see `exec.rs`).
#[derive(Clone, Debug)]
pub(crate) enum IrOp {
    Conv2d {
        x: ValId,
        w: ValId,
        /// Fused per-channel bias (weight-table value), if absorbed.
        bias: Option<ValId>,
        /// Fused inference-BN affine `(scale, shift)`, if absorbed.
        affine: Option<(Vec<f32>, Vec<f32>)>,
        /// Fused trailing ReLU.
        relu: bool,
        stride: usize,
        pad: usize,
        b: usize,
        c: usize,
        h: usize,
        w_in: usize,
        kh: usize,
        kw: usize,
        oc: usize,
        oh: usize,
        ow: usize,
    },
    AddBiasChannel {
        x: ValId,
        bias: ValId,
        b: usize,
        c: usize,
        hw: usize,
    },
    AddBiasRow {
        x: ValId,
        bias: ValId,
        d: usize,
    },
    Add {
        a: ValId,
        b: ValId,
        /// Fused trailing ReLU.
        relu: bool,
    },
    Sub {
        a: ValId,
        b: ValId,
    },
    Mul {
        a: ValId,
        b: ValId,
    },
    Neg {
        x: ValId,
    },
    Scale {
        x: ValId,
        c: f32,
    },
    Relu {
        x: ValId,
    },
    LeakyRelu {
        x: ValId,
        slope: f32,
    },
    Sigmoid {
        x: ValId,
    },
    Gelu {
        x: ValId,
    },
    ChannelAffine {
        x: ValId,
        scale: Vec<f32>,
        shift: Vec<f32>,
        b: usize,
        c: usize,
        hw: usize,
    },
    LayerNorm {
        x: ValId,
        gamma: ValId,
        beta: ValId,
        eps: f32,
        d: usize,
    },
    SoftmaxLast {
        x: ValId,
        d: usize,
    },
    Matmul {
        a: ValId,
        b: ValId,
        m: usize,
        k: usize,
        n: usize,
    },
    Bmm {
        kind: BmmKind,
        a: ValId,
        b: ValId,
        bt: usize,
        m: usize,
        k: usize,
        n: usize,
    },
    AttentionTm {
        q: ValId,
        k: ValId,
        v: ValId,
        scale: f32,
        b: usize,
        lq: usize,
        lk: usize,
        d: usize,
        dv: usize,
    },
    AttentionFm {
        q: ValId,
        k: ValId,
        v: ValId,
        scale: f32,
        b: usize,
        n: usize,
        nv: usize,
        l: usize,
    },
    /// Reshape: tape semantics are a copy, so the plan copies too.
    Copy {
        x: ValId,
    },
    Permute {
        x: ValId,
        /// Input stride for each *output* axis (`in_strides[axes[d]]`),
        /// precomputed so the runtime walk allocates nothing.
        stride_axes: Vec<usize>,
        out_dims: Vec<usize>,
    },
    ConcatChannels {
        parts: Vec<ValId>,
        part_c: Vec<usize>,
        b: usize,
        hw: usize,
        total_c: usize,
    },
    SliceChannels {
        x: ValId,
        c0: usize,
        c1: usize,
        b: usize,
        c: usize,
        hw: usize,
    },
    Upsample2x {
        x: ValId,
        planes: usize,
        h: usize,
        w: usize,
    },
    MaxPool2x2 {
        x: ValId,
        planes: usize,
        h: usize,
        w: usize,
    },
    MulScalarVar {
        x: ValId,
        s: ValId,
    },
}

/// One scheduled op and the value it defines.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    pub op: IrOp,
    pub out: ValId,
    pub kernel: Kernel,
    /// Distinct operands stored narrower than f32 that the generic kernel
    /// dequantizes, one per leading `scratch` piece (empty as captured).
    pub staged: Vec<ValId>,
    /// Op-local scratch spans in the order [`scratch_bytes`] declares them
    /// and the kernel consumes them; placed by [`assign_arena`].
    pub scratch: Vec<ArenaRange>,
}

/// A compiled, shape-specialized inference program.
///
/// Immutable once compiled; pair it with a [`crate::PlanExecutor`] (which
/// owns the mutable arena) to run forwards.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) steps: Vec<Step>,
    pub(crate) values: Vec<ValueInfo>,
    pub(crate) weights: Vec<Arc<Tensor>>,
    pub(crate) input: ValId,
    pub(crate) output: ValId,
    pub(crate) arena_bytes: usize,
    /// Step-index ranges of the dependency levels, in execution order.
    /// Steps are stored level-major, so the ranges are contiguous and
    /// cover `0..steps.len()`; ops inside one level are mutually
    /// independent and write pairwise-disjoint arena spans.
    pub(crate) levels: Vec<std::ops::Range<usize>>,
    /// Storage root per value (`alias[v] == v` unless `v` is an elided
    /// reshape of another value). Kept so [`Plan::quantize`] can redo
    /// liveness with narrower per-value sizes while honouring the same
    /// sharing.
    pub(crate) alias: Vec<ValId>,
    pub(crate) stats: PlanStats,
}

impl Plan {
    /// Compiles the tape segment `[mark, ..)` of `g` into a plan mapping
    /// `input` to `output`.
    ///
    /// See [`Plan::capture_cached`]; this variant snapshots parameters into
    /// a private weight table (no sharing across plans).
    pub fn capture(
        g: &Graph,
        mark: usize,
        input: Var,
        output: Var,
        opts: PlanOptions,
    ) -> Result<Plan, String> {
        let mut cache = HashMap::new();
        Self::capture_cached(g, mark, input, output, opts, &mut cache)
    }

    /// [`Plan::capture`] with a caller-owned parameter snapshot cache,
    /// keyed by pre-mark tape index (stable for persistent parameters).
    ///
    /// Plans for different batch sizes of the same model share one cache so
    /// the weight `Arc`s — the dominant memory cost — are stored once.
    /// Anything recorded *before* `mark` is treated as a constant and
    /// snapshotted at capture time; the plan is invalidated by later weight
    /// mutation (recompile after training steps).
    pub fn capture_cached(
        g: &Graph,
        mark: usize,
        input: Var,
        output: Var,
        opts: PlanOptions,
        weight_cache: &mut HashMap<usize, Arc<Tensor>>,
    ) -> Result<Plan, String> {
        let nodes = g.export_segment(mark)?;
        let mut values: Vec<ValueInfo> = Vec::new();
        let mut weights: Vec<Arc<Tensor>> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut tape2val: HashMap<usize, ValId> = HashMap::new();
        let mut input_val: Option<ValId> = None;

        for node in &nodes {
            if matches!(node.op, TapeOp::Leaf) {
                if node.index == input.index() {
                    let id = values.len();
                    values.push(ValueInfo {
                        shape: node.shape.clone(),
                        numel: node.shape.iter().product(),
                        loc: Loc::Input,
                        store: Store::F32,
                    });
                    tape2val.insert(node.index, id);
                    input_val = Some(id);
                } else {
                    // A constant materialized mid-forward (PGNN kernels).
                    // Not shared through the cache: post-mark tape indices
                    // are not stable across captures.
                    let t = Arc::new(g.value_at(node.index).clone());
                    let id = push_weight(&mut values, &mut weights, t);
                    tape2val.insert(node.index, id);
                }
                continue;
            }
            let out = values.len();
            values.push(ValueInfo {
                shape: node.shape.clone(),
                numel: node.shape.iter().product(),
                loc: Loc::Unassigned,
                store: Store::F32,
            });
            tape2val.insert(node.index, out);
            let op = lower_op(
                node.index,
                &node.op,
                &node.shape,
                LowerCtx {
                    g,
                    mark,
                    tape2val: &mut tape2val,
                    weight_cache,
                    values: &mut values,
                    weights: &mut weights,
                },
            )?;
            steps.push(Step {
                op,
                out,
                kernel: Kernel::Generic,
                staged: Vec::new(),
                scratch: Vec::new(),
            });
        }

        let input_val = input_val
            .ok_or_else(|| "plan input is not a leaf of the captured segment".to_string())?;
        let output_val = *tape2val
            .get(&output.index())
            .ok_or_else(|| "plan output is not in the captured segment".to_string())?;
        if !matches!(values[output_val].loc, Loc::Unassigned) {
            return Err("plan output must be computed inside the captured segment".to_string());
        }

        let mut stats = PlanStats::default();
        fuse(&mut steps, output_val, &mut stats);
        if opts.fold_bn {
            fold_bn(&mut steps, &mut values, &mut weights, &mut stats);
        }
        let alias = elide_copies(&mut steps, &values, output_val, &mut stats);
        let levels = schedule_levels(&mut steps, &values, &alias);

        stats.ops = steps.len();
        stats.weights = weights.len();
        stats.weight_bytes = weights
            .iter()
            .map(|w| w.numel() * std::mem::size_of::<f32>())
            .sum();
        stats.levels = levels.len();
        stats.max_level_width = levels.iter().map(|r| r.len()).max().unwrap_or(0);

        let mut plan = Plan {
            steps,
            values,
            weights,
            input: input_val,
            output: output_val,
            arena_bytes: 0,
            levels,
            alias,
            stats,
        };
        plan.layout()?;
        Ok(plan)
    }

    /// Places every value and declared scratch piece in the arena and
    /// verifies the result — the last stage of both capture and
    /// [`Plan::quantize`].
    pub(crate) fn layout(&mut self) -> Result<(), String> {
        self.arena_bytes = assign_arena(
            &mut self.steps,
            &mut self.values,
            self.output,
            &self.alias,
            &self.levels,
        );
        verify_levels(&self.steps, &self.values, &self.levels)?;
        self.stats.arena_bytes = self.arena_bytes;
        Ok(())
    }

    /// Compile-time counters (op/fusion/arena sizes).
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Shape of the input the plan was specialized for.
    pub fn input_shape(&self) -> &[usize] {
        &self.values[self.input].shape
    }

    /// Shape of the plan output.
    pub fn output_shape(&self) -> &[usize] {
        &self.values[self.output].shape
    }

    /// Arena length in `u64` backing words.
    pub(crate) fn arena_words(&self) -> usize {
        self.arena_bytes.div_ceil(8)
    }

    /// Number of elements the forward input must have.
    pub fn input_numel(&self) -> usize {
        self.values[self.input].numel
    }

    /// Estimated bytes of the plan's own metadata: op list, value table,
    /// alias map, level ranges and per-op heap vectors (fused affines,
    /// permute strides, concat part lists, scratch tables). Weight *data*
    /// — f32 tensors and quantized copies — is excluded; it is accounted
    /// separately via [`PlanStats::weight_bytes`]. The plan cache charges
    /// this so
    /// `MFAPLACE_PLAN_CACHE_MB` bounds what the process actually holds,
    /// not just arenas and weights.
    pub fn metadata_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.steps.len() * size_of::<Step>()
            + self.values.len() * size_of::<ValueInfo>()
            + self.alias.len() * size_of::<ValId>()
            + self.levels.len() * size_of::<std::ops::Range<usize>>()
            + self.weights.len() * size_of::<Arc<Tensor>>();
        for v in &self.values {
            b += v.shape.len() * size_of::<usize>();
        }
        for step in &self.steps {
            b += step.staged.len() * size_of::<ValId>()
                + step.scratch.len() * size_of::<ArenaRange>();
            b += match &step.op {
                IrOp::Conv2d { affine, .. } => affine
                    .as_ref()
                    .map_or(0, |(sc, sh)| (sc.len() + sh.len()) * size_of::<f32>()),
                IrOp::ChannelAffine { scale, shift, .. } => {
                    (scale.len() + shift.len()) * size_of::<f32>()
                }
                IrOp::Permute {
                    stride_axes,
                    out_dims,
                    ..
                } => (stride_axes.len() + out_dims.len()) * size_of::<usize>(),
                IrOp::ConcatChannels { parts, part_c, .. } => {
                    (parts.len() + part_c.len()) * size_of::<usize>()
                }
                _ => 0,
            };
        }
        b
    }

    /// Human-readable multi-line summary (the `model-info` output).
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compiled plan: {} ops, arena {:.2} MiB ({} bytes)",
            s.ops,
            s.arena_bytes as f64 / (1024.0 * 1024.0),
            s.arena_bytes,
        );
        let _ = writeln!(
            out,
            "  weights: {} tensors, {:.2} MiB",
            s.weights,
            s.weight_bytes as f64 / (1024.0 * 1024.0),
        );
        let _ = writeln!(
            out,
            "  fusions: conv+bias {}, conv+affine {}, conv+relu {}, add+relu {}, bn-folded {}",
            s.fused_conv_bias,
            s.fused_conv_affine,
            s.fused_conv_relu,
            s.fused_add_relu,
            s.folded_bn,
        );
        let _ = writeln!(
            out,
            "  scheduler: {} levels (critical path {} ops), widest level {} ops, copies elided {}",
            s.levels, s.levels, s.max_level_width, s.copies_elided,
        );
        if let Some(q) = &s.quant {
            let _ = writeln!(
                out,
                "  int8: {} int8-gemm / {} generic steps; values i8/f16/f32 {}/{}/{}; \
                 f32 arena {} bytes; quantized weights {} bytes",
                q.i8_steps,
                q.generic_steps,
                q.i8_values,
                q.f16_values,
                q.f32_values,
                q.f32_arena_bytes,
                q.qweight_bytes,
            );
        }
        let _ = write!(
            out,
            "  input {:?} -> output {:?}",
            self.input_shape(),
            self.output_shape(),
        );
        out
    }
}

fn push_weight(
    values: &mut Vec<ValueInfo>,
    weights: &mut Vec<Arc<Tensor>>,
    t: Arc<Tensor>,
) -> ValId {
    let id = values.len();
    values.push(ValueInfo {
        shape: t.shape().to_vec(),
        numel: t.numel(),
        loc: Loc::Weight(weights.len()),
        store: Store::F32,
    });
    weights.push(t);
    id
}

struct LowerCtx<'a> {
    g: &'a Graph,
    mark: usize,
    tape2val: &'a mut HashMap<usize, ValId>,
    weight_cache: &'a mut HashMap<usize, Arc<Tensor>>,
    values: &'a mut Vec<ValueInfo>,
    weights: &'a mut Vec<Arc<Tensor>>,
}

impl LowerCtx<'_> {
    /// Resolves a tape operand index to a plan value, snapshotting pre-mark
    /// nodes (parameters) into the weight table on first sight.
    fn resolve(&mut self, ti: usize) -> Result<ValId, String> {
        if let Some(&v) = self.tape2val.get(&ti) {
            return Ok(v);
        }
        if ti >= self.mark {
            return Err(format!(
                "operand {ti} references a segment node before its definition"
            ));
        }
        let t = self
            .weight_cache
            .entry(ti)
            .or_insert_with(|| Arc::new(self.g.value_at(ti).clone()))
            .clone();
        let id = push_weight(self.values, self.weights, t);
        self.tape2val.insert(ti, id);
        Ok(id)
    }

    fn shape(&self, v: ValId) -> &[usize] {
        &self.values[v].shape
    }

    fn dims4(&self, v: ValId) -> Result<(usize, usize, usize, usize), String> {
        let s = self.shape(v);
        if s.len() != 4 {
            return Err(format!("expected rank-4 operand, got {s:?}"));
        }
        Ok((s[0], s[1], s[2], s[3]))
    }
}

/// Lowers one exported tape op to an [`IrOp`] with baked dims.
fn lower_op(
    index: usize,
    op: &TapeOp,
    out_shape: &[usize],
    mut cx: LowerCtx<'_>,
) -> Result<IrOp, String> {
    let ir = match op {
        TapeOp::Leaf => unreachable!("leaves are handled by the capture loop"),
        TapeOp::Add(a, b) => IrOp::Add {
            a: cx.resolve(*a)?,
            b: cx.resolve(*b)?,
            relu: false,
        },
        TapeOp::Sub(a, b) => IrOp::Sub {
            a: cx.resolve(*a)?,
            b: cx.resolve(*b)?,
        },
        TapeOp::Mul(a, b) => IrOp::Mul {
            a: cx.resolve(*a)?,
            b: cx.resolve(*b)?,
        },
        TapeOp::Neg(x) => IrOp::Neg { x: cx.resolve(*x)? },
        TapeOp::Scale(x, c) => IrOp::Scale {
            x: cx.resolve(*x)?,
            c: *c,
        },
        TapeOp::Matmul(a, b) => {
            let (a, b) = (cx.resolve(*a)?, cx.resolve(*b)?);
            let (m, k) = (cx.shape(a)[0], cx.shape(a)[1]);
            let n = cx.shape(b)[1];
            IrOp::Matmul { a, b, m, k, n }
        }
        TapeOp::Bmm(a, b) | TapeOp::BmmNT(a, b) | TapeOp::BmmTN(a, b) => {
            let kind = match op {
                TapeOp::Bmm(..) => BmmKind::Nn,
                TapeOp::BmmNT(..) => BmmKind::Nt,
                _ => BmmKind::Tn,
            };
            let (a, b) = (cx.resolve(*a)?, cx.resolve(*b)?);
            let sa = cx.shape(a);
            let (bt, m, k) = match kind {
                // a: [bt, m, k] for NN/NT; [bt, k, m] for TN.
                BmmKind::Nn | BmmKind::Nt => (sa[0], sa[1], sa[2]),
                BmmKind::Tn => (sa[0], sa[2], sa[1]),
            };
            let sb = cx.shape(b);
            let n = match kind {
                BmmKind::Nn | BmmKind::Tn => sb[2],
                BmmKind::Nt => sb[1],
            };
            IrOp::Bmm {
                kind,
                a,
                b,
                bt,
                m,
                k,
                n,
            }
        }
        TapeOp::Attention {
            q,
            k,
            v,
            scale,
            feature_major,
        } => {
            let (q, k, v) = (cx.resolve(*q)?, cx.resolve(*k)?, cx.resolve(*v)?);
            if *feature_major {
                let (b, n, l) = {
                    let s = cx.shape(q);
                    (s[0], s[1], s[2])
                };
                let nv = cx.shape(v)[1];
                IrOp::AttentionFm {
                    q,
                    k,
                    v,
                    scale: *scale,
                    b,
                    n,
                    nv,
                    l,
                }
            } else {
                let (b, lq, d) = {
                    let s = cx.shape(q);
                    (s[0], s[1], s[2])
                };
                let lk = cx.shape(k)[1];
                let dv = cx.shape(v)[2];
                IrOp::AttentionTm {
                    q,
                    k,
                    v,
                    scale: *scale,
                    b,
                    lq,
                    lk,
                    d,
                    dv,
                }
            }
        }
        TapeOp::Conv2d { x, w, stride, pad } => {
            let (x, w) = (cx.resolve(*x)?, cx.resolve(*w)?);
            let (b, c, h, w_in) = cx.dims4(x)?;
            let ws = cx.shape(w);
            if ws.len() != 4 {
                return Err(format!("node {index}: conv weight must be rank-4"));
            }
            let (oc, kh, kw) = (ws[0], ws[2], ws[3]);
            let (oh, ow) = conv_out_size(h, w_in, kh, kw, *stride, *pad);
            IrOp::Conv2d {
                x,
                w,
                bias: None,
                affine: None,
                relu: false,
                stride: *stride,
                pad: *pad,
                b,
                c,
                h,
                w_in,
                kh,
                kw,
                oc,
                oh,
                ow,
            }
        }
        TapeOp::AddBiasChannel(x, bias) => {
            let (x, bias) = (cx.resolve(*x)?, cx.resolve(*bias)?);
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::AddBiasChannel {
                x,
                bias,
                b,
                c,
                hw: h * w,
            }
        }
        TapeOp::AddBiasRow(x, bias) => {
            let (x, bias) = (cx.resolve(*x)?, cx.resolve(*bias)?);
            let d = *cx.shape(x).last().expect("rank >= 1");
            IrOp::AddBiasRow { x, bias, d }
        }
        TapeOp::Relu(x) => IrOp::Relu { x: cx.resolve(*x)? },
        TapeOp::LeakyRelu(x, slope) => IrOp::LeakyRelu {
            x: cx.resolve(*x)?,
            slope: *slope,
        },
        TapeOp::Sigmoid(x) => IrOp::Sigmoid { x: cx.resolve(*x)? },
        TapeOp::Gelu(x) => IrOp::Gelu { x: cx.resolve(*x)? },
        TapeOp::ChannelAffine { x, scale, shift } => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::ChannelAffine {
                x,
                scale: scale.clone(),
                shift: shift.clone(),
                b,
                c,
                hw: h * w,
            }
        }
        TapeOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        } => {
            let (x, gamma, beta) = (cx.resolve(*x)?, cx.resolve(*gamma)?, cx.resolve(*beta)?);
            let d = *cx.shape(x).last().expect("rank >= 1");
            IrOp::LayerNorm {
                x,
                gamma,
                beta,
                eps: *eps,
                d,
            }
        }
        TapeOp::SoftmaxLast(x) => {
            let x = cx.resolve(*x)?;
            let d = *cx.shape(x).last().expect("rank >= 1");
            IrOp::SoftmaxLast { x, d }
        }
        TapeOp::Reshape(x) => IrOp::Copy { x: cx.resolve(*x)? },
        TapeOp::Permute { x, axes } => {
            let x = cx.resolve(*x)?;
            let in_strides = strides_for(cx.shape(x));
            if axes.len() > 8 {
                return Err(format!("node {index}: permute rank > 8 unsupported"));
            }
            IrOp::Permute {
                x,
                stride_axes: axes.iter().map(|&a| in_strides[a]).collect(),
                out_dims: out_shape.to_vec(),
            }
        }
        TapeOp::ConcatChannels(parts) => {
            let parts = parts
                .iter()
                .map(|&p| cx.resolve(p))
                .collect::<Result<Vec<_>, _>>()?;
            let (b, _, h, w) = cx.dims4(parts[0])?;
            let part_c: Vec<usize> = parts.iter().map(|&p| cx.shape(p)[1]).collect();
            let total_c = part_c.iter().sum();
            IrOp::ConcatChannels {
                parts,
                part_c,
                b,
                hw: h * w,
                total_c,
            }
        }
        TapeOp::SliceChannels { x, c0, c1 } => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::SliceChannels {
                x,
                c0: *c0,
                c1: *c1,
                b,
                c,
                hw: h * w,
            }
        }
        TapeOp::Upsample2x(x) => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::Upsample2x {
                x,
                planes: b * c,
                h,
                w,
            }
        }
        TapeOp::MaxPool2x2(x) => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::MaxPool2x2 {
                x,
                planes: b * c,
                h,
                w,
            }
        }
        TapeOp::MulScalarVar(x, s) => IrOp::MulScalarVar {
            x: cx.resolve(*x)?,
            s: cx.resolve(*s)?,
        },
    };
    Ok(ir)
}

/// Calls `f` for every operand value of `op` (with repeats if aliased).
pub(crate) fn for_each_operand(op: &IrOp, f: &mut dyn FnMut(ValId)) {
    match op {
        IrOp::Conv2d { x, w, bias, .. } => {
            f(*x);
            f(*w);
            if let Some(b) = bias {
                f(*b);
            }
        }
        IrOp::AddBiasChannel { x, bias, .. } | IrOp::AddBiasRow { x, bias, .. } => {
            f(*x);
            f(*bias);
        }
        IrOp::Add { a, b, .. } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
            f(*a);
            f(*b);
        }
        IrOp::Neg { x }
        | IrOp::Scale { x, .. }
        | IrOp::Relu { x }
        | IrOp::LeakyRelu { x, .. }
        | IrOp::Sigmoid { x }
        | IrOp::Gelu { x }
        | IrOp::ChannelAffine { x, .. }
        | IrOp::SoftmaxLast { x, .. }
        | IrOp::Copy { x }
        | IrOp::Permute { x, .. }
        | IrOp::SliceChannels { x, .. }
        | IrOp::Upsample2x { x, .. }
        | IrOp::MaxPool2x2 { x, .. } => f(*x),
        IrOp::LayerNorm { x, gamma, beta, .. } => {
            f(*x);
            f(*gamma);
            f(*beta);
        }
        IrOp::Matmul { a, b, .. } | IrOp::Bmm { a, b, .. } => {
            f(*a);
            f(*b);
        }
        IrOp::AttentionTm { q, k, v, .. } | IrOp::AttentionFm { q, k, v, .. } => {
            f(*q);
            f(*k);
            f(*v);
        }
        IrOp::ConcatChannels { parts, .. } => {
            for &p in parts {
                f(p);
            }
        }
        IrOp::MulScalarVar { x, s } => {
            f(*x);
            f(*s);
        }
    }
}

/// The work one step must do, read off the plan's value shapes: the
/// roofline inputs of `mfaplace profile`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepCost {
    /// Floating-point operations: `2·m·k·n` per contraction (conv, matmul,
    /// bmm, both attention products), one per output element for
    /// elementwise and normalization ops, none for pure data movement.
    pub flops: u64,
    /// `exp`-class evaluations (softmax numerators, sigmoid, GELU).
    pub exps: u64,
    /// Bytes of every operand read once plus the output written once — the
    /// least the op can move, whatever its kernel re-reads from cache.
    pub bytes: u64,
    /// The dims that set the cost, for ops whose output shape hides them
    /// (`L=16384 n=2 nv=2` for a position attention); empty otherwise.
    pub dims: String,
}

impl Plan {
    /// The [`StepCost`] of `step` (one of this plan's steps).
    pub(crate) fn step_cost(&self, step: &Step) -> StepCost {
        let value_bytes = |v: ValId| {
            let info = &self.values[v];
            (info.numel * info.store.elem_bytes()) as u64
        };
        let mut bytes = value_bytes(step.out);
        for_each_operand(&step.op, &mut |v| bytes += value_bytes(v));
        let out = self.values[step.out].numel as u64;
        let (flops, exps, dims) = match &step.op {
            IrOp::Conv2d {
                b,
                c,
                kh,
                kw,
                oc,
                oh,
                ow,
                ..
            } => (
                2 * (b * oc * oh * ow * c * kh * kw) as u64,
                0,
                format!("c={c} oc={oc} k={kh}x{kw} out={oh}x{ow}"),
            ),
            IrOp::Matmul { m, k, n, .. } => {
                (2 * (m * k * n) as u64, 0, format!("m={m} k={k} n={n}"))
            }
            IrOp::Bmm { bt, m, k, n, .. } => (
                2 * (bt * m * k * n) as u64,
                0,
                format!("b={bt} m={m} k={k} n={n}"),
            ),
            IrOp::AttentionTm {
                b, lq, lk, d, dv, ..
            } => (
                (b * lq * lk * (2 * d + 2 * dv)) as u64,
                (b * lq * lk) as u64,
                format!("b={b} Lq={lq} Lk={lk} d={d} dv={dv}"),
            ),
            IrOp::AttentionFm { b, n, nv, l, .. } => (
                (b * l * l * (2 * n + 2 * nv)) as u64,
                (b * l * l) as u64,
                format!("b={b} L={l} n={n} nv={nv}"),
            ),
            IrOp::SoftmaxLast { d, .. } => (out, out, format!("d={d}")),
            IrOp::Sigmoid { .. } | IrOp::Gelu { .. } => (out, out, String::new()),
            IrOp::Copy { .. }
            | IrOp::Permute { .. }
            | IrOp::ConcatChannels { .. }
            | IrOp::SliceChannels { .. }
            | IrOp::Upsample2x { .. } => (0, 0, String::new()),
            _ => (out, 0, String::new()),
        };
        StepCost {
            flops,
            exps,
            bytes,
            dims,
        }
    }
}

/// What a conv (or add) chain step absorbs during fusion.
enum Absorb {
    Bias(ValId),
    Affine(Vec<f32>, Vec<f32>),
    Relu,
}

/// Fuses single-consumer `conv → bias → affine → relu` chains into the
/// conv's epilogue, and `add → relu` pairs.
///
/// Safe for the bitwise contract: the fused epilogue applies the exact
/// per-element op sequence the tape recorded (see
/// `mfaplace_tensor::lowlevel::conv_reorder_epilogue`).
fn fuse(steps: &mut Vec<Step>, output: ValId, stats: &mut PlanStats) {
    // consumers[v] = indices of steps reading v.
    let max_val = steps.iter().map(|s| s.out + 1).max().unwrap_or(0);
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); max_val];
    for (i, step) in steps.iter().enumerate() {
        for_each_operand(&step.op, &mut |v| {
            if v < max_val {
                consumers[v].push(i);
            }
        });
    }
    let mut removed = vec![false; steps.len()];
    for i in 0..steps.len() {
        if removed[i] {
            continue;
        }
        let is_conv = matches!(steps[i].op, IrOp::Conv2d { .. });
        let is_add = matches!(steps[i].op, IrOp::Add { relu: false, .. });
        if !is_conv && !is_add {
            continue;
        }
        loop {
            let out = steps[i].out;
            if out == output || consumers[out].len() != 1 {
                break;
            }
            let j = consumers[out][0];
            if removed[j] {
                break;
            }
            let absorb = if is_conv {
                let IrOp::Conv2d {
                    bias, affine, relu, ..
                } = &steps[i].op
                else {
                    unreachable!()
                };
                match &steps[j].op {
                    IrOp::AddBiasChannel { x, bias: bv, .. }
                        if *x == out && bias.is_none() && affine.is_none() && !relu =>
                    {
                        Some(Absorb::Bias(*bv))
                    }
                    IrOp::ChannelAffine {
                        x, scale, shift, ..
                    } if *x == out && !relu => Some(Absorb::Affine(scale.clone(), shift.clone())),
                    IrOp::Relu { x } if *x == out && !relu => Some(Absorb::Relu),
                    _ => None,
                }
            } else {
                match &steps[j].op {
                    IrOp::Relu { x } if *x == out => Some(Absorb::Relu),
                    _ => None,
                }
            };
            let Some(absorb) = absorb else { break };
            let new_out = steps[j].out;
            match (&mut steps[i].op, absorb) {
                (IrOp::Conv2d { bias, .. }, Absorb::Bias(bv)) => {
                    *bias = Some(bv);
                    stats.fused_conv_bias += 1;
                }
                (IrOp::Conv2d { affine, .. }, Absorb::Affine(sc, sh)) => {
                    *affine = Some((sc, sh));
                    stats.fused_conv_affine += 1;
                }
                (IrOp::Conv2d { relu, .. }, Absorb::Relu) => {
                    *relu = true;
                    stats.fused_conv_relu += 1;
                }
                (IrOp::Add { relu, .. }, Absorb::Relu) => {
                    *relu = true;
                    stats.fused_add_relu += 1;
                }
                _ => unreachable!(),
            }
            steps[i].out = new_out;
            removed[j] = true;
            if is_add {
                break; // add absorbs at most the one trailing relu
            }
        }
    }
    let mut keep = removed.iter().map(|r| !r);
    steps.retain(|_| keep.next().expect("keep mask length"));
}

/// Folds fused `channel_affine` epilogues into conv weights/bias via f64
/// intermediates. Only runs when the conv weight (and bias) are
/// weight-table constants — always true for captured model forwards.
fn fold_bn(
    steps: &mut [Step],
    values: &mut Vec<ValueInfo>,
    weights: &mut Vec<Arc<Tensor>>,
    stats: &mut PlanStats,
) {
    for step in steps.iter_mut() {
        let IrOp::Conv2d {
            w,
            bias,
            affine,
            oc,
            ..
        } = &mut step.op
        else {
            continue;
        };
        if affine.is_none() {
            continue;
        }
        let Loc::Weight(widx) = values[*w].loc else {
            continue;
        };
        let bias_data: Option<Vec<f32>> = match bias {
            Some(bid) => match values[*bid].loc {
                Loc::Weight(bidx) => Some(weights[bidx].data().to_vec()),
                _ => continue,
            },
            None => None,
        };
        let (scale, shift) = affine.take().expect("checked above");
        let wt = &weights[widx];
        let mut wd: Vec<f32> = wt.data().to_vec();
        let per_oc = wd.len() / *oc;
        for o in 0..*oc {
            let s = f64::from(scale[o]);
            for v in &mut wd[o * per_oc..(o + 1) * per_oc] {
                *v = (s * f64::from(*v)) as f32;
            }
        }
        let new_w = Tensor::from_vec(wt.shape().to_vec(), wd).expect("folded conv weight");
        *w = push_weight(values, weights, Arc::new(new_w));
        let new_bias: Vec<f32> = match &bias_data {
            Some(bd) => (0..*oc)
                .map(|o| (f64::from(scale[o]) * f64::from(bd[o]) + f64::from(shift[o])) as f32)
                .collect(),
            // No pre-existing bias: the folded bias is the shift exactly.
            None => shift.clone(),
        };
        let new_bias = Tensor::from_vec(vec![*oc], new_bias).expect("folded conv bias");
        *bias = Some(push_weight(values, weights, Arc::new(new_bias)));
        stats.folded_bn += 1;
    }
}

/// First-fit arena allocator over `(off, len)` holes, with coalescing.
/// Unit-agnostic; [`assign_arena`] allocates in [`BLOCK`]s.
#[derive(Default)]
struct FreeList {
    /// Free holes sorted by offset, pairwise non-adjacent.
    free: Vec<(usize, usize)>,
    /// High-water mark: total arena length.
    high: usize,
}

impl FreeList {
    fn alloc(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        for i in 0..self.free.len() {
            let (off, hole) = self.free[i];
            if hole >= len {
                if hole == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, hole - len);
                }
                return off;
            }
        }
        let off = self.high;
        self.high += len;
        off
    }

    fn release(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let pos = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(pos, (off, len));
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }
}

/// Rewrites pure-reshape [`IrOp::Copy`] steps into aliases of their source
/// value and removes them from the step list.
///
/// Returns `alias`, mapping every value to its storage root (`alias[v] ==
/// v` for non-aliased values; chains are collapsed at build time). Safe
/// because no IR op ever mutates an existing span — a reshape output is
/// byte-identical to its source forever — provided the liveness pass keeps
/// the shared span alive until the last reader of *any* member of the
/// alias class ([`assign_arena`] resolves reads through `alias` for
/// exactly this write-after-read extension).
///
/// The one copy kept: a reshape **of the input or a weight** that is the
/// plan output, because the executor's output getter requires an
/// arena-resident span.
fn elide_copies(
    steps: &mut Vec<Step>,
    values: &[ValueInfo],
    output: ValId,
    stats: &mut PlanStats,
) -> Vec<ValId> {
    let mut alias: Vec<ValId> = (0..values.len()).collect();
    let mut removed: Vec<bool> = Vec::with_capacity(steps.len());
    for step in steps.iter() {
        let IrOp::Copy { x } = step.op else {
            removed.push(false);
            continue;
        };
        let root = alias[x];
        let root_in_arena = matches!(values[root].loc, Loc::Unassigned);
        if step.out == output && !root_in_arena {
            removed.push(false);
            continue;
        }
        debug_assert_eq!(values[step.out].numel, values[root].numel);
        alias[step.out] = root;
        stats.copies_elided += 1;
        removed.push(true);
    }
    let mut rm = removed.into_iter();
    steps.retain(|_| !rm.next().expect("removal mask covers all steps"));
    alias
}

/// Partitions the steps into dependency levels (ASAP schedule): `level[s]`
/// is the length of the longest operand chain feeding `s`, so every level
/// is a wave of mutually independent ops and the level count equals the
/// DAG's critical-path depth. Reorders `steps` level-major (stable within
/// a level, preserving the original op-index merge order) and returns the
/// contiguous step range of each level.
fn schedule_levels(
    steps: &mut Vec<Step>,
    values: &[ValueInfo],
    alias: &[ValId],
) -> Vec<std::ops::Range<usize>> {
    let n = steps.len();
    // def_level[v]: level of the step defining root value v (None for the
    // input and weights, which are ready before level 0).
    let mut def_level: Vec<Option<usize>> = vec![None; values.len()];
    let mut level_of: Vec<usize> = vec![0; n];
    for (i, step) in steps.iter().enumerate() {
        let mut lv = 0usize;
        for_each_operand(&step.op, &mut |v| {
            if let Some(dl) = def_level[alias[v]] {
                lv = lv.max(dl + 1);
            }
        });
        level_of[i] = lv;
        def_level[step.out] = Some(lv);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (level_of[i], i));
    let reordered: Vec<Step> = order.iter().map(|&i| steps[i].clone()).collect();
    *steps = reordered;
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for j in 1..=n {
        if j == n || level_of[order[j]] != level_of[order[j - 1]] {
            ranges.push(start..j);
            start = j;
        }
    }
    ranges
}

/// Byte sizes of the scratch pieces `step`'s kernel consumes, in order.
/// The single declaration both the allocator and the executor rely on: the
/// executor takes whole pieces, never recomputing a size.
///
/// - generic: one f32 buffer per `staged` operand, an f32 staging buffer
///   for a narrower-than-f32 output, then the op's own scratch (conv
///   im2col + `[OC, B*OH*OW]` GEMM result, or one attention score row);
/// - int8 conv: the quantized input unless it is already stored as i8,
///   the i8 im2col matrix, the i32 GEMM result;
/// - int8 matmul: the quantized left operand unless stored as i8, the i32
///   GEMM result.
fn scratch_bytes(step: &Step, values: &[ValueInfo]) -> Vec<usize> {
    let quantized_copy =
        |v: ValId| (!matches!(values[v].store, Store::I8 { .. })).then_some(values[v].numel);
    match (&step.kernel, &step.op) {
        (
            Kernel::ConvI8 { .. },
            IrOp::Conv2d {
                x,
                b,
                c,
                kh,
                kw,
                oc,
                oh,
                ow,
                ..
            },
        ) => {
            let ncols = b * oh * ow;
            quantized_copy(*x)
                .into_iter()
                .chain([c * kh * kw * ncols, 4 * oc * ncols])
                .collect()
        }
        (Kernel::MatmulI8 { .. }, IrOp::Matmul { a, m, n, .. }) => {
            quantized_copy(*a).into_iter().chain([4 * m * n]).collect()
        }
        (Kernel::Generic, op) => {
            let mut pieces: Vec<usize> = step.staged.iter().map(|&v| 4 * values[v].numel).collect();
            if values[step.out].store != Store::F32 {
                pieces.push(4 * values[step.out].numel);
            }
            match op {
                IrOp::Conv2d {
                    b,
                    c,
                    kh,
                    kw,
                    oc,
                    oh,
                    ow,
                    ..
                } => pieces.extend([4 * c * kh * kw * b * oh * ow, 4 * oc * b * oh * ow]),
                IrOp::AttentionTm { lk, .. } => pieces.push(4 * lk),
                IrOp::AttentionFm { l, .. } => pieces.push(4 * l),
                _ => {}
            }
            pieces
        }
        (kernel, op) => unreachable!("{kernel:?} never compiles from {op:?}"),
    }
}

/// Assigns every intermediate and every declared scratch piece an arena
/// span from liveness intervals; returns the arena length in bytes.
///
/// Spans are allocated and released at **level** granularity: all of a
/// level's outputs and scratch are placed while every span read at or
/// after this level is still held, and frees happen only at the end of a
/// level. Consequences, which the executor's raw-pointer slicing relies
/// on:
///
/// - an op's destination/scratch span never overlaps a live source span
///   (the per-op invariant serial replay needs), and
/// - ops in the *same* level hold pairwise-disjoint write spans and never
///   write a span any same-level op reads (the stronger invariant that
///   makes parallel level execution bitwise identical to serial replay).
///
/// Reads resolve through `alias`, so an elided reshape extends its
/// source's lifetime to the last reader of the whole alias class.
fn assign_arena(
    steps: &mut [Step],
    values: &mut [ValueInfo],
    output: ValId,
    alias: &[ValId],
    levels: &[std::ops::Range<usize>],
) -> usize {
    let out_root = alias[output];
    // last_level[r]: level of the final read of root value r.
    let mut last_level: Vec<Option<usize>> = vec![None; values.len()];
    for (li, range) in levels.iter().enumerate() {
        for step in &steps[range.clone()] {
            for_each_operand(&step.op, &mut |v| {
                last_level[alias[v]] = Some(li);
            });
        }
    }

    let mut fl = FreeList::default();
    let place = |fl: &mut FreeList, len: usize| ArenaRange {
        off: fl.alloc(len.div_ceil(BLOCK)) * BLOCK,
        len,
    };
    let release = |fl: &mut FreeList, off: usize, len: usize| {
        fl.release(off / BLOCK, len.div_ceil(BLOCK));
    };
    let mut freed = vec![false; values.len()];
    for (li, range) in levels.iter().enumerate() {
        // Allocate every output and scratch span of the level first…
        for step in &mut steps[range.clone()] {
            let out = step.out;
            let span = place(&mut fl, values[out].numel * values[out].store.elem_bytes());
            values[out].loc = Loc::Arena {
                off: span.off,
                len: span.len,
            };
            step.scratch = scratch_bytes(step, values)
                .into_iter()
                .map(|len| place(&mut fl, len))
                .collect();
        }
        // …then release at level end: scratch, operands whose final read
        // is in this level, and outputs nothing ever reads.
        for step in &steps[range.clone()] {
            for s in &step.scratch {
                release(&mut fl, s.off, s.len);
            }
        }
        for step in &steps[range.clone()] {
            let mut dying: Vec<ValId> = Vec::new();
            for_each_operand(&step.op, &mut |v| {
                let r = alias[v];
                if last_level[r] == Some(li) && r != out_root && !dying.contains(&r) {
                    dying.push(r);
                }
            });
            let out = step.out;
            if last_level[out].is_none() && out != out_root {
                dying.push(out);
            }
            for r in dying {
                if let Loc::Arena { off, len } = values[r].loc {
                    if !freed[r] {
                        release(&mut fl, off, len);
                        freed[r] = true;
                    }
                }
            }
        }
    }
    // Aliased values share their root's storage (same byte length — a
    // reshape preserves numel and storage class; roots that are weights
    // or the input keep their non-arena loc).
    for v in 0..values.len() {
        if alias[v] != v {
            values[v].loc = values[alias[v]].loc;
        }
    }
    fl.high * BLOCK
}

/// The arena spans `step` writes: its output and its scratch pieces.
pub(crate) fn write_spans<'a>(
    step: &'a Step,
    values: &'a [ValueInfo],
) -> impl Iterator<Item = (usize, usize)> + Clone + 'a {
    let out = match values[step.out].loc {
        Loc::Arena { off, len } => Some((off, len)),
        _ => None,
    };
    out.into_iter()
        .chain(step.scratch.iter().map(|r| (r.off, r.len)))
        .filter(|&(_, len)| len > 0)
}

pub(crate) fn spans_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

/// Post-assignment safety check of the parallel-execution invariant: ops
/// in the same level must neither write overlapping spans nor write a span
/// another same-level op reads. A violation turns into a capture error
/// (the predictor then falls back to the tape engine) instead of silent
/// data corruption.
pub(crate) fn verify_levels(
    steps: &[Step],
    values: &[ValueInfo],
    levels: &[std::ops::Range<usize>],
) -> Result<(), String> {
    let read_spans = |step: &Step| -> Vec<(usize, usize)> {
        let mut r = Vec::new();
        for_each_operand(&step.op, &mut |v| {
            if let Loc::Arena { off, len } = values[v].loc {
                if len > 0 {
                    r.push((off, len));
                }
            }
        });
        r
    };
    for (li, range) in levels.iter().enumerate() {
        let level = &steps[range.clone()];
        for i in 0..level.len() {
            let ri = read_spans(&level[i]);
            for other in level.iter().skip(i + 1) {
                let rj = read_spans(other);
                for a in write_spans(&level[i], values) {
                    if write_spans(other, values).any(|b| spans_overlap(a, b)) {
                        return Err(format!("level {li}: write/write span overlap"));
                    }
                    if rj.iter().any(|&b| spans_overlap(a, b)) {
                        return Err(format!("level {li}: write/read span overlap"));
                    }
                }
                for &a in &ri {
                    if write_spans(other, values).any(|b| spans_overlap(a, b)) {
                        return Err(format!("level {li}: read/write span overlap"));
                    }
                }
            }
        }
    }
    Ok(())
}
