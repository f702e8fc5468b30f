//! The plan executor: runs a compiled [`Plan`] — as captured or quantized
//! — with zero per-forward heap allocations, writing every intermediate
//! into the pre-sized arena.
//!
//! # Bitwise contract
//!
//! Every op calls the *same* kernel the tape forward calls — the slice
//! kernels of `mfaplace_tensor::lowlevel` (GEMM family, the direct
//! convolution and its epilogue, element-wise and shape ops, softmax), layer norm and the
//! `*_slices` attention entry points — so the plan and the tape compute
//! every element with one piece of code and one parallel dispatch. The
//! equivalence suite asserts bit equality against the tape for every zoo
//! architecture. Quantized plans trade that contract for the
//! level-map tolerance contract (see `quant.rs`) but stay bitwise
//! run to run.
//!
//! # Allocation contract
//!
//! A forward performs no heap allocation: outputs and the op-local scratch
//! each step declares (attention score rows and the token-major adapter's
//! transposes, the int8 conv's lowering, quantize/dequantize staging) live
//! at plan-assigned arena offsets; an f32 convolution packs its column
//! blocks in the thread's kernel scratch.
//! The one documented exception matches the tape path: when a kernel is
//! large enough to fan out, each worker allocates its own buffers
//! (identical behaviour and threshold as the tape kernel, so tape-vs-plan
//! comparisons stay fair).
//!
//! # Safety
//!
//! Each step borrows its own output and scratch spans mutably while reading
//! its operand spans, all through raw pointers into one arena. Soundness
//! rests on the allocator invariant `verify_step` states (a step's write
//! spans are pairwise disjoint, overlap none of its operands, and end
//! inside the arena): `Plan::layout` checks it for every step at capture
//! and quantization, and debug builds assert it again before each step
//! executes.

use std::time::Instant;

use mfaplace_tensor::lowlevel::{self, map_into, zip_into, ConvDims};
use mfaplace_tensor::{attention_fm_slices, attention_tm_slices, layer_norm_rows};

use crate::plan::{
    verify_step, ArenaRange, BmmKind, IrOp, Kernel, Loc, Plan, Step, StepCost, Store, ValId,
};
use crate::quant;

/// Runs one forward of `plan` over `input` using `arena` for every
/// intermediate, growing (never shrinking) the arena to the plan's
/// requirement first. Returns the output slice, valid until the arena is
/// next written. Allocation-free once the arena is large enough.
///
/// The arena is caller-owned, so one arena can be reused across
/// *different* plans (the predictor keeps one arena per model while plans
/// live in a shared cache). Safe because every plan op either fully
/// overwrites its destination span or explicitly clears it first — stale
/// data from a previous plan is never observable.
pub fn run_plan<'a>(plan: &Plan, arena: &'a mut Vec<u64>, input: &[f32]) -> &'a [f32] {
    replay(plan, arena, input, None)
}

/// Called as `observe(step_index, out)` after each step has run; `out` is
/// the step's finished output when it is stored as f32.
pub(crate) type Observer<'o> = &'o mut dyn FnMut(usize, Option<&[f32]>);

/// [`run_plan`] with an optional per-step observer — the quantization
/// calibrator's hook for collecting per-value activation ranges and
/// [`profile_plan`]'s for step boundaries, so the unobserved run loop
/// carries neither. The observer only reads.
pub(crate) fn replay<'a>(
    plan: &Plan,
    arena: &'a mut Vec<u64>,
    input: &[f32],
    mut observe: Option<Observer<'_>>,
) -> &'a [f32] {
    assert_eq!(
        input.len(),
        plan.input_numel(),
        "plan input length mismatch (plan compiled for shape {:?})",
        plan.input_shape(),
    );
    if arena.len() < plan.arena_words() {
        arena.resize(plan.arena_words(), 0);
    }
    let base = arena.as_mut_ptr().cast::<u8>();
    // The finished f32 span of value `v`, if it has one.
    let f32_span = |v: ValId| match (plan.values[v].loc, plan.values[v].store) {
        // SAFETY: called only between steps, when no mutable borrow of the
        // arena is live; the span lies inside the allocation sized above.
        (Loc::Arena { off, .. }, Store::F32) => {
            Some(unsafe { &*span::<f32>(base, off, plan.values[v].numel) })
        }
        _ => None,
    };
    for (i, step) in plan.steps.iter().enumerate() {
        debug_assert_eq!(
            verify_step(step, &plan.values, plan.arena_bytes),
            Ok(()),
            "step {i}: {step:?}"
        );
        exec_step(plan, input, base, step);
        if let Some(observe) = observe.as_deref_mut() {
            observe(i, f32_span(step.out));
        }
    }
    mfaplace_rt::timer::count("infer/plan_forwards", 1);
    f32_span(plan.output).expect("plan output is always an f32 arena span")
}

/// One step of a [`profile_plan`] replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepProfile {
    /// Position in the plan's step list, which is capture order.
    pub index: usize,
    /// Op variant name, suffixed `[i8]` when the step runs on the int8 GEMM.
    pub kind: String,
    /// Elements in the step's output value.
    pub out_numel: usize,
    /// Wall time from the previous step's end to this step's end.
    pub ns: u64,
    /// FLOPs, `exp` evaluations and bytes the op must do, from its shapes.
    pub cost: StepCost,
    /// Arena bytes of the op-local scratch the step declares.
    pub scratch_bytes: usize,
}

/// Per-step timing of one forward — see [`profile_plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanProfile {
    /// Every plan step, in execution order.
    pub steps: Vec<StepProfile>,
    /// Wall time of the whole replay call, prologue and epilogue included:
    /// what the step times must add up to.
    pub wall_ns: u64,
    /// Worker threads the timed replay spawned ([`mfaplace_rt::pool::spawns`]).
    pub spawns: u64,
}

/// Times every step of one warm serial forward of `plan` over `input`.
///
/// Runs the plan once untimed (arena sized, kernel scratch grown, timer
/// labels registered), then replays it with an observer that reads the
/// clock at each step boundary. Step `i` is charged the time since step
/// `i − 1` ended, so the steps tile the replay and their sum falls short
/// of [`PlanProfile::wall_ns`] only by the loop's own prologue and
/// epilogue.
pub fn profile_plan(plan: &Plan, arena: &mut Vec<u64>, input: &[f32]) -> PlanProfile {
    run_plan(plan, arena, input);
    // The observer only reads the clock; everything else happens outside
    // the timed replay. Boundaries arrive in step order.
    let mut ends = Vec::with_capacity(plan.steps.len());
    let spawns = mfaplace_rt::pool::spawns();
    let start = Instant::now();
    replay(
        plan,
        arena,
        input,
        Some(&mut |_index, _out| ends.push(Instant::now())),
    );
    let wall_ns = start.elapsed().as_nanos() as u64;
    let spawns = mfaplace_rt::pool::spawns() - spawns;
    let mut last = start;
    let steps = plan
        .steps
        .iter()
        .zip(ends)
        .enumerate()
        .map(|(index, (step, end))| {
            let ns = (end - last).as_nanos() as u64;
            last = end;
            StepProfile {
                index,
                kind: step_kind(step),
                out_numel: plan.values[step.out].numel,
                ns,
                cost: plan.step_cost(step),
                scratch_bytes: step.scratch.iter().map(|r| r.len).sum(),
            }
        })
        .collect();
    PlanProfile {
        steps,
        wall_ns,
        spawns,
    }
}

/// The op's variant name, read off its `Debug` form so the op vocabulary
/// is not spelled out a second time.
fn step_kind(step: &Step) -> String {
    let op = format!("{:?}", step.op);
    let name = op
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or("");
    match step.kernel {
        Kernel::Generic => name.to_owned(),
        Kernel::ConvI8 { .. } | Kernel::MatmulI8 { .. } => format!("{name}[i8]"),
    }
}

/// Typed view of `n` elements at byte offset `off` of the arena.
///
/// # Safety
///
/// `off` must come from a span `assign_arena` placed (64-byte aligned, in
/// bounds for `n` elements of `T`), and the view must not overlap any
/// other live view that is written — the allocator invariant,
/// checked by `verify_step`.
pub(crate) unsafe fn span<'a, T>(base: *mut u8, off: usize, n: usize) -> &'a mut [T] {
    std::slice::from_raw_parts_mut(base.add(off).cast::<T>(), n)
}

/// The whole scratch piece `r` as elements of `T`.
///
/// # Safety
///
/// As [`span`]; each of a step's pieces may be taken once per execution.
pub(crate) unsafe fn piece<'a, T>(base: *mut u8, r: &ArenaRange) -> &'a mut [T] {
    span(base, r.off, r.len / std::mem::size_of::<T>())
}

/// f32 view of value `v` when it needs no conversion: the forward input,
/// a weight-table tensor, or an f32-stored arena span.
///
/// # Safety
///
/// Arena views alias `base`; the caller must not hold an overlapping
/// mutable span (guaranteed by `assign_arena`).
pub(crate) unsafe fn direct_f32<'a>(
    plan: &'a Plan,
    input: &'a [f32],
    base: *mut u8,
    v: ValId,
) -> Option<&'a [f32]> {
    let info = &plan.values[v];
    match (info.loc, info.store) {
        (Loc::Input, _) => Some(input),
        (Loc::Weight(i), _) => Some(plan.weights[i].data()),
        (Loc::Arena { off, .. }, Store::F32) => Some(span(base, off, info.numel)),
        (Loc::Arena { .. }, _) => None,
        (Loc::Unassigned, _) => unreachable!("read of a fused-away value"),
    }
}

/// Executes one step on its kernel. `base` points at the arena.
fn exec_step(plan: &Plan, input: &[f32], base: *mut u8, step: &Step) {
    match &step.kernel {
        Kernel::ConvI8 {
            qw,
            wscale,
            x_scale,
        } => quant::conv_i8(plan, input, base, step, qw, wscale, *x_scale),
        Kernel::MatmulI8 {
            qb,
            bscale,
            a_scale,
        } => quant::matmul_i8(plan, input, base, step, qb, bscale, *a_scale),
        // SAFETY: every span handed out below is a weight/input borrow, an
        // operand span, or this step's own output/scratch piece (each taken
        // once), which `verify_step` checked disjoint for this op; the
        // debug assertion in the run loop re-checks the invariant.
        Kernel::Generic => unsafe {
            // In an all-f32 plan `staged` is empty and every view below is
            // direct: resolve operands, borrow the destination, run the op.
            for (&v, r) in step.staged.iter().zip(&step.scratch) {
                quant::dequant_into(plan, base, v, piece(base, r));
            }
            let s = |v: ValId| -> &[f32] {
                direct_f32(plan, input, base, v).unwrap_or_else(|| {
                    let i = step.staged.iter().position(|&sv| sv == v);
                    &*piece(base, &step.scratch[i.expect("narrow operand is staged")])
                })
            };
            let mut rest = step.scratch[step.staged.len()..].iter();
            let mut take = || piece::<f32>(base, rest.next().expect("declared scratch piece"));
            let out = &plan.values[step.out];
            let Loc::Arena { off, .. } = out.loc else {
                unreachable!("step outputs are always arena-resident");
            };
            let dst = match out.store {
                Store::F32 => span(base, off, out.numel),
                _ => take(),
            };
            let att = match &step.op {
                IrOp::AttentionTm { .. } | IrOp::AttentionFm { .. } => Some(take()),
                _ => None,
            };
            exec_op(&step.op, &s, dst, att);
            if out.store != Store::F32 {
                quant::store_into(plan, base, step.out, dst);
            }
        },
    }
}

/// Executes one op's f32 arithmetic against caller-resolved operand views;
/// `att` is an attention step's scratch (the feature-major score row, or
/// the token-major adapter's transposes), the one op-local scratch an f32
/// op needs beyond its destination.
///
/// This is the single source of the per-op reference semantics. For an
/// all-f32 plan every view is arena-resident (keeping the bitwise
/// plan==tape contract); in a quantized plan the generic kernel hands it
/// operands dequantized into scratch.
pub(crate) fn exec_op<'a>(
    op: &IrOp,
    s: &impl Fn(ValId) -> &'a [f32],
    dst: &mut [f32],
    att: Option<&mut [f32]>,
) {
    match op {
        IrOp::Conv2d {
            x,
            w,
            bias,
            affine,
            relu,
            stride,
            pad,
            b,
            c,
            h,
            w_in,
            kh,
            kw,
            oc,
            ..
        } => {
            let dims = ConvDims {
                b: *b,
                c: *c,
                h: *h,
                w: *w_in,
                oc: *oc,
                kh: *kh,
                kw: *kw,
                stride: *stride,
                pad: *pad,
            };
            let aff = affine
                .as_ref()
                .map(|(sc, sh)| (sc.as_slice(), sh.as_slice()));
            lowlevel::conv2d_into(s(*x), s(*w), dims, bias.map(s), aff, *relu, dst);
        }
        IrOp::AddBiasChannel { x, bias, b, c, hw } => {
            lowlevel::channel_epilogue(s(*x), dst, *b, *c, *hw, Some(s(*bias)), None);
        }
        IrOp::ChannelAffine {
            x,
            scale,
            shift,
            b,
            c,
            hw,
        } => lowlevel::channel_epilogue(s(*x), dst, *b, *c, *hw, None, Some((scale, shift))),
        IrOp::AddBiasRow { x, bias } => lowlevel::add_bias_row(s(*x), s(*bias), dst),
        IrOp::Add { a, b, relu: false } => zip_into(s(*a), s(*b), dst, lowlevel::add),
        IrOp::Add { a, b, relu: true } => zip_into(s(*a), s(*b), dst, |x, y| {
            lowlevel::relu(lowlevel::add(x, y))
        }),
        IrOp::Sub { a, b } => zip_into(s(*a), s(*b), dst, lowlevel::sub),
        IrOp::Mul { a, b } => zip_into(s(*a), s(*b), dst, lowlevel::mul),
        IrOp::Neg { x } => map_into(s(*x), dst, lowlevel::neg),
        IrOp::Scale { x, c } => map_into(s(*x), dst, |v| lowlevel::mul(v, *c)),
        IrOp::Relu { x } => map_into(s(*x), dst, lowlevel::relu),
        IrOp::LeakyRelu { x, slope } => map_into(s(*x), dst, |v| lowlevel::leaky_relu(v, *slope)),
        IrOp::Sigmoid { x } => map_into(s(*x), dst, lowlevel::sigmoid),
        IrOp::Gelu { x } => map_into(s(*x), dst, lowlevel::gelu),
        IrOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
            d,
        } => {
            // Same dispatched kernel the tape forward calls, so tape-vs-
            // plan stays bitwise under every kernel backend.
            layer_norm_rows(s(*x), s(*gamma), s(*beta), *eps, *d, dst, None, None);
        }
        IrOp::SoftmaxLast { x, d } => lowlevel::softmax_last_into(s(*x), *d, dst),
        IrOp::Matmul { a, b, m, k, n } => {
            lowlevel::gemm_into(s(*a), s(*b), dst, *m, *k, *n);
        }
        IrOp::Bmm {
            kind,
            a,
            b,
            bt,
            m,
            k,
            n,
        } => {
            let (av, bv) = (s(*a), s(*b));
            match kind {
                BmmKind::Nn => lowlevel::bmm_into(av, bv, dst, *bt, *m, *k, *n),
                BmmKind::Nt => lowlevel::bmm_nt_into(av, bv, dst, *bt, *m, *k, *n),
                BmmKind::Tn => lowlevel::bmm_tn_into(av, bv, dst, *bt, *m, *k, *n),
            }
        }
        IrOp::AttentionTm {
            q,
            k,
            v,
            scale,
            b,
            l,
            d,
            dv,
        } => {
            let sc = att.expect("attention scratch");
            attention_tm_slices(s(*q), s(*k), s(*v), *b, *l, *d, *dv, *scale, dst, sc);
        }
        IrOp::AttentionFm {
            q,
            k,
            v,
            scale,
            b,
            n,
            nv,
            l,
        } => {
            let sc = att.expect("attention score-row scratch");
            attention_fm_slices(s(*q), s(*k), s(*v), *b, *n, *nv, *l, *scale, dst, sc);
        }
        IrOp::Copy { x } => {
            dst.copy_from_slice(s(*x));
        }
        IrOp::Permute { x, in_dims, axes } => lowlevel::permute_into(s(*x), in_dims, axes, dst),
        IrOp::ConcatChannels {
            parts,
            part_c,
            b,
            hw,
            total_c,
        } => {
            let parts = parts.iter().zip(part_c).map(|(&p, &pc)| (s(p), pc));
            lowlevel::concat_channels_into(parts, *b, *hw, *total_c, dst);
        }
        IrOp::SliceChannels {
            x,
            c0,
            c1,
            b,
            c,
            hw,
        } => lowlevel::slice_channels_into(s(*x), *b, *c, *c0, *c1, *hw, dst),
        IrOp::Upsample2x { x, planes, h, w } => {
            lowlevel::upsample2x_into(s(*x), *planes, *h, *w, dst);
        }
        IrOp::MaxPool2x2 { x, planes, h, w } => {
            lowlevel::maxpool2x2_into(s(*x), *planes, *h, *w, dst, None);
        }
        IrOp::MulScalarVar { x, s: sv } => {
            let c = s(*sv)[0];
            map_into(s(*x), dst, |v| lowlevel::mul(v, c));
        }
    }
}
