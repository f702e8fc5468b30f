//! The plan executor: runs a compiled [`Plan`] — as captured or quantized
//! — with zero per-forward heap allocations, writing every intermediate
//! into the pre-sized arena.
//!
//! # Bitwise contract
//!
//! Every op calls the *same* kernel the tape forward calls — the slice
//! kernels of `mfaplace_tensor::lowlevel` (GEMM family, conv lowering and
//! epilogue, element-wise and shape ops, softmax), layer norm and the
//! `*_slices` attention entry points — so the plan and the tape compute
//! every element with one piece of code and one parallel dispatch. The
//! equivalence suite asserts bit equality against the tape for every zoo
//! architecture. Quantized plans trade that contract for the
//! level-map tolerance contract (see `quant.rs`) but stay bitwise
//! run-to-run and across worker counts.
//!
//! # Allocation contract
//!
//! A forward performs no heap allocation: outputs and the op-local scratch
//! each step declares (conv lowering buffers, attention score rows,
//! quantize/dequantize staging) live at plan-assigned arena offsets. The
//! one documented exception matches the tape path: when an attention call
//! is large enough to take the parallel tile path, each worker allocates
//! its private score row (identical behaviour and threshold as the tape
//! kernel, so tape-vs-plan comparisons stay fair).
//!
//! # Parallel level scheduling
//!
//! The plan's steps are stored level-major: each level is a wave of
//! mutually independent ops whose write spans are pairwise disjoint (see
//! `assign_arena` / `verify_levels` in `plan.rs`). With `workers > 1`,
//! [`run_plan`] executes each level's ops concurrently on the
//! `mfaplace-rt` pool; because every op writes its own disjoint span and
//! each kernel is deterministic at any worker count, the result is
//! **bitwise identical** to serial replay — there is no reduction across
//! ops, so no merge-order hazard exists. Serial replay (`workers == 1`) is
//! the default: on the measured hosts the scheduler never beat it (see
//! EXPERIMENTS.md).
//!
//! # Safety
//!
//! Ops borrow disjoint arena spans mutably and immutably at once through
//! raw pointers. Soundness rests on the allocator invariant (an op's
//! output/scratch spans never overlap a live operand span, and same-level
//! ops never write each other's read or write spans — see
//! `assign_arena`), which is verified at capture time and re-checked per
//! op in debug builds.

use std::sync::Arc;
use std::time::Instant;

use mfaplace_rt::pool;
use mfaplace_rt::timer::ScopeTimer;
use mfaplace_tensor::layer_norm_rows;
use mfaplace_tensor::lowlevel::{self, map_into, zip_into};

#[cfg(debug_assertions)]
use crate::plan::{for_each_operand, spans_overlap, write_spans};
use crate::plan::{ArenaRange, BmmKind, IrOp, Kernel, Loc, Plan, Step, StepCost, Store, ValId};
use crate::quant;

/// Owns the mutable state (activation arena) needed to run a [`Plan`].
///
/// The plan itself is held through an `Arc`, so many executors (or a
/// shared [`crate::PlanCache`]) can reference one compiled plan while each
/// keeps its own private arena.
#[derive(Debug)]
pub struct PlanExecutor {
    plan: Arc<Plan>,
    arena: Vec<u64>,
    runs: u64,
    workers: usize,
}

impl PlanExecutor {
    /// Builds an executor, allocating the arena once up front. Accepts a
    /// bare `Plan` or an `Arc<Plan>` (e.g. out of a [`crate::PlanCache`]).
    /// Replays serially until [`PlanExecutor::set_workers`] says otherwise.
    pub fn new(plan: impl Into<Arc<Plan>>) -> PlanExecutor {
        let plan = plan.into();
        let arena = vec![0u64; plan.arena_words()];
        PlanExecutor {
            plan,
            arena,
            runs: 0,
            workers: 1,
        }
    }

    /// Sets the number of workers used for intra-plan level execution
    /// (`1` = serial replay). Outputs are bitwise identical either way.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured level-scheduler worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The compiled plan this executor runs.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Number of completed forwards.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Arena base address — exposed so tests can assert the buffer is
    /// reused (stable) across forwards rather than reallocated.
    pub fn arena_ptr(&self) -> *const u64 {
        self.arena.as_ptr()
    }

    /// Runs one forward over `input` (row-major, must match the captured
    /// input shape) and returns the output slice, valid until the next
    /// call. Allocation-free: every write lands in the arena.
    pub fn run_batch(&mut self, input: &[f32]) -> &[f32] {
        self.runs += 1;
        run_plan(&self.plan, &mut self.arena, input, self.workers)
    }
}

/// Runs one forward of `plan` over `input` using `arena` for every
/// intermediate, growing (never shrinking) the arena to the plan's
/// requirement first. Returns the output slice, valid until the arena is
/// next written.
///
/// This is the executor's run loop exposed over caller-owned storage, so
/// one arena can be reused across *different* plans (the predictor keeps
/// one arena per model while plans live in a shared cache). Safe because
/// every plan op either fully overwrites its destination span or
/// explicitly clears it first — stale data from a previous plan is never
/// observable.
///
/// With `workers > 1`, levels of mutually independent ops execute
/// concurrently on the `mfaplace-rt` pool (contiguous op-index blocks per
/// worker), bitwise identical to serial replay because same-level ops
/// write pairwise-disjoint arena spans and every kernel is deterministic
/// at any worker count.
pub fn run_plan<'a>(
    plan: &Plan,
    arena: &'a mut Vec<u64>,
    input: &[f32],
    workers: usize,
) -> &'a [f32] {
    replay(plan, arena, input, workers, None)
}

/// Called as `observe(step_index, out)` after each step has run; `out` is
/// the step's finished output when it is stored as f32.
pub(crate) type Observer<'o> = &'o mut dyn FnMut(usize, Option<&[f32]>);

/// [`run_plan`] with an optional per-step observer — the quantization
/// calibrator's hook for collecting per-value activation ranges and
/// [`profile_plan`]'s for step boundaries, so the unobserved run loop
/// carries neither. Observed replays are serial; the observer only reads.
pub(crate) fn replay<'a>(
    plan: &Plan,
    arena: &'a mut Vec<u64>,
    input: &[f32],
    workers: usize,
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
    for range in &plan.levels {
        let steps = &plan.steps[range.clone()];
        #[cfg(debug_assertions)]
        for step in steps {
            check_disjoint(plan, step);
        }
        if workers <= 1 || steps.len() == 1 || observe.is_some() {
            for (i, step) in range.clone().zip(steps) {
                exec_step(plan, input, base, step);
                if let Some(observe) = observe.as_deref_mut() {
                    observe(i, f32_span(step.out));
                }
            }
            continue;
        }
        let _lvl = ScopeTimer::new("core/forward_plan_level");
        let nt = workers.min(steps.len());
        // Split the host's thread budget between op-level concurrency
        // and each kernel's own intra-op parallelism (thread overrides
        // are per-thread, so spawned workers start uncapped).
        let inner = (pool::max_threads() / nt).max(1);
        let shared = ArenaBase(base);
        let shared = &shared;
        pool::with_threads(nt, || {
            pool::parallel_for(steps.len(), |r| {
                let base = shared.0;
                pool::with_threads(inner, || {
                    for i in r {
                        exec_step(plan, input, base, &steps[i]);
                    }
                });
            });
        });
    }
    mfaplace_rt::timer::count("infer/plan_forwards", 1);
    f32_span(plan.output).expect("plan output is always an f32 arena span")
}

/// One step of a [`profile_plan`] replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepProfile {
    /// Position in the plan's (level-major) step list.
    pub index: usize,
    /// Op variant name, suffixed `[i8]` when the step runs on the int8 GEMM.
    pub kind: String,
    /// Elements in the step's output value.
    pub out_numel: usize,
    /// Wall time from the previous step's end to this step's end.
    pub ns: u64,
    /// FLOPs, `exp` evaluations and bytes the op must do, from its shapes.
    pub cost: StepCost,
}

/// Per-step timing of one forward — see [`profile_plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanProfile {
    /// Every plan step, in execution order.
    pub steps: Vec<StepProfile>,
    /// Wall time of the whole replay call, prologue and epilogue included:
    /// what the step times must add up to.
    pub wall_ns: u64,
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
    run_plan(plan, arena, input, 1);
    // The observer only reads the clock; everything else happens outside
    // the timed replay. Observed replays are serial, so boundaries arrive
    // in step order.
    let mut ends = Vec::with_capacity(plan.steps.len());
    let start = Instant::now();
    replay(
        plan,
        arena,
        input,
        1,
        Some(&mut |_index, _out| ends.push(Instant::now())),
    );
    let wall_ns = start.elapsed().as_nanos() as u64;
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
            }
        })
        .collect();
    PlanProfile { steps, wall_ns }
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

/// The arena base pointer, shared across a level's workers.
///
/// Sound to send/share because the level scheduler guarantees every
/// concurrently executing op writes a pairwise-disjoint span (verified at
/// capture time by `verify_levels`).
struct ArenaBase(*mut u8);
unsafe impl Send for ArenaBase {}
unsafe impl Sync for ArenaBase {}

/// Typed view of `n` elements at byte offset `off` of the arena.
///
/// # Safety
///
/// `off` must come from a span `assign_arena` placed (64-byte aligned, in
/// bounds for `n` elements of `T`), and the view must not overlap any
/// other live view that is written — the allocator invariant,
/// debug-asserted by `check_disjoint`.
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

/// Debug re-check of the allocator invariant: the op's output and scratch
/// spans overlap neither each other nor any operand span. Allocation-free,
/// so the zero-allocation contract is testable in debug builds.
#[cfg(debug_assertions)]
fn check_disjoint(plan: &Plan, step: &Step) {
    let writes = write_spans(step, &plan.values);
    for (i, wa) in writes.clone().enumerate() {
        for wb in writes.clone().skip(i + 1) {
            assert!(
                !spans_overlap(wa, wb),
                "write spans overlap in step {step:?}"
            );
        }
    }
    for_each_operand(&step.op, &mut |v| {
        if let Loc::Arena { off, len } = plan.values[v].loc {
            for w in writes.clone() {
                assert!(
                    !spans_overlap(w, (off, len)),
                    "operand span overlaps a write span in step {step:?}"
                );
            }
        }
    });
}

/// Op-local scratch views an [`exec_op`] call may need beyond its
/// destination: the conv im2col/GEMM buffers and the attention score row.
#[derive(Default)]
pub(crate) struct OpScratch<'a> {
    pub cols: Option<&'a mut [f32]>,
    pub ymat: Option<&'a mut [f32]>,
    pub att: Option<&'a mut [f32]>,
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
        // once), which `assign_arena` guarantees disjoint for this op; the
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
            let scratch = match &step.op {
                IrOp::Conv2d { .. } => OpScratch {
                    cols: Some(take()),
                    ymat: Some(take()),
                    att: None,
                },
                IrOp::AttentionTm { .. } | IrOp::AttentionFm { .. } => OpScratch {
                    att: Some(take()),
                    ..OpScratch::default()
                },
                _ => OpScratch::default(),
            };
            exec_op(&step.op, &s, dst, scratch);
            if out.store != Store::F32 {
                quant::store_into(plan, base, step.out, dst);
            }
        },
    }
}

/// Executes one op's f32 arithmetic against caller-resolved operand views.
///
/// This is the single source of the per-op reference semantics. For an
/// all-f32 plan every view is arena-resident (keeping the bitwise
/// plan==tape contract); in a quantized plan the generic kernel hands it
/// operands dequantized into scratch.
pub(crate) fn exec_op<'a>(
    op: &IrOp,
    s: &impl Fn(ValId) -> &'a [f32],
    dst: &mut [f32],
    scratch: OpScratch<'_>,
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
            oh,
            ow,
            ..
        } => {
            let xs = s(*x);
            let ws = s(*w);
            // im2col writes every element, so the arena span's dead value
            // from an earlier op never shows through.
            let cols_m = scratch.cols.expect("conv cols scratch");
            lowlevel::im2col_into(xs, *b, *c, *h, *w_in, *kh, *kw, *stride, *pad, cols_m);
            let ymat_m = scratch.ymat.expect("conv ymat scratch");
            lowlevel::gemm_into(ws, &*cols_m, ymat_m, *oc, *c * *kh * *kw, *b * *oh * *ow);
            let bias_s = bias.map(s);
            let aff = affine
                .as_ref()
                .map(|(sc, sh)| (sc.as_slice(), sh.as_slice()));
            lowlevel::conv_reorder_epilogue(&*ymat_m, dst, *b, *oc, *oh * *ow, bias_s, aff, *relu);
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
            lq,
            lk,
            d,
            dv,
            ..
        } => {
            // The fused kernel accumulates into a zeroed output (the tape
            // takes a zero-filled pool buffer).
            dst.fill(0.0);
            let sc = scratch.att.expect("attention score-row scratch");
            mfaplace_tensor::attention_tm_slices(
                s(*q),
                s(*k),
                s(*v),
                *b,
                *lq,
                *lk,
                *d,
                *dv,
                *scale,
                dst,
                sc,
            );
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
            ..
        } => {
            let sc = scratch.att.expect("attention score-row scratch");
            mfaplace_tensor::attention_fm_slices(
                s(*q),
                s(*k),
                s(*v),
                *b,
                *n,
                *nv,
                *l,
                *scale,
                dst,
                sc,
            );
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
