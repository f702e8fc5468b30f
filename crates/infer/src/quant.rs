//! Quantization as a lowering pass over [`Plan`]: offline calibration,
//! [`Plan::quantize`], and the int8 kernels the executor dispatches to.
//!
//! A quantized plan is an ordinary [`Plan`]: same step list (in capture
//! order), alias classes, allocator, verifier and run loop as the f32 plan
//! it was lowered from. [`Plan::quantize`] takes a [`Calibration`]
//! (per-step activation abs-max ranges collected by replaying the f32 plan
//! over representative inputs) and rewrites only two tables:
//!
//! - every intermediate gets a **storage class** ([`Store`]): `i8`
//!   (symmetric per-tensor scale, zero-point 0) for conv-trunk values,
//!   IEEE binary16 for transformer-ish values (attention, softmax,
//!   layer-norm, GELU neighbourhoods — where 8-bit dynamic range is not
//!   enough), and f32 where calibration marks a value unquantizable
//!   (non-finite range) or for the plan output (the level-map acceptance
//!   contract is stated against f32 logits);
//! - every step gets a [`Kernel`]: `ConvI8`/`MatmulI8` carry weights
//!   quantized per output channel (`scale[oc] = absmax(row)/127`), so one
//!   i8×i8→i32 GEMM with a per-row dequant epilogue replaces the f32 GEMM
//!   — the epilogue fuses bias/affine/ReLU exactly like the f32 conv
//!   epilogue — and run dequant-free on the exact int8 kernels in
//!   `mfaplace_tensor::simd` (bitwise identical across scalar/AVX2 —
//!   integer accumulation has no rounding); everything else stays
//!   `Generic`: operands are dequantized into the step's declared scratch
//!   and the op executes the *same* f32 arithmetic as the f32 plan
//!   ([`crate::exec::exec_op`]).
//!
//! The pass then re-runs the one arena assignment with the narrower value
//! sizes and each step's declared scratch, so the per-step span verifier
//! (at layout, and again before each step in debug builds) covers
//! quantized plans exactly as it covers f32 ones.
//!
//! # Determinism
//!
//! Calibration is a serial replay, so collected ranges — and therefore
//! scales, quantized weights and the serving artifact built from them —
//! are bitwise-reproducible for a given checkpoint, input set and kernel
//! backend.

use mfaplace_tensor::half::{f16_bits_to_f32, f32_to_f16_bits};
use mfaplace_tensor::{lowlevel, simd};

use crate::exec::{direct_f32, piece, replay, span};
use crate::plan::{for_each_operand, ArenaRange, IrOp, Kernel, Loc, Plan, Step, Store, ValId};

/// Options for [`Plan::quantize`]. int8 (with f16/f32 islands) is the only
/// quantized precision, so there is nothing to choose yet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantOptions {}

/// Per-step activation ranges collected by replaying a compiled f32 plan
/// over representative inputs (the offline calibration pass).
///
/// Indexed by **compiled step order** (capture order) and tagged with
/// each step's op kind. Step order is a deterministic function of the captured graph
/// structure, but it is *not* perfectly batch-independent (e.g. the
/// ViT positional embedding tiles itself with an extra concat at batch
/// 2+), so [`Plan::quantize`] aligns calibration entries to the
/// target plan by op-kind sequence: an exact kind match applies
/// directly, a near match (at least 90% of steps align under a
/// longest-common-subsequence pairing — batch-bucket variants of one
/// model) leaves the unmatched steps unquantized (f32), and anything
/// worse — a different checkpoint or grid — is rejected as stale. A
/// non-finite range entry marks the value unquantizable (it stays f32
/// in the quantized plan).
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    pub(crate) input_absmax: f32,
    pub(crate) step_absmax: Vec<f32>,
    /// [`op_kind`] of the step each range was recorded from.
    pub(crate) kinds: Vec<u8>,
}

/// Version 2: ranges indexed by capture-order steps.
const CALIB_MAGIC: &[u8; 8] = b"MFACAL02";
/// Version 1 indexed ranges by the level-major step order plans no longer
/// have; applying one would hand parallel convs each other's ranges.
const CALIB_MAGIC_V1: &[u8; 8] = b"MFACAL01";

impl Calibration {
    /// Replays `plan` serially over every batch in `batches` (each a
    /// row-major input of the plan's captured shape) and records the
    /// running abs-max of the input and of every step output.
    pub fn collect<'a, I>(plan: &Plan, batches: I) -> Result<Calibration, String>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        if plan.stats.quant.is_some() {
            return Err("calibration replays the f32 plan, not a quantized one".into());
        }
        let mut input_absmax = 0.0f32;
        let mut step_absmax = vec![0.0f32; plan.steps.len()];
        let mut arena = Vec::new();
        let mut n = 0usize;
        for input in batches {
            n += 1;
            input_absmax = fold_absmax(input_absmax, input);
            replay(
                plan,
                &mut arena,
                input,
                Some(&mut |i, out| {
                    let out = out.expect("an f32 plan stores every step output as f32");
                    step_absmax[i] = fold_absmax(step_absmax[i], out);
                }),
            );
        }
        if n == 0 {
            return Err("calibration needs at least one input batch".into());
        }
        Ok(Calibration {
            input_absmax,
            step_absmax,
            kinds: plan.steps.iter().map(|s| op_kind(&s.op)).collect(),
        })
    }

    /// Number of plan steps this calibration covers.
    pub fn steps(&self) -> usize {
        self.step_absmax.len()
    }

    /// Serializes to a little-endian byte blob (bitwise-deterministic):
    /// magic, step count, input range, per-step ranges, per-step kinds.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.step_absmax.len();
        let mut out = Vec::with_capacity(16 + 5 * n);
        out.extend_from_slice(CALIB_MAGIC);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&self.input_absmax.to_le_bytes());
        for &v in &self.step_absmax {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.kinds);
        out
    }

    /// Parses [`Calibration::to_bytes`] output.
    pub fn from_bytes(b: &[u8]) -> Result<Calibration, String> {
        if b.starts_with(CALIB_MAGIC_V1) {
            return Err(
                "calibration MFACAL01 predates capture-order plans \
                        (its ranges follow the old step order): recompile with `mfaplace compile`"
                    .into(),
            );
        }
        if b.len() < 16 || &b[..8] != CALIB_MAGIC {
            return Err("not a calibration blob (bad magic)".into());
        }
        let n = u32::from_le_bytes(b[8..12].try_into().unwrap()) as usize;
        if b.len() != 16 + 5 * n {
            return Err(format!(
                "calibration blob length mismatch: {} bytes for {n} steps",
                b.len()
            ));
        }
        let input_absmax = f32::from_le_bytes(b[12..16].try_into().unwrap());
        let step_absmax = b[16..16 + 4 * n]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Calibration {
            input_absmax,
            step_absmax,
            kinds: b[16 + 4 * n..].to_vec(),
        })
    }
}

/// Stable numeric tag of an op variant, used to align calibration
/// entries with a plan whose step list differs (batch-bucket variants
/// emit e.g. an extra positional-embedding concat at batch > 1).
fn op_kind(op: &IrOp) -> u8 {
    match op {
        IrOp::Conv2d { .. } => 0,
        IrOp::AddBiasChannel { .. } => 1,
        IrOp::AddBiasRow { .. } => 2,
        IrOp::Add { .. } => 3,
        IrOp::Sub { .. } => 4,
        IrOp::Mul { .. } => 5,
        IrOp::Neg { .. } => 6,
        IrOp::Scale { .. } => 7,
        IrOp::Relu { .. } => 8,
        IrOp::LeakyRelu { .. } => 9,
        IrOp::Sigmoid { .. } => 10,
        IrOp::Gelu { .. } => 11,
        IrOp::ChannelAffine { .. } => 12,
        IrOp::LayerNorm { .. } => 13,
        IrOp::SoftmaxLast { .. } => 14,
        IrOp::Matmul { .. } => 15,
        IrOp::Bmm { .. } => 16,
        IrOp::AttentionTm { .. } => 17,
        IrOp::AttentionFm { .. } => 18,
        IrOp::Copy { .. } => 19,
        IrOp::Permute { .. } => 20,
        IrOp::ConcatChannels { .. } => 21,
        IrOp::SliceChannels { .. } => 22,
        IrOp::Upsample2x { .. } => 23,
        IrOp::MaxPool2x2 { .. } => 24,
        IrOp::MulScalarVar { .. } => 25,
    }
}

/// Maps `calib`'s per-step ranges onto `base`'s step list: identity when
/// the op-kind sequences match exactly, an LCS pairing when they nearly
/// match (unpaired steps get a `+inf` range and stay f32), an error when
/// fewer than 90% of steps pair up (stale calibration).
fn align_calibration(calib: &Calibration, base: &Plan) -> Result<Vec<f32>, String> {
    let tgt: Vec<u8> = base.steps.iter().map(|s| op_kind(&s.op)).collect();
    if calib.kinds == tgt {
        return Ok(calib.step_absmax.clone());
    }
    let (n, m) = (calib.kinds.len(), tgt.len());
    let w = m + 1;
    // dp[i][j] = LCS length of calib.kinds[i..] and tgt[j..].
    let mut dp = vec![0u32; (n + 1) * w];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i * w + j] = if calib.kinds[i] == tgt[j] {
                dp[(i + 1) * w + j + 1] + 1
            } else {
                dp[(i + 1) * w + j].max(dp[i * w + j + 1])
            };
        }
    }
    let matched = dp[0] as usize;
    if matched * 10 < n.max(m) * 9 {
        return Err(format!(
            "calibration covers {n} steps but the plan has {m} and only {matched} align — \
             stale calibration (different checkpoint or grid): recalibrate"
        ));
    }
    let mut out = vec![f32::INFINITY; m];
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if calib.kinds[i] == tgt[j] && dp[i * w + j] == dp[(i + 1) * w + j + 1] + 1 {
            out[j] = calib.step_absmax[i];
            i += 1;
            j += 1;
        } else if dp[(i + 1) * w + j] >= dp[i * w + j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    Ok(out)
}

/// Running abs-max fold; any non-finite sample poisons the range to
/// `+inf`, which later marks the value unquantizable.
fn fold_absmax(mut acc: f32, xs: &[f32]) -> f32 {
    for &v in xs {
        if v.is_finite() {
            let a = v.abs();
            if a > acc {
                acc = a;
            }
        } else {
            acc = f32::INFINITY;
        }
    }
    acc
}

/// Symmetric per-tensor scale: `q = clamp(round(x/scale), ±127)`.
/// A zero range quantizes everything to 0 under scale 1.
fn absmax_to_scale(absmax: f32) -> f32 {
    if absmax == 0.0 {
        1.0
    } else {
        absmax / 127.0
    }
}

#[inline]
fn quantize_one(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-127.0, 127.0) as i8
}

/// Counters specific to a quantized plan ([`crate::PlanStats::quant`]),
/// surfaced by `model-info`, `/metrics` and the plan summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuantStats {
    /// Step outputs stored as i8 / f16 / f32.
    pub i8_values: usize,
    pub f16_values: usize,
    pub f32_values: usize,
    /// Steps running on the int8 GEMM path (`ConvI8` + `MatmulI8`).
    pub i8_steps: usize,
    /// Steps on the dequantize→f32→requantize fallback path.
    pub generic_steps: usize,
    /// Quantized arena bytes (value spans + per-step scratch).
    pub arena_bytes: usize,
    /// The source f32 plan's arena bytes, for the ≤0.5× contract.
    pub f32_arena_bytes: usize,
    /// Bytes held by quantized weight copies (i8 data + scales).
    pub qweight_bytes: usize,
}

impl Plan {
    /// Lowers this f32 plan to int8: narrows value storage, moves eligible
    /// convs and linears onto the int8 GEMM, and re-runs arena assignment.
    /// `calib` may come from any batch bucket of the same model — entries
    /// are aligned to this plan's step list by op kind; see
    /// [`Calibration`]. A calibration that does not align — e.g. from a
    /// different checkpoint or grid — is an error whose message says to
    /// recalibrate, and callers fall back to f32.
    pub fn quantize(&self, calib: &Calibration, _opts: QuantOptions) -> Result<Plan, String> {
        if self.stats.quant.is_some() {
            return Err("plan is already quantized".into());
        }
        let step_absmax = align_calibration(calib, self)?;
        let mut plan = self.clone();

        // Per-root activation abs-max: the input from the calibration's
        // input range, every step output from its step entry.
        let mut val_absmax: Vec<Option<f32>> = vec![None; plan.values.len()];
        val_absmax[plan.input] = Some(calib.input_absmax);
        for (step, &am) in plan.steps.iter().zip(&step_absmax) {
            val_absmax[step.out] = Some(am);
        }

        // Storage classes. The output root stays f32 (the acceptance
        // contract compares f32 logits); non-finite ranges stay f32.
        let out_root = plan.alias[plan.output];
        let mut q = QuantStats {
            f32_arena_bytes: self.stats.arena_bytes,
            ..QuantStats::default()
        };
        for (step, &am) in plan.steps.iter().zip(&step_absmax) {
            let store = if step.out == out_root || !am.is_finite() {
                q.f32_values += 1;
                Store::F32
            } else if conv_trunk(&step.op) {
                q.i8_values += 1;
                Store::I8 {
                    scale: absmax_to_scale(am),
                }
            } else {
                q.f16_values += 1;
                Store::F16
            };
            plan.values[step.out].store = store;
        }
        for v in 0..plan.values.len() {
            plan.values[v].store = plan.values[plan.alias[v]].store;
        }

        // Kernels, and the narrow operands each generic step must stage.
        for i in 0..plan.steps.len() {
            let kernel = i8_kernel(&plan, &val_absmax, &plan.steps[i]).unwrap_or(Kernel::Generic);
            let mut staged: Vec<ValId> = Vec::new();
            match &kernel {
                Kernel::ConvI8 { qw, wscale, .. } => {
                    q.i8_steps += 1;
                    q.qweight_bytes += qw.len() + 4 * wscale.len();
                }
                Kernel::MatmulI8 { qb, bscale, .. } => {
                    q.i8_steps += 1;
                    q.qweight_bytes += qb.len() + 4 * bscale.len();
                }
                Kernel::Generic => {
                    q.generic_steps += 1;
                    for_each_operand(&plan.steps[i].op, &mut |v| {
                        let info = &plan.values[v];
                        if matches!(info.loc, Loc::Arena { .. })
                            && info.store != Store::F32
                            && !staged.contains(&v)
                        {
                            staged.push(v);
                        }
                    });
                }
            }
            plan.steps[i].kernel = kernel;
            plan.steps[i].staged = staged;
        }

        plan.layout()?;
        q.arena_bytes = plan.stats.arena_bytes;
        plan.stats.weight_bytes += q.qweight_bytes;
        plan.stats.quant = Some(q);
        Ok(plan)
    }
}

/// Ops whose outputs tolerate 8-bit storage: the conv trunk. Attention /
/// normalization / softmax neighbourhoods keep f16 — their dynamic range
/// (probabilities near 0, normalized values, GELU tails) degrades badly
/// at 8 bits.
fn conv_trunk(op: &IrOp) -> bool {
    matches!(
        op,
        IrOp::Conv2d { .. }
            | IrOp::Relu { .. }
            | IrOp::LeakyRelu { .. }
            | IrOp::Add { .. }
            | IrOp::ConcatChannels { .. }
            | IrOp::SliceChannels { .. }
            | IrOp::MaxPool2x2 { .. }
            | IrOp::Upsample2x { .. }
            | IrOp::AddBiasChannel { .. }
            | IrOp::ChannelAffine { .. }
    )
}

/// Tries to compile one step onto the exact int8 GEMM path. `None`
/// means the step runs `Generic` (weight not a table entry, contraction
/// too long for exact i32, or a non-finite range somewhere).
fn i8_kernel(plan: &Plan, val_absmax: &[Option<f32>], step: &Step) -> Option<Kernel> {
    match &step.op {
        IrOp::Conv2d {
            x,
            w,
            c,
            kh,
            kw,
            oc,
            ..
        } => {
            let k = c * kh * kw;
            if k == 0 || k > simd::I8_GEMM_MAX_K {
                return None;
            }
            let Loc::Weight(wi) = plan.values[*w].loc else {
                return None;
            };
            let x_am = val_absmax[plan.alias[*x]]?;
            if !x_am.is_finite() {
                return None;
            }
            let wd = plan.weights[wi].data();
            let mut qw = vec![0i8; oc * k];
            let mut wscale = vec![1.0f32; *oc];
            for row in 0..*oc {
                let src = &wd[row * k..(row + 1) * k];
                let am = fold_absmax(0.0, src);
                if !am.is_finite() {
                    return None;
                }
                let s = absmax_to_scale(am);
                wscale[row] = s;
                let inv = 1.0 / s;
                for (q, &v) in qw[row * k..(row + 1) * k].iter_mut().zip(src) {
                    *q = quantize_one(v, inv);
                }
            }
            Some(Kernel::ConvI8 {
                qw,
                wscale,
                x_scale: absmax_to_scale(x_am),
            })
        }
        IrOp::Matmul { a, b, k, n, .. } => {
            if *k == 0 || *k > simd::I8_GEMM_MAX_K {
                return None;
            }
            let Loc::Weight(wi) = plan.values[*b].loc else {
                return None;
            };
            let a_am = val_absmax[plan.alias[*a]]?;
            if !a_am.is_finite() {
                return None;
            }
            let wd = plan.weights[wi].data();
            let mut qb = vec![0i8; k * n];
            let mut bscale = vec![1.0f32; *n];
            for j in 0..*n {
                let mut am = 0.0f32;
                for p in 0..*k {
                    am = fold_absmax(am, &wd[p * n + j..p * n + j + 1]);
                }
                if !am.is_finite() {
                    return None;
                }
                let s = absmax_to_scale(am);
                bscale[j] = s;
                let inv = 1.0 / s;
                for p in 0..*k {
                    qb[p * n + j] = quantize_one(wd[p * n + j], inv);
                }
            }
            Some(Kernel::MatmulI8 {
                qb,
                bscale,
                a_scale: absmax_to_scale(a_am),
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Execution: narrow-storage views and the int8 kernels
// ---------------------------------------------------------------------------

/// Byte offset of arena value `v`.
fn arena_off(plan: &Plan, v: ValId) -> usize {
    let Loc::Arena { off, .. } = plan.values[v].loc else {
        unreachable!("narrow-stored values are arena-resident");
    };
    off
}

/// Dequantizes arena value `v` (f16 or i8 storage) into `dst`.
///
/// # Safety
///
/// `dst` must not overlap `v`'s span (allocator invariant).
pub(crate) unsafe fn dequant_into(plan: &Plan, base: *mut u8, v: ValId, dst: &mut [f32]) {
    let (off, n) = (arena_off(plan, v), plan.values[v].numel);
    match plan.values[v].store {
        Store::F32 => unreachable!("f32 values are viewed, not dequantized"),
        Store::F16 => {
            for (d, &h) in dst.iter_mut().zip(&*span::<u16>(base, off, n)) {
                *d = f16_bits_to_f32(h);
            }
        }
        Store::I8 { scale } => {
            for (d, &q) in dst.iter_mut().zip(&*span::<i8>(base, off, n)) {
                *d = f32::from(q) * scale;
            }
        }
    }
}

/// The i8 data of operand `v` under `inv_scale`: its own span when it is
/// stored as i8, otherwise quantized into the step's next scratch piece
/// straight from its storage (f32 view or f16 bits), with no f32 staging.
///
/// # Safety
///
/// As [`span`]: the scratch piece and `v`'s span are disjoint by the
/// allocator invariant.
unsafe fn i8_operand<'x>(
    plan: &'x Plan,
    input: &'x [f32],
    base: *mut u8,
    v: ValId,
    inv_scale: f32,
    scratch: &mut std::slice::Iter<'_, ArenaRange>,
) -> &'x [i8] {
    let n = plan.values[v].numel;
    if matches!(plan.values[v].store, Store::I8 { .. }) {
        return span(base, arena_off(plan, v), n);
    }
    let dst: &mut [i8] = piece(base, scratch.next().expect("declared scratch piece"));
    if let Some(src) = direct_f32(plan, input, base, v) {
        for (q, &x) in dst.iter_mut().zip(src) {
            *q = quantize_one(x, inv_scale);
        }
    } else {
        // Not i8 (returned above), not f32 (direct): f16 bits.
        for (q, &h) in dst
            .iter_mut()
            .zip(&*span::<u16>(base, arena_off(plan, v), n))
        {
            *q = quantize_one(f16_bits_to_f32(h), inv_scale);
        }
    }
    dst
}

/// Typed mutable view of a step's destination span.
enum DstView<'x> {
    F32(&'x mut [f32]),
    F16(&'x mut [u16]),
    I8 { q: &'x mut [i8], inv: f32 },
}

/// # Safety
///
/// The destination span must be disjoint from every operand span read by
/// the same step (liveness invariant).
unsafe fn dst_view<'x>(plan: &Plan, base: *mut u8, v: ValId) -> DstView<'x> {
    let (off, n) = (arena_off(plan, v), plan.values[v].numel);
    match plan.values[v].store {
        Store::F32 => DstView::F32(span(base, off, n)),
        Store::F16 => DstView::F16(span(base, off, n)),
        Store::I8 { scale } => DstView::I8 {
            q: span(base, off, n),
            inv: 1.0 / scale,
        },
    }
}

#[inline]
fn put(dv: &mut DstView<'_>, idx: usize, v: f32) {
    match dv {
        DstView::F32(s) => s[idx] = v,
        DstView::F16(s) => s[idx] = f32_to_f16_bits(v),
        DstView::I8 { q, inv } => q[idx] = quantize_one(v, *inv),
    }
}

/// Stores an f32 staging buffer into `v`'s narrower destination span.
///
/// # Safety
///
/// As [`dst_view`]; `src` must not overlap `v`'s span.
pub(crate) unsafe fn store_into(plan: &Plan, base: *mut u8, v: ValId, src: &[f32]) {
    match dst_view(plan, base, v) {
        DstView::F32(d) => d.copy_from_slice(src),
        DstView::F16(d) => {
            for (h, &x) in d.iter_mut().zip(src) {
                *h = f32_to_f16_bits(x);
            }
        }
        DstView::I8 { q, inv } => {
            for (qq, &x) in q.iter_mut().zip(src) {
                *qq = quantize_one(x, inv);
            }
        }
    }
}

/// Conv on the exact int8 GEMM.
pub(crate) fn conv_i8(
    plan: &Plan,
    input: &[f32],
    base: *mut u8,
    step: &Step,
    qw: &[i8],
    wscale: &[f32],
    x_scale: f32,
) {
    let IrOp::Conv2d {
        x,
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
    } = &step.op
    else {
        unreachable!("ConvI8 compiles only from Conv2d");
    };
    let (b, c, oc, oh, ow) = (*b, *c, *oc, *oh, *ow);
    let k = c * kh * kw;
    let ncols = b * oh * ow;
    let ohow = oh * ow;
    let mut scratch = step.scratch.iter();
    // SAFETY: the scratch pieces are this step's own, each taken once; the
    // operand views are disjoint from them and from the dst span by the
    // allocator invariant.
    unsafe {
        let qx = i8_operand(plan, input, base, *x, 1.0 / x_scale, &mut scratch);
        // The f32 gather over i8 data; it writes every element, padding
        // included (q = 0 dequantizes to exactly 0.0).
        let cols: &mut [i8] = piece(base, scratch.next().expect("i8 im2col piece"));
        lowlevel::im2col_into(qx, b, c, *h, *w_in, *kh, *kw, *stride, *pad, cols);
        let ymat: &mut [i32] = piece(base, scratch.next().expect("i32 GEMM piece"));
        simd::i8_gemm(qw, cols, ymat, oc, k, ncols);
        let bias_s =
            bias.map(|bv| direct_f32(plan, input, base, bv).expect("conv bias is a weight"));
        let mut dv = dst_view(plan, base, step.out);
        for ocx in 0..oc {
            // Exact dequant factor for this output channel; the
            // epilogue then replays the f32 epilogue's
            // bias→affine→relu sequence per element.
            let sc_q = x_scale * wscale[ocx];
            let bias_v = bias_s.map(|bv| bv[ocx]);
            let aff = affine.as_ref().map(|(sc, sh)| (sc[ocx], sh[ocx]));
            for bi in 0..b {
                let src_base = (ocx * b + bi) * ohow;
                let dst_base = (bi * oc + ocx) * ohow;
                for p in 0..ohow {
                    let mut v = ymat[src_base + p] as f32 * sc_q;
                    if let Some(bw) = bias_v {
                        v += bw;
                    }
                    if let Some((a, s)) = aff {
                        v = a * v + s;
                    }
                    if *relu {
                        v = v.max(0.0);
                    }
                    put(&mut dv, dst_base + p, v);
                }
            }
        }
    }
}

/// `x @ W` on the exact int8 GEMM.
pub(crate) fn matmul_i8(
    plan: &Plan,
    input: &[f32],
    base: *mut u8,
    step: &Step,
    qb: &[i8],
    bscale: &[f32],
    a_scale: f32,
) {
    let IrOp::Matmul { a, m, k, n, .. } = &step.op else {
        unreachable!("MatmulI8 compiles only from Matmul");
    };
    let (m, k, n) = (*m, *k, *n);
    let mut scratch = step.scratch.iter();
    // SAFETY: as in `conv_i8`.
    unsafe {
        let qa = i8_operand(plan, input, base, *a, 1.0 / a_scale, &mut scratch);
        let acc: &mut [i32] = piece(base, scratch.next().expect("i32 GEMM piece"));
        simd::i8_gemm(qa, qb, acc, m, k, n);
        let mut dv = dst_view(plan, base, step.out);
        for i in 0..m {
            for j in 0..n {
                put(
                    &mut dv,
                    i * n + j,
                    acc[i * n + j] as f32 * (a_scale * bscale[j]),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::verify_step;
    use crate::run_plan;
    use mfaplace_autograd::Graph;
    use mfaplace_tensor::Tensor;
    use std::sync::Arc;

    /// conv(3→4, relu) → sigmoid → conv(4→2): exercises an i8-stored
    /// value (conv1 out), an f16-stored value (sigmoid out, consumed by
    /// an int8 conv) and the f32 output store.
    fn conv_net(b: usize) -> (Arc<Plan>, Vec<f32>) {
        let mut g = Graph::new();
        g.set_grad_enabled(false);
        let w1 = g.param(Tensor::from_fn(vec![4, 3, 3, 3], |i| {
            (((i * 37 + 11) % 41) as f32 / 20.5 - 1.0) * 0.35
        }));
        let b1 = g.param(Tensor::from_fn(vec![4], |i| 0.05 * i as f32 - 0.1));
        let w2 = g.param(Tensor::from_fn(vec![2, 4, 1, 1], |i| {
            (((i * 53 + 5) % 29) as f32 / 14.5 - 1.0) * 0.5
        }));
        let mark = g.mark();
        let x = g.constant(Tensor::zeros(vec![b, 3, 8, 8]));
        let y = g.conv2d(x, w1, 1, 1);
        let y = g.add_bias_channel(y, b1);
        let y = g.relu(y);
        let y = g.sigmoid(y);
        let y = g.conv2d(y, w2, 1, 0);
        let plan = Plan::capture(&g, mark, x, y).unwrap();
        let input: Vec<f32> = (0..b * 3 * 8 * 8)
            .map(|i| (((i * 131 + 7) % 257) as f32 / 128.0 - 1.0) * 0.9)
            .collect();
        (Arc::new(plan), input)
    }

    fn max_abs(xs: &[f32]) -> f32 {
        xs.iter().fold(0.0f32, |a, &v| a.max(v.abs()))
    }

    #[test]
    fn int8_plan_tracks_f32_plan() {
        let (plan, input) = conv_net(2);
        let calib = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let qp = plan.quantize(&calib, QuantOptions::default()).unwrap();
        let qs = qp.stats().quant.clone().expect("quantized");
        assert!(qs.i8_steps >= 2, "{}", qp.summary());
        assert!(qs.i8_values >= 1, "{}", qp.summary());
        assert!(qs.f16_values >= 1, "{}", qp.summary());

        let mut arena = Vec::new();
        let f32_out = run_plan(&plan, &mut arena, &input).to_vec();
        let q_out = run_plan(&qp, &mut arena, &input).to_vec();
        assert_eq!(f32_out.len(), q_out.len());
        let tol = 0.05 * max_abs(&f32_out) + 1e-3;
        for (i, (a, b)) in f32_out.iter().zip(&q_out).enumerate() {
            assert!((a - b).abs() <= tol, "elem {i}: f32 {a} vs int8 {b}");
        }
        // Re-running over the same arena must be deterministic.
        let again = run_plan(&qp, &mut arena, &input).to_vec();
        assert_eq!(q_out, again);
    }

    #[test]
    fn calibration_serializes_bitwise() {
        let (plan, input) = conv_net(1);
        let c1 = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let c2 = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        assert_eq!(c1.to_bytes(), c2.to_bytes());
        let rt = Calibration::from_bytes(&c1.to_bytes()).unwrap();
        assert_eq!(rt.to_bytes(), c1.to_bytes());
        assert_eq!(rt.steps(), plan.stats().ops);
    }

    #[test]
    fn stale_calibration_is_rejected() {
        let (plan, input) = conv_net(1);
        let calib = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let stale = Calibration {
            input_absmax: calib.input_absmax,
            step_absmax: calib.step_absmax[..calib.steps() - 1].to_vec(),
            kinds: calib.kinds[..calib.steps() - 1].to_vec(),
        };
        let err = plan.quantize(&stale, QuantOptions::default()).unwrap_err();
        assert!(err.contains("recalibrate"), "{err}");
    }

    /// The quantized plan of two int8 convs of one input, summed; its
    /// layout already passed `verify_step` on every step.
    fn two_conv_int8() -> Plan {
        let mut g = Graph::new();
        g.set_grad_enabled(false);
        let w = |g: &mut Graph, salt: usize| {
            g.param(Tensor::from_fn(vec![4, 3, 3, 3], |i| {
                (((i * 37 + salt) % 41) as f32 / 20.5 - 1.0) * 0.35
            }))
        };
        let (w1, w2) = (w(&mut g, 11), w(&mut g, 23));
        let mark = g.mark();
        let x = g.constant(Tensor::zeros(vec![1, 3, 8, 8]));
        let (y1, y2) = (g.conv2d(x, w1, 1, 1), g.conv2d(x, w2, 1, 1));
        let y = g.add(y1, y2);
        let plan = Plan::capture(&g, mark, x, y).unwrap();
        let input: Vec<f32> = (0..3 * 8 * 8)
            .map(|i| (i % 13) as f32 / 6.5 - 1.0)
            .collect();
        let calib = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let qp = plan.quantize(&calib, QuantOptions::default()).unwrap();
        assert!(matches!(qp.steps[1].kernel, Kernel::ConvI8 { .. }));
        qp
    }

    /// The per-step verifier covers quantized plans: the final add's
    /// output moved onto the second conv's output, which it reads.
    #[test]
    fn verify_step_rejects_an_output_over_its_own_operand() {
        let mut qp = two_conv_int8();
        let (conv, add) = (qp.steps[1].out, qp.steps[2].out);
        qp.values[add].loc = qp.values[conv].loc;
        let err = verify_step(&qp.steps[2], &qp.values, qp.arena_bytes).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    /// A scratch piece pushed past the end of the arena.
    #[test]
    fn verify_step_rejects_a_span_past_the_arena() {
        let mut qp = two_conv_int8();
        qp.steps[1].scratch[0].off = qp.arena_bytes;
        let err = verify_step(&qp.steps[1], &qp.values, qp.arena_bytes).unwrap_err();
        assert!(err.contains("past the arena end"), "{err}");
    }
}
