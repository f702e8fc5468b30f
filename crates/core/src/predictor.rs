//! Adapts a trained congestion model to the placer's predictor interface —
//! the paper's key integration point: the learned map replaces RUDY in the
//! instance-inflation step (Sec. IV).
//!
//! Besides the single-snapshot [`CongestionPredictor`] path used inside the
//! placement loop, [`ModelPredictor`] exposes a batched path
//! ([`ModelPredictor::predict_batch_tensors`]) that runs one `[N, C, H, W]`
//! forward for N requests. Per-sample results are bitwise identical to the
//! batch-1 path (the kernels compute each output element with a fixed
//! reduction order independent of the batch dimension), which is what lets
//! the serve subsystem coalesce concurrent requests without changing
//! anyone's answer.
//!
//! Two interchangeable [`Engine`]s drive the forward: the dynamic autograd
//! tape (reference) and compiled [`mfaplace_infer`] plans (default) — a
//! static op list per input shape executed allocation-free from a
//! liveness-packed arena. Plan outputs are bitwise identical to the tape's
//! (test-enforced), so switching engines never changes an answer; if a
//! recorded tape cannot be compiled the predictor falls back to the tape
//! permanently; [`ModelPredictor::status`] reports which engine is really
//! serving and why.

use std::collections::HashMap;
use std::sync::Arc;

use mfaplace_autograd::Graph;
use mfaplace_fpga::design::Design;
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::gridmap::GridMap;
use mfaplace_fpga::placement::Placement;
use mfaplace_infer::{
    profile_plan, run_plan, Calibration, Plan, PlanCache, PlanKey, PlanOptions, PlanPrecision,
    PlanProfile, PlanSource, PlanStats, QuantOptions, QuantStats,
};
use mfaplace_models::{expected_levels, CongestionModel};
use mfaplace_placer::CongestionPredictor;
use mfaplace_rt::timer::ScopeTimer;
use mfaplace_tensor::Tensor;

/// Which machinery runs the inference forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Replay the model through the dynamic autograd tape (reference
    /// implementation; allocates nodes and re-derives shapes per forward).
    Tape,
    /// Execute a compiled, shape-specialized [`mfaplace_infer::Plan`]
    /// (fused kernels, zero allocations per forward). Bitwise identical
    /// outputs to [`Engine::Tape`].
    Plan,
    /// Execute the plan lowered by [`mfaplace_infer::Plan::quantize`] —
    /// int8/f16 activation arena, int8 GEMM compute — from the f32 plan
    /// plus an offline [`Calibration`]. Requires calibration to be attached
    /// (via [`ModelPredictor::set_calibration`] or
    /// [`ModelPredictor::calibrate`]); without it, or if the quantized
    /// build fails, forwards silently fall back to the f32 plan (then the
    /// tape), so selecting this engine never breaks a predictor.
    Quant,
}

impl Engine {
    /// Parses `"tape"` / `"plan"` / `"quant"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Engine> {
        match s.to_ascii_lowercase().as_str() {
            "tape" => Some(Engine::Tape),
            "plan" => Some(Engine::Plan),
            "quant" => Some(Engine::Quant),
            _ => None,
        }
    }

    /// Reads `MFAPLACE_ENGINE` (`tape`, `plan` or `quant`); defaults to
    /// [`Engine::Plan`] when unset or unrecognized.
    pub fn from_env() -> Engine {
        std::env::var("MFAPLACE_ENGINE")
            .ok()
            .and_then(|v| Engine::parse(&v))
            .unwrap_or(Engine::Plan)
    }

    /// Stable lowercase name (`"tape"` / `"plan"` / `"quant"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tape => "tape",
            Engine::Plan => "plan",
            Engine::Quant => "quant",
        }
    }
}

/// Why [`Engine::Quant`] serves the f32 plan on an uncalibrated predictor.
const NO_CALIBRATION: &str = "quant engine: no calibration attached";

/// What a predictor is doing right now, as opposed to what it was asked to
/// do — see [`ModelPredictor::status`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictorStatus {
    /// The engine selected via [`ModelPredictor::set_engine`].
    pub requested: Engine,
    /// The engine the next forward actually runs.
    pub served: Engine,
    /// The numeric precision that forward runs at.
    pub precision: PlanPrecision,
    /// Why `served` is not `requested`; `None` exactly when they are equal.
    pub fallback: Option<String>,
    /// Peak-memory plan stats as the served engine experiences them.
    pub plan: Option<PlanStats>,
}

/// A trained model plus its graph, usable inside a placement flow.
pub struct ModelPredictor<M: CongestionModel> {
    graph: Graph,
    model: M,
    name: String,
    engine: Engine,
    /// Shared, byte-bounded cache of compiled plans; predictors loaded
    /// from the same checkpoint file (same [`PlanSource::Content`]) share
    /// entries, so a fleet of N identical slots compiles each shape once.
    plan_cache: Arc<PlanCache>,
    /// This predictor's weight identity in the cache key.
    plan_source: PlanSource,
    /// One activation arena (u64-backed for alignment) reused across every
    /// plan this predictor runs, f32 or quantized (grown to the largest
    /// plan seen, never shrunk). Safe because every plan op fully
    /// overwrites or explicitly clears its destination span.
    arena: Vec<u64>,
    /// Stats of the largest-arena f32 plan resolved so far (peak memory).
    peak_stats: Option<PlanStats>,
    /// Stats of the largest-arena quantized plan resolved so far
    /// (arena/weight bytes reflect quantized storage).
    peak_quant: Option<PlanStats>,
    /// Parameter snapshots shared across the per-shape plans.
    weight_cache: HashMap<usize, Arc<Tensor>>,
    /// Set on the first failed capture; the predictor then stays on the
    /// tape (the error is surfaced via metrics/CLI, never a panic).
    plan_broken: Option<String>,
    /// Compile plans with inference-mode BN folded into conv weights
    /// (keyed separately in the cache; outputs agree with the tape to
    /// 1e-6 of output scale instead of bitwise).
    fold_bn: bool,
    /// Offline calibration + quantization options. `None` means
    /// uncalibrated: [`Engine::Quant`] then falls back to the f32 plan.
    quant: Option<(Arc<Calibration>, QuantOptions)>,
    /// Set on the first failed quantized build; quant forwards then stay
    /// on the f32 fallback (surfaced via metrics/CLI, never a panic).
    quant_broken: Option<String>,
    /// Level-scheduler worker count for plan forwards (`1`, the default,
    /// is serial replay; outputs are bitwise identical either way).
    plan_workers: usize,
}

impl<M: CongestionModel> ModelPredictor<M> {
    /// Wraps a trained `(graph, model)` pair (e.g. from
    /// [`crate::Trainer::into_parts`]). The forward engine comes from
    /// `MFAPLACE_ENGINE` (default: compiled plans); plans land in a
    /// private cache sized by `MFAPLACE_PLAN_CACHE_MB`. Use
    /// [`ModelPredictor::with_plan_cache`] to share plans across
    /// predictors built from identical weights.
    pub fn new(graph: Graph, model: M) -> Self {
        Self::with_plan_cache(
            graph,
            model,
            Arc::new(PlanCache::from_env()),
            PlanSource::unique(),
        )
    }

    /// Like [`ModelPredictor::new`], but compiled plans go into (and come
    /// from) `plan_cache` under `plan_source`. Callers must only pass the
    /// same `plan_source` for predictors with bitwise-identical weights —
    /// the loader derives it from the checkpoint file's content hash.
    pub fn with_plan_cache(
        graph: Graph,
        model: M,
        plan_cache: Arc<PlanCache>,
        plan_source: PlanSource,
    ) -> Self {
        let name = model.name().to_string();
        let mut graph = graph;
        // Inference-only: forwards recorded from here on skip gradient
        // bookkeeping and drop backward-only storage (conv im2col buffers)
        // at creation instead of retaining it on the tape.
        graph.set_grad_enabled(false);
        ModelPredictor {
            graph,
            model,
            name,
            engine: Engine::from_env(),
            plan_cache,
            plan_source,
            arena: Vec::new(),
            peak_stats: None,
            peak_quant: None,
            weight_cache: HashMap::new(),
            plan_broken: None,
            fold_bn: false,
            quant: None,
            quant_broken: None,
            plan_workers: 1,
        }
    }

    /// Sets the level-scheduler worker count for plan forwards (`1` =
    /// serial replay). Purely a latency knob: outputs are bitwise
    /// identical at any count.
    pub fn set_plan_workers(&mut self, workers: usize) {
        self.plan_workers = workers.max(1);
    }

    /// The configured level-scheduler worker count.
    pub fn plan_workers(&self) -> usize {
        self.plan_workers
    }

    /// Borrows the wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The active forward engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Switches the forward engine. Compiled plans are kept (switching
    /// back to [`Engine::Plan`] reuses them).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Why plan compilation failed, if it did (the predictor is then
    /// permanently on the tape fallback).
    pub fn plan_broken(&self) -> Option<&str> {
        self.plan_broken.as_deref()
    }

    /// Why the quantized build failed, if it did (quant forwards then
    /// stay on the f32 plan fallback).
    pub fn quant_broken(&self) -> Option<&str> {
        self.quant_broken.as_deref()
    }

    /// Enables/disables BN folding for plans compiled *after* this call.
    /// Folded and unfolded plans live under distinct cache keys, so
    /// toggling never serves a stale flavour.
    pub fn set_fold_bn(&mut self, fold: bool) {
        self.fold_bn = fold;
    }

    /// Whether plans are compiled with BN folding.
    pub fn fold_bn(&self) -> bool {
        self.fold_bn
    }

    /// Attaches an offline calibration (e.g. from a serving artifact) so
    /// [`Engine::Quant`] forwards can build quantized plans without
    /// re-calibrating. Clears any previous quant failure.
    pub fn set_calibration(&mut self, calibration: Arc<Calibration>, options: QuantOptions) {
        self.quant = Some((calibration, options));
        self.quant_broken = None;
    }

    /// The attached calibration, if any.
    pub fn calibration(&self) -> Option<&Arc<Calibration>> {
        self.quant.as_ref().map(|(c, _)| c)
    }

    /// The attached quantization options, if calibrated.
    pub fn quant_options(&self) -> Option<QuantOptions> {
        self.quant.as_ref().map(|(_, o)| *o)
    }

    /// The engine the next forward runs and, when that is not the requested
    /// one, why — the single encoding of the quant → plan → tape fallback
    /// rule. Dispatch, [`ModelPredictor::precision`],
    /// [`ModelPredictor::active_plan_stats`] and [`ModelPredictor::status`]
    /// all read it, so they cannot disagree.
    fn effective(&self) -> (Engine, Option<&str>) {
        let mut served = self.engine;
        let mut why = None;
        if served == Engine::Quant && (self.quant.is_none() || self.quant_broken.is_some()) {
            served = Engine::Plan;
            why = Some(self.quant_broken.as_deref().unwrap_or(NO_CALIBRATION));
        }
        if served == Engine::Plan {
            if let Some(broken) = &self.plan_broken {
                served = Engine::Tape;
                why = Some(broken);
            }
        }
        (served, why)
    }

    /// The numeric precision forwards currently run at: `int8` while the
    /// quant engine is really serving, `f32` otherwise.
    pub fn precision(&self) -> PlanPrecision {
        match self.effective().0 {
            Engine::Quant => PlanPrecision::Int8,
            _ => PlanPrecision::F32,
        }
    }

    /// Requested engine, engine really serving, precision, fallback reason
    /// and active plan stats in one consistent snapshot.
    pub fn status(&self) -> PredictorStatus {
        let (served, why) = self.effective();
        PredictorStatus {
            requested: self.engine,
            served,
            precision: self.precision(),
            fallback: why.map(str::to_owned),
            plan: self.active_plan_stats(),
        }
    }

    /// Runs the offline calibration pass: compiles (or fetches) the f32
    /// plan for a single-sample `[1, C, H, W]` forward, replays it
    /// serially over every representative input (each a `[C, H, W]`
    /// feature stack), records per-step activation abs-max ranges, and
    /// attaches the result. Deterministic: the same inputs in the same
    /// order produce a bitwise-identical calibration.
    pub fn calibrate(
        &mut self,
        inputs: &[Tensor],
        options: QuantOptions,
    ) -> Result<Arc<Calibration>, String> {
        let first = inputs
            .first()
            .ok_or_else(|| "calibrate: no representative inputs".to_string())?;
        let shape = first.shape();
        if shape.len() != 3 {
            return Err(format!(
                "calibrate: inputs must be [C, H, W], got {shape:?}"
            ));
        }
        let plan_shape = vec![1, shape[0], shape[1], shape[2]];
        let plan = self.resolve_plan(&plan_shape, PlanPrecision::F32)?;
        let calib = Calibration::collect(&plan, inputs.iter().map(|t| t.data()))?;
        let calib = Arc::new(calib);
        self.set_calibration(calib.clone(), options);
        Ok(calib)
    }

    /// The plan cache this predictor resolves through.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// This predictor's weight identity in the plan-cache key.
    pub fn plan_source(&self) -> PlanSource {
        self.plan_source
    }

    /// Stats of the largest-arena f32 plan this predictor has resolved so
    /// far (the peak-memory plan), if any forward has been compiled.
    pub fn plan_stats(&self) -> Option<PlanStats> {
        self.peak_stats.clone()
    }

    /// Quantization counters of the largest-arena quantized plan resolved
    /// so far, if any quant forward has compiled one.
    pub fn quant_plan_stats(&self) -> Option<QuantStats> {
        self.peak_quant.as_ref()?.quant.clone()
    }

    /// Plan stats as the served engine experiences them: the quantized
    /// plan's counters (int8/f16 arena and weight bytes) when the quant
    /// engine is serving a quantized plan, the f32 plan's otherwise —
    /// what the serve layer renders as `mfaplace_infer_plan_*` gauges.
    pub fn active_plan_stats(&self) -> Option<PlanStats> {
        let quant = match self.effective().0 {
            Engine::Quant => self.peak_quant.clone(),
            _ => None,
        };
        quant.or_else(|| self.peak_stats.clone())
    }

    /// The batch size a request batch of `n` samples is padded to before
    /// plan lookup: `{1, 2, 4}` exactly, then the next multiple of 8.
    ///
    /// Bucketing keeps the shared plan cache bounded under adversarial
    /// batch sizes — at most 3 + ⌈max_batch/8⌉ plans per model shape —
    /// at the cost of up to 7 padded (wasted) samples per forward. The
    /// padded samples are sliced off before anyone sees them, and batched
    /// forwards are per-sample bitwise independent, so bucketing never
    /// changes an answer.
    pub fn bucketed_batch(n: usize) -> usize {
        match n {
            0 | 1 => 1,
            2 => 2,
            3 | 4 => 4,
            _ => n.div_ceil(8) * 8,
        }
    }

    /// Compiles (or fetches from the shared cache) the plan the next
    /// `[n, c, h, w]` forward would run — the quantized one while the
    /// quant engine is really serving, the f32 one otherwise — without
    /// running it, returning its stats (the `model-info` hook). `n` is
    /// bucketed exactly as a predict would.
    ///
    /// Capture runs the model once on a zeros input; zoo forwards branch
    /// only on shape, so the recording is valid for any batch content.
    pub fn compile_plan(
        &mut self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Result<PlanStats, String> {
        let shape = vec![Self::bucketed_batch(n), c, h, w];
        let plan = self.resolve_plan(&shape, self.precision())?;
        Ok(plan.stats().clone())
    }

    /// Per-step timing of one warm serial forward over `input`
    /// (`[C, H, W]`) through the plan the next single-sample forward would
    /// run (see [`ModelPredictor::compile_plan`]) — the `mfaplace profile`
    /// hook. Errors when that plan cannot be built; there is nothing to
    /// profile on the tape.
    pub fn profile_plan(&mut self, input: &Tensor) -> Result<PlanProfile, String> {
        let mut shape = vec![1];
        shape.extend_from_slice(input.shape());
        let plan = self.resolve_plan(&shape, self.precision())?;
        Ok(profile_plan(&plan, &mut self.arena, input.data()))
    }

    /// Fetches the plan for `shape` at `precision` from the shared cache,
    /// compiling and inserting it on a miss: f32 plans are captured from
    /// one tape recording, int8 plans are lowered from the f32 plan with
    /// the attached calibration. Errors when the capture fails, when no
    /// calibration is attached, or when the calibration does not match the
    /// captured plan (stale — e.g. a different checkpoint or grid; the
    /// error says to recalibrate). Compilation runs outside the cache
    /// lock, so two predictors racing on one cold key may both compile;
    /// the loser replaces the winner's identical entry.
    fn resolve_plan(
        &mut self,
        shape: &[usize],
        precision: PlanPrecision,
    ) -> Result<Arc<Plan>, String> {
        let key = PlanKey {
            precision,
            ..PlanKey::f32(self.plan_source, shape.to_vec(), self.fold_bn)
        };
        let plan = match self.plan_cache.get(&key) {
            Some(plan) => plan,
            None => {
                let plan = Arc::new(match precision {
                    PlanPrecision::F32 => self.capture_plan(shape)?,
                    PlanPrecision::Int8 => {
                        let (calib, opts) = self.quant.clone().ok_or(NO_CALIBRATION)?;
                        self.resolve_plan(shape, PlanPrecision::F32)?
                            .quantize(&calib, opts)?
                    }
                });
                self.plan_cache.insert(key, plan.clone());
                plan
            }
        };
        let peak = match precision {
            PlanPrecision::F32 => &mut self.peak_stats,
            PlanPrecision::Int8 => &mut self.peak_quant,
        };
        let stats = plan.stats();
        if peak
            .as_ref()
            .is_none_or(|p| stats.arena_bytes > p.arena_bytes)
        {
            *peak = Some(stats.clone());
        }
        Ok(plan)
    }

    /// Records one forward of `shape` on the tape and compiles it.
    fn capture_plan(&mut self, shape: &[usize]) -> Result<Plan, String> {
        let mark = self.graph.mark();
        let xv = self.graph.constant(Tensor::zeros(shape.to_vec()));
        let yv = self.model.forward(&mut self.graph, xv, false);
        let captured = Plan::capture_cached(
            &self.graph,
            mark,
            xv,
            yv,
            PlanOptions {
                fold_bn: self.fold_bn,
            },
            &mut self.weight_cache,
        );
        self.graph.truncate(mark);
        captured
    }

    /// Logits from the compiled `engine` (plan or quant), or `None` when its
    /// build failed — the reason is latched, so [`Self::effective`] names
    /// the next engine down. Pads the batch up to its bucket size, runs the
    /// bucketed plan, and slices the padding back off.
    fn compiled_logits(&mut self, engine: Engine, batch: &Tensor) -> Option<Tensor> {
        let n = batch.shape()[0];
        let bucket = Self::bucketed_batch(n);
        let mut plan_shape = batch.shape().to_vec();
        plan_shape[0] = bucket;
        let quant = engine == Engine::Quant;
        let (precision, timer) = if quant {
            (PlanPrecision::Int8, "core/forward_quant")
        } else {
            (PlanPrecision::F32, "core/forward_plan")
        };
        let plan = match self.resolve_plan(&plan_shape, precision) {
            Ok(plan) => plan,
            Err(e) => {
                let (counter, latch) = if quant {
                    ("infer/quant_fallback", &mut self.quant_broken)
                } else {
                    ("infer/plan_fallback", &mut self.plan_broken)
                };
                mfaplace_rt::timer::count(counter, 1);
                *latch = Some(e);
                return None;
            }
        };
        let mut padded = Vec::new();
        let input = if bucket == n {
            batch.data()
        } else {
            padded.resize(bucket * (batch.data().len() / n), 0.0f32);
            padded[..batch.data().len()].copy_from_slice(batch.data());
            &padded[..]
        };
        let full = {
            let _t = ScopeTimer::new(timer);
            run_plan(&plan, &mut self.arena, input, self.plan_workers)
        };
        let mut out_shape = plan.output_shape().to_vec();
        out_shape[0] = n;
        let per_out = full.len() / bucket;
        Some(
            Tensor::from_vec(out_shape, full[..n * per_out].to_vec())
                .expect("compiled plan output tensor"),
        )
    }

    /// Tape-engine logits (the reference path).
    fn tape_logits(&mut self, batch: &Tensor) -> Tensor {
        let _t = ScopeTimer::new("core/forward_tape");
        let mark = self.graph.mark();
        let xv = self.graph.constant(batch.clone());
        let logits_var = self.model.forward(&mut self.graph, xv, false);
        let logits = self.graph.value(logits_var).clone();
        self.graph.truncate(mark);
        logits
    }

    /// Runs one batched forward over `inputs` (each a `[C, H, W]` feature
    /// stack of identical shape) and returns the per-tile expected
    /// congestion level of each, shaped `[H, W]`.
    ///
    /// Output `i` is bitwise identical to what a single-item call on
    /// `inputs[i]` produces; batching only amortizes per-forward overhead.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the stacks disagree in shape.
    pub fn predict_batch_tensors(&mut self, inputs: &[Tensor]) -> Vec<Tensor> {
        assert!(!inputs.is_empty(), "predict_batch_tensors: empty batch");
        let shape = inputs[0].shape().to_vec();
        assert_eq!(shape.len(), 3, "inputs must be [C, H, W], got {shape:?}");
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let n = inputs.len();
        let mut data = Vec::with_capacity(n * c * h * w);
        for x in inputs {
            assert_eq!(x.shape(), &shape[..], "batch inputs disagree in shape");
            data.extend_from_slice(x.data());
        }
        let batch = Tensor::from_vec(vec![n, c, h, w], data).expect("stacked batch");

        // A failed build latches its reason, which moves `effective()` one
        // engine down the chain; the tape cannot fail, so this terminates.
        let logits = loop {
            match self.effective().0 {
                Engine::Tape => break self.tape_logits(&batch),
                engine => {
                    if let Some(logits) = self.compiled_logits(engine, &batch) {
                        break logits;
                    }
                }
            }
        };
        let levels = expected_levels(&logits); // [N, H, W]
        let hw = h * w;
        let src = levels.data();
        (0..n)
            .map(|i| {
                Tensor::from_vec(vec![h, w], src[i * hw..(i + 1) * hw].to_vec())
                    .expect("per-sample level map")
            })
            .collect()
    }

    /// Featurizes each `(design, placement)` snapshot and predicts all of
    /// them in one batched forward.
    pub fn predict_batch(
        &mut self,
        jobs: &[(&Design, &Placement)],
        grid_w: usize,
        grid_h: usize,
    ) -> Vec<GridMap> {
        let inputs: Vec<Tensor> = jobs
            .iter()
            .map(|(d, p)| FeatureStack::extract(d, p, grid_w, grid_h).to_tensor())
            .collect();
        self.predict_batch_tensors(&inputs)
            .into_iter()
            .map(|t| GridMap::from_vec(grid_w, grid_h, t.into_vec()))
            .collect()
    }
}

impl<M: CongestionModel> CongestionPredictor for ModelPredictor<M> {
    fn predict(
        &mut self,
        design: &Design,
        placement: &Placement,
        grid_w: usize,
        grid_h: usize,
    ) -> GridMap {
        let features = FeatureStack::extract(design, placement, grid_w, grid_h);
        let levels = self
            .predict_batch_tensors(std::slice::from_ref(&features.to_tensor()))
            .pop()
            .expect("one output per input");
        GridMap::from_vec(grid_w, grid_h, levels.into_vec())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_fpga::design::DesignPreset;
    use mfaplace_models::{OursConfig, OursModel};
    use mfaplace_rt::rng::SeedableRng;
    use mfaplace_rt::rng::StdRng;

    fn small_predictor(seed: u64) -> ModelPredictor<OursModel> {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = OursModel::new(
            &mut g,
            OursConfig {
                grid: 32,
                base_channels: 4,
                vit_layers: 1,
                vit_heads: 2,
                use_mfa: true,
                mfa_reduction: 4,
            },
            &mut rng,
        );
        ModelPredictor::new(g, model)
    }

    #[test]
    fn predictor_outputs_level_scale_map() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let p = d.random_placement(2);
        let mut predictor = small_predictor(0);
        let map = predictor.predict(&d, &p, 32, 32);
        assert_eq!(map.width(), 32);
        // Expected-level outputs live in [0, 7].
        assert!(map.max() <= 7.0);
        assert!(map.data().iter().all(|&v| v >= 0.0));
        assert_eq!(predictor.name(), "Ours");
    }

    #[test]
    fn repeated_predictions_do_not_grow_graph() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let p = d.random_placement(2);
        let mut predictor = small_predictor(1);
        let a = predictor.predict(&d, &p, 32, 32);
        let b = predictor.predict(&d, &p, 32, 32);
        assert_eq!(a, b, "inference must be pure");
    }

    #[test]
    fn batched_outputs_bitwise_match_single_item_inference() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let placements: Vec<_> = (0..5).map(|s| d.random_placement(s)).collect();
        let inputs: Vec<Tensor> = placements
            .iter()
            .map(|p| FeatureStack::extract(&d, p, 32, 32).to_tensor())
            .collect();

        let mut predictor = small_predictor(2);
        let batched = predictor.predict_batch_tensors(&inputs);
        assert_eq!(batched.len(), inputs.len());
        for (i, x) in inputs.iter().enumerate() {
            let single = predictor
                .predict_batch_tensors(std::slice::from_ref(x))
                .pop()
                .unwrap();
            assert_eq!(
                single.data(),
                batched[i].data(),
                "sample {i}: batched inference must be bitwise identical to single-item"
            );
        }
    }

    #[test]
    fn plan_engine_is_bitwise_identical_to_tape_engine() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let placements: Vec<_> = (0..3).map(|s| d.random_placement(s)).collect();
        let inputs: Vec<Tensor> = placements
            .iter()
            .map(|p| FeatureStack::extract(&d, p, 32, 32).to_tensor())
            .collect();

        let mut tape = small_predictor(5);
        tape.set_engine(Engine::Tape);
        let mut plan = small_predictor(5); // same seed => same weights
        plan.set_engine(Engine::Plan);
        assert_eq!(tape.engine().name(), "tape");
        assert_eq!(plan.engine().name(), "plan");

        let from_tape = tape.predict_batch_tensors(&inputs);
        let from_plan = plan.predict_batch_tensors(&inputs);
        for (i, (t, p)) in from_tape.iter().zip(&from_plan).enumerate() {
            assert_eq!(t.data(), p.data(), "sample {i}: engines must agree bitwise");
        }
        assert!(plan.plan_broken().is_none());
        let stats = plan.plan_stats().expect("plan compiled during predict");
        assert!(stats.ops > 0 && stats.arena_bytes > 0);
        assert!(tape.plan_stats().is_none(), "tape engine compiles nothing");
    }

    #[test]
    fn compile_plan_reports_stats_without_predicting() {
        let mut p = small_predictor(6);
        let stats = p.compile_plan(2, 6, 32, 32).expect("compile");
        assert!(stats.ops > 0);
        assert!(stats.fused_conv_relu > 0);
        // The cached plan is reused by a later predict at the same shape.
        assert_eq!(p.plan_stats().expect("cached").ops, stats.ops);
    }

    #[test]
    fn quant_engine_without_calibration_falls_back_to_the_plan() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let p = d.random_placement(7);
        let x = FeatureStack::extract(&d, &p, 32, 32).to_tensor();

        let mut plan = small_predictor(8);
        plan.set_engine(Engine::Plan);
        let mut quant = small_predictor(8); // same seed => same weights
        quant.set_engine(Engine::Quant);
        assert_eq!(quant.engine().name(), "quant");
        assert_eq!(quant.precision().name(), "f32", "uncalibrated => f32");

        let via_plan = plan.predict_batch_tensors(std::slice::from_ref(&x));
        let via_quant = quant.predict_batch_tensors(std::slice::from_ref(&x));
        assert_eq!(
            via_plan[0].data(),
            via_quant[0].data(),
            "uncalibrated quant engine must serve the bitwise f32 answer"
        );
        assert!(quant.quant_broken().is_none());
        assert!(quant.quant_plan_stats().is_none(), "nothing quantized");
    }

    #[test]
    fn calibrated_quant_engine_runs_int8_plans() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let placements: Vec<_> = (0..3).map(|s| d.random_placement(s)).collect();
        let inputs: Vec<Tensor> = placements
            .iter()
            .map(|p| FeatureStack::extract(&d, p, 32, 32).to_tensor())
            .collect();

        let mut predictor = small_predictor(9);
        let calib = predictor
            .calibrate(&inputs, QuantOptions::default())
            .expect("calibration");
        assert!(calib.steps() > 0);
        predictor.set_engine(Engine::Quant);
        assert_eq!(predictor.precision().name(), "int8");

        let outs = predictor.predict_batch_tensors(&inputs);
        assert!(
            predictor.quant_broken().is_none(),
            "{:?}",
            predictor.quant_broken()
        );
        for out in &outs {
            assert!(out.data().iter().all(|&v| (0.0..=7.0).contains(&v)));
        }
        // Quantized predictions are deterministic.
        let again = predictor.predict_batch_tensors(&inputs);
        for (a, b) in outs.iter().zip(&again) {
            assert_eq!(a.data(), b.data());
        }
        let qs = predictor.quant_plan_stats().expect("quant plan compiled");
        assert!(qs.i8_steps > 0, "{qs:?}");
        assert!(
            qs.arena_bytes * 2 <= qs.f32_arena_bytes,
            "int8 arena {} vs f32 arena {}",
            qs.arena_bytes,
            qs.f32_arena_bytes
        );
    }

    #[test]
    fn status_reports_the_engine_really_serving_and_why() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let x = FeatureStack::extract(&d, &d.random_placement(5), 32, 32).to_tensor();

        // Uncalibrated quant serves the f32 plan, and says so.
        let mut p = small_predictor(10);
        p.set_engine(Engine::Quant);
        let status = p.status();
        assert_eq!(
            (status.requested, status.served),
            (Engine::Quant, Engine::Plan)
        );
        assert_eq!(status.fallback.as_deref(), Some(NO_CALIBRATION));

        // A calibration that does not fit this model's plan (collected on a
        // much shallower network) latches `quant_broken` on the first
        // forward; the answer is still the bitwise f32 one.
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(10);
        let unet = mfaplace_models::UNetModel::new(&mut g, 2, &mut rng);
        let mut other = ModelPredictor::new(g, unet);
        let stale = other
            .calibrate(std::slice::from_ref(&x), QuantOptions::default())
            .unwrap();
        p.set_calibration(stale, QuantOptions::default());
        assert_eq!(
            p.status().served,
            Engine::Quant,
            "calibrated, not yet built"
        );
        let via_quant = p.predict_batch_tensors(std::slice::from_ref(&x));
        let status = p.status();
        assert_eq!(status.requested, Engine::Quant);
        assert_eq!(status.served, Engine::Plan);
        assert_eq!(status.precision, PlanPrecision::F32);
        assert_eq!(status.fallback.as_deref(), p.quant_broken());
        assert!(
            status.fallback.as_deref().unwrap().contains("recalibrate"),
            "{status:?}"
        );
        assert_eq!(
            status.plan,
            p.plan_stats(),
            "f32 plan stats while fallen back"
        );
        let mut plan = small_predictor(10);
        plan.set_engine(Engine::Plan);
        let via_plan = plan.predict_batch_tensors(std::slice::from_ref(&x));
        assert_eq!(via_quant[0].data(), via_plan[0].data());
        assert_eq!(plan.status().fallback, None, "healthy: nothing to report");
        assert_eq!(plan.status().served, Engine::Plan);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let p0 = d.random_placement(3);
        let p1 = d.random_placement(4);
        let mut predictor = small_predictor(3);
        let batched = predictor.predict_batch(&[(&d, &p0), (&d, &p1)], 32, 32);
        assert_eq!(batched[0], predictor.predict(&d, &p0, 32, 32));
        assert_eq!(batched[1], predictor.predict(&d, &p1, 32, 32));
    }
}
