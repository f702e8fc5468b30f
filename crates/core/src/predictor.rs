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
//! The forward runs on one [`Engine`], chosen by what was loaded: compiled
//! [`mfaplace_infer`] f32 plans (a static op list per input shape executed
//! allocation-free from a liveness-packed arena, bitwise identical to the
//! tape) or, once a calibration is attached, their int8 lowering. The
//! loader builds the plan before it hands a predictor out, so the engine a
//! predictor reports is the engine that answers.

use std::collections::HashMap;
use std::sync::Arc;

use mfaplace_autograd::Graph;
use mfaplace_fpga::design::Design;
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::gridmap::GridMap;
use mfaplace_fpga::placement::Placement;
use mfaplace_infer::{
    profile_plan, run_plan, Calibration, Plan, PlanCache, PlanKey, PlanPrecision, PlanProfile,
    PlanSource, PlanStats, QuantOptions, QuantStats,
};
use mfaplace_models::{expected_levels, CongestionModel};
use mfaplace_placer::CongestionPredictor;
use mfaplace_rt::timer::ScopeTimer;
use mfaplace_tensor::Tensor;

use crate::compile::fnv1a;

/// Which machinery runs the inference forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Replay the model through the dynamic autograd tape. Not a serving
    /// engine: it is the reference that tests and benchmarks compare the
    /// plans against, selectable only through the Rust API.
    Tape,
    /// Execute a compiled, shape-specialized [`mfaplace_infer::Plan`]
    /// (fused kernels, zero allocations per forward). Bitwise identical
    /// outputs to [`Engine::Tape`].
    Plan,
    /// Execute the plan lowered by [`mfaplace_infer::Plan::quantize`] —
    /// int8 activation arena, int8 GEMM compute — from the f32 plan plus
    /// the attached [`Calibration`] (from a `.mfaq` artifact or
    /// [`ModelPredictor::calibrate`]). Never selected without one.
    Quant,
}

impl Engine {
    /// Parses a serving engine, `"plan"` or `"quant"` (case-insensitive).
    /// The tape is not one, so `"tape"` is `None` like any other word.
    pub fn parse(s: &str) -> Option<Engine> {
        match s.to_ascii_lowercase().as_str() {
            "plan" => Some(Engine::Plan),
            "quant" => Some(Engine::Quant),
            _ => None,
        }
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

/// A predictor's engine, precision and plan stats in one consistent
/// snapshot — see [`ModelPredictor::status`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictorStatus {
    /// The engine every forward runs.
    pub engine: Engine,
    /// The numeric precision that forward runs at.
    pub precision: PlanPrecision,
    /// Peak-memory plan stats of that engine's plans.
    pub plan: Option<PlanStats>,
}

/// An attached calibration: the ranges, the options and the content hash
/// that keys its int8 plans in the shared cache.
type Quant = (Arc<Calibration>, QuantOptions, u64);

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
    /// Stats of the largest-arena quantized plan of the attached
    /// calibration (arena/weight bytes reflect quantized storage).
    peak_quant: Option<PlanStats>,
    /// Parameter snapshots shared across the per-shape plans.
    weight_cache: HashMap<usize, Arc<Tensor>>,
    /// The attached calibration; `None` means uncalibrated, and then
    /// [`Engine::Quant`] cannot be selected.
    quant: Option<Quant>,
}

impl<M: CongestionModel> ModelPredictor<M> {
    /// Wraps a trained `(graph, model)` pair (e.g. from
    /// [`crate::Trainer::into_parts`]) on the [`Engine::Plan`] engine;
    /// plans land in a private cache sized by `MFAPLACE_PLAN_CACHE_MB`.
    /// Use [`ModelPredictor::with_plan_cache`] to share plans across
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
        // bookkeeping and keep no backward-only storage (pool argmaxes) on
        // the tape.
        graph.set_grad_enabled(false);
        ModelPredictor {
            graph,
            model,
            name,
            engine: Engine::Plan,
            plan_cache,
            plan_source,
            arena: Vec::new(),
            peak_stats: None,
            peak_quant: None,
            weight_cache: HashMap::new(),
            quant: None,
        }
    }

    /// Does nothing: plans replay serially, in capture order. Kept, with
    /// [`ModelPredictor::plan_workers`], only because the benchmark's
    /// `map_hires` and `place_suite` workloads call it; both go together
    /// with the benchmark's `infer.plan_par_forward_ms` (ROADMAP item 1(f)).
    pub fn set_plan_workers(&mut self, _workers: usize) {}

    /// Always `1`: see [`ModelPredictor::set_plan_workers`].
    pub fn plan_workers(&self) -> usize {
        1
    }

    /// Always `None`: a plan that cannot be built is a load error, so no
    /// predictor falls back from one engine to another. Kept, with
    /// [`ModelPredictor::quant_broken`], only because the benchmark's
    /// `map_hires` and `place_suite` workloads call it.
    pub fn plan_broken(&self) -> Option<&str> {
        None
    }

    /// Always `None`: see [`ModelPredictor::plan_broken`].
    pub fn quant_broken(&self) -> Option<&str> {
        None
    }

    /// Borrows the wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The forward engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Switches the forward engine and returns `true`, or refuses
    /// [`Engine::Quant`] on an uncalibrated predictor, leaves the engine
    /// unchanged and returns `false`. Compiled plans are kept either way.
    pub fn set_engine(&mut self, engine: Engine) -> bool {
        if engine == Engine::Quant && self.quant.is_none() {
            return false;
        }
        self.engine = engine;
        true
    }

    /// Attaches `calibration` once it has lowered the f32 plan for a
    /// `shape` forward to int8, so a calibration that does not fit this
    /// model (e.g. collected on another checkpoint or grid) is an error
    /// here, never at a forward. On error the previous calibration, if
    /// any, stays attached.
    pub(crate) fn set_calibration(
        &mut self,
        calibration: Arc<Calibration>,
        options: QuantOptions,
        shape: &[usize],
    ) -> Result<(), String> {
        let hash = fnv1a(&calibration.to_bytes());
        let quant = (calibration, options, hash);
        let plan = self.resolve_plan(shape, Some(&quant))?;
        self.peak_quant = Some(plan.stats().clone());
        self.quant = Some(quant);
        Ok(())
    }

    /// The attached calibration, if any.
    pub fn calibration(&self) -> Option<&Arc<Calibration>> {
        self.quant.as_ref().map(|(c, _, _)| c)
    }

    /// The numeric precision forwards run at: `int8` on the quant engine,
    /// `f32` otherwise.
    pub fn precision(&self) -> PlanPrecision {
        match self.engine {
            Engine::Quant => PlanPrecision::Int8,
            _ => PlanPrecision::F32,
        }
    }

    /// Engine, precision and active plan stats in one consistent snapshot.
    pub fn status(&self) -> PredictorStatus {
        PredictorStatus {
            engine: self.engine,
            precision: self.precision(),
            plan: self.active_plan_stats(),
        }
    }

    /// Runs the offline calibration pass: compiles (or fetches) the f32
    /// plan for a single-sample `[1, C, H, W]` forward, replays it
    /// serially over every representative input (each a `[C, H, W]`
    /// feature stack), records per-step activation abs-max ranges, builds
    /// the int8 plan from them and attaches the result. Deterministic: the
    /// same inputs in the same order produce a bitwise-identical
    /// calibration.
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
        let plan = self.resolve_plan(&plan_shape, None)?;
        let calib = Calibration::collect(&plan, inputs.iter().map(|t| t.data()))?;
        let calib = Arc::new(calib);
        self.set_calibration(calib.clone(), options, &plan_shape)?;
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

    /// Quantization counters of the largest-arena quantized plan of the
    /// attached calibration, if calibrated.
    pub fn quant_plan_stats(&self) -> Option<QuantStats> {
        self.peak_quant.as_ref()?.quant.clone()
    }

    /// Plan stats as the engine experiences them: the quantized plan's
    /// counters (int8 arena and weight bytes) on the quant engine, the f32
    /// plan's otherwise — what the serve layer renders as
    /// `mfaplace_infer_plan_*` gauges.
    pub fn active_plan_stats(&self) -> Option<PlanStats> {
        match self.engine {
            Engine::Quant => self.peak_quant.clone(),
            _ => self.peak_stats.clone(),
        }
    }

    /// The calibration the engine's plans are lowered with: the attached
    /// one on the quant engine, none otherwise.
    fn engine_quant(&self) -> Option<Quant> {
        match self.engine {
            Engine::Quant => self.quant.clone(),
            _ => None,
        }
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
    /// `[n, c, h, w]` forward would run — the quantized one on the quant
    /// engine, the f32 one otherwise — without running it, returning its
    /// stats (the loader's and `model-info`'s hook). `n` is bucketed
    /// exactly as a predict would.
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
        let plan = self.resolve_plan(&shape, self.engine_quant().as_ref())?;
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
        let plan = self.resolve_plan(&shape, self.engine_quant().as_ref())?;
        Ok(profile_plan(&plan, &mut self.arena, input.data()))
    }

    /// Fetches the plan for `shape` from the shared cache — the f32 plan,
    /// or with `quant` its int8 lowering — compiling and inserting it on a
    /// miss: f32 plans are captured from one tape recording, int8 plans
    /// are lowered from the f32 plan with the calibration. Errors when the
    /// capture fails or when the calibration does not match the captured
    /// plan (stale — e.g. a different checkpoint or grid; the error says
    /// to recalibrate). Compilation runs outside the cache lock, so two
    /// predictors racing on one cold key may both compile; the loser
    /// replaces the winner's identical entry.
    fn resolve_plan(
        &mut self,
        shape: &[usize],
        quant: Option<&Quant>,
    ) -> Result<Arc<Plan>, String> {
        let key = match quant {
            None => PlanKey::f32(self.plan_source, shape.to_vec()),
            Some(&(_, _, hash)) => PlanKey::int8(self.plan_source, shape.to_vec(), hash),
        };
        let plan = match self.plan_cache.get(&key) {
            Some(plan) => plan,
            None => {
                let plan = Arc::new(match quant {
                    None => self.capture_plan(shape)?,
                    Some((calib, opts, _)) => {
                        self.resolve_plan(shape, None)?.quantize(calib, *opts)?
                    }
                });
                self.plan_cache.insert(key, plan.clone());
                plan
            }
        };
        let peak = match quant {
            None => &mut self.peak_stats,
            Some(_) => &mut self.peak_quant,
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
        let captured = Plan::capture_cached(&self.graph, mark, xv, yv, &mut self.weight_cache);
        self.graph.truncate(mark);
        captured
    }

    /// Logits from the engine's compiled plan. Pads the batch up to its
    /// bucket size, runs the bucketed plan, and slices the padding back
    /// off. Panics when the plan cannot be built (see
    /// [`ModelPredictor::predict_batch_tensors`]).
    fn compiled_logits(&mut self, batch: &Tensor) -> Tensor {
        let n = batch.shape()[0];
        let bucket = Self::bucketed_batch(n);
        let mut plan_shape = batch.shape().to_vec();
        plan_shape[0] = bucket;
        let quant = self.engine_quant();
        let plan = self
            .resolve_plan(&plan_shape, quant.as_ref())
            .unwrap_or_else(|e| panic!("{} plan build failed: {e}", self.engine.name()));
        let mut padded = Vec::new();
        let input = if bucket == n {
            batch.data()
        } else {
            padded.resize(bucket * (batch.data().len() / n), 0.0f32);
            padded[..batch.data().len()].copy_from_slice(batch.data());
            &padded[..]
        };
        let full = {
            let _t = ScopeTimer::new(match quant {
                Some(_) => "core/forward_quant",
                None => "core/forward_plan",
            });
            run_plan(&plan, &mut self.arena, input)
        };
        let mut out_shape = plan.output_shape().to_vec();
        out_shape[0] = n;
        let per_out = full.len() / bucket;
        Tensor::from_vec(out_shape, full[..n * per_out].to_vec())
            .expect("compiled plan output tensor")
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
    /// Panics if `inputs` is empty or the stacks disagree in shape, and
    /// with the build error if the engine's plan for this batch shape
    /// cannot be built. The loader builds the single-sample plan before it
    /// returns a predictor, and capture depends on the op set, not the
    /// batch size, so this is a defect, not an input error.
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
        let logits = match self.engine {
            Engine::Tape => self.tape_logits(&batch),
            Engine::Plan | Engine::Quant => self.compiled_logits(&batch),
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
    fn quant_engine_is_refused_without_a_calibration() {
        let mut p = small_predictor(8);
        assert!(!p.set_engine(Engine::Quant), "nothing to quantize with");
        assert_eq!(p.status().engine, Engine::Plan, "engine unchanged");
        assert_eq!(p.precision(), PlanPrecision::F32);
        assert!(p.set_engine(Engine::Tape) && p.set_engine(Engine::Plan));
        assert!(p.quant_plan_stats().is_none(), "nothing quantized");
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
        assert!(predictor.set_engine(Engine::Quant));
        assert_eq!(predictor.precision().name(), "int8");

        let outs = predictor.predict_batch_tensors(&inputs);
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
    }

    /// A calibration that does not fit this model's plan (collected on a
    /// much shallower network) is refused when it is attached, and the
    /// calibration already attached keeps serving.
    #[test]
    fn a_stale_calibration_is_refused_and_the_old_one_kept() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let x = FeatureStack::extract(&d, &d.random_placement(5), 32, 32).to_tensor();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(10);
        let unet = mfaplace_models::UNetModel::new(&mut g, 2, &mut rng);
        let mut other = ModelPredictor::new(g, unet);
        let stale = other
            .calibrate(std::slice::from_ref(&x), QuantOptions::default())
            .unwrap();

        let mut p = small_predictor(10);
        let fitting = p
            .calibrate(std::slice::from_ref(&x), QuantOptions::default())
            .unwrap();
        assert!(p.set_engine(Engine::Quant));
        let before = p.predict_batch_tensors(std::slice::from_ref(&x));
        let err = p
            .set_calibration(stale, QuantOptions::default(), &[1, 6, 32, 32])
            .unwrap_err();
        assert!(err.contains("recalibrate"), "{err}");
        assert_eq!(p.calibration(), Some(&fitting));
        let status = p.status();
        assert_eq!(
            (status.engine, status.precision),
            (Engine::Quant, PlanPrecision::Int8)
        );
        assert!(status.plan.and_then(|s| s.quant).is_some(), "int8 stats");
        let after = p.predict_batch_tensors(std::slice::from_ref(&x));
        assert_eq!(before[0].data(), after[0].data());
    }

    #[test]
    fn plan_workers_is_a_no_op() {
        let d = DesignPreset::design_116()
            .with_scale(512, 64, 32)
            .generate(1);
        let p = d.random_placement(4);
        let mut serial = small_predictor(11);
        let mut asked = small_predictor(11); // same seed => same weights
        asked.set_plan_workers(4);
        assert_eq!(asked.plan_workers(), 1);
        let bits = |m: GridMap| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(serial.predict(&d, &p, 32, 32)),
            bits(asked.predict(&d, &p, 32, 32)),
            "a worker count must not change the prediction"
        );
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
