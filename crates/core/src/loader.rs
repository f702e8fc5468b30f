//! Loading trained models from `.mfaw` checkpoints into ready-to-serve
//! predictors.
//!
//! A version-2 checkpoint is self-describing (model name + config ints in
//! its metadata section), so [`load_predictor`] can rebuild the exact
//! architecture from the file alone. Version-1 files carry no metadata;
//! for those the caller must supply the architecture (and grid) out of
//! band — in the CLI that is the `--arch`/`--grid` flags.

use std::sync::Arc;

use mfaplace_autograd::Graph;
use mfaplace_fpga::features::NUM_FEATURES;
use mfaplace_infer::{PlanCache, PlanSource, QuantOptions};
use mfaplace_models::{AnyModel, Arch, ArchSpec, CongestionModel};
use mfaplace_nn::checkpoint::{self, Checkpoint, CheckpointMeta};
use mfaplace_rt::rng::{SeedableRng, StdRng};

use crate::compile;
use crate::predictor::{Engine, ModelPredictor};

/// How to interpret a checkpoint that lacks (or should override) metadata.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Architecture to assume for v1 files (ignored when the file has
    /// metadata).
    pub arch: Option<Arch>,
    /// Grid side to assume for v1 files (ignored when the file has
    /// metadata).
    pub grid: Option<usize>,
    /// Base channel count to assume for v1 files (ignored when the file
    /// has metadata).
    pub base_channels: Option<usize>,
}

/// Loads a checkpoint and rebuilds its model, returning the architecture
/// spec actually used plus a ready [`ModelPredictor`].
///
/// # Errors
///
/// Returns a human-readable error when the file is malformed, the
/// architecture cannot be determined (v1 file without `opts.arch`), or the
/// stored tensors do not match the rebuilt model's parameters.
pub fn load_predictor(
    path: &str,
    opts: LoadOptions,
) -> Result<(ArchSpec, ModelPredictor<AnyModel>), String> {
    load_predictor_with_cache(path, opts, &Arc::new(PlanCache::from_env()))
}

/// FNV-1a 64 hash of the file's bytes — the checkpoint's *content*
/// identity. Two paths holding byte-identical checkpoints hash equal, so
/// predictors loaded from either share compiled plans in a common cache.
///
/// # Errors
///
/// Returns a human-readable error naming the file if it cannot be read.
pub fn content_hash(path: &str) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(compile::fnv1a(&bytes))
}

/// Like [`load_predictor`], but the predictor compiles its inference plans
/// into (and out of) `plan_cache`, keyed by the checkpoint file's content
/// hash — so any number of predictors loaded from byte-identical files
/// share one compiled plan set instead of duplicating it.
///
/// Before it returns, the f32 plan for a single-sample
/// `[1, NUM_FEATURES, grid, grid]` forward is compiled, so a model that
/// does not capture is a load error, not a failing forward.
///
/// Also accepts a quantized serving artifact (`MFAQART1`, written by
/// [`crate::compile::compile_for_serving`]): the embedded checkpoint is
/// rebuilt, the int8 plan built from the embedded calibration, and the
/// quant engine selected. Byte-identical artifact files share plans the
/// same way checkpoints do.
///
/// # Errors
///
/// Same failure modes as [`load_predictor`], plus artifact corruption, a
/// plan that cannot be captured, and an embedded calibration that does
/// not fit the embedded checkpoint (the error says to recalibrate).
pub fn load_predictor_with_cache(
    path: &str,
    opts: LoadOptions,
    plan_cache: &Arc<PlanCache>,
) -> Result<(ArchSpec, ModelPredictor<AnyModel>), String> {
    // One read: the bytes that are parsed are the bytes that are hashed, so
    // a checkpoint atomically replaced mid-load can never key its weights
    // under the previous file's identity in the shared plan cache.
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let source = PlanSource::Content(compile::fnv1a(&bytes));
    let parse = |b: &[u8]| checkpoint::read_checkpoint_bytes(b).map_err(|e| format!("{path}: {e}"));
    let (ckpt, calibration) = if bytes.starts_with(compile::ARTIFACT_MAGIC) {
        let art = compile::artifact_from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        (parse(&art.checkpoint)?, Some(art.calibration))
    } else {
        (parse(&bytes)?, None)
    };
    // The file's bytes are not needed past parsing; free them before the
    // plan capture sets the load's peak memory.
    drop(bytes);
    let (spec, mut predictor) = predictor_from_checkpoint(ckpt, path, opts, plan_cache, source)?;
    let shape = [1, NUM_FEATURES, spec.grid, spec.grid];
    predictor
        .compile_plan(1, NUM_FEATURES, spec.grid, spec.grid)
        .map_err(|e| format!("{path}: {e}"))?;
    if let Some(calibration) = calibration {
        predictor
            .set_calibration(Arc::new(calibration), QuantOptions::default(), &shape)
            .map_err(|e| format!("{path}: {e}"))?;
        predictor.set_engine(Engine::Quant);
    }
    Ok((spec, predictor))
}

/// Rebuilds the model a parsed checkpoint describes and wraps it in a
/// cache-sharing predictor (`path` only labels error messages).
fn predictor_from_checkpoint(
    ckpt: Checkpoint,
    path: &str,
    opts: LoadOptions,
    plan_cache: &Arc<PlanCache>,
    source: PlanSource,
) -> Result<(ArchSpec, ModelPredictor<AnyModel>), String> {
    let spec = match &ckpt.meta {
        Some(meta) => ArchSpec::from_meta(meta).map_err(|e| format!("{path}: {e}"))?,
        None => {
            let arch = opts.arch.ok_or_else(|| {
                format!("{path}: v1 checkpoint has no metadata; pass --arch (and --grid)")
            })?;
            let mut spec = ArchSpec::new(arch, opts.grid.unwrap_or(32));
            if let Some(c) = opts.base_channels {
                spec.base_channels = c;
            }
            spec
        }
    };
    // Seed is irrelevant: every parameter is overwritten by the file.
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = spec
        .build(&mut g, &mut rng)
        .map_err(|e| format!("{path}: {e}"))?;
    checkpoint::assign_params(&mut g, &model.params(), ckpt.tensors)
        .map_err(|e| format!("{path}: {e} (wrong --arch/--grid/--channels for this file?)"))?;
    // v3 checkpoints carry batch-norm running statistics (they are state,
    // not parameters); restore them so inference matches the trainer's
    // in-memory model exactly. v1/v2 files fall back to init stats.
    if let Some(train) = &ckpt.train {
        let mut bns = model.batch_norms();
        if bns.len() == train.bn_stats.len() {
            for (bn, (m, v)) in bns.iter_mut().zip(&train.bn_stats) {
                bn.set_running_stats(m, v);
            }
        }
    }
    Ok((
        spec,
        ModelPredictor::with_plan_cache(g, model, plan_cache.clone(), source),
    ))
}

/// Saves `model`'s parameters as a self-describing v2 checkpoint with
/// `spec`'s metadata.
///
/// # Errors
///
/// Returns a human-readable error on I/O failure.
pub fn save_predictor(
    g: &Graph,
    model: &impl CongestionModel,
    spec: &ArchSpec,
    path: &str,
) -> Result<(), String> {
    checkpoint::save_checkpoint(g, &model.params(), &spec.to_meta(), path)
        .map_err(|e| format!("{path}: {e}"))
}

/// Builds a freshly initialized model and saves it as a v2 checkpoint —
/// handy for spinning up a server or demo without a training run.
///
/// # Errors
///
/// Returns a human-readable error if the spec is unbuildable or the file
/// cannot be written.
pub fn init_checkpoint(spec: &ArchSpec, seed: u64, path: &str) -> Result<(), String> {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = spec.build(&mut g, &mut rng)?;
    save_predictor(&g, &model, spec, path)
}

/// Reads just the metadata of a checkpoint file (for display/validation).
///
/// # Errors
///
/// Returns a human-readable error if the header is malformed.
pub fn peek_meta(path: &str) -> Result<Option<CheckpointMeta>, String> {
    checkpoint::read_meta(path).map_err(|e| format!("{path}: {e}"))
}

/// Reads the mid-run training state of a v3 checkpoint, if present:
/// `(optimizer steps, epoch, completed-epoch losses)`. `None` for v1/v2
/// files (weights only).
///
/// # Errors
///
/// Returns an error naming the file if it cannot be read or parsed.
pub fn peek_train_state(path: &str) -> Result<Option<(u64, u64, Vec<f32>)>, String> {
    let ckpt = checkpoint::read_checkpoint(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(ckpt.train.map(|t| (t.steps, t.epoch, t.epoch_losses)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("mfaplace_loader_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn small_spec(arch: Arch) -> ArchSpec {
        let mut spec = ArchSpec::new(arch, 32);
        spec.base_channels = 4;
        spec.vit_layers = 1;
        spec.vit_heads = 2;
        spec
    }

    #[test]
    fn init_then_load_round_trips_spec_and_weights() {
        let path = temp_path("init_ours.mfaw");
        let spec = small_spec(Arch::Ours);
        init_checkpoint(&spec, 11, &path).unwrap();

        let (loaded_spec, mut predictor) = load_predictor(&path, LoadOptions::default()).unwrap();
        assert_eq!(loaded_spec, spec);
        assert_eq!(predictor.model().name(), "Ours");
        // The plan-cache identity is the hash of the bytes that were parsed.
        assert_eq!(
            predictor.plan_source(),
            PlanSource::Content(content_hash(&path).unwrap())
        );

        // Weights must equal a fresh build with the same seed.
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(11);
        let reference = spec.build(&mut g, &mut rng).unwrap();
        let loaded_params = predictor.model().params();
        // Compare through a tiny forward instead of raw vars: both models
        // predict identically on the same input.
        assert_eq!(loaded_params.len(), reference.params().len());
        let x = mfaplace_tensor::Tensor::full(vec![6, 32, 32], 0.25);
        let out_loaded = predictor
            .predict_batch_tensors(std::slice::from_ref(&x))
            .pop()
            .unwrap();
        let mut reference_pred = ModelPredictor::new(g, reference);
        let out_ref = reference_pred
            .predict_batch_tensors(std::slice::from_ref(&x))
            .pop()
            .unwrap();
        assert_eq!(out_loaded.data(), out_ref.data());
        std::fs::remove_file(path).ok();
    }

    /// A `.mfaq` whose calibration was collected on another architecture
    /// cannot build its int8 plan, so loading it fails and says why.
    #[test]
    fn artifact_with_a_stale_calibration_is_a_load_error() {
        let donor = temp_path("stale_donor.mfaw");
        init_checkpoint(&small_spec(Arch::UNet), 1, &donor).unwrap();
        let (_, mut donor) = load_predictor(&donor, LoadOptions::default()).unwrap();
        let x = mfaplace_tensor::Tensor::full(vec![6, 32, 32], 0.25);
        let stale = donor
            .calibrate(std::slice::from_ref(&x), QuantOptions::default())
            .unwrap();

        let ckpt = temp_path("stale_ours.mfaw");
        init_checkpoint(&small_spec(Arch::Ours), 2, &ckpt).unwrap();
        let path = temp_path("stale_ours.mfaq");
        let bytes = compile::artifact_to_bytes(&stale, &std::fs::read(&ckpt).unwrap());
        std::fs::write(&path, bytes).unwrap();
        let err = load_predictor(&path, LoadOptions::default()).err().unwrap();
        assert!(
            err.starts_with(&path) && err.contains("recalibrate"),
            "{err}"
        );
    }

    #[test]
    fn v1_file_needs_arch_override() {
        let path = temp_path("v1_unet.mfaw");
        let spec = small_spec(Arch::UNet);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut g, &mut rng).unwrap();
        mfaplace_nn::checkpoint::save_params(&g, &model.params(), &path).unwrap();

        let err = load_predictor(&path, LoadOptions::default()).err().unwrap();
        assert!(err.contains("--arch"), "{err}");

        let (loaded_spec, _) = load_predictor(
            &path,
            LoadOptions {
                arch: Some(Arch::UNet),
                grid: Some(32),
                base_channels: Some(4),
            },
        )
        .unwrap();
        assert_eq!(loaded_spec.arch, Arch::UNet);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_arch_reports_mismatch() {
        let path = temp_path("mismatch_arch.mfaw");
        let spec = small_spec(Arch::UNet);
        init_checkpoint(&spec, 0, &path).unwrap();
        // Force a different arch for a file whose meta says UNet: meta wins,
        // so strip it by writing v1.
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut g, &mut rng).unwrap();
        mfaplace_nn::checkpoint::save_params(&g, &model.params(), &path).unwrap();
        let err = load_predictor(
            &path,
            LoadOptions {
                arch: Some(Arch::Pros2),
                grid: Some(32),
                base_channels: Some(4),
            },
        )
        .err()
        .unwrap();
        assert!(err.contains("mismatch"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
