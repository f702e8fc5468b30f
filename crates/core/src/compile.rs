//! The offline "compile for serving" step: checkpoint + calibration →
//! one self-contained quantized serving artifact.
//!
//! An artifact (`MFAQART1`) bundles everything a server needs to run a
//! model quantized without re-calibrating at load time:
//!
//! - the full checkpoint bytes (self-describing v2/v3 `.mfaw`),
//! - the offline [`Calibration`] (per-step activation ranges),
//! - a precision code (int8, the only one supported),
//! - an FNV-1a checksum over the whole payload.
//!
//! [`crate::loader::load_predictor_with_cache`] detects the magic and
//! rebuilds the predictor with the int8 plan built and the quant engine
//! selected, so `serve` and `predict` round-trip the artifact with zero
//! extra flags.

use mfaplace_fpga::features::NUM_FEATURES;
use mfaplace_infer::{Calibration, PlanStats, QuantOptions};
use mfaplace_models::ArchSpec;
use mfaplace_tensor::Tensor;

use crate::loader::{load_predictor, LoadOptions};
use crate::predictor::Engine;

/// Magic prefix of a quantized serving artifact.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"MFAQART1";

const ARTIFACT_VERSION: u32 = 1;
/// Precision codes of the header field. Only int8 artifacts are written
/// or served; f16 ones (written before the f16 arena was removed) are
/// recognized so the rejection can say what they are.
const PRECISION_INT8: u32 = 1;
const PRECISION_F16: u32 = 2;
/// Fixed-size header: magic + version + precision + a reserved word +
/// calib len + checkpoint len. The reserved word once flagged BN folding;
/// it is written as 0 and ignored on read, so artifacts written with it
/// set still load (their embedded weights are unfolded either way).
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4 + 8;

/// A parsed serving artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Per-step activation ranges.
    pub calibration: Calibration,
    /// The embedded checkpoint file, byte for byte.
    pub checkpoint: Vec<u8>,
}

/// What [`compile_for_serving`] produced, for reporting.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// Architecture of the compiled checkpoint.
    pub spec: ArchSpec,
    /// Stats of the quantized batch-1 plan (arena/weight bytes reflect
    /// quantized storage; `quant` holds the quantization counters).
    pub stats: PlanStats,
    /// Calibration inputs consumed.
    pub calib_inputs: usize,
    /// Total artifact size on disk.
    pub artifact_bytes: usize,
}

/// FNV-1a 64 over `bytes`: the artifact checksum and the plan cache's
/// content identity.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether the file at `path` starts with the artifact magic.
pub fn is_artifact(path: &str) -> bool {
    let mut head = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut head))
        .map(|()| &head == ARTIFACT_MAGIC)
        .unwrap_or(false)
}

/// Serializes an artifact (deterministic for identical inputs).
pub fn artifact_to_bytes(calibration: &Calibration, checkpoint: &[u8]) -> Vec<u8> {
    let calib = calibration.to_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + calib.len() + checkpoint.len() + 8);
    out.extend_from_slice(ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&PRECISION_INT8.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(calib.len() as u32).to_le_bytes());
    out.extend_from_slice(&(checkpoint.len() as u64).to_le_bytes());
    out.extend_from_slice(&calib);
    out.extend_from_slice(checkpoint);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Parses [`artifact_to_bytes`] output, validating the checksum.
pub fn artifact_from_bytes(b: &[u8]) -> Result<Artifact, String> {
    if b.len() < HEADER_LEN + 8 || &b[..8] != ARTIFACT_MAGIC {
        return Err("not a serving artifact (bad magic)".into());
    }
    let body = &b[..b.len() - 8];
    let stored = u64::from_le_bytes(b[b.len() - 8..].try_into().unwrap());
    if fnv1a(body) != stored {
        return Err("serving artifact checksum mismatch (corrupt file)".into());
    }
    let version = u32::from_le_bytes(b[8..12].try_into().unwrap());
    if version != ARTIFACT_VERSION {
        return Err(format!("unsupported artifact version {version}"));
    }
    match u32::from_le_bytes(b[12..16].try_into().unwrap()) {
        PRECISION_INT8 => {}
        PRECISION_F16 => {
            return Err("unsupported artifact precision f16 (recompile for int8)".into());
        }
        code => return Err(format!("unknown artifact precision code {code}")),
    }
    let calib_len = u32::from_le_bytes(b[20..24].try_into().unwrap()) as usize;
    let ckpt_len = u64::from_le_bytes(b[24..32].try_into().unwrap()) as usize;
    if body.len() != HEADER_LEN + calib_len + ckpt_len {
        return Err(format!(
            "artifact section lengths disagree with file size ({} bytes)",
            b.len()
        ));
    }
    let calibration = Calibration::from_bytes(&body[HEADER_LEN..HEADER_LEN + calib_len])?;
    Ok(Artifact {
        calibration,
        checkpoint: body[HEADER_LEN + calib_len..].to_vec(),
    })
}

/// Reads and validates an artifact file.
///
/// # Errors
///
/// Returns a human-readable error naming the file on I/O failure, bad
/// magic, corruption, or an unsupported version.
pub fn read_artifact(path: &str) -> Result<Artifact, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    artifact_from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// The offline compile step: loads the checkpoint, calibrates over the
/// representative `[C, H, W]` feature stacks, validates that a quantized
/// batch-1 plan actually builds, and writes the artifact to `out_path`.
///
/// # Errors
///
/// Returns a human-readable error if the checkpoint cannot be loaded,
/// calibration fails (e.g. no inputs), the quantized plan cannot be
/// built, or the artifact cannot be written.
pub fn compile_for_serving(
    checkpoint_path: &str,
    load: LoadOptions,
    calib_inputs: &[Tensor],
    out_path: &str,
) -> Result<CompileReport, String> {
    let (spec, mut predictor) = load_predictor(checkpoint_path, load)?;
    // Calibrating builds the int8 plan, which proves the calibration
    // quantizes this model before it is shipped.
    let calibration = predictor.calibrate(calib_inputs, QuantOptions::default())?;
    predictor.set_engine(Engine::Quant);
    let stats = predictor.compile_plan(1, NUM_FEATURES, spec.grid, spec.grid)?;
    let checkpoint =
        std::fs::read(checkpoint_path).map_err(|e| format!("{checkpoint_path}: {e}"))?;
    let bytes = artifact_to_bytes(&calibration, &checkpoint);
    std::fs::write(out_path, &bytes).map_err(|e| format!("{out_path}: {e}"))?;
    Ok(CompileReport {
        spec,
        stats,
        calib_inputs: calib_inputs.len(),
        artifact_bytes: bytes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_bitwise() {
        let calibration = test_calibration();
        let ckpt = vec![1u8, 2, 3, 4, 5];
        let bytes = artifact_to_bytes(&calibration, &ckpt);
        let art = artifact_from_bytes(&bytes).unwrap();
        assert_eq!(art.checkpoint, ckpt);
        assert_eq!(art.calibration.to_bytes(), calibration.to_bytes());
        // Determinism: identical inputs, identical bytes.
        assert_eq!(bytes, artifact_to_bytes(&calibration, &ckpt));
        // An artifact written with the reserved (former BN-folding) word
        // set still loads.
        let mut folded = bytes.clone();
        let body = folded.len() - 8;
        folded[16..20].copy_from_slice(&1u32.to_le_bytes());
        let sum = fnv1a(&folded[..body]);
        folded[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(artifact_from_bytes(&folded).unwrap().checkpoint, ckpt);
    }

    #[test]
    fn corrupt_artifact_is_rejected() {
        let bytes = artifact_to_bytes(&test_calibration(), &[9u8; 32]);
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = artifact_from_bytes(&flipped).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let err = artifact_from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(!err.is_empty());
        assert!(artifact_from_bytes(b"not an artifact at all!!").is_err());
    }

    /// An artifact written before the f16 arena was removed (precision
    /// code 2, valid checksum) must be rejected by name, not mis-served.
    #[test]
    fn f16_artifact_is_rejected_as_unsupported() {
        let with_precision = |code: u32| {
            let mut bytes = artifact_to_bytes(&test_calibration(), &[9u8; 32]);
            let body = bytes.len() - 8;
            bytes[12..16].copy_from_slice(&code.to_le_bytes());
            let sum = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        assert!(artifact_from_bytes(&with_precision(PRECISION_INT8)).is_ok());
        let err = artifact_from_bytes(&with_precision(PRECISION_F16)).unwrap_err();
        assert!(err.contains("unsupported") && err.contains("f16"), "{err}");
        let err = artifact_from_bytes(&with_precision(7)).unwrap_err();
        assert!(err.contains("unknown artifact precision code 7"), "{err}");
    }

    /// An artifact compiled when plans still ran in level-major step order
    /// carries a `MFACAL01` calibration whose ranges would land on the wrong
    /// steps; loading it must fail and say to recompile.
    #[test]
    fn level_order_calibration_is_rejected() {
        let mut bytes = artifact_to_bytes(&test_calibration(), &[9u8; 32]);
        let body = bytes.len() - 8;
        bytes[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(b"MFACAL01");
        let sum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        let err = match artifact_from_bytes(&bytes) {
            Ok(_) => panic!("a MFACAL01 calibration was accepted"),
            Err(e) => e,
        };
        assert!(
            err.contains("MFACAL01") && err.contains("recompile"),
            "{err}"
        );
    }

    fn test_calibration() -> Calibration {
        // Build via the serializer's inverse to avoid constructing the
        // (crate-private) fields directly: 8-byte magic, count, input
        // range, 2 ranges, 2 kind tags.
        let mut b = Vec::new();
        b.extend_from_slice(b"MFACAL02");
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(&1.5f32.to_le_bytes());
        b.extend_from_slice(&0.5f32.to_le_bytes());
        b.extend_from_slice(&2.0f32.to_le_bytes());
        b.extend_from_slice(&[0u8, 8u8]);
        Calibration::from_bytes(&b).unwrap()
    }
}
