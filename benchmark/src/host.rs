//! Host and configuration facts recorded with every result, the scrub of
//! `MFAPLACE_*` variables, and where run artifacts go.

use std::path::PathBuf;

use crate::json::Json;

/// Removes every `MFAPLACE_*` variable from this process's environment and
/// returns their names, so the numbers are the shipped defaults.
///
/// Must run first in `main`, before any thread exists and before any crate
/// reads (and possibly latches) a knob.
pub fn scrub_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MFAPLACE_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Directory for trace files, checkpoints and result copies: inside the
/// cargo target directory, which is inside the checkout and git-ignored.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    mfaplace_rt::bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// The commit of the checkout, when it is a git repository (the driver's
/// checkout is not).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
        None => head,
    }
}

/// The host block: everything a reader needs to judge whether two results
/// are comparable.
pub fn host_block(seed: u64, scrubbed: &[String]) -> Vec<(String, Json)> {
    vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        (
            "pool_max_threads".into(),
            Json::Num(mfaplace_rt::pool::max_threads() as f64),
        ),
        (
            "kernel_backend".into(),
            Json::str(mfaplace_tensor::simd::active().name()),
        ),
        ("git_commit".into(), Json::str(git_commit())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "scrubbed_env".into(),
            Json::Arr(scrubbed.iter().map(Json::str).collect()),
        ),
    ]
}
