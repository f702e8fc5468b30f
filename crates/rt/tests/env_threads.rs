//! Regression test for the `MFAPLACE_THREADS` environment override.
//!
//! The pool reads the variable once per process, at the first parallel
//! decision, so every value is checked in a fresh process: the driver test
//! re-runs this binary's `child` test with the value set and the case to
//! check named in `ENV_THREADS_CASE`. Run as part of the suite, `child`
//! checks nothing.

use std::process::Command;

use mfaplace_rt::pool;

const CASE: &str = "ENV_THREADS_CASE";

fn host() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One case, checked in this process when `ENV_THREADS_CASE` names it.
#[test]
fn child() {
    let Ok(case) = std::env::var(CASE) else {
        return;
    };
    match case.as_str() {
        // Every dispatch runs on the calling thread and spawns nothing.
        "serial" => {
            assert_eq!(pool::max_threads(), 1);
            let (caller, spawns) = (std::thread::current().id(), pool::spawns());
            let mut data = vec![0u32; 64];
            pool::parallel_chunks_mut(&mut data, 8, |i, chunk| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "serial path must not spawn"
                );
                chunk.fill(i as u32);
            });
            assert!(data
                .chunks(8)
                .enumerate()
                .all(|(i, c)| c.iter().all(|&v| v == i as u32)));
            assert_eq!(pool::spawns(), spawns);
        }
        "six" => assert_eq!(pool::max_threads(), 6),
        // Asked three times, so a warning would repeat if it were not once.
        "host" => {
            for _ in 0..3 {
                assert_eq!(pool::max_threads(), host());
            }
        }
        // The scope override wins over the environment.
        "override" => {
            pool::with_threads(2, || assert_eq!(pool::max_threads(), 2));
            assert_eq!(pool::max_threads(), 6);
        }
        // A change to the variable after the first read is not seen.
        "read_once" => {
            assert_eq!(pool::max_threads(), 6);
            std::env::set_var("MFAPLACE_THREADS", "1");
            assert_eq!(pool::max_threads(), 6);
        }
        other => panic!("unknown {CASE}={other}"),
    }
}

/// Runs `child` in a fresh process for `case` with `MFAPLACE_THREADS` set
/// to `value` (removed for `None`); returns the stderr lines that name the
/// variable.
fn run_child(case: &str, value: Option<&str>) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", "child", "--nocapture", "--test-threads=1"])
        .env(CASE, case);
    match value {
        Some(v) => cmd.env("MFAPLACE_THREADS", v),
        None => cmd.env_remove("MFAPLACE_THREADS"),
    };
    let out = cmd.output().expect("re-run the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{case} with MFAPLACE_THREADS={value:?} failed:\n{}{stderr}",
        String::from_utf8_lossy(&out.stdout)
    );
    stderr
        .lines()
        .filter(|l| l.contains("MFAPLACE_THREADS"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn env_var_controls_worker_count() {
    assert_eq!(run_child("serial", Some("1")), Vec::<String>::new());
    assert_eq!(run_child("six", Some("6")), Vec::<String>::new());
    assert_eq!(run_child("six", Some(" 6 ")), Vec::<String>::new());
    // Unset, empty and zero mean the host's parallelism, silently.
    for value in [None, Some(""), Some("0")] {
        assert_eq!(run_child("host", value), Vec::<String>::new(), "{value:?}");
    }
    // Anything else means it too, with one warning naming the value.
    let warned = run_child("host", Some("not-a-number"));
    assert_eq!(warned.len(), 1, "{warned:?}");
    assert!(
        warned[0].starts_with("warning: MFAPLACE_THREADS=not-a-number "),
        "{warned:?}"
    );
    assert_eq!(run_child("override", Some("6")), Vec::<String>::new());
    assert_eq!(run_child("read_once", Some("6")), Vec::<String>::new());
}
