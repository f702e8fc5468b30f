//! Regression test for the `MFAPLACE_THREADS` environment override.
//!
//! Kept in its own integration-test binary (hence its own process) because
//! it mutates process-global environment state; the single `#[test]` keeps
//! the mutation free of intra-process races.

use mfaplace_rt::pool;

#[test]
fn env_var_controls_worker_count() {
    // Baseline: whatever the host reports, at least one worker.
    std::env::remove_var("MFAPLACE_THREADS");
    assert!(pool::max_threads() >= 1);

    // MFAPLACE_THREADS=1 forces the serial path: every dispatch runs on
    // the calling thread.
    std::env::set_var("MFAPLACE_THREADS", "1");
    assert_eq!(pool::max_threads(), 1);
    let caller = std::thread::current().id();
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

    // A larger setting raises the cap; garbage and zero are ignored.
    std::env::set_var("MFAPLACE_THREADS", "6");
    assert_eq!(pool::max_threads(), 6);
    std::env::set_var("MFAPLACE_THREADS", "0");
    assert_ne!(pool::max_threads(), 0);
    std::env::set_var("MFAPLACE_THREADS", "not-a-number");
    assert!(pool::max_threads() >= 1);

    // The scope override wins over the environment.
    std::env::set_var("MFAPLACE_THREADS", "6");
    pool::with_threads(2, || assert_eq!(pool::max_threads(), 2));
    assert_eq!(pool::max_threads(), 6);

    std::env::remove_var("MFAPLACE_THREADS");
}
