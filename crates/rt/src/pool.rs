//! Scoped worker pool over `std::thread` with chunked dispatch.
//!
//! Work is dispatched through [`parallel_chunks_mut`] (disjoint `&mut`
//! chunks of an output buffer) or [`parallel_chunks2_mut`] (two buffers in
//! lock step). Both split work into **contiguous blocks assigned in
//! order**, so a kernel that computes each output chunk independently
//! produces results bitwise identical to its serial loop — the
//! per-element reduction order never changes, only which thread executes
//! it. This serial-equivalence guarantee is what lets the tensor kernels
//! parallelize without perturbing training reproducibility.
//!
//! Sizing: the worker count defaults to
//! `std::thread::available_parallelism()`, can be pinned globally with the
//! `MFAPLACE_THREADS` environment variable, and can be overridden
//! per-scope (e.g. in tests) with [`with_threads`]. With one worker every
//! dispatch runs serially on the calling thread — no threads are spawned.

use std::cell::Cell;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Maximum number of worker threads a dispatch may use.
///
/// Resolution order: [`with_threads`] scope override, then the
/// `MFAPLACE_THREADS` environment variable (ignored unless it parses to a
/// positive integer), then `std::thread::available_parallelism()`.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(s) = std::env::var("MFAPLACE_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with [`max_threads`] pinned to `n` on the current thread.
///
/// Used by the equivalence tests to force a specific worker count
/// regardless of host core count or environment, and by callers that want
/// a guaranteed-serial region (`with_threads(1, …)`).
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Number of threads a dispatch over `n_units` units of work will use.
fn plan(n_units: usize) -> usize {
    max_threads().min(n_units).max(1)
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and calls `f(chunk_index, chunk)` for each, distributing
/// chunks over up to [`max_threads`] workers in contiguous blocks.
///
/// Each chunk is visited exactly once with a unique `&mut` borrow, so
/// kernels that write disjoint output chunks need no synchronization and
/// produce bitwise-identical results at any worker count.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len must be > 0");
    if data.is_empty() {
        return;
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    let nt = plan(n_chunks);
    if nt <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Bucket chunks into `nt` contiguous blocks, preserving chunk indices.
    let per = n_chunks.div_ceil(nt);
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = Vec::with_capacity(nt);
    let mut current: Vec<(usize, &mut [T])> = Vec::with_capacity(per);
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        current.push((i, chunk));
        if current.len() == per {
            buckets.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        buckets.push(current);
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut iter = buckets.into_iter();
        let first = iter.next();
        for bucket in iter {
            s.spawn(move || {
                for (i, chunk) in bucket {
                    f(i, chunk);
                }
            });
        }
        if let Some(bucket) = first {
            for (i, chunk) in bucket {
                f(i, chunk);
            }
        }
    });
}

/// `(chunk index, chunk of first buffer, chunk of second buffer)` unit of
/// work handed to [`parallel_chunks2_mut`] workers.
type PairedChunk<'s, T, U> = (usize, &'s mut [T], &'s mut [U]);

/// Lock-step variant of [`parallel_chunks_mut`] for kernels with two
/// output buffers (e.g. max-pool values + argmax indices): chunk `i` of
/// `a` (length `chunk_a`) and chunk `i` of `b` (length `chunk_b`) are
/// passed to `f` together. Both buffers must split into the same number
/// of chunks.
pub fn parallel_chunks2_mut<T, U, F>(a: &mut [T], b: &mut [U], chunk_a: usize, chunk_b: usize, f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(
        chunk_a > 0 && chunk_b > 0,
        "parallel_chunks2_mut: chunk lengths must be > 0"
    );
    let n_chunks = a.len().div_ceil(chunk_a);
    assert_eq!(
        n_chunks,
        b.len().div_ceil(chunk_b),
        "parallel_chunks2_mut: buffers disagree on chunk count"
    );
    if n_chunks == 0 {
        return;
    }
    let nt = plan(n_chunks);
    if nt <= 1 {
        for (i, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
            f(i, ca, cb);
        }
        return;
    }
    let per = n_chunks.div_ceil(nt);
    let mut buckets: Vec<Vec<PairedChunk<T, U>>> = Vec::with_capacity(nt);
    let mut current: Vec<PairedChunk<T, U>> = Vec::with_capacity(per);
    for (i, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
        current.push((i, ca, cb));
        if current.len() == per {
            buckets.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        buckets.push(current);
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut iter = buckets.into_iter();
        let first = iter.next();
        for bucket in iter {
            s.spawn(move || {
                for (i, ca, cb) in bucket {
                    f(i, ca, cb);
                }
            });
        }
        if let Some(bucket) = first {
            for (i, ca, cb) in bucket {
                f(i, ca, cb);
            }
        }
    });
}

/// Handle to a persistent team of worker threads created by
/// [`worker_team`]: dispatch jobs with [`Team::run`] from the body closure.
///
/// Unlike [`parallel_chunks_mut`], which spawns fresh threads per dispatch,
/// a team keeps its workers (and their per-worker state, e.g. a replicated
/// model graph) alive across many dispatches — the shape a training loop
/// needs, where thousands of steps reuse the same worker-local replicas.
pub struct Team<J, R> {
    txs: Vec<std::sync::mpsc::Sender<(usize, J)>>,
    rx: std::sync::mpsc::Receiver<(usize, R)>,
}

impl<J, R> Team<J, R> {
    /// Number of workers in the team.
    pub fn size(&self) -> usize {
        self.txs.len()
    }

    /// Dispatches `jobs` round-robin over the workers and returns the
    /// results **in job order**, regardless of completion order — results
    /// are index-tagged in flight and reordered here, so any reduction the
    /// caller performs over the returned `Vec` is independent of worker
    /// count and scheduling.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread died (panicked) mid-run.
    pub fn run(&self, jobs: Vec<J>) -> Vec<R> {
        let n = jobs.len();
        for (i, job) in jobs.into_iter().enumerate() {
            self.txs[i % self.txs.len()]
                .send((i, job))
                .expect("worker_team: worker thread is gone");
        }
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, r) = self
                .rx
                .recv()
                .expect("worker_team: worker thread died before finishing");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("worker_team: duplicate/missing result index"))
            .collect()
    }
}

/// Runs `body` with a persistent team of `n` worker threads.
///
/// Each worker thread first builds its local state with `state(worker_idx)`
/// (on the worker thread, so the state never crosses threads), then serves
/// jobs via `work(&mut state, job)` until the team is dropped at the end of
/// `body`. Jobs are index-tagged and results reordered by [`Team::run`], so
/// outputs are always in job order.
///
/// With `n == 1` the single worker still runs on its own thread; callers
/// that want a strictly serial path should not use a team at all.
pub fn worker_team<J, R, S, Out>(
    n: usize,
    state: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, J) -> R + Sync,
    body: impl FnOnce(&Team<J, R>) -> Out,
) -> Out
where
    J: Send,
    R: Send,
{
    let n = n.max(1);
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, R)>();
        let mut txs = Vec::with_capacity(n);
        for w in 0..n {
            let (tx, rx) = std::sync::mpsc::channel::<(usize, J)>();
            txs.push(tx);
            let res_tx = res_tx.clone();
            let state = &state;
            let work = &work;
            scope.spawn(move || {
                let mut s = state(w);
                while let Ok((idx, job)) = rx.recv() {
                    let r = work(&mut s, job);
                    if res_tx.send((idx, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        let team = Team { txs, rx: res_rx };
        let out = body(&team);
        drop(team); // close job channels so the workers exit and join
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_visit_each_chunk_once_with_correct_index() {
        let mut data = vec![0u32; 103];
        with_threads(8, || {
            parallel_chunks_mut(&mut data, 10, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + i as u32;
                }
            });
        });
        for (j, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (j / 10) as u32, "element {j}");
        }
    }

    #[test]
    fn chunks2_visit_pairs_in_lockstep() {
        let mut vals = vec![0u32; 60];
        let mut tags = vec![0u8; 30];
        with_threads(4, || {
            parallel_chunks2_mut(&mut vals, &mut tags, 10, 5, |i, va, tb| {
                for v in va.iter_mut() {
                    *v = i as u32;
                }
                for t in tb.iter_mut() {
                    *t = i as u8;
                }
            });
        });
        for (j, v) in vals.iter().enumerate() {
            assert_eq!(*v, (j / 10) as u32);
        }
        for (j, t) in tags.iter().enumerate() {
            assert_eq!(*t, (j / 5) as u8);
        }
    }

    #[test]
    fn serial_override_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let mut data = [0u8; 64];
        with_threads(1, || {
            parallel_chunks_mut(&mut data, 1, |_, _| {
                assert_eq!(std::thread::current().id(), caller);
            });
        });
    }

    #[test]
    fn with_threads_restores_previous_override() {
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(2, || assert_eq!(max_threads(), 2));
            assert_eq!(max_threads(), 3);
        });
    }

    #[test]
    fn empty_dispatches_are_noops() {
        let mut empty: [u8; 0] = [];
        parallel_chunks_mut(&mut empty, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn worker_team_returns_results_in_job_order() {
        for n in [1, 2, 4, 7] {
            let sums = worker_team(
                n,
                |w| w, // state = worker index
                |_w, job: usize| job * 10,
                |team| {
                    assert_eq!(team.size(), n);
                    // Two dispatches over the same team; 13 jobs each.
                    let a = team.run((0..13).collect());
                    let b = team.run((0..13).collect());
                    assert_eq!(a, b);
                    a
                },
            );
            assert_eq!(sums, (0..13).map(|j| j * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_team_state_persists_across_dispatches() {
        // Each worker counts the jobs it has served; with round-robin
        // dispatch of 8 jobs over 2 workers twice, each serves 8 total.
        let counts = worker_team(
            2,
            |_w| 0usize,
            |served, _job: ()| {
                *served += 1;
                *served
            },
            |team| {
                team.run(vec![(); 8]);
                team.run(vec![(); 8])
            },
        );
        // Job i of the second dispatch goes to worker i % 2, which already
        // served 4 jobs in the first dispatch.
        assert_eq!(counts, vec![5, 5, 6, 6, 7, 7, 8, 8]);
    }

    #[test]
    fn worker_team_empty_run_is_noop() {
        let out: Vec<u8> = worker_team(3, |_| (), |_, _j: ()| 0u8, |team| team.run(Vec::new()));
        assert!(out.is_empty());
    }
}
