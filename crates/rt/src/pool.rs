//! Scoped worker pool over `std::thread`, and the one fan-out policy every
//! parallel kernel follows.
//!
//! **When to fan out** is [`split`]'s decision alone: a dispatch of
//! [`Work`] over some number of independent units gets one worker below
//! its kind's threshold, else the thread count capped at the units. The
//! five row-split GEMMs go through [`row_blocks`]; the kernels with a rule
//! of their own (the convolution sizes its column blocks from the count,
//! the batched GEMM takes the batch level only when every worker gets a
//! batch) ask [`split`] and keep their arithmetic.
//!
//! **How** is [`fan_out`]: items are split into **contiguous blocks
//! assigned in order**, the first on the calling thread, so a kernel that
//! computes each output chunk independently produces results bitwise
//! identical to its serial loop — the per-element reduction order never
//! changes, only which thread executes it. This serial-equivalence
//! guarantee is what lets the tensor kernels parallelize without
//! perturbing training reproducibility. Every block of a parallel fan-out
//! runs under a budget of one thread, so a dispatch nested inside it is
//! serial by construction. [`parallel_chunks_mut`] is the same
//! distribution over the chunks of one buffer at the full thread count.
//!
//! Sizing: the thread count is resolved once per process, at the first
//! parallel decision — `MFAPLACE_THREADS` when it is a positive integer,
//! else `std::thread::available_parallelism()` — and [`with_threads`]
//! overrides it per scope (e.g. in tests). With one worker every dispatch
//! runs serially on the calling thread — no threads are spawned.
//! [`spawns`] counts the threads spawned so far.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

static SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Worker threads this process has spawned through the pool so far
/// ([`fan_out`] and [`worker_team`]).
pub fn spawns() -> u64 {
    SPAWNS.load(Ordering::Relaxed)
}

/// Maximum number of worker threads a dispatch may use.
///
/// Resolution order: [`with_threads`] scope override, then the process
/// thread count, read once on first use: the `MFAPLACE_THREADS`
/// environment variable when it parses to a positive integer, else
/// `std::thread::available_parallelism()`. Empty or `0` means the host
/// default; any other value warns once on stderr and means it too.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(|| {
        *THREADS.get_or_init(|| {
            let host = std::thread::available_parallelism().map_or(1, |n| n.get());
            let knob = std::env::var("MFAPLACE_THREADS").unwrap_or_default();
            match knob.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                Ok(_) => host,
                Err(_) if knob.trim().is_empty() => host,
                Err(_) => {
                    eprintln!(
                        "warning: MFAPLACE_THREADS={knob} is not a thread count; using {host}"
                    );
                    host
                }
            }
        })
    })
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

/// The size of a dispatch, by kind; each kind has its own fan-out
/// threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Multiply-adds of a GEMM-shaped kernel (GEMM, convolution,
    /// attention): fans out from 2¹⁹.
    Flops(usize),
    /// Elements moved by a data-movement kernel (im2col, pooling,
    /// upsampling): fans out from 2¹⁶.
    Elems(usize),
}

/// Workers a dispatch of `work` over `units` independent units should use:
/// one below the threshold of `work`'s kind — the work would not pay for a
/// spawn — else [`max_threads`] capped at `units` (pass `usize::MAX` for
/// the thread count itself). Always at least one.
pub fn split(work: Work, units: usize) -> usize {
    let big = match work {
        Work::Flops(n) => n >= 1 << 19,
        Work::Elems(n) => n >= 1 << 16,
    };
    // The threshold first: below it the thread count is never read.
    if big {
        max_threads().min(units).max(1)
    } else {
        1
    }
}

/// Runs `f` on every item, the items split into at most `workers`
/// contiguous blocks of `⌈n / workers⌉` in order: the first block on the
/// calling thread, each other one on a thread of its own. With one block
/// the items run in order on the calling thread with the budget as it is;
/// with more, every block runs under a budget of one thread.
pub fn fan_out<I, F>(workers: usize, mut items: impl ExactSizeIterator<Item = I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.for_each(f);
    }
    let per = n.div_ceil(workers);
    let f = &f;
    let run = move |block: Vec<I>| with_threads(1, || block.into_iter().for_each(f));
    std::thread::scope(|s| {
        let first: Vec<I> = items.by_ref().take(per).collect();
        for _ in 1..n.div_ceil(per) {
            let block: Vec<I> = items.by_ref().take(per).collect();
            SPAWNS.fetch_add(1, Ordering::Relaxed);
            s.spawn(move || run(block));
        }
        run(first);
    });
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and calls `f(chunk_index, chunk)` for each, distributing
/// chunks over up to [`max_threads`] workers with [`fan_out`].
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
    fan_out(
        max_threads(),
        data.chunks_mut(chunk_len).enumerate(),
        |(i, c)| f(i, c),
    );
}

/// The row split of a GEMM-shaped kernel: `out` holds `rows` equal rows and
/// the kernel does `flops` multiply-adds. Runs `f(row0, block)` over
/// blocks of whole rows starting at row `row0` — one block per worker that
/// [`split`] grants, or all of `out` on the calling thread.
pub fn row_blocks<T, F>(out: &mut [T], rows: usize, flops: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = split(Work::Flops(flops), rows);
    if workers <= 1 {
        return f(0, out);
    }
    let per = rows.div_ceil(workers);
    let blocks = out.chunks_mut(per * (out.len() / rows)).enumerate();
    fan_out(workers, blocks, |(i, block)| f(i * per, block));
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
            SPAWNS.fetch_add(1, Ordering::Relaxed);
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
    fn fan_out_hands_out_contiguous_blocks_in_order() {
        // Ten pairs over four workers are blocks of three: 3, 3, 3, 1. Each
        // block runs on one thread, in order, under a budget of one.
        let mut vals = [0u32; 20];
        let mut tags = [0u8; 10];
        let ran = std::sync::Mutex::new(Vec::new());
        with_threads(4, || {
            let pairs = vals.chunks_mut(2).zip(tags.chunks_mut(1)).enumerate();
            fan_out(4, pairs, |(i, (va, tb))| {
                va.fill(i as u32);
                tb.fill(i as u8);
                assert_eq!(max_threads(), 1, "a block's nested dispatch is serial");
                ran.lock().unwrap().push((std::thread::current().id(), i));
            });
        });
        for (j, v) in vals.iter().enumerate() {
            assert_eq!(*v, (j / 2) as u32);
        }
        for (j, t) in tags.iter().enumerate() {
            assert_eq!(*t, j as u8);
        }
        let ran = ran.into_inner().unwrap();
        for block in [0..3, 3..6, 6..9, 9..10] {
            let mine: Vec<_> = ran.iter().filter(|r| block.contains(&r.1)).collect();
            assert!(mine.windows(2).all(|w| w[0].0 == w[1].0 && w[0].1 < w[1].1));
            assert_eq!(mine.len(), block.len());
        }
    }

    #[test]
    fn split_fans_out_only_above_the_threshold_of_its_kind() {
        with_threads(3, || {
            assert_eq!(split(Work::Flops((1 << 19) - 1), 100), 1);
            assert_eq!(split(Work::Flops(1 << 19), 100), 3);
            assert_eq!(split(Work::Flops(1 << 19), 2), 2);
            assert_eq!(split(Work::Flops(1 << 19), 0), 1);
            assert_eq!(split(Work::Elems((1 << 16) - 1), 100), 1);
            assert_eq!(split(Work::Elems(1 << 16), usize::MAX), 3);
        });
    }

    #[test]
    fn row_blocks_split_whole_rows() {
        // Seven rows of three over three workers: blocks of 3, 3 and 1 rows.
        let mut out = vec![0usize; 21];
        with_threads(3, || {
            row_blocks(&mut out, 7, 1 << 19, |row0, block| {
                let rows = block.len() / 3;
                for (r, row) in block.chunks_mut(3).enumerate() {
                    row.fill(100 * (row0 + r) + rows);
                }
            });
        });
        let want: Vec<usize> = [3, 3, 3, 3, 3, 3, 1]
            .iter()
            .enumerate()
            .flat_map(|(r, &n)| [100 * r + n; 3])
            .collect();
        assert_eq!(out, want);
        // Below the threshold: one call over everything.
        row_blocks(&mut out, 7, 10, |row0, block| {
            assert_eq!((row0, block.len()), (0, 21));
        });
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
