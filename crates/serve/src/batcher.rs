//! The dynamic micro-batcher and the hot-swappable model slot.
//!
//! Requests enter a bounded queue ([`Batcher::submit`]); a dedicated
//! worker thread coalesces up to `max_batch` of them within a
//! `batch_window` and runs **one** `[N, C, H, W]` forward per batch
//! through the [`ModelSlot`]. Because the batched kernels are bitwise
//! identical per sample to single-item inference (asserted by
//! `mfaplace-core`'s predictor tests), coalescing never changes a
//! response — it only amortizes per-forward overhead across concurrent
//! requests.
//!
//! Robustness properties:
//!
//! - **Backpressure** — `submit` fails fast with [`SubmitError::QueueFull`]
//!   once `queue_bound` requests are waiting (the server maps this to 429).
//! - **Deadlines** — each job carries an absolute deadline; jobs that
//!   expire while queued are answered with [`JobError::DeadlineExceeded`]
//!   instead of occupying batch slots (mapped to 504).
//! - **Graceful drain** — [`Batcher::shutdown`] stops new submissions
//!   ([`SubmitError::Draining`], mapped to 503) while the worker finishes
//!   everything already queued before exiting.
//! - **Hot reload** — [`ModelSlot::reload`] builds and validates the new
//!   checkpoint completely before atomically swapping it in, so a bad
//!   file can never take down or corrupt the serving model.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mfaplace_core::loader::{load_predictor_with_cache, LoadOptions};
use mfaplace_core::predictor::{Engine, ModelPredictor, PredictorStatus};
use mfaplace_core::PlanCache;
use mfaplace_models::{AnyModel, ArchSpec};
use mfaplace_rt::timer::ScopeTimer;
use mfaplace_tensor::Tensor;

use crate::metrics::{Metrics, SlotMetrics};

/// Name of the implicit slot single-model deployments serve under; the
/// fleet routes requests naming no slot here.
pub const DEFAULT_SLOT: &str = "default";

/// Batching and queueing knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest number of requests fused into one forward.
    pub max_batch: usize,
    /// How long the worker waits for more requests after the first one
    /// arrives before running a partial batch.
    pub batch_window: Duration,
    /// Bound on queued (not yet running) requests; submissions beyond it
    /// are rejected.
    pub queue_bound: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            queue_bound: 64,
        }
    }
}

impl BatchConfig {
    /// Applies the `MFAPLACE_MAX_BATCH`, `MFAPLACE_BATCH_WINDOW_MS` and
    /// `MFAPLACE_QUEUE_BOUND` environment overrides to `self`.
    #[must_use]
    pub fn with_env_overrides(mut self) -> Self {
        if let Some(n) = env_usize("MFAPLACE_MAX_BATCH") {
            self.max_batch = n.max(1);
        }
        if let Some(ms) = env_usize("MFAPLACE_BATCH_WINDOW_MS") {
            self.batch_window = Duration::from_millis(ms as u64);
        }
        if let Some(n) = env_usize("MFAPLACE_QUEUE_BOUND") {
            self.queue_bound = n.max(1);
        }
        self
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later (429).
    QueueFull,
    /// The service is draining for shutdown (503).
    Draining,
}

/// Why an accepted job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's deadline passed before a batch picked it up (504).
    DeadlineExceeded,
    /// The model forward failed (500).
    ModelError(String),
}

struct Job {
    input: Tensor,
    deadline: Instant,
    tx: mpsc::Sender<Result<Tensor, JobError>>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// The bounded request queue plus its coalescing policy.
pub struct Batcher {
    /// Shared with the metrics registry, which reads the depth at scrape
    /// time. Never record a metric while holding this lock: a render holds
    /// the registry lock while it reads the queue.
    state: Arc<Mutex<QueueState>>,
    cv: Condvar,
    cfg: BatchConfig,
    metrics: SlotMetrics,
}

impl Batcher {
    /// Creates an empty batcher recording under the default slot.
    pub fn new(cfg: BatchConfig, metrics: Arc<Metrics>) -> Self {
        Batcher::for_slot(cfg, metrics.slot(DEFAULT_SLOT))
    }

    /// Creates an empty batcher recording under a named fleet slot.
    pub fn for_slot(cfg: BatchConfig, metrics: SlotMetrics) -> Self {
        let state = Arc::new(Mutex::new(QueueState::default()));
        let queue = state.clone();
        metrics.watch_queue_depth(move || lock_queue(&queue).jobs.len());
        Batcher {
            state,
            cv: Condvar::new(),
            cfg,
            metrics,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        lock_queue(&self.state)
    }

    /// Enqueues one `[C, H, W]` feature stack for prediction. On success
    /// the returned receiver yields the `[H, W]` level map (or a
    /// [`JobError`]) once a batch containing the job has run.
    ///
    /// # Errors
    ///
    /// Fails fast when the queue is at its bound or the batcher is
    /// draining.
    pub fn submit(
        &self,
        input: Tensor,
        deadline: Instant,
    ) -> Result<mpsc::Receiver<Result<Tensor, JobError>>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut state = self.lock();
            if state.draining {
                return Err(SubmitError::Draining);
            }
            if state.jobs.len() < self.cfg.queue_bound {
                state.jobs.push_back(Job {
                    input,
                    deadline,
                    tx,
                });
                drop(state);
                self.cv.notify_all();
                return Ok(rx);
            }
        }
        self.metrics.record_queue_rejection();
        Err(SubmitError::QueueFull)
    }

    /// Stops accepting new jobs and wakes the worker so it can finish the
    /// queue and exit.
    pub fn shutdown(&self) {
        self.lock().draining = true;
        self.cv.notify_all();
    }

    /// Collects the next batch, honoring the batching window, or returns
    /// `None` when draining and empty (worker should exit).
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut state = self.lock();
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.draining {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        // First job seen: hold the batch open for the window (or until
        // full / draining) to give concurrent requests a chance to fuse.
        let window_ends = Instant::now() + self.cfg.batch_window;
        while state.jobs.len() < self.cfg.max_batch && !state.draining {
            let now = Instant::now();
            if now >= window_ends {
                break;
            }
            let (next, timeout) = self
                .cv
                .wait_timeout(state, window_ends - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = state.jobs.len().min(self.cfg.max_batch);
        Some(state.jobs.drain(..take).collect())
    }

    /// Runs the batching loop until [`Batcher::shutdown`] is called and
    /// the queue is drained. Call from a dedicated thread.
    pub fn run_worker(&self, slot: &ModelSlot) {
        while let Some(batch) = self.next_batch() {
            let now = Instant::now();
            let (live, expired): (Vec<Job>, Vec<Job>) =
                batch.into_iter().partition(|j| j.deadline > now);
            for job in expired {
                self.metrics.record_deadline_miss();
                // Receiver may have given up; ignore send failures.
                let _ = job.tx.send(Err(JobError::DeadlineExceeded));
            }
            if live.is_empty() {
                continue;
            }
            let inputs: Vec<Tensor> = live.iter().map(|j| j.input.clone()).collect();
            self.metrics.record_batch(inputs.len());
            let outputs = slot.predict_batch(&inputs);
            match outputs {
                Ok(levels) => {
                    for (job, level) in live.into_iter().zip(levels) {
                        let _ = job.tx.send(Ok(level));
                    }
                }
                Err(msg) => {
                    for job in live {
                        let _ = job.tx.send(Err(JobError::ModelError(msg.clone())));
                    }
                }
            }
        }
    }
}

fn lock_queue(state: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

struct LoadedModel {
    predictor: ModelPredictor<AnyModel>,
    spec: ArchSpec,
    version: u64,
}

impl LoadedModel {
    fn status(&self) -> SlotStatus {
        SlotStatus {
            spec: self.spec,
            version: self.version,
            predictor: self.predictor.status(),
        }
    }
}

/// Point-in-time description of a slot — the one thing `/metrics`,
/// `/model`, `/models`, the request-path grid check, the job engine and
/// the CLI banner all read.
#[derive(Clone, Debug)]
pub struct SlotStatus {
    /// The served architecture (its grid is what inputs must match).
    pub spec: ArchSpec,
    /// Monotonic version, bumped by every successful [`ModelSlot::reload`].
    pub version: u64,
    /// Requested engine, engine really serving, precision, fallback reason
    /// and active plan stats.
    pub predictor: PredictorStatus,
}

/// The currently served model behind an atomic-swap lock.
///
/// The slot keeps one [`SlotStatus`] snapshot, replaced at every mutation
/// (load, `set_engine`, forward, `reload`) while the state lock is held —
/// so concurrent mutations publish in the order they happen and the
/// snapshot can never describe a state the slot is not in — but read
/// without that lock, so no reader ever waits behind an in-flight forward.
pub struct ModelSlot {
    name: String,
    inner: Mutex<LoadedModel>,
    status: Arc<Mutex<Arc<SlotStatus>>>,
    plan_cache: Arc<PlanCache>,
}

fn read_status(status: &Mutex<Arc<SlotStatus>>) -> Arc<SlotStatus> {
    status.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

impl ModelSlot {
    /// Loads the initial model from `path` under the default slot name,
    /// with a private plan cache sized from the environment, and exposes
    /// it on `metrics`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable error when the checkpoint cannot be
    /// loaded.
    pub fn load(path: &str, opts: LoadOptions, metrics: Arc<Metrics>) -> Result<Self, String> {
        let cache = Arc::new(PlanCache::from_env());
        let slot = Self::load_named(DEFAULT_SLOT, path, opts, cache)?;
        slot.register(&metrics);
        Ok(slot)
    }

    /// Loads the initial model from `path` as fleet slot `name`, compiling
    /// inference plans into the shared `plan_cache` (keyed by the file's
    /// content hash, so slots loaded from byte-identical checkpoints share
    /// one compiled plan set). The fleet registers it with the metrics
    /// registry when it is installed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable error when the checkpoint cannot be
    /// loaded.
    pub fn load_named(
        name: &str,
        path: &str,
        opts: LoadOptions,
        plan_cache: Arc<PlanCache>,
    ) -> Result<Self, String> {
        let (spec, predictor) = load_predictor_with_cache(path, opts, &plan_cache)?;
        Ok(Self::new(name, spec, predictor, plan_cache))
    }

    /// Wraps an already-built predictor (tests, in-process serving) under
    /// the default slot name and exposes it on `metrics`.
    pub fn from_predictor(
        spec: ArchSpec,
        predictor: ModelPredictor<AnyModel>,
        metrics: Arc<Metrics>,
    ) -> Self {
        let plan_cache = predictor.plan_cache().clone();
        let slot = Self::new(DEFAULT_SLOT, spec, predictor, plan_cache);
        slot.register(&metrics);
        slot
    }

    fn new(
        name: &str,
        spec: ArchSpec,
        predictor: ModelPredictor<AnyModel>,
        plan_cache: Arc<PlanCache>,
    ) -> Self {
        let model = LoadedModel {
            predictor,
            spec,
            version: 1,
        };
        ModelSlot {
            name: name.to_owned(),
            status: Arc::new(Mutex::new(Arc::new(model.status()))),
            inner: Mutex::new(model),
            plan_cache,
        }
    }

    /// Exposes this slot's status under its name on `metrics`, to be read
    /// at every scrape; returns the handle the slot's batcher records
    /// through.
    pub fn register(&self, metrics: &Arc<Metrics>) -> SlotMetrics {
        let handle = metrics.slot(&self.name);
        let status = self.status.clone();
        handle.watch_status(move || read_status(&status));
        handle
    }

    fn lock(&self) -> MutexGuard<'_, LoadedModel> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replaces the status snapshot. Takes the guarded state as proof that
    /// the caller holds the state lock.
    fn publish(&self, model: &LoadedModel) {
        *self.status.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(model.status());
    }

    /// The fleet slot name this model serves under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The plan cache this slot's predictor compiles into.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The current status snapshot. Never waits for a forward.
    pub fn status(&self) -> Arc<SlotStatus> {
        read_status(&self.status)
    }

    /// Monotonic version, bumped by every successful [`ModelSlot::reload`].
    pub fn version(&self) -> u64 {
        self.status().version
    }

    /// The inference engine the served predictor was asked to use.
    pub fn engine(&self) -> Engine {
        self.status().predictor.requested
    }

    /// Switches the served predictor between engines (compiled plans are
    /// kept either way).
    pub fn set_engine(&self, engine: Engine) {
        let mut model = self.lock();
        model.predictor.set_engine(engine);
        self.publish(&model);
    }

    /// Runs one batched forward. Panics inside the model are caught and
    /// reported as errors so a bad batch cannot kill the worker thread.
    ///
    /// # Errors
    ///
    /// Returns the panic/validation message on failure.
    pub fn predict_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, String> {
        let _t = ScopeTimer::new("serve/forward");
        let mut model = self.lock();
        let spec = model.spec;
        for x in inputs {
            if x.shape() != [6, spec.grid, spec.grid] {
                return Err(format!(
                    "input shape {:?} does not match served model grid {}",
                    x.shape(),
                    spec.grid
                ));
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predictor.predict_batch_tensors(inputs)
        }));
        // A forward can compile a plan or latch a fallback.
        self.publish(&model);
        result.map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "model forward panicked".into());
            format!("model forward failed: {msg}")
        })
    }

    /// Validates the checkpoint at `path` and atomically swaps it in.
    /// In-flight batches finish on the old model; the swap waits for them.
    ///
    /// # Errors
    ///
    /// Returns a human-readable error (and leaves the old model serving)
    /// when the new checkpoint cannot be loaded or its grid differs from
    /// the served one.
    pub fn reload(&self, path: &str, opts: LoadOptions) -> Result<(u64, ArchSpec), String> {
        // Build and validate entirely before taking the lock: a corrupt
        // file must never interrupt serving. Plans for the new weights go
        // into the same shared cache, keyed by the new file's content hash.
        let (spec, mut predictor) = load_predictor_with_cache(path, opts, &self.plan_cache)?;
        let current_grid = self.status().spec.grid;
        if spec.grid != current_grid {
            return Err(format!(
                "new checkpoint grid {} differs from served grid {current_grid}; \
                 restart the server to change grids",
                spec.grid
            ));
        }
        let mut slot = self.lock();
        // Keep the engine choice sticky across hot reloads and swap the
        // whole loaded state as one assignment — a concurrent `set_engine`
        // either fully precedes this swap (its choice is the sticky one) or
        // fully follows it (it overrides).
        predictor.set_engine(slot.predictor.engine());
        let version = slot.version + 1;
        *slot = LoadedModel {
            predictor,
            spec,
            version,
        };
        self.publish(&slot);
        Ok((version, spec))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mfaplace_core::loader::init_checkpoint;
    use mfaplace_models::Arch;

    pub(crate) fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("mfaplace_batcher_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    pub(crate) fn tiny_spec() -> ArchSpec {
        let mut spec = ArchSpec::new(Arch::UNet, 16);
        spec.base_channels = 2;
        spec
    }

    pub(crate) fn tiny_slot(metrics: Arc<Metrics>) -> ModelSlot {
        // One file per call: tests run in parallel, and a shared path lets
        // one test read a checkpoint another is still writing.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = temp_path(&format!("tiny_unet_{n}.mfaw"));
        init_checkpoint(&tiny_spec(), 1, &path).unwrap();
        ModelSlot::load(&path, LoadOptions::default(), metrics).unwrap()
    }

    pub(crate) fn input(seed: f32) -> Tensor {
        Tensor::from_fn(vec![6, 16, 16], |i| ((i as f32) * 0.01 + seed).sin())
    }

    #[test]
    fn worker_answers_jobs_and_drains_on_shutdown() {
        let metrics = Arc::new(Metrics::new());
        let slot = tiny_slot(metrics.clone());
        let batcher = Arc::new(Batcher::new(
            BatchConfig {
                max_batch: 4,
                batch_window: Duration::from_millis(5),
                queue_bound: 16,
            },
            metrics,
        ));

        let deadline = Instant::now() + Duration::from_secs(10);
        let rxs: Vec<_> = (0..6)
            .map(|i| batcher.submit(input(i as f32), deadline).unwrap())
            .collect();
        let worker = {
            let batcher = batcher.clone();
            std::thread::spawn(move || batcher.run_worker(&slot))
        };
        for rx in rxs {
            let level = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(level.shape(), &[16, 16]);
        }
        batcher.shutdown();
        worker.join().unwrap();
        assert_eq!(
            batcher.submit(input(0.0), deadline).err(),
            Some(SubmitError::Draining)
        );
    }

    #[test]
    fn queue_bound_rejects_excess_submissions() {
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatchConfig {
                max_batch: 4,
                batch_window: Duration::from_millis(1),
                queue_bound: 2,
            },
            metrics,
        );
        // No worker running: the queue fills and stays full.
        let deadline = Instant::now() + Duration::from_secs(10);
        assert!(batcher.submit(input(0.0), deadline).is_ok());
        assert!(batcher.submit(input(1.0), deadline).is_ok());
        assert_eq!(
            batcher.submit(input(2.0), deadline).err(),
            Some(SubmitError::QueueFull)
        );
    }

    #[test]
    fn expired_jobs_get_deadline_errors() {
        let metrics = Arc::new(Metrics::new());
        let slot = tiny_slot(metrics.clone());
        let batcher = Arc::new(Batcher::new(BatchConfig::default(), metrics));
        let rx = batcher
            .submit(input(0.0), Instant::now() - Duration::from_millis(1))
            .unwrap();
        let worker = {
            let batcher = batcher.clone();
            std::thread::spawn(move || batcher.run_worker(&slot))
        };
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)).unwrap(),
            Err(JobError::DeadlineExceeded)
        );
        batcher.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn wrong_input_shape_is_a_model_error_not_a_crash() {
        let metrics = Arc::new(Metrics::new());
        let slot = tiny_slot(metrics);
        let bad = Tensor::zeros(vec![6, 32, 32]);
        let err = slot.predict_batch(std::slice::from_ref(&bad)).unwrap_err();
        assert!(err.contains("grid"), "{err}");
    }

    #[test]
    fn reload_swaps_weights_and_bumps_version() {
        let metrics = Arc::new(Metrics::new());
        let slot = tiny_slot(metrics);
        let x = input(3.0);
        let before = slot.predict_batch(std::slice::from_ref(&x)).unwrap();

        let other = temp_path("tiny_unet_v2.mfaw");
        init_checkpoint(&tiny_spec(), 999, &other).unwrap();
        let (version, spec) = slot.reload(&other, LoadOptions::default()).unwrap();
        assert_eq!(version, 2);
        assert_eq!(spec.arch, Arch::UNet);
        let after = slot.predict_batch(std::slice::from_ref(&x)).unwrap();
        assert_ne!(
            before[0].data(),
            after[0].data(),
            "different weights must change predictions"
        );

        // A corrupt file must be rejected and leave the slot serving.
        let corrupt = temp_path("corrupt.mfaw");
        std::fs::write(&corrupt, b"MFAWgarbage").unwrap();
        assert!(slot.reload(&corrupt, LoadOptions::default()).is_err());
        assert_eq!(slot.version(), 2);
        let still = slot.predict_batch(std::slice::from_ref(&x)).unwrap();
        assert_eq!(after[0].data(), still[0].data());
    }

    /// Readers must never wait for the state lock a forward holds: with
    /// that lock held on another thread (exactly what `predict_batch` does
    /// for a whole forward), status reads, a scrape and a submission all
    /// have to complete.
    #[test]
    fn status_render_and_submit_never_wait_for_the_state_lock() {
        let metrics = Arc::new(Metrics::new());
        let slot = Arc::new(tiny_slot(metrics.clone()));
        let batcher = Batcher::new(BatchConfig::default(), metrics.clone());

        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let slot = slot.clone();
            std::thread::spawn(move || {
                let _forward = slot.lock();
                locked_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        };
        locked_rx.recv().unwrap();

        let (done_tx, done_rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let status = slot.status();
            assert_eq!((status.version, slot.version()), (1, 1));
            assert_eq!(status.spec.grid, 16);
            assert_eq!(slot.engine(), status.predictor.requested);
            let text = metrics.render();
            assert!(text.contains("mfaplace_model_version 1"), "{text}");
            let deadline = Instant::now() + Duration::from_secs(10);
            assert!(batcher.submit(input(0.0), deadline).is_ok());
            assert!(
                metrics.render().contains("mfaplace_queue_depth 1"),
                "depth is read from the queue itself"
            );
            done_tx.send(()).unwrap();
        });
        let finished = done_rx.recv_timeout(Duration::from_secs(20));
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        finished.expect("a reader blocked on the slot's state lock");
        reader.join().unwrap();
    }

    /// Regression test for the engine/reload publication race: `reload`
    /// and `set_engine` both mutate the predictor *and* publish a metrics
    /// gauge. Before the fix, `set_engine` published outside the state
    /// lock, so a concurrent reload could interleave and leave the gauge
    /// describing an engine the slot was not using. Both now publish under
    /// the lock, so after any interleaving the gauge must equal the actual
    /// engine.
    #[test]
    fn engine_gauge_stays_consistent_under_concurrent_reloads() {
        let metrics = Arc::new(Metrics::new());
        let slot = Arc::new(tiny_slot(metrics.clone()));
        let other = temp_path("race_unet.mfaw");
        init_checkpoint(&tiny_spec(), 7, &other).unwrap();

        let toggler = {
            let slot = slot.clone();
            std::thread::spawn(move || {
                for i in 0..200 {
                    slot.set_engine(if i % 2 == 0 {
                        Engine::Tape
                    } else {
                        Engine::Plan
                    });
                }
            })
        };
        let reloader = {
            let slot = slot.clone();
            let other = other.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    slot.reload(&other, LoadOptions::default()).unwrap();
                }
            })
        };
        toggler.join().unwrap();
        reloader.join().unwrap();

        let engine = slot.engine().name();
        let gauge = format!("mfaplace_engine_info{{engine=\"{engine}\"}} 1");
        let text = metrics.render();
        assert!(
            text.contains(&gauge),
            "gauge must match the served engine {engine:?}:\n{text}"
        );
        assert_eq!(slot.version(), 21, "every reload must have landed");
        // The slot still serves after the churn.
        let out = slot
            .predict_batch(std::slice::from_ref(&input(1.0)))
            .unwrap();
        assert_eq!(out[0].shape(), &[16, 16]);
    }
}
