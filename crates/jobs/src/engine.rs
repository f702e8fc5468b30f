//! The job engine: a bounded worker pool draining a bounded queue of
//! placement jobs, each running the full predictor-in-the-loop flow.
//!
//! Lifecycle: `queued → running → completed | failed | cancelled`.
//! Submission is backpressured (the queue refuses work at its bound);
//! shutdown is graceful (no new submissions, queued + running jobs finish
//! before [`JobEngine::shutdown`] returns).
//!
//! Every job keeps an append-only log of NDJSON event lines derived from
//! the flow's progress events. Lines carry no timestamps and no job ids,
//! so a job's stream is a pure function of its spec plus the model
//! checkpoint — the property the `/jobs/<id>/events` determinism tests
//! lean on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfaplace_core::{FlowConfig, FlowProgress, MacroPlacementFlow};
use mfaplace_fpga::io::read_design;
use mfaplace_fpga::Design;
use mfaplace_placer::{CongestionPredictor, FlowConfig as PlacerFlowConfig, RudyPredictor};
use mfaplace_serve::{Metrics, ModelFleet};

use crate::predictor::SlotPredictor;
use crate::spec::{DesignSource, JobSpec, PredictorKind};

/// Pool and queue sizing.
#[derive(Debug, Clone)]
pub struct JobsConfig {
    /// Worker threads (concurrent jobs). Env: `MFAPLACE_JOB_WORKERS`.
    pub workers: usize,
    /// Queued-job bound; submissions beyond it get 429. Env:
    /// `MFAPLACE_JOB_QUEUE`.
    pub queue_bound: usize,
    /// Whole-job deadline when the spec has none. Env:
    /// `MFAPLACE_JOB_DEADLINE_MS`.
    pub default_deadline: Duration,
    /// Finished jobs kept for status/event queries; older terminal jobs
    /// are evicted as new ones are submitted.
    pub retain: usize,
}

impl Default for JobsConfig {
    fn default() -> Self {
        JobsConfig {
            workers: 2,
            queue_bound: 8,
            default_deadline: Duration::from_secs(600),
            retain: 64,
        }
    }
}

impl JobsConfig {
    /// Default configuration with `MFAPLACE_JOB_*` env overrides applied.
    pub fn from_env() -> Self {
        let mut cfg = JobsConfig::default();
        if let Some(n) = env_usize("MFAPLACE_JOB_WORKERS") {
            cfg.workers = n.max(1);
        }
        if let Some(n) = env_usize("MFAPLACE_JOB_QUEUE") {
            cfg.queue_bound = n.max(1);
        }
        if let Some(ms) = env_usize("MFAPLACE_JOB_DEADLINE_MS") {
            cfg.default_deadline = Duration::from_millis(ms.max(1) as u64);
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the flow.
    Running,
    /// Flow finished; outcome summary available.
    Completed,
    /// Flow failed (bad design, unknown slot, prediction error, deadline,
    /// panic).
    Failed,
    /// Cancelled before or during the flow.
    Cancelled,
}

impl JobState {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

struct JobInner {
    state: JobState,
    events: Vec<String>,
    error: Option<String>,
    summary: Option<String>,
}

/// One placement job: spec, parsed design, state, and its event log.
pub struct Job {
    id: String,
    spec: JobSpec,
    design: Design,
    inner: Mutex<JobInner>,
    cv: Condvar,
    cancel: AtomicBool,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("state", &self.state())
            .field("events", &self.event_count())
            .finish_non_exhaustive()
    }
}

impl Job {
    fn new(id: String, spec: JobSpec, design: Design) -> Self {
        Job {
            id,
            spec,
            design,
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                events: Vec::new(),
                error: None,
                summary: None,
            }),
            cv: Condvar::new(),
            cancel: AtomicBool::new(false),
        }
    }

    /// The job id (`job-<n>`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The spec the job was submitted with.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// Number of event lines logged so far.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// The failure message, for failed jobs.
    pub fn error(&self) -> Option<String> {
        self.lock().error.clone()
    }

    /// The outcome summary, for completed jobs.
    pub fn summary(&self) -> Option<String> {
        self.lock().summary.clone()
    }

    /// Blocks until the log grows past `from` or the job turns terminal,
    /// up to `timeout`. Returns the new lines and the state observed with
    /// them (under one lock, so a terminal state implies the returned
    /// lines complete the stream).
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<String>, JobState) {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.events.len() > from || inner.state.is_terminal() {
                return (
                    inner.events[from.min(inner.events.len())..].to_vec(),
                    inner.state,
                );
            }
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), inner.state);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("job lock poisoned");
            inner = guard;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobInner> {
        self.inner.lock().expect("job lock poisoned")
    }

    fn push_event(&self, line: String) {
        let mut inner = self.lock();
        inner.events.push(line);
        drop(inner);
        self.cv.notify_all();
    }

    fn set_state(&self, state: JobState) {
        let mut inner = self.lock();
        inner.state = state;
        drop(inner);
        self.cv.notify_all();
    }

    fn finish(&self, state: JobState, error: Option<String>, summary: Option<String>) {
        let done = done_line(state, error.as_deref());
        let mut inner = self.lock();
        inner.state = state;
        inner.error = error;
        inner.summary = summary;
        inner.events.push(done);
        drop(inner);
        self.cv.notify_all();
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitJobError {
    /// The spec or design did not parse (400).
    Invalid(String),
    /// The job queue is at its bound — retry later (429).
    QueueFull,
    /// The engine is draining for shutdown (503).
    Draining,
}

impl std::fmt::Display for SubmitJobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitJobError::Invalid(msg) => write!(f, "invalid job: {msg}"),
            SubmitJobError::QueueFull => write!(f, "job queue full"),
            SubmitJobError::Draining => write!(f, "job engine draining"),
        }
    }
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Arc<Job>>,
    draining: bool,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    events: AtomicU64,
}

/// The engine: registry + bounded queue + worker pool over one fleet.
pub struct JobEngine {
    fleet: Arc<ModelFleet>,
    cfg: JobsConfig,
    queue: Mutex<QueueState>,
    cv: Condvar,
    jobs: Mutex<Vec<Arc<Job>>>,
    next_id: AtomicU64,
    counters: Counters,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobEngine {
    /// Creates the engine and starts its worker pool.
    pub fn start(fleet: Arc<ModelFleet>, cfg: JobsConfig) -> Arc<Self> {
        let engine = Arc::new(JobEngine {
            fleet,
            cfg: cfg.clone(),
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            counters: Counters::default(),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = engine.workers.lock().expect("worker list poisoned");
        for w in 0..cfg.workers {
            let eng = Arc::clone(&engine);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mfaplace-job-{w}"))
                    .spawn(move || eng.worker_loop())
                    .expect("spawn job worker"),
            );
        }
        drop(workers);
        engine
    }

    /// The pool configuration.
    pub fn config(&self) -> &JobsConfig {
        &self.cfg
    }

    /// The fleet jobs resolve model predictors through.
    pub fn fleet(&self) -> &Arc<ModelFleet> {
        &self.fleet
    }

    /// Validates and enqueues a job.
    ///
    /// The design is parsed here (inline text, or read from a server-side
    /// path), so rejection for malformed designs is synchronous — a 400,
    /// not a queued job that fails later.
    ///
    /// # Errors
    ///
    /// [`SubmitJobError::Invalid`] for spec/design problems,
    /// [`SubmitJobError::QueueFull`] at the queue bound,
    /// [`SubmitJobError::Draining`] once shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, SubmitJobError> {
        let design = match &spec.design {
            DesignSource::Inline(text) => read_design(text)
                .map_err(|e| SubmitJobError::Invalid(format!("bad inline design: {e}")))?,
            DesignSource::Path(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    SubmitJobError::Invalid(format!("cannot read design {path:?}: {e}"))
                })?;
                read_design(&text)
                    .map_err(|e| SubmitJobError::Invalid(format!("bad design {path:?}: {e}")))?
            }
        };

        let mut state = self.queue.lock().expect("job queue poisoned");
        if state.draining {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitJobError::Draining);
        }
        if state.queue.len() >= self.cfg.queue_bound {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitJobError::QueueFull);
        }
        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let job = Arc::new(Job::new(id, spec, design));
        state.queue.push_back(Arc::clone(&job));
        drop(state);
        self.cv.notify_one();
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.register(Arc::clone(&job));
        Ok(job)
    }

    fn register(&self, job: Arc<Job>) {
        let mut jobs = self.jobs.lock().expect("job registry poisoned");
        jobs.push(job);
        // Evict the oldest *terminal* jobs beyond the retention window;
        // live jobs are never evicted.
        let mut excess = jobs.len().saturating_sub(self.cfg.retain);
        if excess > 0 {
            jobs.retain(|j| {
                if excess > 0 && j.state().is_terminal() {
                    excess -= 1;
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job registry poisoned")
            .iter()
            .find(|j| j.id() == id)
            .cloned()
    }

    /// All retained jobs, oldest first.
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.jobs.lock().expect("job registry poisoned").clone()
    }

    /// Requests cancellation. Queued jobs are cancelled immediately (they
    /// leave the queue); running jobs abort at the next flow event.
    /// Returns the state observed at the cancel request, or `None` for an
    /// unknown id.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let job = self.get(id)?;
        job.cancel.store(true, Ordering::SeqCst);
        let mut state = self.queue.lock().expect("job queue poisoned");
        if let Some(pos) = state.queue.iter().position(|j| j.id() == id) {
            state.queue.remove(pos);
            drop(state);
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            job.finish(JobState::Cancelled, None, None);
            return Some(JobState::Cancelled);
        }
        drop(state);
        Some(job.state())
    }

    /// Stops accepting jobs and blocks until queued + running jobs have
    /// finished and all workers joined. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.queue.lock().expect("job queue poisoned");
            state.draining = true;
        }
        self.cv.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().expect("job queue poisoned").queue.len()
    }

    /// Renders the `mfaplace_jobs_*` metric families.
    pub fn render_metrics(&self) -> String {
        let jobs = self.list();
        let running = jobs
            .iter()
            .filter(|j| j.state() == JobState::Running)
            .count();
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP mfaplace_jobs_{name} {help}\n# TYPE mfaplace_jobs_{name} counter\nmfaplace_jobs_{name} {value}\n"
            ));
        };
        counter(
            "submitted_total",
            "Jobs accepted into the queue.",
            self.counters.submitted.load(Ordering::Relaxed),
        );
        counter(
            "rejected_total",
            "Submissions refused (queue full or draining).",
            self.counters.rejected.load(Ordering::Relaxed),
        );
        counter(
            "completed_total",
            "Jobs that finished successfully.",
            self.counters.completed.load(Ordering::Relaxed),
        );
        counter(
            "failed_total",
            "Jobs that failed.",
            self.counters.failed.load(Ordering::Relaxed),
        );
        counter(
            "cancelled_total",
            "Jobs cancelled before completing.",
            self.counters.cancelled.load(Ordering::Relaxed),
        );
        counter(
            "events_total",
            "Flow progress events logged across all jobs.",
            self.counters.events.load(Ordering::Relaxed),
        );
        out.push_str(&format!(
            "# HELP mfaplace_jobs_running Jobs currently placing.\n# TYPE mfaplace_jobs_running gauge\nmfaplace_jobs_running {running}\n"
        ));
        out.push_str(&format!(
            "# HELP mfaplace_jobs_queue_depth Jobs waiting for a worker.\n# TYPE mfaplace_jobs_queue_depth gauge\nmfaplace_jobs_queue_depth {}\n",
            self.queue_depth()
        ));
        out.push_str(&format!(
            "# HELP mfaplace_jobs_workers Worker-pool size.\n# TYPE mfaplace_jobs_workers gauge\nmfaplace_jobs_workers {}\n",
            self.cfg.workers
        ));
        out.push_str(
            "# HELP mfaplace_jobs_job_state Per-job lifecycle state (1 = current).\n# TYPE mfaplace_jobs_job_state gauge\n",
        );
        for job in &jobs {
            out.push_str(&format!(
                "mfaplace_jobs_job_state{{job=\"{}\",state=\"{}\"}} 1\n",
                job.id(),
                job.state().name()
            ));
        }
        out.push_str(
            "# HELP mfaplace_jobs_job_events_total Event lines logged per job.\n# TYPE mfaplace_jobs_job_events_total counter\n",
        );
        for job in &jobs {
            out.push_str(&format!(
                "mfaplace_jobs_job_events_total{{job=\"{}\"}} {}\n",
                job.id(),
                job.event_count()
            ));
        }
        out
    }

    /// Registers the `mfaplace_jobs_*` families with `metrics` so they
    /// appear in `/metrics`. Holds only a [`Weak`] reference: dropping the
    /// engine (fleet → metrics → closure would otherwise cycle) silences
    /// the family instead of leaking it.
    pub fn register_metrics(self: &Arc<Self>, metrics: &Metrics) {
        let weak: Weak<JobEngine> = Arc::downgrade(self);
        metrics.register_external(Box::new(move || {
            weak.upgrade()
                .map(|engine| engine.render_metrics())
                .unwrap_or_default()
        }));
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.queue.lock().expect("job queue poisoned");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if state.draining {
                        return;
                    }
                    state = self.cv.wait(state).expect("job queue poisoned");
                }
            };
            self.run_job(&job);
        }
    }

    fn run_job(&self, job: &Arc<Job>) {
        if job.cancel.load(Ordering::SeqCst) {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            job.finish(JobState::Cancelled, None, None);
            return;
        }
        job.set_state(JobState::Running);
        let spec = job.spec();
        let deadline = Instant::now() + spec.deadline.unwrap_or(self.cfg.default_deadline);

        // Resolve the predictor and the grid it prescribes.
        let mut slot_predictor;
        let mut rudy_predictor;
        let predictor_error;
        let grid;
        let predictor: &mut dyn CongestionPredictor = match spec.predictor {
            PredictorKind::Model => {
                let slot = match self.fleet.resolve(spec.slot.as_deref()) {
                    Ok(slot) => slot,
                    Err(err) => {
                        self.counters.failed.fetch_add(1, Ordering::Relaxed);
                        job.finish(JobState::Failed, Some(err), None);
                        return;
                    }
                };
                grid = slot.slot().status().spec.grid;
                slot_predictor = SlotPredictor::new(slot, deadline);
                predictor_error = slot_predictor.error_slot();
                &mut slot_predictor
            }
            PredictorKind::Rudy => {
                grid = spec.grid.unwrap_or(32);
                rudy_predictor = RudyPredictor::default();
                predictor_error = Arc::new(Mutex::new(None));
                &mut rudy_predictor
            }
        };

        let flow = MacroPlacementFlow::new(flow_config(spec, grid));
        let cancel = &job.cancel;
        let counters = &self.counters;
        let mut observe = |p: &FlowProgress| -> bool {
            job.push_event(progress_line(p));
            counters.events.fetch_add(1, Ordering::Relaxed);
            if cancel.load(Ordering::SeqCst) {
                return false;
            }
            if predictor_error
                .lock()
                .expect("predictor error lock poisoned")
                .is_some()
            {
                return false;
            }
            if Instant::now() >= deadline {
                let mut err = predictor_error
                    .lock()
                    .expect("predictor error lock poisoned");
                if err.is_none() {
                    *err = Some("job deadline exceeded".into());
                }
                return false;
            }
            true
        };

        let design = &job.design;
        let seed = spec.seed;
        let result = catch_unwind(AssertUnwindSafe(|| {
            flow.run_with_observer(design, predictor, seed, &mut observe)
        }));

        match result {
            Ok(Ok(outcome)) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                let summary = format!(
                    "s_score={} s_r={} wirelength={} overflow={}",
                    outcome.score.s_score(),
                    outcome.score.s_r(),
                    outcome.wirelength,
                    outcome.overflow
                );
                job.finish(JobState::Completed, None, Some(summary));
            }
            Ok(Err(_aborted)) => {
                if job.cancel.load(Ordering::SeqCst) {
                    self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    job.finish(JobState::Cancelled, None, None);
                } else {
                    let err = predictor_error
                        .lock()
                        .expect("predictor error lock poisoned")
                        .clone()
                        .unwrap_or_else(|| "flow aborted".into());
                    self.counters.failed.fetch_add(1, Ordering::Relaxed);
                    job.finish(JobState::Failed, Some(err), None);
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "flow panicked".into());
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                job.finish(
                    JobState::Failed,
                    Some(format!("flow panicked: {msg}")),
                    None,
                );
            }
        }
    }
}

/// Maps a job spec onto a full flow configuration: preset by flow name,
/// GP iterations capped like the CLI's `place --iterations`, placement
/// and scoring grids forced to the predictor's grid.
fn flow_config(spec: &JobSpec, grid: usize) -> FlowConfig {
    let placer = match spec.flow.as_str() {
        "utda" => PlacerFlowConfig::utda_like(),
        "seu" => PlacerFlowConfig::seu_like(),
        "mpku" => PlacerFlowConfig::mpku_like(),
        _ => PlacerFlowConfig::model_driven(),
    };
    let mut cfg = FlowConfig {
        placer,
        ..FlowConfig::default()
    };
    if let Some(n) = spec.iterations {
        cfg.placer.gp_stage1.iterations = cfg.placer.gp_stage1.iterations.min(n);
        cfg.placer.gp_stage2.iterations = cfg.placer.gp_stage2.iterations.min(n / 2 + 1);
    }
    cfg.placer.grid_w = grid;
    cfg.placer.grid_h = grid;
    cfg.router.grid_w = grid;
    cfg.router.grid_h = grid;
    cfg
}

/// Escapes a string for embedding in a JSON value.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The terminal NDJSON line.
fn done_line(state: JobState, error: Option<&str>) -> String {
    match error {
        Some(err) => format!(
            "{{\"event\":\"done\",\"state\":\"{}\",\"error\":\"{}\"}}",
            state.name(),
            json_escape(err)
        ),
        None => format!("{{\"event\":\"done\",\"state\":\"{}\"}}", state.name()),
    }
}

/// Renders one flow progress event as an NDJSON line.
///
/// Deliberately free of job ids and timestamps: identical flows must emit
/// byte-identical lines regardless of when or alongside what they run.
pub fn progress_line(progress: &FlowProgress) -> String {
    use mfaplace_placer::FlowEvent;
    match progress {
        FlowProgress::Placement(event) => match event {
            FlowEvent::StageStart { stage, iterations } => {
                format!("{{\"event\":\"stage\",\"stage\":{stage},\"iterations\":{iterations}}}")
            }
            FlowEvent::GpIteration {
                stage,
                iteration,
                hpwl,
                overflow,
            } => format!(
                "{{\"event\":\"gp\",\"stage\":{stage},\"iteration\":{iteration},\"hpwl\":{hpwl},\
                 \"overflow_lut\":{},\"overflow_ff\":{},\"overflow_dsp\":{},\
                 \"overflow_bram\":{},\"overflow_uram\":{}}}",
                overflow.lut, overflow.ff, overflow.dsp, overflow.bram, overflow.uram
            ),
            FlowEvent::Predicted {
                round,
                mean_level,
                max_level,
                hot_tiles,
            } => format!(
                "{{\"event\":\"predicted\",\"round\":{round},\"mean_level\":{mean_level},\
                 \"max_level\":{max_level},\"hot_tiles\":{hot_tiles}}}"
            ),
            FlowEvent::Inflated { round, stats } => format!(
                "{{\"event\":\"inflated\",\"round\":{round},\"instances\":{},\
                 \"added_area\":{},\"tau_cell\":{},\"tau_macro\":{}}}",
                stats.inflated_instances, stats.added_area, stats.tau_cell, stats.tau_macro
            ),
            FlowEvent::Legalized { hpwl } => {
                format!("{{\"event\":\"legalized\",\"hpwl\":{hpwl}}}")
            }
        },
        FlowProgress::Routed {
            wirelength,
            overflow,
        } => {
            format!("{{\"event\":\"routed\",\"wirelength\":{wirelength},\"overflow\":{overflow}}}")
        }
        FlowProgress::Scored {
            s_ir,
            s_dr,
            s_r,
            s_score,
        } => format!(
            "{{\"event\":\"scored\",\"s_ir\":{s_ir},\"s_dr\":{s_dr},\"s_r\":{s_r},\
             \"s_score\":{s_score}}}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_fpga::design::DesignPreset;
    use mfaplace_fpga::io::write_design;
    use mfaplace_serve::{BatchConfig, Metrics};

    fn tiny_design_text() -> String {
        let d = DesignPreset::design_116()
            .with_scale(1024, 128, 64)
            .generate(1);
        write_design(&d)
    }

    fn rudy_spec(text: &str) -> JobSpec {
        crate::spec::parse_spec(&format!(
            "predictor=rudy seed=3 iterations=4 grid=16\n---DESIGN---\n{text}"
        ))
        .unwrap()
    }

    fn empty_fleet() -> Arc<ModelFleet> {
        Arc::new(ModelFleet::new(
            Arc::new(Metrics::new()),
            BatchConfig::default(),
        ))
    }

    fn engine_with(workers: usize, queue_bound: usize) -> Arc<JobEngine> {
        JobEngine::start(
            empty_fleet(),
            JobsConfig {
                workers,
                queue_bound,
                default_deadline: Duration::from_secs(60),
                retain: 16,
            },
        )
    }

    fn wait_terminal(job: &Arc<Job>) -> JobState {
        let mut seen = 0;
        loop {
            let (lines, state) = job.wait_events(seen, Duration::from_secs(30));
            seen += lines.len();
            if state.is_terminal() && lines.is_empty() {
                return state;
            }
        }
    }

    #[test]
    fn rudy_job_completes_on_an_empty_fleet() {
        let engine = engine_with(1, 4);
        let job = engine.submit(rudy_spec(&tiny_design_text())).unwrap();
        assert_eq!(wait_terminal(&job), JobState::Completed);
        let (lines, _) = job.wait_events(0, Duration::from_secs(1));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"predicted\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"scored\"")));
        assert_eq!(
            lines.last().unwrap(),
            "{\"event\":\"done\",\"state\":\"completed\"}"
        );
        assert!(job.summary().unwrap().contains("s_score="));
        engine.shutdown();
    }

    #[test]
    fn queue_bound_rejects_excess_submissions() {
        // No workers: nothing drains the queue.
        let engine = engine_with(0, 2);
        let text = tiny_design_text();
        engine.submit(rudy_spec(&text)).unwrap();
        engine.submit(rudy_spec(&text)).unwrap();
        assert_eq!(
            engine.submit(rudy_spec(&text)).unwrap_err(),
            SubmitJobError::QueueFull
        );
        assert_eq!(engine.queue_depth(), 2);
        engine.shutdown();
    }

    #[test]
    fn queued_jobs_cancel_immediately() {
        let engine = engine_with(0, 4);
        let job = engine.submit(rudy_spec(&tiny_design_text())).unwrap();
        assert_eq!(engine.cancel(job.id()), Some(JobState::Cancelled));
        assert_eq!(job.state(), JobState::Cancelled);
        assert_eq!(engine.queue_depth(), 0);
        let (lines, _) = job.wait_events(0, Duration::from_secs(1));
        assert_eq!(
            lines.last().unwrap(),
            "{\"event\":\"done\",\"state\":\"cancelled\"}"
        );
        assert_eq!(engine.cancel("job-999"), None);
        engine.shutdown();
    }

    #[test]
    fn model_job_without_slots_fails_cleanly() {
        let engine = engine_with(1, 4);
        let spec = crate::spec::parse_spec(&format!(
            "predictor=model seed=1 iterations=2\n---DESIGN---\n{}",
            tiny_design_text()
        ))
        .unwrap();
        let job = engine.submit(spec).unwrap();
        assert_eq!(wait_terminal(&job), JobState::Failed);
        assert!(job.error().is_some());
        engine.shutdown();
    }

    #[test]
    fn draining_engine_refuses_submissions() {
        let engine = engine_with(1, 4);
        engine.shutdown();
        assert_eq!(
            engine.submit(rudy_spec(&tiny_design_text())).unwrap_err(),
            SubmitJobError::Draining
        );
    }

    #[test]
    fn invalid_designs_are_rejected_synchronously() {
        let engine = engine_with(0, 4);
        let err = engine
            .submit(
                crate::spec::parse_spec("predictor=rudy\n---DESIGN---\nnot a design\n").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, SubmitJobError::Invalid(_)));
        let err = engine
            .submit(crate::spec::parse_spec("predictor=rudy design=/nonexistent/x.nl").unwrap())
            .unwrap_err();
        assert!(matches!(err, SubmitJobError::Invalid(_)));
        engine.shutdown();
    }

    #[test]
    fn metrics_render_lists_families_and_jobs() {
        let engine = engine_with(0, 4);
        let job = engine.submit(rudy_spec(&tiny_design_text())).unwrap();
        let text = engine.render_metrics();
        assert!(text.contains("mfaplace_jobs_submitted_total 1"));
        assert!(text.contains("mfaplace_jobs_queue_depth 1"));
        assert!(text.contains(&format!(
            "mfaplace_jobs_job_state{{job=\"{}\",state=\"queued\"}} 1",
            job.id()
        )));
        // Registered through Metrics, the families surface in render().
        let metrics = Arc::new(Metrics::new());
        engine.register_metrics(&metrics);
        assert!(metrics.render().contains("mfaplace_jobs_workers 0"));
        engine.shutdown();
    }

    #[test]
    fn done_lines_escape_errors() {
        assert_eq!(
            done_line(JobState::Failed, Some("bad \"slot\"\nline")),
            "{\"event\":\"done\",\"state\":\"failed\",\"error\":\"bad \\\"slot\\\"\\nline\"}"
        );
    }
}
