//! Service observability: request counters, queue depth, a batch-size
//! histogram and request-latency quantiles, rendered as a plaintext
//! `GET /metrics` document in the Prometheus exposition style. The
//! process-wide `mfaplace_rt::timer` counters and scope timers ride along
//! under `mfaplace_rt_*` names, so kernel-level instrumentation shows up
//! in the same scrape.
//!
//! **Events are recorded, state is read.** The registry stores only what
//! happened (requests, batches, latencies, rejections, deadline misses);
//! what *is* — served model, engine, precision, plan stats, queue depth,
//! plan-cache occupancy — is read from its owner at every scrape, so a
//! gauge can never lag behind or contradict the thing it describes.
//!
//! With the model fleet the document is two-level: the un-labelled
//! families (`mfaplace_queue_depth`, `mfaplace_batch_size`,
//! `mfaplace_engine_info`, …) cover the whole fleet — counters and queue
//! depth are sums over slots, point-in-time state gauges describe the
//! **default slot** (the first one registered) — while every slot
//! additionally gets `mfaplace_slot_*` families labelled `{slot="…"}`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mfaplace_core::PlanCache;

use crate::batcher::SlotStatus;

/// Upper bucket bounds of the batch-size histogram (last bucket is +Inf).
pub const BATCH_BUCKETS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Number of most-recent request latencies kept for quantile estimates.
const LATENCY_WINDOW: usize = 4096;

/// Event counters kept once fleet-wide and once per slot.
#[derive(Default)]
struct Counters {
    queue_rejections: u64,
    deadline_misses: u64,
    batches: u64,
    batched_items: u64,
}

/// A scrape-time read of state owned elsewhere. Called with the registry
/// locked, so it must not record into the registry — nor take a lock its
/// owner ever records under.
type Source<T> = Box<dyn Fn() -> T + Send + Sync>;

/// Per-slot slice of the registry, rendered under `mfaplace_slot_*`.
#[derive(Default)]
struct SlotStats {
    requests: BTreeMap<u16, u64>,
    counters: Counters,
    status: Option<Source<Arc<SlotStatus>>>,
    queue_depth: Option<Source<usize>>,
}

#[derive(Default)]
struct Inner {
    requests_total: BTreeMap<(String, u16), u64>,
    batch_hist: [u64; BATCH_BUCKETS.len() + 1],
    latencies_us: Vec<u64>,
    latency_next: usize,
    total: Counters,
    slots: BTreeMap<String, SlotStats>,
    /// The first slot registered: the one un-labelled state gauges describe.
    default_slot: Option<String>,
}

impl Inner {
    /// Applies `count` fleet-wide and — while `slot` is still registered —
    /// to its own series.
    fn count(&mut self, slot: &str, count: impl Fn(&mut Counters)) {
        count(&mut self.total);
        if let Some(s) = self.slots.get_mut(slot) {
            count(&mut s.counters);
        }
    }
}

/// Thread-safe metrics registry shared by the server, batcher and worker.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
    /// Extra exposition sources appended to every render — how subsystems
    /// outside this crate (e.g. the job engine) publish their own families
    /// into the same `/metrics` document.
    externals: Mutex<Vec<Source<String>>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one completed request on `endpoint` with HTTP `status`.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        let mut m = self.lock();
        *m.requests_total
            .entry((endpoint.to_owned(), status))
            .or_insert(0) += 1;
    }

    /// Records one request's end-to-end latency.
    pub fn record_latency(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut m = self.lock();
        if m.latencies_us.len() < LATENCY_WINDOW {
            m.latencies_us.push(us);
        } else {
            let at = m.latency_next % LATENCY_WINDOW;
            m.latencies_us[at] = us;
        }
        m.latency_next = (m.latency_next + 1) % LATENCY_WINDOW;
    }

    /// Registers slot `name` in the rendered output and returns the handle
    /// its batcher and model record through.
    pub fn slot(self: &Arc<Self>, name: &str) -> SlotMetrics {
        let mut m = self.lock();
        m.slots.entry(name.to_owned()).or_default();
        m.default_slot.get_or_insert_with(|| name.to_owned());
        SlotMetrics {
            metrics: self.clone(),
            slot: name.to_owned(),
        }
    }

    /// Drops `name`'s `mfaplace_slot_*` series (slot removed from the
    /// fleet). Handles that outlive the slot keep counting fleet-wide but
    /// can no longer bring the series back.
    pub fn remove_slot(&self, name: &str) {
        let mut m = self.lock();
        m.slots.remove(name);
        if m.default_slot.as_deref() == Some(name) {
            m.default_slot = None;
        }
    }

    /// Counts one completed predict on `slot` with HTTP `status`.
    pub fn record_slot_request(&self, slot: &str, status: u16) {
        if let Some(s) = self.lock().slots.get_mut(slot) {
            *s.requests.entry(status).or_insert(0) += 1;
        }
    }

    /// Registers an extra exposition source: `render_fn` is called on
    /// every [`Metrics::render`] and its output appended verbatim. The
    /// callback must return complete, newline-terminated exposition lines
    /// and must not call back into this registry.
    pub fn register_external(&self, render_fn: Box<dyn Fn() -> String + Send + Sync>) {
        self.externals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(render_fn);
    }

    /// Renders the plaintext exposition document.
    pub fn render(&self) -> String {
        let m = self.lock();

        // One pass over the slots reads every owner exactly once; the
        // default slot's status snapshot feeds both views.
        let mut queue_depth = 0;
        let mut default_state = String::new();
        let mut slots = String::new();
        for (name, s) in &m.slots {
            for (status, n) in &s.requests {
                slots.push_str(&format!(
                    "mfaplace_slot_requests_total{{slot=\"{name}\",status=\"{status}\"}} {n}\n"
                ));
            }
            let depth = s.queue_depth.as_ref().map_or(0, |read| read() as u64);
            queue_depth += depth;
            for (family, v) in [
                ("queue_depth", depth),
                ("queue_rejections_total", s.counters.queue_rejections),
                ("deadline_misses_total", s.counters.deadline_misses),
                ("batches_total", s.counters.batches),
                ("batched_items_total", s.counters.batched_items),
            ] {
                slots.push_str(&format!("mfaplace_slot_{family}{{slot=\"{name}\"}} {v}\n"));
            }
            if let Some(status) = s.status.as_ref().map(|read| read()) {
                if m.default_slot.as_deref() == Some(name) {
                    render_status(&mut default_state, None, &status);
                }
                render_status(&mut slots, Some(name), &status);
            }
        }

        let mut out = String::new();
        out.push_str("# TYPE mfaplace_requests_total counter\n");
        for ((endpoint, status), n) in &m.requests_total {
            out.push_str(&format!(
                "mfaplace_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}\n"
            ));
        }

        out.push_str("# TYPE mfaplace_queue_depth gauge\n");
        out.push_str(&format!("mfaplace_queue_depth {queue_depth}\n"));
        out.push_str(&format!(
            "mfaplace_queue_rejections_total {}\n",
            m.total.queue_rejections
        ));
        out.push_str(&format!(
            "mfaplace_deadline_misses_total {}\n",
            m.total.deadline_misses
        ));

        out.push_str("# TYPE mfaplace_batch_size histogram\n");
        let mut cumulative = 0;
        for (i, &bound) in BATCH_BUCKETS.iter().enumerate() {
            cumulative += m.batch_hist[i];
            out.push_str(&format!(
                "mfaplace_batch_size_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += m.batch_hist[BATCH_BUCKETS.len()];
        out.push_str(&format!(
            "mfaplace_batch_size_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!("mfaplace_batch_size_count {}\n", m.total.batches));
        out.push_str(&format!(
            "mfaplace_batch_size_sum {}\n",
            m.total.batched_items
        ));

        if !m.latencies_us.is_empty() {
            let mut sorted = m.latencies_us.clone();
            sorted.sort_unstable();
            out.push_str("# TYPE mfaplace_request_latency_seconds summary\n");
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
                out.push_str(&format!(
                    "mfaplace_request_latency_seconds{{quantile=\"{label}\"}} {:.6}\n",
                    sorted[idx] as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "mfaplace_request_latency_seconds_count {}\n",
                sorted.len()
            ));
        }
        drop(m);

        // Process-global SIMD kernel backend; read at render time so the
        // gauge always reflects the dispatcher's actual state (the CI
        // consistency check compares this against `mfaplace kernels`).
        out.push_str(&format!(
            "mfaplace_kernel_backend{{backend=\"{}\"}} 1\n",
            mfaplace_tensor::simd::active().name()
        ));
        out.push_str(&default_state);
        out.push_str(&slots);

        // Families published by registered subsystems (e.g. the job
        // engine's `mfaplace_jobs_*`, the fleet's `mfaplace_plan_cache_*`).
        for external in self
            .externals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            out.push_str(&external());
        }

        // Process-wide runtime counters and scope timers.
        let snap = mfaplace_rt::timer::snapshot();
        for (name, v) in &snap.counters {
            out.push_str(&format!("mfaplace_rt_counter{{name=\"{name}\"}} {v}\n"));
        }
        for (name, stat) in &snap.timers {
            out.push_str(&format!(
                "mfaplace_rt_timer_calls{{scope=\"{name}\"}} {}\n",
                stat.calls
            ));
            out.push_str(&format!(
                "mfaplace_rt_timer_seconds_total{{scope=\"{name}\"}} {:.6}\n",
                stat.total.as_secs_f64()
            ));
        }
        out
    }
}

/// Renders one status snapshot: the un-labelled fleet view (`slot` is
/// `None`; the default slot's snapshot) or a slot's `mfaplace_slot_*` view.
fn render_status(out: &mut String, slot: Option<&str>, status: &SlotStatus) {
    // `mfaplace_model_version 3` vs `mfaplace_slot_model_version{slot="a"} 3`.
    let (prefix, plan_prefix, label, labels) = match slot {
        None => (
            "mfaplace_",
            "mfaplace_infer_plan_",
            String::new(),
            String::new(),
        ),
        Some(name) => (
            "mfaplace_slot_",
            "mfaplace_slot_plan_",
            format!("slot=\"{name}\","),
            format!("{{slot=\"{name}\"}}"),
        ),
    };
    let p = &status.predictor;
    for (family, key, value) in [
        ("model_info", "name", status.spec.arch.model_name()),
        ("engine_info", "engine", p.requested.name()),
        ("precision_info", "precision", p.precision.name()),
    ] {
        out.push_str(&format!("{prefix}{family}{{{label}{key}=\"{value}\"}} 1\n"));
    }
    // Only a slot that is not serving what it was asked to has this series.
    if let (Some(_), Some(reason)) = (slot, &p.fallback) {
        let reason = reason
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', " ");
        out.push_str(&format!(
            "{prefix}engine_fallback_info{{{label}reason=\"{reason}\"}} 1\n"
        ));
    }
    out.push_str(&format!(
        "{prefix}model_version{labels} {}\n",
        status.version
    ));
    // Zeroed while no plan is compiled.
    let plan = p.plan.clone().unwrap_or_default();
    for (family, v) in [
        ("ops", plan.ops),
        ("arena_bytes", plan.arena_bytes),
        ("levels", plan.levels),
        ("copies_elided", plan.copies_elided),
    ] {
        if slot.is_none() {
            out.push_str(&format!("# TYPE {plan_prefix}{family} gauge\n"));
        }
        out.push_str(&format!("{plan_prefix}{family}{labels} {v}\n"));
    }
}

/// The `mfaplace_plan_cache_*` exposition source for `cache`: register it
/// with [`Metrics::register_external`] and every scrape reads the cache's
/// own counters. Holds the cache weakly — a registry that outlives the
/// fleet must not keep its compiled plans alive.
pub fn plan_cache_source(cache: &Arc<PlanCache>) -> Box<dyn Fn() -> String + Send + Sync> {
    let cache = Arc::downgrade(cache);
    Box::new(move || {
        let Some(pc) = cache.upgrade().map(|cache| cache.stats()) else {
            return String::new();
        };
        format!(
            "# TYPE mfaplace_plan_cache_bytes gauge\n\
             mfaplace_plan_cache_entries {}\n\
             mfaplace_plan_cache_bytes {}\n\
             mfaplace_plan_cache_max_bytes {}\n\
             mfaplace_plan_cache_hits_total {}\n\
             mfaplace_plan_cache_misses_total {}\n\
             mfaplace_plan_cache_evictions_total {}\n",
            pc.entries, pc.bytes, pc.max_bytes, pc.hits, pc.misses, pc.evictions
        )
    })
}

/// A per-slot view of the shared [`Metrics`] registry. Every recording
/// method updates both the fleet-wide family and — while the slot is still
/// registered — its `mfaplace_slot_*` series under one lock, so the two
/// can never disagree about what was counted.
#[derive(Clone)]
pub struct SlotMetrics {
    metrics: Arc<Metrics>,
    slot: String,
}

impl SlotMetrics {
    /// Counts one executed batch of `size` requests on this slot.
    pub fn record_batch(&self, size: usize) {
        let idx = BATCH_BUCKETS
            .iter()
            .position(|&b| size <= b)
            .unwrap_or(BATCH_BUCKETS.len());
        let mut m = self.metrics.lock();
        m.batch_hist[idx] += 1;
        m.count(&self.slot, |c| {
            c.batches += 1;
            c.batched_items += size as u64;
        });
    }

    /// Counts one request rejected by this slot's full queue.
    pub fn record_queue_rejection(&self) {
        let mut m = self.metrics.lock();
        m.count(&self.slot, |c| c.queue_rejections += 1);
    }

    /// Counts one request dropped on this slot for missing its deadline.
    pub fn record_deadline_miss(&self) {
        let mut m = self.metrics.lock();
        m.count(&self.slot, |c| c.deadline_misses += 1);
    }

    /// Has every scrape read this slot's status snapshot from `read`.
    pub fn watch_status(&self, read: impl Fn() -> Arc<SlotStatus> + Send + Sync + 'static) {
        if let Some(s) = self.metrics.lock().slots.get_mut(&self.slot) {
            s.status = Some(Box::new(read));
        }
    }

    /// Has every scrape read this slot's queue depth from `read`.
    pub fn watch_queue_depth(&self, read: impl Fn() -> usize + Send + Sync + 'static) {
        if let Some(s) = self.metrics.lock().slots.get_mut(&self.slot) {
            s.queue_depth = Some(Box::new(read));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::tests::{input, temp_path, tiny_slot, tiny_spec};
    use crate::batcher::{ModelSlot, DEFAULT_SLOT};
    use mfaplace_core::loader::{init_checkpoint, LoadOptions};
    use mfaplace_core::predictor::Engine;

    #[test]
    fn render_contains_all_families() {
        let m = Arc::new(Metrics::new());
        m.record_request("/predict", 200);
        m.record_request("/predict", 200);
        m.record_request("/metrics", 200);
        m.record_latency(Duration::from_millis(2));
        m.record_latency(Duration::from_millis(4));

        // State is read from its owners: a real slot (one forward compiles
        // a plan, one reload bumps the version) and a queue of depth 3.
        let slot = tiny_slot(m.clone());
        slot.set_engine(Engine::Plan);
        let other = temp_path("metrics_v2.mfaw");
        init_checkpoint(&tiny_spec(), 5, &other).unwrap();
        slot.reload(&other, LoadOptions::default()).unwrap();
        slot.predict_batch(&[input(0.0)]).unwrap();
        let plan = slot.status().predictor.plan.clone().expect("compiled");
        assert!(plan.ops > 0 && plan.arena_bytes > 0 && plan.levels > 0);
        let events = m.slot(DEFAULT_SLOT);
        events.watch_queue_depth(|| 3);
        events.record_batch(1);
        events.record_batch(8);
        events.record_batch(100);
        events.record_queue_rejection();
        events.record_deadline_miss();

        let text = m.render();
        assert!(
            text.contains("mfaplace_requests_total{endpoint=\"/predict\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(text.contains("mfaplace_queue_depth 3"), "{text}");
        assert!(text.contains("mfaplace_queue_rejections_total 1"), "{text}");
        assert!(text.contains("mfaplace_deadline_misses_total 1"), "{text}");
        assert!(
            text.contains("mfaplace_batch_size_bucket{le=\"8\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_batch_size_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("mfaplace_batch_size_sum 109"), "{text}");
        assert!(
            text.contains("mfaplace_request_latency_seconds{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("mfaplace_model_version 2"), "{text}");
        assert!(
            text.contains("mfaplace_model_info{name=\"U-net\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_engine_info{engine=\"plan\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_precision_info{precision=\"f32\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "mfaplace_kernel_backend{{backend=\"{}\"}} 1",
                mfaplace_tensor::simd::active().name()
            )),
            "{text}"
        );
        for (family, v) in [
            ("ops", plan.ops),
            ("arena_bytes", plan.arena_bytes),
            ("levels", plan.levels),
            ("copies_elided", plan.copies_elided),
        ] {
            let line = format!("mfaplace_infer_plan_{family} {v}\n");
            assert!(text.contains(&line), "{line}{text}");
        }
        // Healthy slot: no fallback series.
        assert!(!text.contains("engine_fallback_info"), "{text}");
    }

    #[test]
    fn slot_metrics_update_both_levels() {
        let m = Arc::new(Metrics::new());
        let cache = Arc::new(PlanCache::from_env());
        m.register_external(plan_cache_source(&cache));
        let ckpt = temp_path("metrics_slots.mfaw");
        init_checkpoint(&tiny_spec(), 3, &ckpt).unwrap();
        let load = |name: &str, engine: Engine| {
            let slot =
                ModelSlot::load_named(name, &ckpt, LoadOptions::default(), cache.clone()).unwrap();
            slot.set_engine(engine);
            let events = slot.register(&m);
            (slot, events)
        };
        let (alpha, a) = load("alpha", Engine::Plan);
        let (beta, b) = load("beta", Engine::Tape);
        alpha.predict_batch(&[input(0.0)]).unwrap();
        // Beta mutates last; the un-labelled gauges must still be alpha's.
        beta.predict_batch(&[input(0.0)]).unwrap();
        let plan = alpha.status().predictor.plan.clone().expect("compiled");
        a.record_batch(3);
        a.watch_queue_depth(|| 2);
        b.watch_queue_depth(|| 5);
        a.record_queue_rejection();
        b.record_deadline_miss();
        m.record_slot_request("alpha", 200);
        m.record_slot_request("alpha", 200);
        m.record_slot_request("beta", 504);

        let text = m.render();
        // Fleet-wide families keep working: events and queue depth are
        // sums, state gauges describe the default (first) slot.
        assert!(text.contains("mfaplace_queue_depth 7"), "{text}");
        assert!(text.contains("mfaplace_queue_rejections_total 1"), "{text}");
        assert!(text.contains("mfaplace_deadline_misses_total 1"), "{text}");
        assert!(text.contains("mfaplace_batch_size_sum 3"), "{text}");
        assert!(
            text.contains("mfaplace_engine_info{engine=\"plan\"} 1"),
            "{text}"
        );
        assert!(!text.contains("mfaplace_engine_info{engine=\"tape\"}"));
        // Per-slot families.
        assert!(
            text.contains("mfaplace_slot_requests_total{slot=\"alpha\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_requests_total{slot=\"beta\",status=\"504\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_queue_depth{slot=\"alpha\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_queue_depth{slot=\"beta\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_model_info{slot=\"alpha\",name=\"U-net\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_engine_info{slot=\"alpha\",engine=\"plan\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mfaplace_slot_engine_info{slot=\"beta\",engine=\"tape\"} 1"),
            "{text}"
        );
        for (family, v) in [
            ("arena_bytes", plan.arena_bytes),
            ("levels", plan.levels),
            ("copies_elided", plan.copies_elided),
        ] {
            let line = format!("mfaplace_slot_plan_{family}{{slot=\"alpha\"}} {v}\n");
            assert!(text.contains(&line), "{line}{text}");
        }
        // Plan-cache gauges are the cache's own counters.
        let pc = cache.stats();
        assert_eq!(pc.entries, 1, "alpha compiled one plan; beta ran the tape");
        for (family, v) in [
            ("entries", pc.entries as u64),
            ("bytes", pc.bytes as u64),
            ("hits_total", pc.hits),
            ("evictions_total", pc.evictions),
        ] {
            let line = format!("mfaplace_plan_cache_{family} {v}\n");
            assert!(text.contains(&line), "{line}{text}");
        }

        // Removal drops the series, and the fleet-wide depth with it.
        m.remove_slot("beta");
        let text = m.render();
        assert!(!text.contains("slot=\"beta\""), "{text}");
        assert!(text.contains("mfaplace_queue_depth 2"), "{text}");

        // Late records — a handler thread or a draining worker finishing
        // after the removal — still count fleet-wide but must not bring
        // the slot's series back.
        b.record_batch(2);
        b.record_queue_rejection();
        b.record_deadline_miss();
        b.watch_queue_depth(|| 9);
        m.record_slot_request("beta", 200);
        let text = m.render();
        assert!(!text.contains("slot=\"beta\""), "{text}");
        assert!(text.contains("mfaplace_queue_depth 2"), "{text}");
        assert!(text.contains("mfaplace_batch_size_sum 5"), "{text}");
        assert!(text.contains("mfaplace_queue_rejections_total 2"), "{text}");
        assert!(text.contains("mfaplace_deadline_misses_total 2"), "{text}");
    }

    #[test]
    fn external_sources_are_appended_to_render() {
        let m = Metrics::new();
        m.register_external(Box::new(|| "mfaplace_jobs_running 3\n".to_owned()));
        let n = Arc::new(Mutex::new(0u64));
        let n2 = n.clone();
        m.register_external(Box::new(move || {
            format!("mfaplace_jobs_queue_depth {}\n", n2.lock().unwrap())
        }));
        assert!(m.render().contains("mfaplace_jobs_running 3"));
        assert!(m.render().contains("mfaplace_jobs_queue_depth 0"));
        *n.lock().unwrap() = 9;
        assert!(m.render().contains("mfaplace_jobs_queue_depth 9"));
    }

    #[test]
    fn latency_window_wraps_without_growing() {
        let m = Metrics::new();
        for i in 0..(LATENCY_WINDOW + 10) {
            m.record_latency(Duration::from_micros(i as u64));
        }
        assert_eq!(m.lock().latencies_us.len(), LATENCY_WINDOW);
    }
}
