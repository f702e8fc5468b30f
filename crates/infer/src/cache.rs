//! A process-wide, byte-bounded LRU cache of compiled [`Plan`]s — f32 and
//! quantized side by side.
//!
//! The serve layer's model fleet loads N checkpoints, and each predictor
//! compiles one plan per (bucketed) input shape. Without sharing, two
//! slots loaded from the *same* checkpoint file would compile and hold two
//! identical plan sets — duplicated op lists and, much worse, duplicated
//! weight snapshots. [`PlanCache`] fixes both:
//!
//! - **Keying** — a [`PlanKey`] is `(weight identity, input shape,
//!   precision, fold_bn)`. The weight identity is the checkpoint file's
//!   *content hash* ([`PlanSource::Content`]) for file-loaded predictors,
//!   so any two predictors rebuilt from byte-identical checkpoints resolve
//!   to the same entries, regardless of path or load order. In-memory
//!   models (trainers, tests) get a process-unique nonce
//!   ([`PlanSource::unique`]) and therefore never share. The precision
//!   axis keeps an int8 plan and an f32 plan for the same checkpoint+shape
//!   under distinct keys; the fold axis separates BN-folded plans (folding
//!   rewrites weights, so folded and unfolded plans are not
//!   interchangeable at any precision).
//! - **Byte bounding** — every entry is charged its arena bytes, weight
//!   bytes (f32 table plus, for quantized plans, the int8 weight copies)
//!   *and* plan metadata (op list, value/liveness tables — see
//!   [`Plan::metadata_bytes`]); inserts evict least-recently-used entries
//!   until the budget holds again. The newest entry is never evicted, so a
//!   single plan larger than the whole budget still serves (the cache is
//!   then temporarily over budget by that one entry). Weight tables shared
//!   across entries via `Arc` are charged once per entry — a deliberate
//!   overcount that keeps the bound conservative.
//! - **Observability** — [`PlanCache::stats`] reports entries, bytes,
//!   hits, misses and evictions; the serve layer republishes them as
//!   `mfaplace_plan_cache_*` gauges on every `/metrics` scrape.
//!
//! Lookups and inserts are `Mutex`-serialized; compilation itself must
//! happen *outside* the lock (callers do `get` → capture → `insert`), so
//! two predictors racing on the same cold key may both compile. The loser
//! simply replaces the winner's identical entry — wasted work, never a
//! wrong answer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::plan::Plan;

/// Identity of the weights a plan was compiled from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanSource {
    /// Content hash of the checkpoint file the model was loaded from.
    /// Plans compiled from byte-identical files are interchangeable
    /// (identical weights ⇒ bitwise-identical outputs), so they share.
    Content(u64),
    /// Process-unique id for models that did not come from a file; such
    /// predictors never share plans with anyone else.
    Unique(u64),
}

impl PlanSource {
    /// A fresh never-shared identity.
    pub fn unique() -> PlanSource {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        PlanSource::Unique(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Numeric flavour of a cached plan — the key axis that keeps an int8
/// plan and an f32 plan for the same checkpoint+shape distinct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PlanPrecision {
    /// The bitwise-faithful f32 plan.
    #[default]
    F32,
    /// int8 arena + int8 GEMM compute (f16/f32 islands where needed).
    Int8,
}

impl PlanPrecision {
    /// Stable lower-case name (metrics labels, `model-info`).
    pub fn name(self) -> &'static str {
        match self {
            PlanPrecision::F32 => "f32",
            PlanPrecision::Int8 => "int8",
        }
    }
}

/// Cache key: weight identity, the exact `[N, C, H, W]` input shape the
/// plan was specialized for (batch-bucketed by the caller), the plan
/// precision, and whether BN folding rewrote the weights.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Weight identity (content hash or unique nonce).
    pub source: PlanSource,
    /// Input shape the plan is specialized for.
    pub shape: Vec<usize>,
    /// Numeric flavour of the cached plan.
    pub precision: PlanPrecision,
    /// Whether the plan was compiled with `fold_bn` (folding changes
    /// weight values, so folded plans never substitute for unfolded
    /// ones — at any precision).
    pub folded: bool,
}

impl PlanKey {
    /// Key for an f32 plan.
    pub fn f32(source: PlanSource, shape: Vec<usize>, folded: bool) -> PlanKey {
        PlanKey {
            source,
            shape,
            precision: PlanPrecision::F32,
            folded,
        }
    }
}

/// A snapshot of the cache counters, for `/metrics` and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Live entries.
    pub entries: usize,
    /// Bytes currently charged (arena + weights + metadata per entry).
    pub bytes: usize,
    /// The configured budget.
    pub max_bytes: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (each typically followed by an insert).
    pub misses: u64,
    /// Entries evicted to hold the byte budget.
    pub evictions: u64,
}

struct Entry {
    plan: Arc<Plan>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<PlanKey, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The shared, byte-bounded LRU plan cache. Cheap to clone via `Arc`;
/// every method takes `&self`.
pub struct PlanCache {
    max_bytes: usize,
    inner: Mutex<Inner>,
}

/// Default budget when `MFAPLACE_PLAN_CACHE_MB` is unset: 256 MiB.
pub const DEFAULT_PLAN_CACHE_BYTES: usize = 256 << 20;

/// Bytes an entry is charged: arena + weight tables (for quantized plans
/// `weight_bytes` already includes the int8 weight copies) + metadata.
fn plan_bytes(plan: &Plan) -> usize {
    let s = plan.stats();
    s.arena_bytes + s.weight_bytes + plan.metadata_bytes()
}

impl PlanCache {
    /// Creates a cache holding at most `max_bytes` of plan arena, weight
    /// and metadata bytes (a budget of 0 still admits one entry at a
    /// time).
    pub fn new(max_bytes: usize) -> PlanCache {
        PlanCache {
            max_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Creates a cache sized by the `MFAPLACE_PLAN_CACHE_MB` environment
    /// variable (MiB), defaulting to [`DEFAULT_PLAN_CACHE_BYTES`].
    pub fn from_env() -> PlanCache {
        let max = std::env::var("MFAPLACE_PLAN_CACHE_MB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(DEFAULT_PLAN_CACHE_BYTES, |mb| mb << 20);
        PlanCache::new(max)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a plan, bumping its recency and the hit/miss counters.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) the plan for `key`, then evicts
    /// least-recently-used entries — never the one just inserted — until
    /// the byte budget holds or only one entry remains.
    pub fn insert(&self, key: PlanKey, plan: Arc<Plan>) {
        let bytes = plan_bytes(&plan);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(
            key.clone(),
            Entry {
                plan,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.max_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.bytes -= evicted.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// Whether `key` is cached, without touching recency or counters.
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.lock().entries.contains_key(key)
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            max_bytes: self.max_bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOptions;
    use crate::quant::{Calibration, QuantOptions};
    use crate::PlanPrecision;
    use mfaplace_autograd::Graph;
    use mfaplace_tensor::Tensor;

    /// A minimal real plan (1x1 conv + relu) whose byte size we can read
    /// back from its stats.
    fn tiny_plan(weight: f32) -> Arc<Plan> {
        let mut g = Graph::new();
        g.set_grad_enabled(false);
        let w = g.param(Tensor::from_vec(vec![1, 1, 1, 1], vec![weight]).unwrap());
        let mark = g.mark();
        let x = g.constant(Tensor::zeros(vec![1, 1, 2, 2]));
        let y = g.conv2d(x, w, 1, 0);
        let y = g.relu(y);
        Arc::new(Plan::capture(&g, mark, x, y, PlanOptions::default()).unwrap())
    }

    fn quantize(plan: &Arc<Plan>) -> Arc<Plan> {
        let input = vec![0.5f32, -1.0, 0.25, 0.75];
        let calib = Calibration::collect(plan, [input.as_slice()]).unwrap();
        Arc::new(plan.quantize(&calib, QuantOptions::default()).unwrap())
    }

    fn key(source: PlanSource, n: usize) -> PlanKey {
        PlanKey::f32(source, vec![n, 1, 2, 2], false)
    }

    fn qkey(source: PlanSource, n: usize) -> PlanKey {
        PlanKey {
            precision: PlanPrecision::Int8,
            ..key(source, n)
        }
    }

    #[test]
    fn hit_miss_and_sharing_by_key() {
        let cache = PlanCache::new(usize::MAX);
        let src = PlanSource::Content(42);
        assert!(cache.get(&key(src, 1)).is_none());
        cache.insert(key(src, 1), tiny_plan(2.0));
        assert!(cache.get(&key(src, 1)).is_some());
        // Different shape and different source both miss.
        assert!(cache.get(&key(src, 2)).is_none());
        assert!(cache.get(&key(PlanSource::Content(43), 1)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 1));
    }

    #[test]
    fn precision_and_fold_are_key_axes() {
        let cache = PlanCache::new(usize::MAX);
        let src = PlanSource::Content(7);
        let plan = tiny_plan(1.5);
        cache.insert(key(src, 1), plan.clone());
        // Same content hash + shape, different precision: distinct entry.
        assert!(cache.get(&qkey(src, 1)).is_none());
        cache.insert(qkey(src, 1), quantize(&plan));
        let q = cache.get(&qkey(src, 1)).expect("int8 entry");
        assert!(q.stats().quant.is_some(), "int8 key holds the int8 plan");
        let f = cache.get(&key(src, 1)).expect("f32 entry untouched");
        assert!(f.stats().quant.is_none(), "f32 key holds the f32 plan");
        // A folded key never resolves to the unfolded plan.
        assert!(cache
            .get(&PlanKey::f32(src, vec![1, 1, 2, 2], true))
            .is_none());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn quant_entries_are_charged_their_own_arena_bytes() {
        // At toy sizes the 64-byte span granularity dominates; the ≤0.5×
        // shrink contract is asserted at real model sizes by the quant
        // tolerance suite. Here we check the cache charges exactly what
        // the quant plan reports.
        let cache = PlanCache::new(usize::MAX);
        let src = PlanSource::Content(9);
        let plan = tiny_plan(2.5);
        let qplan = quantize(&plan);
        cache.insert(key(src, 1), plan.clone());
        let f32_bytes = cache.stats().bytes;
        cache.insert(qkey(src, 1), qplan.clone());
        let both_bytes = cache.stats().bytes;
        let qs = qplan.stats();
        let expected_q = qs.arena_bytes + qs.weight_bytes + qplan.metadata_bytes();
        assert_eq!(both_bytes - f32_bytes, expected_q);
    }

    #[test]
    fn bytes_include_plan_metadata() {
        let cache = PlanCache::new(usize::MAX);
        let plan = tiny_plan(1.0);
        cache.insert(key(PlanSource::Content(1), 1), plan.clone());
        let s = plan.stats();
        assert_eq!(
            cache.stats().bytes,
            s.arena_bytes + s.weight_bytes + plan.metadata_bytes()
        );
        assert!(plan.metadata_bytes() > 0);
    }

    #[test]
    fn lru_eviction_respects_recency_and_keeps_newest() {
        let plan = tiny_plan(1.0);
        let per = plan.stats().arena_bytes + plan.stats().weight_bytes + plan.metadata_bytes();
        assert!(per > 0);
        // Room for exactly two entries.
        let cache = PlanCache::new(2 * per);
        let src = PlanSource::unique();
        cache.insert(key(src, 1), plan.clone());
        cache.insert(key(src, 2), tiny_plan(2.0));
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(cache.get(&key(src, 1)).is_some());
        cache.insert(key(src, 4), tiny_plan(4.0));
        assert!(cache.contains(&key(src, 1)), "recently used must survive");
        assert!(!cache.contains(&key(src, 2)), "LRU entry must be evicted");
        assert!(cache.contains(&key(src, 4)), "newest is never evicted");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.max_bytes);

        // A budget smaller than one entry still admits exactly one.
        let starved = PlanCache::new(1);
        starved.insert(key(src, 1), tiny_plan(1.0));
        starved.insert(key(src, 2), tiny_plan(2.0));
        let s = starved.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        assert!(starved.contains(&key(src, 2)));
    }

    #[test]
    fn mixed_precision_lru_evicts_either_flavour() {
        let plan = tiny_plan(3.0);
        let qplan = quantize(&plan);
        let fb = plan.stats().arena_bytes + plan.stats().weight_bytes + plan.metadata_bytes();
        let qb = qplan.stats().arena_bytes + qplan.stats().weight_bytes + qplan.metadata_bytes();
        let src = PlanSource::unique();
        // Budget fits the f32 plan + quant plan, nothing more.
        let cache = PlanCache::new(fb + qb);
        cache.insert(key(src, 1), plan.clone());
        cache.insert(qkey(src, 1), qplan.clone());
        // Touch the quant entry, then over-fill: the f32 plan is LRU.
        assert!(cache.get(&qkey(src, 1)).is_some());
        cache.insert(key(src, 2), tiny_plan(4.0));
        assert!(!cache.contains(&key(src, 1)), "f32 LRU entry evicted");
        assert!(cache.contains(&qkey(src, 1)), "quant entry survives");
    }

    #[test]
    fn unique_sources_never_collide() {
        let a = PlanSource::unique();
        let b = PlanSource::unique();
        assert_ne!(a, b);
    }
}
