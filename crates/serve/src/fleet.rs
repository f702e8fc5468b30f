//! The model fleet: N independently hot-swappable [`ModelSlot`]s behind
//! one registry, each with its own micro-batcher, worker thread, queue
//! bound and deadline class, all compiling inference plans into one
//! shared, byte-bounded [`PlanCache`].
//!
//! Routing: requests name a slot via the `x-mfaplace-model` header or a
//! `/models/<name>/…` path; requests naming nothing go to the *default*
//! slot (the first one added), which is what keeps single-model
//! deployments wire-compatible. Admission control is per slot — one
//! tenant's full queue rejects only that tenant's requests, and reloading
//! or removing one slot never blocks another slot's worker (each slot has
//! its own state lock and thread).
//!
//! Plan/weight sharing: every slot loads through the fleet's [`PlanCache`]
//! keyed by checkpoint *content hash*, so two slots serving byte-identical
//! files share one compiled plan set instead of duplicating it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use mfaplace_core::loader::LoadOptions;
use mfaplace_core::PlanCache;

use crate::batcher::{BatchConfig, Batcher, ModelSlot};
use crate::metrics::{plan_cache_source, Metrics};

/// Per-tenant admission-control knobs for one slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotLimits {
    /// Queue bound override; `None` uses the fleet's [`BatchConfig`].
    pub queue_bound: Option<usize>,
    /// Deadline class: default per-request deadline for requests to this
    /// slot that carry no `x-mfaplace-deadline-ms` header. `None` falls
    /// back to the server-wide default.
    pub default_deadline: Option<Duration>,
}

/// One registered slot: the model, its dedicated batcher and worker.
pub struct FleetSlot {
    slot: Arc<ModelSlot>,
    batcher: Arc<Batcher>,
    default_deadline: Option<Duration>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for FleetSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSlot")
            .field("name", &self.name())
            .field("default_deadline", &self.default_deadline)
            .finish_non_exhaustive()
    }
}

impl FleetSlot {
    /// The slot's routing name.
    pub fn name(&self) -> &str {
        self.slot.name()
    }

    /// The hot-swappable model.
    pub fn slot(&self) -> &Arc<ModelSlot> {
        &self.slot
    }

    /// The slot's request queue.
    pub fn batcher(&self) -> &Arc<Batcher> {
        &self.batcher
    }

    /// This slot's deadline class, if configured.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.default_deadline
    }

    fn drain_and_join(&self) {
        self.batcher.shutdown();
        let handle = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

#[derive(Default)]
struct FleetInner {
    slots: BTreeMap<String, Arc<FleetSlot>>,
    default_name: Option<String>,
}

/// The registry mapping routing keys to live slots.
pub struct ModelFleet {
    inner: RwLock<FleetInner>,
    metrics: Arc<Metrics>,
    plan_cache: Arc<PlanCache>,
    batch_cfg: BatchConfig,
}

impl ModelFleet {
    /// Creates an empty fleet whose slots share one environment-sized plan
    /// cache and inherit `batch_cfg` (modulo per-slot queue overrides).
    pub fn new(metrics: Arc<Metrics>, batch_cfg: BatchConfig) -> Self {
        Self::with_plan_cache(metrics, batch_cfg, Arc::new(PlanCache::from_env()))
    }

    /// Like [`ModelFleet::new`] with an explicit shared plan cache, whose
    /// counters every `/metrics` scrape reads.
    pub fn with_plan_cache(
        metrics: Arc<Metrics>,
        batch_cfg: BatchConfig,
        plan_cache: Arc<PlanCache>,
    ) -> Self {
        metrics.register_external(plan_cache_source(&plan_cache));
        ModelFleet {
            inner: RwLock::new(FleetInner::default()),
            metrics,
            plan_cache,
            batch_cfg,
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The shared compiled-plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The batching configuration new slots inherit.
    pub fn batch_config(&self) -> &BatchConfig {
        &self.batch_cfg
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, FleetInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, FleetInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Loads the checkpoint at `path` and registers it as slot `name`,
    /// spawning its worker thread. The first slot added becomes the
    /// default routing target.
    ///
    /// # Errors
    ///
    /// Rejects invalid or duplicate names and checkpoint load failures,
    /// leaving the fleet unchanged.
    pub fn add_slot(
        &self,
        name: &str,
        path: &str,
        opts: LoadOptions,
        limits: SlotLimits,
    ) -> Result<Arc<FleetSlot>, String> {
        validate_slot_name(name)?;
        if self.read().slots.contains_key(name) {
            return Err(format!("slot {name:?} already exists"));
        }
        // Load outside the registry lock: a slow checkpoint read must not
        // stall routing. The duplicate check re-runs at insert time.
        let slot = ModelSlot::load_named(name, path, opts, self.plan_cache.clone())?;
        self.install_slot(slot, limits)
    }

    /// Registers an already-built `slot` (tests, single-model back-compat
    /// path) under its own name and spawns its worker thread.
    ///
    /// # Errors
    ///
    /// Rejects invalid or duplicate names.
    pub fn install_slot(
        &self,
        slot: ModelSlot,
        limits: SlotLimits,
    ) -> Result<Arc<FleetSlot>, String> {
        let name = slot.name().to_owned();
        validate_slot_name(&name)?;
        let mut cfg = self.batch_cfg;
        if let Some(bound) = limits.queue_bound {
            cfg.queue_bound = bound.max(1);
        }
        // Everything from the duplicate check to the insert happens under
        // the registry lock, so a concurrent add of the same name can
        // neither take over the winner's metric series nor leave a worker
        // behind.
        let mut inner = self.write();
        if inner.slots.contains_key(&name) {
            return Err(format!("slot {name:?} already exists"));
        }
        let batcher = Arc::new(Batcher::for_slot(cfg, slot.register(&self.metrics)));
        let slot = Arc::new(slot);
        let worker = {
            let slot = slot.clone();
            let batcher = batcher.clone();
            std::thread::Builder::new()
                .name(format!("mfaplace-serve-{name}"))
                .spawn(move || batcher.run_worker(&slot))
                .map_err(|e| {
                    self.metrics.remove_slot(&name);
                    format!("spawn worker for slot {name:?}: {e}")
                })?
        };
        let fleet_slot = Arc::new(FleetSlot {
            slot,
            batcher,
            default_deadline: limits.default_deadline,
            worker: Mutex::new(Some(worker)),
        });
        inner.slots.insert(name.clone(), fleet_slot.clone());
        if inner.default_name.is_none() {
            inner.default_name = Some(name);
        }
        Ok(fleet_slot)
    }

    /// Resolves a routing key to a live slot; `None` means the default
    /// slot.
    ///
    /// # Errors
    ///
    /// Returns the distinct unknown-slot message (the server's 404 body)
    /// naming the requested key and the loaded slots.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<FleetSlot>, String> {
        let inner = self.read();
        let key = match name {
            Some(n) => n,
            None => inner
                .default_name
                .as_deref()
                .ok_or_else(|| unknown_slot_message("<default>", &inner.slots))?,
        };
        inner
            .slots
            .get(key)
            .cloned()
            .ok_or_else(|| unknown_slot_message(key, &inner.slots))
    }

    /// The registered slot names, in routing order.
    pub fn names(&self) -> Vec<String> {
        self.read().slots.keys().cloned().collect()
    }

    /// The default routing target's name, if any slot is registered.
    pub fn default_name(&self) -> Option<String> {
        self.read().default_name.clone()
    }

    /// Deregisters slot `name`, drops its metric series, drains its queue
    /// (already-accepted jobs are answered) and joins its worker. Other
    /// slots are untouched.
    ///
    /// # Errors
    ///
    /// Refuses to remove the default slot (it anchors unnamed-request
    /// routing) or a slot that does not exist.
    pub fn remove_slot(&self, name: &str) -> Result<(), String> {
        let removed = {
            let mut inner = self.write();
            if inner.default_name.as_deref() == Some(name) {
                return Err(format!(
                    "slot {name:?} is the default slot and cannot be removed"
                ));
            }
            let Some(removed) = inner.slots.remove(name) else {
                return Err(unknown_slot_message(name, &inner.slots));
            };
            // Still under the registry lock, so a re-add of the same name
            // registers its series strictly after this drop.
            self.metrics.remove_slot(name);
            removed
        };
        // Drain outside the registry lock: routing stays live while the
        // removed slot answers its tail.
        removed.drain_and_join();
        Ok(())
    }

    /// Hot-swaps slot `name` to the checkpoint at `path`. Only that slot's
    /// state lock is taken; in-flight requests on other slots never wait.
    ///
    /// # Errors
    ///
    /// Unknown slot, unreadable checkpoint, or grid mismatch (the old
    /// model keeps serving in the latter two cases).
    pub fn reload_slot(
        &self,
        name: Option<&str>,
        path: &str,
        opts: LoadOptions,
    ) -> Result<(String, u64, mfaplace_models::ArchSpec), String> {
        let slot = self.resolve(name)?;
        let (version, spec) = slot.slot().reload(path, opts)?;
        Ok((slot.name().to_owned(), version, spec))
    }

    /// Drains every slot and joins every worker — the shutdown barrier.
    pub fn shutdown(&self) {
        let slots: Vec<Arc<FleetSlot>> = self.read().slots.values().cloned().collect();
        // Stop all queues first so slots drain concurrently, then join.
        for s in &slots {
            s.batcher().shutdown();
        }
        for s in &slots {
            s.drain_and_join();
        }
    }
}

fn unknown_slot_message(name: &str, slots: &BTreeMap<String, Arc<FleetSlot>>) -> String {
    let loaded: Vec<&str> = slots.keys().map(String::as_str).collect();
    if loaded.is_empty() {
        format!("no such model slot {name:?}; no slots are loaded")
    } else {
        format!(
            "no such model slot {name:?}; loaded slots: {}",
            loaded.join(", ")
        )
    }
}

/// Slot names travel in URLs, headers and metric labels, so restrict them
/// to a safe charset.
fn validate_slot_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("slot name must be 1..=64 characters".into());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(format!(
            "slot name {name:?} may only contain ASCII letters, digits, '-', '_' and '.'"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_core::loader::init_checkpoint;
    use mfaplace_models::{Arch, ArchSpec};

    fn temp_ckpt(name: &str, seed: u64) -> String {
        let dir = std::env::temp_dir().join("mfaplace_fleet_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).to_string_lossy().into_owned();
        let mut spec = ArchSpec::new(Arch::UNet, 16);
        spec.base_channels = 2;
        init_checkpoint(&spec, seed, &path).unwrap();
        path
    }

    #[test]
    fn add_resolve_remove_lifecycle() {
        let metrics = Arc::new(Metrics::new());
        let fleet = ModelFleet::new(metrics, BatchConfig::default());
        let a = temp_ckpt("fleet_a.mfaw", 1);
        let b = temp_ckpt("fleet_b.mfaw", 2);

        fleet
            .add_slot("alpha", &a, LoadOptions::default(), SlotLimits::default())
            .unwrap();
        fleet
            .add_slot("beta", &b, LoadOptions::default(), SlotLimits::default())
            .unwrap();
        assert_eq!(fleet.names(), vec!["alpha", "beta"]);
        assert_eq!(fleet.default_name().as_deref(), Some("alpha"));

        // Unnamed resolution goes to the default (first-added) slot.
        assert_eq!(fleet.resolve(None).unwrap().name(), "alpha");
        assert_eq!(fleet.resolve(Some("beta")).unwrap().name(), "beta");
        let err = fleet.resolve(Some("gamma")).unwrap_err();
        assert!(err.contains("no such model slot \"gamma\""), "{err}");
        assert!(err.contains("alpha, beta"), "{err}");

        // Duplicate and invalid names are rejected.
        let err = fleet
            .add_slot("beta", &b, LoadOptions::default(), SlotLimits::default())
            .unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        let err = fleet
            .add_slot(
                "bad name",
                &b,
                LoadOptions::default(),
                SlotLimits::default(),
            )
            .unwrap_err();
        assert!(err.contains("may only contain"), "{err}");

        // The default slot is protected; others remove cleanly.
        assert!(fleet.remove_slot("alpha").is_err());
        fleet.remove_slot("beta").unwrap();
        assert_eq!(fleet.names(), vec!["alpha"]);
        assert!(fleet.resolve(Some("beta")).is_err());

        fleet.shutdown();
    }

    #[test]
    fn slots_from_one_file_share_the_plan_cache() {
        let metrics = Arc::new(Metrics::new());
        let fleet = ModelFleet::new(metrics, BatchConfig::default());
        let a = temp_ckpt("fleet_shared.mfaw", 3);
        let one = fleet
            .add_slot("one", &a, LoadOptions::default(), SlotLimits::default())
            .unwrap();
        let two = fleet
            .add_slot("two", &a, LoadOptions::default(), SlotLimits::default())
            .unwrap();
        assert!(Arc::ptr_eq(
            one.slot().plan_cache(),
            two.slot().plan_cache()
        ));
        assert!(Arc::ptr_eq(one.slot().plan_cache(), fleet.plan_cache()));
        fleet.shutdown();
    }
}
