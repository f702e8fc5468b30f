//! RAII scope timers and counters feeding a per-run report.
//!
//! Drop a [`ScopeTimer`] into any block to record its wall time under a
//! label; call [`report`] (text) or [`report_json`] at the end of a run to
//! see where the time went. Counters ([`count`]) track event totals
//! (kernel invocations, cache hits, …) alongside the timings.
//!
//! Recording is on by default and costs one `Instant::now` pair plus a
//! mutex lock per scope — intended for coarse scopes (a training epoch, a
//! routing pass), not inner loops. Only the first record under a label
//! allocates (its registry key); after that a scope or count is
//! allocation-free, which the compiled-plan forward relies on. Set
//! `MFAPLACE_TIMERS=0` to disable recording entirely; any other value also
//! asks for the report at the end of a run ([`report_requested`]).

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Aggregated timing statistics of one scope label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Completed invocations recorded.
    pub calls: u64,
    /// Summed wall time across all invocations.
    pub total: Duration,
    /// Longest single invocation.
    pub max: Duration,
}

type Stat = TimerStat;

struct Registry {
    timers: Mutex<BTreeMap<String, Stat>>,
    counters: Mutex<BTreeMap<String, u64>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        timers: Mutex::new(BTreeMap::new()),
        counters: Mutex::new(BTreeMap::new()),
    })
}

/// Locks one registry map. A panic while another thread held the lock
/// poisons it, but the map only holds plain counters, usable as they are
/// (at worst one record is partly applied), so the guard is recovered
/// instead of making every later record, count and report panic too.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a `MFAPLACE_TIMERS` value asks for, as `(record, report)`: unset
/// records without a report, `0` (surrounding whitespace ignored) does
/// neither, and any other value does both.
fn timers_knob(value: Option<&str>) -> (bool, bool) {
    match value.map(str::trim) {
        None => (true, false),
        Some("0") => (false, false),
        Some(_) => (true, true),
    }
}

/// [`timers_knob`] of this process's `MFAPLACE_TIMERS`, read once.
fn knob() -> (bool, bool) {
    static KNOB: OnceLock<(bool, bool)> = OnceLock::new();
    *KNOB.get_or_init(|| timers_knob(std::env::var("MFAPLACE_TIMERS").ok().as_deref()))
}

fn enabled() -> bool {
    knob().0
}

/// Whether this run asked for the timing report at its end:
/// `MFAPLACE_TIMERS` is set and is not `0`. Recording is on by default;
/// the report is opt-in.
pub fn report_requested() -> bool {
    knob().1
}

/// The entry for `name`, looked up by `&str` so that only the first use of
/// a label copies it.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// Records one completed invocation of `name` taking `dur`.
pub fn record(name: &str, dur: Duration) {
    if !enabled() {
        return;
    }
    let mut timers = lock(&registry().timers);
    let stat = slot(&mut timers, name);
    stat.calls += 1;
    stat.total += dur;
    stat.max = stat.max.max(dur);
}

/// Adds `n` to the counter `name`.
pub fn count(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut counters = lock(&registry().counters);
    *slot(&mut counters, name) += n;
}

/// Clears all recorded timings and counters.
pub fn reset() {
    lock(&registry().timers).clear();
    lock(&registry().counters).clear();
}

/// RAII timer: records the elapsed time under its label on drop.
///
/// ```
/// {
///     let _t = mfaplace_rt::timer::ScopeTimer::new("demo/scope");
///     // … timed work …
/// }
/// assert!(mfaplace_rt::timer::report().contains("demo/scope"));
/// ```
pub struct ScopeTimer<'a> {
    name: &'a str,
    start: Instant,
}

impl<'a> ScopeTimer<'a> {
    /// Starts a timer that reports under `name` when dropped.
    pub fn new(name: &'a str) -> Self {
        ScopeTimer {
            name,
            start: Instant::now(),
        }
    }
}

impl Drop for ScopeTimer<'_> {
    fn drop(&mut self) {
        record(self.name, self.start.elapsed());
    }
}

/// A point-in-time copy of every recorded timer and counter.
///
/// This is the machine-readable export surface: callers that render their
/// own reports (e.g. the serve subsystem's `/metrics` endpoint) take a
/// snapshot instead of parsing [`report`]'s text table.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Timer stats keyed by scope label, in label order.
    pub timers: BTreeMap<String, TimerStat>,
    /// Counter values keyed by counter name, in name order.
    pub counters: BTreeMap<String, u64>,
}

/// Returns a consistent copy of the current timer and counter registries.
pub fn snapshot() -> Snapshot {
    let timers = lock(&registry().timers).clone();
    let counters = lock(&registry().counters).clone();
    Snapshot { timers, counters }
}

/// Per-run report as an aligned text table, timers then counters.
pub fn report() -> String {
    let timers = lock(&registry().timers);
    let counters = lock(&registry().counters);
    let mut out = String::new();
    if !timers.is_empty() {
        out.push_str(&format!(
            "{:<40} {:>10} {:>14} {:>14} {:>14}\n",
            "scope", "calls", "total_ms", "mean_us", "max_us"
        ));
        for (name, s) in timers.iter() {
            let mean_us = s.total.as_micros() as f64 / s.calls.max(1) as f64;
            out.push_str(&format!(
                "{:<40} {:>10} {:>14.3} {:>14.1} {:>14}\n",
                name,
                s.calls,
                s.total.as_secs_f64() * 1e3,
                mean_us,
                s.max.as_micros()
            ));
        }
    }
    if !counters.is_empty() {
        out.push_str(&format!("{:<40} {:>10}\n", "counter", "value"));
        for (name, v) in counters.iter() {
            out.push_str(&format!("{:<40} {:>10}\n", name, v));
        }
    }
    out
}

/// Per-run report as a JSON object:
/// `{"timers": {name: {calls, total_ns, max_ns}}, "counters": {name: value}}`.
pub fn report_json() -> String {
    let timers = lock(&registry().timers);
    let counters = lock(&registry().counters);
    let mut out = String::from("{\"timers\":{");
    for (i, (name, s)) in timers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"calls\":{},\"total_ns\":{},\"max_ns\":{}}}",
            escape(name),
            s.calls,
            s.total.as_nanos(),
            s.max.as_nanos()
        ));
    }
    out.push_str("},\"counters\":{");
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(name), v));
    }
    out.push_str("}}");
    out
}

/// Minimal JSON string escaping for label names.
pub(crate) fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests below mutate the process-global registry (including `reset`),
    /// so they must not interleave.
    fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn scope_timer_records_calls() {
        let _guard = registry_lock();
        reset();
        for _ in 0..3 {
            let _t = ScopeTimer::new("test/scope");
        }
        count("test/events", 5);
        count("test/events", 2);
        let text = report();
        assert!(text.contains("test/scope"), "{text}");
        assert!(text.contains("test/events"), "{text}");
        let json = report_json();
        assert!(json.contains("\"test/scope\":{\"calls\":3"), "{json}");
        assert!(json.contains("\"test/events\":7"), "{json}");
        reset();
        assert!(!report().contains("test/scope"));
    }

    #[test]
    fn snapshot_copies_registries() {
        let _guard = registry_lock();
        reset();
        record("snap/scope", Duration::from_micros(250));
        record("snap/scope", Duration::from_micros(750));
        count("snap/events", 3);
        let snap = snapshot();
        let stat = snap.timers.get("snap/scope").expect("timer present");
        assert_eq!(stat.calls, 2);
        assert_eq!(stat.total, Duration::from_micros(1000));
        assert_eq!(stat.max, Duration::from_micros(750));
        assert_eq!(snap.counters.get("snap/events"), Some(&3));
        // The snapshot is a copy: later mutation must not affect it.
        count("snap/events", 10);
        assert_eq!(snap.counters.get("snap/events"), Some(&3));
        reset();
    }

    #[test]
    fn timers_knob_is_one_rule_for_recording_and_the_report() {
        assert_eq!(timers_knob(None), (true, false));
        for off in ["0", " 0", "0\n", "\t0 "] {
            assert_eq!(timers_knob(Some(off)), (false, false), "{off:?}");
        }
        for on in ["1", " 1", "yes", ""] {
            assert_eq!(timers_knob(Some(on)), (true, true), "{on:?}");
        }
    }

    #[test]
    fn a_poisoned_registry_keeps_recording() {
        let _guard = registry_lock();
        let poisoner = std::thread::spawn(|| {
            let _timers = lock(&registry().timers);
            let _counters = lock(&registry().counters);
            panic!("poison the timer registry");
        });
        assert!(poisoner.join().is_err());
        assert!(registry().timers.is_poisoned() && registry().counters.is_poisoned());
        reset();
        record("poison/scope", Duration::from_micros(40));
        count("poison/events", 2);
        let snap = snapshot();
        assert_eq!(snap.timers.get("poison/scope").map(|s| s.calls), Some(1));
        assert_eq!(snap.counters.get("poison/events"), Some(&2));
        assert!(report().contains("poison/scope"));
        reset();
        assert!(snapshot().timers.is_empty() && snapshot().counters.is_empty());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
