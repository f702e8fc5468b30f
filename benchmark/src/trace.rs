//! Outside-in span recording. The benchmark wraps its own calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `op` ties together the spans of one user-visible
/// operation (a flow, a map, a request, a step); `parent` is the index of
/// the span that caused this one.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A single-threaded span log; times are relative to `epoch`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// The operation id stamped on new spans.
    pub op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.us(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op: self.op,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.stack.last().copied(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Busy time of `name` summed per operation, in ms (one value per op
    /// that has such a span).
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// How many spans called `name` each operation has.
    pub fn per_op_count(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += 1.0;
        }
        by_op.into_values().collect()
    }

    /// A span's self time: its duration minus what its direct children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        (self.spans[id].ms() - children).max(0.0)
    }

    /// For each span called `root`: the share of its duration that its
    /// direct children called anything but `unattributed` cover.
    pub fn coverage(&self, root: &str, unattributed: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.ms() > 0.0)
            .map(|(id, s)| {
                let covered: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id) && c.name != unattributed)
                    .map(Span::ms)
                    .sum();
                covered / s.ms()
            })
            .collect()
    }

    /// Writes `{header..., "spans": [...]}` to `path`, creating its directory.
    pub fn write(&self, path: &Path, header: Vec<(String, Json)>) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("op", Json::Num(s.op as f64)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("self_us", Json::Num(self.self_ms(id) * 1e3)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        let mut doc = header;
        doc.push(("spans".into(), Json::Arr(spans)));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Obj(doc).render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_account_self_time() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.op = 7;
        let root = t.begin("flow");
        t.record("gp", epoch, epoch + Duration::from_millis(30));
        t.record(
            "gp",
            epoch + Duration::from_millis(30),
            epoch + Duration::from_millis(40),
        );
        t.record(
            "observe",
            epoch + Duration::from_millis(40),
            epoch + Duration::from_millis(41),
        );
        let leaf = t.span("route", || 5);
        assert_eq!(leaf, 5);
        t.end(root);
        // Pin the root to a known length so the shares are exact.
        t.spans[root].start_us = 0.0;
        t.spans[root].end_us = 50_000.0;

        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.per_op_ms("gp"), vec![40.0]);
        assert_eq!(t.per_op_count("gp"), vec![2.0]);
        assert_eq!(t.durations_ms("gp").len(), 2);
        let route = t.spans()[4].ms();
        assert!((t.self_ms(root) - (50.0 - 41.0 - route)).abs() < 1e-9);
        let cov = t.coverage("flow", "observe");
        assert!((cov[0] - (40.0 + route) / 50.0).abs() < 1e-9);
    }

    #[test]
    fn written_traces_parse_back() {
        let mut a = Tracer::new(Instant::now());
        a.span("x", || ());
        a.op = 2;
        let outer = a.begin("req");
        a.span("send", || ());
        a.end(outer);
        assert_eq!(a.spans()[2].parent, Some(1));

        let dir = std::env::temp_dir().join(format!("mfa-bench-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        a.write(&path, vec![("workload".into(), Json::str("w"))])
            .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("spans").and_then(Json::as_array).unwrap().len(), 3);
        std::fs::remove_dir_all(dir).ok();
    }
}
