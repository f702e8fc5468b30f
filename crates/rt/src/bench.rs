//! Self-contained microbenchmark harness on `std::time::Instant`.
//!
//! Replaces the former `criterion` benches: each benchmark runs a warmup
//! phase, then `samples` timed samples (each sample auto-batched so it
//! lasts long enough for the clock to resolve), and reports the median,
//! mean and min/max per-iteration time. Results accumulate in a
//! [`Suite`] and serialize to a small stable JSON schema next to the other
//! artifacts under `results/`.
//!
//! ```
//! let mut suite = mfaplace_rt::bench::Suite::new("doc");
//! suite.run("noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
//! assert_eq!(suite.results().len(), 1);
//! ```

use std::time::Instant;

use crate::timer::escape;

/// Timing statistics for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark label, e.g. `"inference/unet"`.
    pub name: String,
    /// Timed samples collected.
    pub samples: usize,
    /// Iterations batched into each sample.
    pub iters_per_sample: u64,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time.
    pub max_ns: f64,
    /// Peak resident set size (`VmHWM`) observed over this benchmark's
    /// samples, in bytes. `None` when the platform does not expose
    /// `/proc/self/status` / `/proc/self/clear_refs`.
    pub peak_rss_bytes: Option<u64>,
}

/// Resets the kernel's peak-RSS watermark for this process (writes `"5"` to
/// `/proc/self/clear_refs`). Returns `false` when unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` when unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Passed to the benchmark closure; call [`Bencher::iter`] exactly once.
pub struct Bencher {
    warmup: usize,
    samples: usize,
    result: Option<(u64, Vec<f64>)>,
}

impl Bencher {
    /// Measures `f`, auto-batching iterations per sample so that a sample
    /// lasts at least ~1 ms.
    pub fn iter<T>(&mut self, f: impl FnMut() -> T) {
        // Warmup also calibrates the batch size.
        let mut one = f;
        let calib = Instant::now();
        for _ in 0..self.warmup.max(1) {
            std::hint::black_box(one());
        }
        let per_call = calib.elapsed().as_nanos() as f64 / self.warmup.max(1) as f64;
        const TARGET_SAMPLE_NS: f64 = 1_000_000.0;
        let iters = if per_call >= TARGET_SAMPLE_NS {
            1
        } else {
            (TARGET_SAMPLE_NS / per_call.max(1.0)).ceil() as u64
        };
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(one());
            }
            times.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some((iters, times));
    }
}

/// A named collection of benchmark results.
pub struct Suite {
    name: String,
    warmup: usize,
    samples: usize,
    results: Vec<BenchResult>,
}

impl Suite {
    /// Creates a suite with the default warmup (3 calls) and sample count (10).
    pub fn new(name: &str) -> Self {
        Suite {
            name: name.to_owned(),
            warmup: 3,
            samples: 10,
            results: Vec::new(),
        }
    }

    /// Overrides warmup calls and timed sample count.
    pub fn with_config(mut self, warmup: usize, samples: usize) -> Self {
        self.warmup = warmup.max(1);
        self.samples = samples.max(1);
        self
    }

    /// Runs one benchmark; `f` must call [`Bencher::iter`].
    pub fn run(&mut self, label: &str, f: impl FnOnce(&mut Bencher)) -> &BenchResult {
        let mut bencher = Bencher {
            warmup: self.warmup,
            samples: self.samples,
            result: None,
        };
        // Reset the watermark so the sampled peak is attributable to this
        // benchmark rather than whatever ran before it in the process.
        let rss_supported = reset_peak_rss();
        f(&mut bencher);
        let peak_rss = if rss_supported {
            peak_rss_bytes()
        } else {
            None
        };
        let (iters, mut times) = bencher
            .result
            .expect("benchmark closure must call Bencher::iter");
        times.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timing"));
        let median = if times.len() % 2 == 1 {
            times[times.len() / 2]
        } else {
            (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2.0
        };
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let result = BenchResult {
            name: label.to_owned(),
            samples: times.len(),
            iters_per_sample: iters,
            median_ns: median,
            mean_ns: mean,
            min_ns: *times.first().expect("at least one sample"),
            max_ns: *times.last().expect("at least one sample"),
            peak_rss_bytes: peak_rss,
        };
        let rss = result.peak_rss_bytes.map_or_else(
            || "n/a".to_owned(),
            |b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
        );
        eprintln!(
            "bench {label:<40} median {:>12.1} ns  mean {:>12.1} ns  peak rss {rss:>10}  ({} samples x {} iters)",
            result.median_ns, result.mean_ns, result.samples, result.iters_per_sample
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// JSON document:
    /// `{"suite": name, "benchmarks": [{name, samples, iters_per_sample,
    /// median_ns, mean_ns, min_ns, max_ns, peak_rss_bytes}]}`
    /// (`peak_rss_bytes` is `null` where the platform cannot report it).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"suite\":\"{}\",\"benchmarks\":[", escape(&self.name));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"samples\":{},\"iters_per_sample\":{},\
                 \"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\
                 \"peak_rss_bytes\":{}}}",
                escape(&r.name),
                r.samples,
                r.iters_per_sample,
                r.median_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                r.peak_rss_bytes
                    .map_or_else(|| "null".to_owned(), |b| b.to_string())
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_records_sane_stats() {
        let mut suite = Suite::new("unit").with_config(2, 5);
        suite.run("spin", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(i * i);
                }
                acc
            })
        });
        let r = &suite.results()[0];
        assert_eq!(r.samples, 5);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.median_ns > 0.0);
        let json = suite.to_json();
        assert!(json.starts_with("{\"suite\":\"unit\""), "{json}");
        assert!(json.contains("\"name\":\"spin\""), "{json}");
        assert!(json.contains("\"peak_rss_bytes\":"), "{json}");
        assert!(!json.contains("  "), "{json}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_sampling_works_on_linux() {
        assert!(reset_peak_rss());
        // Touch a few MiB so the watermark is visibly nonzero.
        let buf = vec![1u8; 4 << 20];
        std::hint::black_box(&buf);
        let peak = peak_rss_bytes().expect("VmHWM available on linux");
        assert!(peak > 0, "peak rss should be positive, got {peak}");
    }
}
