//! Order statistics for the report: percentiles, the tail-percentile picker
//! and the run-to-run spread `repeat.sh` compares against each bound.

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Linear-interpolated percentile `p` (0..=100) of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Median of `reps` timed calls of `f`, in ms, after one untimed call.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` when not even the median does (`n < 20`),
/// in which case no tail may be reported.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// The tail a workload reports: its fixed `wanted` percentile when the
/// sample supports it, else the highest supported one, else the median
/// (an under-sampled run must not publish a percentile it cannot back).
/// Returns `(percentile used, value)`.
pub fn tail(samples: &[f64], wanted: u32) -> (u32, f64) {
    let p = supported_tail(samples.len()).map_or(50, |s| s.min(wanted));
    (p, percentile(samples, f64::from(p)))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the statistic the driver holds each bound against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3) - q(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None, "refuses below 20 samples");
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(39), Some(50));
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(999), Some(95));
        assert_eq!(supported_tail(1000), Some(99));
    }

    #[test]
    fn tail_never_exceeds_what_the_sample_supports() {
        let few: Vec<f64> = (0..9).map(f64::from).collect();
        assert_eq!(tail(&few, 95), (50, 4.0), "under-sampled: the median");
        let some: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&some, 95).0, 75);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many, 95).0, 95, "fixed percentile once supported");
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
