//! What one run takes and gives back, shared by the four workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use mfaplace_autograd::Graph;
use mfaplace_core::dataset::{build_design_dataset, Dataset, DatasetConfig};
use mfaplace_core::train::{TrainConfig, TrainReport, Trainer};
use mfaplace_fpga::design::Design;
use mfaplace_models::{OursConfig, OursModel};
use mfaplace_rt::rng::{SeedableRng, StdRng};

use crate::json::Json;
use crate::stats;
use crate::trace::Tracer;

/// The driver's arguments for one run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub trace: bool,
    /// Tiny sizes for `check.sh`: exercises every path, numbers meaningless.
    pub smoke: bool,
}

/// What a workload hands back.
pub struct Report {
    /// Operations plus verification checks attempted.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Configuration actually in effect (engine served, workers, sizes).
    pub config: Vec<(String, Json)>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            config: Vec::new(),
            tracer: None,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.config.push((key.to_owned(), value));
    }

    /// Notes the latency tail of `samples_ms` at the `wanted` percentile, or
    /// at the highest one the sample count supports. Tails are not
    /// end-to-end metrics: on a shared host their run-to-run spread is wider
    /// than any bound worth enforcing.
    pub fn note_tail(&mut self, samples_ms: &[f64], wanted: u32) {
        let (percentile, value) = stats::tail(samples_ms, wanted);
        self.note("ops_timed", Json::Num(samples_ms.len() as f64));
        self.note("tail_percentile", Json::Num(f64::from(percentile)));
        self.note("op_ms_tail", Json::Num(value));
    }

    /// Counts `n` successful operations.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    /// Counts one verification check; a check that does not hold is a
    /// failed operation.
    pub fn check(&mut self, holds: bool, what: &str) {
        if holds {
            self.attempted += 1;
        } else {
            self.fail(format!("check failed: {what}"));
        }
    }
}

/// Sets up repeatedly, keeps the last state and returns it with the median
/// set-up time in seconds, so one slow start does not decide `setup_s`.
/// Repeats at least [`SETUP_MIN_REPS`] times, and on while the set-ups so far
/// took under [`SETUP_MIN_SECONDS`] in all (up to [`SETUP_MAX_REPS`]): a
/// set-up of a tenth of a second needs more samples than one of two seconds.
/// A smoke run sets up once.
pub fn repeated_setup<S>(smoke: bool, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    loop {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_MAX_REPS
            || (times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_MIN_SECONDS);
        if smoke || enough {
            break;
        }
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 11;
const SETUP_MIN_SECONDS: f64 = 1.5;

/// For a run made of whole rounds: whether to stop after `rounds` of them,
/// i.e. whether another round would overshoot `seconds` by more than
/// stopping now undershoots it.
pub fn rounds_fill(start: Instant, rounds: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + 0.5 * elapsed / rounds.max(1) as f64 >= seconds
}

/// Derives an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mfaplace_rt::rng::SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Labelled samples of `designs` (placer sweep + router labels), pooled.
pub fn build_dataset(designs: &[Design], cfg: &DatasetConfig, seed: u64) -> Dataset {
    let mut pooled = Dataset {
        samples: Vec::new(),
        grid: cfg.grid,
    };
    for (i, design) in designs.iter().enumerate() {
        pooled
            .samples
            .extend(build_design_dataset(design, cfg, sub_seed(seed, 40 + i as u64)).samples);
    }
    pooled
}

/// A fresh `Ours` model under a trainer; the same `seed` gives bitwise the
/// same initial weights and shuffle order.
pub fn fresh_trainer(model: OursConfig, train: TrainConfig, seed: u64) -> Trainer<OursModel> {
    let mut graph = Graph::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let net = OursModel::new(&mut graph, model, &mut rng);
    Trainer::new(graph, net, train)
}

/// Loss of the last epoch of a fit.
pub fn final_loss(report: &TrainReport) -> f32 {
    report.epoch_losses.last().copied().unwrap_or(f32::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfaplace_fpga::design::DesignPreset;
    use mfaplace_fpga::io;

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
        assert_ne!(sub_seed(5, 3), sub_seed(5, 4));
        assert_ne!(sub_seed(5, 3), sub_seed(6, 3));
    }

    /// The inputs a workload builds from `--seed`: the same seed gives the
    /// same design and placement, another seed gives other ones.
    #[test]
    fn generated_inputs_follow_the_seed() {
        let inputs = |seed: u64| {
            let design = DesignPreset::design_116()
                .with_scale(1024, 128, 64)
                .generate(seed);
            let placement = design.random_placement(sub_seed(seed, 100));
            (io::write_design(&design), io::write_placement(&placement))
        };
        assert_eq!(inputs(11), inputs(11));
        let (design_a, placement_a) = inputs(11);
        let (design_b, placement_b) = inputs(12);
        assert_ne!(design_a, design_b);
        assert_ne!(placement_a, placement_b);
    }

    #[test]
    fn repeated_setup_reports_the_median_and_keeps_the_last_state() {
        // An instant set-up is repeated up to the cap; the last state is kept.
        let mut calls = 0;
        let (state, seconds) = repeated_setup(false, || {
            calls += 1;
            calls
        });
        assert_eq!((state, calls), (SETUP_MAX_REPS, SETUP_MAX_REPS));
        assert!((0.0..SETUP_MIN_SECONDS).contains(&seconds));
        // A slow one stops at the minimum count once it has taken long enough.
        let mut calls = 0;
        repeated_setup(false, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_MIN_SECONDS / 2.5));
        });
        assert_eq!(calls, SETUP_MIN_REPS);
        // A smoke run sets up once.
        let mut calls = 0;
        repeated_setup(true, || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn failed_checks_and_ops_are_counted() {
        let mut report = Report::new();
        report.ops(3);
        report.check(true, "holds");
        report.check(false, "does not hold");
        report.fail("an op failed");
        assert_eq!((report.attempted, report.failed), (6, 2));
        assert_eq!(report.failures.len(), 2);
    }
}
