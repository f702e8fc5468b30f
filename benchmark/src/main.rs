//! The repo benchmark: four end-to-end workloads (place, hi-res map, serve,
//! train) with outside-in per-layer tracing. See `README.md` beside this
//! package for the metric tables and how to read the output.
//!
//! One run is `--workload W --seed N --seconds S --trace 0|1`; its last
//! stdout line is the result object. Without `--workload`, every workload
//! runs in a fresh child process, untraced then traced, so peak RSS and
//! per-process latched knobs cannot leak between them.

mod host;
mod json;
mod openloop;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;
use run::{Report, RunArgs};

const USAGE: &str = "usage: mfaplace-benchmark [--workload place_suite|map_hires|serve_mix|train_epochs] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] | --repeat RUNS [--seed N] [--seconds S] | --print-benchmark-json";

/// `run_seconds` of `BENCHMARK.json`, and the default for `--seconds`.
const RUN_SECONDS: u32 = 20;

struct Cli {
    workload: Option<String>,
    args: RunArgs,
    print_benchmark_json: bool,
    /// `--repeat RUNS`: the two-set steadiness check.
    repeat: Option<usize>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            smoke: false,
        },
        print_benchmark_json: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => cli.args.smoke = true,
            "--repeat" => {
                cli.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?);
                if cli.repeat < Some(2) {
                    return Err("--repeat needs at least 2 runs per set".into());
                }
            }
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !spec::WORKLOADS.iter().any(|d| d.name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    // First, before any thread exists or any crate latches a knob.
    let scrubbed = host::scrub_env();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        println!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    match (&cli.workload, cli.repeat) {
        (Some(workload), _) => run_one(workload, &cli.args, &scrubbed),
        (None, Some(runs)) => run_repeat(&cli.args, runs),
        (None, None) => run_all(&cli.args),
    }
}

/// The metric block of one run: every metric of the run's kind, by name,
/// with its unit. A per-layer metric another workload fills reads 0 here.
fn metric_block(workload: &str, trace: bool, report: &Report) -> Result<Json, String> {
    let entry = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let mut out = Vec::new();
    if trace {
        for m in spec::PER_LAYER {
            let value = match report.metrics.get(m.name) {
                Some(v) => *v,
                None if m.workload == workload => {
                    return Err(format!("per-layer metric {} was not measured", m.name))
                }
                None => 0.0,
            };
            out.push((m.name.to_owned(), entry(value, m.unit)));
        }
    } else {
        for m in spec::END_TO_END {
            let value = *report
                .metrics
                .get(m.name)
                .ok_or(format!("end-to-end metric {} was not measured", m.name))?;
            out.push((m.name.to_owned(), entry(value, m.unit)));
        }
    }
    if let Some(bad) = out.iter().find(|(_, v)| {
        !v.get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
    }) {
        return Err(format!("metric {} is not a finite number", bad.0));
    }
    Ok(Json::Obj(out))
}

fn run_one(workload: &str, args: &RunArgs, scrubbed: &[String]) -> ExitCode {
    let mut report = workloads::run(workload, args);
    let metrics = match metric_block(workload, args.trace, &report) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark bug: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut header = vec![
        ("workload".to_owned(), Json::str(workload)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("smoke".to_owned(), Json::Bool(args.smoke)),
    ];
    header.extend(host::host_block(args.seed, scrubbed));
    header.push(("config".to_owned(), Json::Obj(report.config.clone())));
    // A smoke run's numbers mean nothing; only its failures are worth a line.
    if let Some(pairs) = metrics.as_object().filter(|_| !args.smoke) {
        eprintln!("{}", Json::Obj(header.clone()).render());
        let foreign = |name: &str| {
            spec::PER_LAYER
                .iter()
                .any(|m| m.name == name && m.workload != workload)
        };
        for (name, v) in pairs.iter().filter(|(name, _)| !foreign(name)) {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
    }
    for failure in &report.failures {
        eprintln!("  FAILED: {failure}");
    }
    if let Some(tracer) = report.tracer.take() {
        header.push(("metrics".to_owned(), metrics.clone()));
        let path = host::out_dir().join(format!("trace-{workload}.json"));
        match tracer.write(&path, header) {
            Ok(()) => eprintln!("  {} spans -> {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
    }

    let result = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            if args.smoke {
                Json::Obj(Vec::new())
            } else {
                metrics
            },
        ),
    ]);
    println!("{}", result.render());
    if args.smoke && report.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs one workload in a fresh child process and returns its result
/// object. The child's stderr (host block, metric table) passes through
/// unless `quiet`.
fn child_run(workload: &str, trace: bool, args: &RunArgs, quiet: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !quiet {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .filter(|_| out.status.success())
        .ok_or(format!(
            "{workload} --trace {}: no result ({})",
            u8::from(trace),
            out.status
        ))
}

/// Runs every workload in a fresh child process, untraced then traced, and
/// prints one result line per run: `{"workload", "trace", ...result}`.
fn run_all(args: &RunArgs) -> ExitCode {
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        for trace in [false, true] {
            match child_run(w.name, trace, args, false) {
                Ok(result) => {
                    all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    let mut line = vec![
                        ("workload".to_owned(), Json::str(w.name)),
                        ("trace".to_owned(), Json::Bool(trace)),
                    ];
                    line.extend(result.as_object().unwrap_or_default().iter().cloned());
                    println!("{}", Json::Obj(line).render());
                }
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                }
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The driver's acceptance test, run locally: two sets of `runs` untraced
/// runs per workload, run `k` of each set with seed `seed + k`. Prints, per
/// workload and end-to-end metric, each set's median and quartile spread and
/// how much worse the second median is, against the metric's bound.
fn run_repeat(args: &RunArgs, runs: usize) -> ExitCode {
    let mut within = true;
    println!(
        "{:<13} {:<13} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "worse", "bound"
    );
    for w in spec::WORKLOADS {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); spec::END_TO_END.len()]; 2];
        for set in values.iter_mut() {
            for k in 0..runs {
                let run = RunArgs {
                    seed: args.seed + k as u64,
                    ..*args
                };
                let result = match child_run(w.name, false, &run, true) {
                    Ok(r) if r.get("correct").and_then(Json::as_bool) == Some(true) => r,
                    Ok(_) => {
                        eprintln!("{} seed {}: incorrect result", w.name, run.seed);
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (m, column) in spec::END_TO_END.iter().zip(set.iter_mut()) {
                    let value = result
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64);
                    column.push(value.unwrap_or(f64::NAN));
                }
                let row: Vec<String> = set.iter().map(|c| format!("{:.4}", c[k])).collect();
                eprintln!("{} seed {}: {}", w.name, run.seed, row.join(" "));
            }
        }
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            let (med1, med2) = (stats::median(&values[0][i]), stats::median(&values[1][i]));
            let (sp1, sp2) = (
                stats::quartile_spread(&values[0][i]),
                stats::quartile_spread(&values[1][i]),
            );
            let worse = match m.better {
                spec::Better::Lower => (med2 - med1) / med1,
                spec::Better::Higher => (med1 - med2) / med1,
            };
            // The set-up time's spread is not held to its bound, its drift is.
            let steady = m.name == "setup_s" || sp1.max(sp2) <= m.bound;
            let ok = steady && worse <= m.bound;
            within &= ok;
            println!(
                "{:<13} {:<13} {med1:>12.4} {med2:>12.4} {sp1:>8.4} {sp2:>8.4} {worse:>8.4} {:>6.2}  {}",
                w.name,
                m.name,
                m.bound,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` as the registry in `spec` defines it.
fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = Json::obj([
        ("command", strs(&command)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                spec::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.pretty()
}
