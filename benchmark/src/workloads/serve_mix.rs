//! `serve_mix` — the inference service under load, in-process: one fleet
//! slot (Ours, grid 32), the default `BatchConfig`, the jobs extension
//! mounted as `mfaplace serve` does.
//!
//! Phase `open`: **open loop**, seeded Poisson arrivals at 100 req/s, a 3:1
//! mix of `POST /predict` (binary features) and `POST /predict/design` (text
//! design + placement), timed from each request's due time. Phase `closed`:
//! two closed-loop clients on `/predict`. A refused, failed or wrong reply is
//! a failed operation; replies later than 250 ms are counted per phase.
//!
//! The only workload with queueing and waiting: HTTP parse, connection
//! set-up, the queue, the 2 ms batch window and encode dominate a request,
//! so a batching/HTTP change shows here and nowhere else, and a kernel
//! change that adds per-call dispatch cost shows here as a loss.

use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mfaplace_core::loader::{init_checkpoint, load_predictor, LoadOptions};
use mfaplace_core::predictor::ModelPredictor;
use mfaplace_fpga::design::DesignPreset;
use mfaplace_fpga::features::FeatureStack;
use mfaplace_fpga::io;
use mfaplace_jobs::{JobEngine, JobsConfig, JobsExtension};
use mfaplace_models::{AnyModel, Arch, ArchSpec};
use mfaplace_serve::{
    client, http, protocol, serve_fleet_with, BatchConfig, Metrics, ModelFleet, ServeConfig,
    ServerHandle, SlotLimits,
};
use mfaplace_tensor::Tensor;

use crate::host;
use crate::json::Json;
use crate::openloop::{self, Arrival, Sample};
use crate::run::{self, Report, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// The percentile the `/predict` tail is taken at (needs ≥ 200 requests).
const TAIL: u32 = 95;
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 100.0;
/// Share of the mix that is `/predict/design`.
const DESIGN_SHARE: f64 = 0.25;
/// A reply later than this is counted as late in its phase's note.
const LATE_MS: f64 = 250.0;
/// The latency limit the rate ladder holds the p95 to.
const LADDER_P95_MS: f64 = 25.0;
const LADDER_RATES: [f64; 5] = [60.0, 100.0, 140.0, 180.0, 220.0];
/// Request kinds of the mix, by `Arrival::kind`.
const PREDICT: usize = 0;
const DESIGN: usize = 1;

struct Sizes {
    spec: ArchSpec,
    scale: (usize, usize, usize),
    job_scale: (usize, usize, usize),
    feature_inputs: usize,
    design_inputs: usize,
}

impl Sizes {
    fn of(args: &RunArgs) -> Sizes {
        let mut spec = ArchSpec::new(Arch::Ours, 32);
        let small = (1024, 128, 64);
        if args.smoke {
            spec.grid = 16;
            spec.base_channels = 4;
            spec.vit_layers = 1;
            Sizes {
                spec,
                scale: small,
                job_scale: small,
                feature_inputs: 4,
                design_inputs: 2,
            }
        } else {
            Sizes {
                spec,
                scale: (256, 64, 32),
                job_scale: (512, 64, 32),
                feature_inputs: 16,
                design_inputs: 4,
            }
        }
    }
}

/// One prepared request and the reply it must get.
struct Prepared {
    path: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
    features: Tensor,
    expected: Vec<u32>,
}

struct State {
    server: Option<ServerHandle>,
    addr: String,
    checkpoint: String,
    /// Prepared inputs by request kind.
    inputs: [Vec<Prepared>; 2],
    job_body: String,
    senders: usize,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        std::fs::remove_file(&self.checkpoint).ok();
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn predict_one(local: &mut ModelPredictor<AnyModel>, x: &Tensor) -> Tensor {
    local
        .predict_batch_tensors(std::slice::from_ref(x))
        .pop()
        .expect("one output per input")
}

/// Set-up: write a checkpoint, start the server on it the way `mfaplace
/// serve` does, build the seeded request inputs with the replies a local
/// single-sample predictor gives, and compile the batch-bucket plans.
fn setup(seed: u64, sizes: &Sizes) -> State {
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    let checkpoint = dir.join("serve_mix.mfaw").to_string_lossy().into_owned();
    init_checkpoint(&sizes.spec, run::sub_seed(seed, 1), &checkpoint).expect("init checkpoint");

    let metrics = Arc::new(Metrics::new());
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let fleet = Arc::new(ModelFleet::new(metrics.clone(), cfg.batch));
    fleet
        .add_slot(
            "default",
            &checkpoint,
            LoadOptions::default(),
            SlotLimits::default(),
        )
        .expect("add the default slot");
    let engine = JobEngine::start(Arc::clone(&fleet), JobsConfig::from_env());
    engine.register_metrics(&metrics);
    let server = serve_fleet_with(
        Arc::clone(&fleet),
        metrics,
        cfg,
        vec![Arc::new(JobsExtension::new(engine))],
    )
    .expect("bind a loopback port");
    let addr = server.addr().to_string();

    let (_, mut local) = load_predictor(&checkpoint, LoadOptions::default()).expect("load");
    let grid = sizes.spec.grid;
    let (c, d, b) = sizes.scale;
    let design = DesignPreset::design_116()
        .with_scale(c, d, b)
        .generate(seed);
    let design_text = io::write_design(&design);
    let mut prepare = |kind: usize, i: usize| {
        let placement =
            design.random_placement(run::sub_seed(seed, 100 * (kind as u64 + 1) + i as u64));
        if kind == PREDICT {
            let features = FeatureStack::extract(&design, &placement, grid, grid).to_tensor();
            Prepared {
                path: "/predict",
                content_type: "application/octet-stream",
                body: protocol::encode_features(&features),
                expected: bits(&predict_one(&mut local, &features)),
                features,
            }
        } else {
            let body =
                protocol::encode_design_request(&design_text, &io::write_placement(&placement));
            // The server sees the text, so the reference must too.
            let features =
                protocol::featurize_design_request(&body, grid).expect("own design text");
            Prepared {
                path: "/predict/design",
                content_type: "text/plain",
                body: body.into_bytes(),
                expected: bits(&predict_one(&mut local, &features)),
                features,
            }
        }
    };
    let inputs = [
        (0..sizes.feature_inputs)
            .map(|i| prepare(PREDICT, i))
            .collect::<Vec<_>>(),
        (0..sizes.design_inputs)
            .map(|i| prepare(DESIGN, i))
            .collect::<Vec<_>>(),
    ];

    // Compile the plan of every batch bucket the default config can form,
    // so no request pays a capture.
    let slot = fleet.resolve(None).expect("default slot");
    let max_batch = fleet.batch_config().max_batch;
    let warm: Vec<Tensor> = (0..max_batch)
        .map(|i| inputs[PREDICT][i % inputs[PREDICT].len()].features.clone())
        .collect();
    for n in [1, 2, 4, max_batch] {
        slot.slot()
            .predict_batch(&warm[..n.min(max_batch)])
            .expect("warm-up forward");
    }

    let (c, d, b) = sizes.job_scale;
    let job_design = DesignPreset::design_116()
        .with_scale(c, d, b)
        .generate(seed);
    State {
        server: Some(server),
        addr,
        checkpoint,
        inputs,
        job_body: format!(
            "seed={} iterations=6\n---DESIGN---\n{}",
            seed % 1000,
            io::write_design(&job_design)
        ),
        senders: host::nproc().min(2),
    }
}

/// What went wrong with requests, shared by the sender threads.
struct Problems {
    /// Largest level deviation of any reply from its reference, as f64 bits
    /// (non-negative floats order like their bits).
    deviation: AtomicU64,
    messages: Mutex<Vec<String>>,
}

impl Problems {
    fn new() -> Self {
        Problems {
            deviation: AtomicU64::new(0),
            messages: Mutex::new(Vec::new()),
        }
    }

    fn deviation(&self) -> f64 {
        f64::from_bits(self.deviation.load(Ordering::Relaxed))
    }

    /// Moves the recorded messages into the report's failure list.
    fn explain(&self, report: &mut Report) {
        let mut messages = self.messages.lock().expect("a sender thread panicked");
        report.failures.append(&mut messages);
    }

    /// Records a failed request; returns `false` for the caller to pass on.
    fn add(&self, message: String) -> bool {
        let mut messages = self.messages.lock().expect("a sender thread panicked");
        if messages.len() < 10 {
            messages.push(message);
        }
        false
    }
}

/// Sends one prepared request; `true` when the reply is a 200 carrying
/// exactly the level map the local single-sample predictor computes. What
/// went wrong otherwise is kept in `problems` (first few only).
fn send(addr: &str, request: &Prepared, problems: &Problems) -> bool {
    let headers = [("content-type", request.content_type)];
    let reply = match client::request(addr, "POST", request.path, &headers, &request.body) {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            return problems.add(format!(
                "{} answered {}: {}",
                request.path,
                r.status,
                r.text().trim()
            ))
        }
        Err(e) => return problems.add(format!("{} failed: {e}", request.path)),
    };
    let levels = match protocol::decode_levels(&reply.body) {
        Ok(levels) => levels,
        Err(e) => return problems.add(format!("{} reply does not decode: {e}", request.path)),
    };
    if bits(&levels) == request.expected {
        return true;
    }
    let worst = if levels.data().len() == request.expected.len() {
        levels
            .data()
            .iter()
            .zip(&request.expected)
            .map(|(a, b)| f64::from((a - f32::from_bits(*b)).abs()))
            .fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    problems
        .deviation
        .fetch_max(worst.to_bits(), Ordering::Relaxed);
    problems.add(format!(
        "{} reply differs from the local predictor by {worst}",
        request.path
    ))
}

/// Counts a phase into the report: every request is an operation; one that
/// was refused or answered wrongly is a failed one. A late reply is counted
/// apart: on a shared host a stall of the whole VM makes replies late without
/// the program having failed, and the latency percentiles already carry it.
fn count_phase(report: &mut Report, phase: &str, samples: &[Sample]) {
    let wrong = samples.iter().filter(|s| !s.ok).count();
    let late = samples
        .iter()
        .filter(|s| s.ok && s.latency_ms > LATE_MS)
        .count();
    report.ops(samples.len() - wrong);
    for _ in 0..wrong {
        report.fail(format!(
            "{phase}: a request was refused or answered wrongly"
        ));
    }
    report.note(
        phase,
        Json::obj([
            ("sent", Json::Num(samples.len() as f64)),
            ("ok", Json::Num((samples.len() - wrong) as f64)),
            ("failed", Json::Num(wrong as f64)),
            ("late", Json::Num(late as f64)),
        ]),
    );
}

fn open_phase(
    state: &State,
    seed: u64,
    rate: f64,
    seconds: f64,
    share: f64,
    dev: &Problems,
) -> Vec<Sample> {
    let inputs = state.inputs[PREDICT].len().min(state.inputs[DESIGN].len());
    let schedule = openloop::poisson_schedule(seed, rate, seconds, share, inputs);
    openloop::run(&schedule, state.senders, |a: &Arrival| {
        send(&state.addr, &state.inputs[a.kind][a.input], dev)
    })
}

/// `clients` callers, each sending its next `/predict` when the previous
/// reply arrives, for `seconds`.
fn closed_phase(state: &State, clients: usize, seconds: f64, dev: &Problems) -> (Vec<Sample>, f64) {
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut i = c;
                while start.elapsed().as_secs_f64() < seconds {
                    let request = &state.inputs[PREDICT][i % state.inputs[PREDICT].len()];
                    let t = Instant::now();
                    let ok = send(&state.addr, request, dev);
                    mine.push(Sample {
                        kind: PREDICT,
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        lag_ms: 0.0,
                        ok,
                    });
                    i += clients;
                }
                samples
                    .lock()
                    .expect("a client thread panicked")
                    .extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (
        samples.into_inner().expect("a client thread panicked"),
        wall,
    )
}

fn latencies(samples: &[Sample], kind: usize) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.latency_ms)
        .collect()
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let (state, setup_s) = run::repeated_setup(args.smoke, || setup(args.seed, &sizes));
    let mut report = Report::new();
    let batch = *state
        .server
        .as_ref()
        .expect("server")
        .fleet()
        .batch_config();
    let shipped = BatchConfig::default();
    report.check(
        (batch.max_batch, batch.batch_window, batch.queue_bound)
            == (shipped.max_batch, shipped.batch_window, shipped.queue_bound),
        "the server runs the shipped BatchConfig (8 / 2 ms / 64)",
    );
    report.note("grid", Json::Num(sizes.spec.grid as f64));
    report.note("senders", Json::Num(state.senders as f64));
    report.note(
        "design_body_bytes",
        Json::Num(state.inputs[DESIGN][0].body.len() as f64),
    );
    let slot = state
        .server
        .as_ref()
        .expect("server")
        .fleet()
        .resolve(None)
        .expect("slot");
    report.note("engine", Json::str(slot.slot().engine().name()));
    if args.trace {
        traced(args, &state, &mut report);
    } else {
        report.set("setup_s", setup_s);
        untraced(args, &state, &mut report);
    }
    report
}

fn untraced(args: &RunArgs, state: &State, report: &mut Report) {
    let problems = Problems::new();
    let open = open_phase(
        state,
        run::sub_seed(args.seed, 7),
        RATE,
        0.65 * args.seconds,
        DESIGN_SHARE,
        &problems,
    );
    count_phase(report, "open", &open);
    let (closed, closed_wall) = closed_phase(state, 2, 0.3 * args.seconds, &problems);
    count_phase(report, "closed", &closed);

    let predict = latencies(&open, PREDICT);
    let lag: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    report.note_tail(&predict, TAIL);
    report.note(
        "generator_lag_ms_p95",
        Json::Num(stats::percentile(&lag, 95.0)),
    );
    report.note(
        "design_ms_p50",
        Json::Num(stats::median(&latencies(&open, DESIGN))),
    );
    report.set("op_ms_p50", stats::median(&predict));
    report.set(
        "ops_per_s",
        closed.iter().filter(|s| s.ok).count() as f64 / closed_wall,
    );
    report.set("peak_rss_mb", host::peak_rss_mb());
    // 1 + the largest level deviation of any HTTP reply from the local
    // single-sample predictor: exactly 1 while batched == single holds.
    report.set("quality_loss", 1.0 + problems.deviation());
    problems.explain(report);
}

/// Reads one counter or gauge line of a `/metrics` scrape.
fn scraped(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0.0)
}

struct Scrape {
    batches: f64,
    items: f64,
    rejections: f64,
    deadline_misses: f64,
    plan_cache_hits: f64,
    ms: f64,
}

fn scrape(addr: &str) -> Scrape {
    let t = Instant::now();
    let text = client::request(addr, "GET", "/metrics", &[], b"")
        .map(|r| r.text())
        .unwrap_or_default();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Scrape {
        batches: scraped(&text, "mfaplace_slot_batches_total{slot=\"default\"}"),
        items: scraped(&text, "mfaplace_slot_batched_items_total{slot=\"default\"}"),
        rejections: scraped(&text, "mfaplace_queue_rejections_total"),
        deadline_misses: scraped(&text, "mfaplace_deadline_misses_total"),
        plan_cache_hits: scraped(&text, "mfaplace_plan_cache_hits_total"),
        ms,
    }
}

/// Mean size of the batches formed between two scrapes.
fn mean_batch(before: &Scrape, after: &Scrape) -> f64 {
    let batches = after.batches - before.batches;
    if batches > 0.0 {
        (after.items - before.items) / batches
    } else {
        0.0
    }
}

fn traced(args: &RunArgs, state: &State, report: &mut Report) {
    let problems = Problems::new();
    let addr = &state.addr;
    let fleet = state.server.as_ref().expect("server").fleet();
    let slot = fleet.resolve(None).expect("default slot");
    let predict = &state.inputs[PREDICT][0];
    let design = &state.inputs[DESIGN][0];
    let grid = predict.features.shape()[1];
    let reps = if args.smoke { 5 } else { 50 };

    // ---- direct calls into the serve crate, one layer at a time --------
    let raw = format!(
        "POST /predict HTTP/1.1\r\nhost: {addr}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
        predict.content_type,
        predict.body.len()
    );
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(&predict.body);
    let parse_ms = stats::time_ms(reps, || {
        let parsed = http::Request::read_from(&mut BufReader::new(raw.as_slice()), 32 << 20);
        assert!(parsed.is_ok(), "own request must parse");
    });
    report.set("serve.http_parse_us", parse_ms * 1e3);
    let decode_ms = stats::time_ms(reps, || {
        std::hint::black_box(protocol::decode_features(&predict.body).expect("own body"));
    });
    report.set("serve.decode_features_us", decode_ms * 1e3);
    let design_body = String::from_utf8(design.body.clone()).expect("text body");
    report.set(
        "serve.featurize_design_ms",
        stats::time_ms(reps.min(10), || {
            std::hint::black_box(
                protocol::featurize_design_request(&design_body, grid).expect("own body"),
            );
        }),
    );
    let levels = slot
        .slot()
        .predict_batch(std::slice::from_ref(&predict.features))
        .expect("forward")
        .pop()
        .expect("one output");
    let encode_ms = stats::time_ms(reps, || {
        std::hint::black_box(protocol::encode_levels(&levels));
    });
    report.set("serve.encode_levels_us", encode_ms * 1e3);
    let forward_ms = stats::time_ms(reps, || {
        std::hint::black_box(
            slot.slot()
                .predict_batch(std::slice::from_ref(&predict.features))
                .expect("forward"),
        );
    });
    report.set("serve.slot_forward_ms", forward_ms);

    // Through the queue and the batch window, alone and in bursts of 8.
    let deadline = || Instant::now() + Duration::from_secs(30);
    let mut roundtrip_ok = true;
    let roundtrip_ms = stats::time_ms(reps, || {
        let rx = slot.batcher().submit(predict.features.clone(), deadline());
        let reply = rx.ok().and_then(|rx| rx.recv().ok()).and_then(Result::ok);
        roundtrip_ok &= reply.is_some_and(|t| bits(&t) == predict.expected);
    });
    report.check(
        roundtrip_ok,
        "batcher replies equal the local predictor bitwise",
    );
    report.set("serve.batcher_roundtrip_ms", roundtrip_ms);
    report.set("serve.window_wait_ms", roundtrip_ms - forward_ms);
    let before = scrape(addr);
    let mut burst_ok = true;
    let burst_ms = stats::time_ms(reps.min(20), || {
        let receivers: Vec<_> = (0..8)
            .map(|i| {
                let input = &state.inputs[PREDICT][i % state.inputs[PREDICT].len()];
                (
                    input,
                    slot.batcher().submit(input.features.clone(), deadline()),
                )
            })
            .collect();
        for (input, rx) in receivers {
            let reply = rx.ok().and_then(|rx| rx.recv().ok()).and_then(Result::ok);
            burst_ok &= reply.is_some_and(|t| bits(&t) == input.expected);
        }
    });
    report.check(
        burst_ok,
        "burst replies equal the local predictor bitwise (batched == single)",
    );
    report.set("serve.burst8_ms", burst_ms);
    report.set(
        "serve.burst8_mean_batch",
        mean_batch(&before, &scrape(addr)),
    );

    // ---- unloaded HTTP round trips, alternately with and without spans --
    let mut tracer = Tracer::new(Instant::now());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for i in 0..2 * reps {
        let t = Instant::now();
        let ok = if i % 2 == 0 {
            send(addr, predict, &problems)
        } else {
            tracer.op = i as u64;
            let root = tracer.begin("serve.request");
            let headers = [("content-type", predict.content_type)];
            let reply = tracer.span("serve.http_exchange", || {
                client::request(addr, "POST", predict.path, &headers, &predict.body)
            });
            let ok = tracer.span("serve.decode_verify", || {
                reply.is_ok_and(|r| {
                    r.status == 200
                        && protocol::decode_levels(&r.body)
                            .is_ok_and(|l| bits(&l) == predict.expected)
                })
            });
            tracer.end(root);
            ok
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if i % 2 == 0 { &mut plain } else { &mut spanned }.push(ms);
        if ok {
            report.ops(1);
        } else {
            report.fail("unloaded: a request was refused or wrong");
        }
    }
    let unloaded_p50 = stats::median(&plain);
    report.note("unloaded_predict_ms_p50", Json::Num(unloaded_p50));
    report.set("serve.http_overhead_ms", unloaded_p50 - roundtrip_ms);
    report.set(
        "serve.trace_overhead_share",
        stats::median(&spanned) / unloaded_p50 - 1.0,
    );

    // ---- the open phase again, shorter, with the server's own counters --
    let before = scrape(addr);
    let open = open_phase(
        state,
        run::sub_seed(args.seed, 7),
        RATE,
        0.3 * args.seconds,
        DESIGN_SHARE,
        &problems,
    );
    count_phase(report, "open", &open);
    let after = scrape(addr);
    report.set("serve.mean_batch_size", mean_batch(&before, &after));
    let lag: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    report.set("serve.generator_lag_ms_p95", stats::percentile(&lag, 95.0));
    report.set(
        "serve.design_ms_p50",
        stats::median(&latencies(&open, DESIGN)),
    );
    report.set(
        "serve.predict_ms_p95",
        stats::tail(&latencies(&open, PREDICT), TAIL).1,
    );

    // ---- fixed-rate ladder: the highest rate that keeps the limit -------
    let mut rate_ok = 0.0;
    for (step, rate) in LADDER_RATES.iter().enumerate() {
        let samples = open_phase(
            state,
            run::sub_seed(args.seed, 20 + step as u64),
            *rate,
            0.07 * args.seconds,
            0.0,
            &problems,
        );
        count_phase(report, &format!("ladder_{rate}"), &samples);
        let p95 = stats::percentile(&latencies(&samples, PREDICT), 95.0);
        // A backlog shows as generator lag growing towards the end.
        let last_quarter = &samples[samples.len() * 3 / 4..];
        let late = stats::mean(&last_quarter.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
        if p95 <= LADDER_P95_MS && late <= LADDER_P95_MS {
            rate_ok = *rate;
        }
    }
    report.set("serve.rate_ok_rps", rate_ok);

    // ---- two concurrent placement jobs watched to `done` ----------------
    let before = scrape(addr);
    let t = Instant::now();
    let ids: Vec<Option<String>> = (0..2)
        .map(|_| {
            client::request(addr, "POST", "/jobs", &[], state.job_body.as_bytes())
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| {
                    r.text()
                        .lines()
                        .next()
                        .and_then(|l| l.strip_prefix("id ").map(str::to_owned))
                })
        })
        .collect();
    let events = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for id in ids.iter().flatten() {
            let events = &events;
            scope.spawn(move || {
                let (mut lines, mut last) = (0usize, String::new());
                let path = format!("/jobs/{id}/events");
                let streamed = client::stream_lines(addr, "GET", &path, &[], b"", &mut |line| {
                    if !line.is_empty() {
                        lines += 1;
                        last = line.to_owned();
                    }
                    true
                });
                let done =
                    streamed.is_ok() && last == "{\"event\":\"done\",\"state\":\"completed\"}";
                events
                    .lock()
                    .expect("a watcher panicked")
                    .push((lines, done));
            });
        }
    });
    let job_s = t.elapsed().as_secs_f64();
    let events = events.into_inner().expect("a watcher panicked");
    for i in 0..2 {
        match events.get(i) {
            Some((_, true)) => report.ops(1),
            _ => report.fail("a placement job did not run to `done`"),
        }
    }
    let after = scrape(addr);
    report.set("jobs.job_s", job_s);
    report.set("jobs.mean_predict_batch", mean_batch(&before, &after));
    report.set(
        "jobs.events_per_job",
        stats::mean(&events.iter().map(|(n, _)| *n as f64).collect::<Vec<_>>()),
    );

    report.set("serve.queue_rejections", after.rejections);
    report.set("serve.deadline_misses", after.deadline_misses);
    report.set("serve.plan_cache_hits", after.plan_cache_hits);
    report.set("serve.metrics_scrape_ms", after.ms);
    report.check(
        problems.deviation() == 0.0,
        "every HTTP level map equals the local predictor's bitwise",
    );
    problems.explain(report);
    report.tracer = Some(tracer);
}
