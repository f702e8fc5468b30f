//! Benchmarks of the serve subsystem: does micro-batching actually beat
//! sequential single-request inference on the same checkpoint?
//!
//! Two levels are measured and both land in `results/serve_batch.json`:
//!
//! - **forward** — the library-level cost of one `[8, C, H, W]` forward
//!   versus eight `[1, C, H, W]` forwards through the same
//!   `ModelPredictor` (no HTTP, no queueing). This isolates what batching
//!   saves inside the model: per-forward fixed costs (graph construction,
//!   kernel dispatch, the transformer's per-layer setup) amortize over
//!   the batch.
//! - **service** — end-to-end HTTP throughput of a real server on a
//!   loopback socket: one closed-loop client issuing requests one at a
//!   time (each request runs as a batch of one) versus eight
//!   concurrent clients whose requests the micro-batcher coalesces.
//!
//! Responses are bitwise identical either way (asserted in
//! `mfaplace-core` and `mfaplace-serve` tests); batching only changes
//! throughput, which is exactly what this bench quantifies.

use std::sync::Arc;
use std::time::Instant;

use mfaplace_core::loader::{init_checkpoint, load_predictor, LoadOptions};
use mfaplace_models::{Arch, ArchSpec};
use mfaplace_rt::bench::Suite;
use mfaplace_serve::batcher::BatchConfig;
use mfaplace_serve::{client, serve, Metrics, ModelSlot, ServeConfig};
use mfaplace_tensor::Tensor;

const BATCH: usize = 8;
/// Requests per service-level measurement (divisible by BATCH).
const SERVICE_REQUESTS: usize = 48;

struct ForwardNumbers {
    label: String,
    batched_ns: f64,
    sequential_ns: f64,
}

/// Times one batch-8 forward vs eight batch-1 forwards on `spec`'s
/// freshly initialized checkpoint. Returns per-8-request times.
fn bench_forward(suite: &mut Suite, label: &str, spec: &ArchSpec) -> ForwardNumbers {
    let path = std::env::temp_dir()
        .join(format!("serve_bench_{label}.mfaw"))
        .to_string_lossy()
        .into_owned();
    init_checkpoint(spec, 1, &path).expect("init checkpoint");
    let (_, mut predictor) = load_predictor(&path, LoadOptions::default()).expect("load");
    let inputs: Vec<Tensor> = (0..BATCH)
        .map(|i| {
            Tensor::from_fn(vec![6, spec.grid, spec.grid], |j| {
                ((j as f32) * 0.013 + i as f32).sin()
            })
        })
        .collect();

    let batched = suite
        .run(&format!("serve/forward_batch8/{label}"), |b| {
            b.iter(|| std::hint::black_box(predictor.predict_batch_tensors(&inputs)))
        })
        .median_ns;
    let sequential = suite
        .run(&format!("serve/forward_8x1/{label}"), |b| {
            b.iter(|| {
                for x in &inputs {
                    std::hint::black_box(predictor.predict_batch_tensors(std::slice::from_ref(x)));
                }
            })
        })
        .median_ns;
    std::fs::remove_file(&path).ok();
    ForwardNumbers {
        label: label.to_owned(),
        batched_ns: batched,
        sequential_ns: sequential,
    }
}

struct ServiceNumbers {
    label: String,
    sequential_rps: f64,
    concurrent_rps: f64,
    mean_batch_size: f64,
}

/// Measures end-to-end HTTP throughput against a live server: closed-loop
/// single client vs `BATCH` concurrent clients, `SERVICE_REQUESTS` total
/// requests each.
fn bench_service(label: &str, spec: &ArchSpec, batch: BatchConfig) -> ServiceNumbers {
    let path = std::env::temp_dir()
        .join(format!("serve_bench_svc_{label}.mfaw"))
        .to_string_lossy()
        .into_owned();
    init_checkpoint(spec, 1, &path).expect("init checkpoint");
    let metrics = Arc::new(Metrics::new());
    let slot = ModelSlot::load(&path, LoadOptions::default(), metrics.clone()).expect("load");
    let server = serve(
        slot,
        metrics,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            batch,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let input = Tensor::from_fn(vec![6, spec.grid, spec.grid], |j| (j as f32 * 0.013).sin());

    // Warmup.
    for _ in 0..2 {
        client::predict_features(&addr, &input).expect("warmup");
    }

    // Sequential: one request in flight at a time.
    let start = Instant::now();
    for _ in 0..SERVICE_REQUESTS {
        client::predict_features(&addr, &input).expect("sequential request");
    }
    let sequential_rps = SERVICE_REQUESTS as f64 / start.elapsed().as_secs_f64();

    // Concurrent: BATCH closed-loop clients, the batcher coalesces.
    let per_client = SERVICE_REQUESTS / BATCH;
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..BATCH {
            let addr = addr.clone();
            let input = input.clone();
            s.spawn(move || {
                for _ in 0..per_client {
                    client::predict_features(&addr, &input).expect("concurrent request");
                }
            });
        }
    });
    let concurrent_rps = SERVICE_REQUESTS as f64 / start.elapsed().as_secs_f64();

    // Mean realized batch size over the whole run, from the live metrics.
    let scrape = client::request(&addr, "GET", "/metrics", &[], b"")
        .expect("metrics")
        .text();
    let field = |name: &str| -> f64 {
        scrape
            .lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .map(|v| v.trim().parse().unwrap_or(0.0))
            })
            .unwrap_or(0.0)
    };
    let mean_batch_size = field("mfaplace_batch_size_sum") / field("mfaplace_batch_size_count");

    server.join();
    std::fs::remove_file(&path).ok();
    eprintln!(
        "bench serve/service/{label}: sequential {sequential_rps:.1} req/s, \
         concurrent({BATCH}) {concurrent_rps:.1} req/s ({:.2}x), mean batch {mean_batch_size:.2}",
        concurrent_rps / sequential_rps
    );
    ServiceNumbers {
        label: label.to_owned(),
        sequential_rps,
        concurrent_rps,
        mean_batch_size,
    }
}

fn main() {
    let mut suite = Suite::new("serve").with_config(2, 7);

    // The paper's model at its serving grid, and a larger-grid variant for
    // scale context. Forward-level: one [8,C,H,W] pass vs eight [1,C,H,W].
    let ours16 = ArchSpec::new(Arch::Ours, 16);
    let ours32 = ArchSpec::new(Arch::Ours, 32);
    let forwards = [
        bench_forward(&mut suite, "ours_g16", &ours16),
        bench_forward(&mut suite, "ours_g32", &ours32),
    ];

    // Service-level: default batching knobs (no hold, max batch 8).
    let services = [bench_service("ours_g16", &ours16, BatchConfig::default())];

    print!("{}", suite.table());

    // Custom JSON: the headline ratios next to the raw medians.
    let mut json = String::from("{\"suite\":\"serve_batch\",\"batch\":8,\"forward\":[");
    for (i, f) in forwards.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let ratio = f.sequential_ns / f.batched_ns;
        json.push_str(&format!(
            "{{\"checkpoint\":\"{}\",\"batched8_ns\":{:.1},\"sequential_8x1_ns\":{:.1},\
             \"throughput_ratio\":{ratio:.3}}}",
            f.label, f.batched_ns, f.sequential_ns
        ));
    }
    json.push_str("],\"service\":[");
    for (i, s) in services.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let ratio = s.concurrent_rps / s.sequential_rps;
        json.push_str(&format!(
            "{{\"checkpoint\":\"{}\",\"requests\":{SERVICE_REQUESTS},\
             \"sequential_rps\":{:.1},\"concurrent_rps\":{:.1},\
             \"mean_batch_size\":{:.2},\"throughput_ratio\":{ratio:.3}}}",
            s.label, s.sequential_rps, s.concurrent_rps, s.mean_batch_size
        ));
    }
    json.push_str("]}");

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/serve_batch.json"
    );
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    std::fs::write(out, &json).expect("write serve_batch.json");
    eprintln!("wrote {out}");

    let best = forwards
        .iter()
        .map(|f| f.sequential_ns / f.batched_ns)
        .fold(0.0f64, f64::max)
        .max(
            services
                .iter()
                .map(|s| s.concurrent_rps / s.sequential_rps)
                .fold(0.0f64, f64::max),
        );
    assert!(
        best >= 2.0,
        "batched throughput must be >= 2x sequential at batch {BATCH} (best {best:.2}x)"
    );
}
