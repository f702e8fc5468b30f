//! End-to-end tests: a real server on an ephemeral port, real sockets,
//! concurrent clients. The central assertion is that responses produced
//! by coalesced batches are **bitwise identical** to single-item local
//! inference on the same checkpoint.

use std::sync::Arc;
use std::time::Duration;

use mfaplace_core::loader::{init_checkpoint, load_predictor, LoadOptions};
use mfaplace_core::predictor::Engine;
use mfaplace_fpga::design::DesignPreset;
use mfaplace_fpga::io;
use mfaplace_models::{Arch, ArchSpec};
use mfaplace_serve::batcher::BatchConfig;
use mfaplace_serve::{client, serve, Metrics, ModelSlot, ServeConfig, ServerHandle};
use mfaplace_tensor::Tensor;

const GRID: usize = 16;

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("mfaplace_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn tiny_spec() -> ArchSpec {
    let mut spec = ArchSpec::new(Arch::UNet, GRID);
    spec.base_channels = 2;
    spec
}

fn checkpoint(name: &str, seed: u64) -> String {
    let path = temp_path(name);
    init_checkpoint(&tiny_spec(), seed, &path).unwrap();
    path
}

fn start_server(ckpt: &str, batch: BatchConfig) -> ServerHandle {
    let metrics = Arc::new(Metrics::new());
    let slot = ModelSlot::load(ckpt, LoadOptions::default(), metrics.clone()).unwrap();
    serve(
        slot,
        metrics,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            batch,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn input(seed: f32) -> Tensor {
    Tensor::from_fn(vec![6, GRID, GRID], |i| ((i as f32) * 0.013 + seed).sin())
}

/// Runs at an explicit 20 ms window, where the 8 concurrent requests fuse
/// into few large batches, and at the shipped work-conserving policy, where
/// a batch is whatever queued behind the running forward — often an odd
/// size (3, 5, 6 or 7, padded to the 4 or 8 plan bucket).
#[test]
fn concurrent_batched_responses_are_bitwise_identical_to_local_inference() {
    let ckpt = checkpoint("e2e_main.mfaw", 7);

    // Local ground truth: the same checkpoint, predicted one at a time.
    let (_, mut reference) = load_predictor(&ckpt, LoadOptions::default()).unwrap();
    let inputs: Vec<Tensor> = (0..8).map(|i| input(i as f32)).collect();
    let expected: Vec<Tensor> = inputs
        .iter()
        .map(|x| {
            reference
                .predict_batch_tensors(std::slice::from_ref(x))
                .pop()
                .unwrap()
        })
        .collect();

    let windowed = BatchConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(20),
        queue_bound: 64,
    };
    for batch in [windowed, BatchConfig::default()] {
        let server = start_server(&ckpt, batch);
        let addr = server.addr().to_string();

        // Fire all 8 requests concurrently so the micro-batcher coalesces
        // them.
        let got: Vec<Tensor> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|x| s.spawn(|| client::predict_features(&addr, x).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.shape(), &[GRID, GRID]);
            assert_eq!(
                g.data(),
                e.data(),
                "request {i} at {batch:?}: batched response differs from local single-item inference"
            );
        }

        // The scrape must reflect the traffic, including batch coalescing.
        let metrics = client::request(&addr, "GET", "/metrics", &[], b"")
            .unwrap()
            .text();
        assert!(
            metrics.contains("mfaplace_requests_total{endpoint=\"/predict\",status=\"200\"} 8"),
            "{metrics}"
        );
        assert!(metrics.contains("mfaplace_batch_size_sum 8"), "{metrics}");
        assert!(
            metrics.contains("mfaplace_request_latency_seconds{quantile=\"0.99\"}"),
            "{metrics}"
        );
        // The graph buffer pool flushes its counters into the process-wide
        // runtime counter registry on every tape truncation, so after the
        // predict traffic above the scrape must carry them. The reference
        // predictor ran 8 repeated-shape forwards in this process, so
        // recycling has both populated (misses) and reused (hits) the free
        // lists.
        assert!(
            metrics.contains("mfaplace_rt_counter{name=\"graph/pool_misses\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("mfaplace_rt_counter{name=\"graph/pool_hits\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("mfaplace_rt_counter{name=\"graph/pool_recycled_bytes\"}"),
            "{metrics}"
        );

        // Each job's wait from enqueue to the start of its batch is a scope
        // timer, so it is scraped beside the other runtime timers.
        assert!(
            metrics.contains("mfaplace_rt_timer_calls{scope=\"serve/queue_wait\"}"),
            "{metrics}"
        );

        server.join();
    }
}

#[test]
fn metrics_expose_engine_plan_gauges_and_per_engine_timers() {
    let ckpt = checkpoint("e2e_engine.mfaw", 13);
    let server = start_server(&ckpt, BatchConfig::default());
    let addr = server.addr().to_string();

    // This test is specifically about the plan engine's gauges, so pin the
    // engine through the admin API instead of inheriting the default
    // the loaded file selects.
    let resp = client::request(&addr, "POST", "/admin/engine", &[], b"plan").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    // Serve traffic runs on the plan engine, populating the compiled-plan
    // gauges and the plan-side forward timer.
    for i in 0..3 {
        client::predict_features(&addr, &input(i as f32)).unwrap();
    }
    // The runtime timer registry is process-wide, so one local tape-engine
    // forward is enough to make the tape-side timer show up in the scrape.
    let (_, mut tape_ref) = load_predictor(&ckpt, LoadOptions::default()).unwrap();
    tape_ref.set_engine(Engine::Tape);
    tape_ref.predict_batch_tensors(std::slice::from_ref(&input(0.0)));

    let metrics = client::request(&addr, "GET", "/metrics", &[], b"")
        .unwrap()
        .text();
    assert!(
        metrics.contains("mfaplace_engine_info{engine=\"plan\"} 1"),
        "{metrics}"
    );
    let gauge = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("missing gauge {name} in scrape:\n{metrics}"))
    };
    assert!(gauge("mfaplace_infer_plan_ops ") > 0, "{metrics}");
    assert!(gauge("mfaplace_infer_plan_arena_bytes ") > 0, "{metrics}");
    assert!(
        metrics.contains("mfaplace_rt_timer_calls{scope=\"core/forward_plan\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfaplace_rt_timer_calls{scope=\"core/forward_tape\"}"),
        "{metrics}"
    );

    server.join();
}

#[test]
fn design_request_is_featurized_server_side() {
    let ckpt = checkpoint("e2e_design.mfaw", 8);
    let server = start_server(&ckpt, BatchConfig::default());
    let addr = server.addr().to_string();

    let design = DesignPreset::design_116()
        .with_scale(256, 32, 16)
        .generate(3);
    let placement = design.random_placement(4);
    let design_text = io::write_design(&design);
    let placement_text = io::write_placement(&placement);

    let via_design = client::predict_design(&addr, &design_text, &placement_text).unwrap();

    // Featurizing locally and posting the stack must give the same answer.
    let features =
        mfaplace_fpga::features::FeatureStack::extract(&design, &placement, GRID, GRID).to_tensor();
    let via_features = client::predict_features(&addr, &features).unwrap();
    assert_eq!(via_design.data(), via_features.data());

    server.join();
}

#[test]
fn malformed_requests_get_clean_4xx() {
    let ckpt = checkpoint("e2e_bad.mfaw", 9);
    let server = start_server(&ckpt, BatchConfig::default());
    let addr = server.addr().to_string();

    // Garbage body.
    let r = client::request(&addr, "POST", "/predict", &[], b"not features").unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    // Valid encoding, wrong grid for the served model.
    let wrong = mfaplace_serve::protocol::encode_features(&Tensor::zeros(vec![6, 32, 32]));
    let r = client::request(&addr, "POST", "/predict", &[], &wrong).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("does not match"), "{}", r.text());

    // Unknown path and wrong method.
    let r = client::request(&addr, "GET", "/nope", &[], b"").unwrap();
    assert_eq!(r.status, 404);
    let r = client::request(&addr, "GET", "/predict", &[], b"").unwrap();
    assert_eq!(r.status, 405);

    // Design request without the separator.
    let r = client::request(&addr, "POST", "/predict/design", &[], b"one part only").unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    // Health stays green through all of it.
    let r = client::request(&addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(r.status, 200);

    server.join();
}

#[test]
fn hot_reload_swaps_checkpoints_atomically() {
    let ckpt_a = checkpoint("e2e_reload_a.mfaw", 10);
    let ckpt_b = checkpoint("e2e_reload_b.mfaw", 999);
    let server = start_server(&ckpt_a, BatchConfig::default());
    let addr = server.addr().to_string();

    let x = input(0.5);
    let before = client::predict_features(&addr, &x).unwrap();

    // A corrupt checkpoint is rejected with 409 and serving is unaffected.
    let corrupt = temp_path("e2e_corrupt.mfaw");
    std::fs::write(&corrupt, b"MFAW????").unwrap();
    let r = client::request(&addr, "POST", "/admin/reload", &[], corrupt.as_bytes()).unwrap();
    assert_eq!(r.status, 409, "{}", r.text());
    let still = client::predict_features(&addr, &x).unwrap();
    assert_eq!(before.data(), still.data());

    // A good checkpoint swaps in and bumps the version.
    let r = client::request(&addr, "POST", "/admin/reload", &[], ckpt_b.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("version 2"), "{}", r.text());
    let model = client::request(&addr, "GET", "/model", &[], b"")
        .unwrap()
        .text();
    assert!(model.contains("version 2"), "{model}");

    let after = client::predict_features(&addr, &x).unwrap();
    assert_ne!(
        before.data(),
        after.data(),
        "new weights must change predictions"
    );

    // And the reloaded model serves exactly what a local load of B serves.
    let (_, mut reference) = load_predictor(&ckpt_b, LoadOptions::default()).unwrap();
    let expected = reference
        .predict_batch_tensors(std::slice::from_ref(&x))
        .pop()
        .unwrap();
    assert_eq!(after.data(), expected.data());

    server.join();
}

#[test]
fn queue_backpressure_returns_429_over_http() {
    let ckpt = checkpoint("e2e_backpressure.mfaw", 11);
    // A long window and a tiny queue: the worker holds the first batch
    // open while the queue fills behind it.
    let server = start_server(
        &ckpt,
        BatchConfig {
            max_batch: 8,
            batch_window: Duration::from_secs(2),
            queue_bound: 2,
        },
    );
    let addr = server.addr().to_string();

    let (first, second) = std::thread::scope(|s| {
        let a = {
            let addr = addr.clone();
            s.spawn(move || client::predict_features(&addr, &input(1.0)))
        };
        let b = {
            let addr = addr.clone();
            s.spawn(move || client::predict_features(&addr, &input(2.0)))
        };
        // Give both time to enqueue, then overflow the bound.
        std::thread::sleep(Duration::from_millis(300));
        let r = client::request(
            &addr,
            "POST",
            "/predict",
            &[],
            &mfaplace_serve::protocol::encode_features(&input(3.0)),
        )
        .unwrap();
        assert_eq!(r.status, 429, "{}", r.text());
        (a.join().unwrap(), b.join().unwrap())
    });
    // The queued requests still complete once the window closes.
    assert!(first.is_ok() && second.is_ok());

    let metrics = client::request(&addr, "GET", "/metrics", &[], b"")
        .unwrap()
        .text();
    assert!(
        metrics.contains("mfaplace_queue_rejections_total 1"),
        "{metrics}"
    );

    server.join();
}

#[test]
fn admin_shutdown_drains_gracefully() {
    let ckpt = checkpoint("e2e_shutdown.mfaw", 12);
    let server = start_server(&ckpt, BatchConfig::default());
    let addr = server.addr().to_string();

    assert!(client::predict_features(&addr, &input(0.0)).is_ok());
    let r = client::request(&addr, "POST", "/admin/shutdown", &[], b"").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains("draining"), "{}", r.text());

    // join() returns only after the accept loop, connections and worker
    // have all exited.
    server.join();

    // The port no longer answers.
    let gone = client::request(&addr, "GET", "/healthz", &[], b"");
    assert!(gone.is_err());
}
