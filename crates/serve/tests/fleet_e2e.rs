//! Fleet end-to-end tests: multiple named model slots behind one real
//! server. The central assertions are that routing (header or path) hits
//! exactly the named slot with bitwise-identical results, that slots are
//! isolated (reloading one never disturbs traffic on another), and that
//! slots serving byte-identical checkpoints share one compiled plan set
//! in the fleet-wide cache.

use std::sync::Arc;

use mfaplace_core::loader::{init_checkpoint, load_predictor, LoadOptions};
use mfaplace_fpga::design::DesignPreset;
use mfaplace_fpga::io;
use mfaplace_models::{Arch, ArchSpec};
use mfaplace_serve::batcher::BatchConfig;
use mfaplace_serve::{
    client, protocol, serve_fleet, Metrics, ModelFleet, ServeConfig, ServerHandle, SlotLimits,
};
use mfaplace_tensor::Tensor;

const GRID: usize = 16;

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("mfaplace_fleet_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn checkpoint(name: &str, seed: u64) -> String {
    let path = temp_path(name);
    let mut spec = ArchSpec::new(Arch::UNet, GRID);
    spec.base_channels = 2;
    init_checkpoint(&spec, seed, &path).unwrap();
    path
}

/// Starts a fleet server with one slot per `(name, checkpoint)` pair; the
/// first pair becomes the default routing target.
fn start_fleet(slots: &[(&str, &str)]) -> ServerHandle {
    let metrics = Arc::new(Metrics::new());
    let fleet = Arc::new(ModelFleet::new(metrics.clone(), BatchConfig::default()));
    for (name, ckpt) in slots {
        fleet
            .add_slot(name, ckpt, LoadOptions::default(), SlotLimits::default())
            .unwrap();
    }
    serve_fleet(
        fleet,
        metrics,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn input(seed: f32) -> Tensor {
    Tensor::from_fn(vec![6, GRID, GRID], |i| ((i as f32) * 0.017 + seed).sin())
}

/// Local single-item ground truth for the checkpoint at `ckpt`.
fn local_reference(ckpt: &str, x: &Tensor) -> Tensor {
    let (_, mut predictor) = load_predictor(ckpt, LoadOptions::default()).unwrap();
    predictor
        .predict_batch_tensors(std::slice::from_ref(x))
        .pop()
        .unwrap()
}

#[test]
fn header_and_path_routing_hit_the_named_slot_bitwise() {
    let ckpt_a = checkpoint("route_a.mfaw", 21);
    let ckpt_b = checkpoint("route_b.mfaw", 22);
    let server = start_fleet(&[("alpha", &ckpt_a), ("beta", &ckpt_b)]);
    let addr = server.addr().to_string();

    let x = input(0.25);
    let want_a = local_reference(&ckpt_a, &x);
    let want_b = local_reference(&ckpt_b, &x);
    assert_ne!(want_a.data(), want_b.data(), "seeds must differ");

    // Header routing.
    let via_header_a = client::predict_features_slot(&addr, Some("alpha"), &x).unwrap();
    let via_header_b = client::predict_features_slot(&addr, Some("beta"), &x).unwrap();
    assert_eq!(via_header_a.data(), want_a.data());
    assert_eq!(via_header_b.data(), want_b.data());

    // Unnamed requests go to the default (first-added) slot.
    let via_default = client::predict_features(&addr, &x).unwrap();
    assert_eq!(via_default.data(), want_a.data());

    // Path routing hits the same slots.
    for (slot, want) in [("alpha", &want_a), ("beta", &want_b)] {
        let r = client::request(
            &addr,
            "POST",
            &format!("/models/{slot}/predict"),
            &[],
            &protocol::encode_features(&x),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let got = protocol::decode_levels(&r.body).unwrap();
        assert_eq!(got.data(), want.data(), "path routing to {slot}");
    }

    // Design-text requests route per slot too.
    let design = DesignPreset::design_116()
        .with_scale(256, 32, 16)
        .generate(3);
    let placement = design.random_placement(4);
    let dt = io::write_design(&design);
    let pt = io::write_placement(&placement);
    let d_a = client::predict_design_slot(&addr, Some("alpha"), &dt, &pt).unwrap();
    let d_b = client::predict_design_slot(&addr, Some("beta"), &dt, &pt).unwrap();
    assert_ne!(d_a.data(), d_b.data());

    // GET /models lists both slots and marks the default.
    let listing = client::request(&addr, "GET", "/models", &[], b"")
        .unwrap()
        .text();
    assert!(
        listing.contains("alpha ") && listing.contains("beta "),
        "{listing}"
    );
    assert!(
        listing
            .lines()
            .any(|l| l.starts_with("alpha") && l.ends_with("default")),
        "{listing}"
    );

    server.join();
}

#[test]
fn unknown_slot_gets_a_distinct_404() {
    let ckpt = checkpoint("unknown_a.mfaw", 23);
    let server = start_fleet(&[("only", &ckpt)]);
    let addr = server.addr().to_string();

    // Header routing to a missing slot: the client surfaces the server's
    // 404 body verbatim (it names the slot and lists the loaded ones)
    // rather than wrapping it in a generic "server returned …" message.
    let err = client::predict_features_slot(&addr, Some("ghost"), &input(0.0)).unwrap_err();
    assert!(err.starts_with("no such model slot \"ghost\""), "{err}");
    assert!(
        err.contains("only"),
        "404 body must list loaded slots: {err}"
    );

    // Path routing to a missing slot.
    let r = client::request(
        &addr,
        "POST",
        "/models/ghost/predict",
        &[],
        &protocol::encode_features(&input(0.0)),
    )
    .unwrap();
    assert_eq!(r.status, 404);
    assert!(r.text().contains("no such model slot"), "{}", r.text());

    // Reload of a missing slot is a 404, not a 409.
    let r = client::request(
        &addr,
        "POST",
        "/admin/slots",
        &[],
        b"reload ghost nope.mfaw",
    )
    .unwrap();
    assert_eq!(r.status, 404, "{}", r.text());

    server.join();
}

#[test]
fn admin_slots_add_remove_reload_lifecycle() {
    let ckpt_a = checkpoint("admin_a.mfaw", 24);
    let ckpt_b = checkpoint("admin_b.mfaw", 25);
    let ckpt_b2 = checkpoint("admin_b2.mfaw", 26);
    let server = start_fleet(&[("main", &ckpt_a)]);
    let addr = server.addr().to_string();

    let x = input(0.5);

    // Add a second slot at runtime; it becomes routable immediately.
    let cmd = format!("add extra {ckpt_b} queue=8 deadline_ms=5000");
    let r = client::request(&addr, "POST", "/admin/slots", &[], cmd.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let got = client::predict_features_slot(&addr, Some("extra"), &x).unwrap();
    assert_eq!(got.data(), local_reference(&ckpt_b, &x).data());

    // Duplicate adds conflict.
    let r = client::request(&addr, "POST", "/admin/slots", &[], cmd.as_bytes()).unwrap();
    assert_eq!(r.status, 409, "{}", r.text());

    // Reload swaps only that slot; the slot listing bumps its version.
    let cmd = format!("reload extra {ckpt_b2}");
    let r = client::request(&addr, "POST", "/admin/slots", &[], cmd.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("version 2"), "{}", r.text());
    let got = client::predict_features_slot(&addr, Some("extra"), &x).unwrap();
    assert_eq!(got.data(), local_reference(&ckpt_b2, &x).data());
    let listing = client::request(&addr, "GET", "/admin/slots", &[], b"")
        .unwrap()
        .text();
    assert!(
        listing
            .lines()
            .any(|l| l.starts_with("extra") && l.contains("version=2")),
        "{listing}"
    );

    // The default slot was untouched throughout.
    let got = client::predict_features(&addr, &x).unwrap();
    assert_eq!(got.data(), local_reference(&ckpt_a, &x).data());

    // Remove the extra slot; its routing key 404s afterwards.
    let r = client::request(&addr, "POST", "/admin/slots", &[], b"remove extra").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let err = client::predict_features_slot(&addr, Some("extra"), &x).unwrap_err();
    assert!(err.contains("no such model slot"), "{err}");

    // The default slot is protected from removal.
    let r = client::request(&addr, "POST", "/admin/slots", &[], b"remove main").unwrap();
    assert_eq!(r.status, 409, "{}", r.text());

    // Garbage commands get the usage text.
    let r = client::request(&addr, "POST", "/admin/slots", &[], b"frobnicate").unwrap();
    assert_eq!(r.status, 400);

    server.join();
}

#[test]
fn reloading_one_slot_never_interrupts_another() {
    let ckpt_a = checkpoint("isolate_a.mfaw", 27);
    let ckpt_b = checkpoint("isolate_b.mfaw", 28);
    let ckpt_b2 = checkpoint("isolate_b2.mfaw", 29);
    let server = start_fleet(&[("steady", &ckpt_a), ("churn", &ckpt_b)]);
    let addr = server.addr().to_string();

    let x = input(0.75);
    let want = local_reference(&ckpt_a, &x);

    std::thread::scope(|s| {
        // Hammer the steady slot while the churn slot reloads repeatedly.
        let predictor = {
            let addr = addr.clone();
            let want = want.clone();
            s.spawn(move || {
                for i in 0..40 {
                    let got = client::predict_features_slot(&addr, Some("steady"), &x)
                        .unwrap_or_else(|e| panic!("predict {i} on steady slot failed: {e}"));
                    assert_eq!(got.data(), want.data(), "prediction {i} changed");
                }
            })
        };
        let reloader = {
            let addr = addr.clone();
            s.spawn(move || {
                for i in 0..10 {
                    let path = if i % 2 == 0 { &ckpt_b2 } else { &ckpt_b };
                    let cmd = format!("reload churn {path}");
                    let r = client::request(&addr, "POST", "/admin/slots", &[], cmd.as_bytes())
                        .unwrap();
                    assert_eq!(r.status, 200, "{}", r.text());
                }
            })
        };
        predictor.join().unwrap();
        reloader.join().unwrap();
    });

    server.join();
}

#[test]
fn slots_serving_one_file_share_one_compiled_plan_set() {
    let ckpt = checkpoint("shared_plan.mfaw", 30);
    let server = start_fleet(&[("a", &ckpt), ("b", &ckpt)]);
    let addr = server.addr().to_string();

    let x = input(1.5);
    let got_a = client::predict_features_slot(&addr, Some("a"), &x).unwrap();
    let got_b = client::predict_features_slot(&addr, Some("b"), &x).unwrap();
    assert_eq!(got_a.data(), got_b.data(), "same file, same answers");

    let metrics = client::request(&addr, "GET", "/metrics", &[], b"")
        .unwrap()
        .text();
    let gauge = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("missing gauge {name} in scrape:\n{metrics}"))
    };
    // Both slots ran the same [1,6,G,G] shape: one capture, one cache hit.
    assert_eq!(gauge("mfaplace_plan_cache_entries "), 1, "{metrics}");
    assert!(gauge("mfaplace_plan_cache_bytes ") > 0, "{metrics}");
    assert!(gauge("mfaplace_plan_cache_hits_total ") >= 1, "{metrics}");
    assert_eq!(
        gauge("mfaplace_plan_cache_evictions_total "),
        0,
        "{metrics}"
    );

    // Per-slot request series exist alongside the aggregate family.
    assert!(
        metrics.contains("mfaplace_slot_requests_total{slot=\"a\",status=\"200\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfaplace_slot_requests_total{slot=\"b\",status=\"200\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mfaplace_requests_total{endpoint=\"/predict\",status=\"200\"} 2"),
        "{metrics}"
    );

    server.join();
}

/// Sorted `family{label keys}` names of a `/metrics` scrape (`# TYPE`
/// comments skipped).
fn metric_families(scrape: &str) -> Vec<String> {
    let mut families: Vec<String> = scrape
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let series = l.rsplit_once(' ').map_or(l, |(s, _)| s);
            match series.split_once('{') {
                None => series.to_owned(),
                Some((name, labels)) => {
                    let keys: Vec<&str> = labels
                        .trim_end_matches('}')
                        .split("\",")
                        .filter_map(|kv| kv.split_once('=').map(|(k, _)| k))
                        .collect();
                    format!("{name}{{{}}}", keys.join(","))
                }
            }
        })
        .collect();
    families.sort();
    families.dedup();
    families
}

/// The family names and label keys a two-slot fleet rendered before slot
/// state moved from pushed copies to scrape-time reads. Dashboards key on
/// these; the refactor may not rename, drop or relabel any of them. The
/// one deliberate drop since: the fleet-wide and per-slot plan level
/// counts, which described the level scheduler and went with it (plans
/// replay serially, in capture order).
const FAMILIES_BEFORE_PULL: &[&str] = &[
    "mfaplace_batch_size_bucket{le}",
    "mfaplace_batch_size_count",
    "mfaplace_batch_size_sum",
    "mfaplace_deadline_misses_total",
    "mfaplace_engine_info{engine}",
    "mfaplace_infer_plan_arena_bytes",
    "mfaplace_infer_plan_copies_elided",
    "mfaplace_infer_plan_ops",
    "mfaplace_kernel_backend{backend}",
    "mfaplace_model_info{name}",
    "mfaplace_model_version",
    "mfaplace_plan_cache_bytes",
    "mfaplace_plan_cache_entries",
    "mfaplace_plan_cache_evictions_total",
    "mfaplace_plan_cache_hits_total",
    "mfaplace_plan_cache_max_bytes",
    "mfaplace_plan_cache_misses_total",
    "mfaplace_precision_info{precision}",
    "mfaplace_queue_depth",
    "mfaplace_queue_rejections_total",
    "mfaplace_request_latency_seconds_count",
    "mfaplace_request_latency_seconds{quantile}",
    "mfaplace_requests_total{endpoint,status}",
    "mfaplace_rt_counter{name}",
    "mfaplace_rt_timer_calls{scope}",
    "mfaplace_rt_timer_seconds_total{scope}",
    "mfaplace_slot_batched_items_total{slot}",
    "mfaplace_slot_batches_total{slot}",
    "mfaplace_slot_deadline_misses_total{slot}",
    "mfaplace_slot_engine_info{slot,engine}",
    "mfaplace_slot_model_info{slot,name}",
    "mfaplace_slot_model_version{slot}",
    "mfaplace_slot_plan_arena_bytes{slot}",
    "mfaplace_slot_plan_copies_elided{slot}",
    "mfaplace_slot_plan_ops{slot}",
    "mfaplace_slot_precision_info{slot,precision}",
    "mfaplace_slot_queue_depth{slot}",
    "mfaplace_slot_queue_rejections_total{slot}",
    "mfaplace_slot_requests_total{slot,status}",
];

#[test]
fn metric_families_and_label_keys_are_unchanged() {
    let ckpt_a = checkpoint("families_a.mfaw", 31);
    let ckpt_b = checkpoint("families_b.mfaw", 32);
    let server = start_fleet(&[("alpha", &ckpt_a), ("beta", &ckpt_b)]);
    let addr = server.addr().to_string();
    let x = input(2.5);
    client::predict_features_slot(&addr, Some("alpha"), &x).unwrap();
    client::predict_features_slot(&addr, Some("beta"), &x).unwrap();
    let scrape = client::request(&addr, "GET", "/metrics", &[], b"")
        .unwrap()
        .text();
    let families = metric_families(&scrape);
    assert_eq!(families, FAMILIES_BEFORE_PULL, "{scrape}");
    server.join();
}
