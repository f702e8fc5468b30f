//! The benchmark's vocabulary: workload names, end-to-end metrics with their
//! direction and regression bound, and per-layer metrics with the workload
//! that fills each. `BENCHMARK.json` at the repo root must list exactly
//! these names (a unit test compares them).
//!
//! Every run reports *every* metric of its kind: an end-to-end metric means
//! the same thing on each workload (see [`END_TO_END`]); a per-layer metric
//! is measured on one workload and reads 0 on the others, where that layer
//! path did no work.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists (one line, ≤ 200 chars).
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const PLACE: &str = "place_suite";
pub const MAP: &str = "map_hires";
pub const SERVE: &str = "serve_mix";
pub const TRAIN: &str = "train_epochs";

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: PLACE,
        why: "Table-II journey: model-driven placement flows over the ten contest designs; GP, legalization and routing dominate, prediction is a small share",
    },
    WorkloadDef {
        name: MAP,
        why: "Placement snapshot to a 256x256 level map at paper resolution; forward ~70% and feature extraction ~30% of each op, so kernels and the plan executor show here",
    },
    WorkloadDef {
        name: SERVE,
        why: "Open-loop 100 req/s mix of /predict and /predict/design plus a closed-loop phase; the only workload with queueing, batching windows and HTTP",
    },
    WorkloadDef {
        name: TRAIN,
        why: "Trainer::fit rounds on the grid-64 model: training-mode forward, backward, Adam and shard reduce; the kernels of map_hires used the other way",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. "Op" is the workload's user-visible operation:
/// one placement flow incl. route+score (`place_suite`), one snapshot →
/// level map (`map_hires`), one `/predict` request timed from its due time
/// at 100 req/s (`serve_mix`), one optimizer step (`train_epochs`).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "quality_loss",
        unit: "score",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A per-layer metric, taken in the traced run of `workload`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub workload: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, workload: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        workload,
    }
}

const fn higher(name: &'static str, unit: &'static str, workload: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        workload,
    }
}

/// The per-layer metrics. `ms`/`us`/`ns` are medians of busy time per call;
/// the rest are counts, means or ratios. The layer is the crate named by
/// the prefix; `place.`/`map.`/`train.` prefixes are whole-op accounting.
pub const PER_LAYER: &[PerLayer] = &[
    // ---- place_suite: observer event boundaries + a timing predictor ----
    lower("placer.gp_stage1_ms", "ms", PLACE),
    lower("placer.gp_stage2_ms", "ms", PLACE),
    lower("placer.gp_iterations", "count", PLACE),
    lower("placer.inflate_ms", "ms", PLACE),
    lower("placer.inflated_share", "ratio", PLACE),
    lower("placer.legalize_refine_ms", "ms", PLACE),
    lower("placer.hpwl_mean", "tiles", PLACE),
    lower("fpga.features_ms", "ms", PLACE),
    lower("core.predict_ms", "ms", PLACE),
    lower("core.route_score_ms", "ms", PLACE),
    lower("router.route_ms", "ms", PLACE),
    lower("router.analysis_ms", "ms", PLACE),
    lower("router.overflow_mean", "tiles", PLACE),
    lower("router.wirelength_mean", "tiles", PLACE),
    lower("core.calibrate_router_ms", "ms", PLACE),
    lower("fpga.generate_ms", "ms", PLACE),
    lower("fpga.read_design_ms", "ms", PLACE),
    lower("fpga.write_placement_ms", "ms", PLACE),
    lower("place.s_r_mean", "score", PLACE),
    higher("place.stage_coverage", "ratio", PLACE),
    lower("place.trace_overhead_share", "ratio", PLACE),
    // ---- map_hires: engine variants, plan stats, kernel ceilings --------
    lower("fpga.features_hires_ms", "ms", MAP),
    lower("core.predict_hires_ms", "ms", MAP),
    lower("infer.plan_forward_ms", "ms", MAP),
    lower("infer.plan_par_forward_ms", "ms", MAP),
    lower("autograd.tape_forward_ms", "ms", MAP),
    lower("infer.int8_forward_ms", "ms", MAP),
    lower("infer.plan_capture_ms", "ms", MAP),
    lower("infer.plan_ops", "count", MAP),
    lower("infer.plan_arena_mb", "MiB", MAP),
    lower("infer.int8_arena_mb", "MiB", MAP),
    lower("core.load_predictor_ms", "ms", MAP),
    lower("core.engine_fallbacks", "count", MAP),
    lower("tensor.gemm_256_ms", "ms", MAP),
    lower("tensor.attention_l1024_ms", "ms", MAP),
    lower("tensor.conv3x3_ms", "ms", MAP),
    lower("tensor.softmax_ms", "ms", MAP),
    lower("rt.pool_dispatch_us", "us", MAP),
    lower("rt.timer_record_ns", "ns", MAP),
    higher("map.stage_coverage", "ratio", MAP),
    lower("map.trace_overhead_share", "ratio", MAP),
    // ---- serve_mix: direct calls into serve + HTTP probes ---------------
    lower("serve.http_parse_us", "us", SERVE),
    lower("serve.decode_features_us", "us", SERVE),
    lower("serve.featurize_design_ms", "ms", SERVE),
    lower("serve.encode_levels_us", "us", SERVE),
    lower("serve.slot_forward_ms", "ms", SERVE),
    lower("serve.batcher_roundtrip_ms", "ms", SERVE),
    lower("serve.window_wait_ms", "ms", SERVE),
    lower("serve.http_overhead_ms", "ms", SERVE),
    higher("serve.mean_batch_size", "count", SERVE),
    lower("serve.burst8_ms", "ms", SERVE),
    higher("serve.burst8_mean_batch", "count", SERVE),
    lower("serve.queue_rejections", "count", SERVE),
    lower("serve.deadline_misses", "count", SERVE),
    higher("serve.plan_cache_hits", "count", SERVE),
    higher("serve.rate_ok_rps", "1/s", SERVE),
    lower("serve.generator_lag_ms_p95", "ms", SERVE),
    lower("serve.predict_ms_p95", "ms", SERVE),
    lower("serve.design_ms_p50", "ms", SERVE),
    lower("serve.metrics_scrape_ms", "ms", SERVE),
    lower("jobs.job_s", "s", SERVE),
    higher("jobs.mean_predict_batch", "count", SERVE),
    lower("jobs.events_per_job", "count", SERVE),
    lower("serve.trace_overhead_share", "ratio", SERVE),
    // ---- train_epochs: a hand-rolled step through the public API --------
    lower("autograd.forward_train_ms", "ms", TRAIN),
    lower("autograd.backward_ms", "ms", TRAIN),
    lower("nn.adam_step_ms", "ms", TRAIN),
    lower("core.batch_assemble_us", "us", TRAIN),
    lower("core.shard_reduce_ms", "ms", TRAIN),
    lower("core.evaluate_ms", "ms", TRAIN),
    higher("core.train_workers", "count", TRAIN),
    lower("nn.checkpoint_save_ms", "ms", TRAIN),
    lower("nn.checkpoint_load_ms", "ms", TRAIN),
    lower("nn.checkpoint_mb", "MiB", TRAIN),
    lower("core.dataset_build_s", "s", TRAIN),
    lower("train.final_loss", "loss", TRAIN),
    higher("train.eval_acc", "ratio", TRAIN),
    lower("train.trace_overhead_share", "ratio", TRAIN),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// Whether `s` is a legal metric/workload name for the driver.
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// Whether `s` is a legal unit for the driver.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(WORKLOADS.iter().any(|w| w.name == m.workload));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
        assert!(valid_unit("1/s") && !valid_unit("req per s"));
    }

    #[test]
    fn setup_metric_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` must list exactly what the runner emits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.name().to_owned(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.name().to_owned(),
                )
            })
            .collect();
        assert_eq!(layers, want);

        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
