//! Integration tests for the shared compiled-plan cache: content-hash
//! keyed sharing across predictors, batch-size bucketing (bitwise equal
//! to the tape), and byte-bounded LRU eviction measured with real plans.

use std::sync::Arc;

use mfaplace_core::loader::{
    content_hash, init_checkpoint, load_predictor_with_cache, LoadOptions,
};
use mfaplace_core::predictor::{Engine, ModelPredictor};
use mfaplace_core::{PlanCache, PlanKey, PlanPrecision, QuantOptions};
use mfaplace_models::{Arch, ArchSpec, CongestionModel};
use mfaplace_tensor::Tensor;

const GRID: usize = 16;

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("mfaplace_plan_cache_test");
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

fn input(seed: f32) -> Tensor {
    Tensor::from_fn(vec![6, GRID, GRID], |i| ((i as f32) * 0.011 + seed).sin())
}

fn predict_one(predictor: &mut ModelPredictor<impl CongestionModel>, x: &Tensor) -> Tensor {
    predictor
        .predict_batch_tensors(std::slice::from_ref(x))
        .pop()
        .unwrap()
}

#[test]
fn byte_identical_checkpoints_share_one_plan_set() {
    let ckpt = checkpoint("share_a.mfaw", 41);
    let cache = Arc::new(PlanCache::new(256 << 20));

    let (_, mut a) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();
    let (_, mut b) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();

    let x = input(0.1);
    let out_a = predict_one(&mut a, &x);
    let out_b = predict_one(&mut b, &x);
    assert_eq!(out_a.data(), out_b.data(), "shared plans, shared answers");

    // One capture (a's miss), then b resolves the same key from the cache.
    let stats = cache.stats();
    assert_eq!(stats.entries, 1, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert!(stats.hits >= 1, "{stats:?}");
    assert!(stats.bytes > 0, "{stats:?}");

    // A byte-identical copy at a different path has the same content hash
    // and therefore joins the same plan set.
    let copy = temp_path("share_a_copy.mfaw");
    std::fs::copy(&ckpt, &copy).unwrap();
    assert_eq!(content_hash(&ckpt).unwrap(), content_hash(&copy).unwrap());
    let (_, mut c) = load_predictor_with_cache(&copy, LoadOptions::default(), &cache).unwrap();
    let out_c = predict_one(&mut c, &x);
    assert_eq!(out_c.data(), out_a.data());
    assert_eq!(cache.stats().entries, 1, "copy must not add an entry");

    // Different weights (a different seed) are a different plan source.
    let other = checkpoint("share_other.mfaw", 42);
    assert_ne!(content_hash(&ckpt).unwrap(), content_hash(&other).unwrap());
    let (_, mut d) = load_predictor_with_cache(&other, LoadOptions::default(), &cache).unwrap();
    let out_d = predict_one(&mut d, &x);
    assert_ne!(out_d.data(), out_a.data());
    assert_eq!(cache.stats().entries, 2, "{:?}", cache.stats());
}

#[test]
fn batch_bucketing_is_bitwise_equal_to_the_tape() {
    let ckpt = checkpoint("bucket.mfaw", 43);
    let cache = Arc::new(PlanCache::new(256 << 20));

    let (_, mut plan_side) =
        load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();
    plan_side.set_engine(Engine::Plan);
    let (_, mut tape_side) =
        load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();
    tape_side.set_engine(Engine::Tape);

    // An awkward batch of 3 runs as a padded batch of 4 on the plan side.
    let inputs: Vec<Tensor> = (0..3).map(|i| input(i as f32)).collect();
    let via_plan = plan_side.predict_batch_tensors(&inputs);
    let via_tape = tape_side.predict_batch_tensors(&inputs);
    assert_eq!(via_plan.len(), 3);
    for (i, (p, t)) in via_plan.iter().zip(&via_tape).enumerate() {
        assert_eq!(
            p.data(),
            t.data(),
            "sample {i}: padded plan batch differs from tape"
        );
    }

    // The cache holds the bucketed shape, not the literal batch size.
    let source = plan_side.plan_source();
    let key = |n: usize| PlanKey::f32(source, vec![n, 6, GRID, GRID], false);
    assert!(cache.contains(&key(4)), "{:?}", cache.stats());
    assert!(!cache.contains(&key(3)), "{:?}", cache.stats());
}

#[test]
fn bucketed_batch_rounds_to_one_two_four_then_eights() {
    type P = ModelPredictor<mfaplace_models::AnyModel>;
    for (n, want) in [
        (0, 1),
        (1, 1),
        (2, 2),
        (3, 4),
        (4, 4),
        (5, 8),
        (8, 8),
        (9, 16),
        (16, 16),
        (17, 24),
    ] {
        assert_eq!(P::bucketed_batch(n), want, "bucketed_batch({n})");
    }
}

#[test]
fn mixed_precision_plans_share_one_cache_under_distinct_keys() {
    let ckpt = checkpoint("mixed.mfaw", 45);
    let cache = Arc::new(PlanCache::new(256 << 20));
    let (_, mut p) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();

    // Calibrate over a few representative inputs, then serve quantized.
    let reps: Vec<Tensor> = (0..3).map(|i| input(i as f32)).collect();
    p.calibrate(&reps, QuantOptions::default()).unwrap();
    p.set_engine(Engine::Quant);

    let x = input(0.5);
    let f32_only = cache.stats().bytes;
    let out = predict_one(&mut p, &x);
    assert!(p.quant_broken().is_none(), "{:?}", p.quant_broken());
    assert!(out.data().iter().all(|&v| (0.0..=7.0).contains(&v)));

    // Same content hash, two flavours, two entries.
    let source = p.plan_source();
    let fkey = PlanKey::f32(source, vec![1, 6, GRID, GRID], false);
    let qkey = PlanKey {
        precision: PlanPrecision::Int8,
        ..fkey.clone()
    };
    assert!(cache.contains(&fkey), "{:?}", cache.stats());
    assert!(cache.contains(&qkey), "{:?}", cache.stats());

    // At real model sizes the quantized arena is at most half the f32
    // arena, and the cache charges the quant entry its *own* (smaller)
    // bytes — the flavours are not pooled under one charge.
    let qs = p.quant_plan_stats().expect("quant plan compiled");
    assert!(
        qs.arena_bytes * 2 <= qs.f32_arena_bytes,
        "int8 arena {} vs f32 arena {}",
        qs.arena_bytes,
        qs.f32_arena_bytes
    );
    let with_quant = cache.stats().bytes;
    assert!(with_quant > f32_only, "quant entry must be charged");
    assert!(
        with_quant - f32_only < f32_only,
        "quant entry ({}) must cost less than the f32 entry ({f32_only})",
        with_quant - f32_only
    );

    // A second predictor from a byte-identical checkpoint with the same
    // calibration resolves the existing quantized entry — no recompile.
    let misses_before = cache.stats().misses;
    let (_, mut q) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();
    q.set_calibration(p.calibration().unwrap().clone(), QuantOptions::default());
    q.set_engine(Engine::Quant);
    let out_q = predict_one(&mut q, &x);
    assert_eq!(out_q.data(), out.data(), "shared quant plan, shared answer");
    let stats = cache.stats();
    assert_eq!(stats.misses, misses_before, "{stats:?}");
}

#[test]
fn lru_eviction_tracks_recency_under_a_real_byte_budget() {
    let ckpt = checkpoint("lru.mfaw", 44);

    // Measure what each bucketed shape actually costs in a roomy cache.
    let probe = Arc::new(PlanCache::new(1 << 30));
    let (_, mut p) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &probe).unwrap();
    let inputs: Vec<Tensor> = (0..4).map(|i| input(i as f32)).collect();
    p.predict_batch_tensors(&inputs[..1]);
    let b1 = probe.stats().bytes;
    p.predict_batch_tensors(&inputs[..2]);
    let b2 = probe.stats().bytes - b1;
    p.predict_batch_tensors(&inputs[..4]);
    let b4 = probe.stats().bytes - b1 - b2;
    assert!(b1 > 0 && b2 > b1 && b4 > b2, "b1={b1} b2={b2} b4={b4}");

    // A budget that fits the batch-1 and batch-4 plans but not all three.
    let cache = Arc::new(PlanCache::new(b1 + b4));
    let (_, mut q) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &cache).unwrap();
    let source = q.plan_source();
    let key = |n: usize| PlanKey::f32(source, vec![n, 6, GRID, GRID], false);

    q.predict_batch_tensors(&inputs[..1]); // capture [1,..]
    q.predict_batch_tensors(&inputs[..2]); // capture [2,..]
    q.predict_batch_tensors(&inputs[..1]); // touch [1,..] — [2,..] is now LRU
    q.predict_batch_tensors(&inputs[..4]); // capture [4,..] — evicts [2,..]

    let stats = cache.stats();
    assert!(cache.contains(&key(1)), "{stats:?}");
    assert!(cache.contains(&key(4)), "{stats:?}");
    assert!(
        !cache.contains(&key(2)),
        "recency says [2,..] goes: {stats:?}"
    );
    assert_eq!(stats.evictions, 1, "{stats:?}");
    assert!(stats.bytes <= stats.max_bytes, "{stats:?}");

    // The evicted shape recompiles on demand and still predicts correctly.
    let again = q.predict_batch_tensors(&inputs[..2]);
    let mut reference = {
        let (_, mut r) = load_predictor_with_cache(&ckpt, LoadOptions::default(), &probe).unwrap();
        r.set_engine(Engine::Tape);
        r.predict_batch_tensors(&inputs[..2])
    };
    for (g, e) in again.iter().zip(reference.drain(..)) {
        assert_eq!(g.data(), e.data());
    }
}
