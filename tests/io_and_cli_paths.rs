//! Integration tests of the interchange format + flow path the CLI uses.

use mfaplace::fpga::design::DesignPreset;
use mfaplace::fpga::io;
use mfaplace::fpga::viz::{render_heatmap, render_placement};
use mfaplace::fpga::GridMap;
use mfaplace::placer::flows::{FlowConfig, PlacementFlow, RudyPredictor};

#[test]
fn design_survives_serialization_and_places_identically() {
    let original = DesignPreset::design_156()
        .with_scale(512, 64, 32)
        .generate(3);
    let text = io::write_design(&original);
    let reloaded = io::read_design(&text).expect("reparse");

    let mut cfg = FlowConfig::seu_like();
    cfg.gp_stage1.iterations = 8;
    cfg.gp_stage2.iterations = 4;
    cfg.grid_w = 32;
    cfg.grid_h = 32;
    let flow = PlacementFlow::new(cfg);
    let a = flow
        .run(&original, &mut RudyPredictor::default(), 7)
        .placement;
    let b = flow
        .run(&reloaded, &mut RudyPredictor::default(), 7)
        .placement;
    // Identical netlists and seeds must place identically.
    assert_eq!(a.hpwl(&original.netlist), b.hpwl(&reloaded.netlist));
    for i in 0..a.len() {
        assert_eq!(a.pos(i), b.pos(i));
    }
}

#[test]
fn placement_file_round_trips_through_flow() {
    let design = DesignPreset::design_227()
        .with_scale(512, 64, 32)
        .generate(5);
    let mut cfg = FlowConfig::utda_like();
    cfg.gp_stage1.iterations = 6;
    cfg.gp_stage2.iterations = 3;
    cfg.grid_w = 32;
    cfg.grid_h = 32;
    let placement = PlacementFlow::new(cfg)
        .run(&design, &mut RudyPredictor::default(), 2)
        .placement;
    let text = io::write_placement(&placement);
    let back = io::read_placement(&text).expect("reparse placement");
    assert_eq!(back.len(), placement.len());
    assert_eq!(back.hpwl(&design.netlist), placement.hpwl(&design.netlist));
}

#[test]
fn renderers_produce_valid_ppm() {
    let design = DesignPreset::design_116()
        .with_scale(512, 64, 32)
        .generate(1);
    let placement = design.random_placement(2);
    let img = render_placement(&design, &placement, 3);
    let ppm = img.to_ppm();
    assert!(ppm.starts_with("P3\n"));
    // numbers only after the header, all <= 255
    for tok in ppm.split_whitespace().skip(4) {
        let v: u32 = tok.parse().expect("ppm token numeric");
        assert!(v <= 255);
    }
    let map = GridMap::from_vec(4, 4, (0..16).map(|i| i as f32 / 2.0).collect());
    let heat = render_heatmap(&map, 7.0);
    assert_eq!(heat.width(), 4);
    assert!(heat.to_ppm().starts_with("P3\n4 4\n255\n"));
}

/// The CLI `train` path: fit with a checkpoint configured, then reload the
/// saved v3 file with `load_predictor` (the `serve`/`place --model` path)
/// and check the reloaded model predicts **bitwise identically** to the
/// in-memory trained model — including batch-norm running statistics,
/// which are state, not parameters, and ride in the v3 training section.
#[test]
fn trained_v3_checkpoint_reloads_as_identical_predictor() {
    use mfaplace::autograd::Graph;
    use mfaplace::core::dataset::{Dataset, Sample};
    use mfaplace::core::loader::{load_predictor, LoadOptions};
    use mfaplace::core::predictor::ModelPredictor;
    use mfaplace::core::train::{TrainConfig, Trainer};
    use mfaplace::models::{Arch, ArchSpec};
    use mfaplace::tensor::Tensor;
    use mfaplace_rt::rng::{Rng, SeedableRng, StdRng};

    let grid = 16;
    let mut rng = StdRng::seed_from_u64(31);
    let dataset = Dataset {
        samples: (0..4)
            .map(|_| Sample {
                features: Tensor::randn(vec![6, grid, grid], 1.0, &mut rng),
                labels: (0..grid * grid)
                    .map(|_| rng.gen_range(0..8u32) as u8)
                    .collect(),
            })
            .collect(),
        grid,
    };

    let dir = std::env::temp_dir().join("mfaplace_cli_paths");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("trained_v3.mfaw");
    let _ = std::fs::remove_file(&ckpt);

    let mut spec = ArchSpec::new(Arch::UNet, grid);
    spec.base_channels = 2;
    let mut g = Graph::new();
    let mut init_rng = StdRng::seed_from_u64(32);
    let model = spec.build(&mut g, &mut init_rng).unwrap();
    let mut trainer = Trainer::new(
        g,
        model,
        TrainConfig {
            epochs: 2,
            batch_size: 2,
            checkpoint: Some(ckpt.clone()),
            ..TrainConfig::default()
        },
    );
    trainer.set_checkpoint_meta(spec.to_meta());
    trainer.fit(&dataset);

    let x = dataset.samples[0].features.clone();
    let (graph, model) = trainer.into_parts();
    let mut in_memory = ModelPredictor::new(graph, model);
    let want = in_memory.predict_batch_tensors(std::slice::from_ref(&x));

    let (loaded_spec, mut reloaded) =
        load_predictor(ckpt.to_str().unwrap(), LoadOptions::default()).unwrap();
    assert_eq!(loaded_spec, spec, "spec must round-trip through the file");
    let got = reloaded.predict_batch_tensors(std::slice::from_ref(&x));
    assert_eq!(want.len(), got.len());
    for (a, b) in want[0].data().iter().zip(got[0].data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "reloaded prediction drifted");
    }
    let _ = std::fs::remove_file(&ckpt);
}

/// Checkpoints of both on-disk versions must load into the compiled-plan
/// engine and predict **bitwise identically** to the tape engine: a v2
/// file (parameters only, fresh init of the full `Ours` arch) and a v3
/// file (trained U-Net whose batch-norm running statistics ride in the
/// training section and feed the plan's inference-mode channel affines).
#[test]
fn v2_and_v3_checkpoints_run_bitwise_identically_on_the_plan_engine() {
    use mfaplace::autograd::Graph;
    use mfaplace::core::dataset::{Dataset, Sample};
    use mfaplace::core::loader::{init_checkpoint, load_predictor, LoadOptions};
    use mfaplace::core::predictor::Engine;
    use mfaplace::core::train::{TrainConfig, Trainer};
    use mfaplace::models::{Arch, ArchSpec};
    use mfaplace::tensor::Tensor;
    use mfaplace_rt::rng::{Rng, SeedableRng, StdRng};

    let grid = 16;
    let dir = std::env::temp_dir().join("mfaplace_cli_paths");
    std::fs::create_dir_all(&dir).unwrap();

    // v2: parameters only, the paper's full architecture.
    let mut ours = ArchSpec::new(Arch::Ours, grid);
    ours.base_channels = 2;
    ours.vit_layers = 1;
    ours.vit_heads = 2;
    let v2 = dir.join("engine_v2.mfaw");
    let _ = std::fs::remove_file(&v2);
    init_checkpoint(&ours, 21, v2.to_str().unwrap()).unwrap();

    // v3: a briefly trained U-Net, so the running stats are non-trivial.
    let mut rng = StdRng::seed_from_u64(41);
    let dataset = Dataset {
        samples: (0..4)
            .map(|_| Sample {
                features: Tensor::randn(vec![6, grid, grid], 1.0, &mut rng),
                labels: (0..grid * grid)
                    .map(|_| rng.gen_range(0..8u32) as u8)
                    .collect(),
            })
            .collect(),
        grid,
    };
    let mut unet = ArchSpec::new(Arch::UNet, grid);
    unet.base_channels = 2;
    let v3 = dir.join("engine_v3.mfaw");
    let _ = std::fs::remove_file(&v3);
    let mut g = Graph::new();
    let mut init_rng = StdRng::seed_from_u64(42);
    let model = unet.build(&mut g, &mut init_rng).unwrap();
    let mut trainer = Trainer::new(
        g,
        model,
        TrainConfig {
            epochs: 1,
            batch_size: 2,
            checkpoint: Some(v3.clone()),
            ..TrainConfig::default()
        },
    );
    trainer.set_checkpoint_meta(unet.to_meta());
    trainer.fit(&dataset);

    for ckpt in [v2, v3] {
        let path = ckpt.to_str().unwrap();
        let (_, mut tape) = load_predictor(path, LoadOptions::default()).unwrap();
        tape.set_engine(Engine::Tape);
        let (_, mut plan) = load_predictor(path, LoadOptions::default()).unwrap();
        plan.set_engine(Engine::Plan);
        for seed in [0u64, 9] {
            let mut xr = StdRng::seed_from_u64(seed);
            let x = Tensor::randn(vec![6, grid, grid], 1.0, &mut xr);
            let want = tape.predict_batch_tensors(std::slice::from_ref(&x));
            let got = plan.predict_batch_tensors(std::slice::from_ref(&x));
            assert_eq!(want.len(), got.len());
            for (a, b) in want[0].data().iter().zip(got[0].data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{path}: plan drifted from tape");
            }
        }
        let _ = std::fs::remove_file(&ckpt);
    }
}
