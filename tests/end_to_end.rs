//! Cross-crate integration tests: the full pipelines the paper's system
//! runs, end to end.

use scnn_rng::SplitRng;
use split_cnn::core::{lower_unsplit, plan_split, plan_split_stochastic, SplitConfig};
use split_cnn::data::{SyntheticDataset, SyntheticSpec};
use split_cnn::gpusim::{
    max_batch_size, offload_analysis, profile_graph, simulate, CostModel, DeviceSpec,
};
use split_cnn::graph::Tape;
use split_cnn::hmms::{
    plan_hmms, plan_layout, plan_no_offload, plan_vdnn, theoretical_offload_fraction,
    PlannerOptions, TsoAssignment, TsoOptions,
};
use split_cnn::models::{resnet18, resnet50, vgg19, vgg19_bn, ModelOptions};
use split_cnn::nn::{evaluate, train_epoch, BnState, ParamStore, Sgd};

/// Trains a width-scaled split ResNet on synthetic data and checks the
/// learned weights transfer to the unsplit network — the full §5 pipeline.
#[test]
fn split_resnet_trains_and_transfers_to_unsplit() {
    let desc = resnet18(&ModelOptions::cifar().with_width(0.125));
    let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).unwrap();
    let batch = 8;
    let split = plan.lower(&desc, batch);
    let unsplit = lower_unsplit(&desc, batch);

    let mut spec = SyntheticSpec::cifar_like(41);
    spec.classes = 4;
    spec.noise = 0.4;
    let data = SyntheticDataset::new(spec);
    let (train, test) = data.train_test(10, 3, batch);

    let mut rng = SplitRng::seed_from_u64(41);
    let mut params = ParamStore::init(&unsplit, &mut rng);
    let mut bn = BnState::new();
    let mut opt = Sgd::new(&params, 0.05, 0.9, 1e-4);
    for _ in 0..6 {
        let mut provider = |_| split.clone();
        train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng);
    }
    let err_split = evaluate(&split, &mut params, &mut bn, &test, &mut rng);
    let err_unsplit = evaluate(&unsplit, &mut params, &mut bn, &test, &mut rng);
    assert!(err_split < 0.5, "split net failed to learn: {err_split}");
    assert!(
        err_unsplit < 0.65,
        "weights did not transfer to the unsplit net: {err_unsplit}"
    );
}

/// Stochastic splitting: a different graph every batch, one weight set.
#[test]
fn stochastic_training_runs_with_fresh_graphs_each_batch() {
    let desc = vgg19_bn(&ModelOptions::cifar().with_width(0.125));
    // Depth 0.2 joins at the 16-px feature map, where the stochastic
    // omega-window is wide enough to actually vary.
    let cfg = SplitConfig::new(0.2, 2, 2);
    let batch = 8;
    let unsplit = lower_unsplit(&desc, batch);

    let mut spec = SyntheticSpec::cifar_like(42);
    spec.classes = 4;
    let data = SyntheticDataset::new(spec);
    let (train, _) = data.train_test(4, 1, batch);

    let mut rng = SplitRng::seed_from_u64(42);
    let mut split_rng = SplitRng::seed_from_u64(43);
    let mut params = ParamStore::init(&unsplit, &mut rng);
    let mut bn = BnState::new();
    let mut opt = Sgd::new(&params, 0.02, 0.9, 1e-4);
    let mut schemes = Vec::new();
    let mut provider = |_| {
        let plan = plan_split_stochastic(&desc, &cfg, 0.2, &mut split_rng).unwrap();
        schemes.push(plan.input_schemes().0.to_vec());
        plan.lower(&desc, batch)
    };
    let stats = train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng);
    assert!(stats.loss.is_finite());
    assert!(params.all_finite());
    assert!(
        schemes.iter().any(|s| s != &schemes[0]),
        "stochastic schemes never varied: {schemes:?}"
    );
}

/// The full memory pipeline for every paper model: profile → TSO → plan →
/// layout → simulate, with all three planners, checking the §6.2 ordering.
#[test]
fn memory_pipeline_for_all_models() {
    let model = CostModel::default();
    let batch = 8;
    for desc in [
        vgg19(&ModelOptions::imagenet()),
        resnet18(&ModelOptions::imagenet()),
        resnet50(&ModelOptions::imagenet()),
    ] {
        let graph = lower_unsplit(&desc, batch);
        let profile = profile_graph(&graph, &model);
        let tape = Tape::new(&graph);
        let tso = TsoAssignment::new(&graph, &profile.workspace_bytes, TsoOptions::default());
        let cap = theoretical_offload_fraction(&graph, &tape, &tso, &profile);
        let opts = PlannerOptions {
            offload_cap: cap,
            mem_streams: 2,
        };

        let base = plan_no_offload(&graph, &tape, &tso, &profile);
        let vdnn = plan_vdnn(&graph, &tape, &tso, &profile, opts);
        let hmms = plan_hmms(&graph, &tape, &tso, &profile, opts);

        let lb = plan_layout(&graph, &base, &tso).expect("baseline plan is legal");
        let lh = plan_layout(&graph, &hmms, &tso).expect("hmms plan is legal");
        // VGG-19 and ResNet-50 shrink; plain ResNet-18's peak is pinned by
        // its early-stem backward working set (the §6.3 observation that a
        // small subset of layers blocks trainability — the reason the
        // paper needs Split-CNN on top of offloading), so only non-growth
        // is guaranteed there.
        assert!(
            lh.device_general_bytes <= lb.device_general_bytes,
            "{}: HMMS grew the device footprint",
            desc.name
        );
        if desc.name.contains("vgg19") || desc.name.contains("resnet50") {
            assert!(
                lh.device_general_bytes < lb.device_general_bytes,
                "{}: HMMS did not reduce device footprint",
                desc.name
            );
        }

        let rb = simulate(&graph, &tape, &tso, &base, &profile);
        let rv = simulate(&graph, &tape, &tso, &vdnn, &profile);
        let rh = simulate(&graph, &tape, &tso, &hmms, &profile);
        assert!(rh.total_time <= rv.total_time + 1e-12, "{}", desc.name);
        assert!(rb.total_time <= rh.total_time + 1e-12, "{}", desc.name);
        // HMMS hides transfers almost completely on these models.
        assert!(
            rh.slowdown_vs(&rb) < 1.06,
            "{}: HMMS slowdown {:.3}",
            desc.name,
            rh.slowdown_vs(&rb)
        );
    }
}

/// Splitting + HMMS increases the maximum trainable batch size (Fig. 10).
#[test]
fn split_plus_hmms_raises_max_batch() {
    let device = DeviceSpec::p100_nvlink();
    let model = CostModel::new(device);
    // A reduced capacity keeps the search fast in tests.
    let capacity = 2 << 30;
    let desc = vgg19(&ModelOptions::imagenet());
    let split_plan = plan_split(&desc, &SplitConfig::new(0.75, 2, 2)).unwrap();

    let base = max_batch_size(
        capacity,
        256,
        |b| {
            let g = lower_unsplit(&desc, b);
            let p = profile_graph(&g, &model);
            (g, p)
        },
        plan_no_offload,
    )
    .expect("legal plans")
    .expect("fits at batch 1");
    let split = max_batch_size(
        capacity,
        256,
        |b| {
            let g = split_plan.lower(&desc, b);
            let p = profile_graph(&g, &model);
            (g, p)
        },
        |g, t, s, p| {
            let cap = theoretical_offload_fraction(g, t, s, p);
            plan_hmms(g, t, s, p, PlannerOptions { offload_cap: cap, mem_streams: 2 })
        },
    )
    .expect("legal plans")
    .expect("fits at batch 1");
    assert!(
        split.max_batch >= 2 * base.max_batch,
        "expected >=2x batch gain, got {} vs {}",
        split.max_batch,
        base.max_batch
    );
}

/// The Figure 1 shape: VGG-19 fully offload-able, ResNet-18 partial, and
/// the memory-efficient variant in between.
#[test]
fn offloadable_fractions_match_paper_regime() {
    let model = CostModel::default();
    let frac = |desc: &split_cnn::core::ModelDesc| {
        let g = lower_unsplit(desc, 32);
        let p = profile_graph(&g, &model);
        let tape = Tape::new(&g);
        let tso = TsoAssignment::new(&g, &p.workspace_bytes, TsoOptions::default());
        offload_analysis(&g, &tape, &tso, &p).offloadable_fraction()
    };
    let vgg = frac(&vgg19(&ModelOptions::imagenet()));
    let rn18 = frac(&resnet18(&ModelOptions::imagenet()));
    let rn18me = frac(&resnet18(&ModelOptions::imagenet().with_bn_recompute()));
    let rn50 = frac(&resnet50(&ModelOptions::imagenet()));
    assert_eq!(vgg, 1.0, "VGG-19 should be fully offload-able");
    assert!((0.4..0.8).contains(&rn18), "ResNet-18 fraction {rn18}");
    assert!(rn18me > rn18, "memory-efficient BN must raise the fraction");
    assert!(rn50 < 0.75, "ResNet-50 fraction {rn50}");
}

/// Deterministic reproducibility: identical seeds give bitwise-identical
/// training trajectories across the whole stack.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let desc = resnet18(&ModelOptions::cifar().with_width(0.125));
        let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).unwrap();
        let g = plan.lower(&desc, 4);
        let mut spec = SyntheticSpec::cifar_like(9);
        spec.classes = 3;
        let data = SyntheticDataset::new(spec);
        let (train, _) = data.train_test(3, 1, 4);
        let mut rng = SplitRng::seed_from_u64(1);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut provider = |_| g.clone();
        let s = train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng);
        s.loss
    };
    assert_eq!(run(), run());
}

/// The `scnn-par` chunking contract, end to end: one training epoch over a
/// split ResNet must produce a bit-identical loss whether the kernels run
/// fully serial or on four pool workers. Chunk boundaries, RNG draw order
/// and BN running-stat updates are all functions of problem size / node id
/// only, so the thread count may never leak into a single output bit.
#[test]
fn epoch_is_bit_identical_across_thread_counts() {
    let epoch_loss = || {
        let desc = resnet18(&ModelOptions::cifar().with_width(0.125));
        let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).unwrap();
        let g = plan.lower(&desc, 4);
        let mut spec = SyntheticSpec::cifar_like(5);
        spec.classes = 3;
        let data = SyntheticDataset::new(spec);
        let (train, _) = data.train_test(3, 1, 4);
        let mut rng = SplitRng::seed_from_u64(42);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut provider = |_| g.clone();
        train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng)
            .loss
            .to_bits()
    };
    let serial = split_cnn::par::with_threads(1, epoch_loss);
    let threaded = split_cnn::par::with_threads(4, epoch_loss);
    assert_eq!(serial, threaded, "thread count changed the epoch loss bits");
}

/// The runtime-SIMD-dispatch contract (DESIGN.md §14), end to end: a
/// seeded training epoch must produce bit-identical losses whether the
/// micro-kernels run their portable scalar bodies, the AVX2 ones or the
/// AVX-512 ones, at any thread count — every body evaluates the same
/// sequence of fused multiply-adds (`_mm512_fmadd_ps`, `_mm256_fmadd_ps`
/// and `f32::mul_add` are one correctly rounded operation), so the ISA is
/// a pure speed choice. `force_level` is the in-process equivalent of
/// `SCNN_SIMD=scalar|avx2|avx512`; each level the host supports runs, and
/// on a host with neither vector level the test degenerates to scalar vs
/// scalar.
#[test]
fn epoch_is_bit_identical_across_simd_levels() {
    use split_cnn::tensor::{force_level, supports, SimdLevel};
    let epoch_loss = || {
        let desc = resnet18(&ModelOptions::cifar().with_width(0.125));
        let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).unwrap();
        let g = plan.lower(&desc, 4);
        let mut spec = SyntheticSpec::cifar_like(11);
        spec.classes = 3;
        let data = SyntheticDataset::new(spec);
        let (train, _) = data.train_test(3, 1, 4);
        let mut rng = SplitRng::seed_from_u64(77);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut provider = |_| g.clone();
        train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng)
            .loss
            .to_bits()
    };
    force_level(Some(SimdLevel::Scalar));
    let scalar_1 = split_cnn::par::with_threads(1, epoch_loss);
    let scalar_4 = split_cnn::par::with_threads(4, epoch_loss);
    let mut results = vec![("scalar@4".to_string(), scalar_4)];
    for level in SimdLevel::ALL
        .into_iter()
        .filter(|&l| l != SimdLevel::Scalar && supports(l))
    {
        force_level(Some(level));
        for threads in [1, 4] {
            let label = format!("{}@{threads}", level.name());
            results.push((label, split_cnn::par::with_threads(threads, epoch_loss)));
        }
    }
    force_level(None);
    for (label, bits) in results {
        assert_eq!(bits, scalar_1, "{label} loss bits differ from scalar@1");
    }
}

/// Regression test for the hermetic RNG migration: two identically-seeded
/// multi-epoch runs must agree bit-for-bit on every per-epoch loss, and
/// identically-seeded stochastic planners must emit the same scheme
/// sequence. Any drift here means `scnn_rng` (or a consumer's draw order)
/// changed behaviour.
#[test]
fn seeded_runs_are_bit_identical() {
    let train_losses = || {
        let desc = resnet18(&ModelOptions::cifar().with_width(0.125));
        let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).unwrap();
        let g = plan.lower(&desc, 4);
        let mut spec = SyntheticSpec::cifar_like(7);
        spec.classes = 3;
        let data = SyntheticDataset::new(spec);
        let (train, _) = data.train_test(3, 1, 4);
        let mut rng = SplitRng::seed_from_u64(1234);
        let mut params = ParamStore::init(&g, &mut rng);
        let mut bn = BnState::new();
        let mut opt = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut provider = |_| g.clone();
        (0..3)
            .map(|_| {
                train_epoch(&mut provider, &mut params, &mut bn, &mut opt, &train, &mut rng)
                    .loss
                    .to_bits()
            })
            .collect::<Vec<u32>>()
    };
    assert_eq!(train_losses(), train_losses());

    let schemes = || {
        let desc = vgg19_bn(&ModelOptions::cifar().with_width(0.125));
        let cfg = SplitConfig::new(0.2, 2, 2);
        let mut rng = SplitRng::seed_from_u64(99);
        (0..8)
            .map(|_| {
                let plan = plan_split_stochastic(&desc, &cfg, 0.2, &mut rng).unwrap();
                plan.input_schemes().0.to_vec()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(schemes(), schemes());
}
