//! End-to-end guarantees of incremental bound propagation (DESIGN.md
//! §5c): parent-prefix caching must be invisible in every observable
//! output — verdicts, search trajectories, certificates — while cutting
//! the counted back-substitution work on split chains.

use abonn_bound::{
    AlphaCrown, Analysis, AppVer, BoundComputeStats, BoundPrefix, CachedAnalysis, DeepPoly,
    FromScratch, InputBox, NeuronId, SplitSet, SplitSign,
};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, CrownStyle, RobustnessProblem, Verdict,
    Verifier,
};
use abonn_data::suite::{calibrated_instances, SuiteConfig};
use abonn_data::zoo::ModelKind;
use abonn_nn::{AffinePair, CanonicalNetwork, Layer, Network, Shape};
use abonn_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

fn random_canonical(seed: u64, dims: &[usize]) -> CanonicalNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut layers = Vec::new();
    for w in dims.windows(2) {
        let m = Matrix::from_fn(w[1], w[0], |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..w[1]).map(|_| rng.gen_range(-0.5..0.5)).collect();
        layers.push(AffinePair::new(m, b));
    }
    CanonicalNetwork::from_affine_pairs(dims[0], layers)
}

/// Verdict and trajectory match exactly with the cache on and off, for
/// both search strategies, across a spread of robustness instances. "Off"
/// runs the same engines over [`FromScratch`], which bounds every node
/// from scratch.
#[test]
fn verdicts_and_trajectories_match_cache_on_and_off() {
    let net = Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, -1.0], &[-1.0, 1.0]]),
                vec![0.0, 0.0, 0.0, 0.0],
            ),
            Layer::relu(),
            Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0, 0.5, 0.0], &[0.0, 1.0, 0.0, 0.5]]),
                vec![0.0, 0.0],
            ),
        ],
    )
    .unwrap();
    let budget = Budget::with_appver_calls(300);
    for (x0, eps) in [
        (vec![0.8, 0.2], 0.02),
        (vec![0.7, 0.3], 0.1),
        (vec![0.55, 0.45], 0.2),
        (vec![0.6, 0.4], 0.05),
    ] {
        let problem = RobustnessProblem::new(&net, x0.clone(), 0, eps).unwrap();

        let abonn_on = AbonnVerifier::default();
        let abonn_off = AbonnVerifier::new(
            AbonnConfig::default(),
            Arc::new(FromScratch(DeepPoly::new())),
        );
        let a_on = abonn_on.verify(&problem, &budget);
        let a_off = abonn_off.verify(&problem, &budget);
        assert_eq!(a_on.verdict, a_off.verdict, "ABONN verdict at {x0:?}");
        assert_eq!(
            a_on.stats.appver_calls, a_off.stats.appver_calls,
            "ABONN trajectory at {x0:?}"
        );
        assert_eq!(a_on.stats.tree_size, a_off.stats.tree_size);

        let bab_on = BabBaseline::default();
        let bab_off = BabBaseline::new(
            HeuristicKind::DeepSplit,
            Arc::new(FromScratch(DeepPoly::new())),
        );
        let b_on = bab_on.verify(&problem, &budget);
        let b_off = bab_off.verify(&problem, &budget);
        assert_eq!(b_on.verdict, b_off.verdict, "BaB verdict at {x0:?}");
        assert_eq!(
            b_on.stats.appver_calls, b_off.stats.appver_calls,
            "BaB trajectory at {x0:?}"
        );
        assert_eq!(b_on.stats.nodes_visited, b_off.stats.nodes_visited);

        if let (Verdict::Falsified(w1), Verdict::Falsified(w2)) = (&a_on.verdict, &a_off.verdict) {
            assert_eq!(w1, w2, "witness must be bit-identical at {x0:?}");
        }
    }
}

/// The acceptance demo: chained deep splits re-bound with parent
/// prefixes count at least 30% fewer back-substitution layer-steps than
/// bounding every node of the chain from scratch, with bit-identical
/// results.
#[test]
fn cached_chain_saves_thirty_percent_of_backsub_steps() {
    let net = random_canonical(11, &[3, 8, 8, 8, 8, 8, 8, 8, 2]);
    let region = InputBox::new(vec![-1.0; 3], vec![1.0; 3]);
    let dp = DeepPoly::new();

    let root = dp.analyze_cached(&net, &region, &SplitSet::new(), None);
    let deep: Vec<_> = root
        .analysis
        .unstable_neurons(&SplitSet::new())
        .into_iter()
        .filter(|n| n.layer == 6)
        .take(3)
        .collect();
    assert_eq!(
        deep.len(),
        3,
        "seed must give 3 unstable neurons at layer 6"
    );

    let mut cached = BoundComputeStats::default();
    let mut scratch = BoundComputeStats::default();
    cached.absorb(&root.stats);
    scratch.absorb(&root.stats);

    let mut splits = SplitSet::new();
    let mut parent = root.prefix;
    for neuron in deep {
        splits = splits.with(neuron, SplitSign::Pos);
        let with_cache = dp.analyze_cached(&net, &region, &splits, parent.as_ref());
        let from_scratch = dp.analyze_cached(&net, &region, &splits, None);
        assert_eq!(
            with_cache.analysis.p_hat.to_bits(),
            from_scratch.analysis.p_hat.to_bits(),
            "cached p_hat must be bit-identical"
        );
        cached.absorb(&with_cache.stats);
        scratch.absorb(&from_scratch.stats);
        parent = with_cache.prefix;
    }

    assert!(cached.layers_reused > 0);
    assert!(
        cached.backsub_steps * 10 <= scratch.backsub_steps * 7,
        "expected >= 30% fewer layer-steps, got {} cached vs {} scratch",
        cached.backsub_steps,
        scratch.backsub_steps
    );
}

/// The split set and work counters of one `analyze_cached` call.
type Call = (Vec<(NeuronId, SplitSign)>, BoundComputeStats);

/// Forwards to a verifier and records every `analyze_cached` call.
struct Recorder<V> {
    inner: V,
    calls: Mutex<Vec<Call>>,
}

impl<V: AppVer> AppVer for Recorder<V> {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        self.inner.analyze(net, region, splits)
    }

    fn analyze_cached(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
    ) -> CachedAnalysis {
        let cached = self.inner.analyze_cached(net, region, splits, parent);
        let mut calls = self.calls.lock().expect("no test thread panicked");
        calls.push((splits.iter().collect(), cached.stats));
        cached
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// ab-CROWN threads α-CROWN prefixes through its queue, and that must not
/// change the search: over `FromScratch` it reaches the same verdict,
/// witness, certificate and search counters on branching MNIST
/// instances. Every pop re-queries the node it pushed with that node's
/// own prefix, so it must reuse all layers and run no bound pass.
#[test]
fn crown_style_search_matches_from_scratch_alpha_crown() {
    let budget = Budget::with_appver_calls(100);
    let mut branched = 0;
    for kind in [ModelKind::MnistL2, ModelKind::MnistL4] {
        let (net, _) = kind.trained_model(2025);
        let config = SuiteConfig {
            per_model: 8,
            seed: 2025,
        };
        for instance in calibrated_instances(kind, &net, &config) {
            let problem =
                RobustnessProblem::new(&net, instance.input, instance.label, instance.epsilon)
                    .expect("calibrated instances are valid problems");
            let recorder = Arc::new(Recorder {
                inner: AlphaCrown::default(),
                calls: Mutex::new(Vec::new()),
            });
            let cached = CrownStyle::new(HeuristicKind::DeepSplit, recorder.clone());
            let scratch = CrownStyle::new(
                HeuristicKind::DeepSplit,
                Arc::new(FromScratch(AlphaCrown::default())),
            );
            let (a, a_cert) = cached.verify_with_certificate(&problem, &budget);
            let (b, b_cert) = scratch.verify_with_certificate(&problem, &budget);
            let what = format!("{kind} instance {}", instance.id);
            assert_eq!(a.verdict, b.verdict, "{what}: verdict or witness");
            assert_eq!(a_cert, b_cert, "{what}: certificate");
            assert_eq!(a.stats.appver_calls, b.stats.appver_calls, "{what}");
            assert_eq!(a.stats.nodes_visited, b.stats.nodes_visited, "{what}");
            assert_eq!(a.stats.tree_size, b.stats.tree_size, "{what}");
            assert_eq!(a.stats.max_depth, b.stats.max_depth, "{what}");

            let calls = recorder.calls.lock().expect("no test thread panicked");
            let mut pops = 0;
            for (i, (splits, stats)) in calls.iter().enumerate() {
                if calls[..i].iter().any(|(earlier, _)| earlier == splits) {
                    pops += 1;
                    let whole = BoundComputeStats {
                        layers_reused: problem.margin_net().num_layers(),
                        ..BoundComputeStats::default()
                    };
                    assert_eq!(*stats, whole, "{what}: pop of {splits:?}");
                }
            }
            if a.stats.appver_calls > 1 {
                // The root was queued: every node visited was popped.
                assert_eq!(pops, a.stats.nodes_visited, "{what}: every pop re-queries");
            }
            branched += usize::from(a.stats.tree_size > 1);
        }
    }
    assert!(branched >= 3, "only {branched} instances branched");
}
