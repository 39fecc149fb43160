//! Shared experiment runner: trained models, instances, approaches, and
//! per-instance run records.

use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, CrownStyle, RobustnessProblem, Verdict,
    Verifier, WorkerPool,
};
use abonn_data::{suite, zoo::ModelKind, SuiteConfig, VerificationInstance};
use abonn_nn::Network;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Experiment size: how many instances per model and how big the budgets
/// are. `Smoke` is CI-sized, `Default` is the laptop-scale reproduction,
/// `Full` approaches the paper's instance counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few instances per model, small budgets (seconds total).
    Smoke,
    /// The default reproduction scale (minutes total).
    Default,
    /// As close to the paper's 552 instances as a laptop allows.
    Full,
}

impl Scale {
    /// Parses `smoke` / `default` / `full`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Instances per model.
    #[must_use]
    pub fn per_model(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Default => 8,
            Scale::Full => 20,
        }
    }

    /// Per-instance budget.
    #[must_use]
    pub fn budget(&self) -> Budget {
        // Call-only on purpose: AppVer calls are the paper's cost unit and
        // are machine-independent, so suite reports are a pure function of
        // (scale, seed) — byte-identical across reruns, machines, and
        // `--threads` values. A wall limit would time out at a
        // load-dependent call count and break that. Per-instance wall
        // budgets remain supported (`Budget::and_wall_limit`) for callers
        // that want them.
        match self {
            Scale::Smoke => Budget::with_appver_calls(200),
            Scale::Default => Budget::with_appver_calls(1_500),
            Scale::Full => Budget::with_appver_calls(4_000),
        }
    }

    /// Lowercase name used in cache-file paths.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// One of the three compared approaches (plus parameterised ABONN
/// variants for the RQ2 sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Approach {
    /// Breadth-first BaB (the paper's `BaB-baseline`).
    BabBaseline,
    /// αβ-CROWN-style: PGD pre-attack + best-first over α-bounds.
    CrownStyle,
    /// ABONN with the given hyperparameters `(λ, c)`.
    Abonn {
        /// Potentiality weight λ.
        lambda: f64,
        /// UCB1 exploration constant c.
        c: f64,
    },
}

impl Approach {
    /// ABONN with the paper's default hyperparameters λ = 0.5, c = 0.2.
    pub const ABONN_DEFAULT: Approach = Approach::Abonn {
        lambda: 0.5,
        c: 0.2,
    };

    /// The three approaches of Table II, in the paper's column order.
    #[must_use]
    pub fn rq1_lineup() -> Vec<Approach> {
        vec![
            Approach::BabBaseline,
            Approach::CrownStyle,
            Approach::ABONN_DEFAULT,
        ]
    }

    /// Column label used in reports (matches the paper's terminology).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Approach::BabBaseline => "BaB-baseline".into(),
            Approach::CrownStyle => "ab-CROWN".into(),
            Approach::Abonn { lambda, c } => {
                if (*lambda - 0.5).abs() < 1e-12 && (*c - 0.2).abs() < 1e-12 {
                    "ABONN".into()
                } else {
                    format!("ABONN(l={lambda},c={c})")
                }
            }
        }
    }

    /// Instantiates the verifier.
    ///
    /// ABONN and BaB-baseline share the Planet-style (zero-slope) DeepPoly
    /// relaxation: at this reproduction's reduced network scale the
    /// adaptive relaxation is so tight that BaB trees collapse to a handful
    /// of nodes, hiding exactly the exploration-order effects the paper
    /// studies; the looser relaxation restores the relative
    /// over-approximation the paper's verifiers exhibit on full-size
    /// networks (see `DESIGN.md` §2). The CROWN-style baseline keeps its
    /// α-optimised bounds — its sophistication is the point of that
    /// comparison.
    #[must_use]
    pub fn build(&self) -> Box<dyn Verifier> {
        self.build_with_pool(Arc::new(WorkerPool::inline()))
    }

    /// Like [`Approach::build`], with the verifier's intra-run parallelism
    /// (the paired phase analyses of ABONN, the frontier batches of
    /// BaB-baseline) running on `pool`. Results are identical to
    /// [`Approach::build`] for any pool size; the CROWN-style baseline is
    /// sequential by design and ignores the pool.
    #[must_use]
    pub fn build_with_pool(&self, pool: Arc<WorkerPool>) -> Box<dyn Verifier> {
        let planet = || std::sync::Arc::new(abonn_bound::DeepPoly::planet());
        match self {
            Approach::BabBaseline => Box::new(
                BabBaseline::new(abonn_core::heuristics::HeuristicKind::DeepSplit, planet())
                    .with_pool(pool),
            ),
            Approach::CrownStyle => Box::new(CrownStyle::default()),
            Approach::Abonn { lambda, c } => Box::new(
                AbonnVerifier::new(
                    AbonnConfig {
                        lambda: *lambda,
                        c: *c,
                        ..AbonnConfig::default()
                    },
                    planet(),
                )
                .with_pool(pool),
            ),
        }
    }
}

/// One (instance × approach) measurement, serialisable for caching and
/// CSV export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// Paper-style model name.
    pub model: String,
    /// Approach label.
    pub approach: String,
    /// Instance id within the model's suite.
    pub instance_id: usize,
    /// Perturbation radius.
    pub epsilon: f64,
    /// `"verified"`, `"falsified"`, or `"timeout"`.
    pub verdict: String,
    /// `AppVer` calls spent.
    pub appver_calls: usize,
    /// Sub-problems visited.
    pub nodes_visited: usize,
    /// Final BaB tree size.
    pub tree_size: usize,
    /// Deepest split reached.
    pub max_depth: usize,
    /// Measured wall seconds. In memory only: wall time varies run to run
    /// and machine to machine, so it is excluded from the persisted
    /// JSON/CSV artefacts, which must be byte-identical across reruns and
    /// thread counts (reports cost in `AppVer` calls instead; this field
    /// deserialises as zero).
    #[serde(skip)]
    pub wall_secs: f64,
}

impl InstanceRecord {
    /// Returns `true` when the run ended with a conclusive verdict.
    #[must_use]
    pub fn solved(&self) -> bool {
        self.verdict != "timeout"
    }
}

fn verdict_str(v: &Verdict) -> &'static str {
    match v {
        Verdict::Verified => "verified",
        Verdict::Falsified(_) => "falsified",
        Verdict::Timeout => "timeout",
    }
}

/// A trained model with its verification instances.
pub struct PreparedModel {
    /// Which benchmark model.
    pub kind: ModelKind,
    /// The trained network.
    pub network: Network,
    /// The calibrated instances.
    pub instances: Vec<VerificationInstance>,
}

/// Trains `kind` and builds its instance suite (deterministic in `seed`).
#[must_use]
pub fn prepare_model(kind: ModelKind, per_model: usize, seed: u64) -> PreparedModel {
    let (network, _train_data) = kind.trained_model(seed);
    let config = SuiteConfig {
        per_model,
        seed: seed ^ 0xBEEF,
    };
    let instances = suite::calibrated_instances(kind, &network, &config);
    PreparedModel {
        kind,
        network,
        instances,
    }
}

/// Like [`prepare_model`], but cached on disk: training and radius
/// calibration dominate every binary's startup, so the trained weights and
/// instances are persisted under `dir` and reloaded on later runs with the
/// same `(kind, per_model, seed)`.
#[must_use]
pub fn prepare_model_cached(
    kind: ModelKind,
    per_model: usize,
    seed: u64,
    dir: &std::path::Path,
) -> PreparedModel {
    #[derive(Serialize, Deserialize)]
    struct Cached {
        network: Network,
        instances: Vec<CachedInstance>,
    }
    #[derive(Serialize, Deserialize)]
    struct CachedInstance {
        id: usize,
        input: Vec<f64>,
        label: usize,
        epsilon: f64,
    }
    let path = dir.join(format!(
        "model-{}-n{}-s{}.json",
        kind.paper_name(),
        per_model,
        seed
    ));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(cached) = serde_json::from_str::<Cached>(&text) {
            return PreparedModel {
                kind,
                network: cached.network,
                instances: cached
                    .instances
                    .into_iter()
                    .map(|i| VerificationInstance {
                        model: kind,
                        id: i.id,
                        input: i.input,
                        label: i.label,
                        epsilon: i.epsilon,
                    })
                    .collect(),
            };
        }
    }
    let prepared = prepare_model(kind, per_model, seed);
    let cached = Cached {
        network: prepared.network.clone(),
        instances: prepared
            .instances
            .iter()
            .map(|i| CachedInstance {
                id: i.id,
                input: i.input.clone(),
                label: i.label,
                epsilon: i.epsilon,
            })
            .collect(),
    };
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(json) = serde_json::to_string(&cached) {
            let _ = std::fs::write(&path, json);
        }
    }
    prepared
}

/// Prepares every benchmark model once (training is the expensive part),
/// using the disk cache in `dir`.
#[must_use]
pub fn prepare_all(scale: Scale, seed: u64, dir: &std::path::Path) -> Vec<PreparedModel> {
    ModelKind::ALL
        .iter()
        .map(|&kind| prepare_model_cached(kind, scale.per_model(), seed, dir))
        .collect()
}

/// Runs one approach on one instance.
///
/// # Panics
///
/// Panics if the instance is inconsistent with the prepared network (never
/// the case for instances from [`prepare_model`]).
#[must_use]
pub fn run_instance(
    prepared: &PreparedModel,
    instance: &VerificationInstance,
    approach: Approach,
    budget: &Budget,
) -> InstanceRecord {
    run_instance_pooled(
        prepared,
        instance,
        approach,
        budget,
        &Arc::new(WorkerPool::inline()),
    )
}

/// Like [`run_instance`], with the verifier's intra-run parallelism on
/// `pool`. The record is identical for any pool size (apart from the
/// in-memory `wall_secs`).
///
/// # Panics
///
/// Panics if the instance is inconsistent with the prepared network.
#[must_use]
pub fn run_instance_pooled(
    prepared: &PreparedModel,
    instance: &VerificationInstance,
    approach: Approach,
    budget: &Budget,
    pool: &Arc<WorkerPool>,
) -> InstanceRecord {
    let problem = RobustnessProblem::new(
        &prepared.network,
        instance.input.clone(),
        instance.label,
        instance.epsilon,
    )
    .expect("suite instances are valid specifications");
    let verifier = approach.build_with_pool(Arc::clone(pool));
    let result = verifier.verify(&problem, budget);
    InstanceRecord {
        model: prepared.kind.paper_name().to_string(),
        approach: approach.label(),
        instance_id: instance.id,
        epsilon: instance.epsilon,
        verdict: verdict_str(&result.verdict).to_string(),
        appver_calls: result.stats.appver_calls,
        nodes_visited: result.stats.nodes_visited,
        tree_size: result.stats.tree_size,
        max_depth: result.stats.max_depth,
        wall_secs: result.stats.wall.as_secs_f64(),
    }
}

/// Runs the full `(models × approaches × instances)` grid on `pool`,
/// printing one-line progress to stderr.
///
/// Each instance keeps its own per-run budget (the wall limit applies to
/// that instance's verifier, not to the grid), and the returned records
/// are merged in the fixed `(model, approach, instance id)` grid order
/// regardless of which thread finished first — so persisted reports are
/// byte-identical for every pool size.
#[must_use]
pub fn run_grid(
    models: &[PreparedModel],
    approaches: &[Approach],
    budget: &Budget,
    pool: &Arc<WorkerPool>,
) -> Vec<InstanceRecord> {
    let mut tasks = Vec::new();
    for prepared in models {
        for approach in approaches {
            eprintln!(
                "  running {} on {} ({} instances, {} thread(s))...",
                approach.label(),
                prepared.kind.paper_name(),
                prepared.instances.len(),
                pool.threads(),
            );
            for instance in &prepared.instances {
                tasks.push((prepared, *approach, instance));
            }
        }
    }
    pool.map(tasks, |(prepared, approach, instance)| {
        run_instance_pooled(prepared, instance, approach, budget, pool)
    })
}

/// Groups records by `(model, approach)`.
///
/// The groups live in a `BTreeMap` so that grouping *and* any
/// group-order-dependent emission downstream are inherently
/// deterministic — consumers never need to re-sort to keep persisted
/// reports byte-identical across runs.
#[must_use]
pub fn group_by_model_approach(
    records: &[InstanceRecord],
) -> BTreeMap<(String, String), Vec<&InstanceRecord>> {
    let mut map: BTreeMap<(String, String), Vec<&InstanceRecord>> = BTreeMap::new();
    for r in records {
        map.entry((r.model.clone(), r.approach.clone()))
            .or_default()
            .push(r);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_roundtrips() {
        for s in [Scale::Smoke, Scale::Default, Scale::Full] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.per_model() < Scale::Default.per_model());
        assert!(Scale::Default.budget().max_appver_calls < Scale::Full.budget().max_appver_calls);
    }

    #[test]
    fn approach_labels_match_paper_terms() {
        assert_eq!(Approach::BabBaseline.label(), "BaB-baseline");
        assert_eq!(Approach::ABONN_DEFAULT.label(), "ABONN");
        assert_eq!(
            Approach::Abonn {
                lambda: 0.0,
                c: 0.2
            }
            .label(),
            "ABONN(l=0,c=0.2)"
        );
    }

    #[test]
    fn run_instance_produces_consistent_record() {
        let prepared = prepare_model(ModelKind::MnistL2, 2, 3);
        assert!(!prepared.instances.is_empty());
        let budget = Budget::with_appver_calls(50);
        let rec = run_instance(
            &prepared,
            &prepared.instances[0],
            Approach::ABONN_DEFAULT,
            &budget,
        );
        assert_eq!(rec.model, "MNIST_L2");
        assert!(rec.appver_calls >= 1);
        assert!(["verified", "falsified", "timeout"].contains(&rec.verdict.as_str()));
    }

    #[test]
    fn grouping_partitions_records() {
        let mk = |model: &str, approach: &str| InstanceRecord {
            model: model.into(),
            approach: approach.into(),
            instance_id: 0,
            epsilon: 0.1,
            verdict: "verified".into(),
            appver_calls: 1,
            nodes_visited: 1,
            tree_size: 1,
            max_depth: 0,
            wall_secs: 0.0,
        };
        let records = vec![mk("A", "x"), mk("A", "x"), mk("B", "x")];
        let grouped = group_by_model_approach(&records);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[&("A".into(), "x".into())].len(), 2);
    }
}
