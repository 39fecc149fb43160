//! One entry point per paper artefact (tables, figures, ablations).

use crate::cli::Args;
use crate::report::{
    ascii_histogram, ascii_scatter, fmt_table, load_records, log2_histogram, out_path, quartiles,
    save_records, write_csv,
};
use crate::scenario::{
    group_by_model_approach, prepare_all, prepare_model_cached, run_grid, run_instance_pooled,
    Approach, InstanceRecord,
};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{AbonnConfig, AbonnVerifier, BabBaseline, CrownStyle, Verifier, WorkerPool};
use abonn_data::zoo::ModelKind;
use abonn_nn::CanonicalNetwork;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The λ grid of RQ2 (Fig. 5 rows).
pub const LAMBDA_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// The c grid of RQ2 (Fig. 5 columns).
pub const C_GRID: [f64; 4] = [0.0, 0.1, 0.2, 0.5];

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// Regenerates Table I: model, architecture, dataset, #neurons,
/// #instances.
#[must_use]
pub fn table1(args: &Args) -> String {
    let mut rows = Vec::new();
    for &kind in &ModelKind::ALL {
        let prepared = prepare_model_cached(kind, args.scale.per_model(), args.seed, &args.out_dir);
        let canon =
            CanonicalNetwork::from_network(&prepared.network).expect("zoo models lower cleanly");
        rows.push(vec![
            kind.paper_name().to_string(),
            kind.architecture_summary().to_string(),
            kind.dataset_name().to_string(),
            canon.num_relu_neurons().to_string(),
            prepared.instances.len().to_string(),
        ]);
    }
    let table = fmt_table(
        &["Model", "Architecture", "Dataset", "#Neurons", "#Instances"],
        &rows,
    );
    let csv_rows = rows;
    let path = out_path(&args.out_dir, "table1.csv");
    write_csv(
        &path,
        &["model", "architecture", "dataset", "neurons", "instances"],
        &csv_rows,
    )
    .expect("write table1.csv");
    format!(
        "Table I: Details of the benchmarks\n\n{table}\n(written {})\n",
        path.display()
    )
}

// ---------------------------------------------------------------------
// RQ1 shared runs (Table II, Fig. 3, Fig. 4, Fig. 6)
// ---------------------------------------------------------------------

/// Runs (or loads from cache) the RQ1 grid: every model × the three
/// approaches of Table II.
#[must_use]
pub fn rq1_records(args: &Args) -> Vec<InstanceRecord> {
    let cache = out_path(
        &args.out_dir,
        &format!("rq1-{}-{}.json", args.scale.name(), args.seed),
    );
    if !args.fresh {
        if let Some(records) = load_records(&cache) {
            eprintln!("  using cached records at {}", cache.display());
            return records;
        }
    }
    eprintln!("  preparing models (training, deterministic in the seed)...");
    let models = prepare_all(args.scale, args.seed, &args.out_dir);
    let pool = Arc::new(WorkerPool::new(args.threads));
    let records = run_grid(&models, &Approach::rq1_lineup(), &args.scale.budget(), &pool);
    save_records(&cache, &records).expect("persist rq1 records");
    records
}

/// Mean over a selector, or `f64::NAN` on empty input.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

// ---------------------------------------------------------------------
// Table II (RQ1)
// ---------------------------------------------------------------------

/// Regenerates Table II: per model and approach, the number of solved
/// instances and the average cost in `AppVer` calls (the paper's
/// machine-independent cost unit; wall time varies per run and machine,
/// so the persisted artefact sticks to the reproducible metric).
#[must_use]
pub fn table2(args: &Args, records: &[InstanceRecord]) -> String {
    let grouped = group_by_model_approach(records);
    let approaches = Approach::rq1_lineup();
    let mut rows = Vec::new();
    for &kind in &ModelKind::ALL {
        let mut row = vec![kind.paper_name().to_string()];
        for a in &approaches {
            let key = (kind.paper_name().to_string(), a.label());
            match grouped.get(&key) {
                Some(group) => {
                    let solved = group.iter().filter(|r| r.solved()).count();
                    let avg_calls = mean(group.iter().map(|r| r.appver_calls as f64));
                    row.push(solved.to_string());
                    row.push(format!("{avg_calls:.0}"));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        rows.push(row);
    }
    let headers = [
        "Model",
        "BaB solved",
        "BaB calls",
        "CROWN solved",
        "CROWN calls",
        "ABONN solved",
        "ABONN calls",
    ];
    let table = fmt_table(&headers, &rows);
    let path = out_path(&args.out_dir, "table2.csv");
    write_csv(
        &path,
        &[
            "model",
            "bab_solved",
            "bab_calls",
            "crown_solved",
            "crown_calls",
            "abonn_solved",
            "abonn_calls",
        ],
        &rows,
    )
    .expect("write table2.csv");
    format!(
        "Table II: RQ1 - solved instances and average cost\n\
         (cost = mean AppVer calls; budget {:?})\n\n{table}\n(written {})\n",
        args.scale.budget(),
        path.display()
    )
}

// ---------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------

/// Regenerates Fig. 3: the distribution of BaB-baseline tree sizes over
/// the whole suite, as a log₂-bucketed histogram.
#[must_use]
pub fn fig3(args: &Args, records: &[InstanceRecord]) -> String {
    let sizes: Vec<usize> = records
        .iter()
        .filter(|r| r.approach == "BaB-baseline")
        .map(|r| r.tree_size)
        .collect();
    let (edges, counts) = log2_histogram(&sizes);
    let hist = ascii_histogram(&edges, &counts);
    let rows: Vec<Vec<String>> = edges
        .iter()
        .zip(&counts)
        .map(|(e, c)| vec![e.to_string(), c.to_string()])
        .collect();
    let path = out_path(&args.out_dir, "fig3.csv");
    write_csv(&path, &["tree_size_bucket", "count"], &rows).expect("write fig3.csv");
    format!(
        "Fig. 3: distribution of BaB-baseline tree sizes ({} instances)\n\n{hist}\n(written {})\n",
        sizes.len(),
        path.display()
    )
}

// ---------------------------------------------------------------------
// Fig. 4
// ---------------------------------------------------------------------

/// Regenerates Fig. 4: per-instance ABONN cost in `AppVer` calls (x)
/// against the speedup over BaB-baseline (y, ratio of call counts), one
/// panel per model. Printed as a summary table; the full scatter series
/// goes to CSV.
#[must_use]
pub fn fig4(args: &Args, records: &[InstanceRecord]) -> String {
    let mut by_instance: BTreeMap<(String, usize), (Option<f64>, Option<f64>)> = BTreeMap::new();
    for r in records {
        let entry = by_instance
            .entry((r.model.clone(), r.instance_id))
            .or_default();
        match r.approach.as_str() {
            "ABONN" => entry.0 = Some(r.appver_calls as f64),
            "BaB-baseline" => entry.1 = Some(r.appver_calls as f64),
            _ => {}
        }
    }
    let mut csv_rows = Vec::new();
    let mut summary_rows = Vec::new();
    let mut panels = String::new();
    for &kind in &ModelKind::ALL {
        let model = kind.paper_name();
        let mut speedups = Vec::new();
        let mut points = Vec::new();
        for ((m, id), (abonn, bab)) in &by_instance {
            if m != model {
                continue;
            }
            if let (Some(a), Some(b)) = (abonn, bab) {
                let speedup = if *a > 0.0 { b / a } else { f64::INFINITY };
                speedups.push(speedup);
                points.push((*a, speedup));
                csv_rows.push(vec![
                    m.clone(),
                    id.to_string(),
                    format!("{a:.0}"),
                    format!("{speedup:.3}"),
                ]);
            }
        }
        if let Some(q) = quartiles(&speedups) {
            let wins = speedups.iter().filter(|&&s| s > 1.0).count();
            summary_rows.push(vec![
                model.to_string(),
                speedups.len().to_string(),
                wins.to_string(),
                format!("{:.2}", q[2]),
                format!("{:.2}", q[4]),
            ]);
            panels.push_str(&format!(
                "
Panel {model}:
"
            ));
            panels.push_str(&ascii_scatter(&points, 56, 10));
        }
    }
    let path = out_path(&args.out_dir, "fig4.csv");
    write_csv(
        &path,
        &["model", "instance", "abonn_calls", "speedup_vs_bab"],
        &csv_rows,
    )
    .expect("write fig4.csv");
    let table = fmt_table(
        &[
            "Model",
            "#points",
            "#speedup>1",
            "median speedup",
            "max speedup",
        ],
        &summary_rows,
    );
    format!(
        "Fig. 4: RQ1 - per-instance speedup of ABONN over BaB-baseline\n\
         (cost = AppVer calls)\n\n{table}\n{panels}\n\
         (full scatter series written {})\n",
        path.display()
    )
}

// ---------------------------------------------------------------------
// Fig. 5 (RQ2)
// ---------------------------------------------------------------------

/// Regenerates Fig. 5: hyperparameter heatmaps (λ × c) on three panels
/// (MNIST_L2, CIFAR_BASE, CIFAR_DEEP). Each cell reports
/// `solved/avg-calls`; in the paper darker is better.
#[must_use]
pub fn fig5(args: &Args) -> String {
    let panels = [
        ModelKind::MnistL2,
        ModelKind::CifarBase,
        ModelKind::CifarDeep,
    ];
    let per_model = args.scale.per_model().min(6);
    // The sweep multiplies the grid by 20 (λ × c) combinations; a reduced
    // per-run budget keeps it tractable while preserving the *relative*
    // comparison the heatmap is about.
    // Call-only like `Scale::budget`, so the heatmap is reproducible.
    let budget =
        abonn_core::Budget::with_appver_calls(args.scale.budget().max_appver_calls.min(500));
    let pool = Arc::new(WorkerPool::new(args.threads));
    let mut out = String::from("Fig. 5: RQ2 - hyperparameter impact (cells: solved/avg-calls)\n");
    let mut csv_rows = Vec::new();
    for kind in panels {
        let prepared = prepare_model_cached(kind, per_model, args.seed, &args.out_dir);
        out.push_str(&format!(
            "\nPanel {} ({} instances):\n",
            kind.paper_name(),
            prepared.instances.len()
        ));
        let mut rows = Vec::new();
        for &lambda in &LAMBDA_GRID {
            let mut row = vec![format!("lambda={lambda}")];
            for &c in &C_GRID {
                let approach = Approach::Abonn { lambda, c };
                // Instances of one cell run concurrently; `map` returns
                // them in instance order, so the heatmap and CSV are
                // independent of the thread count.
                let recs = pool.map(prepared.instances.iter().collect(), |instance| {
                    run_instance_pooled(&prepared, instance, approach, &budget, &pool)
                });
                let mut solved = 0usize;
                let mut calls = Vec::new();
                for (instance, rec) in prepared.instances.iter().zip(recs) {
                    if rec.solved() {
                        solved += 1;
                    }
                    calls.push(rec.appver_calls as f64);
                    csv_rows.push(vec![
                        kind.paper_name().to_string(),
                        lambda.to_string(),
                        c.to_string(),
                        instance.id.to_string(),
                        rec.verdict.clone(),
                        rec.appver_calls.to_string(),
                    ]);
                }
                row.push(format!("{solved}/{:.0}", mean(calls.into_iter())));
            }
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["".to_string()];
        headers.extend(C_GRID.iter().map(|c| format!("c={c}")));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        out.push_str(&fmt_table(&headers_ref, &rows));
    }
    let path = out_path(&args.out_dir, "fig5.csv");
    write_csv(
        &path,
        &[
            "model",
            "lambda",
            "c",
            "instance",
            "verdict",
            "appver_calls",
        ],
        &csv_rows,
    )
    .expect("write fig5.csv");
    out.push_str(&format!("\n(written {})\n", path.display()));
    out
}

// ---------------------------------------------------------------------
// Fig. 6 (RQ3)
// ---------------------------------------------------------------------

/// Ground truth of an instance from the consensus of all runs: violated
/// if anyone falsified, certified if anyone verified, unknown otherwise.
fn instance_truth(records: &[&InstanceRecord]) -> Option<&'static str> {
    if records.iter().any(|r| r.verdict == "falsified") {
        Some("violated")
    } else if records.iter().any(|r| r.verdict == "verified") {
        Some("certified")
    } else {
        None
    }
}

/// Regenerates Fig. 6: verification-cost (`AppVer` calls) box statistics
/// of BaB-baseline vs ABONN, separately for violated and certified
/// instances, on MNIST_L2 and CIFAR_DEEP.
#[must_use]
pub fn fig6(args: &Args, records: &[InstanceRecord]) -> String {
    let panels = [ModelKind::MnistL2, ModelKind::CifarDeep];
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for kind in panels {
        let model = kind.paper_name();
        // Collect per-instance record sets.
        let mut by_id: BTreeMap<usize, Vec<&InstanceRecord>> = BTreeMap::new();
        for r in records.iter().filter(|r| r.model == model) {
            by_id.entry(r.instance_id).or_default().push(r);
        }
        for truth in ["violated", "certified"] {
            for approach in ["BaB-baseline", "ABONN"] {
                let costs: Vec<f64> = by_id
                    .values()
                    .filter(|rs| instance_truth(rs) == Some(truth))
                    .flat_map(|rs| rs.iter().filter(|r| r.approach == approach))
                    .map(|r| r.appver_calls as f64)
                    .collect();
                if let Some(q) = quartiles(&costs) {
                    rows.push(vec![
                        model.to_string(),
                        truth.to_string(),
                        approach.to_string(),
                        costs.len().to_string(),
                        format!("{:.1}", q[0]),
                        format!("{:.1}", q[1]),
                        format!("{:.1}", q[2]),
                        format!("{:.1}", q[3]),
                        format!("{:.1}", q[4]),
                    ]);
                    csv_rows.push(vec![
                        model.to_string(),
                        truth.to_string(),
                        approach.to_string(),
                        format!("{:.1}", q[0]),
                        format!("{:.1}", q[1]),
                        format!("{:.1}", q[2]),
                        format!("{:.1}", q[3]),
                        format!("{:.1}", q[4]),
                    ]);
                }
            }
        }
    }
    let table = fmt_table(
        &[
            "Model", "Class", "Approach", "n", "min", "q1", "median", "q3", "max",
        ],
        &rows,
    );
    let path = out_path(&args.out_dir, "fig6.csv");
    write_csv(
        &path,
        &[
            "model", "class", "approach", "min", "q1", "median", "q3", "max",
        ],
        &csv_rows,
    )
    .expect("write fig6.csv");
    format!(
        "Fig. 6: RQ3 - cost (AppVer calls) box statistics, violated vs certified\n\n\
         {table}\n(written {})\n",
        path.display()
    )
}

// ---------------------------------------------------------------------
// Ablations (extension beyond the paper's tables)
// ---------------------------------------------------------------------

/// Extension study: ABONN with different branching heuristics, the
/// potentiality extremes (λ = 0 / 1), pure exploitation vs heavy
/// exploration, and an α-CROWN bound engine inside ABONN.
#[must_use]
pub fn ablation(args: &Args) -> String {
    // Like Fig. 5, the ablation multiplies the grid by the variant count;
    // cap the per-run budget for tractability.
    // Call-only like `Scale::budget`, so the ablation is reproducible.
    let budget =
        abonn_core::Budget::with_appver_calls(args.scale.budget().max_appver_calls.min(800));
    let per_model = args.scale.per_model().min(6);
    // `Sync` so instances of one variant can be verified concurrently:
    // each pool worker builds its own verifier from the shared builder.
    type VariantBuilder = Box<dyn Fn() -> Box<dyn Verifier> + Sync>;
    let variants: Vec<(String, VariantBuilder)> = vec![
        (
            "ABONN default".into(),
            Box::new(|| Approach::ABONN_DEFAULT.build()),
        ),
        (
            "heuristic=babsr".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig {
                        heuristic: HeuristicKind::Babsr,
                        ..AbonnConfig::default()
                    },
                    Arc::new(abonn_bound::DeepPoly::planet()),
                ))
            }),
        ),
        (
            "heuristic=max-range".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig {
                        heuristic: HeuristicKind::MaxRange,
                        ..AbonnConfig::default()
                    },
                    Arc::new(abonn_bound::DeepPoly::planet()),
                ))
            }),
        ),
        (
            "heuristic=random".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig {
                        heuristic: HeuristicKind::Random(7),
                        ..AbonnConfig::default()
                    },
                    Arc::new(abonn_bound::DeepPoly::planet()),
                ))
            }),
        ),
        (
            "lambda=0 (p-hat only)".into(),
            Box::new(|| {
                Approach::Abonn {
                    lambda: 0.0,
                    c: 0.2,
                }
                .build()
            }),
        ),
        (
            "lambda=1 (depth only)".into(),
            Box::new(|| {
                Approach::Abonn {
                    lambda: 1.0,
                    c: 0.2,
                }
                .build()
            }),
        ),
        (
            "c=0 (pure exploitation)".into(),
            Box::new(|| {
                Approach::Abonn {
                    lambda: 0.5,
                    c: 0.0,
                }
                .build()
            }),
        ),
        (
            "appver=alpha-crown".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig::default(),
                    Arc::new(abonn_bound::AlphaCrown::default()),
                ))
            }),
        ),
        (
            "appver=beta-crown".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig::default(),
                    Arc::new(abonn_bound::BetaCrown::default()),
                ))
            }),
        ),
        (
            "appver=deeppoly-adaptive".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig::default(),
                    Arc::new(abonn_bound::DeepPoly::new()),
                ))
            }),
        ),
        (
            "appver=ibp-deeppoly-cascade".into(),
            Box::new(|| {
                Box::new(AbonnVerifier::new(
                    AbonnConfig::default(),
                    Arc::new(abonn_bound::Cascade::standard()),
                ))
            }),
        ),
        (
            "bab-baseline (reference)".into(),
            Box::new(|| Box::new(BabBaseline::default())),
        ),
        (
            "crown-style (reference)".into(),
            Box::new(|| Box::new(CrownStyle::default())),
        ),
    ];

    let panels = [ModelKind::MnistL2, ModelKind::CifarBase];
    let mut out = String::from("Ablation: ABONN design choices (cells: solved/avg-calls)\n\n");
    let mut csv_rows = Vec::new();
    let mut rows = Vec::new();
    let prepared: Vec<_> = panels
        .iter()
        .map(|&kind| prepare_model_cached(kind, per_model, args.seed, &args.out_dir))
        .collect();
    let pool = Arc::new(WorkerPool::new(args.threads));
    for (name, build) in &variants {
        let mut row = vec![name.clone()];
        for p in &prepared {
            // One verifier per instance so workers never share mutable
            // state; `map` keeps instance order, so the table and CSV are
            // independent of the thread count.
            let results = pool.map(p.instances.iter().collect(), |instance| {
                let verifier = build();
                let problem = abonn_core::RobustnessProblem::new(
                    &p.network,
                    instance.input.clone(),
                    instance.label,
                    instance.epsilon,
                )
                .expect("valid instance");
                verifier.verify(&problem, &budget)
            });
            let mut solved = 0usize;
            let mut calls = Vec::new();
            for (instance, result) in p.instances.iter().zip(results) {
                if result.verdict.is_solved() {
                    solved += 1;
                }
                calls.push(result.stats.appver_calls as f64);
                csv_rows.push(vec![
                    name.clone(),
                    p.kind.paper_name().to_string(),
                    instance.id.to_string(),
                    format!("{:?}", result.verdict)
                        .split('(')
                        .next()
                        .unwrap_or("?")
                        .to_string(),
                    result.stats.appver_calls.to_string(),
                ]);
            }
            row.push(format!("{solved}/{:.0}", mean(calls.into_iter())));
        }
        rows.push(row);
    }
    let mut headers = vec!["Variant".to_string()];
    headers.extend(panels.iter().map(|k| k.paper_name().to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    out.push_str(&fmt_table(&headers_ref, &rows));
    let path = out_path(&args.out_dir, "ablation.csv");
    write_csv(
        &path,
        &["variant", "model", "instance", "verdict", "appver_calls"],
        &csv_rows,
    )
    .expect("write ablation.csv");
    out.push_str(&format!("\n(written {})\n", path.display()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        model: &str,
        approach: &str,
        id: usize,
        verdict: &str,
        calls: usize,
        secs: f64,
        tree: usize,
    ) -> InstanceRecord {
        InstanceRecord {
            model: model.into(),
            approach: approach.into(),
            instance_id: id,
            epsilon: 0.1,
            verdict: verdict.into(),
            appver_calls: calls,
            nodes_visited: calls,
            tree_size: tree,
            max_depth: 2,
            wall_secs: secs,
        }
    }

    fn synthetic_records() -> Vec<InstanceRecord> {
        let mut v = Vec::new();
        for id in 0..4 {
            v.push(record(
                "MNIST_L2",
                "BaB-baseline",
                id,
                "verified",
                40,
                0.4,
                31,
            ));
            v.push(record("MNIST_L2", "ab-CROWN", id, "verified", 30, 0.5, 21));
            v.push(record(
                "MNIST_L2",
                "ABONN",
                id,
                if id == 3 { "falsified" } else { "verified" },
                10,
                0.1,
                11,
            ));
        }
        v
    }

    #[test]
    fn table2_counts_solved_instances() {
        let args = Args::default();
        let t = table2(&args, &synthetic_records());
        assert!(t.contains("MNIST_L2"));
        assert!(t.contains('4')); // all four solved for each approach
    }

    #[test]
    fn fig3_buckets_tree_sizes() {
        let args = Args::default();
        let t = fig3(&args, &synthetic_records());
        assert!(t.contains("distribution"));
        assert!(t.contains('#'));
    }

    #[test]
    fn fig4_computes_speedups() {
        let args = Args::default();
        let t = fig4(&args, &synthetic_records());
        // BaB 0.4s vs ABONN 0.1s → median speedup 4.
        assert!(t.contains("4.00"), "table was:\n{t}");
    }

    #[test]
    fn fig6_separates_violated_and_certified() {
        let args = Args::default();
        let t = fig6(&args, &synthetic_records());
        assert!(t.contains("violated"));
        assert!(t.contains("certified"));
    }

    #[test]
    fn instance_truth_consensus() {
        let a = record("M", "ABONN", 0, "falsified", 1, 0.1, 1);
        let b = record("M", "BaB-baseline", 0, "timeout", 1, 0.1, 1);
        assert_eq!(instance_truth(&[&a, &b]), Some("violated"));
        let c = record("M", "ABONN", 0, "verified", 1, 0.1, 1);
        assert_eq!(instance_truth(&[&c, &b]), Some("certified"));
        assert_eq!(instance_truth(&[&b]), None);
    }
}
