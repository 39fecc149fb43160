//! Diagnostic tool: prints per-instance ground-truth hints (strong-PGD
//! attackability) and the verdict/cost/depth of each approach.
//!
//! Not a paper artefact; useful when tuning suite calibration or budgets.

use abonn_attack::Pgd;
use abonn_bench::scenario::{prepare_model_cached, Approach};
use abonn_bench::Args;
use abonn_core::{RobustnessProblem, Verdict};
use abonn_data::zoo::ModelKind;

fn main() {
    let args = Args::from_env();
    let budget = args.scale.budget();
    for kind in ModelKind::ALL {
        let prepared = prepare_model_cached(kind, args.scale.per_model(), args.seed, &args.out_dir);
        println!(
            "\n=== {} ({} instances) ===",
            kind.paper_name(),
            prepared.instances.len()
        );
        for inst in &prepared.instances {
            let problem = RobustnessProblem::new(
                &prepared.network,
                inst.input.clone(),
                inst.label,
                inst.epsilon,
            )
            .expect("valid instance");
            let attackable = Pgd::new(80, 10, 0.2, 1)
                .attack(
                    &prepared.network,
                    inst.label,
                    problem.region().lo(),
                    problem.region().hi(),
                )
                .is_some();
            print!(
                "  id {:>2} eps {:.4} pgd={:<5}",
                inst.id,
                inst.epsilon,
                if attackable { "CEX" } else { "none" }
            );
            for approach in Approach::rq1_lineup() {
                let r = approach.build().verify(&problem, &budget);
                let tag = match r.verdict {
                    Verdict::Verified => "ver",
                    Verdict::Falsified(_) => "FAL",
                    Verdict::Timeout => "t/o",
                };
                print!(
                    "  {}={} c={:<4} d={:<3}",
                    approach.label(),
                    tag,
                    r.stats.appver_calls,
                    r.stats.max_depth
                );
            }
            println!();
        }
    }
}
