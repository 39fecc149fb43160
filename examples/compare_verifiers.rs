//! Compares the tightness/cost trade-off of the approximated-verifier
//! stack (IBP → DeepPoly → α-CROWN → LP) on one verification instance,
//! and shows how ReLU splits tighten each of them.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example compare_verifiers
//! ```

use abonn_repro::bound::{AlphaCrown, AppVer, DeepPoly, Ibp, LpVerifier, SplitSet, SplitSign};
use abonn_repro::core::RobustnessProblem;
use abonn_repro::data::zoo::ModelKind;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = ModelKind::MnistL2;
    println!("training {}...", kind.paper_name());
    let (network, data) = kind.trained_model(3);
    let problem = RobustnessProblem::new(&network, data.inputs[0].clone(), data.labels[0], 0.03)?;

    let verifiers: Vec<Box<dyn AppVer>> = vec![
        Box::new(Ibp::new()),
        Box::new(DeepPoly::new()),
        Box::new(AlphaCrown::default()),
        Box::new(LpVerifier::new()),
    ];

    println!("\nroot problem (no splits): p_hat per verifier");
    println!("{:<14} {:>12} {:>10}", "verifier", "p_hat", "time");
    let mut root_analysis = None;
    for v in &verifiers {
        #[expect(
            clippy::disallowed_methods,
            reason = "the printed per-verifier time is the example's point; it decides nothing"
        )]
        let t = Instant::now();
        let analysis = v.analyze(problem.margin_net(), problem.region(), &SplitSet::new());
        println!(
            "{:<14} {:>12.5} {:>9.1}ms",
            v.name(),
            analysis.p_hat,
            t.elapsed().as_secs_f64() * 1e3
        );
        if v.name() == "DeepPoly" {
            root_analysis = Some(analysis);
        }
    }

    // Split the most unstable neuron and show the tightening on both
    // children — the basic BaB step.
    let analysis = root_analysis.expect("DeepPoly ran");
    let unstable = analysis.unstable_neurons(&SplitSet::new());
    println!("\n{} unstable ReLU neurons at the root", unstable.len());
    if let Some(&neuron) = unstable.first() {
        println!("splitting {neuron} and re-analyzing with DeepPoly:");
        for sign in [SplitSign::Pos, SplitSign::Neg] {
            let child = SplitSet::new().with(neuron, sign);
            let a = DeepPoly::new().analyze(problem.margin_net(), problem.region(), &child);
            println!(
                "  child {neuron}{sign}: p_hat = {:>12.5} (parent was {:.5})",
                a.p_hat, analysis.p_hat
            );
            assert!(
                a.infeasible || a.p_hat >= analysis.p_hat - 1e-9,
                "splitting must never loosen the bound"
            );
        }
    }
    Ok(())
}
