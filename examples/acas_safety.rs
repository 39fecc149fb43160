//! ACAS-Xu-style safety verification: instead of classification
//! robustness, the property constrains the network *outputs directly*
//! over an operating region — "the advisory score never exceeds a
//! threshold here". These are the properties of the classic airborne
//! collision-avoidance benchmark, expressed through
//! [`RobustnessProblem::from_output_constraints`].
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example acas_safety
//! ```

use abonn_repro::bound::InputBox;
use abonn_repro::core::{AbonnVerifier, BabBaseline, Budget, RobustnessProblem, Verdict, Verifier};
use abonn_repro::nn::{init, train, Layer, Network, Shape};
use abonn_repro::tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Trains a tiny "advisory controller": inputs are (distance, closing
/// speed) in [0, 1]; the network learns to score "alert" (output 0) high
/// when distance is small and speed is high.
fn train_controller() -> Network {
    let mut rng = SmallRng::seed_from_u64(404);
    let mut net = Network::new(
        Shape::Flat(2),
        vec![
            init::dense_xavier(2, 12, &mut rng),
            Layer::relu(),
            init::dense_xavier(12, 12, &mut rng),
            Layer::relu(),
            init::dense_xavier(12, 2, &mut rng),
        ],
    )
    .expect("valid architecture");
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..300 {
        let distance = rng.gen_range(0.0..1.0);
        let speed = rng.gen_range(0.0..1.0);
        // Ground truth: alert when danger = speed − distance is positive.
        labels.push(usize::from(speed - distance > 0.0));
        inputs.push(vec![distance, speed]);
    }
    let report = train::train(
        &mut net,
        &inputs,
        &labels,
        &train::TrainConfig {
            epochs: 60,
            ..train::TrainConfig::default()
        },
    );
    println!("controller accuracy: {:.1}%", report.final_accuracy * 100.0);
    net
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = train_controller();

    // Property (safe region): far away and slow — distance in [0.8, 1.0],
    // speed in [0.0, 0.2]. Required: the "no alert" logit (output 0)
    // exceeds the "alert" logit (output 1) by a margin: y0 − y1 > 0.
    let far_and_slow = InputBox::new(vec![0.8, 0.0], vec![1.0, 0.2]);
    let c = Matrix::from_rows(&[&[1.0, -1.0]]);
    let safe = RobustnessProblem::from_output_constraints(&net, far_and_slow, &c, &[0.0])?;

    let budget = Budget::with_appver_calls(2_000);
    for verifier in [
        Box::new(AbonnVerifier::default()) as Box<dyn Verifier>,
        Box::new(BabBaseline::default()),
    ] {
        let result = verifier.verify(&safe, &budget);
        println!(
            "safe region, {:<30}: {:?} ({} calls)",
            verifier.name(),
            result.verdict,
            result.stats.appver_calls
        );
    }

    // Property expected to FAIL: the same margin requirement on a region
    // straddling the decision boundary.
    let boundary = InputBox::new(vec![0.4, 0.3], vec![0.6, 0.7]);
    let unsafe_prop = RobustnessProblem::from_output_constraints(&net, boundary, &c, &[0.0])?;
    let result = AbonnVerifier::default().verify(&unsafe_prop, &budget);
    match &result.verdict {
        Verdict::Falsified(w) => {
            println!(
                "boundary region: counterexample (distance, speed) = ({:.3}, {:.3})",
                w[0], w[1]
            );
            assert!(unsafe_prop.validate_witness(w));
        }
        v => println!("boundary region: {v:?}"),
    }
    Ok(())
}
