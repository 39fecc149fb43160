//! Wire-level witness replay: confirms a claimed counterexample against
//! a property with one concrete forward pass.
//!
//! This is the SAT side of proof reuse. A result store holding a witness
//! for a property at radius ε may serve any dominating query (ε′ ≥ ε,
//! same center) — but only after re-establishing the claim against the
//! *query's* region. The replay shares nothing with the engines beyond
//! the network's concrete `forward`: containment is checked against the
//! property's own box and violation against the property's own
//! disjunction semantics, so a store bug cannot be masked by an engine
//! bug.

use abonn_nn::Network;
use abonn_vnnlib::Property;
use std::fmt;

/// Tolerance for region containment, matching the engine's witness
/// validation (`RobustnessProblem::validate_witness`).
const REGION_TOL: f64 = 1e-9;

/// Why a witness replay was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The witness has the wrong number of coordinates.
    DimMismatch {
        /// Witness length.
        got: usize,
        /// Network input dimension.
        expected: usize,
    },
    /// The property's declared box disagrees with the network.
    PropertyMismatch(String),
    /// Some coordinate lies outside the property's input box.
    OutsideRegion {
        /// Offending coordinate index.
        index: usize,
        /// The coordinate's value.
        value: f64,
    },
    /// The forward pass does not land in the violation region.
    NotViolating,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::DimMismatch { got, expected } => {
                write!(
                    f,
                    "witness has {got} coordinates, network expects {expected}"
                )
            }
            ReplayError::PropertyMismatch(msg) => write!(f, "property mismatch: {msg}"),
            ReplayError::OutsideRegion { index, value } => {
                write!(
                    f,
                    "witness coordinate {index} = {value} is outside the input box"
                )
            }
            ReplayError::NotViolating => {
                write!(f, "forward pass does not violate the property")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays `witness` through `net` and checks it falsifies `property`.
///
/// On success returns the concrete network outputs at the witness (the
/// evidence a response can carry).
///
/// # Errors
///
/// [`ReplayError`] describing the first failed check: dimensions, box
/// containment, then violation.
pub fn replay_witness(
    net: &Network,
    property: &Property,
    witness: &[f64],
) -> Result<Vec<f64>, ReplayError> {
    if witness.len() != net.input_dim() {
        return Err(ReplayError::DimMismatch {
            got: witness.len(),
            expected: net.input_dim(),
        });
    }
    if property.num_inputs() != net.input_dim() {
        return Err(ReplayError::PropertyMismatch(format!(
            "property declares {} inputs, network expects {}",
            property.num_inputs(),
            net.input_dim()
        )));
    }
    if property.num_outputs != net.output_dim() {
        return Err(ReplayError::PropertyMismatch(format!(
            "property declares {} outputs, network has {}",
            property.num_outputs,
            net.output_dim()
        )));
    }
    for (i, &v) in witness.iter().enumerate() {
        if !(v >= property.input_lo[i] - REGION_TOL && v <= property.input_hi[i] + REGION_TOL) {
            return Err(ReplayError::OutsideRegion { index: i, value: v });
        }
    }
    let outputs = net.forward(witness);
    if property.is_violation(&outputs) {
        Ok(outputs)
    } else {
        Err(ReplayError::NotViolating)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Shape};
    use abonn_tensor::Matrix;
    use abonn_vnnlib::{parse, write_robustness};

    fn three_class_net() -> Network {
        Network::new(
            Shape::Flat(2),
            vec![Layer::dense(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, -1.0]]),
                vec![0.0, 0.0, 0.6],
            )],
        )
        .unwrap()
    }

    fn robustness_property(center: &[f64], eps: f64, label: usize) -> Property {
        parse(&write_robustness(center, eps, label, 3)).unwrap()
    }

    #[test]
    fn valid_witness_replays_with_outputs() {
        let net = three_class_net();
        let prop = robustness_property(&[0.5, 0.45], 0.1, 0);
        // x1 > x0 flips the argmax to class 1.
        let outputs = replay_witness(&net, &prop, &[0.45, 0.55]).unwrap();
        assert_eq!(outputs, net.forward(&[0.45, 0.55]));
        assert!(outputs[1] >= outputs[0]);
    }

    #[test]
    fn out_of_region_witness_is_rejected() {
        let net = three_class_net();
        let prop = robustness_property(&[0.5, 0.45], 0.1, 0);
        assert!(matches!(
            replay_witness(&net, &prop, &[0.0, 1.0]),
            Err(ReplayError::OutsideRegion { index: 0, .. })
        ));
    }

    #[test]
    fn non_violating_witness_is_rejected() {
        let net = three_class_net();
        let prop = robustness_property(&[0.5, 0.45], 0.1, 0);
        // Class 0 still wins here.
        assert_eq!(
            replay_witness(&net, &prop, &[0.55, 0.4]),
            Err(ReplayError::NotViolating)
        );
    }

    #[test]
    fn dimension_checks_come_first() {
        let net = three_class_net();
        let prop = robustness_property(&[0.5, 0.45], 0.1, 0);
        assert!(matches!(
            replay_witness(&net, &prop, &[0.5]),
            Err(ReplayError::DimMismatch {
                got: 1,
                expected: 2
            })
        ));
        let skinny = robustness_property(&[0.5], 0.1, 0);
        assert!(matches!(
            replay_witness(&net, &skinny, &[0.5, 0.5]),
            Err(ReplayError::PropertyMismatch(_))
        ));
    }

    #[test]
    fn domination_direction_holds_for_clamped_balls() {
        // A witness valid at ε stays valid at every ε′ ≥ ε with the same
        // center: the clamped balls nest, so containment is preserved
        // and the forward pass is unchanged.
        let net = three_class_net();
        let w = [0.45, 0.55];
        let small = robustness_property(&[0.5, 0.45], 0.1, 0);
        replay_witness(&net, &small, &w).unwrap();
        for eps in [0.11, 0.2, 0.5, 0.9] {
            let bigger = robustness_property(&[0.5, 0.45], eps, 0);
            replay_witness(&net, &bigger, &w).unwrap();
        }
        // And the converse direction can fail, as it must: a witness at
        // the rim of a big ball is outside a smaller one.
        let big = robustness_property(&[0.5, 0.45], 0.4, 0);
        let rim = [0.12, 0.55];
        replay_witness(&net, &big, &rim).unwrap();
        let tiny = robustness_property(&[0.5, 0.45], 0.05, 0);
        assert!(matches!(
            replay_witness(&net, &tiny, &rim),
            Err(ReplayError::OutsideRegion { .. })
        ));
    }
}
