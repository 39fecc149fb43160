//! Specification encoding: local robustness as a margin network.

use abonn_bound::InputBox;
use abonn_nn::{CanonicalNetwork, Network};
use abonn_tensor::Matrix;
use std::error::Error;
use std::fmt;

/// Error building a [`RobustnessProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// `label` is not a valid output class of the network.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The network's number of classes.
        classes: usize,
    },
    /// The reference input has the wrong dimensionality.
    InputDimMismatch {
        /// Provided input length.
        got: usize,
        /// Expected input length.
        expected: usize,
    },
    /// The radius is not a positive finite number.
    BadEpsilon(f64),
    /// The network could not be lowered to canonical form.
    Lowering(String),
    /// A VNN-LIB property does not fit the supported robustness shape or
    /// disagrees with the network's dimensions.
    BadProperty(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            SpecError::InputDimMismatch { got, expected } => {
                write!(f, "input has {got} values, network expects {expected}")
            }
            SpecError::BadEpsilon(e) => write!(f, "epsilon {e} must be positive and finite"),
            SpecError::Lowering(msg) => write!(f, "cannot lower network: {msg}"),
            SpecError::BadProperty(msg) => write!(f, "unusable property: {msg}"),
        }
    }
}

impl Error for SpecError {}

/// A verification problem in *margin form*: the specification holds on
/// the region iff every output of `margin_net` is positive there.
///
/// The common instantiation is L∞ local robustness
/// (`∀x. ‖x − x₀‖∞ ≤ ε ∧ x ∈ [0,1]ⁿ ⇒ argmax N(x) = label`, margin rows
/// `logit_label − logit_j`), built by [`RobustnessProblem::new`] or
/// [`RobustnessProblem::from_vnnlib`]. General output constraints
/// (ACAS-Xu-style safety properties `C·N(x) + d > 0`) are built with
/// [`RobustnessProblem::from_output_constraints`]; those carry no class
/// label, so attack-based shortcuts are skipped automatically.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct RobustnessProblem {
    network: Network,
    margin_net: CanonicalNetwork,
    region: InputBox,
    input: Vec<f64>,
    label: Option<usize>,
    epsilon: f64,
}

impl RobustnessProblem {
    /// Encodes the robustness query for `net` around `input` with radius
    /// `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the label, input size, or radius is
    /// invalid, or the network cannot be lowered.
    pub fn new(
        net: &Network,
        input: Vec<f64>,
        label: usize,
        epsilon: f64,
    ) -> Result<Self, SpecError> {
        if input.len() != net.input_dim() {
            return Err(SpecError::InputDimMismatch {
                got: input.len(),
                expected: net.input_dim(),
            });
        }
        let classes = net.output_dim();
        if label >= classes {
            return Err(SpecError::LabelOutOfRange { label, classes });
        }
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(SpecError::BadEpsilon(epsilon));
        }
        let adversarial: Vec<usize> = (0..classes).filter(|&j| j != label).collect();
        let region = InputBox::linf_ball(&input, epsilon, 0.0, 1.0);
        Self::build(net, region, input, label, epsilon, adversarial)
    }

    /// Encodes a general safety property `∀x ∈ region: C·N(x) + d > 0`
    /// (every margin row positive), the form ACAS-Xu-style properties
    /// take. No class label is involved, so label-guided attacks are
    /// disabled for the resulting problem.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the region or constraint dimensions
    /// disagree with the network, or the network cannot be lowered.
    pub fn from_output_constraints(
        net: &Network,
        region: InputBox,
        c: &Matrix,
        d: &[f64],
    ) -> Result<Self, SpecError> {
        if region.dim() != net.input_dim() {
            return Err(SpecError::InputDimMismatch {
                got: region.dim(),
                expected: net.input_dim(),
            });
        }
        if c.cols() != net.output_dim() {
            return Err(SpecError::BadProperty(format!(
                "constraint matrix has {} columns, network has {} outputs",
                c.cols(),
                net.output_dim()
            )));
        }
        if d.len() != c.rows() || c.rows() == 0 {
            return Err(SpecError::BadProperty(
                "constraint rows and offsets must be non-empty and equal-length".into(),
            ));
        }
        let canon =
            CanonicalNetwork::from_network(net).map_err(|e| SpecError::Lowering(e.to_string()))?;
        let margin_net = canon.with_output_transform(c, d);
        let input = region.center();
        let epsilon = region
            .lo()
            .iter()
            .zip(region.hi())
            .map(|(l, h)| 0.5 * (h - l))
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        Ok(Self {
            network: net.clone(),
            margin_net,
            region,
            input,
            label: None,
            epsilon,
        })
    }

    /// Encodes a robustness query from a parsed VNN-LIB property.
    ///
    /// The property must have the classification-robustness shape
    /// recognised by [`abonn_vnnlib::Property::as_robustness`]; its input
    /// box becomes the verification region and its disjuncts select the
    /// adversarial classes (which may be a strict subset of all classes).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::BadProperty`] for non-robustness shapes or
    /// dimension mismatches, and the other variants as in
    /// [`RobustnessProblem::new`].
    pub fn from_vnnlib(
        net: &Network,
        property: &abonn_vnnlib::Property,
    ) -> Result<Self, SpecError> {
        let canon =
            CanonicalNetwork::from_network(net).map_err(|e| SpecError::Lowering(e.to_string()))?;
        Self::from_vnnlib_prelowered(net, &canon, property)
    }

    /// [`RobustnessProblem::from_vnnlib`] with the lowering step hoisted
    /// out: `canon` must be `CanonicalNetwork::from_network(net)`.
    ///
    /// Long-lived services answering many queries against the same model
    /// lower it once, cache the canonical form, and build each query's
    /// margin network from the cached copy.
    ///
    /// # Errors
    ///
    /// As [`RobustnessProblem::from_vnnlib`].
    pub fn from_vnnlib_prelowered(
        net: &Network,
        canon: &CanonicalNetwork,
        property: &abonn_vnnlib::Property,
    ) -> Result<Self, SpecError> {
        if property.num_inputs() != net.input_dim() {
            return Err(SpecError::InputDimMismatch {
                got: property.num_inputs(),
                expected: net.input_dim(),
            });
        }
        if property.num_outputs != net.output_dim() {
            return Err(SpecError::BadProperty(format!(
                "property declares {} outputs, network has {}",
                property.num_outputs,
                net.output_dim()
            )));
        }
        let (label, adversarial) = property.as_robustness().ok_or_else(|| {
            SpecError::BadProperty("not a classification-robustness property".into())
        })?;
        if label >= net.output_dim() || adversarial.iter().any(|&j| j >= net.output_dim()) {
            return Err(SpecError::BadProperty("class index out of range".into()));
        }
        if adversarial.is_empty() {
            return Err(SpecError::BadProperty("no adversarial classes".into()));
        }
        // Wire-supplied boxes can be empty (contradictory bounds); the
        // InputBox constructor treats that as a caller bug and panics, so
        // reject it here where "caller" means an untrusted client.
        if let Some(i) =
            (0..property.num_inputs()).find(|&i| property.input_lo[i] > property.input_hi[i])
        {
            return Err(SpecError::BadProperty(format!(
                "empty input box: lo[{i}] = {} > hi[{i}] = {}",
                property.input_lo[i], property.input_hi[i]
            )));
        }
        let region = InputBox::new(property.input_lo.clone(), property.input_hi.clone());
        let input: Vec<f64> = region.center();
        let epsilon = property
            .input_lo
            .iter()
            .zip(&property.input_hi)
            .map(|(l, h)| 0.5 * (h - l))
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        Self::build_prelowered(net, canon, region, input, label, epsilon, adversarial)
    }

    /// Shared constructor: margin rows `e_label − e_j` for each
    /// adversarial class `j`.
    fn build(
        net: &Network,
        region: InputBox,
        input: Vec<f64>,
        label: usize,
        epsilon: f64,
        adversarial: Vec<usize>,
    ) -> Result<Self, SpecError> {
        let canon =
            CanonicalNetwork::from_network(net).map_err(|e| SpecError::Lowering(e.to_string()))?;
        Self::build_prelowered(net, &canon, region, input, label, epsilon, adversarial)
    }

    /// [`RobustnessProblem::build`] with the network already lowered.
    fn build_prelowered(
        net: &Network,
        canon: &CanonicalNetwork,
        region: InputBox,
        input: Vec<f64>,
        label: usize,
        epsilon: f64,
        adversarial: Vec<usize>,
    ) -> Result<Self, SpecError> {
        let classes = net.output_dim();
        let mut c = Matrix::zeros(adversarial.len(), classes);
        for (r, &j) in adversarial.iter().enumerate() {
            c.set(r, label, 1.0);
            c.set(r, j, -1.0);
        }
        let margin_net = canon.with_output_transform(&c, &vec![0.0; adversarial.len()]);
        Ok(Self {
            network: net.clone(),
            margin_net,
            region,
            input,
            label: Some(label),
            epsilon,
        })
    }

    /// The original network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The margin-form canonical network consumed by `AppVer`s.
    #[must_use]
    pub fn margin_net(&self) -> &CanonicalNetwork {
        &self.margin_net
    }

    /// The perturbation region.
    #[must_use]
    pub fn region(&self) -> &InputBox {
        &self.region
    }

    /// The reference input `x₀`.
    #[must_use]
    pub fn input(&self) -> &[f64] {
        &self.input
    }

    /// The required label, when the problem is a classification-robustness
    /// query (`None` for general output-constraint properties).
    #[must_use]
    pub fn label(&self) -> Option<usize> {
        self.label
    }

    /// The perturbation radius ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Total number of ReLU neurons — the `K` of the paper's Def. 1.
    #[must_use]
    pub fn num_relu_neurons(&self) -> usize {
        self.margin_net.num_relu_neurons()
    }

    /// Validates a candidate counterexample: inside the region *and* with
    /// some margin output non-positive — i.e. an adversarial class matches
    /// or beats the required label (the paper's `valid(x̂)`, in VNN-LIB's
    /// non-strict violation semantics).
    #[must_use]
    pub fn validate_witness(&self, x: &[f64]) -> bool {
        self.region.contains(x, 1e-9) && self.margin_net.forward(x).into_iter().any(|m| m <= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abonn_nn::{Layer, Shape};

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

    #[test]
    fn margin_net_is_positive_iff_correctly_classified() {
        let net = three_class_net();
        let p = RobustnessProblem::new(&net, vec![0.8, 0.1], 0, 0.05).unwrap();
        // At x0, class 0 wins, so all margins positive.
        let margins = p.margin_net().forward(&[0.8, 0.1]);
        assert_eq!(margins.len(), 2);
        assert!(margins.iter().all(|&m| m > 0.0));
        // At a point where class 1 wins, some margin is negative.
        let margins = p.margin_net().forward(&[0.1, 0.9]);
        assert!(margins.iter().any(|&m| m < 0.0));
    }

    #[test]
    fn witness_validation_checks_region_and_classification() {
        let net = three_class_net();
        let p = RobustnessProblem::new(&net, vec![0.5, 0.45], 0, 0.1).unwrap();
        // Inside the ball and misclassified (x1 > x0 → class 1).
        assert!(p.validate_witness(&[0.45, 0.55]));
        // Correctly classified point is not a witness.
        assert!(!p.validate_witness(&[0.6, 0.4]));
        // Outside the ball is not a witness even if misclassified.
        assert!(!p.validate_witness(&[0.0, 1.0]));
    }

    #[test]
    fn rejects_bad_parameters() {
        let net = three_class_net();
        assert!(matches!(
            RobustnessProblem::new(&net, vec![0.5], 0, 0.1),
            Err(SpecError::InputDimMismatch { .. })
        ));
        assert!(matches!(
            RobustnessProblem::new(&net, vec![0.5, 0.5], 7, 0.1),
            Err(SpecError::LabelOutOfRange { .. })
        ));
        assert!(matches!(
            RobustnessProblem::new(&net, vec![0.5, 0.5], 0, -1.0),
            Err(SpecError::BadEpsilon(_))
        ));
    }

    #[test]
    fn region_is_clamped_to_unit_box() {
        let net = three_class_net();
        let p = RobustnessProblem::new(&net, vec![0.02, 0.99], 0, 0.1).unwrap();
        assert!(p.region().lo().iter().all(|&v| v >= 0.0));
        assert!(p.region().hi().iter().all(|&v| v <= 1.0));
    }

    #[test]
    fn vnnlib_roundtrip_builds_equivalent_problem() {
        let net = three_class_net();
        let direct = RobustnessProblem::new(&net, vec![0.5, 0.45], 0, 0.1).unwrap();
        let text = abonn_vnnlib::write_robustness(&[0.5, 0.45], 0.1, 0, 3);
        let property = abonn_vnnlib::parse(&text).unwrap();
        let via_vnnlib = RobustnessProblem::from_vnnlib(&net, &property).unwrap();
        assert_eq!(via_vnnlib.label(), Some(0));
        assert_eq!(direct.region(), via_vnnlib.region());
        let x = [0.45, 0.5];
        assert_eq!(
            direct.margin_net().forward(&x),
            via_vnnlib.margin_net().forward(&x)
        );
        assert_eq!(direct.validate_witness(&x), via_vnnlib.validate_witness(&x));
    }

    #[test]
    fn empty_wire_box_is_rejected_not_panicked() {
        // A client can assert contradictory bounds; the parser accepts
        // them (the box is syntactically complete), so the spec layer
        // must reject the empty region instead of tripping InputBox's
        // panic.
        let net = three_class_net();
        let text = "\
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(declare-const Y_2 Real)
(assert (>= X_0 0.9))
(assert (<= X_0 0.1))
(assert (>= X_1 0.0))
(assert (<= X_1 1.0))
(assert (or (and (<= Y_0 Y_1))))
";
        let property = abonn_vnnlib::parse(text).unwrap();
        assert!(matches!(
            RobustnessProblem::from_vnnlib(&net, &property),
            Err(SpecError::BadProperty(_))
        ));
    }

    #[test]
    fn prelowered_constructor_matches_from_vnnlib() {
        let net = three_class_net();
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        let text = abonn_vnnlib::write_robustness(&[0.5, 0.45], 0.1, 0, 3);
        let property = abonn_vnnlib::parse(&text).unwrap();
        let direct = RobustnessProblem::from_vnnlib(&net, &property).unwrap();
        let pre = RobustnessProblem::from_vnnlib_prelowered(&net, &canon, &property).unwrap();
        assert_eq!(direct.region(), pre.region());
        assert_eq!(direct.label(), pre.label());
        let x = [0.45, 0.5];
        assert_eq!(
            direct.margin_net().forward(&x),
            pre.margin_net().forward(&x)
        );
    }

    #[test]
    fn vnnlib_dimension_mismatch_rejected() {
        let net = three_class_net();
        let text = abonn_vnnlib::write_robustness(&[0.5, 0.45, 0.1], 0.1, 0, 3);
        let property = abonn_vnnlib::parse(&text).unwrap();
        assert!(matches!(
            RobustnessProblem::from_vnnlib(&net, &property),
            Err(SpecError::InputDimMismatch { .. })
        ));
        let text = abonn_vnnlib::write_robustness(&[0.5, 0.45], 0.1, 0, 5);
        let property = abonn_vnnlib::parse(&text).unwrap();
        assert!(matches!(
            RobustnessProblem::from_vnnlib(&net, &property),
            Err(SpecError::BadProperty(_))
        ));
    }

    #[test]
    fn subset_adversarial_classes_narrow_the_margin_net() {
        let net = three_class_net();
        // Only class 2 is adversarial: one margin row.
        let text = "\
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(declare-const Y_2 Real)
(assert (>= X_0 0.4))
(assert (<= X_0 0.6))
(assert (>= X_1 0.3))
(assert (<= X_1 0.5))
(assert (or (and (<= Y_0 Y_2))))
";
        let property = abonn_vnnlib::parse(text).unwrap();
        let p = RobustnessProblem::from_vnnlib(&net, &property).unwrap();
        assert_eq!(p.margin_net().output_dim(), 1);
        // A point where class 1 beats class 0 is NOT a witness here,
        // because only class 2 matters for this property.
        assert!(!p.validate_witness(&[0.41, 0.5]));
    }

    #[test]
    fn output_constraint_problem_encodes_safety_properties() {
        let net = three_class_net();
        // Safety: logit 2 stays below 0.7 on the box (i.e. 0.7 − y2 > 0).
        let c = Matrix::from_rows(&[&[0.0, 0.0, -1.0]]);
        let region = InputBox::new(vec![0.2, 0.2], vec![0.4, 0.4]);
        let p = RobustnessProblem::from_output_constraints(&net, region, &c, &[0.7]).unwrap();
        assert_eq!(p.label(), None);
        assert_eq!(p.margin_net().output_dim(), 1);
        // y2 = -x0 - x1 + 0.6 ≤ 0.6 - 0.4 = 0.2 < 0.7 on the box: margin
        // positive at a sample point.
        let m = p.margin_net().forward(&[0.3, 0.3]);
        assert!(m[0] > 0.0);
        // Witness validation uses the margin rows directly: a point where
        // y2 ≥ 0.7 would be a violation; none exists in this box.
        assert!(!p.validate_witness(&[0.2, 0.2]));
    }

    #[test]
    fn output_constraint_dimension_checks() {
        let net = three_class_net();
        let region = InputBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // Wrong number of columns.
        let bad_c = Matrix::from_rows(&[&[1.0, 0.0]]);
        assert!(matches!(
            RobustnessProblem::from_output_constraints(&net, region.clone(), &bad_c, &[0.0]),
            Err(SpecError::BadProperty(_))
        ));
        // Offset length mismatch.
        let c = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        assert!(matches!(
            RobustnessProblem::from_output_constraints(&net, region.clone(), &c, &[0.0, 1.0]),
            Err(SpecError::BadProperty(_))
        ));
        // Wrong region dimensionality.
        let bad_region = InputBox::new(vec![0.0], vec![1.0]);
        assert!(matches!(
            RobustnessProblem::from_output_constraints(&net, bad_region, &c, &[0.0]),
            Err(SpecError::InputDimMismatch { .. })
        ));
    }
}
