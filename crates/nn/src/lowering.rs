//! Lowering to the canonical alternating affine/ReLU form.
//!
//! Every verifier in this workspace (IBP, DeepPoly/CROWN, the LP
//! relaxation) consumes a [`CanonicalNetwork`]: a chain
//!
//! ```text
//! z₁ = W₁·x + b₁,  a₁ = ReLU(z₁),  z₂ = W₂·a₁ + b₂,  …,  output = z_L
//! ```
//!
//! Convolutions are lowered to explicit weight matrices and consecutive
//! affine operations (`Conv2d`/`Dense`/`Flatten`) are fused, so bound
//! propagation only ever deals with matrices — the same canonicalisation
//! αβ-CROWN-class tools perform internally.
//!
//! A lowered convolution is mostly structural zeros: each output reads
//! one receptive field. Every stage keeps its dense `weight` (forward
//! passes, gradients, LP encodings and the certificate checker use it),
//! and a stage whose measured density is below
//! [`SPARSE_STAGE_MAX_DENSITY`] also gets a compressed sparse column
//! copy, built once at construction, that interval propagation and
//! back-substitution walk instead ([`CanonicalNetwork::sparse_weight`]).

use crate::layer::{AvgPool2d, Conv2d, Layer, Shape};
use crate::network::Network;
use abonn_tensor::{CscMatrix, Matrix};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Stages with a non-zero fraction below this bound are bounded through
/// their compressed sparse form. The neuron-major sparse step reaches
/// parity with the dense register-tiled one near 60% non-zero and is
/// 1.2–1.3× faster at 50%; every lowered CIFAR convolution (6–39%) falls
/// below the bound and every dense layer (100%) above it. DESIGN.md §5j
/// has the measurement.
pub const SPARSE_STAGE_MAX_DENSITY: f64 = 0.5;

/// One affine stage `z = W·a + b` of a [`CanonicalNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct AffinePair {
    /// `out × in` weight matrix.
    pub weight: Matrix,
    /// Per-output bias.
    pub bias: Vec<f64>,
}

impl AffinePair {
    /// Creates an affine pair.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    #[must_use]
    pub fn new(weight: Matrix, bias: Vec<f64>) -> Self {
        assert_eq!(
            bias.len(),
            weight.rows(),
            "AffinePair::new: bias/weight mismatch"
        );
        Self { weight, bias }
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Applies the affine map to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    #[must_use]
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.weight.matvec(x);
        for (yi, &bi) in y.iter_mut().zip(&self.bias) {
            *yi += bi;
        }
        y
    }
}

/// Error returned by [`CanonicalNetwork::from_network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoweringError {
    /// The network's final layer is a ReLU; the canonical form requires an
    /// affine output layer.
    TrailingRelu,
    /// The network has no layers.
    Empty,
}

impl fmt::Display for LoweringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoweringError::TrailingRelu => {
                write!(
                    f,
                    "network ends with a ReLU; canonical form needs an affine output"
                )
            }
            LoweringError::Empty => write!(f, "network has no layers"),
        }
    }
}

impl Error for LoweringError {}

/// A network in canonical alternating affine/ReLU form.
///
/// # Examples
///
/// ```
/// use abonn_nn::{CanonicalNetwork, Layer, Network, Shape};
/// use abonn_tensor::Matrix;
///
/// let net = Network::new(
///     Shape::Flat(2),
///     vec![
///         Layer::dense(Matrix::identity(2), vec![0.1, 0.2]),
///         Layer::relu(),
///         Layer::dense(Matrix::from_rows(&[&[1.0, 1.0]]), vec![0.0]),
///     ],
/// )?;
/// let canon = CanonicalNetwork::from_network(&net)?;
/// assert_eq!(canon.num_layers(), 2);
/// assert_eq!(canon.forward(&[1.0, 2.0]), net.forward(&[1.0, 2.0]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalNetwork {
    input_dim: usize,
    layers: Vec<AffinePair>,
    /// Per stage, the compressed sparse form of a weight sparser than
    /// [`SPARSE_STAGE_MAX_DENSITY`]; shared by derived networks.
    sparse: Vec<Option<Arc<CscMatrix>>>,
}

impl CanonicalNetwork {
    /// Builds a canonical network directly from affine pairs.
    ///
    /// # Panics
    ///
    /// Panics if consecutive pairs have mismatched dimensions or `layers`
    /// is empty.
    #[must_use]
    pub fn from_affine_pairs(input_dim: usize, layers: Vec<AffinePair>) -> Self {
        assert!(!layers.is_empty(), "CanonicalNetwork: no layers");
        let mut dim = input_dim;
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(
                l.in_dim(),
                dim,
                "CanonicalNetwork: layer {i} expects {} inputs, gets {dim}",
                l.in_dim()
            );
            dim = l.out_dim();
        }
        let sparse = layers.iter().map(|l| sparse_form(&l.weight)).collect();
        Self {
            input_dim,
            layers,
            sparse,
        }
    }

    /// Lowers a [`Network`], fusing affine runs and expanding convolutions.
    ///
    /// # Errors
    ///
    /// Returns [`LoweringError`] for an empty network or one that ends with
    /// a ReLU.
    pub fn from_network(net: &Network) -> Result<Self, LoweringError> {
        if net.layers().is_empty() {
            return Err(LoweringError::Empty);
        }
        if matches!(net.layers().last(), Some(Layer::Relu)) {
            return Err(LoweringError::TrailingRelu);
        }

        let input_dim = net.input_dim();
        let mut layers: Vec<AffinePair> = Vec::new();
        // Affine accumulated since the last ReLU; `None` means identity.
        let mut pending: Option<AffinePair> = None;
        let mut dim_into_pending = input_dim;

        for (i, layer) in net.layers().iter().enumerate() {
            match layer {
                Layer::Dense(d) => {
                    let pair = AffinePair::new(d.weight.clone(), d.bias.clone());
                    pending = Some(compose(pending, pair));
                }
                Layer::Conv2d(conv) => {
                    let Shape::Image { h, w, .. } = net.shape_before(i) else {
                        unreachable!("validated by Network::new");
                    };
                    let (wm, b) = conv_to_matrix(conv, h, w);
                    pending = Some(compose(pending, AffinePair::new(wm, b)));
                }
                Layer::AvgPool2d(pool) => {
                    let Shape::Image { c, h, w } = net.shape_before(i) else {
                        unreachable!("validated by Network::new");
                    };
                    let (wm, b) = avg_pool_to_matrix(pool, c, h, w);
                    pending = Some(compose(pending, AffinePair::new(wm, b)));
                }
                Layer::Flatten => {} // identity on the flat data
                Layer::Relu => {
                    let pair = pending.take().unwrap_or_else(|| {
                        AffinePair::new(
                            Matrix::identity(dim_into_pending),
                            vec![0.0; dim_into_pending],
                        )
                    });
                    dim_into_pending = pair.out_dim();
                    layers.push(pair);
                }
            }
        }
        let last = pending.take().unwrap_or_else(|| {
            AffinePair::new(
                Matrix::identity(dim_into_pending),
                vec![0.0; dim_into_pending],
            )
        });
        layers.push(last);
        Ok(Self::from_affine_pairs(input_dim, layers))
    }

    /// Number of input scalars.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output scalars.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The affine stages, in order. A ReLU sits between consecutive stages
    /// (and none after the last).
    #[must_use]
    pub fn layers(&self) -> &[AffinePair] {
        &self.layers
    }

    /// Stage `k`'s weight in compressed sparse column form, when its
    /// density is below [`SPARSE_STAGE_MAX_DENSITY`]; `None` for dense
    /// stages.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_layers()`.
    #[must_use]
    pub fn sparse_weight(&self, k: usize) -> Option<&CscMatrix> {
        self.sparse[k].as_deref()
    }

    /// Number of affine stages.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Sizes of the ReLU layers (every stage output except the last).
    #[must_use]
    pub fn relu_layer_sizes(&self) -> Vec<usize> {
        self.layers[..self.layers.len() - 1]
            .iter()
            .map(AffinePair::out_dim)
            .collect()
    }

    /// Total ReLU neuron count — the `K` in the paper's Def. 1.
    #[must_use]
    pub fn num_relu_neurons(&self) -> usize {
        self.relu_layer_sizes().iter().sum()
    }

    /// Exact forward pass through the canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.preactivations(x)
            .pop()
            .expect("canonical network has at least one layer")
    }

    /// Pre-activation values `z_i` of every stage; the last entry is the
    /// network output.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    #[must_use]
    pub fn preactivations(&self, x: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(x.len(), self.input_dim, "preactivations: bad input length");
        let mut zs = Vec::with_capacity(self.layers.len());
        let mut a = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.apply(&a);
            if i + 1 < self.layers.len() {
                a = z.iter().map(|&v| v.max(0.0)).collect();
            }
            zs.push(z);
        }
        zs
    }

    /// Gradient of the scalar `coeffs · output(x)` with respect to the
    /// input, by reverse accumulation through the affine stages and the
    /// (sub-differentiable) ReLU masks.
    ///
    /// # Examples
    ///
    /// ```
    /// use abonn_nn::{AffinePair, CanonicalNetwork};
    /// use abonn_tensor::Matrix;
    ///
    /// // y = relu(2x): gradient is 2 on the active side, 0 otherwise.
    /// let net = CanonicalNetwork::from_affine_pairs(1, vec![
    ///     AffinePair::new(Matrix::from_rows(&[&[2.0]]), vec![0.0]),
    ///     AffinePair::new(Matrix::identity(1), vec![0.0]),
    /// ]);
    /// assert_eq!(net.input_gradient(&[1.0], &[1.0]), vec![2.0]);
    /// assert_eq!(net.input_gradient(&[-1.0], &[1.0]), vec![0.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x` or `coeffs` have the wrong length.
    #[must_use]
    pub fn input_gradient(&self, x: &[f64], coeffs: &[f64]) -> Vec<f64> {
        assert_eq!(
            coeffs.len(),
            self.output_dim(),
            "input_gradient: coeffs length mismatch"
        );
        let zs = self.preactivations(x);
        let mut g = coeffs.to_vec();
        for (j, layer) in self.layers.iter().enumerate().rev() {
            // Through the affine stage: g over z_j -> over a_{j-1}.
            g = layer.weight.tr_matvec(&g);
            if j > 0 {
                // Through the preceding ReLU: mask inactive neurons.
                for (gi, &z) in g.iter_mut().zip(&zs[j - 1]) {
                    if z <= 0.0 {
                        *gi = 0.0;
                    }
                }
            }
        }
        g
    }

    /// Returns a new network computing `C · f(x) + d`, fused into the final
    /// affine stage. Used to turn robustness specifications into "all
    /// outputs positive" margin form.
    ///
    /// # Panics
    ///
    /// Panics if `c.cols() != self.output_dim()` or `d.len() != c.rows()`.
    #[must_use]
    pub fn with_output_transform(&self, c: &Matrix, d: &[f64]) -> Self {
        assert_eq!(
            c.cols(),
            self.output_dim(),
            "with_output_transform: shape mismatch"
        );
        assert_eq!(d.len(), c.rows(), "with_output_transform: bias mismatch");
        let mut layers = self.layers.clone();
        let last = layers.pop().expect("non-empty");
        let fused_w = c.matmul(&last.weight);
        let mut fused_b = c.matvec(&last.bias);
        for (bi, &di) in fused_b.iter_mut().zip(d) {
            *bi += di;
        }
        // The hidden stages are unchanged: share their sparse forms and
        // measure only the fused output stage.
        let mut sparse = self.sparse.clone();
        sparse.pop();
        sparse.push(sparse_form(&fused_w));
        layers.push(AffinePair::new(fused_w, fused_b));
        Self {
            input_dim: self.input_dim,
            layers,
            sparse,
        }
    }
}

/// The compressed form of `w` when its non-zero fraction is below
/// [`SPARSE_STAGE_MAX_DENSITY`].
fn sparse_form(w: &Matrix) -> Option<Arc<CscMatrix>> {
    let entries = w.as_slice().len();
    let nnz = w.as_slice().iter().filter(|&&v| v != 0.0).count();
    (entries > 0 && (nnz as f64) < SPARSE_STAGE_MAX_DENSITY * entries as f64)
        .then(|| Arc::new(CscMatrix::from_dense(w)))
}

/// Composes `next ∘ prev` (apply `prev` first). `None` means identity.
fn compose(prev: Option<AffinePair>, next: AffinePair) -> AffinePair {
    match prev {
        None => next,
        Some(p) => {
            let w = next.weight.matmul(&p.weight);
            let mut b = next.weight.matvec(&p.bias);
            for (bi, &nb) in b.iter_mut().zip(&next.bias) {
                *bi += nb;
            }
            AffinePair::new(w, b)
        }
    }
}

/// Expands a convolution over an `h × w` input into an explicit weight
/// matrix and bias vector.
#[must_use]
pub fn conv_to_matrix(conv: &Conv2d, h: usize, w: usize) -> (Matrix, Vec<f64>) {
    let (oh, ow) = conv
        .output_hw(h, w)
        .expect("conv_to_matrix: kernel larger than padded input");
    let out_len = conv.out_c * oh * ow;
    let in_len = conv.in_c * h * w;
    let mut m = Matrix::zeros(out_len, in_len);
    let mut bias = vec![0.0; out_len];
    let pad = conv.padding as isize;
    for oc in 0..conv.out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = oc * oh * ow + oy * ow + ox;
                bias[row] = conv.bias[oc];
                for ic in 0..conv.in_c {
                    for ky in 0..conv.kh {
                        let iy = (oy * conv.stride + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..conv.kw {
                            let ix = (ox * conv.stride + kx) as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = ic * h * w + iy as usize * w + ix as usize;
                            let v = m.get(row, col) + conv.w(oc, ic, ky, kx);
                            m.set(row, col, v);
                        }
                    }
                }
            }
        }
    }
    (m, bias)
}

/// Expands non-overlapping average pooling over a `c × h × w` input into
/// an explicit weight matrix (zero bias).
#[must_use]
pub fn avg_pool_to_matrix(pool: &AvgPool2d, c: usize, h: usize, w: usize) -> (Matrix, Vec<f64>) {
    let (oh, ow) = pool
        .output_hw(h, w)
        .expect("avg_pool_to_matrix: window must tile the input");
    let k = pool.k;
    let scale = 1.0 / (k * k) as f64;
    let out_len = c * oh * ow;
    let mut m = Matrix::zeros(out_len, c * h * w);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ch * oh * ow + oy * ow + ox;
                for dy in 0..k {
                    for dx in 0..k {
                        let col = ch * h * w + (oy * k + dy) * w + (ox * k + dx);
                        m.set(row, col, scale);
                    }
                }
            }
        }
    }
    let bias = vec![0.0; out_len];
    (m, bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_conv_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let conv1 = init::conv_xavier(2, 3, 3, 1, 1, &mut rng);
        let conv2 = init::conv_xavier(3, 2, 2, 2, 0, &mut rng);
        Network::new(
            Shape::Image { c: 2, h: 6, w: 6 },
            vec![
                conv1,
                Layer::relu(),
                conv2,
                Layer::relu(),
                Layer::flatten(),
                init::dense_xavier(2 * 3 * 3, 4, &mut rng),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lowered_conv_net_matches_direct_forward() {
        let net = random_conv_net(11);
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..20 {
            let x: Vec<f64> = (0..net.input_dim())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let direct = net.forward(&x);
            let lowered = canon.forward(&x);
            for (a, b) in direct.iter().zip(&lowered) {
                assert!((a - b).abs() < 1e-9, "direct {a} vs lowered {b}");
            }
        }
    }

    #[test]
    fn fused_dense_runs_collapse_to_one_stage() {
        let net = Network::new(
            Shape::Flat(3),
            vec![
                Layer::dense(Matrix::identity(3), vec![1.0; 3]),
                Layer::dense(Matrix::identity(3), vec![1.0; 3]),
                Layer::relu(),
                Layer::dense(Matrix::from_rows(&[&[1.0, 1.0, 1.0]]), vec![0.0]),
            ],
        )
        .unwrap();
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        assert_eq!(canon.num_layers(), 2);
        assert_eq!(canon.forward(&[0.0; 3]), net.forward(&[0.0; 3]));
    }

    #[test]
    fn pooled_network_lowers_exactly() {
        let mut rng = SmallRng::seed_from_u64(61);
        let net = Network::new(
            Shape::Image { c: 2, h: 4, w: 4 },
            vec![
                init::conv_xavier(2, 3, 3, 1, 1, &mut rng),
                Layer::relu(),
                Layer::avg_pool(2),
                Layer::flatten(),
                init::dense_xavier(3 * 2 * 2, 3, &mut rng),
            ],
        )
        .unwrap();
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        for _ in 0..10 {
            let x: Vec<f64> = (0..net.input_dim())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            for (a, b) in net.forward(&x).iter().zip(&canon.forward(&x)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn avg_pool_matrix_rows_sum_to_one() {
        let (m, b) = avg_pool_to_matrix(&AvgPool2d::new(2), 1, 4, 4);
        assert!(b.iter().all(|&v| v == 0.0));
        for i in 0..m.rows() {
            let sum: f64 = m.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn trailing_relu_is_rejected() {
        let net = Network::new(
            Shape::Flat(1),
            vec![Layer::dense(Matrix::identity(1), vec![0.0]), Layer::relu()],
        )
        .unwrap();
        assert_eq!(
            CanonicalNetwork::from_network(&net),
            Err(LoweringError::TrailingRelu)
        );
    }

    #[test]
    fn relu_neuron_count_matches_network() {
        let net = random_conv_net(21);
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        assert_eq!(canon.num_relu_neurons(), net.num_relu_neurons());
    }

    #[test]
    fn conv_to_matrix_agrees_with_direct_conv() {
        let mut rng = SmallRng::seed_from_u64(31);
        let conv = Conv2d::new(
            2,
            3,
            3,
            3,
            2,
            1,
            (0..54).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            vec![0.3, -0.2, 0.7],
        );
        let (m, b) = conv_to_matrix(&conv, 5, 5);
        for _ in 0..10 {
            let x: Vec<f64> = (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let direct = crate::layer::conv_forward(&conv, 5, 5, &x);
            let mut via_matrix = m.matvec(&x);
            for (v, &bi) in via_matrix.iter_mut().zip(&b) {
                *v += bi;
            }
            assert_eq!(direct.len(), via_matrix.len());
            for (u, v) in direct.iter().zip(&via_matrix) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn output_transform_fuses_margin_rows() {
        let net = random_conv_net(41);
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        // margin rows: logit 0 minus each other logit
        let c = Matrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[1.0, 0.0, -1.0, 0.0],
            &[1.0, 0.0, 0.0, -1.0],
        ]);
        let with_margin = canon.with_output_transform(&c, &[0.0; 3]);
        let x: Vec<f64> = (0..net.input_dim())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let y = canon.forward(&x);
        let m = with_margin.forward(&x);
        for j in 0..3 {
            assert!((m[j] - (y[0] - y[j + 1])).abs() < 1e-9);
        }
        assert_eq!(with_margin.num_layers(), canon.num_layers());
    }

    #[test]
    fn canonical_gradient_matches_finite_differences() {
        let net = random_conv_net(71);
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        let mut rng = SmallRng::seed_from_u64(72);
        let x: Vec<f64> = (0..canon.input_dim())
            .map(|_| rng.gen_range(-0.9..0.9))
            .collect();
        let coeffs: Vec<f64> = (0..canon.output_dim())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let g = canon.input_gradient(&x, &coeffs);
        let eps = 1e-5;
        let f = |x: &[f64]| -> f64 {
            canon
                .forward(x)
                .iter()
                .zip(&coeffs)
                .map(|(y, c)| y * c)
                .sum()
        };
        for i in 0..x.len().min(20) {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += eps;
            xm[i] -= eps;
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (g[i] - numeric).abs() < 1e-5,
                "grad[{i}]: analytic {} vs numeric {numeric}",
                g[i]
            );
        }
    }

    #[test]
    fn preactivations_last_entry_is_output() {
        let net = random_conv_net(51);
        let canon = CanonicalNetwork::from_network(&net).unwrap();
        let x = vec![0.1; net.input_dim()];
        let zs = canon.preactivations(&x);
        assert_eq!(zs.last().unwrap(), &canon.forward(&x));
        assert_eq!(zs.len(), canon.num_layers());
    }
}
