//! Layer kinds and shape algebra.

use abonn_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Shape of the data flowing between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Shape {
    /// A flat vector of `n` values.
    Flat(usize),
    /// A `channels × height × width` image, stored channel-major
    /// (`c * h * w + y * w + x`).
    Image {
        /// Number of channels.
        c: usize,
        /// Height in pixels.
        h: usize,
        /// Width in pixels.
        w: usize,
    },
}

impl Shape {
    /// Total number of scalar values in this shape.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            Shape::Flat(n) => n,
            Shape::Image { c, h, w } => c * h * w,
        }
    }

    /// Returns `true` when the shape holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Shape::Flat(n) => write!(f, "flat({n})"),
            Shape::Image { c, h, w } => write!(f, "image({c}x{h}x{w})"),
        }
    }
}

/// A fully-connected affine layer: `y = W x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "DenseRepr")]
pub struct Dense {
    /// `out × in` weight matrix.
    pub weight: Matrix,
    /// Per-output bias.
    pub bias: Vec<f64>,
}

impl Dense {
    /// Creates a dense layer.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    #[must_use]
    pub fn new(weight: Matrix, bias: Vec<f64>) -> Self {
        assert_eq!(
            bias.len(),
            weight.rows(),
            "Dense::new: bias length {} does not match {} output rows",
            bias.len(),
            weight.rows()
        );
        Self { weight, bias }
    }

    /// Number of inputs.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Number of outputs.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }
}

/// A 2-D convolution with `same-layout` channel-major tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "Conv2dRepr")]
pub struct Conv2d {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Kernel weights, indexed `[oc][ic][ky][kx]` flattened row-major.
    pub weight: Vec<f64>,
    /// Per-output-channel bias.
    pub bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if the weight or bias length does not match the declared
    /// dimensions, or if `stride == 0`.
    #[must_use]
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per Conv2d hyperparameter, in the order the model format \
                  lists them"
    )]
    pub fn new(
        in_c: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: usize,
        weight: Vec<f64>,
        bias: Vec<f64>,
    ) -> Self {
        assert!(stride > 0, "Conv2d::new: stride must be positive");
        assert_eq!(
            weight.len(),
            out_c * in_c * kh * kw,
            "Conv2d::new: weight length mismatch"
        );
        assert_eq!(bias.len(), out_c, "Conv2d::new: bias length mismatch");
        Self {
            in_c,
            out_c,
            kh,
            kw,
            stride,
            padding,
            weight,
            bias,
        }
    }

    /// Output spatial size for an input of `h × w`, or `None` if the kernel
    /// does not fit.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> Option<(usize, usize)> {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if ph < self.kh || pw < self.kw {
            return None;
        }
        Some((
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        ))
    }

    /// Kernel weight at `[oc][ic][ky][kx]`.
    #[inline]
    #[must_use]
    pub fn w(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> f64 {
        self.weight[((oc * self.in_c + ic) * self.kh + ky) * self.kw + kx]
    }

    /// Flat index of the kernel weight at `[oc][ic][ky][kx]`.
    #[inline]
    #[must_use]
    pub fn w_index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_c + ic) * self.kh + ky) * self.kw + kx
    }
}

/// Non-overlapping 2-D average pooling with a square window.
///
/// Average pooling is affine, so it lowers exactly for verification
/// (unlike max pooling) while still appearing in common benchmark
/// architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvgPool2d {
    /// Window side length (also the stride).
    pub k: usize,
}

impl AvgPool2d {
    /// Creates a pooling layer with a `k × k` window.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "AvgPool2d::new: zero window");
        Self { k }
    }

    /// Output spatial size, or `None` if the window does not tile the
    /// input exactly.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> Option<(usize, usize)> {
        (h.is_multiple_of(self.k) && w.is_multiple_of(self.k) && h > 0 && w > 0)
            .then(|| (h / self.k, w / self.k))
    }
}

/// One layer of a [`crate::Network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected affine transformation.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Non-overlapping average pooling.
    AvgPool2d(AvgPool2d),
    /// Element-wise `max(0, x)`.
    Relu,
    /// Reinterprets an image as a flat vector (no data movement).
    Flatten,
}

impl Layer {
    /// Convenience constructor for a dense layer.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.rows()`.
    #[must_use]
    pub fn dense(weight: Matrix, bias: Vec<f64>) -> Self {
        Layer::Dense(Dense::new(weight, bias))
    }

    /// Convenience constructor for a ReLU layer.
    #[must_use]
    pub fn relu() -> Self {
        Layer::Relu
    }

    /// Convenience constructor for a `k × k` average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn avg_pool(k: usize) -> Self {
        Layer::AvgPool2d(AvgPool2d::new(k))
    }

    /// Convenience constructor for a flatten layer.
    #[must_use]
    pub fn flatten() -> Self {
        Layer::Flatten
    }

    /// Output shape given an input shape, or `None` on mismatch.
    #[must_use]
    pub fn output_shape(&self, input: Shape) -> Option<Shape> {
        match self {
            Layer::Dense(d) => match input {
                Shape::Flat(n) if n == d.in_dim() => Some(Shape::Flat(d.out_dim())),
                _ => None,
            },
            Layer::Conv2d(conv) => match input {
                Shape::Image { c, h, w } if c == conv.in_c => {
                    let (oh, ow) = conv.output_hw(h, w)?;
                    Some(Shape::Image {
                        c: conv.out_c,
                        h: oh,
                        w: ow,
                    })
                }
                _ => None,
            },
            Layer::AvgPool2d(pool) => match input {
                Shape::Image { c, h, w } => {
                    let (oh, ow) = pool.output_hw(h, w)?;
                    Some(Shape::Image { c, h: oh, w: ow })
                }
                Shape::Flat(_) => None,
            },
            Layer::Relu => Some(input),
            Layer::Flatten => match input {
                Shape::Image { .. } => Some(Shape::Flat(input.len())),
                Shape::Flat(n) => Some(Shape::Flat(n)),
            },
        }
    }

    /// Applies the layer to `x` (whose layout matches `input`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match `input.len()` or the shape is
    /// incompatible with the layer.
    #[must_use]
    pub fn apply(&self, input: Shape, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), input.len(), "Layer::apply: data/shape mismatch");
        match self {
            Layer::Dense(d) => {
                let mut y = d.weight.matvec(x);
                for (yi, &bi) in y.iter_mut().zip(&d.bias) {
                    *yi += bi;
                }
                y
            }
            Layer::Conv2d(conv) => {
                let Shape::Image { h, w, .. } = input else {
                    panic!("Conv2d applied to flat input");
                };
                conv_forward(conv, h, w, x)
            }
            Layer::AvgPool2d(pool) => {
                let Shape::Image { c, h, w } = input else {
                    panic!("AvgPool2d applied to flat input");
                };
                avg_pool_forward(pool, c, h, w, x)
            }
            Layer::Relu => x.iter().map(|&v| v.max(0.0)).collect(),
            Layer::Flatten => x.to_vec(),
        }
    }
}

/// Direct (non-lowered) convolution forward pass.
pub(crate) fn conv_forward(conv: &Conv2d, h: usize, w: usize, x: &[f64]) -> Vec<f64> {
    let (oh, ow) = conv
        .output_hw(h, w)
        .expect("conv_forward: kernel larger than padded input");
    let mut out = vec![0.0; conv.out_c * oh * ow];
    let pad = conv.padding as isize;
    for oc in 0..conv.out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = conv.bias[oc];
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
                            let xi = x[ic * h * w + iy as usize * w + ix as usize];
                            acc += conv.w(oc, ic, ky, kx) * xi;
                        }
                    }
                }
                out[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    out
}

/// Direct average-pooling forward pass.
pub(crate) fn avg_pool_forward(
    pool: &AvgPool2d,
    c: usize,
    h: usize,
    w: usize,
    x: &[f64],
) -> Vec<f64> {
    let (oh, ow) = pool
        .output_hw(h, w)
        .expect("avg_pool_forward: window must tile the input");
    let k = pool.k;
    let scale = 1.0 / (k * k) as f64;
    let mut out = vec![0.0; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for dy in 0..k {
                    for dx in 0..k {
                        acc += x[ch * h * w + (oy * k + dy) * w + (ox * k + dx)];
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = acc * scale;
            }
        }
    }
    out
}

/// Rejects a non-finite weight or bias. JSON has no literal for infinity
/// or NaN, but a literal out of `f64` range such as `1e400` parses to an
/// infinity, and no bound or certificate is sound over one.
fn check_finite(layer: &str, weight: &[f64], bias: &[f64]) -> Result<(), String> {
    if let Some(i) = weight.iter().position(|w| !w.is_finite()) {
        return Err(format!("{layer}: weight {i} is not finite"));
    }
    if let Some(i) = bias.iter().position(|b| !b.is_finite()) {
        return Err(format!("{layer}: bias {i} is not finite"));
    }
    Ok(())
}

/// Serialised form of [`Dense`]; deserialisation re-validates invariants.
#[derive(Deserialize)]
struct DenseRepr {
    weight: Matrix,
    bias: Vec<f64>,
}

impl TryFrom<DenseRepr> for Dense {
    type Error = String;

    fn try_from(r: DenseRepr) -> Result<Self, Self::Error> {
        if r.bias.len() != r.weight.rows() {
            return Err(format!(
                "dense layer: bias length {} does not match {} output rows",
                r.bias.len(),
                r.weight.rows()
            ));
        }
        check_finite("dense layer", r.weight.as_slice(), &r.bias)?;
        Ok(Dense {
            weight: r.weight,
            bias: r.bias,
        })
    }
}

/// Serialised form of [`Conv2d`]; deserialisation re-validates invariants.
#[derive(Deserialize)]
struct Conv2dRepr {
    in_c: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    weight: Vec<f64>,
    bias: Vec<f64>,
}

impl TryFrom<Conv2dRepr> for Conv2d {
    type Error = String;

    fn try_from(r: Conv2dRepr) -> Result<Self, Self::Error> {
        if r.stride == 0 {
            return Err("conv layer: zero stride".into());
        }
        if r.weight.len() != r.out_c * r.in_c * r.kh * r.kw {
            return Err("conv layer: weight length mismatch".into());
        }
        if r.bias.len() != r.out_c {
            return Err("conv layer: bias length mismatch".into());
        }
        check_finite("conv layer", &r.weight, &r.bias)?;
        Ok(Conv2d {
            in_c: r.in_c,
            out_c: r.out_c,
            kh: r.kh,
            kw: r.kw,
            stride: r.stride,
            padding: r.padding,
            weight: r.weight,
            bias: r.bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_lengths() {
        assert_eq!(Shape::Flat(5).len(), 5);
        assert_eq!(Shape::Image { c: 3, h: 4, w: 2 }.len(), 24);
        assert!(Shape::Flat(0).is_empty());
    }

    #[test]
    fn dense_apply_is_affine() {
        let layer = Layer::dense(
            Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]),
            vec![1.0, -1.0],
        );
        let y = layer.apply(Shape::Flat(2), &[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 2.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let y = Layer::relu().apply(Shape::Flat(3), &[-1.0, 0.0, 2.0]);
        assert_eq!(y, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn conv_identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1, no padding: output == input.
        let conv = Conv2d::new(1, 1, 1, 1, 1, 0, vec![1.0], vec![0.0]);
        let x: Vec<f64> = (0..9).map(f64::from).collect();
        let y = Layer::Conv2d(conv).apply(Shape::Image { c: 1, h: 3, w: 3 }, &x);
        assert_eq!(y, x);
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        // 3x3 all-ones kernel on a 3x3 input of ones, no padding → single
        // output equal to 9 + bias.
        let conv = Conv2d::new(1, 1, 3, 3, 1, 0, vec![1.0; 9], vec![0.5]);
        let y = Layer::Conv2d(conv).apply(Shape::Image { c: 1, h: 3, w: 3 }, &[1.0; 9]);
        assert_eq!(y, vec![9.5]);
    }

    #[test]
    fn conv_with_padding_produces_same_spatial_size() {
        let conv = Conv2d::new(1, 2, 3, 3, 1, 1, vec![0.1; 18], vec![0.0, 0.0]);
        let shape = conv
            .output_hw(4, 4)
            .expect("3x3 stride-1 pad-1 kernel fits 4x4");
        assert_eq!(shape, (4, 4));
    }

    #[test]
    fn conv_stride_two_halves_size() {
        let conv = Conv2d::new(1, 1, 2, 2, 2, 0, vec![0.25; 4], vec![0.0]);
        assert_eq!(conv.output_hw(4, 4), Some((2, 2)));
        // Average-pool style kernel: each output is the mean of a 2x2 block.
        let x = vec![4.0; 16];
        let y = Layer::Conv2d(conv).apply(Shape::Image { c: 1, h: 4, w: 4 }, &x);
        assert_eq!(y, vec![4.0; 4]);
    }

    #[test]
    fn output_shape_rejects_mismatch() {
        let layer = Layer::dense(Matrix::zeros(2, 3), vec![0.0, 0.0]);
        assert_eq!(layer.output_shape(Shape::Flat(4)), None);
        assert_eq!(layer.output_shape(Shape::Flat(3)), Some(Shape::Flat(2)));
        let conv = Layer::Conv2d(Conv2d::new(3, 4, 3, 3, 1, 0, vec![0.0; 108], vec![0.0; 4]));
        assert_eq!(conv.output_shape(Shape::Flat(27)), None);
        assert_eq!(
            conv.output_shape(Shape::Image { c: 3, h: 5, w: 5 }),
            Some(Shape::Image { c: 4, h: 3, w: 3 })
        );
    }

    #[test]
    fn flatten_keeps_data() {
        let y = Layer::flatten().apply(Shape::Image { c: 1, h: 2, w: 2 }, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn avg_pool_halves_and_averages() {
        let x: Vec<f64> = (0..16).map(f64::from).collect();
        let y = Layer::avg_pool(2).apply(Shape::Image { c: 1, h: 4, w: 4 }, &x);
        // First window: (0 + 1 + 4 + 5) / 4 = 2.5
        assert_eq!(y.len(), 4);
        assert_eq!(y[0], 2.5);
        assert_eq!(y[3], (10.0 + 11.0 + 14.0 + 15.0) / 4.0);
    }

    #[test]
    fn avg_pool_rejects_non_tiling_windows() {
        let pool = AvgPool2d::new(3);
        assert_eq!(pool.output_hw(4, 4), None);
        assert_eq!(pool.output_hw(6, 9), Some((2, 3)));
        assert_eq!(
            Layer::avg_pool(3).output_shape(Shape::Image { c: 2, h: 4, w: 4 }),
            None
        );
        assert_eq!(Layer::avg_pool(2).output_shape(Shape::Flat(16)), None);
    }

    #[test]
    fn avg_pool_preserves_constant_images() {
        let y = Layer::avg_pool(2).apply(Shape::Image { c: 2, h: 2, w: 2 }, &[3.0; 8]);
        assert_eq!(y, vec![3.0, 3.0]);
    }
}
