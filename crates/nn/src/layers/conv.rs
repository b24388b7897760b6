use qugeo_tensor::Array3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NnError;

/// Output positions per block of the forward pass: a block's transposed
/// im2col stays in L1 and its accumulators in registers.
const BLOCK: usize = 16;

/// `(channels, height, width)` of a flat, channel-major feature map.
pub(crate) type Dims = (usize, usize, usize);

/// The receptive fields of one input size, as offsets into the flat
/// input: element `(c, i·stride + kh, j·stride + kw)` is
/// `x[taps[t] + origins[p]]` for tap `t = (c·k + kh)·k + kw` (the weight
/// order) and output position `p = i·ow + j`.
struct Windows {
    taps: Vec<usize>,
    origins: Vec<usize>,
}

/// A 2-D convolution with square kernels, valid padding and a uniform
/// stride.
///
/// Input and output are [`Array3`] values shaped `(channels, height,
/// width)`. Weights are laid out `[out_ch][in_ch][kh][kw]`, followed by
/// one bias per output channel, which is also the order of
/// [`Conv2d::params`].
///
/// Every output is accumulated as `bias + Σ w·x` over the taps in weight
/// order. Every parameter-gradient entry sums over the output positions
/// in row-major order, and every input-gradient entry over (output
/// channel, position); both skip exact-zero output gradients. Each sum is
/// a chain of separate multiplies and adds (no fused multiply-add), so
/// results do not depend on how the loops are blocked.
///
/// # Examples
///
/// ```
/// use qugeo_nn::layers::Conv2d;
/// use qugeo_tensor::Array3;
///
/// # fn main() -> Result<(), qugeo_nn::NnError> {
/// let conv = Conv2d::new(1, 4, 3, 1, 7)?;
/// let out = conv.forward(&Array3::zeros(1, 16, 16))?;
/// assert_eq!(out.shape(), (4, 14, 14));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution with He-style random initialisation from a
    /// deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero channels, kernel or
    /// stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidLayer {
                reason: format!(
                    "conv2d needs positive dims (in={in_channels}, out={out_channels}, k={kernel}, s={stride})"
                ),
            });
        }
        let fan_in = (in_channels * kernel * kernel) as f64;
        let scale = (2.0 / fan_in).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..out_channels * in_channels * kernel * kernel)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let bias = vec![0.0; out_channels];
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            weights,
            bias,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of trainable parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Parameters flattened as `[weights..., bias...]`.
    pub fn params(&self) -> Vec<f64> {
        let mut p = self.weights.clone();
        p.extend_from_slice(&self.bias);
        p
    }

    /// Overwrites parameters from the flat layout of [`Conv2d::params`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `params.len() !=
    /// self.num_params()`; the layer is left unchanged.
    pub fn set_params(&mut self, params: &[f64]) -> Result<(), NnError> {
        if params.len() != self.num_params() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} conv2d parameters", self.num_params()),
                actual: format!("{}", params.len()),
            });
        }
        let (weights, bias) = params.split_at(self.weights.len());
        self.weights.copy_from_slice(weights);
        self.bias.copy_from_slice(bias);
        Ok(())
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the kernel does not fit.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize), NnError> {
        if h < self.kernel || w < self.kernel {
            return Err(NnError::ShapeMismatch {
                expected: format!("input at least {}x{}", self.kernel, self.kernel),
                actual: format!("{h}x{w}"),
            });
        }
        Ok((
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        ))
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the channel count or spatial
    /// size disagrees with the layer.
    pub fn forward(&self, input: &Array3) -> Result<Array3, NnError> {
        let out = self.forward_flat(input.as_slice(), input.shape())?;
        to_array(self.output_dims(input.shape())?, out)
    }

    /// Backward pass: returns `(grad_input, grad_params)` where
    /// `grad_params` follows the [`Conv2d::params`] layout.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad_output`'s shape is not
    /// the forward output shape for `input`.
    pub fn backward(
        &self,
        input: &Array3,
        grad_output: &Array3,
    ) -> Result<(Array3, Vec<f64>), NnError> {
        self.check_grad_shape(input.shape(), grad_output.shape())?;
        let (grad_input, grad_params) =
            self.backward_flat(input.as_slice(), input.shape(), grad_output.as_slice())?;
        Ok((to_array(input.shape(), grad_input)?, grad_params))
    }

    /// The parameter gradient of [`Conv2d::backward`] alone, bit for bit,
    /// without computing the input gradient: all a network's first layer
    /// needs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad_output`'s shape is not
    /// the forward output shape for `input`.
    pub fn backward_params(
        &self,
        input: &Array3,
        grad_output: &Array3,
    ) -> Result<Vec<f64>, NnError> {
        self.check_grad_shape(input.shape(), grad_output.shape())?;
        self.backward_params_flat(input.as_slice(), input.shape(), grad_output.as_slice())
    }

    /// [`Conv2d::forward`] over a flat channel-major input of `dims`.
    pub(crate) fn forward_flat(&self, input: &[f64], dims: Dims) -> Result<Vec<f64>, NnError> {
        let out_dims = self.check_input(input, dims)?;
        let win = self.windows(dims, out_dims);
        let taps = win.taps.len();
        let positions = win.origins.len();
        let mut out = vec![0.0; self.out_channels * positions];
        // Transposed im2col of one block: row `t` holds tap `t` at each
        // of the block's positions.
        let mut cols = vec![0.0; taps * BLOCK];
        for (b, origins) in win.origins.chunks(BLOCK).enumerate() {
            for (row, &tap) in cols.chunks_exact_mut(BLOCK).zip(&win.taps) {
                let from_tap = &input[tap..];
                for (col, &origin) in row.iter_mut().zip(origins) {
                    *col = from_tap[origin];
                }
            }
            let block = b * BLOCK..b * BLOCK + origins.len();
            for ((w_o, &bias), out_o) in self
                .weights
                .chunks_exact(taps)
                .zip(&self.bias)
                .zip(out.chunks_exact_mut(positions))
            {
                out_o[block.clone()].copy_from_slice(&dot_block(bias, w_o, &cols)[..origins.len()]);
            }
        }
        Ok(out)
    }

    /// [`Conv2d::backward`] over flat channel-major buffers.
    pub(crate) fn backward_flat(
        &self,
        input: &[f64],
        dims: Dims,
        grad_output: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), NnError> {
        let win = self.check_backward(input, dims, grad_output)?;
        let grad_input = self.input_grad(&win, grad_output, input.len());
        Ok((grad_input, self.param_grad(input, &win, grad_output)))
    }

    /// [`Conv2d::backward_params`] over flat channel-major buffers.
    pub(crate) fn backward_params_flat(
        &self,
        input: &[f64],
        dims: Dims,
        grad_output: &[f64],
    ) -> Result<Vec<f64>, NnError> {
        let win = self.check_backward(input, dims, grad_output)?;
        Ok(self.param_grad(input, &win, grad_output))
    }

    fn param_grad(&self, input: &[f64], win: &Windows, grad_output: &[f64]) -> Vec<f64> {
        let taps = win.taps.len();
        let positions = win.origins.len();
        let mut grad = vec![0.0; self.num_params()];
        let (grad_w, grad_b) = grad.split_at_mut(self.weights.len());
        // Behind ReLUs most positions carry no gradient in any channel;
        // only the others are gathered.
        let mut live = vec![false; positions];
        for g_o in grad_output.chunks_exact(positions) {
            for (l, &g) in live.iter_mut().zip(g_o) {
                *l |= g != 0.0;
            }
        }
        // im2col row of one output position: the input under every tap.
        let mut window = vec![0.0; taps];
        for (p, &origin) in win.origins.iter().enumerate() {
            if !live[p] {
                continue;
            }
            let from_origin = &input[origin..];
            for (x, &tap) in window.iter_mut().zip(&win.taps) {
                *x = from_origin[tap];
            }
            for ((gw_o, gb_o), &g) in grad_w
                .chunks_exact_mut(taps)
                .zip(grad_b.iter_mut())
                .zip(grad_output.iter().skip(p).step_by(positions))
            {
                if g == 0.0 {
                    continue;
                }
                *gb_o += g;
                for (gw, &x) in gw_o.iter_mut().zip(&window) {
                    *gw += g * x;
                }
            }
        }
        grad
    }

    fn input_grad(&self, win: &Windows, grad_output: &[f64], len: usize) -> Vec<f64> {
        let taps = win.taps.len();
        let positions = win.origins.len();
        let k = self.kernel;
        let mut grad_input = vec![0.0; len];
        // Output channel, then output position, then the kernel's rows:
        // each input element sums its terms in (channel, position) order.
        for (w_o, g_o) in self
            .weights
            .chunks_exact(taps)
            .zip(grad_output.chunks_exact(positions))
        {
            for (&g, &origin) in g_o.iter().zip(&win.origins) {
                if g == 0.0 {
                    continue;
                }
                for (w_row, &tap) in w_o.chunks_exact(k).zip(win.taps.iter().step_by(k)) {
                    let start = tap + origin;
                    for (gi, &wt) in grad_input[start..start + k].iter_mut().zip(w_row) {
                        *gi += g * wt;
                    }
                }
            }
        }
        grad_input
    }

    /// Checks a flat input and output gradient; returns the windows.
    fn check_backward(
        &self,
        input: &[f64],
        dims: Dims,
        grad_output: &[f64],
    ) -> Result<Windows, NnError> {
        let out_dims = self.check_input(input, dims)?;
        let (o, oh, ow) = out_dims;
        if grad_output.len() != o * oh * ow {
            return Err(NnError::ShapeMismatch {
                expected: format!("grad ({o}, {oh}, {ow})"),
                actual: format!("{} values", grad_output.len()),
            });
        }
        Ok(self.windows(dims, out_dims))
    }

    /// The output dimensions for an input of `dims`.
    fn output_dims(&self, (c, h, w): Dims) -> Result<Dims, NnError> {
        if c != self.in_channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} channels", self.in_channels),
                actual: format!("{c} channels"),
            });
        }
        let (oh, ow) = self.output_size(h, w)?;
        Ok((self.out_channels, oh, ow))
    }

    /// [`Conv2d::output_dims`], after checking that `input` holds `dims`.
    fn check_input(&self, input: &[f64], dims: Dims) -> Result<Dims, NnError> {
        let (c, h, w) = dims;
        if input.len() != c * h * w {
            return Err(NnError::ShapeMismatch {
                expected: format!("{c}x{h}x{w} input values"),
                actual: format!("{}", input.len()),
            });
        }
        self.output_dims(dims)
    }

    /// Checks that a gradient of `grad_dims` matches the output for an
    /// input of `dims`.
    fn check_grad_shape(&self, dims: Dims, grad_dims: Dims) -> Result<(), NnError> {
        let out_dims = self.output_dims(dims)?;
        if grad_dims != out_dims {
            return Err(NnError::ShapeMismatch {
                expected: format!("grad {out_dims:?}"),
                actual: format!("{grad_dims:?}"),
            });
        }
        Ok(())
    }

    fn windows(&self, (_, h, w): Dims, (_, oh, ow): Dims) -> Windows {
        let (k, s) = (self.kernel, self.stride);
        let taps = (0..self.in_channels * k)
            .flat_map(|row| {
                let (c, kh) = (row / k, row % k);
                (0..k).map(move |kw| (c * h + kh) * w + kw)
            })
            .collect();
        let mut origins = Vec::with_capacity(oh * ow);
        for i in 0..oh {
            origins.extend((0..ow).map(|j| (i * w + j) * s));
        }
        Windows { taps, origins }
    }
}

/// `bias + Σ_t w[t]·cols[t][k]` for each position `k` of a block, summed
/// in tap order.
fn dot_block(bias: f64, w: &[f64], cols: &[f64]) -> [f64; BLOCK] {
    let mut acc = [bias; BLOCK];
    for (&wt, row) in w.iter().zip(cols.chunks_exact(BLOCK)) {
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += wt * x;
        }
    }
    acc
}

fn to_array((d0, d1, d2): Dims, data: Vec<f64>) -> Result<Array3, NnError> {
    Array3::from_vec(d0, d1, d2, data).map_err(|e| NnError::ShapeMismatch {
        expected: format!("({d0}, {d1}, {d2})"),
        actual: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_configuration() {
        assert!(Conv2d::new(0, 1, 3, 1, 0).is_err());
        assert!(Conv2d::new(1, 0, 3, 1, 0).is_err());
        assert!(Conv2d::new(1, 1, 0, 1, 0).is_err());
        assert!(Conv2d::new(1, 1, 3, 0, 0).is_err());
    }

    #[test]
    fn output_size_with_stride() {
        let c = Conv2d::new(1, 1, 5, 2, 0).unwrap();
        assert_eq!(c.output_size(16, 16).unwrap(), (6, 6));
        assert!(c.output_size(4, 16).is_err());
    }

    #[test]
    fn param_count_and_roundtrip() {
        let mut c = Conv2d::new(3, 4, 3, 1, 1).unwrap();
        assert_eq!(c.num_params(), 4 * 3 * 9 + 4);
        let p: Vec<f64> = (0..c.num_params()).map(|i| i as f64 * 0.1).collect();
        c.set_params(&p).unwrap();
        assert_eq!(c.params(), p);
    }

    #[test]
    fn set_params_rejects_wrong_length_and_keeps_the_layer() {
        let mut c = Conv2d::new(2, 3, 3, 1, 1).unwrap();
        let before = c.clone();
        for len in [0, c.num_params() - 1, c.num_params() + 1] {
            let err = c.set_params(&vec![0.5; len]).unwrap_err();
            assert!(matches!(err, NnError::ShapeMismatch { .. }), "{err}");
        }
        assert_eq!(c, before);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 kernel with weight 1, bias 0 must copy the input.
        let mut c = Conv2d::new(1, 1, 1, 1, 0).unwrap();
        c.set_params(&[1.0, 0.0]).unwrap();
        let x = Array3::from_fn(1, 3, 3, |_, i, j| (i * 3 + j) as f64);
        let y = c.forward(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn known_convolution_value() {
        // 2x2 all-ones kernel over a 3x3 ramp: out[0][0] = 0+1+3+4 = 8.
        let mut c = Conv2d::new(1, 1, 2, 1, 0).unwrap();
        c.set_params(&[1.0, 1.0, 1.0, 1.0, 0.5]).unwrap();
        let x = Array3::from_fn(1, 3, 3, |_, i, j| (i * 3 + j) as f64);
        let y = c.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 2, 2));
        assert_eq!(y[(0, 0, 0)], 8.5);
        assert_eq!(y[(0, 1, 1)], 4.0 + 5.0 + 7.0 + 8.0 + 0.5);
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let c = Conv2d::new(2, 1, 3, 1, 0).unwrap();
        assert!(c.forward(&Array3::zeros(1, 8, 8)).is_err());
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let conv = Conv2d::new(2, 3, 3, 2, 42).unwrap();
        let x = Array3::from_fn(2, 7, 7, |c, i, j| ((c * 49 + i * 7 + j) % 13) as f64 * 0.1 - 0.6);
        let y = conv.forward(&x).unwrap();
        // Scalar loss: sum of squares of outputs.
        let grad_out = y.map(|v| 2.0 * v);
        let (gx, gp) = conv.backward(&x, &grad_out).unwrap();

        let loss = |conv: &Conv2d, x: &Array3| -> f64 {
            conv.forward(x).unwrap().iter().map(|v| v * v).sum()
        };

        // Parameter gradients.
        let h = 1e-6;
        let base_params = conv.params();
        for idx in [0usize, 5, 20, conv.num_params() - 1] {
            let mut c2 = conv.clone();
            let mut p = base_params.clone();
            p[idx] += h;
            c2.set_params(&p).unwrap();
            let plus = loss(&c2, &x);
            p[idx] -= 2.0 * h;
            c2.set_params(&p).unwrap();
            let minus = loss(&c2, &x);
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - gp[idx]).abs() < 1e-4 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs analytic {}",
                gp[idx]
            );
        }

        // Input gradients.
        for flat in [0usize, 13, 48, 97] {
            let (c0, i0, j0) = (flat / 49, (flat % 49) / 7, flat % 7);
            let mut xp = x.clone();
            xp[(c0, i0, j0)] += h;
            let plus = loss(&conv, &xp);
            xp[(c0, i0, j0)] -= 2.0 * h;
            let minus = loss(&conv, &xp);
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - gx[(c0, i0, j0)]).abs() < 1e-4 * fd.abs().max(1.0),
                "input ({c0},{i0},{j0}): fd {fd} vs analytic {}",
                gx[(c0, i0, j0)]
            );
        }
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let conv = Conv2d::new(1, 1, 3, 1, 0).unwrap();
        let x = Array3::zeros(1, 8, 8);
        let bad = Array3::zeros(1, 5, 5);
        assert!(conv.backward(&x, &bad).is_err());
        assert!(conv.backward_params(&x, &bad).is_err());
        // Right element count, wrong shape.
        let transposed = Array3::zeros(1, 36, 1);
        assert!(conv.backward(&x, &transposed).is_err());
        assert!(conv.backward_params(&x, &transposed).is_err());
    }

    #[test]
    fn flat_entry_points_check_lengths() {
        let conv = Conv2d::new(2, 1, 3, 1, 0).unwrap();
        let x = vec![0.0; 2 * 5 * 5];
        assert!(conv.forward_flat(&x[1..], (2, 5, 5)).is_err());
        assert!(conv.forward_flat(&x, (1, 5, 10)).is_err());
        assert!(conv.backward_flat(&x, (2, 5, 5), &[0.0; 8]).is_err());
        assert!(conv
            .backward_params_flat(&x, (2, 5, 5), &[0.0; 10])
            .is_err());
        assert!(conv.backward_params_flat(&x, (2, 5, 5), &[0.0; 9]).is_ok());
    }

    #[test]
    fn deterministic_seeding() {
        let a = Conv2d::new(1, 2, 3, 1, 7).unwrap();
        let b = Conv2d::new(1, 2, 3, 1, 7).unwrap();
        let c = Conv2d::new(1, 2, 3, 1, 8).unwrap();
        assert_eq!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
    }
}
