//! The concrete CNN architectures of the QuGeo experiments.
//!
//! * [`CnnRegressor`] — the classical FWI baselines of Table 2 (CNN-PX
//!   and CNN-LY): tiny CNNs consuming the same 256-value scaled seismic
//!   vector as the quantum models, with parameter counts pinned to the
//!   same ~600 level.
//! * [`CnnCompressor`] — the LeNet-like data compressor of Q-D-CNN
//!   (Section 3.1.2): "two convolutional layers (including a ReLU function
//!   after the convolution operation) and a fully connected layer",
//!   trained to map raw shot gathers onto the physics-guided scaled data.

use qugeo_tensor::Array3;

use crate::layers::conv::Dims;
use crate::layers::{Conv2d, GlobalAvgPool, Linear, Relu};
use crate::loss::mse_loss;
use crate::{Model, NnError};

/// Output head of a [`CnnRegressor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressorHead {
    /// Pixel-wise: predict every velocity of the `side × side` map
    /// (64 outputs for the paper's 8×8 maps).
    PixelWise {
        /// Side length of the square velocity map.
        side: usize,
    },
    /// Layer-wise: predict one velocity per row (8 outputs), exploiting
    /// the flat-layer prior.
    LayerWise {
        /// Number of rows (depth cells).
        rows: usize,
    },
}

impl RegressorHead {
    /// Number of network outputs this head produces.
    pub fn output_len(&self) -> usize {
        match *self {
            Self::PixelWise { side } => side * side,
            Self::LayerWise { rows } => rows,
        }
    }
}

/// Configuration of a [`CnnRegressor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegressorConfig {
    /// The 256-value input is viewed as a `input_side × input_side`
    /// single-channel image (16 for the paper's scaled data).
    pub input_side: usize,
    /// Channels of the first 3×3 convolution.
    pub conv1_channels: usize,
    /// Channels of the second 3×3 convolution.
    pub conv2_channels: usize,
    /// Output head.
    pub head: RegressorHead,
}

impl RegressorConfig {
    /// CNN-PX: pixel-wise head over an 8×8 map; 609 parameters — the
    /// same level as the paper's 634-parameter CNN-PX.
    pub fn pixel_wise() -> Self {
        Self {
            input_side: 16,
            conv1_channels: 4,
            conv2_channels: 5,
            head: RegressorHead::PixelWise { side: 8 },
        }
    }

    /// CNN-LY: layer-wise head over 8 rows; 635 parameters — the same
    /// level as the paper's 616-parameter CNN-LY.
    pub fn layer_wise() -> Self {
        Self {
            input_side: 16,
            conv1_channels: 6,
            conv2_channels: 9,
            head: RegressorHead::LayerWise { rows: 8 },
        }
    }

    /// Input vector length this configuration consumes.
    pub fn input_len(&self) -> usize {
        self.input_side * self.input_side
    }
}

/// A compact CNN mapping a scaled seismic vector to velocities.
///
/// Architecture: `conv 3×3 → ReLU → conv 3×3 → ReLU → global average
/// pool → fully connected`. Parameters live at the ~600 level so Table 2
/// compares like with like against the 576-parameter quantum models.
///
/// # Examples
///
/// ```
/// use qugeo_nn::models::{CnnRegressor, RegressorConfig};
/// use qugeo_nn::Model;
///
/// # fn main() -> Result<(), qugeo_nn::NnError> {
/// let model = CnnRegressor::new(RegressorConfig::pixel_wise(), 7)?;
/// assert_eq!(model.num_params(), 609);
/// let out = model.forward(&vec![0.1; 256])?;
/// assert_eq!(out.len(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CnnRegressor {
    config: RegressorConfig,
    conv1: Conv2d,
    conv2: Conv2d,
    fc: Linear,
}

impl CnnRegressor {
    /// Builds the network with deterministic seed-derived initial weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for degenerate configurations
    /// (zero channels, input smaller than the two 3×3 convolutions need).
    pub fn new(config: RegressorConfig, seed: u64) -> Result<Self, NnError> {
        if config.input_side < 5 {
            return Err(NnError::InvalidLayer {
                reason: format!("input side {} too small for two 3x3 convs", config.input_side),
            });
        }
        let conv1 = Conv2d::new(1, config.conv1_channels, 3, 1, seed)?;
        let conv2 = Conv2d::new(config.conv1_channels, config.conv2_channels, 3, 1, seed + 1)?;
        let fc = Linear::new(config.conv2_channels, config.head.output_len(), seed + 2)?;
        Ok(Self {
            config,
            conv1,
            conv2,
            fc,
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &RegressorConfig {
        &self.config
    }

    fn to_image(&self, input: &[f64]) -> Result<Array3, NnError> {
        if input.len() != self.config.input_len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} inputs", self.config.input_len()),
                actual: format!("{}", input.len()),
            });
        }
        let side = self.config.input_side;
        Array3::from_vec(1, side, side, input.to_vec()).map_err(|e| NnError::ShapeMismatch {
            expected: "square image".to_string(),
            actual: e.to_string(),
        })
    }

    /// Forward pass: scaled seismic vector in, velocities out.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for wrong input lengths.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>, NnError> {
        let x0 = self.to_image(input)?;
        let z1 = self.conv1.forward(&x0)?;
        let a1 = Relu.forward(&z1);
        let z2 = self.conv2.forward(&a1)?;
        let a2 = Relu.forward(&z2);
        let pooled = GlobalAvgPool.forward(&a2);
        self.fc.forward(&pooled)
    }

    /// MSE loss against `target` and the gradient with respect to all
    /// parameters (flat, [`Model::params`] order).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for wrong input or target
    /// lengths.
    pub fn loss_and_grad(&self, input: &[f64], target: &[f64]) -> Result<(f64, Vec<f64>), NnError> {
        if target.len() != self.config.head.output_len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} targets", self.config.head.output_len()),
                actual: format!("{}", target.len()),
            });
        }
        // Forward with caches.
        let x0 = self.to_image(input)?;
        let z1 = self.conv1.forward(&x0)?;
        let a1 = Relu.forward(&z1);
        let z2 = self.conv2.forward(&a1)?;
        let a2 = Relu.forward(&z2);
        let pooled = GlobalAvgPool.forward(&a2);
        let out = self.fc.forward(&pooled)?;

        let (loss, grad_out) = mse_loss(&out, target);

        // Backward.
        let (grad_pooled, grad_fc) = self.fc.backward(&pooled, &grad_out)?;
        let grad_a2 = GlobalAvgPool.backward(&a2, &grad_pooled);
        let grad_z2 = Relu.backward(&z2, &grad_a2);
        let (grad_a1, grad_conv2) = self.conv2.backward(&a1, &grad_z2)?;
        let grad_z1 = Relu.backward(&z1, &grad_a1);
        let grad_conv1 = self.conv1.backward_params(&x0, &grad_z1)?;

        Ok((loss, [grad_conv1, grad_conv2, grad_fc].concat()))
    }
}

impl Model for CnnRegressor {
    fn num_params(&self) -> usize {
        self.conv1.num_params() + self.conv2.num_params() + self.fc.num_params()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        p.extend(self.fc.params());
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "regressor param count");
        set_layer_params(&mut self.conv1, &mut self.conv2, &mut self.fc, params);
    }
}

/// Configuration of a [`CnnCompressor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressorConfig {
    /// Input gather height (time steps, 1000 for OpenFWI).
    pub input_h: usize,
    /// Input gather width (receivers, 70 for OpenFWI).
    pub input_w: usize,
    /// Output feature count (64 = one group of the 256-value scaled
    /// vector).
    pub out_features: usize,
}

impl CompressorConfig {
    /// The OpenFWI per-source layout: 1000 × 70 in, 64 out.
    pub fn openfwi_per_source() -> Self {
        Self {
            input_h: 1000,
            input_w: 70,
            out_features: 64,
        }
    }
}

/// The LeNet-like compressor of Q-D-CNN: two strided convolutions with
/// ReLU, then one fully connected layer, mapping a raw shot gather to one
/// group of the physics-guided scaled representation.
///
/// # Examples
///
/// ```
/// use qugeo_nn::models::{CnnCompressor, CompressorConfig};
/// use qugeo_tensor::Array2;
///
/// # fn main() -> Result<(), qugeo_nn::NnError> {
/// let cfg = CompressorConfig { input_h: 100, input_w: 32, out_features: 16 };
/// let model = CnnCompressor::new(cfg, 3)?;
/// let out = model.forward(&Array2::zeros(100, 32))?;
/// assert_eq!(out.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CnnCompressor {
    config: CompressorConfig,
    conv1: Conv2d,
    conv2: Conv2d,
    fc: Linear,
    flat_len: usize,
    /// Dimensions of the second convolution's input.
    dims1: Dims,
}

impl CnnCompressor {
    /// Builds the compressor with deterministic initial weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if the input is too small for
    /// the two strided convolutions.
    pub fn new(config: CompressorConfig, seed: u64) -> Result<Self, NnError> {
        let conv1 = Conv2d::new(1, 4, 7, 4, seed)?;
        let (h1, w1) = conv1.output_size(config.input_h, config.input_w)?;
        let conv2 = Conv2d::new(4, 8, 5, 4, seed + 1)?;
        let (h2, w2) = conv2.output_size(h1, w1)?;
        let flat_len = 8 * h2 * w2;
        let fc = Linear::new(flat_len, config.out_features, seed + 2)?;
        Ok(Self {
            config,
            conv1,
            conv2,
            fc,
            flat_len,
            dims1: (4, h1, w1),
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &CompressorConfig {
        &self.config
    }

    /// The gather as the first convolution's single-channel input.
    fn image_dims(&self, gather: &qugeo_tensor::Array2) -> Result<Dims, NnError> {
        if gather.shape() != (self.config.input_h, self.config.input_w) {
            return Err(NnError::ShapeMismatch {
                expected: format!("{}x{}", self.config.input_h, self.config.input_w),
                actual: format!("{:?}", gather.shape()),
            });
        }
        Ok((1, self.config.input_h, self.config.input_w))
    }

    /// Compresses one shot gather (`input_h × input_w`) into
    /// `out_features` values.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for wrong gather shapes.
    pub fn forward(&self, gather: &qugeo_tensor::Array2) -> Result<Vec<f64>, NnError> {
        let z1 = self
            .conv1
            .forward_flat(gather.as_slice(), self.image_dims(gather)?)?;
        let a1 = Relu.forward_vec(&z1);
        let z2 = self.conv2.forward_flat(&a1, self.dims1)?;
        let a2 = Relu.forward_vec(&z2);
        self.fc.forward(&a2)
    }

    /// MSE loss against a target compressed vector, plus the flat
    /// parameter gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for wrong shapes.
    pub fn loss_and_grad(
        &self,
        gather: &qugeo_tensor::Array2,
        target: &[f64],
    ) -> Result<(f64, Vec<f64>), NnError> {
        if target.len() != self.config.out_features {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} targets", self.config.out_features),
                actual: format!("{}", target.len()),
            });
        }
        let (x0, dims0) = (gather.as_slice(), self.image_dims(gather)?);
        let z1 = self.conv1.forward_flat(x0, dims0)?;
        let a1 = Relu.forward_vec(&z1);
        let z2 = self.conv2.forward_flat(&a1, self.dims1)?;
        let a2 = Relu.forward_vec(&z2);
        let out = self.fc.forward(&a2)?;

        let (loss, grad_out) = mse_loss(&out, target);

        let (grad_a2, grad_fc) = self.fc.backward(&a2, &grad_out)?;
        let grad_z2 = Relu.backward_vec(&z2, &grad_a2);
        let (grad_a1, grad_conv2) = self.conv2.backward_flat(&a1, self.dims1, &grad_z2)?;
        let grad_z1 = Relu.backward_vec(&z1, &grad_a1);
        let grad_conv1 = self.conv1.backward_params_flat(x0, dims0, &grad_z1)?;

        Ok((loss, [grad_conv1, grad_conv2, grad_fc].concat()))
    }

    /// Flattened feature count between the convolutions and the FC layer.
    pub fn flat_features(&self) -> usize {
        self.flat_len
    }
}

impl Model for CnnCompressor {
    fn num_params(&self) -> usize {
        self.conv1.num_params() + self.conv2.num_params() + self.fc.num_params()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        p.extend(self.fc.params());
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "compressor param count");
        set_layer_params(&mut self.conv1, &mut self.conv2, &mut self.fc, params);
    }
}

/// Splits a flat `[conv1 | conv2 | fc]` vector whose total length the
/// caller has checked, and writes each part into its layer.
#[allow(
    clippy::expect_used,
    reason = "each part has its layer's own parameter count, which `set_params` accepts"
)]
fn set_layer_params(conv1: &mut Conv2d, conv2: &mut Conv2d, fc: &mut Linear, params: &[f64]) {
    let (c1, rest) = params.split_at(conv1.num_params());
    let (c2, f) = rest.split_at(conv2.num_params());
    conv1
        .set_params(c1)
        .and_then(|()| conv2.set_params(c2))
        .and_then(|()| fc.set_params(f))
        .expect("a checked total splits into the layers' counts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use qugeo_tensor::Array2;

    #[test]
    fn regressor_param_counts_at_paper_level() {
        let px = CnnRegressor::new(RegressorConfig::pixel_wise(), 1).unwrap();
        let ly = CnnRegressor::new(RegressorConfig::layer_wise(), 1).unwrap();
        // conv1 1->4 (40) + conv2 4->5 (185) + fc 5->64 (384) = 609.
        assert_eq!(px.num_params(), 609);
        // conv1 1->6 (60) + conv2 6->9 (495) + fc 9->8 (80) = 635.
        assert_eq!(ly.num_params(), 635);
        // Both within ~10% of the paper's 634 / 616 and above the
        // quantum models' 576.
        assert!(px.num_params() > 576 && ly.num_params() > 576);
    }

    #[test]
    fn regressor_output_lengths() {
        let px = CnnRegressor::new(RegressorConfig::pixel_wise(), 1).unwrap();
        assert_eq!(px.forward(&vec![0.5; 256]).unwrap().len(), 64);
        let ly = CnnRegressor::new(RegressorConfig::layer_wise(), 1).unwrap();
        assert_eq!(ly.forward(&vec![0.5; 256]).unwrap().len(), 8);
    }

    #[test]
    fn regressor_rejects_wrong_input() {
        let px = CnnRegressor::new(RegressorConfig::pixel_wise(), 1).unwrap();
        assert!(px.forward(&vec![0.5; 100]).is_err());
        assert!(px.loss_and_grad(&vec![0.5; 256], &[0.0; 8]).is_err());
    }

    #[test]
    fn regressor_params_roundtrip() {
        let mut m = CnnRegressor::new(RegressorConfig::pixel_wise(), 1).unwrap();
        let p: Vec<f64> = (0..m.num_params()).map(|i| (i as f64) * 1e-3).collect();
        m.set_params(&p);
        assert_eq!(m.params(), p);
    }

    #[test]
    #[should_panic(expected = "regressor param count")]
    fn regressor_set_params_panics_on_wrong_length() {
        let mut m = CnnRegressor::new(RegressorConfig::layer_wise(), 1).unwrap();
        m.set_params(&[0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "compressor param count")]
    fn compressor_set_params_panics_on_wrong_length() {
        let cfg = CompressorConfig {
            input_h: 60,
            input_w: 24,
            out_features: 8,
        };
        let mut m = CnnCompressor::new(cfg, 1).unwrap();
        let n = m.num_params();
        m.set_params(&vec![0.0; n + 1]);
    }

    #[test]
    fn regressor_gradient_matches_finite_difference() {
        let model = CnnRegressor::new(RegressorConfig::layer_wise(), 9).unwrap();
        let input: Vec<f64> = (0..256).map(|i| ((i * 37) % 19) as f64 * 0.05 - 0.4).collect();
        let target = vec![0.3; 8];
        let (_, grad) = model.loss_and_grad(&input, &target).unwrap();

        let h = 1e-6;
        let base = model.params();
        for idx in [0usize, 50, 200, base.len() - 1] {
            let mut m2 = model.clone();
            let mut p = base.clone();
            p[idx] += h;
            m2.set_params(&p);
            let (plus, _) = m2.loss_and_grad(&input, &target).unwrap();
            p[idx] -= 2.0 * h;
            m2.set_params(&p);
            let (minus, _) = m2.loss_and_grad(&input, &target).unwrap();
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - grad[idx]).abs() < 1e-5 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs analytic {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn regressor_trains_toward_constant_target() {
        let mut model = CnnRegressor::new(RegressorConfig::layer_wise(), 5).unwrap();
        let input: Vec<f64> = (0..256).map(|i| (i as f64 / 255.0) - 0.5).collect();
        let target = vec![0.7; 8];
        let mut params = model.params();
        let mut adam = Adam::new(params.len(), 0.05);
        let (initial, _) = model.loss_and_grad(&input, &target).unwrap();
        for _ in 0..100 {
            let (_, grad) = model.loss_and_grad(&input, &target).unwrap();
            adam.step(&mut params, &grad);
            model.set_params(&params);
        }
        let (fin, _) = model.loss_and_grad(&input, &target).unwrap();
        assert!(fin < initial * 0.1, "loss {initial} -> {fin} did not drop");
    }

    #[test]
    fn compressor_shapes_and_params() {
        let cfg = CompressorConfig::openfwi_per_source();
        let m = CnnCompressor::new(cfg, 2).unwrap();
        // conv1: (1000-7)/4+1 = 249, (70-7)/4+1 = 16.
        // conv2: (249-5)/4+1 = 62, (16-5)/4+1 = 3 -> flat 8*62*3 = 1488.
        assert_eq!(m.flat_features(), 1488);
        let out = m.forward(&Array2::zeros(1000, 70)).unwrap();
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn compressor_rejects_wrong_shape() {
        let cfg = CompressorConfig {
            input_h: 100,
            input_w: 32,
            out_features: 16,
        };
        let m = CnnCompressor::new(cfg, 2).unwrap();
        assert!(m.forward(&Array2::zeros(50, 32)).is_err());
        assert!(CnnCompressor::new(
            CompressorConfig {
                input_h: 4,
                input_w: 4,
                out_features: 8
            },
            0
        )
        .is_err());
    }

    #[test]
    fn compressor_gradient_matches_finite_difference() {
        let cfg = CompressorConfig {
            input_h: 60,
            input_w: 24,
            out_features: 8,
        };
        let model = CnnCompressor::new(cfg, 4).unwrap();
        let gather = Array2::from_fn(60, 24, |r, c| ((r * 13 + c * 7) % 17) as f64 * 0.1 - 0.8);
        let target = vec![0.25; 8];
        let (_, grad) = model.loss_and_grad(&gather, &target).unwrap();

        let h = 1e-6;
        let base = model.params();
        for idx in [0usize, 100, 500, base.len() - 1] {
            let mut m2 = model.clone();
            let mut p = base.clone();
            p[idx] += h;
            m2.set_params(&p);
            let (plus, _) = m2.loss_and_grad(&gather, &target).unwrap();
            p[idx] -= 2.0 * h;
            m2.set_params(&p);
            let (minus, _) = m2.loss_and_grad(&gather, &target).unwrap();
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - grad[idx]).abs() < 1e-5 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs analytic {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn compressor_trains_on_tiny_task() {
        let cfg = CompressorConfig {
            input_h: 60,
            input_w: 36,
            out_features: 4,
        };
        let mut model = CnnCompressor::new(cfg, 8).unwrap();
        let gather = Array2::from_fn(60, 36, |r, c| ((r + c) % 5) as f64 * 0.2);
        let target = vec![1.0, -1.0, 0.5, 0.0];
        let mut params = model.params();
        let mut adam = Adam::new(params.len(), 0.01);
        let (initial, _) = model.loss_and_grad(&gather, &target).unwrap();
        for _ in 0..150 {
            let (_, grad) = model.loss_and_grad(&gather, &target).unwrap();
            adam.step(&mut params, &grad);
            model.set_params(&params);
        }
        let (fin, _) = model.loss_and_grad(&gather, &target).unwrap();
        assert!(fin < initial * 0.05, "loss {initial} -> {fin}");
    }
}
