use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::NnError;

/// A fully connected layer `y = W·x + b`.
///
/// Weights are stored row-major `[out][in]`, followed by one bias per
/// output in [`Linear::params`].
///
/// # Examples
///
/// ```
/// use qugeo_nn::layers::Linear;
///
/// # fn main() -> Result<(), qugeo_nn::NnError> {
/// let fc = Linear::new(4, 2, 7)?;
/// let y = fc.forward(&[1.0, 0.0, -1.0, 2.0])?;
/// assert_eq!(y.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
}

impl Linear {
    /// Creates a layer with Xavier-style random initialisation from a
    /// deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero feature counts.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidLayer {
                reason: format!("linear needs positive dims (in={in_features}, out={out_features})"),
            });
        }
        let scale = (1.0 / in_features as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..in_features * out_features)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Ok(Self {
            in_features,
            out_features,
            weights,
            bias: vec![0.0; out_features],
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Parameters flattened as `[weights..., bias...]`.
    pub fn params(&self) -> Vec<f64> {
        let mut p = self.weights.clone();
        p.extend_from_slice(&self.bias);
        p
    }

    /// Overwrites parameters from the flat layout of [`Linear::params`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `params.len() !=
    /// self.num_params()`; the layer is left unchanged.
    pub fn set_params(&mut self, params: &[f64]) -> Result<(), NnError> {
        if params.len() != self.num_params() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} linear parameters", self.num_params()),
                actual: format!("{}", params.len()),
            });
        }
        let (weights, bias) = params.split_at(self.weights.len());
        self.weights.copy_from_slice(weights);
        self.bias.copy_from_slice(bias);
        Ok(())
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.len() != in_features`.
    pub fn forward(&self, x: &[f64]) -> Result<Vec<f64>, NnError> {
        if x.len() != self.in_features {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} features", self.in_features),
                actual: format!("{}", x.len()),
            });
        }
        let n = self.in_features;
        let mut y = self.bias.clone();
        // Each output adds `Σ w·x` to its bias, the sum taken from -0.0 in
        // input order as `Iterator::sum` does. Four rows share one sweep
        // over `x`, so four independent sums are in flight at once.
        let mut quads = y.chunks_exact_mut(4);
        for (y4, w4) in (&mut quads).zip(self.weights.chunks_exact(4 * n)) {
            let (r0, rest) = w4.split_at(n);
            let (r1, rest) = rest.split_at(n);
            let (r2, r3) = rest.split_at(n);
            let mut acc = [-0.0; 4];
            for ((((&xi, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                acc[0] += w0 * xi;
                acc[1] += w1 * xi;
                acc[2] += w2 * xi;
                acc[3] += w3 * xi;
            }
            for (yo, a) in y4.iter_mut().zip(acc) {
                *yo += a;
            }
        }
        let rest = quads.into_remainder();
        let done = self.out_features - rest.len();
        for (yo, row) in rest
            .iter_mut()
            .zip(self.weights[done * n..].chunks_exact(n))
        {
            *yo += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>();
        }
        Ok(y)
    }

    /// Backward pass: returns `(grad_input, grad_params)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on input or gradient length
    /// mismatches.
    pub fn backward(&self, x: &[f64], grad_output: &[f64]) -> Result<(Vec<f64>, Vec<f64>), NnError> {
        if x.len() != self.in_features || grad_output.len() != self.out_features {
            return Err(NnError::ShapeMismatch {
                expected: format!("x {} / grad {}", self.in_features, self.out_features),
                actual: format!("x {} / grad {}", x.len(), grad_output.len()),
            });
        }
        let mut grad_input = vec![0.0; self.in_features];
        let mut grad_params = Vec::with_capacity(self.num_params());
        for (&g, row) in grad_output
            .iter()
            .zip(self.weights.chunks_exact(self.in_features))
        {
            grad_params.extend(x.iter().map(|&xi| g * xi));
            for (gi, &w) in grad_input.iter_mut().zip(row) {
                *gi += g * w;
            }
        }
        grad_params.extend_from_slice(grad_output); // dL/db = grad_output
        Ok((grad_input, grad_params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_dims() {
        assert!(Linear::new(0, 1, 0).is_err());
        assert!(Linear::new(1, 0, 0).is_err());
    }

    #[test]
    fn known_forward() {
        let mut fc = Linear::new(2, 2, 0).unwrap();
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        fc.set_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]).unwrap();
        let y = fc.forward(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn forward_rejects_wrong_len() {
        let fc = Linear::new(3, 1, 0).unwrap();
        assert!(fc.forward(&[1.0]).is_err());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let fc = Linear::new(5, 3, 11).unwrap();
        let x = [0.3, -0.7, 1.2, 0.0, -0.4];
        let y = fc.forward(&x).unwrap();
        let grad_out: Vec<f64> = y.iter().map(|v| 2.0 * v).collect(); // d(sum y²)
        let (gx, gp) = fc.backward(&x, &grad_out).unwrap();

        let loss = |fc: &Linear, x: &[f64]| -> f64 {
            fc.forward(x).unwrap().iter().map(|v| v * v).sum()
        };
        let h = 1e-6;
        // Parameter gradients.
        let base = fc.params();
        for idx in 0..fc.num_params() {
            let mut f2 = fc.clone();
            let mut p = base.clone();
            p[idx] += h;
            f2.set_params(&p).unwrap();
            let plus = loss(&f2, &x);
            p[idx] -= 2.0 * h;
            f2.set_params(&p).unwrap();
            let minus = loss(&f2, &x);
            let fd = (plus - minus) / (2.0 * h);
            assert!((fd - gp[idx]).abs() < 1e-5, "param {idx}");
        }
        // Input gradients.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += h;
            let plus = loss(&fc, &xp);
            xp[i] -= 2.0 * h;
            let minus = loss(&fc, &xp);
            let fd = (plus - minus) / (2.0 * h);
            assert!((fd - gx[i]).abs() < 1e-5, "input {i}");
        }
    }

    #[test]
    fn params_roundtrip() {
        let mut fc = Linear::new(3, 2, 5).unwrap();
        assert_eq!(fc.num_params(), 8);
        let p: Vec<f64> = (0..8).map(|i| i as f64).collect();
        fc.set_params(&p).unwrap();
        assert_eq!(fc.params(), p);
    }

    #[test]
    fn set_params_rejects_wrong_length_and_keeps_the_layer() {
        let mut fc = Linear::new(3, 2, 5).unwrap();
        let before = fc.clone();
        for len in [0, 7, 9] {
            let err = fc.set_params(&vec![1.0; len]).unwrap_err();
            assert!(matches!(err, NnError::ShapeMismatch { .. }), "{err}");
        }
        assert_eq!(fc, before);
    }
}
