use qugeo_tensor::Array3;

/// Rectified linear unit, `y = max(0, x)`, applied element-wise.
///
/// Stateless; provided as a type so architectures read declaratively.
///
/// # Examples
///
/// ```
/// use qugeo_nn::layers::Relu;
///
/// assert_eq!(Relu.forward_vec(&[-1.0, 2.0]), vec![0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Relu;

impl Relu {
    /// Forward pass over a feature map.
    pub fn forward(&self, x: &Array3) -> Array3 {
        x.map(|v| v.max(0.0))
    }

    /// Backward pass over a feature map: gradient flows where the input
    /// was positive.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn backward(&self, x: &Array3, grad_output: &Array3) -> Array3 {
        assert_eq!(x.shape(), grad_output.shape(), "relu shapes must match");
        let mut grad = grad_output.clone();
        for (g, &xi) in grad.as_mut_slice().iter_mut().zip(x.iter()) {
            *g = if xi > 0.0 { *g } else { 0.0 };
        }
        grad
    }

    /// Forward pass over a flat vector.
    pub fn forward_vec(&self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|v| v.max(0.0)).collect()
    }

    /// Backward pass over a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn backward_vec(&self, x: &[f64], grad_output: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), grad_output.len(), "relu lengths must match");
        x.iter()
            .zip(grad_output)
            .map(|(&xi, &g)| if xi > 0.0 { g } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let x = Array3::from_fn(1, 2, 2, |_, i, j| (i as f64 + j as f64) - 1.0);
        let y = Relu.forward(&x);
        assert_eq!(y[(0, 0, 0)], 0.0); // was -1
        assert_eq!(y[(0, 1, 1)], 1.0);
    }

    #[test]
    fn backward_masks_gradient() {
        let x = Array3::from_fn(1, 1, 4, |_, _, k| k as f64 - 2.0); // [-2,-1,0,1]
        let g = Array3::from_fn(1, 1, 4, |_, _, _| 5.0);
        let gx = Relu.backward(&x, &g);
        assert_eq!(gx.as_slice(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // The subgradient at exactly zero is taken as 0 (PyTorch uses 0
        // there too for x <= 0).
        let gx = Relu.backward_vec(&[0.0], &[3.0]);
        assert_eq!(gx, vec![0.0]);
    }

    #[test]
    fn vec_variants_match_map_variants() {
        let vals = [-1.5, 0.0, 0.5, 2.0];
        let x = Array3::from_vec(1, 1, 4, vals.to_vec()).unwrap();
        assert_eq!(Relu.forward(&x).as_slice(), Relu.forward_vec(&vals).as_slice());
    }
}
