use qugeo_tensor::Array3;

/// Global average pooling: collapses each channel's spatial map to its
/// mean, producing one feature per channel.
///
/// Used by the compact CNN baselines to keep parameter counts at the
/// quantum model's level (Table 2 pins all models near 600 parameters).
///
/// # Examples
///
/// ```
/// use qugeo_nn::layers::GlobalAvgPool;
/// use qugeo_tensor::Array3;
///
/// let x = Array3::from_fn(2, 2, 2, |c, _, _| c as f64);
/// assert_eq!(GlobalAvgPool.forward(&x), vec![0.0, 1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Forward pass: per-channel spatial mean.
    pub fn forward(&self, x: &Array3) -> Vec<f64> {
        let (ch, h, w) = x.shape();
        let plane = h * w;
        let n = plane as f64;
        (0..ch)
            .map(|c| {
                x.as_slice()[c * plane..(c + 1) * plane]
                    .iter()
                    .fold(0.0, |acc, v| acc + v)
                    / n
            })
            .collect()
    }

    /// Backward pass: spreads each channel's gradient uniformly over its
    /// spatial positions.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output.len()` differs from the channel count.
    pub fn backward(&self, x: &Array3, grad_output: &[f64]) -> Array3 {
        let (ch, h, w) = x.shape();
        assert_eq!(grad_output.len(), ch, "one gradient per channel");
        let plane = h * w;
        let n = plane as f64;
        let mut grad = Array3::zeros(ch, h, w);
        for (c, &g) in grad_output.iter().enumerate() {
            grad.as_mut_slice()[c * plane..(c + 1) * plane].fill(g / n);
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_takes_channel_means() {
        let x = Array3::from_fn(2, 2, 2, |c, i, j| (c * 4 + i * 2 + j) as f64);
        let y = GlobalAvgPool.forward(&x);
        assert_eq!(y, vec![1.5, 5.5]);
    }

    #[test]
    fn backward_distributes_uniformly() {
        let x = Array3::zeros(1, 2, 2);
        let gx = GlobalAvgPool.backward(&x, &[8.0]);
        assert!(gx.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let x = Array3::from_fn(2, 3, 3, |c, i, j| (c + i + j) as f64 * 0.5);
        // Loss = sum of squares of pooled outputs.
        let y = GlobalAvgPool.forward(&x);
        let grad_out: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
        let gx = GlobalAvgPool.backward(&x, &grad_out);

        let h = 1e-6;
        let loss = |x: &Array3| -> f64 {
            GlobalAvgPool.forward(x).iter().map(|v| v * v).sum()
        };
        let mut xp = x.clone();
        xp[(1, 2, 0)] += h;
        let plus = loss(&xp);
        xp[(1, 2, 0)] -= 2.0 * h;
        let minus = loss(&xp);
        let fd = (plus - minus) / (2.0 * h);
        assert!((fd - gx[(1, 2, 0)]).abs() < 1e-6);
    }
}
