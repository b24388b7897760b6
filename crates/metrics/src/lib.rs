//! Image-quality metrics for velocity-map evaluation.
//!
//! The QuGeo paper reports two metrics between predicted and ground-truth
//! velocity maps: the Structural Similarity Index ([`ssim`]) and the mean
//! squared error ([`mse`]). Both operate on [`Array2`] values; SSIM
//! follows the Wang et al. (2004) formulation with a sliding uniform
//! window and the standard `K₁ = 0.01`, `K₂ = 0.03` stabilisers, matching
//! the scikit-image defaults OpenFWI evaluations use.
//!
//! # Examples
//!
//! ```
//! use qugeo_tensor::Array2;
//! use qugeo_metrics::{mse, ssim};
//!
//! let a = Array2::from_fn(8, 8, |r, c| (r + c) as f64);
//! assert_eq!(mse(&a, &a).unwrap(), 0.0);
//! assert!((ssim(&a, &a).unwrap() - 1.0).abs() < 1e-12);
//! ```

use qugeo_tensor::{Array2, ShapeError};

/// Mean squared error between two same-shape arrays.
///
/// # Errors
///
/// Returns [`ShapeError`] if the shapes differ or the arrays are empty.
pub fn mse(a: &Array2, b: &Array2) -> Result<f64, ShapeError> {
    if a.shape() != b.shape() || a.is_empty() {
        return Err(ShapeError::new(
            vec![a.rows(), a.cols()],
            vec![b.rows(), b.cols()],
            "mse",
        ));
    }
    let sum: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    Ok(sum / a.len() as f64)
}

/// Options for [`ssim_with`]: window size and stabiliser constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimOptions {
    /// Side length of the sliding window (odd; clamped to image size).
    pub window: usize,
    /// Luminance stabiliser `K₁`.
    pub k1: f64,
    /// Contrast stabiliser `K₂`.
    pub k2: f64,
    /// Dynamic range `L`; `None` derives it from the data (max − min over
    /// both images), which is how scikit-image treats float images.
    pub data_range: Option<f64>,
}

impl Default for SsimOptions {
    fn default() -> Self {
        Self {
            window: 7,
            k1: 0.01,
            k2: 0.03,
            data_range: None,
        }
    }
}

/// Structural similarity with default options (7×7 uniform window).
///
/// Returns a value in `[-1, 1]`; 1.0 means identical images.
///
/// # Errors
///
/// Returns [`ShapeError`] if the shapes differ or the arrays are empty.
pub fn ssim(a: &Array2, b: &Array2) -> Result<f64, ShapeError> {
    ssim_with(a, b, SsimOptions::default())
}

/// Structural similarity with explicit options.
///
/// The mean SSIM over all window positions is returned. For images
/// smaller than the window, the window shrinks to the image.
///
/// # Errors
///
/// Returns [`ShapeError`] if the shapes differ or the arrays are empty.
pub fn ssim_with(a: &Array2, b: &Array2, opts: SsimOptions) -> Result<f64, ShapeError> {
    if a.shape() != b.shape() || a.is_empty() {
        return Err(ShapeError::new(
            vec![a.rows(), a.cols()],
            vec![b.rows(), b.cols()],
            "ssim",
        ));
    }
    let (rows, cols) = a.shape();
    let win = opts.window.max(1).min(rows).min(cols);

    let range = match opts.data_range {
        Some(r) => r,
        None => {
            let hi = a.max().max(b.max());
            let lo = a.min().min(b.min());
            hi - lo
        }
    };
    // Constant images with no range: SSIM is 1 when identical, else
    // judged on the difference via a tiny stabiliser.
    let range = if range > 0.0 { range } else { 1e-12 };
    let c1 = (opts.k1 * range) * (opts.k1 * range);
    let c2 = (opts.k2 * range) * (opts.k2 * range);

    let n = (win * win) as f64;
    let mut total = 0.0;
    let mut count = 0usize;
    for r0 in 0..=(rows - win) {
        for c0 in 0..=(cols - win) {
            let mut sa = 0.0;
            let mut sb = 0.0;
            let mut saa = 0.0;
            let mut sbb = 0.0;
            let mut sab = 0.0;
            for r in r0..r0 + win {
                for c in c0..c0 + win {
                    let x = a[(r, c)];
                    let y = b[(r, c)];
                    sa += x;
                    sb += y;
                    saa += x * x;
                    sbb += y * y;
                    sab += x * y;
                }
            }
            let mu_a = sa / n;
            let mu_b = sb / n;
            // Sample (unbiased) variance/covariance, as scikit-image uses.
            let denom = (n - 1.0).max(1.0);
            let var_a = (saa - n * mu_a * mu_a) / denom;
            let var_b = (sbb - n * mu_b * mu_b) / denom;
            let cov = (sab - n * mu_a * mu_b) / denom;

            let num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
            let den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2);
            total += num / den;
            count += 1;
        }
    }
    Ok(total / count as f64)
}

/// SSIM between two 1-D profiles (treated as single-row images with a 1-D
/// sliding window). Used for the paper's vertical-velocity-profile
/// comparisons (Figures 7 and 9).
///
/// # Errors
///
/// Returns [`ShapeError`] if lengths differ or the profiles are empty.
pub fn profile_ssim(a: &[f64], b: &[f64]) -> Result<f64, ShapeError> {
    if a.len() != b.len() || a.is_empty() {
        return Err(ShapeError::new(vec![a.len()], vec![b.len()], "profile_ssim"));
    }
    let ia = Array2::from_vec(1, a.len(), a.to_vec())?;
    let ib = Array2::from_vec(1, b.len(), b.to_vec())?;
    ssim_with(
        &ia,
        &ib,
        SsimOptions {
            window: 7.min(a.len()),
            ..SsimOptions::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image() -> Array2 {
        Array2::from_fn(16, 16, |r, c| (r * 2 + c) as f64)
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let a = gradient_image();
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Array2::filled(2, 2, 1.0);
        let b = Array2::filled(2, 2, 3.0);
        assert_eq!(mse(&a, &b).unwrap(), 4.0);
    }

    #[test]
    fn mse_shape_mismatch() {
        let a = Array2::zeros(2, 2);
        let b = Array2::zeros(2, 3);
        assert!(mse(&a, &b).is_err());
        assert!(ssim(&a, &b).is_err());
        assert!(mse(&Array2::zeros(0, 0), &Array2::zeros(0, 0)).is_err());
    }

    #[test]
    fn ssim_identical_is_one() {
        let a = gradient_image();
        assert!((ssim(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ssim_bounded() {
        let a = gradient_image();
        let b = a.map(|v| 30.0 - v * 0.5);
        let s = ssim(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn ssim_decreases_with_noise() {
        let a = gradient_image();
        let slight = a.map(|v| v + ((v as usize * 7919) % 3) as f64 * 0.3);
        let heavy = a.map(|v| v + ((v as usize * 7919) % 13) as f64 * 3.0);
        let s_slight = ssim(&a, &slight).unwrap();
        let s_heavy = ssim(&a, &heavy).unwrap();
        assert!(s_slight > s_heavy, "{s_slight} should exceed {s_heavy}");
        assert!(s_slight < 1.0);
    }

    #[test]
    fn ssim_symmetric() {
        let a = gradient_image();
        let b = a.map(|v| v * 1.1 + 2.0);
        let ab = ssim(&a, &b).unwrap();
        let ba = ssim(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn ssim_penalises_mean_shift_less_than_structure_loss() {
        let a = gradient_image();
        let shifted = a.map(|v| v + 1.0);
        let scrambled = Array2::from_fn(16, 16, |r, c| (((r * 31 + c * 17) % 32) * 2) as f64);
        assert!(ssim(&a, &shifted).unwrap() > ssim(&a, &scrambled).unwrap());
    }

    #[test]
    fn ssim_constant_images() {
        let a = Array2::filled(8, 8, 5.0);
        assert!((ssim(&a, &a).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_small_image_shrinks_window() {
        let a = Array2::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert!((ssim(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ssim_with_explicit_range() {
        let a = gradient_image();
        let b = a.map(|v| v + 0.5);
        let auto = ssim(&a, &b).unwrap();
        let fixed = ssim_with(
            &a,
            &b,
            SsimOptions {
                data_range: Some(45.5), // max(a,b) − min(a,b) computed by hand
                ..SsimOptions::default()
            },
        )
        .unwrap();
        assert!((auto - fixed).abs() < 1e-9);
    }

    #[test]
    fn profile_ssim_identical() {
        let p: Vec<f64> = (0..16).map(|i| 1500.0 + 100.0 * i as f64).collect();
        assert!((profile_ssim(&p, &p).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_ssim_detects_missing_interface() {
        // A stepped profile vs a smoothed one: lower similarity than the
        // stepped profile with slight noise.
        let steps: Vec<f64> = (0..32)
            .map(|i| if i < 16 { 1500.0 } else { 3000.0 })
            .collect();
        let noisy: Vec<f64> = steps.iter().map(|v| v + 10.0).collect();
        let smooth: Vec<f64> = (0..32)
            .map(|i| 1500.0 + 1500.0 * (i as f64 / 31.0))
            .collect();
        let s_noisy = profile_ssim(&steps, &noisy).unwrap();
        let s_smooth = profile_ssim(&steps, &smooth).unwrap();
        assert!(s_noisy > s_smooth);
    }

    #[test]
    fn profile_ssim_validates() {
        assert!(profile_ssim(&[1.0], &[1.0, 2.0]).is_err());
        assert!(profile_ssim(&[], &[]).is_err());
    }
}
