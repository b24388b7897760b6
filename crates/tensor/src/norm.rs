//! Vector norms and normalisations.
//!
//! Loading classical data into quantum amplitudes requires the squared
//! magnitudes to sum to one ([`l2_normalized`]); the QuGeo paper's data
//! visualisation uses min–max scaling ([`min_max_scaled`]); and the CNN
//! pipelines standardise their inputs ([`standardized`]).

/// Euclidean (ℓ₂) norm of a vector.
///
/// # Examples
///
/// ```
/// use qugeo_tensor::norm::l2_norm;
///
/// assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
/// ```
pub fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Returns `v` scaled to unit Euclidean norm.
///
/// This is exactly the normalisation amplitude encoding imposes on
/// classical data: the sum of squared amplitudes of a quantum state must
/// equal one. A zero vector is returned unchanged (there is no valid
/// quantum state for it; callers should validate upstream).
///
/// # Examples
///
/// ```
/// use qugeo_tensor::norm::{l2_norm, l2_normalized};
///
/// let u = l2_normalized(&[1.0, 1.0, 1.0, 1.0]);
/// assert!((l2_norm(&u) - 1.0).abs() < 1e-12);
/// ```
pub fn l2_normalized(v: &[f64]) -> Vec<f64> {
    let n = l2_norm(v);
    if n == 0.0 {
        v.to_vec()
    } else {
        v.iter().map(|x| x / n).collect()
    }
}

/// Min–max scales `v` into `[0, 1]`. A constant vector maps to all zeros.
pub fn min_max_scaled(v: &[f64]) -> Vec<f64> {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    if span == 0.0 || !span.is_finite() {
        vec![0.0; v.len()]
    } else {
        v.iter().map(|x| (x - lo) / span).collect()
    }
}

/// Standardises `v` to zero mean and unit variance. A constant vector maps
/// to all zeros.
pub fn standardized(v: &[f64]) -> Vec<f64> {
    if v.is_empty() {
        return Vec::new();
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    let sd = var.sqrt();
    if sd == 0.0 {
        vec![0.0; v.len()]
    } else {
        v.iter().map(|x| (x - mean) / sd).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_norm_known_values() {
        assert_eq!(l2_norm(&[]), 0.0);
        assert_eq!(l2_norm(&[0.0, 0.0]), 0.0);
        assert!((l2_norm(&[1.0; 4]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn l2_normalized_unit_norm() {
        let v = vec![2.0, -3.0, 6.0];
        let u = l2_normalized(&v);
        assert!((l2_norm(&u) - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!(u[0] > 0.0 && u[1] < 0.0 && u[2] > 0.0);
    }

    #[test]
    fn l2_normalized_zero_vector_unchanged() {
        assert_eq!(l2_normalized(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn min_max_hits_bounds() {
        let s = min_max_scaled(&[2.0, 4.0, 6.0]);
        assert_eq!(s, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_constant_is_zero() {
        assert_eq!(min_max_scaled(&[5.0, 5.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn standardized_moments() {
        let s = standardized(&[1.0, 2.0, 3.0, 4.0]);
        let mean = s.iter().sum::<f64>() / 4.0;
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardized_degenerate_cases() {
        assert!(standardized(&[]).is_empty());
        assert_eq!(standardized(&[3.0, 3.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
