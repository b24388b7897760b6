//! Resampling of 2-D arrays.
//!
//! The QuGeo paper's baseline data-scaling approach ("D-Sample") is plain
//! nearest-neighbour resampling of the raw seismic waveform and velocity
//! map. This module provides that baseline plus bilinear resampling used by
//! the physics-guided pipeline when downscaling velocity maps.

use crate::Array2;

/// Nearest-neighbour resampling of a 2-D array to a new shape.
///
/// This is the "D-Sample" baseline of the QuGeo paper: each output pixel
/// takes the value of the input pixel whose (fractional) coordinates are
/// closest. Upsampling and downsampling are both supported.
///
/// # Panics
///
/// Panics if `new_rows == 0`, `new_cols == 0` or `input` is empty.
///
/// # Examples
///
/// ```
/// use qugeo_tensor::{Array2, resample};
///
/// let a = Array2::from_fn(4, 4, |r, _| r as f64);
/// let down = resample::nearest2(&a, 2, 2);
/// assert_eq!(down.shape(), (2, 2));
/// ```
pub fn nearest2(input: &Array2, new_rows: usize, new_cols: usize) -> Array2 {
    assert!(
        new_rows > 0 && new_cols > 0 && !input.is_empty(),
        "nearest2 requires non-empty input and output"
    );
    let (rows, cols) = input.shape();
    Array2::from_fn(new_rows, new_cols, |r, c| {
        let src_r = src_index(r, new_rows, rows);
        let src_c = src_index(c, new_cols, cols);
        input[(src_r, src_c)]
    })
}

/// Bilinear resampling of a 2-D array to a new shape.
///
/// Output pixel centres are mapped onto the input grid and the four
/// surrounding input values are blended. Smoother than [`nearest2`] and
/// used when downscaling velocity maps before physics-guided forward
/// modelling.
///
/// # Panics
///
/// Panics if `new_rows == 0`, `new_cols == 0` or `input` is empty.
pub fn bilinear2(input: &Array2, new_rows: usize, new_cols: usize) -> Array2 {
    assert!(
        new_rows > 0 && new_cols > 0 && !input.is_empty(),
        "bilinear2 requires non-empty input and output"
    );
    let (rows, cols) = input.shape();
    Array2::from_fn(new_rows, new_cols, |r, c| {
        let fr = src_coord(r, new_rows, rows);
        let fc = src_coord(c, new_cols, cols);
        let r0 = fr.floor() as usize;
        let c0 = fc.floor() as usize;
        let r1 = (r0 + 1).min(rows - 1);
        let c1 = (c0 + 1).min(cols - 1);
        let tr = fr - r0 as f64;
        let tc = fc - c0 as f64;
        let top = input[(r0, c0)] * (1.0 - tc) + input[(r0, c1)] * tc;
        let bot = input[(r1, c0)] * (1.0 - tc) + input[(r1, c1)] * tc;
        top * (1.0 - tr) + bot * tr
    })
}

/// Maps output index `i` of `new_len` onto a source index of `old_len`
/// using pixel-centre alignment (the scikit-image convention used by
/// OpenFWI preprocessing).
fn src_index(i: usize, new_len: usize, old_len: usize) -> usize {
    let f = src_coord(i, new_len, old_len);
    (f.round() as usize).min(old_len - 1)
}

fn src_coord(i: usize, new_len: usize, old_len: usize) -> f64 {
    if new_len == 1 {
        return (old_len as f64 - 1.0) / 2.0;
    }
    // Align pixel centres: out centre (i + 0.5)/new maps to in coordinate.
    ((i as f64 + 0.5) * old_len as f64 / new_len as f64 - 0.5).clamp(0.0, old_len as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest2_identity() {
        let a = Array2::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(nearest2(&a, 3, 3), a);
    }

    #[test]
    fn nearest2_constant_preserved() {
        let a = Array2::filled(7, 11, 4.25);
        let d = nearest2(&a, 3, 5);
        assert!(d.iter().all(|&v| v == 4.25));
    }

    #[test]
    fn bilinear2_constant_preserved() {
        let a = Array2::filled(7, 11, -2.5);
        let d = bilinear2(&a, 4, 6);
        assert!(d.iter().all(|&v| (v + 2.5).abs() < 1e-12));
    }

    #[test]
    fn bilinear2_monotone_gradient() {
        let a = Array2::from_fn(8, 8, |r, _| r as f64);
        let d = bilinear2(&a, 4, 4);
        for c in 0..4 {
            let col = d.column(c);
            assert!(col.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn bilinear2_within_input_range() {
        let a = Array2::from_fn(5, 5, |r, c| ((r * 7 + c * 3) % 11) as f64);
        let d = bilinear2(&a, 9, 9);
        let (lo, hi) = (a.min(), a.max());
        assert!(d.iter().all(|&v| v >= lo - 1e-12 && v <= hi + 1e-12));
    }

    #[test]
    fn single_output_uses_centre() {
        let a = Array2::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(nearest2(&a, 1, 1)[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_target_panics() {
        let _ = nearest2(&Array2::filled(1, 1, 1.0), 0, 1);
    }
}
