use std::ops::{Index, IndexMut};

use serde::{Deserialize, Deserializer, Serialize, SerializeStruct, Serializer};

use crate::{Array2, ShapeError};

/// A 3-D array of `f64` stored in `(d0, d1, d2)` row-major order.
///
/// In the QuGeo workspace an `Array3` typically holds a multi-source seismic
/// cube indexed as `(source, time_step, receiver)` — the OpenFWI layout
/// `5 × 1000 × 70`.
///
/// # Examples
///
/// ```
/// use qugeo_tensor::Array3;
///
/// let mut cube = Array3::zeros(2, 3, 4);
/// cube[(1, 2, 3)] = 7.0;
/// assert_eq!(cube.slice(1)[(2, 3)], 7.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Array3 {
    d0: usize,
    d1: usize,
    d2: usize,
    data: Vec<f64>,
}

// Hand-written (the vendored serde shim has no derive macros); field order
// is the wire format.
impl Serialize for Array3 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Array3", 4)?;
        s.serialize_field("d0", &self.d0)?;
        s.serialize_field("d1", &self.d1)?;
        s.serialize_field("d2", &self.d2)?;
        s.serialize_field("data", &self.data)?;
        s.end()
    }
}

impl Deserialize for Array3 {
    fn deserialize<D: Deserializer>(deserializer: &mut D) -> Result<Self, D::Error> {
        deserializer.begin_struct("Array3")?;
        deserializer.field("d0")?;
        let d0 = usize::deserialize(deserializer)?;
        deserializer.field("d1")?;
        let d1 = usize::deserialize(deserializer)?;
        deserializer.field("d2")?;
        let d2 = usize::deserialize(deserializer)?;
        deserializer.field("data")?;
        let data = Vec::<f64>::deserialize(deserializer)?;
        deserializer.end_struct()?;
        if data.len() != d0 * d1 * d2 {
            return Err(deserializer.invalid(&format!(
                "Array3 {d0}x{d1}x{d2} needs {} values, got {}",
                d0 * d1 * d2,
                data.len()
            )));
        }
        Ok(Self { d0, d1, d2, data })
    }
}

impl Array3 {
    /// Creates a `d0 × d1 × d2` array of zeros.
    pub fn zeros(d0: usize, d1: usize, d2: usize) -> Self {
        Self {
            d0,
            d1,
            d2,
            data: vec![0.0; d0 * d1 * d2],
        }
    }

    /// Creates an array from a flat vector in `(d0, d1, d2)` order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != d0 * d1 * d2`.
    pub fn from_vec(d0: usize, d1: usize, d2: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != d0 * d1 * d2 {
            return Err(ShapeError::new(
                vec![d0, d1, d2],
                vec![data.len()],
                "Array3::from_vec",
            ));
        }
        Ok(Self { d0, d1, d2, data })
    }

    /// Builds an array by evaluating `f(i, j, k)` for every element.
    pub fn from_fn(
        d0: usize,
        d1: usize,
        d2: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(d0 * d1 * d2);
        for i in 0..d0 {
            for j in 0..d1 {
                for k in 0..d2 {
                    data.push(f(i, j, k));
                }
            }
        }
        Self { d0, d1, d2, data }
    }

    /// Stacks 2-D slices along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the slices do not all share one shape or if
    /// `slices` is empty.
    pub fn from_slices(slices: &[Array2]) -> Result<Self, ShapeError> {
        let first = slices
            .first()
            .ok_or_else(|| ShapeError::new(vec![1], vec![0], "Array3::from_slices"))?;
        let (d1, d2) = first.shape();
        let mut data = Vec::with_capacity(slices.len() * d1 * d2);
        for s in slices {
            if s.shape() != (d1, d2) {
                return Err(ShapeError::new(
                    vec![d1, d2],
                    vec![s.rows(), s.cols()],
                    "Array3::from_slices",
                ));
            }
            data.extend_from_slice(s.as_slice());
        }
        Ok(Self {
            d0: slices.len(),
            d1,
            d2,
            data,
        })
    }

    /// Shape as a `(d0, d1, d2)` triple.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.d0, self.d1, self.d2)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat view of the data in `(d0, d1, d2)` order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the array, returning the flat data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows slice `i` (shape `d1 × d2`) as a flat row-major view,
    /// without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= d0`.
    pub fn plane(&self, i: usize) -> &[f64] {
        assert!(i < self.d0, "slice {i} out of bounds ({})", self.d0);
        let plane = self.d1 * self.d2;
        &self.data[i * plane..(i + 1) * plane]
    }

    /// Copies slice `i` (shape `d1 × d2`) out as an [`Array2`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= d0`.
    #[allow(clippy::expect_used, reason = "a plane holds exactly d1 × d2 values")]
    pub fn slice(&self, i: usize) -> Array2 {
        Array2::from_vec(self.d1, self.d2, self.plane(i).to_vec())
            .expect("internal slice length always matches")
    }

    /// Replaces slice `i` with the contents of `slice`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `slice` is not `d1 × d2` or `i >= d0`.
    pub fn set_slice(&mut self, i: usize, slice: &Array2) -> Result<(), ShapeError> {
        if i >= self.d0 || slice.shape() != (self.d1, self.d2) {
            return Err(ShapeError::new(
                vec![self.d0, self.d1, self.d2],
                vec![i, slice.rows(), slice.cols()],
                "Array3::set_slice",
            ));
        }
        let plane = self.d1 * self.d2;
        self.data[i * plane..(i + 1) * plane].copy_from_slice(slice.as_slice());
        Ok(())
    }

    /// Checked element access; `None` when out of bounds.
    pub fn get(&self, i: usize, j: usize, k: usize) -> Option<f64> {
        if i < self.d0 && j < self.d1 && k < self.d2 {
            Some(self.data[(i * self.d1 + j) * self.d2 + k])
        } else {
            None
        }
    }

    /// Iterator over all elements in `(d0, d1, d2)` order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Applies `f` element-wise, returning a new array.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Self {
        Self {
            d0: self.d0,
            d1: self.d1,
            d2: self.d2,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Minimum element (`f64::INFINITY` when empty).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum element (`f64::NEG_INFINITY` when empty).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Largest absolute element value (0.0 when empty).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

impl Default for Array3 {
    fn default() -> Self {
        Self::zeros(0, 0, 0)
    }
}

impl Index<(usize, usize, usize)> for Array3 {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &f64 {
        assert!(
            i < self.d0 && j < self.d1 && k < self.d2,
            "index ({i}, {j}, {k}) out of bounds for {}x{}x{}",
            self.d0,
            self.d1,
            self.d2
        );
        &self.data[(i * self.d1 + j) * self.d2 + k]
    }
}

impl IndexMut<(usize, usize, usize)> for Array3 {
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut f64 {
        assert!(
            i < self.d0 && j < self.d1 && k < self.d2,
            "index ({i}, {j}, {k}) out of bounds for {}x{}x{}",
            self.d0,
            self.d1,
            self.d2
        );
        &mut self.data[(i * self.d1 + j) * self.d2 + k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let a = Array3::zeros(2, 3, 4);
        assert_eq!(a.shape(), (2, 3, 4));
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Array3::from_vec(2, 2, 2, vec![0.0; 7]).is_err());
        assert!(Array3::from_vec(2, 2, 2, vec![0.0; 8]).is_ok());
    }

    #[test]
    fn indexing_layout_matches_from_fn() {
        let a = Array3::from_fn(2, 3, 4, |i, j, k| (i * 100 + j * 10 + k) as f64);
        assert_eq!(a[(1, 2, 3)], 123.0);
        assert_eq!(a[(0, 0, 1)], 1.0);
        assert_eq!(a.get(1, 2, 3), Some(123.0));
        assert_eq!(a.get(2, 0, 0), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn plane_out_of_bounds_panics() {
        let _ = Array3::zeros(2, 1, 1).plane(2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Array3::zeros(1, 1, 1);
        let _ = a[(0, 0, 1)];
    }

    #[test]
    fn slice_round_trip() {
        let a = Array3::from_fn(3, 2, 2, |i, j, k| (i * 4 + j * 2 + k) as f64);
        let s1 = a.slice(1);
        assert_eq!(s1.as_slice(), &[4.0, 5.0, 6.0, 7.0]);

        assert_eq!(a.plane(1), s1.as_slice());
        assert_eq!(a.plane(2), &[8.0, 9.0, 10.0, 11.0]);

        let mut b = Array3::zeros(3, 2, 2);
        b.set_slice(1, &s1).unwrap();
        assert_eq!(b[(1, 1, 1)], 7.0);
        assert_eq!(b[(0, 0, 0)], 0.0);
    }

    #[test]
    fn set_slice_validates() {
        let mut a = Array3::zeros(2, 2, 2);
        let wrong = Array2::zeros(3, 2);
        assert!(a.set_slice(0, &wrong).is_err());
        assert!(a.set_slice(2, &Array2::zeros(2, 2)).is_err());
    }

    #[test]
    fn from_slices_stacks() {
        let s0 = Array2::filled(2, 2, 1.0);
        let s1 = Array2::filled(2, 2, 2.0);
        let a = Array3::from_slices(&[s0, s1]).unwrap();
        assert_eq!(a.shape(), (2, 2, 2));
        assert_eq!(a[(1, 0, 0)], 2.0);
    }

    #[test]
    fn from_slices_rejects_mismatch_and_empty() {
        let s0 = Array2::zeros(2, 2);
        let s1 = Array2::zeros(2, 3);
        assert!(Array3::from_slices(&[s0, s1]).is_err());
        assert!(Array3::from_slices(&[]).is_err());
    }

    #[test]
    fn extrema() {
        let a = Array3::from_fn(1, 1, 4, |_, _, k| k as f64 - 2.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.max(), 1.0);
        assert_eq!(a.max_abs(), 2.0);
    }

    #[test]
    fn map_applies_everywhere() {
        let a = Array3::from_fn(2, 2, 2, |_, _, _| 2.0);
        let m = a.map(|v| v * v);
        assert!(m.iter().all(|&v| v == 4.0));
    }
}
