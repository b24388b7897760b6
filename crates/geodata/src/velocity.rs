use qugeo_tensor::Array2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::GeodataError;

/// Smallest layer velocity in m/s (FlatVelA's range floor).
pub const VELOCITY_MIN: f64 = 1500.0;
/// Largest layer velocity in m/s (FlatVelA's range ceiling).
pub const VELOCITY_MAX: f64 = 4000.0;

/// A flat-layered subsurface velocity model.
///
/// Wraps the `nz × nx` velocity map together with the layer geometry it
/// was built from, so experiments can compare predicted interfaces against
/// the true ones (the paper's Figures 7 and 9 count interface hits).
#[derive(Debug, Clone, PartialEq)]
pub struct VelocityModel {
    map: Array2,
    /// Depth index where each layer starts (first is always 0).
    layer_tops: Vec<usize>,
    /// Velocity of each layer in m/s.
    layer_velocities: Vec<f64>,
}

/// Rejects an `nz × nx` map of `f64` that would not fit in `isize::MAX`
/// bytes, the largest allocation Rust can make.
fn check_map_fits(nz: usize, nx: usize) -> Result<(), GeodataError> {
    let max_cells = isize::MAX as usize / std::mem::size_of::<f64>();
    if nz.checked_mul(nx).is_none_or(|cells| cells > max_cells) {
        return Err(GeodataError::InvalidConfig {
            reason: format!("a {nz} x {nx} velocity map exceeds the address space"),
        });
    }
    Ok(())
}

impl VelocityModel {
    /// Builds a model from explicit layer tops and velocities.
    ///
    /// # Errors
    ///
    /// Returns [`GeodataError::InvalidConfig`] if the vectors are empty,
    /// differ in length, tops are not strictly increasing from 0, any
    /// top reaches past `nz`, or an `nz × nx` map of `f64` would not fit
    /// in `isize::MAX` bytes.
    pub fn from_layers(
        nz: usize,
        nx: usize,
        layer_tops: Vec<usize>,
        layer_velocities: Vec<f64>,
    ) -> Result<Self, GeodataError> {
        if layer_tops.is_empty()
            || layer_tops.len() != layer_velocities.len()
            || layer_tops[0] != 0
        {
            return Err(GeodataError::InvalidConfig {
                reason: "layers must be non-empty, equal-length, starting at depth 0".into(),
            });
        }
        for w in layer_tops.windows(2) {
            if w[1] <= w[0] {
                return Err(GeodataError::InvalidConfig {
                    reason: "layer tops must be strictly increasing".into(),
                });
            }
        }
        if layer_tops.last().is_some_and(|&top| top >= nz) {
            return Err(GeodataError::InvalidConfig {
                reason: "layer top beyond model depth".into(),
            });
        }
        check_map_fits(nz, nx)?;
        // The first top is 0, so every depth lies in some layer.
        let map = Array2::from_fn(nz, nx, |z, _| {
            let layer = layer_tops.iter().rposition(|&top| z >= top).unwrap_or(0);
            layer_velocities[layer]
        });
        Ok(Self {
            map,
            layer_tops,
            layer_velocities,
        })
    }

    /// The `nz × nx` velocity map in m/s.
    pub fn map(&self) -> &Array2 {
        &self.map
    }

    /// Consumes the model, returning the velocity map.
    pub fn into_map(self) -> Array2 {
        self.map
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layer_tops.len()
    }

    /// Depth indices where layers start (first is 0).
    pub fn layer_tops(&self) -> &[usize] {
        &self.layer_tops
    }

    /// Layer velocities in m/s, top to bottom.
    pub fn layer_velocities(&self) -> &[f64] {
        &self.layer_velocities
    }

    /// The depth indices of layer interfaces (excluding the surface).
    pub fn interfaces(&self) -> &[usize] {
        &self.layer_tops[1..]
    }

    /// Vertical velocity profile at horizontal cell `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of range.
    pub fn profile_at(&self, ix: usize) -> Vec<f64> {
        self.map.column(ix)
    }
}

/// Random generator of FlatVelA-style velocity models.
///
/// Each sample draws a layer count in `[2, 5]`, random strictly
/// increasing layer tops, and layer velocities increasing with depth
/// within `[`[`VELOCITY_MIN`]`, `[`VELOCITY_MAX`]`]` — the construction
/// OpenFWI's FlatVel family uses.
///
/// # Examples
///
/// ```
/// use qugeo_geodata::FlatLayerGenerator;
///
/// # fn main() -> Result<(), qugeo_geodata::GeodataError> {
/// let generator = FlatLayerGenerator::new(70, 70)?;
/// let a = generator.sample(1);
/// let b = generator.sample(1);
/// assert_eq!(a.map(), b.map()); // seed-deterministic
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatLayerGenerator {
    nz: usize,
    nx: usize,
    min_layers: usize,
    max_layers: usize,
}

impl FlatLayerGenerator {
    /// Creates a generator for `nz × nx` maps with 2–5 layers.
    ///
    /// # Errors
    ///
    /// Returns [`GeodataError::InvalidConfig`] for dimensions too small to
    /// hold the maximum layer count.
    pub fn new(nz: usize, nx: usize) -> Result<Self, GeodataError> {
        Self::with_layer_range(nz, nx, 2, 5)
    }

    /// Creates a generator with an explicit layer-count range.
    ///
    /// # Errors
    ///
    /// Returns [`GeodataError::InvalidConfig`] if the range is empty,
    /// starts below 1, `nz` cannot fit `max_layers` distinct tops, or an
    /// `nz × nx` map of `f64` would not fit in `isize::MAX` bytes.
    pub fn with_layer_range(
        nz: usize,
        nx: usize,
        min_layers: usize,
        max_layers: usize,
    ) -> Result<Self, GeodataError> {
        if nx == 0 || nz == 0 || min_layers < 1 || min_layers > max_layers || nz < max_layers * 2 {
            return Err(GeodataError::InvalidConfig {
                reason: format!(
                    "cannot fit {min_layers}..={max_layers} layers in a {nz}x{nx} model"
                ),
            });
        }
        check_map_fits(nz, nx)?;
        Ok(Self {
            nz,
            nx,
            min_layers,
            max_layers,
        })
    }

    /// Map height (depth cells).
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Map width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Draws the model for `seed`. The same seed always produces the same
    /// model.
    #[allow(
        clippy::expect_used,
        reason = "the constructor checked the map size; the tops drawn are strictly increasing from 0 and below nz"
    )]
    pub fn sample(&self, seed: u64) -> VelocityModel {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let num_layers = rng.gen_range(self.min_layers..=self.max_layers);

        // Strictly increasing tops: first at 0, the rest drawn from the
        // remaining depth with a minimum thickness of 2 cells.
        let mut tops = vec![0usize];
        let min_thickness = 2usize;
        let available = self.nz - min_thickness; // last layer needs room too
        let mut candidates: Vec<usize> = (min_thickness..available).collect();
        for _ in 1..num_layers {
            if candidates.is_empty() {
                break;
            }
            let pick = candidates[rng.gen_range(0..candidates.len())];
            tops.push(pick);
            candidates.retain(|&c| c.abs_diff(pick) >= min_thickness);
        }
        tops.sort_unstable();

        // Velocities increase with depth (compaction), uniformly spread
        // with jitter across the FlatVelA range.
        let n = tops.len();
        let velocities: Vec<f64> = (0..n)
            .map(|i| {
                let base = VELOCITY_MIN
                    + (VELOCITY_MAX - VELOCITY_MIN) * (i as f64 + 0.5) / n as f64;
                let jitter_span = (VELOCITY_MAX - VELOCITY_MIN) / (2.5 * n as f64);
                (base + rng.gen_range(-jitter_span..jitter_span))
                    .clamp(VELOCITY_MIN, VELOCITY_MAX)
            })
            .collect();

        VelocityModel::from_layers(self.nz, self.nx, tops, velocities)
            .expect("generator invariants guarantee valid layers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_layers_builds_expected_map() {
        let m = VelocityModel::from_layers(6, 4, vec![0, 3], vec![1500.0, 3000.0]).unwrap();
        assert_eq!(m.map()[(0, 0)], 1500.0);
        assert_eq!(m.map()[(2, 3)], 1500.0);
        assert_eq!(m.map()[(3, 0)], 3000.0);
        assert_eq!(m.map()[(5, 3)], 3000.0);
        assert_eq!(m.interfaces(), &[3]);
    }

    #[test]
    fn from_layers_validates() {
        assert!(VelocityModel::from_layers(6, 4, vec![], vec![]).is_err());
        assert!(VelocityModel::from_layers(6, 4, vec![1], vec![1500.0]).is_err()); // must start at 0
        assert!(VelocityModel::from_layers(6, 4, vec![0, 0], vec![1.0, 2.0]).is_err());
        assert!(VelocityModel::from_layers(6, 4, vec![0, 9], vec![1.0, 2.0]).is_err());
        assert!(VelocityModel::from_layers(6, 4, vec![0, 3], vec![1.0]).is_err());
        // Maps whose byte size overflows `isize` are rejected, not allocated.
        assert!(VelocityModel::from_layers(1 << 61, 1, vec![0], vec![1.0]).is_err());
        assert!(VelocityModel::from_layers(1 << 40, 1 << 40, vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn generator_validates() {
        assert!(FlatLayerGenerator::new(0, 70).is_err());
        assert!(FlatLayerGenerator::new(70, 0).is_err());
        assert!(FlatLayerGenerator::with_layer_range(70, 70, 3, 2).is_err());
        assert!(FlatLayerGenerator::with_layer_range(6, 70, 2, 5).is_err());
        assert!(FlatLayerGenerator::with_layer_range(70, 70, 0, 5).is_err());
        // A map beyond the address space is a config error, not a panic
        // on the first `sample`.
        assert!(FlatLayerGenerator::new(1 << 62, 4).is_err());
    }

    #[test]
    fn samples_are_deterministic_and_distinct() {
        let g = FlatLayerGenerator::new(70, 70).unwrap();
        assert_eq!(g.sample(5).map(), g.sample(5).map());
        // Different seeds almost surely differ.
        let distinct = (0..10)
            .map(|s| g.sample(s))
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| w[0].map() != w[1].map())
            .count();
        assert!(distinct >= 8, "only {distinct} of 9 adjacent pairs differ");
    }

    #[test]
    fn sample_respects_layer_and_velocity_ranges() {
        let g = FlatLayerGenerator::new(70, 70).unwrap();
        for seed in 0..50 {
            let m = g.sample(seed);
            assert!(
                (2..=5).contains(&m.num_layers()),
                "seed {seed}: {} layers",
                m.num_layers()
            );
            for &v in m.layer_velocities() {
                assert!((VELOCITY_MIN..=VELOCITY_MAX).contains(&v), "seed {seed}: v={v}");
            }
            // Velocities increase with depth.
            for w in m.layer_velocities().windows(2) {
                assert!(w[1] > w[0], "seed {seed}: velocities must increase");
            }
            // Map values match layer velocities exactly.
            for &v in m.map().iter() {
                assert!(m.layer_velocities().contains(&v));
            }
        }
    }

    #[test]
    fn layers_are_flat() {
        let g = FlatLayerGenerator::new(40, 30).unwrap();
        let m = g.sample(9);
        for z in 0..40 {
            let row = m.map().row(z);
            assert!(row.iter().all(|&v| v == row[0]), "row {z} not constant");
        }
    }

    #[test]
    fn profile_matches_map_column() {
        let g = FlatLayerGenerator::new(40, 30).unwrap();
        let m = g.sample(3);
        let p = m.profile_at(7);
        for (z, v) in p.iter().enumerate() {
            assert_eq!(*v, m.map()[(z, 7)]);
        }
    }
}
