//! Curved-layer velocity models — the paper's Section 3.2.3 extension.
//!
//! The QuGeo layer-wise decoder is motivated by flat subsurfaces, but the
//! paper notes the approach "can be generalized for the non-flat
//! subsurface, such as curve structures. Because the subsurface mediums
//! between curves have the same material". This module provides the
//! matching data: layered models whose interfaces follow smooth curves
//! (OpenFWI's CurveVel family), so the generalisation can be evaluated.

use qugeo_tensor::Array2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{GeodataError, VELOCITY_MAX, VELOCITY_MIN};

/// A velocity model with curved layer interfaces.
///
/// Interfaces are sinusoidal perturbations of flat horizons; every point
/// between two interfaces shares the layer's velocity (uniform material
/// between curves, exactly the structure the paper's generalisation
/// assumes).
#[derive(Debug, Clone, PartialEq)]
pub struct CurvedModel {
    map: Array2,
    /// Interface depth at every column, per interface.
    interface_depths: Vec<Vec<usize>>,
    layer_velocities: Vec<f64>,
}

impl CurvedModel {
    /// The `nz × nx` velocity map in m/s.
    pub fn map(&self) -> &Array2 {
        &self.map
    }

    /// Consumes the model, returning the map.
    pub fn into_map(self) -> Array2 {
        self.map
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layer_velocities.len()
    }

    /// Layer velocities top to bottom (m/s).
    pub fn layer_velocities(&self) -> &[f64] {
        &self.layer_velocities
    }

    /// Depth of interface `k` at column `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `ix` is out of range.
    pub fn interface_depth(&self, k: usize, ix: usize) -> usize {
        self.interface_depths[k][ix]
    }

    /// Maximum depth variation of any interface across the width — a
    /// measure of how far the model is from flat (0 = flat).
    pub fn curvature(&self) -> usize {
        self.interface_depths
            .iter()
            .filter_map(|d| Some(d.iter().max()? - d.iter().min()?))
            .max()
            .unwrap_or(0)
    }
}

/// Random generator of curved-layer models.
///
/// # Examples
///
/// ```
/// use qugeo_geodata::curved::CurvedLayerGenerator;
///
/// # fn main() -> Result<(), qugeo_geodata::GeodataError> {
/// let generator = CurvedLayerGenerator::new(70, 70, 6)?;
/// let model = generator.sample(3);
/// // A sinusoid of amplitude ≤ 6 spans at most 12 cells peak-to-peak.
/// assert!(model.curvature() <= 12);
/// assert!(model.num_layers() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurvedLayerGenerator {
    nz: usize,
    nx: usize,
    max_amplitude: usize,
}

impl CurvedLayerGenerator {
    /// Creates a generator for `nz × nx` maps whose interfaces deviate at
    /// most `max_amplitude` cells from flat.
    ///
    /// # Errors
    ///
    /// Returns [`GeodataError::InvalidConfig`] for degenerate dimensions
    /// or an amplitude too large for the depth.
    pub fn new(nz: usize, nx: usize, max_amplitude: usize) -> Result<Self, GeodataError> {
        if nx == 0 || nz < 10 || max_amplitude * 2 + 6 >= nz {
            return Err(GeodataError::InvalidConfig {
                reason: format!(
                    "cannot fit curved layers with amplitude {max_amplitude} in a {nz}x{nx} model"
                ),
            });
        }
        Ok(Self {
            nz,
            nx,
            max_amplitude,
        })
    }

    /// Draws a model for `seed` (deterministic per seed).
    pub fn sample(&self, seed: u64) -> CurvedModel {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let num_layers = rng.gen_range(2..=4usize);
        let num_interfaces = num_layers - 1;

        // Base (flat) depths, evenly spread with jitter, leaving room for
        // the curve amplitude at both ends.
        let margin = self.max_amplitude + 2;
        let usable = self.nz - 2 * margin;
        let mut bases: Vec<usize> = (0..num_interfaces)
            .map(|i| {
                let frac = (i as f64 + 1.0) / (num_interfaces as f64 + 1.0);
                margin + (frac * usable as f64) as usize
            })
            .collect();
        bases.sort_unstable();

        // Each interface follows base + A·sin(2π f x/nx + φ).
        let mut interface_depths = Vec::with_capacity(num_interfaces);
        for &base in &bases {
            let amplitude = if self.max_amplitude == 0 {
                0.0
            } else {
                rng.gen_range(1.0..=self.max_amplitude as f64)
            };
            let freq = rng.gen_range(0.5..2.0);
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            let depths: Vec<usize> = (0..self.nx)
                .map(|ix| {
                    let x = ix as f64 / self.nx as f64;
                    let d = base as f64
                        + amplitude * (std::f64::consts::TAU * freq * x + phase).sin();
                    (d.round() as usize).clamp(1, self.nz - 2)
                })
                .collect();
            interface_depths.push(depths);
        }

        // Velocities increase with depth.
        let velocities: Vec<f64> = (0..num_layers)
            .map(|i| {
                let base = VELOCITY_MIN
                    + (VELOCITY_MAX - VELOCITY_MIN) * (i as f64 + 0.5) / num_layers as f64;
                let jitter = (VELOCITY_MAX - VELOCITY_MIN) / (2.5 * num_layers as f64);
                (base + rng.gen_range(-jitter..jitter)).clamp(VELOCITY_MIN, VELOCITY_MAX)
            })
            .collect();

        let map = Array2::from_fn(self.nz, self.nx, |z, x| {
            let mut layer = 0usize;
            for (k, depths) in interface_depths.iter().enumerate() {
                if z >= depths[x] {
                    layer = k + 1;
                }
            }
            velocities[layer]
        });

        CurvedModel {
            map,
            interface_depths,
            layer_velocities: velocities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_validates() {
        assert!(CurvedLayerGenerator::new(0, 70, 4).is_err());
        assert!(CurvedLayerGenerator::new(70, 0, 4).is_err());
        assert!(CurvedLayerGenerator::new(12, 70, 5).is_err()); // amplitude too big
        assert!(CurvedLayerGenerator::new(70, 70, 6).is_ok());
    }

    #[test]
    fn samples_are_deterministic() {
        let g = CurvedLayerGenerator::new(40, 40, 4).unwrap();
        assert_eq!(g.sample(7).map(), g.sample(7).map());
        assert_ne!(g.sample(7).map(), g.sample(8).map());
    }

    #[test]
    fn velocities_increase_with_depth() {
        let g = CurvedLayerGenerator::new(50, 50, 5).unwrap();
        for seed in 0..20 {
            let m = g.sample(seed);
            for w in m.layer_velocities().windows(2) {
                assert!(w[1] > w[0], "seed {seed}");
            }
            for &v in m.layer_velocities() {
                assert!((VELOCITY_MIN..=VELOCITY_MAX).contains(&v));
            }
        }
    }

    #[test]
    fn curvature_bounded_by_amplitude() {
        let g = CurvedLayerGenerator::new(50, 50, 5).unwrap();
        for seed in 0..20 {
            let m = g.sample(seed);
            // Sinusoid of amplitude ≤ 5 spans at most 10 cells.
            assert!(m.curvature() <= 10, "seed {seed}: curvature {}", m.curvature());
        }
    }

    #[test]
    fn columns_follow_their_interfaces() {
        let g = CurvedLayerGenerator::new(50, 50, 5).unwrap();
        let m = g.sample(3);
        // At every column, the velocity changes exactly at the recorded
        // interface depths (for non-crossing interfaces).
        for ix in (0..50).step_by(7) {
            let col = m.map().column(ix);
            let d0 = m.interface_depth(0, ix);
            assert_ne!(
                col[d0 - 1], col[d0],
                "column {ix}: no velocity change at recorded interface {d0}"
            );
        }
    }

    #[test]
    fn zero_amplitude_gives_flat_layers() {
        let g = CurvedLayerGenerator::new(50, 50, 0).unwrap();
        let m = g.sample(5);
        assert_eq!(m.curvature(), 0);
        for z in 0..50 {
            let row = m.map().row(z);
            assert!(row.iter().all(|&v| v == row[0]), "row {z} not flat");
        }
    }

    #[test]
    fn curved_models_are_actually_curved() {
        let g = CurvedLayerGenerator::new(50, 50, 6).unwrap();
        let curved = (0..10).filter(|&s| g.sample(s).curvature() > 0).count();
        assert!(curved >= 9, "only {curved}/10 models have curvature");
    }
}
