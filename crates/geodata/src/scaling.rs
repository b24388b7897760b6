//! Quantum-size data layouts and the "D-Sample" scaling baseline.
//!
//! The paper constrains the quantum backend to ≤16 qubits, scaling
//! seismic data to 256 values and velocity maps to 8×8. The layout keeps
//! the seismic source structure: 4 sources × 8 time steps × 8 receivers,
//! grouped per source so the ST-Encoder can map each source to its own
//! qubit subset.
//!
//! `D-Sample` — plain nearest-neighbour resampling of the raw data — is
//! the baseline the physics-guided approaches (implemented in the `qugeo`
//! core crate) are compared against.

use qugeo_tensor::{resample, Array2};

use crate::{GeodataError, Sample, VELOCITY_MAX, VELOCITY_MIN};

/// The shape of quantum-scaled seismic data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaledLayout {
    /// Seismic sources kept (each becomes an encoder group).
    pub num_sources: usize,
    /// Time samples per source.
    pub time_steps: usize,
    /// Receivers per source.
    pub receivers: usize,
    /// Velocity map side length.
    pub velocity_side: usize,
}

impl ScaledLayout {
    /// The paper's layout: 4 × 8 × 8 = 256 seismic values, 8×8 velocity
    /// maps (16-qubit budget: 8 data qubits for the seismic vector, up to
    /// 8 more for grouping/batching headroom).
    pub fn paper_default() -> Self {
        Self {
            num_sources: 4,
            time_steps: 8,
            receivers: 8,
            velocity_side: 8,
        }
    }

    /// Total scaled seismic length (`sources × time × receivers`).
    pub fn seismic_len(&self) -> usize {
        self.num_sources * self.time_steps * self.receivers
    }

    /// Values per source group.
    pub fn group_len(&self) -> usize {
        self.time_steps * self.receivers
    }
}

/// One quantum-ready sample: a scaled seismic vector (grouped by source)
/// and the scaled ground-truth velocity map in m/s.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSample {
    /// Scaled seismic data, laid out `[source0 | source1 | …]`.
    pub seismic: Vec<f64>,
    /// Scaled `velocity_side × velocity_side` velocity map (m/s).
    pub velocity: Array2,
}

/// Picks `wanted` source indices evenly from `total` available.
///
/// # Errors
///
/// Returns [`GeodataError::InvalidConfig`] if `wanted` is zero or exceeds
/// `total`.
pub fn select_source_indices(total: usize, wanted: usize) -> Result<Vec<usize>, GeodataError> {
    if wanted == 0 || wanted > total {
        return Err(GeodataError::InvalidConfig {
            reason: format!("cannot select {wanted} of {total} sources"),
        });
    }
    if wanted == 1 {
        return Ok(vec![total / 2]);
    }
    Ok((0..wanted)
        .map(|i| (i * (total - 1)) / (wanted - 1))
        .collect())
}

/// The D-Sample baseline: nearest-neighbour resampling of raw seismic
/// data and velocity map down to the quantum layout.
///
/// # Errors
///
/// Returns [`GeodataError::InvalidConfig`] if the sample has fewer
/// sources than the layout requires, or the layout keeps none.
pub fn d_sample(sample: &Sample, layout: &ScaledLayout) -> Result<ScaledSample, GeodataError> {
    let (num_sources, _, _) = sample.seismic.shape();
    if num_sources < layout.num_sources {
        return Err(GeodataError::InvalidConfig {
            reason: format!(
                "sample has {num_sources} sources, layout needs {}",
                layout.num_sources
            ),
        });
    }
    let picks = select_source_indices(num_sources, layout.num_sources)?;
    let mut seismic = Vec::with_capacity(layout.seismic_len());
    for &s in &picks {
        let gather = sample.seismic.slice(s);
        let small = resample::nearest2(&gather, layout.time_steps, layout.receivers);
        seismic.extend_from_slice(small.as_slice());
    }
    let velocity = resample::nearest2(
        sample.velocity.map(),
        layout.velocity_side,
        layout.velocity_side,
    );
    Ok(ScaledSample { seismic, velocity })
}

/// Coarsens a velocity map to `side × side` with bilinear averaging —
/// the first step of the physics-guided (Q-D-FW) rescaling, which then
/// re-runs forward modelling on the coarse model.
pub fn coarsen_velocity(map: &Array2, side: usize) -> Array2 {
    resample::bilinear2(map, side, side)
}

/// Normalises a velocity map from m/s into `[0, 1]` using the FlatVelA
/// range.
pub fn normalize_velocity(map: &Array2) -> Array2 {
    map.map(|v| (v - VELOCITY_MIN) / (VELOCITY_MAX - VELOCITY_MIN))
}

/// Inverse of [`normalize_velocity`].
pub fn denormalize_velocity(map: &Array2) -> Array2 {
    map.map(|v| VELOCITY_MIN + v * (VELOCITY_MAX - VELOCITY_MIN))
}

/// Normalises one scalar velocity into `[0, 1]`.
pub fn normalize_velocity_value(v: f64) -> f64 {
    (v - VELOCITY_MIN) / (VELOCITY_MAX - VELOCITY_MIN)
}

/// Inverse of [`normalize_velocity_value`].
pub fn denormalize_velocity_value(v: f64) -> f64 {
    VELOCITY_MIN + v * (VELOCITY_MAX - VELOCITY_MIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VelocityModel;
    use qugeo_tensor::Array3;

    fn fake_sample(num_sources: usize, nt: usize, nr: usize) -> Sample {
        let velocity =
            VelocityModel::from_layers(20, 20, vec![0, 10], vec![1500.0, 3500.0]).unwrap();
        let seismic = Array3::from_fn(num_sources, nt, nr, |s, t, r| {
            (s * 1000 + t * 10 + r) as f64 * 0.001
        });
        Sample { velocity, seismic }
    }

    #[test]
    fn paper_layout_is_256() {
        let l = ScaledLayout::paper_default();
        assert_eq!(l.seismic_len(), 256);
        assert_eq!(l.group_len(), 64);
        assert_eq!(l.velocity_side, 8);
    }

    #[test]
    fn select_sources_even_coverage() {
        assert_eq!(select_source_indices(5, 4).unwrap(), vec![0, 1, 2, 4]);
        assert_eq!(select_source_indices(5, 5).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(select_source_indices(5, 1).unwrap(), vec![2]);
        assert_eq!(select_source_indices(5, 2).unwrap(), vec![0, 4]);
    }

    #[test]
    fn select_sources_validates() {
        for (total, wanted) in [(3, 4), (3, 0), (0, 0), (0, 1)] {
            let err = select_source_indices(total, wanted).unwrap_err();
            assert!(
                matches!(&err, GeodataError::InvalidConfig { reason } if reason.contains("cannot select")),
                "{err}"
            );
        }
    }

    #[test]
    fn d_sample_shapes() {
        let sample = fake_sample(5, 100, 20);
        let scaled = d_sample(&sample, &ScaledLayout::paper_default()).unwrap();
        assert_eq!(scaled.seismic.len(), 256);
        assert_eq!(scaled.velocity.shape(), (8, 8));
    }

    #[test]
    fn d_sample_values_come_from_input() {
        let sample = fake_sample(5, 100, 20);
        let scaled = d_sample(&sample, &ScaledLayout::paper_default()).unwrap();
        for &v in &scaled.seismic {
            assert!(
                sample.seismic.iter().any(|&x| x == v),
                "{v} not from input"
            );
        }
        for &v in scaled.velocity.iter() {
            assert!(sample.velocity.map().iter().any(|&x| x == v));
        }
    }

    #[test]
    fn d_sample_groups_follow_sources() {
        // Each group of 64 must come from one source (values encode the
        // source index in the thousands digit).
        let sample = fake_sample(4, 64, 64);
        let scaled = d_sample(&sample, &ScaledLayout::paper_default()).unwrap();
        for g in 0..4 {
            for &v in &scaled.seismic[g * 64..(g + 1) * 64] {
                let source = (v * 1000.0).round() as usize / 1000;
                assert_eq!(source, g, "group {g} contains value {v}");
            }
        }
    }

    #[test]
    fn d_sample_rejects_too_few_sources() {
        let sample = fake_sample(2, 50, 20);
        assert!(d_sample(&sample, &ScaledLayout::paper_default()).is_err());
    }

    #[test]
    fn d_sample_rejects_a_layout_without_sources() {
        let sample = fake_sample(5, 50, 20);
        let layout = ScaledLayout {
            num_sources: 0,
            ..ScaledLayout::paper_default()
        };
        assert!(matches!(
            d_sample(&sample, &layout),
            Err(GeodataError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn velocity_normalisation_roundtrip() {
        let m = Array2::from_vec(1, 3, vec![1500.0, 2750.0, 4000.0]).unwrap();
        let n = normalize_velocity(&m);
        assert_eq!(n.as_slice(), &[0.0, 0.5, 1.0]);
        let back = denormalize_velocity(&n);
        for (a, b) in back.iter().zip(m.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(normalize_velocity_value(4000.0), 1.0);
        assert_eq!(denormalize_velocity_value(0.0), 1500.0);
    }

    #[test]
    fn coarsen_velocity_preserves_layering() {
        let model =
            VelocityModel::from_layers(16, 16, vec![0, 8], vec![1500.0, 3500.0]).unwrap();
        let coarse = coarsen_velocity(model.map(), 4);
        assert_eq!(coarse.shape(), (4, 4));
        // Top rows slow, bottom rows fast.
        assert!(coarse[(0, 0)] < coarse[(3, 0)]);
        // Rows stay constant (flat layers).
        for r in 0..4 {
            let row = coarse.row(r);
            assert!(row.iter().all(|&v| (v - row[0]).abs() < 1e-9));
        }
    }
}
