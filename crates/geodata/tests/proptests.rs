//! Property-based tests for the dataset generators and scaling.

use proptest::prelude::*;
use qugeo_geodata::curved::CurvedLayerGenerator;
use qugeo_geodata::scaling::{
    d_sample, normalize_velocity_value, select_source_indices, ScaledLayout,
};
use qugeo_geodata::{FlatLayerGenerator, Sample, VelocityModel, VELOCITY_MAX, VELOCITY_MIN};
use qugeo_tensor::Array3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_generator_invariants(seed in 0u64..10_000) {
        let g = FlatLayerGenerator::new(70, 70).expect("generator");
        let m = g.sample(seed);
        // Layer count, velocity range, monotonicity.
        prop_assert!((2..=5).contains(&m.num_layers()));
        for w in m.layer_velocities().windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        for &v in m.layer_velocities() {
            prop_assert!((VELOCITY_MIN..=VELOCITY_MAX).contains(&v));
        }
        // Tops strictly increasing from zero.
        prop_assert_eq!(m.layer_tops()[0], 0);
        for w in m.layer_tops().windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        // Every row constant (flat).
        for z in (0..70).step_by(13) {
            let row = m.map().row(z);
            prop_assert!(row.iter().all(|&v| v == row[0]));
        }
    }

    #[test]
    fn curved_generator_invariants(seed in 0u64..10_000) {
        let g = CurvedLayerGenerator::new(70, 70, 6).expect("generator");
        let m = g.sample(seed);
        prop_assert!((2..=4).contains(&m.num_layers()));
        for w in m.layer_velocities().windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        // Every column is monotone in layer index: velocities only
        // increase going down a column.
        for ix in (0..70).step_by(17) {
            let col = m.map().column(ix);
            let mut last = col[0];
            for &v in &col {
                prop_assert!(v >= last - 1e-9, "velocity decreased going down");
                last = last.max(v);
            }
        }
    }

    #[test]
    fn d_sample_preserves_flatness_and_range(
        seed in 0u64..1000,
        nt in 16usize..64,
        nr in 8usize..32,
    ) {
        let g = FlatLayerGenerator::new(32, 32).expect("generator");
        let velocity = g.sample(seed);
        let seismic = Array3::from_fn(5, nt, nr, |s, t, r| {
            ((s * 7 + t * 3 + r) % 17) as f64 * 0.01
        });
        let sample = Sample { velocity, seismic };
        let layout = ScaledLayout::paper_default();
        let scaled = d_sample(&sample, &layout).expect("scales");
        prop_assert_eq!(scaled.seismic.len(), 256);
        for r in 0..8 {
            let row = scaled.velocity.row(r);
            prop_assert!(row.iter().all(|&v| v == row[0]), "row {} not flat", r);
            prop_assert!((VELOCITY_MIN..=VELOCITY_MAX).contains(&row[0]));
        }
    }

    #[test]
    fn source_selection_is_sorted_unique_in_range(total in 0usize..20, wanted in 0usize..20) {
        let picks = select_source_indices(total, wanted);
        if wanted == 0 || wanted > total {
            prop_assert!(picks.is_err(), "{} of {} must be a typed error", wanted, total);
            return;
        }
        let picks = picks.expect("valid selection");
        prop_assert_eq!(picks.len(), wanted);
        for w in picks.windows(2) {
            prop_assert!(w[1] > w[0], "picks must be strictly increasing");
        }
        prop_assert!(*picks.last().expect("non-empty") < total);
    }

    #[test]
    fn velocity_normalisation_bijective(v in VELOCITY_MIN..VELOCITY_MAX) {
        let n = normalize_velocity_value(v);
        prop_assert!((0.0..=1.0).contains(&n));
        let back = qugeo_geodata::scaling::denormalize_velocity_value(n);
        prop_assert!((back - v).abs() < 1e-9);
    }

    #[test]
    fn explicit_model_roundtrip(
        top in 1usize..30,
        v1 in VELOCITY_MIN..2500.0,
        v2 in 2500.0f64..VELOCITY_MAX,
    ) {
        let m = VelocityModel::from_layers(32, 16, vec![0, top], vec![v1, v2]).expect("model");
        prop_assert_eq!(m.interfaces(), &[top]);
        let p = m.profile_at(7);
        prop_assert_eq!(p[top - 1], v1);
        prop_assert_eq!(p[top], v2);
    }
}
