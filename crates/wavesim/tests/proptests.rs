//! Property-based tests for the forward-modelling engine: stability,
//! determinism and basic physics across random velocity models.

use proptest::prelude::*;
use qugeo_tensor::Array2;
use qugeo_wavesim::{Grid, RickerWavelet, Solver, SpaceOrder, SpongeBoundary, Survey};

/// Random two-layer velocity model within the FlatVelA range.
fn layered_velocity() -> impl Strategy<Value = Array2> {
    (4usize..20, 1600.0f64..3000.0, 3000.0f64..4000.0)
        .prop_map(|(top, v1, v2)| Array2::from_fn(24, 24, |z, _| if z < top { v1 } else { v2 }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wavefield_stays_finite(vel in layered_velocity(), src_x in 2usize..22) {
        let grid = Grid::new(24, 24, 10.0, 0.001, 120).expect("grid");
        let solver = Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default())
            .expect("solver");
        let w = RickerWavelet::new(15.0, grid.dt()).expect("wavelet");
        let gather = solver.run_shot((src_x, 1), &w, &[(5, 1), (20, 1)]).expect("shot");
        for &v in gather.iter() {
            prop_assert!(v.is_finite(), "non-finite field value {}", v);
        }
        // Bounded: explicit schemes under CFL cannot blow up.
        prop_assert!(gather.iter().all(|v| v.abs() < 1e6));
    }

    #[test]
    fn modelling_is_deterministic(vel in layered_velocity()) {
        let grid = Grid::new(24, 24, 10.0, 0.001, 80).expect("grid");
        let solver = Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default())
            .expect("solver");
        let w = RickerWavelet::new(15.0, grid.dt()).expect("wavelet");
        let a = solver.run_shot((12, 1), &w, &[(4, 1)]).expect("shot");
        let b = solver.run_shot((12, 1), &w, &[(4, 1)]).expect("shot");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn receivers_eventually_hear_the_source(vel in layered_velocity()) {
        let grid = Grid::new(24, 24, 10.0, 0.001, 200).expect("grid");
        let solver = Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default())
            .expect("solver");
        let w = RickerWavelet::new(15.0, grid.dt()).expect("wavelet");
        let gather = solver.run_shot((12, 12), &w, &[(2, 2), (22, 22)]).expect("shot");
        for r in 0..2 {
            let energy: f64 = gather.column(r).iter().map(|v| v * v).sum();
            prop_assert!(energy > 0.0, "receiver {} heard nothing", r);
        }
    }

    #[test]
    fn survey_positions_within_any_width(nx in 8usize..80, ns in 1usize..6, nr in 1usize..40) {
        let s = Survey::surface(nx, ns, nr, 1).expect("survey");
        for &(x, z) in s.sources().iter().chain(s.receivers()) {
            prop_assert!(x < nx);
            prop_assert_eq!(z, 1);
        }
        prop_assert_eq!(s.sources().len(), ns);
        prop_assert_eq!(s.receivers().len(), nr);
    }

    #[test]
    fn ricker_bounded_by_peak(f in 5.0f64..30.0) {
        let w = RickerWavelet::new(f, 0.001).expect("wavelet");
        for s in 0..2000 {
            let v = w.sample(s);
            prop_assert!((-0.5..=1.0 + 1e-12).contains(&v), "ricker value {} out of range", v);
        }
    }
}
