use qugeo_tensor::{Array2, Array3};

use crate::{Grid, RickerWavelet, Solver, SpaceOrder, SpongeBoundary, WavesimError};

/// Source–receiver acquisition geometry.
///
/// OpenFWI FlatVelA uses 5 sources and 70 receivers evenly spread across
/// the surface; [`Survey::openfwi_default`] reproduces that layout.
///
/// # Examples
///
/// ```
/// use qugeo_wavesim::Survey;
///
/// # fn main() -> Result<(), qugeo_wavesim::WavesimError> {
/// let survey = Survey::surface(70, 5, 70, 1)?;
/// assert_eq!(survey.sources().len(), 5);
/// assert_eq!(survey.receivers().len(), 70);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Survey {
    sources: Vec<(usize, usize)>,
    receivers: Vec<(usize, usize)>,
}

impl Survey {
    /// Builds a survey from explicit `(ix, iz)` positions.
    ///
    /// # Errors
    ///
    /// Returns [`WavesimError::EmptySurvey`] if either list is empty.
    pub fn new(
        sources: Vec<(usize, usize)>,
        receivers: Vec<(usize, usize)>,
    ) -> Result<Self, WavesimError> {
        if sources.is_empty() || receivers.is_empty() {
            return Err(WavesimError::EmptySurvey);
        }
        Ok(Self { sources, receivers })
    }

    /// Evenly spaces `num_sources` sources and `num_receivers` receivers
    /// across the surface of an `nx`-wide model at depth index `depth`.
    ///
    /// # Errors
    ///
    /// Returns [`WavesimError::EmptySurvey`] if either count is zero.
    pub fn surface(
        nx: usize,
        num_sources: usize,
        num_receivers: usize,
        depth: usize,
    ) -> Result<Self, WavesimError> {
        if num_sources == 0 || num_receivers == 0 || nx == 0 {
            return Err(WavesimError::EmptySurvey);
        }
        let spread = |count: usize| -> Vec<(usize, usize)> {
            (0..count)
                .map(|i| {
                    let x = if count == 1 {
                        nx / 2
                    } else {
                        (i * (nx - 1)) / (count - 1)
                    };
                    (x, depth)
                })
                .collect()
        };
        Ok(Self {
            sources: spread(num_sources),
            receivers: spread(num_receivers),
        })
    }

    /// The OpenFWI FlatVelA acquisition: 5 surface sources, 70 surface
    /// receivers on a 70-cell-wide model.
    #[allow(clippy::expect_used, reason = "constant, non-zero counts and width")]
    pub fn openfwi_default() -> Self {
        Self::surface(70, 5, 70, 1).expect("static layout is valid")
    }

    /// Source positions.
    pub fn sources(&self) -> &[(usize, usize)] {
        &self.sources
    }

    /// Receiver positions.
    pub fn receivers(&self) -> &[(usize, usize)] {
        &self.receivers
    }
}

/// Models a single shot on `velocity`, returning a `nt × receivers`
/// gather.
///
/// # Errors
///
/// Propagates solver construction and execution errors.
pub fn model_shot(
    velocity: &Array2,
    grid: &Grid,
    source: (usize, usize),
    receivers: &[(usize, usize)],
    wavelet: &RickerWavelet,
    order: SpaceOrder,
) -> Result<Array2, WavesimError> {
    let solver = Solver::new(velocity, grid, order, SpongeBoundary::default())?;
    solver.run_shot(source, wavelet, receivers)
}

/// Models every shot of the survey, returning a
/// `(sources × nt × receivers)` cube — the OpenFWI seismic data layout.
///
/// Shots run serially on one [`Solver`], in source order. Q-D-FW calls
/// this once per velocity map at a small geometry (an 8×8 map, four
/// shots of ~100 steps), where a thread per shot cost more CPU than the
/// serial shots and saved no clear wall time. A caller that models many
/// maps at once should schedule [`model_shot`] items over its own thread
/// budget instead, as `Dataset::generate` in `qugeo-geodata` does.
///
/// # Errors
///
/// Propagates solver construction and execution errors; the first
/// failing shot's error is returned.
pub fn model_shots(
    velocity: &Array2,
    grid: &Grid,
    survey: &Survey,
    wavelet: &RickerWavelet,
    order: SpaceOrder,
) -> Result<Array3, WavesimError> {
    let solver = Solver::new(velocity, grid, order, SpongeBoundary::default())?;
    let slices = survey
        .sources()
        .iter()
        .map(|&source| solver.run_shot(source, wavelet, survey.receivers()))
        .collect::<Result<Vec<_>, _>>()?;
    Array3::from_slices(&slices).map_err(|e| WavesimError::InvalidGrid {
        reason: format!("gather stacking failed: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_survey_spacing() {
        let s = Survey::surface(70, 5, 70, 1).unwrap();
        assert_eq!(s.sources().first(), Some(&(0, 1)));
        assert_eq!(s.sources().last(), Some(&(69, 1)));
        assert_eq!(s.receivers().len(), 70);
        // Receivers cover every column exactly once.
        let xs: Vec<usize> = s.receivers().iter().map(|&(x, _)| x).collect();
        assert_eq!(xs, (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn single_source_centres() {
        let s = Survey::surface(41, 1, 3, 0).unwrap();
        assert_eq!(s.sources(), &[(20, 0)]);
    }

    #[test]
    fn empty_survey_rejected() {
        assert!(Survey::new(vec![], vec![(0, 0)]).is_err());
        assert!(Survey::new(vec![(0, 0)], vec![]).is_err());
        assert!(Survey::surface(70, 0, 70, 1).is_err());
    }

    #[test]
    fn model_shots_produces_cube() {
        let vel = Array2::filled(30, 30, 2500.0);
        let grid = Grid::new(30, 30, 10.0, 0.001, 120).unwrap();
        let survey = Survey::surface(30, 2, 15, 1).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        let cube = model_shots(&vel, &grid, &survey, &w, SpaceOrder::Order4).unwrap();
        assert_eq!(cube.shape(), (2, 120, 15));
        // Both shots must contain signal.
        for s in 0..2 {
            let energy: f64 = cube.slice(s).iter().map(|v| v * v).sum();
            assert!(energy > 0.0, "shot {s} has no energy");
        }
    }

    #[test]
    fn different_sources_give_different_gathers() {
        let vel = Array2::filled(30, 30, 2500.0);
        let grid = Grid::new(30, 30, 10.0, 0.001, 120).unwrap();
        let survey = Survey::surface(30, 2, 15, 1).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        let cube = model_shots(&vel, &grid, &survey, &w, SpaceOrder::Order4).unwrap();
        let diff: f64 = cube
            .slice(0)
            .as_slice()
            .iter()
            .zip(cube.slice(1).as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn model_shot_matches_solver_run() {
        let vel = Array2::filled(25, 25, 2000.0);
        let grid = Grid::new(25, 25, 10.0, 0.001, 80).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        let direct = model_shot(&vel, &grid, (12, 1), &[(5, 1)], &w, SpaceOrder::Order4).unwrap();
        let solver =
            Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()).unwrap();
        let via_solver = solver.run_shot((12, 1), &w, &[(5, 1)]).unwrap();
        assert_eq!(direct, via_solver);
    }
}
