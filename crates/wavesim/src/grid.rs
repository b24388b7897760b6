use crate::WavesimError;

/// Discretisation of the 2-D simulation domain.
///
/// `nx` columns (horizontal offset), `nz` rows (depth), square cells of
/// `dx` metres, explicit time stepping of `dt` seconds for `nt` steps. The
/// OpenFWI FlatVelA geometry is `70 × 70` cells of 10 m with 1 ms steps
/// for 1000 steps.
///
/// # Examples
///
/// ```
/// use qugeo_wavesim::Grid;
///
/// # fn main() -> Result<(), qugeo_wavesim::WavesimError> {
/// let grid = Grid::new(70, 70, 10.0, 0.001, 1000)?;
/// assert_eq!(grid.extent_x(), 700.0);
/// assert_eq!(grid.duration(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    nx: usize,
    nz: usize,
    dx: f64,
    dt: f64,
    nt: usize,
}

impl Grid {
    /// Creates a grid, validating all dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`WavesimError::InvalidGrid`] if any dimension is zero or a
    /// step size is non-positive or non-finite.
    pub fn new(nx: usize, nz: usize, dx: f64, dt: f64, nt: usize) -> Result<Self, WavesimError> {
        if nx == 0 || nz == 0 || nt == 0 {
            return Err(WavesimError::InvalidGrid {
                reason: format!("dimensions must be positive (nx={nx}, nz={nz}, nt={nt})"),
            });
        }
        if !(dx > 0.0 && dx.is_finite() && dt > 0.0 && dt.is_finite()) {
            return Err(WavesimError::InvalidGrid {
                reason: format!("steps must be positive and finite (dx={dx}, dt={dt})"),
            });
        }
        Ok(Self { nx, nz, dx, dt, nt })
    }

    /// The OpenFWI FlatVelA grid: 70 × 70 cells, 10 m spacing, 1 ms steps,
    /// 1000 steps.
    pub fn openfwi_default() -> Self {
        Self {
            nx: 70,
            nz: 70,
            dx: 10.0,
            dt: 0.001,
            nt: 1000,
        }
    }

    /// Horizontal cell count.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Vertical (depth) cell count.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Cell size in metres.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of time steps.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Physical width of the model in metres.
    pub fn extent_x(&self) -> f64 {
        self.nx as f64 * self.dx
    }

    /// Total simulated time in seconds.
    pub fn duration(&self) -> f64 {
        self.nt as f64 * self.dt
    }

    /// The Courant number `c_max · dt / dx` for a given maximum velocity.
    pub fn courant(&self, max_velocity: f64) -> f64 {
        max_velocity * self.dt / self.dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_grid_accessors() {
        let g = Grid::new(50, 60, 10.0, 0.002, 500).unwrap();
        assert_eq!(g.nx(), 50);
        assert_eq!(g.nz(), 60);
        assert_eq!(g.extent_x(), 500.0);
        assert_eq!(g.duration(), 1.0);
    }

    #[test]
    fn rejects_degenerate_grids() {
        assert!(Grid::new(0, 10, 10.0, 0.001, 100).is_err());
        assert!(Grid::new(10, 0, 10.0, 0.001, 100).is_err());
        assert!(Grid::new(10, 10, 0.0, 0.001, 100).is_err());
        assert!(Grid::new(10, 10, 10.0, -0.001, 100).is_err());
        assert!(Grid::new(10, 10, 10.0, 0.001, 0).is_err());
        assert!(Grid::new(10, 10, f64::NAN, 0.001, 100).is_err());
    }

    #[test]
    fn openfwi_default_matches_paper() {
        let g = Grid::openfwi_default();
        assert_eq!(g.nx(), 70);
        assert_eq!(g.nz(), 70);
        assert_eq!(g.nt(), 1000);
        assert_eq!(g.extent_x(), 700.0); // the paper's 0–700 m offset axis
    }

    #[test]
    fn courant_number() {
        let g = Grid::new(10, 10, 10.0, 0.001, 10).unwrap();
        assert!((g.courant(4500.0) - 0.45).abs() < 1e-12);
    }
}
