use std::error::Error;
use std::fmt;

/// Errors from forward-modelling configuration or execution.
///
/// # Examples
///
/// ```
/// use qugeo_wavesim::{Grid, WavesimError};
///
/// let err = Grid::new(0, 10, 10.0, 0.001, 100).unwrap_err();
/// assert!(matches!(err, WavesimError::InvalidGrid { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum WavesimError {
    /// Grid dimensions or step sizes are non-positive / degenerate.
    InvalidGrid {
        /// What was wrong.
        reason: String,
    },
    /// The CFL stability condition is violated for the given velocity.
    CflViolation {
        /// Maximum velocity in the model (m/s).
        max_velocity: f64,
        /// The Courant number that resulted.
        courant: f64,
        /// The stability limit for the chosen stencil.
        limit: f64,
    },
    /// A source or receiver is outside the grid.
    PositionOutOfGrid {
        /// Offending x index.
        ix: usize,
        /// Offending z index.
        iz: usize,
        /// Grid width.
        nx: usize,
        /// Grid depth.
        nz: usize,
    },
    /// The wavelet frequency is non-positive or unresolvable at `dt`.
    InvalidWavelet {
        /// What was wrong.
        reason: String,
    },
    /// The velocity model contains non-physical values.
    InvalidVelocity {
        /// What was wrong.
        reason: String,
    },
    /// The absorbing boundary cannot be built (a non-finite strength).
    InvalidSponge {
        /// What was wrong.
        reason: String,
    },
    /// A survey with no sources or no receivers.
    EmptySurvey,
}

impl fmt::Display for WavesimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidGrid { reason } => write!(f, "invalid grid: {reason}"),
            Self::CflViolation {
                max_velocity,
                courant,
                limit,
            } => write!(
                f,
                "cfl violation: vmax {max_velocity} m/s gives courant {courant:.3} > limit {limit:.3}"
            ),
            Self::PositionOutOfGrid { ix, iz, nx, nz } => {
                write!(f, "position ({ix}, {iz}) outside grid {nx}x{nz}")
            }
            Self::InvalidWavelet { reason } => write!(f, "invalid wavelet: {reason}"),
            Self::InvalidVelocity { reason } => write!(f, "invalid velocity model: {reason}"),
            Self::InvalidSponge { reason } => write!(f, "invalid sponge boundary: {reason}"),
            Self::EmptySurvey => write!(f, "survey needs at least one source and one receiver"),
        }
    }
}

impl Error for WavesimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = WavesimError::CflViolation {
            max_velocity: 4500.0,
            courant: 0.9,
            limit: 0.7,
        };
        assert!(e.to_string().contains("4500"));
        assert!(WavesimError::EmptySurvey.to_string().contains("survey"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<WavesimError>();
    }
}
