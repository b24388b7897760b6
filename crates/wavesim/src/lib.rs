//! 2-D acoustic wave-equation forward modelling.
//!
//! This crate is the physics substrate of the QuGeo reproduction. The
//! paper's "QuGeoData" component regenerates seismic data from downsampled
//! velocity maps by solving the constant-density acoustic wave equation
//! (its Eq. 1)
//!
//! ```text
//! ∇²p − (1/c²) ∂²p/∂t² = s
//! ```
//!
//! with finite differences and absorbing boundaries, following the KAUST
//! FD 2-8 modelling lab the paper cites. Here that is:
//!
//! * [`RickerWavelet`] — the standard band-limited seismic source,
//! * [`Grid`] — spatial/temporal discretisation with CFL validation,
//! * [`SpongeBoundary`] — Cerjan-style absorbing boundary strips,
//! * [`Solver`] — 2nd-order-in-time, 2nd/4th/8th-order-in-space stepping,
//! * [`Survey`] / [`model_shots`] — source–receiver geometry and shot
//!   gather recording, producing the `(sources × time × receivers)` cubes
//!   the OpenFWI layout uses.
//!
//! # Examples
//!
//! ```
//! use qugeo_tensor::Array2;
//! use qugeo_wavesim::{model_shots, Grid, RickerWavelet, SpaceOrder, Survey};
//!
//! # fn main() -> Result<(), qugeo_wavesim::WavesimError> {
//! let velocity = Array2::filled(40, 40, 2500.0); // homogeneous 2.5 km/s
//! let grid = Grid::new(40, 40, 10.0, 0.001, 300)?;
//! let survey = Survey::surface(40, 2, 40, 1)?;
//! let wavelet = RickerWavelet::new(15.0, grid.dt())?;
//! let gather = model_shots(&velocity, &grid, &survey, &wavelet, SpaceOrder::Order4)?;
//! assert_eq!(gather.shape(), (2, 300, 40)); // sources × time × receivers
//! # Ok(())
//! # }
//! ```

mod boundary;
mod error;
mod grid;
mod ricker;
mod solver;
mod survey;

pub use boundary::SpongeBoundary;
pub use error::WavesimError;
pub use grid::Grid;
pub use ricker::RickerWavelet;
pub use solver::{Solver, SpaceOrder, WavefieldSnapshot};
pub use survey::{model_shot, model_shots, Survey};
