use qugeo_tensor::Array2;

use crate::{Grid, RickerWavelet, SpongeBoundary, WavesimError};

/// Spatial accuracy of the Laplacian stencil.
///
/// The KAUST modelling lab the paper follows is a "2-8" code: 2nd-order
/// in time, up to 8th-order in space. Higher orders resolve shorter
/// wavelengths per grid cell at slightly higher cost and a tighter CFL
/// limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpaceOrder {
    /// 3-point stencil per axis.
    Order2,
    /// 5-point stencil per axis.
    #[default]
    Order4,
    /// 9-point stencil per axis.
    Order8,
}

impl SpaceOrder {
    /// Half-width of the stencil (cells of halo needed per side).
    pub fn half_width(&self) -> usize {
        match self {
            Self::Order2 => 1,
            Self::Order4 => 2,
            Self::Order8 => 4,
        }
    }

    /// Central-difference coefficients `[a₀, a₁, …]` for the second
    /// derivative, where `a₀` is the centre weight and `aₖ` multiplies the
    /// neighbours at distance `k` (applied symmetrically).
    pub fn coefficients(&self) -> &'static [f64] {
        match self {
            Self::Order2 => &[-2.0, 1.0],
            Self::Order4 => &[-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0],
            Self::Order8 => &[
                -205.0 / 72.0,
                8.0 / 5.0,
                -1.0 / 5.0,
                8.0 / 315.0,
                -1.0 / 560.0,
            ],
        }
    }

    /// The 2-D CFL stability limit on the Courant number `c·dt/dx`:
    /// `√(4 / (2 · Σ|aₖ|))` (the centre weight counted once per axis).
    pub fn cfl_limit(&self) -> f64 {
        let coeffs = self.coefficients();
        let sum_abs: f64 = coeffs[0].abs() + 2.0 * coeffs[1..].iter().map(|c| c.abs()).sum::<f64>();
        (4.0 / (2.0 * sum_abs)).sqrt()
    }
}

/// A snapshot of the interior pressure field at one time step, used for
/// visualisation and physical sanity checks.
#[derive(Debug, Clone, PartialEq)]
pub struct WavefieldSnapshot {
    /// Time step index the snapshot was taken at.
    pub step: usize,
    /// Interior pressure field (`nz × nx`).
    pub pressure: Array2,
}

/// An acoustic FDTD forward-modelling engine for one velocity model.
///
/// The solver integrates `∂²p/∂t² = c²∇²p + s` (the paper's Eq. 1 solved
/// for the pressure update) with:
///
/// * 2nd-order leapfrog time stepping,
/// * a selectable-order Laplacian ([`SpaceOrder`]),
/// * a free surface on top (pressure pinned to zero, as in OpenFWI), and
/// * [`SpongeBoundary`] absorbing strips on the remaining edges.
///
/// A time step is one pass over the padded grid: the sponge's damping is
/// applied inside the stencil update, and the free surface is the top
/// stencil halo, which no step writes. The pass is compiled twice, for
/// the baseline instruction set and for AVX2; each shot runs the AVX2
/// copy where the CPU has it. Both copies give the same bits.
///
/// # Examples
///
/// ```
/// use qugeo_tensor::Array2;
/// use qugeo_wavesim::{Grid, RickerWavelet, Solver, SpaceOrder, SpongeBoundary};
///
/// # fn main() -> Result<(), qugeo_wavesim::WavesimError> {
/// let velocity = Array2::filled(40, 40, 3000.0);
/// let grid = Grid::new(40, 40, 10.0, 0.001, 200)?;
/// let solver = Solver::new(&velocity, &grid, SpaceOrder::Order4, SpongeBoundary::default())?;
/// let wavelet = RickerWavelet::new(15.0, grid.dt())?;
/// let gather = solver.run_shot((20, 1), &wavelet, &[(5, 1), (35, 1)])?;
/// assert_eq!(gather.shape(), (200, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    grid: Grid,
    order: SpaceOrder,
    sponge: SpongeBoundary,
    /// `c² · dt²` per padded cell.
    vel2dt2: Vec<f64>,
    /// Sponge damping factor per padded cell: below 1.0 inside the
    /// sponge strips, exactly 1.0 in the interior and the halo.
    damping: Vec<f64>,
    nx_pad: usize,
    nz_pad: usize,
    /// Offset of the interior's first cell inside the padded grid (x).
    off_x: usize,
    /// Offset of the interior's first cell inside the padded grid (z).
    off_z: usize,
}

impl Solver {
    /// Builds a solver for the given velocity model (`nz × nx`, m/s).
    ///
    /// # Errors
    ///
    /// * [`WavesimError::InvalidVelocity`] if the model shape disagrees
    ///   with the grid or contains non-positive / non-finite velocities.
    /// * [`WavesimError::CflViolation`] if `max(c)·dt/dx` exceeds the
    ///   stencil's stability limit.
    /// * [`WavesimError::InvalidSponge`] if the sponge strength is not
    ///   finite.
    pub fn new(
        velocity: &Array2,
        grid: &Grid,
        order: SpaceOrder,
        sponge: SpongeBoundary,
    ) -> Result<Self, WavesimError> {
        if velocity.shape() != (grid.nz(), grid.nx()) {
            return Err(WavesimError::InvalidVelocity {
                reason: format!(
                    "velocity shape {:?} != grid ({}, {})",
                    velocity.shape(),
                    grid.nz(),
                    grid.nx()
                ),
            });
        }
        let mut vmax: f64 = 0.0;
        for &v in velocity.iter() {
            if !(v > 0.0 && v.is_finite()) {
                return Err(WavesimError::InvalidVelocity {
                    reason: format!("velocity {v} is not positive and finite"),
                });
            }
            vmax = vmax.max(v);
        }
        if !sponge.strength().is_finite() {
            return Err(WavesimError::InvalidSponge {
                reason: format!("strength {} is not finite", sponge.strength()),
            });
        }
        let courant = grid.courant(vmax);
        let limit = order.cfl_limit();
        if courant > limit {
            return Err(WavesimError::CflViolation {
                max_velocity: vmax,
                courant,
                limit,
            });
        }

        let halo = order.half_width();
        let side = sponge.width() + halo;
        let off_x = side;
        let off_z = halo; // free surface on top: only the stencil halo
        let nx_pad = grid.nx() + 2 * side;
        let nz_pad = grid.nz() + halo + side; // halo on top, sponge+halo below

        // Extend the velocity into the padding by edge replication and
        // precompute c²·dt².
        let dt2 = grid.dt() * grid.dt();
        let mut vel2dt2 = vec![0.0; nx_pad * nz_pad];
        for iz in 0..nz_pad {
            let src_z = iz.saturating_sub(off_z).min(grid.nz().saturating_sub(1));
            for ix in 0..nx_pad {
                let src_x = ix.saturating_sub(off_x).min(grid.nx().saturating_sub(1));
                let c = velocity[(src_z, src_x)];
                vel2dt2[iz * nx_pad + ix] = c * c * dt2;
            }
        }

        // Sponge damping lives inside the sponge strips, which start
        // after the stencil halo; express it on the sponge's own grid
        // (padded minus halo). The halo keeps 1.0: no step writes it.
        let sponge_nx = nx_pad - 2 * halo;
        let sponge_nz = nz_pad - 2 * halo;
        let mut damping = vec![1.0; nx_pad * nz_pad];
        for iz in halo..nz_pad - halo {
            for ix in halo..nx_pad - halo {
                damping[iz * nx_pad + ix] =
                    sponge.factor(ix - halo, iz - halo, sponge_nx, sponge_nz);
            }
        }

        Ok(Self {
            grid: *grid,
            order,
            sponge,
            vel2dt2,
            damping,
            nx_pad,
            nz_pad,
            off_x,
            off_z,
        })
    }

    /// The grid this solver was built for.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The spatial stencil order in use.
    pub fn order(&self) -> SpaceOrder {
        self.order
    }

    /// The absorbing boundary configuration.
    pub fn sponge(&self) -> &SpongeBoundary {
        &self.sponge
    }

    fn check_pos(&self, ix: usize, iz: usize) -> Result<(), WavesimError> {
        if ix >= self.grid.nx() || iz >= self.grid.nz() {
            return Err(WavesimError::PositionOutOfGrid {
                ix,
                iz,
                nx: self.grid.nx(),
                nz: self.grid.nz(),
            });
        }
        Ok(())
    }

    /// Simulates one shot: a source at interior cell `(ix, iz)` emitting
    /// the wavelet, recording pressure at each receiver every time step.
    ///
    /// Returns a `nt × n_receivers` gather.
    ///
    /// # Errors
    ///
    /// * [`WavesimError::PositionOutOfGrid`] for out-of-grid source or
    ///   receiver positions.
    /// * [`WavesimError::EmptySurvey`] if `receivers` is empty.
    /// * [`WavesimError::InvalidWavelet`] if the wavelet is sampled at a
    ///   step other than the grid's `dt`.
    pub fn run_shot(
        &self,
        source: (usize, usize),
        wavelet: &RickerWavelet,
        receivers: &[(usize, usize)],
    ) -> Result<Array2, WavesimError> {
        let (gather, _) = self.run_shot_with_snapshots(source, wavelet, receivers, usize::MAX)?;
        Ok(gather)
    }

    /// Like [`Solver::run_shot`], additionally returning interior
    /// wavefield snapshots every `snapshot_every` steps (pass
    /// `usize::MAX` for none).
    ///
    /// # Errors
    ///
    /// Same as [`Solver::run_shot`].
    pub fn run_shot_with_snapshots(
        &self,
        source: (usize, usize),
        wavelet: &RickerWavelet,
        receivers: &[(usize, usize)],
        snapshot_every: usize,
    ) -> Result<(Array2, Vec<WavefieldSnapshot>), WavesimError> {
        if receivers.is_empty() {
            return Err(WavesimError::EmptySurvey);
        }
        if wavelet.dt() != self.grid.dt() {
            return Err(WavesimError::InvalidWavelet {
                reason: format!(
                    "wavelet sampled at dt {} but the grid steps {}",
                    wavelet.dt(),
                    self.grid.dt()
                ),
            });
        }
        self.check_pos(source.0, source.1)?;
        for &(ix, iz) in receivers {
            self.check_pos(ix, iz)?;
        }

        let n = self.nx_pad * self.nz_pad;
        let mut p_prev = vec![0.0; n];
        let mut p_cur = vec![0.0; n];
        let mut p_next = vec![0.0; n];

        let src_idx = (source.1 + self.off_z) * self.nx_pad + (source.0 + self.off_x);
        let rec_idx: Vec<usize> = receivers
            .iter()
            .map(|&(ix, iz)| (iz + self.off_z) * self.nx_pad + (ix + self.off_x))
            .collect();

        let coeffs = self.order.coefficients();
        let inv_dx2 = 1.0 / (self.grid.dx() * self.grid.dx());
        let medium = Medium {
            vel2dt2: &self.vel2dt2,
            damping: &self.damping,
        };
        let stencil = match self.order {
            SpaceOrder::Order2 => stencil_for::<1>(),
            SpaceOrder::Order4 => stencil_for::<2>(),
            SpaceOrder::Order8 => stencil_for::<4>(),
        };

        let nt = self.grid.nt();
        let mut gather = Array2::zeros(nt, receivers.len());
        let mut snapshots = Vec::new();

        for step in 0..nt {
            // Laplacian + leapfrog update + sponge over the non-halo
            // region; `p_cur` becomes damped as it is read back as
            // `prev` next step.
            stencil(
                &mut p_next,
                &p_cur,
                &p_prev,
                medium,
                self.nx_pad,
                coeffs,
                inv_dx2,
            );

            // Source injection (scaled like the velocity term so the
            // update stays dimensionally consistent). The source sits in
            // the interior, where the sponge factor is 1.0.
            p_next[src_idx] += wavelet.sample(step) * self.vel2dt2[src_idx] * inv_dx2;

            // Record receivers from the freshly computed field.
            for (r, &idx) in rec_idx.iter().enumerate() {
                gather[(step, r)] = p_next[idx];
            }

            if snapshot_every != usize::MAX && snapshot_every > 0 && step % snapshot_every == 0 {
                snapshots.push(WavefieldSnapshot {
                    step,
                    pressure: self.interior(&p_next),
                });
            }

            std::mem::swap(&mut p_prev, &mut p_cur);
            std::mem::swap(&mut p_cur, &mut p_next);
        }

        Ok((gather, snapshots))
    }

    /// Copies the interior (unpadded) region of a padded field.
    fn interior(&self, field: &[f64]) -> Array2 {
        Array2::from_fn(self.grid.nz(), self.grid.nx(), |iz, ix| {
            field[(iz + self.off_z) * self.nx_pad + (ix + self.off_x)]
        })
    }
}

/// The per-cell constants a step reads, over the padded grid.
#[derive(Clone, Copy)]
struct Medium<'a> {
    /// `c²·dt²`.
    vel2dt2: &'a [f64],
    /// Sponge damping factor, 1.0 outside the sponge.
    damping: &'a [f64],
}

/// One step of a padded field: `(next, cur, prev, medium, padded width,
/// coefficients, 1/dx²)`.
type StencilStep = fn(&mut [f64], &[f64], &[f64], Medium<'_>, usize, &[f64], f64);

/// The compilation of [`stencil_step::<H>`](stencil_step) a shot runs:
/// the AVX2 copy where this CPU has AVX2, else the portable one. Both
/// give the same bits, so the choice needs no knob.
fn stencil_for<const H: usize>() -> StencilStep {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return |next, cur, prev, medium, nx_pad, coeffs, inv_dx2| {
            // SAFETY: this closure is returned only after AVX2 was
            // detected on the running CPU, which is all the AVX2 copy
            // needs beyond the portable one's contract.
            unsafe { stencil_step_avx2::<H>(next, cur, prev, medium, nx_pad, coeffs, inv_dx2) }
        };
    }
    stencil_step::<H>
}

/// [`stencil_step::<H>`](stencil_step) compiled with AVX2 enabled, so its
/// cell loop runs four `f64` lanes per instruction. FMA stays off, so
/// this copy has no instruction that could fuse a `*` and a `+` into one
/// rounding.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn stencil_step_avx2<const H: usize>(
    next: &mut [f64],
    cur: &[f64],
    prev: &[f64],
    medium: Medium<'_>,
    nx_pad: usize,
    coeffs: &[f64],
    inv_dx2: f64,
) {
    stencil_step::<H>(next, cur, prev, medium, nx_pad, coeffs, inv_dx2);
}

/// One leapfrog step of every non-halo cell for a stencil of half-width
/// `H`, one padded row at a time, with the sponge applied in the same
/// pass.
///
/// Each row is read through equal-length slices of the centre row, the
/// rows `±1…±H` away, `prev`, `c²·dt²` and the damping factor `d`, so
/// the cell loop carries no index arithmetic. Every cell keeps the
/// operation order of the frozen per-cell reference loop in
/// `tests/differential.rs`, one rounding per `*` or `+` (never a fused
/// multiply-add), so results are bit-identical to it:
/// `lap = (2·a₀)·c`, then `lap += aₖ·(((x₋ₖ + x₊ₖ) + z₋ₖ) + z₊ₖ)` for
/// `k = 1..=H`, then `lap *= 1/dx²`, then
/// `next = (((2·c) − prev·d) + vel2dt2·lap)·d`.
///
/// The reference loop damps `next` and `cur` in a pass of its own after
/// the update. Here `next` is damped as it is written, and `cur` where
/// it is next read, as `prev` one step on: `prev·d` is the very product
/// the reference stored. Outside the sponge `d` is 1.0, and multiplying
/// by it is exact.
///
/// `#[inline(always)]` puts a copy of the body into each caller, so
/// [`stencil_step_avx2`] compiles it for AVX2.
#[inline(always)]
fn stencil_step<const H: usize>(
    next: &mut [f64],
    cur: &[f64],
    prev: &[f64],
    medium: Medium<'_>,
    nx_pad: usize,
    coeffs: &[f64],
    inv_dx2: f64,
) {
    let two_a0 = 2.0 * coeffs[0];
    let a: [f64; H] = std::array::from_fn(|k| coeffs[k + 1]);
    let width = nx_pad - 2 * H;
    let nz_pad = cur.len() / nx_pad;
    for iz in H..nz_pad - H {
        let row = iz * nx_pad;
        let centre_row = &cur[row..row + nx_pad];
        let centre = &centre_row[H..H + width];
        let left: [&[f64]; H] = std::array::from_fn(|k| &centre_row[H - 1 - k..][..width]);
        let right: [&[f64]; H] = std::array::from_fn(|k| &centre_row[H + 1 + k..][..width]);
        let up: [&[f64]; H] = std::array::from_fn(|k| &cur[row - (k + 1) * nx_pad + H..][..width]);
        let down: [&[f64]; H] =
            std::array::from_fn(|k| &cur[row + (k + 1) * nx_pad + H..][..width]);
        let prev = &prev[row + H..][..width];
        let vel = &medium.vel2dt2[row + H..][..width];
        let damping = &medium.damping[row + H..][..width];
        let next = &mut next[row + H..][..width];
        for j in 0..width {
            let c = centre[j];
            let d = damping[j];
            let mut lap = two_a0 * c;
            for k in 0..H {
                lap += a[k] * (((left[k][j] + right[k][j]) + up[k][j]) + down[k][j]);
            }
            lap *= inv_dx2;
            next[j] = ((2.0 * c - prev[j] * d) + vel[j] * lap) * d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn homogeneous(nx: usize, nz: usize, c: f64) -> Array2 {
        Array2::filled(nz, nx, c)
    }

    #[test]
    fn cfl_limits_ordered() {
        assert!(SpaceOrder::Order2.cfl_limit() > SpaceOrder::Order4.cfl_limit());
        assert!(SpaceOrder::Order4.cfl_limit() > SpaceOrder::Order8.cfl_limit());
        assert!((SpaceOrder::Order2.cfl_limit() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn stencil_coefficients_sum_to_zero() {
        // A second-derivative stencil annihilates constants.
        for order in [SpaceOrder::Order2, SpaceOrder::Order4, SpaceOrder::Order8] {
            let c = order.coefficients();
            let total = c[0] + 2.0 * c[1..].iter().sum::<f64>();
            assert!(total.abs() < 1e-12, "{order:?} sums to {total}");
            assert_eq!(c.len() - 1, order.half_width());
        }
    }

    #[test]
    fn rejects_cfl_violation() {
        let vel = homogeneous(20, 20, 4500.0);
        // dt too large: courant = 4500 * 0.01 / 10 = 4.5.
        let grid = Grid::new(20, 20, 10.0, 0.01, 10).unwrap();
        assert!(matches!(
            Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()),
            Err(WavesimError::CflViolation { .. })
        ));
    }

    #[test]
    fn rejects_bad_velocity() {
        let grid = Grid::new(10, 10, 10.0, 0.001, 10).unwrap();
        let wrong_shape = homogeneous(5, 10, 2000.0);
        assert!(Solver::new(
            &wrong_shape,
            &grid,
            SpaceOrder::Order2,
            SpongeBoundary::default()
        )
        .is_err());
        let mut negative = homogeneous(10, 10, 2000.0);
        negative[(3, 3)] = -100.0;
        assert!(Solver::new(
            &negative,
            &grid,
            SpaceOrder::Order2,
            SpongeBoundary::default()
        )
        .is_err());
    }

    #[test]
    fn rejects_a_non_finite_sponge_strength() {
        // A NaN strength makes every sponge factor NaN, which spreads
        // into the interior and most of the gather.
        let vel = homogeneous(20, 20, 2000.0);
        let grid = Grid::new(20, 20, 10.0, 0.001, 10).unwrap();
        let build = |strength| {
            Solver::new(
                &vel,
                &grid,
                SpaceOrder::Order4,
                SpongeBoundary::new(20, strength),
            )
        };
        for strength in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                build(strength),
                Err(WavesimError::InvalidSponge { .. })
            ));
        }
        assert!(build(0.0).is_ok());
    }

    #[test]
    fn rejects_a_wavelet_sampled_at_another_step() {
        // A wavelet at another dt would inject a mis-timed source.
        let vel = homogeneous(20, 20, 2000.0);
        let grid = Grid::new(20, 20, 10.0, 0.001, 10).unwrap();
        let s = Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()).unwrap();
        let coarse = RickerWavelet::new(15.0, 0.002).unwrap();
        assert!(matches!(
            s.run_shot((5, 1), &coarse, &[(10, 1)]),
            Err(WavesimError::InvalidWavelet { .. })
        ));
        assert!(matches!(
            s.run_shot_with_snapshots((5, 1), &coarse, &[(10, 1)], 1),
            Err(WavesimError::InvalidWavelet { .. })
        ));
        let matching = RickerWavelet::new(15.0, grid.dt()).unwrap();
        assert!(s.run_shot((5, 1), &matching, &[(10, 1)]).is_ok());
    }

    #[test]
    fn rejects_out_of_grid_positions() {
        let vel = homogeneous(20, 20, 2000.0);
        let grid = Grid::new(20, 20, 10.0, 0.001, 10).unwrap();
        let s = Solver::new(&vel, &grid, SpaceOrder::Order2, SpongeBoundary::default()).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        assert!(s.run_shot((25, 1), &w, &[(5, 1)]).is_err());
        assert!(s.run_shot((5, 1), &w, &[(25, 1)]).is_err());
        assert!(s.run_shot((5, 1), &w, &[]).is_err());
    }

    #[test]
    fn wave_arrives_at_travel_time() {
        // Homogeneous 2000 m/s, source and receiver 200 m apart on the
        // same row: direct arrival at ~0.1 s plus wavelet delay.
        let c = 2000.0;
        let vel = homogeneous(60, 60, c);
        let grid = Grid::new(60, 60, 10.0, 0.001, 400).unwrap();
        let solver =
            Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        let gather = solver.run_shot((20, 30), &w, &[(40, 30)]).unwrap();

        let trace = gather.column(0);
        let peak_amp = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak_amp > 0.0, "wave never arrived");
        // The wavelet's main lobe travels at speed c, so within the early
        // window (before the free-surface reflection arrives ~0.36 s) the
        // |trace| maximum sits at travel time + wavelet delay.
        let window = 250; // 0.25 s
        let peak_step = trace[..window]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, _)| i)
            .expect("non-empty trace");
        let expected = 200.0 / c + w.delay();
        let arrival_t = peak_step as f64 * grid.dt();
        assert!(
            (arrival_t - expected).abs() < 0.025,
            "peak at {arrival_t:.3}s vs expected {expected:.3}s"
        );
    }

    #[test]
    fn closer_receiver_arrives_earlier() {
        let vel = homogeneous(60, 40, 2500.0);
        let grid = Grid::new(60, 40, 10.0, 0.001, 300).unwrap();
        let solver =
            Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        let gather = solver
            .run_shot((10, 20), &w, &[(20, 20), (50, 20)])
            .unwrap();

        let first_arrival = |col: usize| {
            let trace = gather.column(col);
            let peak = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            trace.iter().position(|v| v.abs() > 0.2 * peak).unwrap()
        };
        assert!(first_arrival(0) < first_arrival(1));
    }

    #[test]
    fn sponge_absorbs_boundary_energy() {
        // Compare late-time energy with and without the sponge: the
        // absorbing run must retain less energy after the wave has hit
        // the sides.
        let vel = homogeneous(40, 40, 3000.0);
        let grid = Grid::new(40, 40, 10.0, 0.001, 600).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();

        let energy_of = |sponge: SpongeBoundary| {
            let solver = Solver::new(&vel, &grid, SpaceOrder::Order4, sponge).unwrap();
            let (_, snaps) = solver
                .run_shot_with_snapshots((20, 20), &w, &[(5, 5)], 599)
                .unwrap();
            let last = &snaps.last().unwrap().pressure;
            last.iter().map(|v| v * v).sum::<f64>()
        };

        let absorbed = energy_of(SpongeBoundary::new(20, 3.0));
        let reflecting = energy_of(SpongeBoundary::new(0, 0.0));
        assert!(
            absorbed < reflecting * 0.5,
            "sponge left {absorbed:.3e}, reflecting kept {reflecting:.3e}"
        );
    }

    #[test]
    fn acoustic_reciprocity_in_homogeneous_medium() {
        // Swapping source and receiver yields (numerically) the same
        // trace in a homogeneous medium away from boundaries.
        let vel = homogeneous(50, 50, 2500.0);
        let grid = Grid::new(50, 50, 10.0, 0.001, 250).unwrap();
        let solver =
            Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();

        let a = solver.run_shot((15, 25), &w, &[(35, 25)]).unwrap();
        let b = solver.run_shot((35, 25), &w, &[(15, 25)]).unwrap();
        let ta = a.column(0);
        let tb = b.column(0);
        let peak = ta.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (x, y) in ta.iter().zip(&tb) {
            assert!(
                (x - y).abs() < 1e-6 * peak.max(1e-30),
                "reciprocity violated"
            );
        }
    }

    #[test]
    fn faster_medium_arrives_earlier() {
        let grid = Grid::new(60, 40, 10.0, 0.001, 300).unwrap();
        let w = RickerWavelet::new(15.0, grid.dt()).unwrap();
        let arrival = |c: f64| {
            let vel = homogeneous(60, 40, c);
            let solver =
                Solver::new(&vel, &grid, SpaceOrder::Order4, SpongeBoundary::default()).unwrap();
            let g = solver.run_shot((10, 20), &w, &[(50, 20)]).unwrap();
            let trace = g.column(0);
            let peak = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            trace.iter().position(|v| v.abs() > 0.2 * peak).unwrap()
        };
        assert!(arrival(3500.0) < arrival(1800.0));
    }

    #[test]
    fn higher_order_stencils_agree_on_smooth_field() {
        // All stencil orders should produce similar traces for a smooth,
        // well-resolved wave.
        let vel = homogeneous(50, 50, 2500.0);
        let grid = Grid::new(50, 50, 10.0, 0.001, 250).unwrap();
        let w = RickerWavelet::new(12.0, grid.dt()).unwrap();
        let trace = |order: SpaceOrder| {
            let solver = Solver::new(&vel, &grid, order, SpongeBoundary::default()).unwrap();
            solver
                .run_shot((15, 25), &w, &[(35, 25)])
                .unwrap()
                .column(0)
        };
        let t4 = trace(SpaceOrder::Order4);
        let t8 = trace(SpaceOrder::Order8);
        let peak = t4.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let rms_diff = (t4
            .iter()
            .zip(&t8)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / t4.len() as f64)
            .sqrt();
        assert!(
            rms_diff < 0.08 * peak,
            "order-4 and order-8 diverge: rms {rms_diff:.3e} vs peak {peak:.3e}"
        );
    }

    /// Runs the portable and the AVX2 compilation of `stencil_step::<H>`
    /// on the same random fields, for interior row widths 1–13 (every
    /// tail length mod 4), and compares every cell of `next` on
    /// `to_bits`, the untouched halo included.
    #[cfg(target_arch = "x86_64")]
    fn compilations_agree<const H: usize>(order: SpaceOrder, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;

        assert!(std::arch::is_x86_feature_detected!("avx2"));
        assert_eq!(order.half_width(), H);
        let coeffs = order.coefficients();
        for width in 1..=13 {
            let nx_pad = width + 2 * H;
            let n = nx_pad * (2 * H + 3);
            let mut field =
                |lo: f64, hi: f64| -> Vec<f64> { (0..n).map(|_| rng.gen_range(lo..hi)).collect() };
            let cur = field(-1.0, 1.0);
            let prev = field(-1.0, 1.0);
            let vel2dt2 = field(0.0, 0.5);
            let mut damping = field(0.0, 1.0);
            let start = field(-1.0, 1.0);
            for d in damping.iter_mut().step_by(2) {
                *d = 1.0;
            }
            let medium = Medium {
                vel2dt2: &vel2dt2,
                damping: &damping,
            };
            let inv_dx2 = rng.gen_range(1e-3..1e-1);

            let mut portable = start.clone();
            stencil_step::<H>(&mut portable, &cur, &prev, medium, nx_pad, coeffs, inv_dx2);
            let mut avx2 = start.clone();
            // SAFETY: AVX2 was detected at the top of this function.
            unsafe {
                stencil_step_avx2::<H>(&mut avx2, &cur, &prev, medium, nx_pad, coeffs, inv_dx2)
            };
            for (i, (p, v)) in portable.iter().zip(&avx2).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    v.to_bits(),
                    "H {H} width {width} cell {i}: {p:e} vs {v:e}"
                );
            }
            assert_ne!(portable, start, "H {H} width {width}: no cell was written");
        }
    }

    #[test]
    fn portable_and_avx2_stencils_agree_to_the_bit() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            use rand::SeedableRng;

            let mut rng = rand::rngs::StdRng::seed_from_u64(23);
            compilations_agree::<1>(SpaceOrder::Order2, &mut rng);
            compilations_agree::<2>(SpaceOrder::Order4, &mut rng);
            compilations_agree::<4>(SpaceOrder::Order8, &mut rng);
            return;
        }
        eprintln!("skipped: this CPU has no AVX2 copy of the stencil to compare");
    }
}
