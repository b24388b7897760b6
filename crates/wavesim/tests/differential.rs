//! Differential suite: the solver must reproduce, bit for bit, the plain
//! per-cell loop its stencil kernel replaced.
//!
//! `oracle` holds that loop, frozen: `Solver::new`'s padding and per-cell
//! damping grid, then one indexed Laplacian per padded cell over a runtime
//! coefficient slice and a sponge pass that branches over every cell. Every
//! comparison is on `to_bits`, so a reassociated neighbour sum, a fused
//! multiply-add, a lost damped cell or damping applied to one time level
//! only fails here even when the values still agree to 1e-15.

use proptest::prelude::*;
use qugeo_tensor::Array2;
use qugeo_wavesim::{Grid, RickerWavelet, Solver, SpaceOrder, SpongeBoundary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The loop the solver replaced, kept verbatim as the reference.
mod oracle {
    use qugeo_tensor::Array2;
    use qugeo_wavesim::{Grid, RickerWavelet, SpaceOrder, SpongeBoundary};

    /// Gather (`nt × receivers`) and `(step, interior field)` snapshots of
    /// one shot.
    #[allow(clippy::too_many_arguments)]
    pub fn run_shot(
        velocity: &Array2,
        grid: &Grid,
        order: SpaceOrder,
        sponge: &SpongeBoundary,
        source: (usize, usize),
        wavelet: &RickerWavelet,
        receivers: &[(usize, usize)],
        snapshot_every: usize,
    ) -> (Array2, Vec<(usize, Array2)>) {
        let halo = order.half_width();
        let side = sponge.width() + halo;
        let off_x = side;
        let off_z = halo;
        let nx_pad = grid.nx() + 2 * side;
        let nz_pad = grid.nz() + halo + side;

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

        let mut damping = vec![1.0; nx_pad * nz_pad];
        let sponge_nx = nx_pad - 2 * halo;
        let sponge_nz = nz_pad - 2 * halo;
        for iz in 0..nz_pad {
            let sz = iz.saturating_sub(halo).min(sponge_nz.saturating_sub(1));
            for ix in 0..nx_pad {
                let sx = ix.saturating_sub(halo).min(sponge_nx.saturating_sub(1));
                damping[iz * nx_pad + ix] = sponge.factor(sx, sz, sponge_nx, sponge_nz);
            }
        }

        let n = nx_pad * nz_pad;
        let mut p_prev = vec![0.0; n];
        let mut p_cur = vec![0.0; n];
        let mut p_next = vec![0.0; n];

        let src_idx = (source.1 + off_z) * nx_pad + (source.0 + off_x);
        let rec_idx: Vec<usize> = receivers
            .iter()
            .map(|&(ix, iz)| (iz + off_z) * nx_pad + (ix + off_x))
            .collect();

        let coeffs = order.coefficients();
        let inv_dx2 = 1.0 / (grid.dx() * grid.dx());

        let nt = grid.nt();
        let mut gather = Array2::zeros(nt, receivers.len());
        let mut snapshots = Vec::new();

        for step in 0..nt {
            for iz in halo..nz_pad - halo {
                let row = iz * nx_pad;
                for ix in halo..nx_pad - halo {
                    let idx = row + ix;
                    let centre = p_cur[idx];
                    let mut lap = 2.0 * coeffs[0] * centre;
                    for (k, &a) in coeffs.iter().enumerate().skip(1) {
                        lap += a
                            * (p_cur[idx - k]
                                + p_cur[idx + k]
                                + p_cur[idx - k * nx_pad]
                                + p_cur[idx + k * nx_pad]);
                    }
                    lap *= inv_dx2;
                    p_next[idx] = 2.0 * centre - p_prev[idx] + vel2dt2[idx] * lap;
                }
            }

            p_next[src_idx] += wavelet.sample(step) * vel2dt2[src_idx] * inv_dx2;

            for iz in 0..halo {
                let row = iz * nx_pad;
                for ix in 0..nx_pad {
                    p_next[row + ix] = 0.0;
                }
            }

            for idx in 0..n {
                let d = damping[idx];
                if d != 1.0 {
                    p_next[idx] *= d;
                    p_cur[idx] *= d;
                }
            }

            for (r, &idx) in rec_idx.iter().enumerate() {
                gather[(step, r)] = p_next[idx];
            }

            if snapshot_every != usize::MAX && snapshot_every > 0 && step % snapshot_every == 0 {
                let interior = Array2::from_fn(grid.nz(), grid.nx(), |iz, ix| {
                    p_next[(iz + off_z) * nx_pad + (ix + off_x)]
                });
                snapshots.push((step, interior));
            }

            std::mem::swap(&mut p_prev, &mut p_cur);
            std::mem::swap(&mut p_cur, &mut p_next);
        }

        (gather, snapshots)
    }
}

const ORDERS: [SpaceOrder; 3] = [SpaceOrder::Order2, SpaceOrder::Order4, SpaceOrder::Order8];

/// One shot's inputs.
struct Shot {
    velocity: Array2,
    grid: Grid,
    order: SpaceOrder,
    sponge: SpongeBoundary,
    source: (usize, usize),
    wavelet: RickerWavelet,
    receivers: Vec<(usize, usize)>,
    snapshot_every: usize,
}

impl Shot {
    /// Runs the shot through the solver and the oracle and compares every
    /// gather sample and snapshot cell on `to_bits`.
    fn assert_matches_oracle(&self) {
        let solver = Solver::new(&self.velocity, &self.grid, self.order, self.sponge.clone())
            .expect("valid shot");
        let (gather, snapshots) = solver
            .run_shot_with_snapshots(
                self.source,
                &self.wavelet,
                &self.receivers,
                self.snapshot_every,
            )
            .expect("shot runs");
        let (ref_gather, ref_snapshots) = oracle::run_shot(
            &self.velocity,
            &self.grid,
            self.order,
            &self.sponge,
            self.source,
            &self.wavelet,
            &self.receivers,
            self.snapshot_every,
        );
        let what = format!(
            "{:?} {}x{} nt {} sponge {}/{} source {:?} every {}",
            self.order,
            self.grid.nx(),
            self.grid.nz(),
            self.grid.nt(),
            self.sponge.width(),
            self.sponge.strength(),
            self.source,
            self.snapshot_every
        );
        assert_bits(
            &format!("{what}: gather"),
            gather.as_slice(),
            ref_gather.as_slice(),
        );
        assert_eq!(
            snapshots.len(),
            ref_snapshots.len(),
            "{what}: snapshot count"
        );
        for (snap, (step, pressure)) in snapshots.iter().zip(&ref_snapshots) {
            assert_eq!(snap.step, *step, "{what}: snapshot step");
            assert_bits(
                &format!("{what}: snapshot {step}"),
                snap.pressure.as_slice(),
                pressure.as_slice(),
            );
        }
    }
}

fn assert_bits(what: &str, actual: &[f64], expected: &[f64]) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}[{i}]: {a:e} vs {e:e}");
    }
}

/// A layered model of 1–4 layers with velocities in 1500–4500 m/s.
fn layered_velocity(rng: &mut StdRng, nx: usize, nz: usize) -> Array2 {
    let layers = rng.gen_range(1..=4usize.min(nz));
    let mut tops: Vec<usize> = (1..layers).map(|_| rng.gen_range(1..nz.max(2))).collect();
    tops.sort_unstable();
    let speeds: Vec<f64> = (0..layers).map(|_| rng.gen_range(1500.0..4500.0)).collect();
    Array2::from_fn(nz, nx, |iz, _| {
        speeds[tops.iter().filter(|&&t| t <= iz).count()]
    })
}

/// A grid for `velocity` whose Courant number is a `courant_share` of the
/// order's stability limit, and a Ricker wavelet it resolves.
fn grid_and_wavelet(
    rng: &mut StdRng,
    velocity: &Array2,
    order: SpaceOrder,
    courant_share: f64,
    nt: usize,
) -> (Grid, RickerWavelet) {
    let (nz, nx) = velocity.shape();
    let dx = rng.gen_range(5.0..20.0);
    let dt = courant_share * order.cfl_limit() * dx / velocity.max();
    let grid = Grid::new(nx, nz, dx, dt, nt).expect("grid");
    let peak_hz = rng.gen_range(1.0..(0.1 / dt).min(40.0));
    let wavelet = RickerWavelet::new(peak_hz, dt).expect("wavelet");
    (grid, wavelet)
}

/// An interior position, drawn from the edges and corners half the time.
fn position(rng: &mut StdRng, nx: usize, nz: usize) -> (usize, usize) {
    let mut coord = |n: usize| match rng.gen_range(0..4u32) {
        0 => 0,
        1 => n - 1,
        _ => rng.gen_range(0..n),
    };
    (coord(nx), coord(nz))
}

/// A snapshot cadence: none (`0`, `usize::MAX`, beyond the run), every
/// step, or every few steps.
fn cadence(rng: &mut StdRng, nt: usize) -> usize {
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => usize::MAX,
        2 => 1,
        3 => nt + rng.gen_range(0..3),
        _ => rng.gen_range(2..12),
    }
}

fn random_shot(
    rng: &mut StdRng,
    nx: usize,
    nz: usize,
    order: SpaceOrder,
    sponge: SpongeBoundary,
) -> Shot {
    let velocity = layered_velocity(rng, nx, nz);
    let nt = rng.gen_range(1..120usize);
    let courant_share = rng.gen_range(0.2..0.99);
    let (grid, wavelet) = grid_and_wavelet(rng, &velocity, order, courant_share, nt);
    let source = position(rng, nx, nz);
    let receivers = (0..rng.gen_range(1..7usize))
        .map(|_| position(rng, nx, nz))
        .collect();
    Shot {
        velocity,
        grid,
        order,
        sponge,
        source,
        wavelet,
        receivers,
        snapshot_every: cadence(rng, nt),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_grids_match_the_frozen_loop(
        nx in 1usize..40,
        nz in 1usize..40,
        order in 0usize..3,
        width in 0usize..26,
        strength in 0.0f64..6.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        random_shot(&mut rng, nx, nz, ORDERS[order], SpongeBoundary::new(width, strength))
            .assert_matches_oracle();
    }
}

#[test]
fn tiny_grids_match_the_frozen_loop() {
    // 1×1 up to 3×3: the source, every receiver and the whole interior sit
    // on the sponge's inner edge.
    let mut rng = StdRng::seed_from_u64(1);
    for nx in 1..=3 {
        for nz in 1..=3 {
            for order in ORDERS {
                let mut shot = random_shot(&mut rng, nx, nz, order, SpongeBoundary::new(4, 3.0));
                shot.snapshot_every = 1;
                shot.assert_matches_oracle();
            }
        }
    }
}

#[test]
fn every_sponge_width_matches_the_frozen_loop() {
    let mut rng = StdRng::seed_from_u64(2);
    for width in 0..=25 {
        let strength = [0.0, 0.5, 3.0, 8.0][width % 4];
        for order in ORDERS {
            let mut shot = random_shot(&mut rng, 9, 7, order, SpongeBoundary::new(width, strength));
            shot.grid = Grid::new(9, 7, shot.grid.dx(), shot.grid.dt(), 90).expect("grid");
            shot.assert_matches_oracle();
        }
    }
}

#[test]
fn corner_and_edge_positions_match_the_frozen_loop() {
    let mut rng = StdRng::seed_from_u64(3);
    let (nx, nz) = (13, 11);
    let corners = [(0, 0), (nx - 1, 0), (0, nz - 1), (nx - 1, nz - 1)];
    let edges = [(nx / 2, 0), (0, nz / 2), (nx - 1, nz / 2), (nx / 2, nz - 1)];
    let receivers: Vec<_> = corners.iter().chain(&edges).copied().collect();
    for order in ORDERS {
        for &source in corners.iter().chain(&edges) {
            let mut shot = random_shot(&mut rng, nx, nz, order, SpongeBoundary::new(3, 2.5));
            shot.grid = Grid::new(nx, nz, shot.grid.dx(), shot.grid.dt(), 70).expect("grid");
            shot.source = source;
            shot.receivers = receivers.clone();
            shot.assert_matches_oracle();
        }
    }
}

#[test]
fn paper_geometry_matches_the_frozen_loop() {
    // 70 × 70 cells of 10 m at 1 ms, the default sponge, a surface survey
    // and the snapshot cadence of the examples; 250 steps carry the direct
    // wave into the side sponges.
    let mut rng = StdRng::seed_from_u64(4);
    for order in ORDERS {
        let velocity = layered_velocity(&mut rng, 70, 70);
        let grid = Grid::new(70, 70, 10.0, 0.001, 250).expect("grid");
        Shot {
            velocity,
            grid,
            order,
            sponge: SpongeBoundary::default(),
            source: (rng.gen_range(0..70), 1),
            wavelet: RickerWavelet::new(15.0, grid.dt()).expect("wavelet"),
            receivers: (0..70).map(|ix| (ix, 1)).collect(),
            snapshot_every: 50,
        }
        .assert_matches_oracle();
    }
}
