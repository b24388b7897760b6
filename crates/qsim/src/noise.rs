//! NISQ noise modelling: stochastic Pauli channels, readout error and
//! finite-shot statistics.
//!
//! The paper positions QuGeoVQC as "key to achieving practical usage of
//! near-term noisy quantum computers". This module defines the device
//! imperfections; execution under them is a
//! [`QuantumBackend`](crate::backend::QuantumBackend), so every `_with`
//! entry point, inference session and trainer can be re-run under them
//! by swapping the backend:
//!
//! * [`NoiseModel`] — depolarizing probabilities for one- and two-qubit
//!   operations plus a symmetric readout bit-flip probability, executed
//!   by [`NoisyBackend`](crate::backend::NoisyBackend);
//! * [`apply_readout_flip`] — the readout-error map on a distribution;
//! * [`sample_counts`] / [`empirical_probabilities`] — finite-shot
//!   measurement statistics, as drawn by
//!   [`ShotSamplerBackend`](crate::backend::ShotSamplerBackend).
//!
//! # Noise granularity
//!
//! Noise is inserted once per **fused op** of the compiled circuit, not
//! once per source gate: after compilation each fused op stands in for
//! one hardware-native gate. A single-qubit fused op draws the
//! single-qubit channel on its qubit; a two-qubit fused op draws the
//! two-qubit channel on each of its two qubits. The paper ansatz has 192
//! source gates but 97 fused ops under plain compilation
//! ([`Circuit::compile`](crate::Circuit::compile)) and 96 with the
//! optimizer passes (pinned by the `fusion` test
//! `fusion_halves_op_count_on_u3_cu3_blocks` and the `passes` test
//! `widen_pairs_takes_paper_ansatz_below_97`), so it takes about half as
//! many noise insertions as a per-gate model would.
//!
//! Each noisy run is one Monte-Carlo trajectory per batch member;
//! averaging over trajectories means replicating the input across
//! members.
//!
//! # Examples
//!
//! ```
//! use qugeo_qsim::noise::NoiseModel;
//! use qugeo_qsim::{BatchedState, Circuit, NoisyBackend, QuantumBackend, State};
//!
//! # fn main() -> Result<(), qugeo_qsim::QsimError> {
//! let mut circuit = Circuit::new(1);
//! circuit.h(0)?;
//! let backend = NoisyBackend::new(NoiseModel::uniform_depolarizing(0.01)?, 7);
//! // 64 replicated members: 64 independent noise trajectories.
//! let mut batch = BatchedState::replicate(&State::zero(1), 64);
//! backend.run_batch(&circuit.compile(&[])?, &mut batch)?;
//! for probs in backend.probabilities(&batch)? {
//!     assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! }
//! # Ok(())
//! # }
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::QsimError;

/// A simple device noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after every single-qubit fused op.
    pub single_qubit_depolarizing: f64,
    /// Depolarizing probability (per involved qubit) after every
    /// two-qubit fused op.
    pub two_qubit_depolarizing: f64,
    /// Probability that a measured bit is reported flipped.
    pub readout_flip: f64,
}

impl NoiseModel {
    /// A noiseless model (all probabilities zero).
    pub fn noiseless() -> Self {
        Self {
            single_qubit_depolarizing: 0.0,
            two_qubit_depolarizing: 0.0,
            readout_flip: 0.0,
        }
    }

    /// Uniform depolarizing noise: `p` after single-qubit ops, `2p`
    /// after two-qubit ops (the usual hardware ratio), no readout error.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidEncoding`] unless `0 ≤ p ≤ 0.5`.
    pub fn uniform_depolarizing(p: f64) -> Result<Self, QsimError> {
        if !(0.0..=0.5).contains(&p) {
            return Err(QsimError::InvalidEncoding {
                reason: format!("depolarizing probability {p} outside [0, 0.5]"),
            });
        }
        Ok(Self {
            single_qubit_depolarizing: p,
            two_qubit_depolarizing: (2.0 * p).min(0.5),
            readout_flip: 0.0,
        })
    }

    /// Adds a symmetric readout flip probability.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidEncoding`] unless `0 ≤ p ≤ 0.5`.
    pub fn with_readout_flip(mut self, p: f64) -> Result<Self, QsimError> {
        if !(0.0..=0.5).contains(&p) {
            return Err(QsimError::InvalidEncoding {
                reason: format!("readout flip probability {p} outside [0, 0.5]"),
            });
        }
        self.readout_flip = p;
        Ok(self)
    }

    /// `true` when every probability is zero.
    pub fn is_noiseless(&self) -> bool {
        self.single_qubit_depolarizing == 0.0
            && self.two_qubit_depolarizing == 0.0
            && self.readout_flip == 0.0
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::noiseless()
    }
}

/// Applies the symmetric readout-error map to a probability vector: each
/// measured bit independently flips with probability `r` — the
/// measurement stage of [`crate::backend::NoisyBackend`].
pub fn apply_readout_flip(probs: &[f64], num_qubits: usize, r: f64) -> Vec<f64> {
    if r == 0.0 {
        return probs.to_vec();
    }
    // Apply the single-bit confusion matrix qubit by qubit:
    // p'(b) = (1-r)·p(b) + r·p(b with bit q flipped).
    let mut current = probs.to_vec();
    let mut next = vec![0.0; probs.len()];
    for q in 0..num_qubits {
        let mask = 1usize << q;
        for (i, n) in next.iter_mut().enumerate() {
            *n = (1.0 - r) * current[i] + r * current[i ^ mask];
        }
        std::mem::swap(&mut current, &mut next);
    }
    current
}

/// Draws `shots` measurement outcomes from a probability vector,
/// returning per-basis-state counts — finite-shot statistics for
/// hardware-faithful evaluation.
///
/// Sampling builds the cumulative distribution once and binary-searches
/// it per shot (`O(dim + shots · log dim)`), so wide registers — e.g. a
/// QuBatch-packed register whose one shot budget is shared by a whole
/// request batch — cost barely more per shot than narrow ones. One RNG
/// draw is consumed per shot.
///
/// # Errors
///
/// Returns [`QsimError::InvalidStateLength`] if `probs` is empty, or
/// [`QsimError::InvalidEncoding`] if probabilities are negative or do not
/// sum to ~1.
pub fn sample_counts(probs: &[f64], shots: usize, seed: u64) -> Result<Vec<usize>, QsimError> {
    if probs.is_empty() {
        return Err(QsimError::InvalidStateLength { len: 0 });
    }
    let total: f64 = probs.iter().sum();
    if probs.iter().any(|&p| p < -1e-12) || (total - 1.0).abs() > 1e-6 {
        return Err(QsimError::InvalidEncoding {
            reason: format!("probabilities must be non-negative and sum to 1 (sum {total})"),
        });
    }
    // Inclusive prefix sums: cdf[i] = p_0 + … + p_i. A shot landing at
    // u ∈ [0, total) selects the first i with u < cdf[i], which matches
    // the subtract-and-scan selection this function used to make.
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for &p in probs {
        acc += p;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; probs.len()];
    for _ in 0..shots {
        let u: f64 = rng.gen::<f64>() * total;
        // partition_point returns the first index whose cdf entry is
        // > u; rounding at the top end can only land past the final
        // entry, which the old scan also mapped to the last state.
        let chosen = cdf.partition_point(|&c| c <= u).min(probs.len() - 1);
        counts[chosen] += 1;
    }
    Ok(counts)
}

/// Converts sampled counts into an empirical probability vector.
///
/// # Errors
///
/// Returns [`QsimError::InvalidEncoding`] if `counts` is empty or all
/// zero: no shot was taken, so there is no distribution to estimate.
pub fn empirical_probabilities(counts: &[usize]) -> Result<Vec<f64>, QsimError> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return Err(QsimError::InvalidEncoding {
            reason: "need at least one shot (counts are empty or all zero)".into(),
        });
    }
    Ok(counts.iter().map(|&c| c as f64 / total as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoisyBackend, QuantumBackend};
    use crate::{BatchedState, Circuit, DiagonalObservable, State};

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).expect("valid");
        c.cx(0, 1).expect("valid");
        c
    }

    /// Runs `trajectories` replicated members of `|0…0⟩` through `circuit`
    /// on a [`NoisyBackend`] — one noise trajectory per member — and
    /// returns the backend with the evolved batch.
    fn noisy_run(
        circuit: &Circuit,
        noise: NoiseModel,
        trajectories: usize,
        seed: u64,
    ) -> (NoisyBackend, BatchedState) {
        let backend = NoisyBackend::new(noise, seed);
        let compiled = circuit.compile(&[]).unwrap();
        let mut batch = BatchedState::replicate(&State::zero(circuit.num_qubits()), trajectories);
        backend.run_batch(&compiled, &mut batch).unwrap();
        (backend, batch)
    }

    /// Trajectory-averaged output distribution of `circuit` under `noise`.
    fn mean_probabilities(
        circuit: &Circuit,
        noise: NoiseModel,
        trajectories: usize,
        seed: u64,
    ) -> Vec<f64> {
        let (backend, batch) = noisy_run(circuit, noise, trajectories, seed);
        let per_member = backend.probabilities(&batch).unwrap();
        let mut mean = vec![0.0; per_member[0].len()];
        for probs in &per_member {
            for (m, p) in mean.iter_mut().zip(probs) {
                *m += p / trajectories as f64;
            }
        }
        mean
    }

    #[test]
    fn noise_model_validation() {
        assert!(NoiseModel::uniform_depolarizing(-0.1).is_err());
        assert!(NoiseModel::uniform_depolarizing(0.6).is_err());
        assert!(NoiseModel::noiseless().with_readout_flip(0.7).is_err());
        assert!(NoiseModel::noiseless().is_noiseless());
        assert!(!NoiseModel::uniform_depolarizing(0.01).unwrap().is_noiseless());
    }

    #[test]
    fn probabilities_stay_normalised_under_noise() {
        let noise = NoiseModel::uniform_depolarizing(0.05)
            .unwrap()
            .with_readout_flip(0.02)
            .unwrap();
        let probs = mean_probabilities(&bell_circuit(), noise, 32, 3);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn noise_degrades_bell_correlations() {
        // Ideal Bell state: P(01) = P(10) = 0. Depolarizing noise leaks
        // probability into those outcomes.
        let noise = NoiseModel::uniform_depolarizing(0.15).unwrap();
        let probs = mean_probabilities(&bell_circuit(), noise, 256, 9);
        let leakage = probs[1] + probs[2];
        assert!(
            leakage > 0.01,
            "noise should leak probability, got {leakage}"
        );
        // But the ideal outcomes still dominate at this noise level.
        assert!(probs[0] + probs[3] > leakage);
    }

    #[test]
    fn more_noise_means_more_degradation() {
        let leak = |p: f64| {
            let noise = NoiseModel::uniform_depolarizing(p).unwrap();
            let probs = mean_probabilities(&bell_circuit(), noise, 256, 11);
            probs[1] + probs[2]
        };
        assert!(leak(0.02) < leak(0.2));
    }

    #[test]
    fn readout_error_mixes_towards_uniform() {
        // Deterministic |1>: readout flip r reports P(0) = r.
        let mut c = Circuit::new(1);
        c.x(0).unwrap();
        let noise = NoiseModel::noiseless().with_readout_flip(0.1).unwrap();
        let probs = mean_probabilities(&c, noise, 1, 0);
        assert!((probs[0] - 0.1).abs() < 1e-9);
        assert!((probs[1] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn z_expectations_shrink_under_readout_error() {
        let mut c = Circuit::new(1);
        c.x(0).unwrap();
        let z = DiagonalObservable::z(1, 0).unwrap();
        let expect_z = |noise: NoiseModel| {
            let (backend, batch) = noisy_run(&c, noise, 1, 0);
            backend.expectations(&batch, &z).unwrap()[0]
        };
        let zi = expect_z(NoiseModel::noiseless());
        let zn = expect_z(NoiseModel::noiseless().with_readout_flip(0.25).unwrap());
        assert!((zi + 1.0).abs() < 1e-12);
        // E[Z] scales by (1 - 2r) = 0.5.
        assert!((zn + 0.5).abs() < 1e-9, "got {zn}");
    }

    #[test]
    fn noisy_backend_is_deterministic_per_seed() {
        let noise = NoiseModel::uniform_depolarizing(0.1).unwrap();
        let a = mean_probabilities(&bell_circuit(), noise, 16, 5);
        let b = mean_probabilities(&bell_circuit(), noise, 16, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_concentrates_with_shots() {
        let probs = vec![0.25, 0.75];
        let counts = sample_counts(&probs, 10_000, 42).unwrap();
        let freq1 = counts[1] as f64 / 10_000.0;
        assert!((freq1 - 0.75).abs() < 0.03, "empirical {freq1}");
        let emp = empirical_probabilities(&counts).unwrap();
        assert!((emp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_validates_input() {
        assert!(sample_counts(&[], 10, 0).is_err());
        assert!(sample_counts(&[0.5, 0.2], 10, 0).is_err()); // sums to 0.7
        assert!(sample_counts(&[-0.1, 1.1], 10, 0).is_err());
    }

    #[test]
    fn sampling_handles_point_masses_and_zero_tails() {
        // All mass on one interior state: every shot must land there,
        // including shots whose uniform draw rounds to the CDF boundary.
        let counts = sample_counts(&[0.0, 1.0, 0.0, 0.0], 1_000, 7).unwrap();
        assert_eq!(counts, vec![0, 1_000, 0, 0]);
        // A zero-probability head never absorbs shots.
        let counts = sample_counts(&[0.0, 0.5, 0.5], 5_000, 8).unwrap();
        assert_eq!(counts[0], 0);
        assert_eq!(counts.iter().sum::<usize>(), 5_000);
    }

    #[test]
    fn empirical_probabilities_needs_shots() {
        for counts in [&[0usize, 0][..], &[]] {
            assert!(matches!(
                empirical_probabilities(counts),
                Err(QsimError::InvalidEncoding { .. })
            ));
        }
    }
}
