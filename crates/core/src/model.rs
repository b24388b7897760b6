//! The QuGeoVQC model: encoder + ansatz + decoder.

use qugeo_geodata::scaling::ScaledLayout;
use qugeo_qsim::ansatz::{
    grouped_ansatz, u3_cu3_ansatz, AnsatzConfig, EntangleOrder, GroupedAnsatzConfig,
};
use qugeo_qsim::encoding::{encode_grouped, GroupLayout};
use qugeo_qsim::{
    parameter_shift_gradient_backend, AdjointWorkspace, BatchedState, Circuit,
    DiagonalObservable, QsimError, QuantumBackend, State, StatevectorBackend,
};
use qugeo_tensor::Array2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::decoder::Decoder;
use crate::QuGeoError;

/// Configuration of a [`QuGeoVqc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VqcConfig {
    /// Length of the scaled seismic input vector (256 in the paper).
    pub seismic_len: usize,
    /// ST-Encoder groups; 1 loads the whole vector on one register, more
    /// groups give each seismic source its own qubit subset.
    pub num_groups: usize,
    /// `U3+CU3` blocks (per group when `num_groups > 1`).
    pub num_blocks: usize,
    /// Whole-register mixing blocks after the per-group sub-VQCs
    /// (ignored when `num_groups == 1`).
    pub mixing_blocks: usize,
    /// Intra-block entanglement order.
    pub entangle: EntangleOrder,
    /// Output decoder.
    pub decoder: Decoder,
    /// Hard qubit budget (the paper constrains itself to ≤ 16).
    pub max_qubits: usize,
}

impl VqcConfig {
    /// The paper's `Q-M-PX`: 256 inputs on 8 qubits, 12 blocks
    /// (576 parameters), pixel-wise decoder.
    pub fn paper_pixel_wise() -> Self {
        Self {
            seismic_len: 256,
            num_groups: 1,
            num_blocks: 12,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::paper_pixel_wise(),
            max_qubits: 16,
        }
    }

    /// The paper's `Q-M-LY`: same ansatz, layer-wise decoder.
    pub fn paper_layer_wise() -> Self {
        Self {
            decoder: Decoder::paper_layer_wise(),
            ..Self::paper_pixel_wise()
        }
    }

    /// The layout-compatible configuration for a given scaled-data
    /// layout (convenience for pipelines).
    pub fn for_layout(layout: &ScaledLayout, decoder: Decoder) -> Self {
        Self {
            seismic_len: layout.seismic_len(),
            decoder,
            ..Self::paper_pixel_wise()
        }
    }
}

/// The QuGeo variational quantum circuit: amplitude-encodes scaled
/// seismic data, processes it with a `U3+CU3` ansatz, and decodes a
/// velocity map.
///
/// # Examples
///
/// ```
/// use qugeo::model::{QuGeoVqc, VqcConfig};
///
/// # fn main() -> Result<(), qugeo::QuGeoError> {
/// let model = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
/// assert_eq!(model.num_params(), 576);
/// assert_eq!(model.data_qubits(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuGeoVqc {
    config: VqcConfig,
    circuit: Circuit,
    data_qubits: usize,
}

impl QuGeoVqc {
    /// Builds the model, validating the qubit budget and decoder
    /// compatibility.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] when the encoder layout is not a
    /// power-of-two split, the register exceeds `max_qubits`, or the
    /// decoder needs more qubits than the register has.
    pub fn new(config: VqcConfig) -> Result<Self, QuGeoError> {
        let layout = GroupLayout::for_data(config.seismic_len, config.num_groups)
            .map_err(QuGeoError::from)?;
        let data_qubits = layout.total_qubits();
        if data_qubits > config.max_qubits {
            return Err(QuGeoError::Config {
                reason: format!(
                    "{} groups x {} qubits = {data_qubits} qubits exceeds the {}-qubit budget",
                    config.num_groups,
                    layout.qubits_per_group,
                    config.max_qubits
                ),
            });
        }
        config.decoder.validate(data_qubits)?;

        let circuit = if config.num_groups == 1 {
            u3_cu3_ansatz(AnsatzConfig {
                num_qubits: data_qubits,
                num_blocks: config.num_blocks,
                entangle: config.entangle,
            })?
        } else {
            grouped_ansatz(GroupedAnsatzConfig {
                num_groups: config.num_groups,
                qubits_per_group: layout.qubits_per_group,
                blocks_per_group: config.num_blocks,
                mixing_blocks: config.mixing_blocks,
                entangle: config.entangle,
            })?
        };

        Ok(Self {
            config,
            circuit,
            data_qubits,
        })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &VqcConfig {
        &self.config
    }

    /// The underlying parameterised circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Qubits of the data register.
    pub fn data_qubits(&self) -> usize {
        self.data_qubits
    }

    /// Trainable parameter count (576 for the paper models).
    pub fn num_params(&self) -> usize {
        self.circuit.num_slots()
    }

    /// The decoder in use.
    pub fn decoder(&self) -> Decoder {
        self.config.decoder
    }

    /// Draws a small random initial parameter vector (the usual VQC
    /// near-identity initialisation).
    pub fn init_params(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.num_params())
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect()
    }

    /// Amplitude-encodes a scaled seismic vector into the data register.
    ///
    /// # Errors
    ///
    /// Returns an error for length mismatches or all-zero groups.
    pub fn encode(&self, seismic: &[f64]) -> Result<State, QuGeoError> {
        if seismic.len() != self.config.seismic_len {
            return Err(QuGeoError::Config {
                reason: format!(
                    "seismic length {} != configured {}",
                    seismic.len(),
                    self.config.seismic_len
                ),
            });
        }
        encode_grouped(seismic, self.config.num_groups).map_err(QuGeoError::from)
    }

    /// Runs encoder + ansatz, returning the output state.
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures or parameter-count
    /// mismatches.
    pub fn forward(&self, seismic: &[f64], params: &[f64]) -> Result<State, QuGeoError> {
        let encoded = self.encode(seismic)?;
        self.circuit.run(&encoded, params).map_err(QuGeoError::from)
    }

    /// Predicts a normalised (`[0, 1]`-range) velocity map.
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures or parameter-count
    /// mismatches.
    pub fn predict(&self, seismic: &[f64], params: &[f64]) -> Result<Array2, QuGeoError> {
        let state = self.forward(seismic, params)?;
        self.config.decoder.decode(&state.probabilities())
    }

    /// [`QuGeoVqc::predict`] through an execution backend: the circuit
    /// runs — and the output distribution is estimated — via `backend`,
    /// so the same model serves exact simulation, finite-shot readout
    /// ([`qugeo_qsim::ShotSamplerBackend`]) or NISQ noise
    /// ([`qugeo_qsim::NoisyBackend`]).
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures, parameter-count
    /// mismatches, or backend failures.
    pub fn predict_with(
        &self,
        seismic: &[f64],
        params: &[f64],
        backend: &dyn QuantumBackend,
    ) -> Result<Array2, QuGeoError> {
        let mut maps =
            self.predict_many_with(std::slice::from_ref(&seismic), params, backend)?;
        maps.pop().ok_or(QuGeoError::DistributionCount {
            expected: 1,
            actual: 0,
        })
    }

    /// Predicts velocity maps for many samples through one gate-fused
    /// batched engine call: the ansatz is compiled once
    /// ([`qugeo_qsim::CompiledCircuit`]) and swept across all encoded
    /// samples stored contiguously in a [`qugeo_qsim::BatchedState`].
    ///
    /// Unlike the paper's QuBatch this keeps each sample a unit-norm
    /// register — identical outputs to [`QuGeoVqc::predict`], only
    /// faster. Used by evaluation loops, which predict whole test sets.
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures or parameter-count
    /// mismatches.
    pub fn predict_many<S: AsRef<[f64]>>(
        &self,
        seismic: &[S],
        params: &[f64],
    ) -> Result<Vec<Array2>, QuGeoError> {
        self.predict_many_with(seismic, params, &StatevectorBackend::default())
    }

    /// [`QuGeoVqc::predict_many`] through an execution backend
    /// ([`qugeo_qsim::QuantumBackend`]): the compiled ansatz and each
    /// batch sweep are handed to `backend`, which owns how circuits
    /// execute and how measurement distributions are estimated.
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures, parameter-count
    /// mismatches, or backend failures.
    pub fn predict_many_with<S: AsRef<[f64]>>(
        &self,
        seismic: &[S],
        params: &[f64],
        backend: &dyn QuantumBackend,
    ) -> Result<Vec<Array2>, QuGeoError> {
        if seismic.is_empty() {
            return Ok(Vec::new());
        }
        let compiled = self.circuit.compile(params)?;
        // Bound peak memory at ~2^22 amplitudes (64 MiB) per engine
        // call, matching the batched-gradient path — evaluation sets can
        // be arbitrarily large.
        let member_dim = 1usize << self.data_qubits;
        let chunk_members = ((1usize << 22) / member_dim).max(1);
        let mut maps = Vec::with_capacity(seismic.len());
        for group in seismic.chunks(chunk_members) {
            let states = group
                .iter()
                .map(|s| self.encode(s.as_ref()))
                .collect::<Result<Vec<_>, _>>()?;
            let mut batch = BatchedState::from_states(&states)?;
            drop(states); // `from_states` copies; free before the sweep
            backend.run_batch(&compiled, &mut batch)?;
            let dists: Vec<Vec<f64>> = member_distributions(backend, &batch)?;
            for probs in dists {
                maps.push(self.config.decoder.decode(&probs)?);
            }
        }
        Ok(maps)
    }

    /// Training loss against a normalised target map plus the gradient
    /// with respect to every circuit parameter, computed with one fused
    /// adjoint-differentiation pass ([`qugeo_qsim::adjoint`]).
    ///
    /// This is the allocating per-call convenience; the training
    /// strategies in [`crate::train`] hold an
    /// [`qugeo_qsim::AdjointWorkspace`] and reused input batches across
    /// steps instead.
    ///
    /// # Errors
    ///
    /// Returns an error for shape mismatches or simulation failures.
    pub fn loss_and_grad(
        &self,
        seismic: &[f64],
        target_normalized: &Array2,
        params: &[f64],
    ) -> Result<(f64, Vec<f64>), QuGeoError> {
        self.loss_and_grad_with(
            seismic,
            target_normalized,
            params,
            &StatevectorBackend::default(),
        )
    }

    /// [`QuGeoVqc::loss_and_grad`] through an execution backend. The
    /// gradient **routes** on the backend's capabilities: exact backends
    /// ([`QuantumBackend::supports_adjoint_gradient`]) run one fused
    /// batched adjoint pass through
    /// [`QuantumBackend::adjoint_gradient_batch`] (forward, loss, and
    /// backward share a single engine invocation), while sampling/noisy
    /// backends execute the forward via the backend and fall back to
    /// batched parameter-shift executed through the backend itself
    /// ([`qugeo_qsim::parameter_shift_gradient_backend`]) — the only
    /// gradient a device without amplitude access can physically
    /// produce.
    ///
    /// # Errors
    ///
    /// Returns an error for shape mismatches, simulation failures, or
    /// backend failures.
    pub fn loss_and_grad_with(
        &self,
        seismic: &[f64],
        target_normalized: &Array2,
        params: &[f64],
        backend: &dyn QuantumBackend,
    ) -> Result<(f64, Vec<f64>), QuGeoError> {
        let encoded = self.encode(seismic)?;
        if backend.supports_adjoint_gradient() {
            let inputs = BatchedState::replicate(&encoded, 1);
            let mut ws = AdjointWorkspace::new();
            let mut loss = 0.0;
            let decoder = self.config.decoder;
            backend.adjoint_gradient_batch(
                &self.circuit,
                params,
                &inputs,
                &mut |_, probs| {
                    let (l, obs) = member_loss_obs(decoder, probs, target_normalized)?;
                    loss = l;
                    Ok(obs)
                },
                &mut ws,
            )?;
            return Ok((loss, ws.grad(0).to_vec()));
        }
        let compiled = self.circuit.compile(params)?;
        let mut batch = BatchedState::replicate(&encoded, 1);
        backend.run_batch(&compiled, &mut batch)?;
        let [probs] = member_distributions(backend, &batch)?;
        let (loss, prob_grad) = self
            .config
            .decoder
            .loss_and_prob_grad(&probs, target_normalized)?;
        let obs = DiagonalObservable::from_diagonal(prob_grad)?;
        let grad =
            parameter_shift_gradient_backend(&self.circuit, params, &encoded, &obs, backend)?;
        Ok((loss, grad))
    }
}

/// Reads one output distribution per member of `batch` from `backend`,
/// as `Vec<Vec<f64>>` or, for a batch of one, as `[Vec<f64>; 1]`.
///
/// Returns [`QuGeoError::DistributionCount`] unless the backend gave
/// exactly one per member: every consumer decodes through here, so a
/// backend that drops or invents a distribution fails the call instead
/// of losing a request or panicking.
pub(crate) fn member_distributions<T: TryFrom<Vec<Vec<f64>>>>(
    backend: &dyn QuantumBackend,
    batch: &BatchedState,
) -> Result<T, QuGeoError> {
    let dists = backend.probabilities(batch)?;
    let actual = dists.len();
    match T::try_from(dists) {
        Ok(dists) if actual == batch.batch_len() => Ok(dists),
        _ => Err(QuGeoError::DistributionCount {
            expected: batch.batch_len(),
            actual,
        }),
    }
}

/// Carries a decoder failure across the qsim-typed observable callback of
/// [`QuantumBackend::adjoint_gradient_batch`]; the message survives, the
/// error re-wraps into [`QuGeoError`] at the call boundary.
pub(crate) fn decoder_to_qsim(e: QuGeoError) -> QsimError {
    QsimError::InvalidEncoding {
        reason: e.to_string(),
    }
}

/// One member's decoder step inside a backend adjoint callback: the
/// member's loss plus its effective diagonal observable, derived from the
/// member's output distribution. Shared by every adjoint-path consumer
/// ([`QuGeoVqc::loss_and_grad_with`], the training strategies) so the
/// decoder→observable plumbing exists exactly once.
pub(crate) fn member_loss_obs(
    decoder: Decoder,
    probs: &[f64],
    target_normalized: &Array2,
) -> Result<(f64, DiagonalObservable), QsimError> {
    let (loss, prob_grad) = decoder
        .loss_and_prob_grad(probs, target_normalized)
        .map_err(decoder_to_qsim)?;
    Ok((loss, DiagonalObservable::from_diagonal(prob_grad)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_seismic(len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i as f64) * 0.37).sin() + 0.1).collect()
    }

    #[test]
    fn paper_models_have_expected_shape() {
        let px = QuGeoVqc::new(VqcConfig::paper_pixel_wise()).unwrap();
        assert_eq!(px.num_params(), 576);
        assert_eq!(px.data_qubits(), 8);

        let ly = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        assert_eq!(ly.num_params(), 576);
    }

    #[test]
    fn qubit_budget_enforced() {
        let mut cfg = VqcConfig::paper_pixel_wise();
        cfg.num_groups = 4; // 4 × 6 = 24 qubits
        assert!(matches!(
            QuGeoVqc::new(cfg),
            Err(QuGeoError::Config { .. })
        ));
    }

    #[test]
    fn two_group_model_fits_budget() {
        let mut cfg = VqcConfig::paper_pixel_wise();
        cfg.num_groups = 2; // 2 × 7 = 14 qubits
        cfg.num_blocks = 2;
        cfg.mixing_blocks = 1;
        let m = QuGeoVqc::new(cfg).unwrap();
        assert_eq!(m.data_qubits(), 14);
        // Layer decoder on 8 of 14 qubits also valid.
        let mut cfg_ly = cfg;
        cfg_ly.decoder = Decoder::paper_layer_wise();
        assert!(QuGeoVqc::new(cfg_ly).is_ok());
    }

    #[test]
    fn encode_validates_length() {
        let m = QuGeoVqc::new(VqcConfig::paper_pixel_wise()).unwrap();
        assert!(m.encode(&ramp_seismic(128)).is_err());
        assert!(m.encode(&ramp_seismic(256)).is_ok());
    }

    #[test]
    fn predict_shapes_and_ranges() {
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let params = m.init_params(3);
        let map = m.predict(&ramp_seismic(256), &params).unwrap();
        assert_eq!(map.shape(), (8, 8));
        // Layer decoder outputs live in [0, 1].
        assert!(map.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
    }

    #[test]
    fn predict_many_matches_per_sample_predict() {
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let params = m.init_params(6);
        let samples: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..256)
                    .map(|i| ((i + k * 101) as f64 * 0.23).sin() + 0.15)
                    .collect()
            })
            .collect();
        let batched = m.predict_many(&samples, &params).unwrap();
        assert_eq!(batched.len(), 3);
        for (k, s) in samples.iter().enumerate() {
            let solo = m.predict(s, &params).unwrap();
            for (a, b) in batched[k].iter().zip(solo.iter()) {
                assert!((a - b).abs() < 1e-10, "sample {k} diverged: {a} vs {b}");
            }
        }
        assert!(m.predict_many::<Vec<f64>>(&[], &params).unwrap().is_empty());
    }

    #[test]
    fn init_params_deterministic() {
        let m = QuGeoVqc::new(VqcConfig::paper_pixel_wise()).unwrap();
        assert_eq!(m.init_params(9), m.init_params(9));
        assert_ne!(m.init_params(9), m.init_params(10));
        assert!(m.init_params(9).iter().all(|p| p.abs() < 0.1));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // A smaller model keeps the finite-difference oracle fast.
        let cfg = VqcConfig {
            seismic_len: 16,
            num_groups: 1,
            num_blocks: 2,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::PixelWise { side: 4 },
            max_qubits: 16,
        };
        let m = QuGeoVqc::new(cfg).unwrap();
        let seismic = ramp_seismic(16);
        let target = Array2::from_fn(4, 4, |r, c| ((r + c) % 2) as f64 * 0.8 + 0.1);
        let params = m.init_params(5);
        let (_, grad) = m.loss_and_grad(&seismic, &target, &params).unwrap();

        let h = 1e-6;
        for idx in [0usize, 10, 30, params.len() - 1] {
            let mut p = params.clone();
            p[idx] += h;
            let (plus, _) = m.loss_and_grad(&seismic, &target, &p).unwrap();
            p[idx] -= 2.0 * h;
            let (minus, _) = m.loss_and_grad(&seismic, &target, &p).unwrap();
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - grad[idx]).abs() < 1e-5 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs adjoint {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn layer_gradient_matches_finite_difference() {
        let cfg = VqcConfig {
            seismic_len: 16,
            num_groups: 1,
            num_blocks: 2,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::LayerWise { rows: 4 },
            max_qubits: 16,
        };
        let m = QuGeoVqc::new(cfg).unwrap();
        let seismic = ramp_seismic(16);
        let target = Array2::from_fn(4, 4, |r, _| r as f64 * 0.25);
        let params = m.init_params(8);
        let (_, grad) = m.loss_and_grad(&seismic, &target, &params).unwrap();

        let h = 1e-6;
        for idx in [0usize, 17, grad.len() - 1] {
            let mut p = params.clone();
            p[idx] += h;
            let (plus, _) = m.loss_and_grad(&seismic, &target, &p).unwrap();
            p[idx] -= 2.0 * h;
            let (minus, _) = m.loss_and_grad(&seismic, &target, &p).unwrap();
            let fd = (plus - minus) / (2.0 * h);
            assert!(
                (fd - grad[idx]).abs() < 1e-5 * fd.abs().max(1.0),
                "param {idx}: fd {fd} vs adjoint {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn a_few_training_steps_reduce_loss() {
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let seismic = ramp_seismic(256);
        let target = Array2::from_fn(8, 8, |r, _| 0.1 + 0.1 * r as f64);
        let mut params = m.init_params(2);
        let (initial, _) = m.loss_and_grad(&seismic, &target, &params).unwrap();
        for _ in 0..25 {
            let (_, grad) = m.loss_and_grad(&seismic, &target, &params).unwrap();
            for (p, g) in params.iter_mut().zip(&grad) {
                *p -= 0.2 * g;
            }
        }
        let (fin, _) = m.loss_and_grad(&seismic, &target, &params).unwrap();
        assert!(fin < initial * 0.5, "loss {initial} -> {fin}");
    }

    #[test]
    fn noisy_prediction_converges_to_ideal_at_zero_noise() {
        use qugeo_qsim::noise::NoiseModel;
        use qugeo_qsim::NoisyBackend;
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let params = m.init_params(4);
        let seismic = ramp_seismic(256);
        let ideal = m.predict(&seismic, &params).unwrap();
        let backend = NoisyBackend::new(NoiseModel::noiseless(), 1);
        let noisy = m.predict_with(&seismic, &params, &backend).unwrap();
        for (a, b) in ideal.iter().zip(noisy.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_degrades_prediction_quality() {
        use qugeo_qsim::noise::NoiseModel;
        use qugeo_qsim::NoisyBackend;
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let params = m.init_params(4);
        let seismic = ramp_seismic(256);
        let ideal = m.predict(&seismic, &params).unwrap();

        // 24 replicated members are 24 independent noise trajectories.
        let backend = NoisyBackend::new(NoiseModel::uniform_depolarizing(0.05).unwrap(), 2);
        let trajectories = m
            .predict_many_with(&vec![seismic.as_slice(); 24], &params, &backend)
            .unwrap();
        let drift: f64 = ideal
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let mean = trajectories
                    .iter()
                    .map(|map| map.as_slice()[k])
                    .sum::<f64>()
                    / trajectories.len() as f64;
                (a - mean).abs()
            })
            .sum();
        assert!(drift > 1e-6, "depolarizing noise must move the prediction");
    }

    #[test]
    fn sampled_prediction_approaches_ideal_with_shots() {
        use qugeo_qsim::ShotSamplerBackend;
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let params = m.init_params(4);
        let seismic = ramp_seismic(256);
        let ideal = m.predict(&seismic, &params).unwrap();

        let err_for = |shots: usize| -> f64 {
            let backend = ShotSamplerBackend::new(shots, 99);
            let sampled = m.predict_with(&seismic, &params, &backend).unwrap();
            ideal
                .iter()
                .zip(sampled.iter())
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        assert!(err_for(100_000) < err_for(100));
    }

    #[test]
    fn backend_swap_statevector_vs_naive_is_equivalent() {
        use qugeo_qsim::{NaiveBackend, StatevectorBackend};
        let m = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let params = m.init_params(6);
        let samples: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..256)
                    .map(|i| ((i + k * 101) as f64 * 0.23).sin() + 0.15)
                    .collect()
            })
            .collect();
        let exact = m
            .predict_many_with(&samples, &params, &StatevectorBackend::default())
            .unwrap();
        let naive = m
            .predict_many_with(&samples, &params, &NaiveBackend::default())
            .unwrap();
        for (k, (a, b)) in exact.iter().zip(&naive).enumerate() {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-10, "sample {k}: {x} vs {y}");
            }
        }
        // Single-sample path too.
        let pa = m
            .predict_with(&samples[0], &params, &StatevectorBackend::default())
            .unwrap();
        let pb = m.predict_with(&samples[0], &params, &NaiveBackend::default()).unwrap();
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn gradient_routes_to_parameter_shift_on_sampling_backends() {
        use qugeo_qsim::ShotSamplerBackend;
        let cfg = VqcConfig {
            seismic_len: 16,
            num_groups: 1,
            num_blocks: 1,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::LayerWise { rows: 4 },
            max_qubits: 16,
        };
        let m = QuGeoVqc::new(cfg).unwrap();
        let seismic = ramp_seismic(16);
        let target = Array2::from_fn(4, 4, |r, _| r as f64 * 0.2 + 0.1);
        let params = m.init_params(2);
        let (adj_loss, adj_grad) = m.loss_and_grad(&seismic, &target, &params).unwrap();

        // A heavy shot budget: the parameter-shift route through the
        // sampler must land near the exact adjoint gradient.
        let backend = ShotSamplerBackend::new(200_000, 5);
        let (loss, grad) = m
            .loss_and_grad_with(&seismic, &target, &params, &backend)
            .unwrap();
        assert!((loss - adj_loss).abs() < 0.05, "{loss} vs {adj_loss}");
        assert_eq!(grad.len(), adj_grad.len());
        let max_err = grad
            .iter()
            .zip(&adj_grad)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_err < 0.05, "shot gradient drifted {max_err}");
        // And exact backends take the adjoint route: same loss and
        // gradient up to fused-vs-unfused rounding noise.
        let (l2, g2) = m
            .loss_and_grad_with(
                &seismic,
                &target,
                &params,
                &qugeo_qsim::StatevectorBackend::default(),
            )
            .unwrap();
        assert!((l2 - adj_loss).abs() < 1e-12);
        for (a, b) in g2.iter().zip(&adj_grad) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn grouped_model_runs_end_to_end() {
        let cfg = VqcConfig {
            seismic_len: 256,
            num_groups: 2,
            num_blocks: 2,
            mixing_blocks: 1,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::paper_layer_wise(),
            max_qubits: 16,
        };
        let m = QuGeoVqc::new(cfg).unwrap();
        let params = m.init_params(1);
        let map = m.predict(&ramp_seismic(256), &params).unwrap();
        assert_eq!(map.shape(), (8, 8));
        let target = Array2::filled(8, 8, 0.5);
        let (loss, grad) = m.loss_and_grad(&ramp_seismic(256), &target, &params).unwrap();
        assert!(loss.is_finite());
        assert_eq!(grad.len(), m.num_params());
        assert!(grad.iter().any(|g| g.abs() > 0.0));
    }
}
