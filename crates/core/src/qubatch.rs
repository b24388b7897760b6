//! QuBatch: SIMD-style data batching on the quantum circuit.
//!
//! A batch of `B = 2^N` scaled seismic samples is concatenated into one
//! statevector over `data_qubits + N` qubits (the batch index lives in
//! the high-order qubits). Because the ansatz only touches the data
//! qubits, the executed unitary is `I ⊗ U(θ)` — the *same* trained
//! operator applied to every sample at once, which is the paper's
//! Figure 3 construction ("we can duplicate the computation operator
//! without any cost").
//!
//! Per-sample predictions are recovered by conditioning on the batch
//! register: block `b` of the output amplitudes, renormalised by its
//! (circuit-invariant) weight `|c_b|²`. The batched loss gradient still
//! reduces to one diagonal observable, so training uses a single adjoint
//! pass per batch.
//!
//! The cost is data precision: one unit of amplitude norm is shared by
//! all batch members (Section 3.3.3), which is exactly the graceful SSIM
//! degradation Table 1 reports.

use qugeo_qsim::encoding::{encode_batched, BatchedState};
use qugeo_qsim::{
    parameter_shift_gradient_backend, AdjointWorkspace, CompiledCircuit, DiagonalObservable,
    QuantumBackend, StatevectorBackend,
};
use qugeo_tensor::Array2;

use crate::model::{decoder_to_qsim, member_distributions, QuGeoVqc};
use crate::QuGeoError;

/// Batched execution wrapper around a [`QuGeoVqc`].
///
/// # Examples
///
/// ```
/// use qugeo::model::{QuGeoVqc, VqcConfig};
/// use qugeo::qubatch::QuBatch;
///
/// # fn main() -> Result<(), qugeo::QuGeoError> {
/// let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
/// let batch = QuBatch::new(&model)?;
/// assert_eq!(batch.extra_qubits(4), 2); // the paper's Table 1 row
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QuBatch<'a> {
    model: &'a QuGeoVqc,
}

impl<'a> QuBatch<'a> {
    /// Wraps a model for batched execution.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] if the model uses a multi-group
    /// encoder: per-group batch registers would entangle across groups in
    /// ways the paper's construction (and this reproduction) do not
    /// define, so batching is restricted to the single-group encoder.
    pub fn new(model: &'a QuGeoVqc) -> Result<Self, QuGeoError> {
        if model.config().num_groups != 1 {
            return Err(QuGeoError::Config {
                reason: "QuBatch requires the single-group encoder".into(),
            });
        }
        Ok(Self { model })
    }

    /// The wrapped model.
    pub fn model(&self) -> &QuGeoVqc {
        self.model
    }

    /// Extra qubits needed for a batch of `batch_size` samples
    /// (`⌈log₂ B⌉`, the paper's Table 1 "Extra Qubits" column).
    pub fn extra_qubits(&self, batch_size: usize) -> usize {
        qugeo_qsim::complexity::log2_ceil(batch_size)
    }

    /// Validates and amplitude-packs a request batch into one QuBatch
    /// register (batch index in the high-order qubits), enforcing the
    /// model's configured sample length **and qubit budget** — a packed
    /// register wider than `VqcConfig::max_qubits` would silently step
    /// outside the model's own hardware envelope (the paper's Table 1
    /// accounting), so it is rejected before any encoding work happens.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for empty batches, sample-length
    /// mismatches, or a packed register exceeding
    /// `VqcConfig::max_qubits`.
    pub fn encode_batch(&self, seismic_batch: &[Vec<f64>]) -> Result<BatchedState, QuGeoError> {
        // The register width is known from the batch size alone; reject
        // over-budget batches before building the (large) register.
        let total_qubits =
            self.model.data_qubits() + qugeo_qsim::complexity::log2_ceil(seismic_batch.len());
        if total_qubits > self.model.config().max_qubits {
            return Err(QuGeoError::Config {
                reason: format!(
                    "packing {} samples needs {total_qubits} qubits (> budget {})",
                    seismic_batch.len(),
                    self.model.config().max_qubits
                ),
            });
        }
        for s in seismic_batch {
            if s.len() != self.model.config().seismic_len {
                return Err(QuGeoError::Config {
                    reason: format!(
                        "batch sample length {} != configured {}",
                        s.len(),
                        self.model.config().seismic_len
                    ),
                });
            }
        }
        encode_batched(seismic_batch).map_err(QuGeoError::from)
    }

    /// Predicts a normalised velocity map for every sample of the batch
    /// with **one** circuit execution.
    ///
    /// # Errors
    ///
    /// Returns an error for empty batches, length mismatches or
    /// simulation failures.
    pub fn predict_batch(
        &self,
        seismic_batch: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<Array2>, QuGeoError> {
        self.predict_batch_with(seismic_batch, params, &StatevectorBackend::default())
    }

    /// [`QuBatch::predict_batch`] through an execution backend: the
    /// widened (batch-register) circuit runs via `backend`, and the
    /// per-sample distributions are recovered by conditioning the
    /// backend-estimated full-register distribution on each batch index.
    ///
    /// Conditioning normalises each block by its estimated mass, so
    /// sampling backends stay self-consistent (their empirical block mass
    /// replaces the exact encoding weight). A block that received **no**
    /// probability mass at all — possible under a small shot budget,
    /// since the whole register's shots are shared by all `B` samples —
    /// degrades to the maximum-entropy (uniform) conditional distribution
    /// rather than failing the batch.
    ///
    /// # Errors
    ///
    /// Returns an error for empty batches, length mismatches or backend
    /// failures.
    pub fn predict_batch_with(
        &self,
        seismic_batch: &[Vec<f64>],
        params: &[f64],
        backend: &dyn QuantumBackend,
    ) -> Result<Vec<Array2>, QuGeoError> {
        let batched = self.encode_batch(seismic_batch)?;
        let wide = self.model.circuit().widened(batched.batch_qubits());
        // One fused sweep over the widened register instead of
        // gate-by-gate execution.
        let compiled = wide.compile(params)?;
        let mut register = qugeo_qsim::BatchedState::replicate(batched.state(), 1);
        self.execute_packed(&mut register, seismic_batch.len(), &compiled, backend)
    }

    /// Executes a loaded packed register (one engine member holding the
    /// whole QuBatch batch) through `backend` with a pre-compiled
    /// widened circuit and decodes one velocity map per request — the
    /// shared back half of [`QuBatch::predict_batch_with`] and the
    /// serving layer's packed path
    /// ([`crate::session::InferenceSession::predict_packed`]), which
    /// caches compiled widened circuits and recycles `register` across
    /// calls.
    ///
    /// # Errors
    ///
    /// Propagates backend failures and decode errors.
    pub fn execute_packed(
        &self,
        register: &mut qugeo_qsim::BatchedState,
        count: usize,
        compiled: &CompiledCircuit,
        backend: &dyn QuantumBackend,
    ) -> Result<Vec<Array2>, QuGeoError> {
        backend.run_batch(compiled, register)?;
        let [full_probs] = member_distributions(backend, register)?;
        self.decode_conditioned(&full_probs, count)
    }

    /// Recovers one velocity map per batch member from a packed
    /// register's estimated distribution, by conditioning on each batch
    /// index: block `b` of `full_probs`, renormalised by its estimated
    /// mass, is member `b`'s output distribution. The serving layer
    /// ([`crate::session::InferenceSession::predict_packed`] and
    /// `core::serve`) shares this decode with [`QuBatch::predict_batch_with`].
    ///
    /// Conditioning normalises each block by its estimated mass, so
    /// sampling backends stay self-consistent (their empirical block mass
    /// replaces the exact encoding weight). A block that received **no**
    /// probability mass at all — possible under a small shot budget,
    /// since the whole register's shots are shared by all members —
    /// degrades to the maximum-entropy (uniform) conditional distribution
    /// rather than failing the batch.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] if `full_probs` is shorter than
    /// `count` blocks, and propagates decoder failures.
    pub fn decode_conditioned(
        &self,
        full_probs: &[f64],
        count: usize,
    ) -> Result<Vec<Array2>, QuGeoError> {
        let block_size = 1usize << self.model.data_qubits();
        if full_probs.len() < count * block_size {
            return Err(QuGeoError::Config {
                reason: format!(
                    "{} probabilities cannot hold {count} blocks of {block_size}",
                    full_probs.len()
                ),
            });
        }
        let mut maps = Vec::with_capacity(count);
        for b in 0..count {
            let block = &full_probs[b * block_size..(b + 1) * block_size];
            let mass: f64 = block.iter().sum();
            let cond: Vec<f64> = if mass > 0.0 {
                block.iter().map(|p| p / mass).collect()
            } else {
                // Zero observed mass (e.g. a sampling backend whose shot
                // budget missed this block entirely): fall back to the
                // uniform distribution — "no information" — instead of
                // failing every sample in the batch.
                vec![1.0 / block_size as f64; block_size]
            };
            maps.push(self.model.decoder().decode(&cond)?);
        }
        Ok(maps)
    }

    /// Mean training loss over the batch and its parameter gradient,
    /// computed with one forward execution and one adjoint pass.
    ///
    /// `targets_normalized` must hold one normalised velocity map per
    /// batch sample.
    ///
    /// # Errors
    ///
    /// Returns an error for empty batches, mismatched lengths or
    /// simulation failures.
    pub fn loss_and_grad_batch(
        &self,
        seismic_batch: &[Vec<f64>],
        targets_normalized: &[Array2],
        params: &[f64],
    ) -> Result<(f64, Vec<f64>), QuGeoError> {
        self.loss_and_grad_batch_with(
            seismic_batch,
            targets_normalized,
            params,
            &StatevectorBackend::default(),
        )
    }

    /// [`QuBatch::loss_and_grad_batch`] through an execution backend,
    /// with gradient routing on the backend's capabilities: exact
    /// backends get a single **fused** adjoint pass
    /// ([`QuantumBackend::adjoint_gradient_batch`] over the widened
    /// register); others fall back to batched parameter-shift of the
    /// widened circuit executed through the backend.
    ///
    /// # Errors
    ///
    /// Returns an error for empty batches, mismatched lengths or backend
    /// failures.
    pub fn loss_and_grad_batch_with(
        &self,
        seismic_batch: &[Vec<f64>],
        targets_normalized: &[Array2],
        params: &[f64],
        backend: &dyn QuantumBackend,
    ) -> Result<(f64, Vec<f64>), QuGeoError> {
        self.loss_and_grad_batch_ws(
            seismic_batch,
            targets_normalized,
            params,
            backend,
            &mut AdjointWorkspace::new(),
        )
    }

    /// [`QuBatch::loss_and_grad_batch_with`] into a caller-held
    /// [`qugeo_qsim::AdjointWorkspace`] so training loops recycle the
    /// ket/bra/gradient buffers across steps instead of re-allocating
    /// them per batch (the [`crate::train::QuBatchVqc`] strategy holds
    /// one for exactly this).
    ///
    /// # Errors
    ///
    /// Returns an error for empty batches, mismatched lengths or backend
    /// failures.
    pub fn loss_and_grad_batch_ws(
        &self,
        seismic_batch: &[Vec<f64>],
        targets_normalized: &[Array2],
        params: &[f64],
        backend: &dyn QuantumBackend,
        ws: &mut AdjointWorkspace,
    ) -> Result<(f64, Vec<f64>), QuGeoError> {
        if seismic_batch.len() != targets_normalized.len() || seismic_batch.is_empty() {
            return Err(QuGeoError::Config {
                reason: format!(
                    "batch of {} samples with {} targets",
                    seismic_batch.len(),
                    targets_normalized.len()
                ),
            });
        }
        let batched = self.encode_batch(seismic_batch)?;
        let wide = self.model.circuit().widened(batched.batch_qubits());

        let block_size = 1usize << self.model.data_qubits();
        let block_count = 1usize << batched.batch_qubits();
        let inv_batch = 1.0 / seismic_batch.len() as f64;

        // Turns the widened register's output distribution into the mean
        // loss and the effective diagonal over the full (data + batch)
        // register: d(total)/d|a_i|² = inv_batch · dL_b/dp_j · (1/weight)
        // for i = b·block_size + j. The exact encoding weight (not the
        // estimated block mass) keeps the diagonal consistent with the
        // chain rule.
        let decoder = self.model.decoder();
        let loss_and_diag = |full_probs: &[f64]| -> Result<(f64, Vec<f64>), QuGeoError> {
            let mut total_loss = 0.0;
            let mut diag = vec![0.0; block_size * block_count];
            for (b, target) in targets_normalized.iter().enumerate() {
                let weight = batched.block_weights()[b];
                let cond_probs: Vec<f64> = full_probs[b * block_size..(b + 1) * block_size]
                    .iter()
                    .map(|p| p / weight)
                    .collect();
                let (loss, prob_grad) = decoder.loss_and_prob_grad(&cond_probs, target)?;
                total_loss += loss * inv_batch;
                for (j, &g) in prob_grad.iter().enumerate() {
                    diag[b * block_size + j] = inv_batch * g / weight;
                }
            }
            Ok((total_loss, diag))
        };

        if backend.supports_adjoint_gradient() {
            let inputs = qugeo_qsim::BatchedState::replicate(batched.state(), 1);
            let mut total_loss = 0.0;
            backend.adjoint_gradient_batch(
                &wide,
                params,
                &inputs,
                &mut |_, full_probs| {
                    let (loss, diag) = loss_and_diag(full_probs).map_err(decoder_to_qsim)?;
                    total_loss = loss;
                    DiagonalObservable::from_diagonal(diag)
                },
                ws,
            )?;
            return Ok((total_loss, ws.grad(0).to_vec()));
        }

        let compiled = wide.compile(params)?;
        let mut engine_batch = qugeo_qsim::BatchedState::replicate(batched.state(), 1);
        backend.run_batch(&compiled, &mut engine_batch)?;
        let [full_probs] = member_distributions(backend, &engine_batch)?;
        let (total_loss, diag) = loss_and_diag(&full_probs)?;
        let obs = DiagonalObservable::from_diagonal(diag)?;
        let grad = parameter_shift_gradient_backend(&wide, params, batched.state(), &obs, backend)?;
        Ok((total_loss, grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::model::VqcConfig;
    use qugeo_qsim::ansatz::EntangleOrder;

    fn small_model(decoder: Decoder) -> QuGeoVqc {
        QuGeoVqc::new(VqcConfig {
            seismic_len: 16,
            num_groups: 1,
            num_blocks: 2,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder,
            max_qubits: 16,
        })
        .unwrap()
    }

    fn sample(seed: usize) -> Vec<f64> {
        (0..16)
            .map(|i| ((i + seed * 31) as f64 * 0.7).sin() + 0.2)
            .collect()
    }

    #[test]
    fn rejects_multi_group_models() {
        let m = QuGeoVqc::new(VqcConfig {
            seismic_len: 256,
            num_groups: 2,
            num_blocks: 1,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::paper_layer_wise(),
            max_qubits: 16,
        })
        .unwrap();
        assert!(QuBatch::new(&m).is_err());
    }

    #[test]
    fn extra_qubit_accounting_matches_table1() {
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        assert_eq!(qb.extra_qubits(1), 0);
        assert_eq!(qb.extra_qubits(2), 1);
        assert_eq!(qb.extra_qubits(4), 2);
        assert_eq!(qb.extra_qubits(8), 3);
    }

    #[test]
    fn batched_predictions_match_individual_runs() {
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(4);
        let batch = vec![sample(0), sample(1), sample(2)];

        let batched_maps = qb.predict_batch(&batch, &params).unwrap();
        assert_eq!(batched_maps.len(), 3);
        for (i, s) in batch.iter().enumerate() {
            let solo = m.predict(s, &params).unwrap();
            for (a, b) in batched_maps[i].iter().zip(solo.iter()) {
                assert!((a - b).abs() < 1e-9, "sample {i} diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_pixel_decoder_also_matches() {
        let m = small_model(Decoder::PixelWise { side: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(11);
        let batch = vec![sample(3), sample(4)];
        let maps = qb.predict_batch(&batch, &params).unwrap();
        for (i, s) in batch.iter().enumerate() {
            let solo = m.predict(s, &params).unwrap();
            for (a, b) in maps[i].iter().zip(solo.iter()) {
                assert!((a - b).abs() < 1e-9, "sample {i}");
            }
        }
    }

    #[test]
    fn batched_loss_matches_mean_of_individual_losses() {
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(4);
        let batch = vec![sample(0), sample(1)];
        let targets = vec![
            Array2::from_fn(4, 4, |r, _| r as f64 * 0.25),
            Array2::filled(4, 4, 0.5),
        ];

        let (batched_loss, _) = qb.loss_and_grad_batch(&batch, &targets, &params).unwrap();
        let mut mean = 0.0;
        for (s, t) in batch.iter().zip(&targets) {
            let (l, _) = m.loss_and_grad(s, t, &params).unwrap();
            mean += l / 2.0;
        }
        assert!(
            (batched_loss - mean).abs() < 1e-9,
            "batched {batched_loss} vs mean {mean}"
        );
    }

    #[test]
    fn batched_gradient_matches_mean_of_individual_gradients() {
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(21);
        let batch = vec![sample(5), sample(6), sample(7), sample(8)];
        let targets: Vec<Array2> = (0..4)
            .map(|k| Array2::from_fn(4, 4, |r, c| ((r + c + k) % 4) as f64 * 0.3))
            .collect();

        let (_, batched_grad) = qb.loss_and_grad_batch(&batch, &targets, &params).unwrap();
        let mut mean_grad = vec![0.0; params.len()];
        for (s, t) in batch.iter().zip(&targets) {
            let (_, g) = m.loss_and_grad(s, t, &params).unwrap();
            for (mg, gi) in mean_grad.iter_mut().zip(&g) {
                *mg += gi / 4.0;
            }
        }
        for (i, (a, b)) in batched_grad.iter().zip(&mean_grad).enumerate() {
            assert!((a - b).abs() < 1e-9, "grad {i}: batched {a} vs mean {b}");
        }
    }

    #[test]
    fn batched_forward_is_backend_equivalent() {
        use qugeo_qsim::{NaiveBackend, StatevectorBackend};
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(9);
        let batch = vec![sample(0), sample(1), sample(2)];
        let exact = qb
            .predict_batch_with(&batch, &params, &StatevectorBackend::default())
            .unwrap();
        let naive = qb
            .predict_batch_with(&batch, &params, &NaiveBackend::default())
            .unwrap();
        for (i, (a, b)) in exact.iter().zip(&naive).enumerate() {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-10, "sample {i}");
            }
        }
        // And the default path equals the explicit statevector path.
        let default_path = qb.predict_batch(&batch, &params).unwrap();
        for (a, b) in exact.iter().zip(&default_path) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn batched_gradient_routes_through_sampling_backend() {
        use qugeo_qsim::ShotSamplerBackend;
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(4);
        let batch = vec![sample(0), sample(1)];
        let targets = vec![
            Array2::from_fn(4, 4, |r, _| r as f64 * 0.25),
            Array2::filled(4, 4, 0.5),
        ];
        let (exact_loss, exact_grad) =
            qb.loss_and_grad_batch(&batch, &targets, &params).unwrap();
        let backend = ShotSamplerBackend::new(100_000, 3);
        let (loss, grad) = qb
            .loss_and_grad_batch_with(&batch, &targets, &params, &backend)
            .unwrap();
        assert!((loss - exact_loss).abs() < 0.05);
        let max_err = grad
            .iter()
            .zip(&exact_grad)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_err < 0.1, "sampled QuBatch gradient drifted {max_err}");
    }

    #[test]
    fn non_power_of_two_batches_pad() {
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(4);
        let batch = vec![sample(0), sample(1), sample(2)]; // pads to 4
        let maps = qb.predict_batch(&batch, &params).unwrap();
        assert_eq!(maps.len(), 3);
    }

    #[test]
    fn validates_batch_inputs() {
        let m = small_model(Decoder::LayerWise { rows: 4 });
        let qb = QuBatch::new(&m).unwrap();
        let params = m.init_params(4);
        assert!(qb.predict_batch(&[], &params).is_err());
        assert!(qb.predict_batch(&[vec![1.0; 8]], &params).is_err()); // wrong length
        let t = vec![Array2::filled(4, 4, 0.5)];
        assert!(qb
            .loss_and_grad_batch(&[sample(0), sample(1)], &t, &params)
            .is_err()); // target count mismatch
    }
}
