//! Reusable inference sessions: compile once, predict many requests.
//!
//! Training re-binds the ansatz every step because the parameters
//! change every step. Serving is even more static: parameters are
//! frozen after training and the same circuit answers every request, so
//! per-request compilation and per-request batch allocation are pure
//! waste. An [`InferenceSession`] holds
//!
//! * a trained [`QuGeoVqc`] plus its parameter vector,
//! * the ansatz **structure-compiled once** for the session's lifetime
//!   ([`qugeo_qsim::CircuitStructure`], with the full optimizer pass
//!   pipeline enabled) and bound to concrete parameter values
//!   ([`qugeo_qsim::CompiledCircuit`]); parameter swaps re-bind the
//!   existing fusion plan in O(params) instead of recompiling,
//! * an execution backend ([`qugeo_qsim::QuantumBackend`]) chosen at
//!   session construction (exact, finite-shot, noisy…),
//! * a reusable [`qugeo_qsim::BatchedState`] whose allocation is
//!   recycled across requests ([`qugeo_qsim::BatchedState::load_states`]).
//!
//! The session counts its compilations and buffer reuses so callers (and
//! tests) can assert the "no recompilation per request" contract instead
//! of trusting it.
//!
//! # Examples
//!
//! ```
//! use qugeo::model::{QuGeoVqc, VqcConfig};
//! use qugeo::session::InferenceSession;
//!
//! # fn main() -> Result<(), qugeo::QuGeoError> {
//! let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
//! let params = model.init_params(3);
//! let mut session = InferenceSession::new(model, &params)?;
//!
//! let request: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
//! let first = session.predict(&request)?;
//! let second = session.predict(&request)?;
//! assert_eq!(first, second);
//! assert_eq!(session.compilations(), 1); // compiled once, served twice
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use qugeo_qsim::{
    BatchedState, CircuitStructure, CompiledCircuit, PassConfig, QuantumBackend,
    StatevectorBackend,
};
use qugeo_tensor::Array2;

use crate::model::{member_distributions, QuGeoVqc};
use crate::qubatch::QuBatch;
use crate::QuGeoError;

/// A long-lived serving handle: backend + circuit compiled once per
/// parameter vector + recycled batch buffers. See the
/// [module docs](self).
#[derive(Debug)]
pub struct InferenceSession<B: QuantumBackend = StatevectorBackend> {
    model: QuGeoVqc,
    backend: B,
    params: Vec<f64>,
    compiled: CompiledCircuit,
    buffer: Option<BatchedState>,
    /// QuBatch-packed serving: widened circuit structures compiled once
    /// per batch width and kept across parameter swaps; each entry
    /// remembers the parameter generation it was last bound under and
    /// lazily re-binds when served after a [`InferenceSession::set_params`].
    packed: HashMap<usize, (u64, CompiledCircuit)>,
    /// Bumped by every [`InferenceSession::set_params`]; packed cache
    /// entries bound under an older generation re-bind before serving.
    param_gen: u64,
    compilations: usize,
    rebinds: usize,
    requests: usize,
    buffer_reuses: usize,
}

impl InferenceSession<StatevectorBackend> {
    /// A session on the default exact statevector backend.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` does not match the model's slot
    /// count.
    pub fn new(model: QuGeoVqc, params: &[f64]) -> Result<Self, QuGeoError> {
        Self::with_backend(model, params, StatevectorBackend::default())
    }
}

impl<B: QuantumBackend> InferenceSession<B> {
    /// A session on an explicit execution backend.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` does not match the model's slot
    /// count.
    pub fn with_backend(model: QuGeoVqc, params: &[f64], backend: B) -> Result<Self, QuGeoError> {
        let structure = CircuitStructure::compile_with_passes(model.circuit(), &PassConfig::all());
        let compiled = structure.bind(params)?;
        Ok(Self {
            model,
            backend,
            params: params.to_vec(),
            compiled,
            buffer: None,
            packed: HashMap::new(),
            param_gen: 0,
            compilations: 1,
            rebinds: 0,
            requests: 0,
            buffer_reuses: 0,
        })
    }

    /// The served model.
    pub fn model(&self) -> &QuGeoVqc {
        &self.model
    }

    /// The execution backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The current parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// How many times a circuit *structure* has been compiled over the
    /// session's lifetime: once for the base ansatz at construction,
    /// plus once per batch width the packed path serves
    /// ([`InferenceSession::predict_packed`]) — never per request and
    /// never per parameter swap ([`InferenceSession::set_params`]
    /// re-binds instead, counted by [`InferenceSession::rebinds`]).
    pub fn compilations(&self) -> usize {
        self.compilations
    }

    /// How many times existing compiled circuits were re-bound to new
    /// parameter values instead of recompiled — one per
    /// [`InferenceSession::set_params`] for the base ansatz, plus one
    /// per stale packed-width entry lazily refreshed by
    /// [`InferenceSession::predict_packed`].
    pub fn rebinds(&self) -> usize {
        self.rebinds
    }

    /// Requests served so far (one per sample).
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// How many engine calls recycled the existing batch allocation
    /// instead of allocating a fresh one.
    pub fn buffer_reuses(&self) -> usize {
        self.buffer_reuses
    }

    /// Replaces the parameter vector by **re-binding** the compiled
    /// circuit in place — the fusion plan, pass pipeline output and slot
    /// layout are all parameter-independent, so no recompilation happens
    /// ([`InferenceSession::compilations`] is unchanged;
    /// [`InferenceSession::rebinds`] counts one). Packed per-width
    /// circuits are kept and lazily re-bound the next time their width
    /// is served.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` does not match the model's slot
    /// count (the current binding is left untouched).
    pub fn set_params(&mut self, params: &[f64]) -> Result<(), QuGeoError> {
        self.compiled.rebind(params)?;
        self.rebinds += 1;
        self.params = params.to_vec();
        // Widened circuits bound under the old generation re-bind lazily
        // on their next request.
        self.param_gen += 1;
        Ok(())
    }

    /// Predicts one velocity map from one scaled seismic vector, reusing
    /// the compiled circuit and the batch buffer.
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures or backend failures.
    pub fn predict(&mut self, seismic: &[f64]) -> Result<Array2, QuGeoError> {
        let mut maps = self.predict_many(std::slice::from_ref(&seismic))?;
        maps.pop().ok_or(QuGeoError::DistributionCount {
            expected: 1,
            actual: 0,
        })
    }

    /// Predicts velocity maps for a whole request batch through the
    /// session's backend, sweeping the pre-compiled circuit over chunks
    /// executed in the recycled batch buffer.
    ///
    /// # Errors
    ///
    /// Returns an error for encoding failures or backend failures.
    pub fn predict_many<S: AsRef<[f64]>>(
        &mut self,
        seismic: &[S],
    ) -> Result<Vec<Array2>, QuGeoError> {
        if seismic.is_empty() {
            return Ok(Vec::new());
        }
        // Same working-set bound as the training paths: ~2^22 amplitudes
        // per engine call.
        let member_dim = 1usize << self.model.data_qubits();
        let chunk_members = ((1usize << 22) / member_dim).max(1);
        let mut maps = Vec::with_capacity(seismic.len());
        for group in seismic.chunks(chunk_members) {
            let states = group
                .iter()
                .map(|s| self.model.encode(s.as_ref()))
                .collect::<Result<Vec<_>, _>>()?;
            let batch = match self.buffer.as_mut() {
                Some(buffer) => {
                    buffer.load_states(&states)?;
                    self.buffer_reuses += 1;
                    buffer
                }
                None => self.buffer.insert(BatchedState::from_states(&states)?),
            };
            self.backend.run_batch(&self.compiled, batch)?;
            let dists: Vec<Vec<f64>> = member_distributions(&self.backend, batch)?;
            for probs in dists {
                maps.push(self.model.decoder().decode(&probs)?);
            }
        }
        self.requests += seismic.len();
        Ok(maps)
    }

    /// Predicts velocity maps for a request batch by **QuBatch packing**:
    /// all requests are amplitude-encoded into *one* physical register
    /// (batch index in the high-order qubits) and served with a single
    /// widened-circuit execution — the paper's Figure 3 construction as a
    /// serving primitive.
    ///
    /// Packing changes the cost model, not just the bookkeeping:
    ///
    /// * the backend executes **once** per batch, so on finite-shot or
    ///   hardware-style backends the whole batch shares one circuit
    ///   execution *and one shot budget* — per-request cost drops by
    ///   roughly the batch size;
    /// * the shared amplitude norm splits one unit of precision across
    ///   the batch (Section 3.3.3), so per-request fidelity on sampling
    ///   backends degrades gracefully with batch width. On exact
    ///   backends results match sequential prediction to rounding
    ///   (~1e-9), **not** bit-for-bit — coalescers that guarantee
    ///   bit-identical results use [`InferenceSession::predict_many`]
    ///   instead.
    ///
    /// Widened circuit structures are compiled once per batch width and
    /// cached for the session's lifetime;
    /// [`InferenceSession::set_params`] only marks them stale, and a
    /// stale entry re-binds the new parameters in O(params) the next
    /// time its width is served.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] if the model is multi-group, if a
    /// request length mismatches the model, or if the packed register
    /// would exceed the model's qubit budget; backend failures propagate.
    pub fn predict_packed(&mut self, seismic: &[Vec<f64>]) -> Result<Vec<Array2>, QuGeoError> {
        if seismic.is_empty() {
            return Ok(Vec::new());
        }
        let qubatch = QuBatch::new(&self.model)?;
        let batched = qubatch.encode_batch(seismic)?;
        let width = batched.batch_qubits();
        match self.packed.get_mut(&width) {
            None => {
                // First request at this width: structure-compile the
                // widened ansatz (parameter-independent — survives every
                // future set_params) and bind the current vector.
                let wide = self.model.circuit().widened(width);
                let structure = CircuitStructure::compile_with_passes(&wide, &PassConfig::all());
                self.packed
                    .insert(width, (self.param_gen, structure.bind(&self.params)?));
                self.compilations += 1;
            }
            Some((generation, compiled)) if *generation != self.param_gen => {
                // Bound under an older parameter vector: re-bind in place.
                compiled.rebind(&self.params)?;
                *generation = self.param_gen;
                self.rebinds += 1;
            }
            Some(_) => {}
        }
        // The packed register recycles the same engine buffer the
        // multi-member path uses — `load_states` re-shapes it per call.
        let register = match self.buffer.as_mut() {
            Some(buffer) => {
                buffer.load_states(std::slice::from_ref(batched.state()))?;
                self.buffer_reuses += 1;
                buffer
            }
            None => self
                .buffer
                .insert(BatchedState::replicate(batched.state(), 1)),
        };
        let maps =
            qubatch.execute_packed(register, seismic.len(), &self.packed[&width].1, &self.backend)?;
        self.requests += seismic.len();
        Ok(maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::model::VqcConfig;
    use qugeo_qsim::ansatz::EntangleOrder;
    use qugeo_qsim::ShotSamplerBackend;

    fn small_model() -> QuGeoVqc {
        QuGeoVqc::new(VqcConfig {
            seismic_len: 16,
            num_groups: 1,
            num_blocks: 2,
            mixing_blocks: 0,
            entangle: EntangleOrder::Ring,
            decoder: Decoder::LayerWise { rows: 4 },
            max_qubits: 16,
        })
        .unwrap()
    }

    fn request(seed: usize) -> Vec<f64> {
        (0..16)
            .map(|i| ((i + seed * 29) as f64 * 0.41).sin() + 0.3)
            .collect()
    }

    #[test]
    fn session_matches_direct_prediction() {
        let model = small_model();
        let params = model.init_params(7);
        let mut session = InferenceSession::new(model.clone(), &params).unwrap();
        for k in 0..4 {
            let via_session = session.predict(&request(k)).unwrap();
            let direct = model.predict(&request(k), &params).unwrap();
            for (a, b) in via_session.iter().zip(direct.iter()) {
                assert!((a - b).abs() < 1e-12, "request {k} diverged");
            }
        }
        assert_eq!(session.requests(), 4);
    }

    #[test]
    fn compiles_once_and_reuses_buffers_across_requests() {
        let model = small_model();
        let params = model.init_params(1);
        let mut session = InferenceSession::new(model, &params).unwrap();
        for k in 0..10 {
            session.predict(&request(k)).unwrap();
        }
        // The no-recompilation-per-request contract, asserted:
        assert_eq!(session.compilations(), 1);
        // First request allocates the buffer, the other nine recycle it.
        assert_eq!(session.buffer_reuses(), 9);
        assert_eq!(session.requests(), 10);
    }

    #[test]
    fn set_params_rebinds_without_recompiling() {
        let model = small_model();
        let p0 = model.init_params(1);
        let p1 = model.init_params(2);
        let mut session = InferenceSession::new(model.clone(), &p0).unwrap();
        session.predict(&request(0)).unwrap();
        session.set_params(&p1).unwrap();
        let after = session.predict(&request(0)).unwrap();
        // The parameter swap re-binds the existing fusion plan: still
        // exactly one structure compile for the session's lifetime.
        assert_eq!(session.compilations(), 1);
        assert_eq!(session.rebinds(), 1);
        let direct = model.predict(&request(0), &p1).unwrap();
        for (a, b) in after.iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(session.set_params(&[0.0]).is_err()); // wrong length
        // A failed swap leaves the session serving the last good params.
        assert_eq!(session.params(), &p1[..]);
        assert_eq!(session.rebinds(), 1);
    }

    #[test]
    fn predict_many_matches_per_request_calls() {
        let model = small_model();
        let params = model.init_params(5);
        let mut session = InferenceSession::new(model.clone(), &params).unwrap();
        let requests: Vec<Vec<f64>> = (0..5).map(request).collect();
        let batched = session.predict_many(&requests).unwrap();
        assert_eq!(batched.len(), 5);
        for (k, r) in requests.iter().enumerate() {
            let direct = model.predict(r, &params).unwrap();
            for (a, b) in batched[k].iter().zip(direct.iter()) {
                assert!((a - b).abs() < 1e-12, "request {k}");
            }
        }
        assert!(session.predict_many::<Vec<f64>>(&[]).unwrap().is_empty());
    }

    #[test]
    fn sampled_session_is_reproducible_per_seed() {
        let model = small_model();
        let params = model.init_params(3);
        let run = |seed: u64| {
            let backend = ShotSamplerBackend::new(2048, seed);
            let mut session =
                InferenceSession::with_backend(model.clone(), &params, backend).unwrap();
            session.predict(&request(1)).unwrap()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn packed_predictions_match_sequential_within_rounding() {
        let model = small_model();
        let params = model.init_params(13);
        let mut session = InferenceSession::new(model.clone(), &params).unwrap();
        let requests: Vec<Vec<f64>> = (0..6).map(request).collect();
        let packed = session.predict_packed(&requests).unwrap();
        assert_eq!(packed.len(), 6);
        for (k, r) in requests.iter().enumerate() {
            let solo = model.predict(r, &params).unwrap();
            for (a, b) in packed[k].iter().zip(solo.iter()) {
                assert!((a - b).abs() < 1e-9, "request {k}: {a} vs {b}");
            }
        }
        assert!(session.predict_packed(&[]).unwrap().is_empty());
    }

    #[test]
    fn packed_compiles_once_per_width_and_rebinds_on_set_params() {
        let model = small_model();
        let params = model.init_params(2);
        let mut session = InferenceSession::new(model.clone(), &params).unwrap();
        let requests: Vec<Vec<f64>> = (0..4).map(request).collect();
        session.predict_packed(&requests).unwrap(); // base + width 2
        session.predict_packed(&requests).unwrap(); // cached
        assert_eq!(session.compilations(), 2);
        session.predict_packed(&requests[..2]).unwrap(); // width 1
        assert_eq!(session.compilations(), 3);

        let p1 = model.init_params(5);
        session.set_params(&p1).unwrap(); // base + widths marked stale
        let after = session.predict_packed(&requests).unwrap();
        // No recompilation anywhere: the base ansatz and the width-2
        // entry re-bound (the width-1 entry stays stale until served).
        assert_eq!(session.compilations(), 3);
        assert_eq!(session.rebinds(), 2);
        for (k, r) in requests.iter().enumerate() {
            let solo = model.predict(r, &p1).unwrap();
            for (a, b) in after[k].iter().zip(solo.iter()) {
                assert!((a - b).abs() < 1e-9, "request {k} served stale params");
            }
        }
        // Serving the stale width-1 entry refreshes it too.
        let small = session.predict_packed(&requests[..2]).unwrap();
        assert_eq!(session.compilations(), 3);
        assert_eq!(session.rebinds(), 3);
        for (k, r) in requests[..2].iter().enumerate() {
            let solo = model.predict(r, &p1).unwrap();
            for (a, b) in small[k].iter().zip(solo.iter()) {
                assert!((a - b).abs() < 1e-9, "request {k} served stale params");
            }
        }
    }

    #[test]
    fn packed_rejects_budget_and_length_violations() {
        let model = small_model(); // 4 data qubits, 16-qubit budget
        let params = model.init_params(1);
        let mut session = InferenceSession::new(model, &params).unwrap();
        // Wrong request length.
        assert!(session.predict_packed(&[vec![1.0; 8]]).is_err());
        // 2^13 requests would need 4 + 13 qubits > 16; use a length
        // mismatch-free oversized batch of identical tiny requests.
        let huge: Vec<Vec<f64>> = (0..(1usize << 13)).map(|_| request(0)).collect();
        assert!(session.predict_packed(&huge).is_err());
    }

    #[test]
    fn rejects_bad_construction() {
        let model = small_model();
        assert!(InferenceSession::new(model.clone(), &[0.1, 0.2]).is_err());
        let params = model.init_params(0);
        let mut session = InferenceSession::new(model, &params).unwrap();
        assert!(session.predict(&[1.0; 8]).is_err()); // wrong seismic length
    }
}
