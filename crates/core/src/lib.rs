//! QuGeo: an end-to-end quantum learning framework for geoscience,
//! reproducing *"QuGeo: An End-to-end Quantum Learning Framework for
//! Geoscience — A Case Study on Full-Waveform Inversion"* (Jiang & Lin,
//! DAC 2024).
//!
//! QuGeo predicts subsurface **velocity maps** from surface **seismic
//! data** with a variational quantum circuit. The crate wires together
//! the workspace substrates into the paper's three components:
//!
//! 1. **QuGeoData** ([`pipeline`]) — physics-guided data scaling. Raw
//!    FlatVelA-sized samples (5×1000×70 seismic, 70×70 velocity) are
//!    shrunk to the 16-qubit budget (256 seismic values, 8×8 velocity)
//!    three ways: nearest-neighbour `D-Sample` (baseline), re-running
//!    acoustic forward modelling on the coarsened model at a lowered
//!    source frequency (`Q-D-FW`), or a trained CNN compressor
//!    (`Q-D-CNN`).
//! 2. **QuGeoVQC** ([`model`], [`decoder`]) — amplitude encoding grouped
//!    by seismic source, a 576-parameter `U3+CU3` ansatz, and two
//!    decoders: pixel-wise (`Q-M-PX`, 64 basis-state magnitudes) and
//!    layer-wise (`Q-M-LY`, 8 per-qubit ⟨Z⟩ row velocities).
//! 3. **QuBatch** ([`qubatch`]) — SIMD-style batching: 2^N samples share
//!    one circuit execution at the cost of N extra qubits.
//!
//! [`train`] is the unified training engine: a [`train::Trainer`]
//! drives any [`train::TrainStep`] strategy (mini-batch averaged
//! gradients, whose batch size 1 is the paper's per-sample loop;
//! QuBatch-widened batches; or the classical regressor) with pluggable
//! optimisers and learning-rate schedules (`qugeo_nn::optim`) and a
//! [`train::Callback`] stack (early stopping, periodic checkpoints,
//! extra metrics). Its defaults are the
//! paper's recipe (Adam, lr 0.1, cosine annealing) for quantum and
//! classical models alike. [`profile`] provides the
//! vertical-velocity-profile analyses of Figures 7 and 9.
//!
//! Simulation-heavy paths (batch prediction, evaluation epochs, QuBatch
//! forward passes) run through `qugeo_qsim`'s gate-fused batched engine
//! — the fusion plan is compiled once per circuit shape, new parameter
//! vectors are re-bound onto it in O(params), and whole sample batches
//! sweep through in one engine call; see
//! [`model::QuGeoVqc::predict_many`] and `docs/ARCHITECTURE.md`.
//!
//! Execution is **backend-pluggable**: every simulation-heavy entry
//! point has a `_with` variant taking a
//! [`qugeo_qsim::QuantumBackend`] — exact statevector (the default),
//! reference gate-by-gate, finite-shot sampling, or NISQ noise — and
//! gradient computation routes between adjoint differentiation and
//! through-the-backend parameter shift on the backend's capability
//! flags.
//!
//! **Serving** is two layers. [`session::InferenceSession`] is the
//! single-caller shape: backend + circuit structure compiled once and
//! re-bound per parameter swap + recycled batch buffers, with a
//! QuBatch-packed batch path
//! ([`session::InferenceSession::predict_packed`]). [`serve::QuServe`]
//! is the concurrent service on top: requests from many threads
//! coalesce in a bounded queue (typed [`serve::ServeError::Overloaded`]
//! backpressure) into batched engine calls on per-worker sessions —
//! bit-identical to sequential prediction in the default mode, or
//! QuBatch-packed so a whole batch shares one execution and one shot
//! budget — with named-checkpoint hot-swap via
//! [`serve::ModelRegistry`]. See `docs/SERVING.md`.
//!
//! # Quickstart
//!
//! ```
//! use qugeo::decoder::Decoder;
//! use qugeo::model::{QuGeoVqc, VqcConfig};
//!
//! # fn main() -> Result<(), qugeo::QuGeoError> {
//! // The paper's Q-M-LY model: 8 qubits, 12 blocks, 576 parameters.
//! let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
//! assert_eq!(model.num_params(), 576);
//!
//! // Predict from a (here: synthetic) 256-value scaled seismic vector.
//! let seismic: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
//! let params = vec![0.05; model.num_params()];
//! let velocity = model.predict(&seismic, &params)?;
//! assert_eq!(velocity.shape(), (8, 8));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod decoder;
pub mod model;
pub mod pipeline;
pub mod profile;
pub mod qubatch;
pub mod serve;
pub mod session;
pub mod train;
pub mod viz;

mod error;

pub use error::QuGeoError;
