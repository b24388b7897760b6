//! Statevector quantum circuit simulation with exact gradients.
//!
//! This crate is the quantum substrate of the QuGeo reproduction. It plays
//! the role TorchQuantum plays in the paper: it simulates parameterised
//! quantum circuits (variational quantum circuits, VQCs) on a classical
//! statevector and differentiates measurement outcomes with respect to the
//! circuit parameters.
//!
//! # Architecture
//!
//! * [`Complex64`] — a self-contained complex number type (the offline
//!   dependency set has no `num-complex`).
//! * [`State`] — a little-endian statevector over `n` qubits with gate
//!   application kernels and measurement helpers.
//! * [`Circuit`] — an ordered list of gates whose angles either are fixed
//!   or reference trainable parameter *slots*.
//! * [`DiagonalObservable`] — the observables QuGeo needs (per-qubit Pauli-Z
//!   and basis-state projectors) are all diagonal; gradients of any loss
//!   expressible through diagonal-observable expectations flow through one
//!   [`adjoint_gradient`] pass.
//! * [`ansatz`] — the `U3+CU3` block ansatz of the paper (12 blocks × 8
//!   qubits ⇒ 576 parameters).
//! * [`encoding`] — amplitude encoding: plain, grouped (ST-Encoder) and
//!   batched (QuBatch).
//! * [`fusion`] — gate-fused circuit compilation split into a
//!   parameter-independent structure compile ([`CircuitStructure`]) and a
//!   cheap angle bind: the structure merges runs of mergeable gates into
//!   composite 2×2, multiplexed (uniformly-controlled) and dense 4×4
//!   operations (roughly halving amplitude sweeps on the paper's ansatz),
//!   and [`CompiledCircuit`] binds — and O(params) *re-binds* — concrete
//!   angle values into that fixed plan without re-fusing.
//! * [`passes`] — the optimizer pass pipeline between structure compile
//!   and bind: rotation merging, inverse-pair cancellation and
//!   commutation-aware pair widening, each independently toggleable via
//!   [`passes::PassConfig`].
//! * [`batch`] — [`BatchedState`]: `B` independent statevectors stored
//!   contiguously and executed through one engine call (the training and
//!   parameter-shift hot path).
//! * [`adjoint`] — the fused, batched adjoint gradient engine: circuits
//!   compiled with per-fused-op derivative metadata
//!   ([`CompiledCircuit::compile_with_grad`]) sweep all batch members'
//!   ket/bra pairs backwards together through a reusable
//!   [`AdjointWorkspace`] — the production training gradient, with
//!   [`adjoint_gradient`] kept as the serial unfused reference.
//! * [`backend`] — the pluggable execution surface: [`QuantumBackend`]
//!   implementations for exact statevector simulation
//!   ([`StatevectorBackend`], the default), reference gate-by-gate
//!   execution ([`NaiveBackend`]), finite-shot measurement statistics
//!   ([`ShotSamplerBackend`]) and NISQ gate/readout noise
//!   ([`NoisyBackend`]), with capability flags:
//!   `supports_adjoint_gradient` drives gradient routing (adjoint when
//!   exact, parameter-shift through the backend otherwise) and
//!   `is_deterministic` tells callers whether repeated runs are
//!   cacheable or need averaging.
//! * [`fault`] — [`FaultInjectingBackend`], a chaos-testing decorator
//!   that injects a seeded, exactly reproducible schedule of panics,
//!   transient typed errors, latency spikes and NaN outputs into any
//!   backend, used to prove the serving layer's self-healing story.
//!
//! Gate application funnels through branch-free kernels that switch to
//! chunked multi-threading (scoped threads; no external dependencies) on
//! registers of ≥ 2¹⁵ amplitudes, with a serial fallback below that. The
//! thread budget is a [`BackendConfig`] field; `QUGEO_SIM_THREADS` is the
//! fallback when none is configured. On x86-64 CPUs with AVX2 and FMA the
//! kernels run explicit-lane SIMD bodies selected once per process by
//! runtime feature detection, and where AVX-512F is also present the
//! batched tile sweeps widen to 512-bit eight-member registers
//! ([`simd_feature_level`] reports the resolved tier: `"avx512"`,
//! `"avx2"` or `"scalar"`). `QUGEO_SIMD=off` — or
//! [`set_simd_enabled`]`(false)` for in-process A/B runs — pins the
//! bit-identical scalar tier.
//!
//! # Qubit ordering
//!
//! Little-endian: qubit `q` is bit `q` of the basis-state index. Amplitude
//! encoding therefore loads classical element `i` at basis index `i`.
//!
//! # Examples
//!
//! ```
//! use qugeo_qsim::{Circuit, State, DiagonalObservable};
//!
//! # fn main() -> Result<(), qugeo_qsim::QsimError> {
//! // A one-qubit circuit that rotates |0> by a trainable RY angle.
//! let mut circuit = Circuit::new(1);
//! let slot = circuit.alloc_slot();
//! circuit.ry_slot(0, slot)?;
//!
//! let state = circuit.run(&State::zero(1), &[std::f64::consts::PI])?;
//! let z = DiagonalObservable::z(1, 0)?;
//! assert!((z.expectation(&state) - (-1.0)).abs() < 1e-12); // RY(pi)|0> = |1>
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod circuit;
mod complex;
mod error;
mod gates;
mod kernels;
mod observable;
mod state;

pub mod adjoint;
pub mod ansatz;
pub mod backend;
pub mod batch;
pub mod complexity;
pub mod encoding;
pub mod fault;
pub mod fusion;
pub mod gradient;
pub mod noise;
pub mod passes;

pub use adjoint::{adjoint_gradient_batch, adjoint_gradient_batch_with, AdjointWorkspace};
pub use backend::{
    BackendConfig, NaiveBackend, NoisyBackend, QuantumBackend, ShotSamplerBackend,
    StatevectorBackend,
};
pub use batch::BatchedState;
pub use circuit::{AngleSources, Circuit, Gate1, Op, ParamSource};
pub use complex::Complex64;
pub use error::QsimError;
pub use fault::{FaultInjectingBackend, FaultPlan, FaultState};
pub use fusion::{CircuitStructure, CompiledCircuit, DerivKind, FusedOp, SlotDeriv};
pub use gates::{Matrix2, Matrix4};
pub use kernels::{set_simd_enabled, simd_feature_level, simulation_threads};
pub use passes::{run_passes, CancelInverses, MergeRotations, Pass, PassConfig, PassIr, WidenPairs};
pub use gradient::{
    adjoint_gradient, finite_difference_gradient, parameter_shift_gradient,
    parameter_shift_gradient_backend, parameter_shift_gradient_batched,
};
pub use observable::DiagonalObservable;
pub use state::State;
