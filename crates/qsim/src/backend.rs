//! Pluggable circuit-execution backends.
//!
//! The rest of the workspace used to call the statevector engine
//! ([`crate::State`] / [`BatchedState`] / [`CompiledCircuit`]) directly,
//! which hard-wired one execution substrate — exact, deterministic,
//! infinitely many measurement shots — into every model, trainer and
//! bench. A [`QuantumBackend`] abstracts the substrate behind four
//! operations (batch execution, per-member execution, expectation
//! estimation, probability estimation) plus capability flags, so the same
//! model code can run:
//!
//! * [`StatevectorBackend`] — the default: today's gate-fused,
//!   chunk-parallel, runtime-SIMD-dispatched engine (scalar / AVX2 /
//!   AVX-512 batched tile; see [`crate::simd_feature_level`]),
//!   bit-identical to calling the engine directly — and, by the kernel
//!   layer's canonical-FMA contract, bit-identical across SIMD tiers;
//! * [`NaiveBackend`] — a reference gate-by-gate interpreter using the
//!   seed's masked full-scan loops, kept for differential testing of the
//!   branch-free kernels (`tests/simd_differential.rs` pins the default
//!   backend against it on arbitrary circuits);
//! * [`ShotSamplerBackend`] — exact state evolution but **finite-shot**
//!   measurement statistics with a seedable RNG, the hardware-realism
//!   axis of arXiv:2503.05009;
//! * [`NoisyBackend`] — stochastic Pauli noise injected once per fused
//!   operation (not per source gate) plus a readout-error map, executing
//!   the channels of [`crate::noise`].
//!
//! Capability flags drive gradient routing: callers pick adjoint
//! differentiation when [`QuantumBackend::supports_adjoint_gradient`]
//! holds (it needs amplitude-level access to an exact state) and fall
//! back to batched parameter-shift through the backend otherwise
//! ([`crate::gradient::parameter_shift_gradient_backend`]).
//!
//! Thread budget is a first-class [`BackendConfig`] field; the
//! `QUGEO_SIM_THREADS` environment variable is only the fallback when no
//! count is configured.
//!
//! # Examples
//!
//! ```
//! use qugeo_qsim::backend::{QuantumBackend, ShotSamplerBackend, StatevectorBackend};
//! use qugeo_qsim::{BatchedState, Circuit, CompiledCircuit, DiagonalObservable, State};
//!
//! # fn main() -> Result<(), qugeo_qsim::QsimError> {
//! let mut circuit = Circuit::new(2);
//! circuit.h(0)?;
//! circuit.cx(0, 1)?;
//! let compiled = CompiledCircuit::compile(&circuit, &[])?;
//! let obs = DiagonalObservable::z(2, 1)?;
//!
//! let exact = StatevectorBackend::default();
//! let mut batch = BatchedState::replicate(&State::zero(2), 1);
//! exact.run_batch(&compiled, &mut batch)?;
//! assert!(exact.expectations(&batch, &obs)?[0].abs() < 1e-12); // Bell: <Z1> = 0
//!
//! // The same workload under a 4096-shot measurement budget.
//! let sampled = ShotSamplerBackend::new(4096, 7);
//! let mut batch = BatchedState::replicate(&State::zero(2), 1);
//! sampled.run_batch(&compiled, &mut batch)?;
//! assert!(sampled.expectations(&batch, &obs)?[0].abs() < 0.1);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use crate::adjoint::{AdjointWorkspace, ObsForMember};
use crate::batch::BatchedState;
use crate::circuit::Circuit;
use crate::fusion::{CompiledCircuit, FusedOp};
use crate::gates::Matrix2;
use crate::kernels::simulation_threads;
use crate::noise::{apply_readout_flip, empirical_probabilities, sample_counts, NoiseModel};
use crate::{Complex64, DiagonalObservable, QsimError, State};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Execution configuration shared by every backend.
///
/// The thread budget lives here rather than in a process-global: two
/// backends in one process can run with different budgets (e.g. a
/// latency-sensitive serving backend pinned to 1 thread next to a
/// throughput-oriented training backend using every core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendConfig {
    /// Worker threads the backend's kernels may use. `None` falls back to
    /// the `QUGEO_SIM_THREADS` environment variable, then to
    /// [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
}

impl BackendConfig {
    /// A config pinned to an explicit thread count (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
        }
    }

    /// The thread count this config resolves to.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(simulation_threads).max(1)
    }

    /// Splits the machine's simulation-thread budget across `workers`
    /// cooperating backends (minimum 1 thread each).
    ///
    /// A multi-worker serving layer runs one backend per worker thread;
    /// giving each of them the full machine budget (`QUGEO_SIM_THREADS`
    /// or [`std::thread::available_parallelism`]) would oversubscribe
    /// the host `workers`-fold. This constructor hands each worker an
    /// equal share, so `workers` sessions together use roughly the same
    /// budget one training backend would.
    pub fn shared_across(workers: usize) -> Self {
        let total = simulation_threads();
        Self::with_threads((total / workers.max(1)).max(1))
    }

    /// Splits *this* config's resolved budget a further `ways` ways
    /// (minimum 1 thread each).
    ///
    /// Where [`BackendConfig::shared_across`] divides the machine-wide
    /// budget, `split` divides an already-allocated share — e.g. a sweep
    /// trial that received `shared_across(parallel_trials)` hands each of
    /// its data-parallel replicas `split(replicas)`. The kernel layer's
    /// fixed-chunk reductions make results bit-identical whatever budget
    /// lands here; `split` only affects scheduling.
    pub fn split(&self, ways: usize) -> Self {
        Self::with_threads((self.effective_threads() / ways.max(1)).max(1))
    }
}

/// A circuit-execution substrate.
///
/// State *evolution* ([`QuantumBackend::run_batch`] /
/// [`QuantumBackend::run_each`]) is separated from *measurement*
/// ([`QuantumBackend::expectations`] / [`QuantumBackend::probabilities`])
/// so backends can model imperfections at either stage: the shot sampler
/// evolves exactly but measures statistically; the noisy backend corrupts
/// evolution and readout independently.
pub trait QuantumBackend: Send + Sync {
    /// Short human-readable backend name (used to label bench series and
    /// experiment output).
    fn name(&self) -> &'static str;

    /// The execution configuration in use.
    fn config(&self) -> &BackendConfig;

    /// `true` when the backend produces exact statevectors, making
    /// adjoint differentiation (which reads amplitudes directly) valid.
    /// Callers fall back to parameter-shift through the backend when this
    /// is `false`.
    fn supports_adjoint_gradient(&self) -> bool;

    /// `true` when repeating the same call sequence yields bit-identical
    /// results without any stochastic element (sampling backends return
    /// `false` even though they are reproducible per seed).
    fn is_deterministic(&self) -> bool;

    /// Applies one compiled circuit to every member of the batch.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] if the circuit width
    /// differs from the members'.
    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError>;

    /// Applies circuit `i` to member `i` (the parameter-shift shape).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidEncoding`] on a count mismatch or
    /// [`QsimError::QubitCountMismatch`] on a width mismatch.
    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError>;

    /// Estimates `⟨O⟩` for every member of an already-evolved batch.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] if the observable width
    /// differs from the members'.
    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError>;

    /// Estimates the basis-state probability distribution of every member
    /// of an already-evolved batch (one `2^n` vector per member).
    ///
    /// # Errors
    ///
    /// Returns an error if estimation fails (e.g. sampling from an
    /// invalid distribution).
    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError>;

    /// Convenience: runs one compiled circuit on a single input state
    /// through the backend, returning the evolved state.
    ///
    /// # Errors
    ///
    /// Propagates [`QuantumBackend::run_batch`] errors.
    fn run_state(&self, circuit: &CompiledCircuit, input: &State) -> Result<State, QsimError> {
        let mut batch = BatchedState::replicate(input, 1);
        self.run_batch(circuit, &mut batch)?;
        batch.member(0)
    }

    /// Batched adjoint gradients for every member of `inputs` — the
    /// training hot path. `obs_for(b, probs)` is called once per member,
    /// in order, with that member's exact output distribution and returns
    /// the member's effective diagonal observable (how QuGeo's decoders
    /// express a loss gradient); results land in the caller-held `ws`
    /// ([`AdjointWorkspace::values`] / [`AdjointWorkspace::grad`]), whose
    /// buffers are recycled across calls.
    ///
    /// The provided implementation drives the fused batched engine
    /// ([`crate::adjoint`]) through
    /// [`AdjointWorkspace::adjoint_batch`] under the backend's thread
    /// budget: the workspace caches the compiled circuit, so repeated
    /// calls with the same circuit re-bind parameters instead of
    /// recompiling (see [`AdjointWorkspace::recompiles`] /
    /// [`AdjointWorkspace::rebinds`]). Exact backends may override it — the
    /// [`NaiveBackend`] substitutes the serial unfused reference so
    /// differential tests can pin the fused engine through this very
    /// trait. Backends without amplitude access cannot implement it at
    /// all; callers route on [`QuantumBackend::supports_adjoint_gradient`]
    /// and fall back to parameter shift.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::Unsupported`] when
    /// [`QuantumBackend::supports_adjoint_gradient`] is `false`, and
    /// propagates mismatch, engine, and `obs_for` errors.
    fn adjoint_gradient_batch(
        &self,
        circuit: &Circuit,
        params: &[f64],
        inputs: &BatchedState,
        obs_for: &mut ObsForMember<'_>,
        ws: &mut AdjointWorkspace,
    ) -> Result<(), QsimError> {
        if !self.supports_adjoint_gradient() {
            return Err(QsimError::Unsupported {
                reason: format!(
                    "backend '{}' exposes no exact amplitudes; route gradients \
                     through parameter shift instead",
                    self.name()
                ),
            });
        }
        let threads = self.config().effective_threads();
        ws.adjoint_batch(circuit, params, inputs, threads, obs_for)
    }
}

/// The default backend: the gate-fused, chunk-parallel statevector
/// engine, exact and deterministic. Behaviour is bit-identical to calling
/// [`BatchedState::apply_compiled`] / [`BatchedState::apply_each`]
/// directly with the configured thread budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatevectorBackend {
    config: BackendConfig,
}

impl StatevectorBackend {
    /// A statevector backend with an explicit config.
    pub fn with_config(config: BackendConfig) -> Self {
        Self { config }
    }
}

impl QuantumBackend for StatevectorBackend {
    fn name(&self) -> &'static str {
        "statevector"
    }

    fn config(&self) -> &BackendConfig {
        &self.config
    }

    fn supports_adjoint_gradient(&self) -> bool {
        true
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        batch.apply_compiled_threaded(circuit, self.config.effective_threads())
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        batch.apply_each_threaded(circuits, self.config.effective_threads())
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        batch.expectations(obs)
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        (0..batch.batch_len())
            .map(|b| batch.member_probabilities(b))
            .collect()
    }
}

/// Reference backend: every fused operation is applied with the seed's
/// masked full-scan loops, one member at a time, single-threaded. It
/// exists for differential testing — any divergence from
/// [`StatevectorBackend`] beyond rounding noise indicts the branch-free
/// kernels or the chunked parallel split, not the model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBackend {
    config: BackendConfig,
}

impl NaiveBackend {
    fn apply(circuit: &CompiledCircuit, amps: &mut [Complex64]) {
        for op in circuit.ops() {
            match op {
                FusedOp::One { m, q } => naive_one(amps, m, *q),
                FusedOp::Multiplexed { a0, a1, c, t } => naive_multiplexed(amps, a0, a1, *c, *t),
                FusedOp::Two { m, a, b } => naive_two(amps, &m.m, *a, *b),
            }
        }
    }
}

impl QuantumBackend for NaiveBackend {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn config(&self) -> &BackendConfig {
        &self.config
    }

    fn supports_adjoint_gradient(&self) -> bool {
        true
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        check_circuit_width(circuit, batch)?;
        let dim = batch.member_dim();
        for member in batch.amps_mut().chunks_mut(dim) {
            Self::apply(circuit, member);
        }
        Ok(())
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        check_each_inputs(circuits, batch)?;
        let dim = batch.member_dim();
        for (member, circuit) in batch.amps_mut().chunks_mut(dim).zip(circuits) {
            Self::apply(circuit, member);
        }
        Ok(())
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        batch.expectations(obs)
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        (0..batch.batch_len())
            .map(|b| batch.member_probabilities(b))
            .collect()
    }

    /// The serial, unfused reference adjoint: one gate-by-gate
    /// [`crate::adjoint_gradient`] pass per member. Nothing here is
    /// shared with the fused batched engine, so any divergence between
    /// this backend and [`StatevectorBackend`] through the same trait
    /// call indicts the fused sweep.
    fn adjoint_gradient_batch(
        &self,
        circuit: &Circuit,
        params: &[f64],
        inputs: &BatchedState,
        obs_for: &mut ObsForMember<'_>,
        ws: &mut AdjointWorkspace,
    ) -> Result<(), QsimError> {
        ws.prepare_results(circuit.num_qubits(), inputs.batch_len(), circuit.num_slots());
        for b in 0..inputs.batch_len() {
            let input = inputs.member(b)?;
            let psi = circuit.run(&input, params)?;
            let obs = obs_for(b, &psi.probabilities())?;
            let (value, grad) = crate::gradient::adjoint_gradient(circuit, params, &input, &obs)?;
            ws.set_member_result(b, value, &grad);
        }
        Ok(())
    }
}

/// Finite-shot backend: state evolution is exact (it models a perfect
/// device), but every measurement is estimated from `shots` samples of
/// the output distribution — expectation values and probabilities carry
/// the `O(1/√shots)` statistical error real hardware pays.
///
/// Sampling is reproducible: a fixed `seed` plus an identical sequence of
/// calls yields identical estimates (an internal call counter derives a
/// fresh stream per call and member, so repeated measurements are
/// independent draws, not copies).
#[derive(Debug)]
pub struct ShotSamplerBackend {
    config: BackendConfig,
    exact: StatevectorBackend,
    shots: usize,
    seed: u64,
    calls: AtomicU64,
}

impl ShotSamplerBackend {
    /// A sampler taking `shots` measurements per estimate (minimum 1).
    pub fn new(shots: usize, seed: u64) -> Self {
        Self::with_config(shots, seed, BackendConfig::default())
    }

    /// [`ShotSamplerBackend::new`] with an explicit config.
    pub fn with_config(shots: usize, seed: u64, config: BackendConfig) -> Self {
        Self {
            config,
            exact: StatevectorBackend::with_config(config),
            shots: shots.max(1),
            seed,
            calls: AtomicU64::new(0),
        }
    }

    /// Measurement shots per estimate.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Empirical distribution of one member from `shots` draws.
    fn sample_member(&self, batch: &BatchedState, b: usize, call: u64) -> Result<Vec<f64>, QsimError> {
        let probs = batch.member_probabilities(b)?;
        let counts = sample_counts(&probs, self.shots, mix_seed(self.seed, call, b as u64))?;
        empirical_probabilities(&counts)
    }
}

impl QuantumBackend for ShotSamplerBackend {
    fn name(&self) -> &'static str {
        "shot-sampler"
    }

    fn config(&self) -> &BackendConfig {
        &self.config
    }

    fn supports_adjoint_gradient(&self) -> bool {
        false // adjoint reads exact amplitudes a sampled device cannot expose
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        self.exact.run_batch(circuit, batch)
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        self.exact.run_each(circuits, batch)
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        if obs.num_qubits() != batch.num_qubits() {
            return Err(QsimError::QubitCountMismatch {
                expected: batch.num_qubits(),
                actual: obs.num_qubits(),
            });
        }
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        (0..batch.batch_len())
            .map(|b| {
                let empirical = self.sample_member(batch, b, call)?;
                Ok(empirical
                    .iter()
                    .zip(obs.diagonal())
                    .map(|(p, d)| p * d)
                    .sum())
            })
            .collect()
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        (0..batch.batch_len())
            .map(|b| self.sample_member(batch, b, call))
            .collect()
    }
}

/// NISQ backend: exact evolution corrupted by one stochastic Pauli-noise
/// trajectory per member, plus the symmetric readout-error map applied
/// at measurement. Each depolarizing channel of the [`NoiseModel`] is
/// unravelled into a uniformly random X, Y or Z inserted with the
/// channel's probability.
///
/// Noise is inserted at **fused-op granularity**: after every fused op of
/// the compiled circuit, not after every source gate — each fused op
/// stands in for one hardware-native gate. On the paper ansatz that is
/// 97 insertion points rather than 192 (see the [`crate::noise`] module
/// docs).
///
/// One `run_batch` call is one trajectory per member. Monte-Carlo
/// averaging over trajectories, when wanted, is the caller's loop —
/// replicate the input across members or call repeatedly; the internal
/// call counter gives every member of every call an independent noise
/// stream, reproducibly per seed.
#[derive(Debug)]
pub struct NoisyBackend {
    config: BackendConfig,
    noise: NoiseModel,
    seed: u64,
    calls: AtomicU64,
}

impl NoisyBackend {
    /// A noisy backend drawing trajectories under `noise` from `seed`.
    pub fn new(noise: NoiseModel, seed: u64) -> Self {
        Self::with_config(noise, seed, BackendConfig::default())
    }

    /// [`NoisyBackend::new`] with an explicit config.
    pub fn with_config(noise: NoiseModel, seed: u64, config: BackendConfig) -> Self {
        Self {
            config,
            noise,
            seed,
            calls: AtomicU64::new(0),
        }
    }

    /// The noise model in use.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Applies `circuit` to one member with Pauli insertions after each
    /// fused op.
    fn apply_noisy(&self, circuit: &CompiledCircuit, amps: &mut [Complex64], rng: &mut StdRng) {
        for op in circuit.ops() {
            match op {
                FusedOp::One { m, q } => {
                    naive_one(amps, m, *q);
                    self.insert_pauli(amps, &[*q], self.noise.single_qubit_depolarizing, rng);
                }
                FusedOp::Multiplexed { a0, a1, c, t } => {
                    naive_multiplexed(amps, a0, a1, *c, *t);
                    self.insert_pauli(amps, &[*c, *t], self.noise.two_qubit_depolarizing, rng);
                }
                FusedOp::Two { m, a, b } => {
                    naive_two(amps, &m.m, *a, *b);
                    self.insert_pauli(amps, &[*a, *b], self.noise.two_qubit_depolarizing, rng);
                }
            }
        }
    }

    fn insert_pauli(&self, amps: &mut [Complex64], qubits: &[usize], p: f64, rng: &mut StdRng) {
        if p == 0.0 {
            return;
        }
        for &q in qubits {
            if rng.gen::<f64>() < p {
                let pauli = match rng.gen_range(0..3) {
                    0 => Matrix2::x(),
                    1 => Matrix2::y(),
                    _ => Matrix2::z(),
                };
                naive_one(amps, &pauli, q);
            }
        }
    }
}

impl QuantumBackend for NoisyBackend {
    fn name(&self) -> &'static str {
        "noisy"
    }

    fn config(&self) -> &BackendConfig {
        &self.config
    }

    fn supports_adjoint_gradient(&self) -> bool {
        false // the evolved state is one noisy trajectory, not |ψ(θ)⟩
    }

    fn is_deterministic(&self) -> bool {
        self.noise.is_noiseless()
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        check_circuit_width(circuit, batch)?;
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let dim = batch.member_dim();
        for (b, member) in batch.amps_mut().chunks_mut(dim).enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, call, b as u64));
            self.apply_noisy(circuit, member, &mut rng);
        }
        Ok(())
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        check_each_inputs(circuits, batch)?;
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let dim = batch.member_dim();
        for (b, (member, circuit)) in batch.amps_mut().chunks_mut(dim).zip(circuits).enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, call, b as u64));
            self.apply_noisy(circuit, member, &mut rng);
        }
        Ok(())
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        if obs.num_qubits() != batch.num_qubits() {
            return Err(QsimError::QubitCountMismatch {
                expected: batch.num_qubits(),
                actual: obs.num_qubits(),
            });
        }
        Ok(self
            .probabilities(batch)?
            .into_iter()
            .map(|probs| probs.iter().zip(obs.diagonal()).map(|(p, d)| p * d).sum())
            .collect())
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        (0..batch.batch_len())
            .map(|b| {
                let probs = batch.member_probabilities(b)?;
                Ok(apply_readout_flip(
                    &probs,
                    batch.num_qubits(),
                    self.noise.readout_flip,
                ))
            })
            .collect()
    }
}

fn check_circuit_width(circuit: &CompiledCircuit, batch: &BatchedState) -> Result<(), QsimError> {
    if circuit.num_qubits() != batch.num_qubits() {
        return Err(QsimError::QubitCountMismatch {
            expected: batch.num_qubits(),
            actual: circuit.num_qubits(),
        });
    }
    Ok(())
}

fn check_each_inputs(circuits: &[CompiledCircuit], batch: &BatchedState) -> Result<(), QsimError> {
    if circuits.len() != batch.batch_len() {
        return Err(QsimError::InvalidEncoding {
            reason: format!(
                "{} circuits for a batch of {}",
                circuits.len(),
                batch.batch_len()
            ),
        });
    }
    for c in circuits {
        check_circuit_width(c, batch)?;
    }
    Ok(())
}

/// SplitMix64-style seed mixing so distinct (call, member) pairs get
/// decorrelated RNG streams from one base seed.
fn mix_seed(base: u64, call: u64, member: u64) -> u64 {
    let mut z = base
        ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ member.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- Reference (seed-style) gate loops ------------------------------------
//
// Masked full-index scans, exactly the shape the seed shipped with. They
// stay deliberately naive: the point is an implementation with nothing in
// common with the branch-free chunked kernels.

fn naive_one(amps: &mut [Complex64], g: &Matrix2, q: usize) {
    let mask = 1usize << q;
    let [[m00, m01], [m10, m11]] = g.m;
    for i in 0..amps.len() {
        if i & mask == 0 {
            let j = i | mask;
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = m00 * a0 + m01 * a1;
            amps[j] = m10 * a0 + m11 * a1;
        }
    }
}

fn naive_multiplexed(amps: &mut [Complex64], a0: &Matrix2, a1: &Matrix2, c: usize, t: usize) {
    let cmask = 1usize << c;
    let tmask = 1usize << t;
    let [[z00, z01], [z10, z11]] = a0.m;
    let [[o00, o01], [o10, o11]] = a1.m;
    for i in 0..amps.len() {
        if i & tmask == 0 {
            let j = i | tmask;
            let x0 = amps[i];
            let x1 = amps[j];
            if i & cmask == 0 {
                amps[i] = z00 * x0 + z01 * x1;
                amps[j] = z10 * x0 + z11 * x1;
            } else {
                amps[i] = o00 * x0 + o01 * x1;
                amps[j] = o10 * x0 + o11 * x1;
            }
        }
    }
}

fn naive_two(amps: &mut [Complex64], m: &[[Complex64; 4]; 4], a: usize, b: usize) {
    let ma = 1usize << a;
    let mb = 1usize << b;
    for i in 0..amps.len() {
        if i & ma == 0 && i & mb == 0 {
            let idx = [i, i | ma, i | mb, i | ma | mb];
            let v = idx.map(|k| amps[k]);
            for (r, &k) in idx.iter().enumerate() {
                amps[k] = m[r][0] * v[0] + m[r][1] * v[1] + m[r][2] * v[2] + m[r][3] * v[3];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
    use crate::Circuit;

    fn ansatz(n: usize, blocks: usize) -> (Circuit, Vec<f64>) {
        let c = u3_cu3_ansatz(AnsatzConfig {
            num_qubits: n,
            num_blocks: blocks,
            entangle: EntangleOrder::Ring,
        })
        .unwrap();
        let params = (0..c.num_slots())
            .map(|i| (i as f64 * 0.61).sin() * 0.8)
            .collect();
        (c, params)
    }

    fn sample_batch(n: usize, members: usize) -> BatchedState {
        let states: Vec<State> = (0..members)
            .map(|k| {
                let data: Vec<f64> = (0..1usize << n)
                    .map(|i| ((i + 7 * k) as f64 * 0.43).sin() + 0.2)
                    .collect();
                State::from_real_normalized(&data).unwrap()
            })
            .collect();
        BatchedState::from_states(&states).unwrap()
    }

    #[test]
    fn split_divides_a_resolved_budget_with_a_floor_of_one() {
        let cfg = BackendConfig::with_threads(8);
        assert_eq!(cfg.split(2).effective_threads(), 4);
        assert_eq!(cfg.split(3).effective_threads(), 2);
        assert_eq!(cfg.split(8).effective_threads(), 1);
        assert_eq!(cfg.split(100).effective_threads(), 1);
        assert_eq!(cfg.split(0).effective_threads(), 8);
        // Splitting resolves the budget first: the result is always pinned.
        assert!(BackendConfig::default().split(2).threads.is_some());
    }

    #[test]
    fn statevector_and_naive_agree() {
        let (c, params) = ansatz(4, 3);
        let compiled = c.compile(&params).unwrap();
        let mut fast = sample_batch(4, 3);
        let mut slow = fast.clone();
        StatevectorBackend::default().run_batch(&compiled, &mut fast).unwrap();
        NaiveBackend::default().run_batch(&compiled, &mut slow).unwrap();
        for b in 0..3 {
            for (x, y) in fast
                .member_amps(b)
                .unwrap()
                .iter()
                .zip(slow.member_amps(b).unwrap())
            {
                assert!((*x - *y).norm() < 1e-12, "member {b} diverged");
            }
        }
    }

    #[test]
    fn run_each_matches_run_batch_on_identical_circuits() {
        let (c, params) = ansatz(3, 2);
        let compiled = c.compile(&params).unwrap();
        for backend in [&StatevectorBackend::default() as &dyn QuantumBackend, &NaiveBackend::default()] {
            let mut via_batch = sample_batch(3, 4);
            let mut via_each = via_batch.clone();
            backend.run_batch(&compiled, &mut via_batch).unwrap();
            backend
                .run_each(&vec![compiled.clone(); 4], &mut via_each)
                .unwrap();
            assert_eq!(via_batch, via_each);
        }
    }

    #[test]
    fn shot_sampler_is_reproducible_per_seed() {
        let (c, params) = ansatz(3, 2);
        let compiled = c.compile(&params).unwrap();
        let obs = DiagonalObservable::z(3, 1).unwrap();

        let run = |seed: u64| {
            let backend = ShotSamplerBackend::new(512, seed);
            let mut batch = sample_batch(3, 2);
            backend.run_batch(&compiled, &mut batch).unwrap();
            let e = backend.expectations(&batch, &obs).unwrap();
            let p = backend.probabilities(&batch).unwrap();
            (e, p)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn repeated_measurements_are_fresh_draws() {
        let (c, params) = ansatz(3, 1);
        let compiled = c.compile(&params).unwrap();
        let obs = DiagonalObservable::z(3, 0).unwrap();
        let backend = ShotSamplerBackend::new(64, 3);
        let mut batch = sample_batch(3, 1);
        backend.run_batch(&compiled, &mut batch).unwrap();
        let a = backend.expectations(&batch, &obs).unwrap();
        let b = backend.expectations(&batch, &obs).unwrap();
        // Same state, new shots: estimates differ (64 shots is coarse).
        assert_ne!(a, b);
    }

    #[test]
    fn shot_estimates_converge_to_exact() {
        let (c, params) = ansatz(3, 2);
        let compiled = c.compile(&params).unwrap();
        let obs = DiagonalObservable::z(3, 2).unwrap();
        let mut batch = sample_batch(3, 1);
        StatevectorBackend::default()
            .run_batch(&compiled, &mut batch)
            .unwrap();
        let exact = batch.expectations(&obs).unwrap()[0];

        let err = |shots: usize, seed: u64| {
            let backend = ShotSamplerBackend::new(shots, seed);
            (backend.expectations(&batch, &obs).unwrap()[0] - exact).abs()
        };
        assert!(err(100_000, 5) < 0.02);
        // Averaged over seeds, 1000× the shots must mean smaller error.
        let mean = |shots: usize| (0..10).map(|s| err(shots, s)).sum::<f64>() / 10.0;
        assert!(mean(100_000) < mean(100));
    }

    #[test]
    fn noisy_backend_noiseless_matches_exact() {
        let (c, params) = ansatz(3, 2);
        let compiled = c.compile(&params).unwrap();
        let backend = NoisyBackend::new(NoiseModel::noiseless(), 0);
        assert!(backend.is_deterministic());
        let mut noisy = sample_batch(3, 2);
        let mut exact = noisy.clone();
        backend.run_batch(&compiled, &mut noisy).unwrap();
        StatevectorBackend::default()
            .run_batch(&compiled, &mut exact)
            .unwrap();
        for b in 0..2 {
            for (x, y) in noisy
                .member_amps(b)
                .unwrap()
                .iter()
                .zip(exact.member_amps(b).unwrap())
            {
                assert!((*x - *y).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn noisy_backend_perturbs_and_readout_mixes() {
        let (c, params) = ansatz(3, 2);
        let compiled = c.compile(&params).unwrap();
        let noise = NoiseModel::uniform_depolarizing(0.2)
            .unwrap()
            .with_readout_flip(0.05)
            .unwrap();
        let backend = NoisyBackend::new(noise, 11);
        assert!(!backend.is_deterministic());
        assert!(!backend.supports_adjoint_gradient());

        let mut noisy = sample_batch(3, 4);
        let mut exact = noisy.clone();
        backend.run_batch(&compiled, &mut noisy).unwrap();
        StatevectorBackend::default()
            .run_batch(&compiled, &mut exact)
            .unwrap();
        let drift: f64 = (0..4)
            .map(|b| {
                noisy
                    .member_amps(b)
                    .unwrap()
                    .iter()
                    .zip(exact.member_amps(b).unwrap())
                    .map(|(x, y)| (*x - *y).norm())
                    .sum::<f64>()
            })
            .sum();
        assert!(drift > 1e-3, "20% depolarizing left the state untouched");

        // Probabilities stay normalised through the readout map.
        for probs in backend.probabilities(&noisy).unwrap() {
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(probs.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn capability_flags() {
        let sv = StatevectorBackend::default();
        assert!(sv.supports_adjoint_gradient() && sv.is_deterministic());
        assert_eq!(sv.name(), "statevector");
        let naive = NaiveBackend::default();
        assert!(naive.supports_adjoint_gradient() && naive.is_deterministic());
        let shots = ShotSamplerBackend::new(100, 0);
        assert!(!shots.supports_adjoint_gradient() && !shots.is_deterministic());
        assert_eq!(shots.shots(), 100);
        assert_eq!(ShotSamplerBackend::new(0, 0).shots(), 1);
    }

    #[test]
    fn config_thread_resolution() {
        assert_eq!(BackendConfig::with_threads(3).effective_threads(), 3);
        assert_eq!(BackendConfig::with_threads(0).effective_threads(), 1);
        assert!(BackendConfig::default().effective_threads() >= 1);
        // Worker shares never exceed the whole budget and never hit zero.
        let budget = BackendConfig::default().effective_threads();
        assert!(BackendConfig::shared_across(1).effective_threads() <= budget.max(1));
        assert_eq!(BackendConfig::shared_across(usize::MAX).effective_threads(), 1);
        assert_eq!(BackendConfig::shared_across(0).effective_threads(), budget);
    }

    #[test]
    fn backends_validate_widths_and_counts() {
        let (c, params) = ansatz(3, 1);
        let compiled = c.compile(&params).unwrap();
        let mut wrong = sample_batch(2, 2);
        for backend in [
            &StatevectorBackend::default() as &dyn QuantumBackend,
            &NaiveBackend::default(),
            &ShotSamplerBackend::new(16, 0),
            &NoisyBackend::new(NoiseModel::noiseless(), 0),
        ] {
            assert!(backend.run_batch(&compiled, &mut wrong).is_err());
            assert!(backend
                .run_each(std::slice::from_ref(&compiled), &mut wrong)
                .is_err()); // count mismatch
            let obs = DiagonalObservable::z(3, 0).unwrap();
            assert!(backend.expectations(&wrong, &obs).is_err());
        }
    }

    #[test]
    fn run_state_round_trips() {
        let (c, params) = ansatz(3, 2);
        let compiled = c.compile(&params).unwrap();
        let input = sample_batch(3, 1).member(0).unwrap();
        let via_backend = StatevectorBackend::default()
            .run_state(&compiled, &input)
            .unwrap();
        let direct = compiled.run(&input).unwrap();
        assert_eq!(via_backend, direct);
    }
}
