//! Fused, batched adjoint differentiation — the training hot path.
//!
//! The serial [`crate::adjoint_gradient`] walks the *unfused* op list one
//! gate at a time, single-threaded, and allocates a ket clone, a bra, a
//! scratch state, and a gradient vector on every call. This module
//! replaces it as the production gradient engine:
//!
//! * **Fused sweeps.** The circuit is compiled with gradient metadata
//!   ([`CompiledCircuit::compile_with_grad`]): each fused op records the
//!   derivative of its fused matrix per absorbed trainable angle
//!   ([`crate::SlotDeriv`]). The backward pass therefore sweeps ~half as
//!   many ops as the unfused list on the paper ansatz, and each gradient
//!   contribution `2·Re⟨bra|∂F|ket⟩` is contracted directly by the
//!   reduction kernels — no scratch statevector at all.
//! * **Batching.** All batch members' ket/bra pairs live in two
//!   contiguous `B·2^n` arrays and sweep together: member-parallel
//!   (contiguous member ranges per worker, like
//!   [`crate::BatchedState::apply_each`]) for cache-sized members,
//!   gate-parallel chunked kernels for large ones.
//! * **Workspace reuse.** An [`AdjointWorkspace`] owns the ket/bra/
//!   value/gradient buffers and is held by the caller across training
//!   steps; steady-state steps perform **no** heap allocation in the
//!   engine, a contract the workspace counts
//!   ([`AdjointWorkspace::allocations`] / [`AdjointWorkspace::reuses`])
//!   so tests assert it instead of trusting it.
//! * **Structure caching.** [`AdjointWorkspace::adjoint_batch`] keeps the
//!   compiled circuit across steps and re-binds new parameter values into
//!   the cached fusion plan ([`CompiledCircuit::rebind`]) instead of
//!   recompiling; a training loop structure-compiles exactly once,
//!   counted by [`AdjointWorkspace::recompiles`] /
//!   [`AdjointWorkspace::rebinds`]. Bind stamps guard the forward/
//!   backward pairing: a backward sweep against a circuit re-bound since
//!   its forward pass is a typed [`QsimError::StaleBinding`], never a
//!   silently mixed gradient.
//!
//! The split into [`AdjointWorkspace::forward`] and
//! [`AdjointWorkspace::backward_with`] exists because QuGeo's losses need
//! the forward probabilities *first* (the decoder turns them into the
//! effective diagonal observable); the callback-based backward lets a
//! caller derive each member's observable from its own output without a
//! second forward pass.
//!
//! # Examples
//!
//! ```
//! use qugeo_qsim::{
//!     adjoint_gradient, adjoint_gradient_batch, BatchedState, Circuit,
//!     DiagonalObservable, State,
//! };
//!
//! # fn main() -> Result<(), qugeo_qsim::QsimError> {
//! let mut c = Circuit::new(1);
//! let s = c.alloc_slot();
//! c.ry_slot(0, s)?;
//! let z = DiagonalObservable::z(1, 0)?;
//! let inputs = BatchedState::replicate(&State::zero(1), 3);
//! let (values, grads) = adjoint_gradient_batch(&c, &[0.3], &inputs, &z)?;
//! let (value, grad) = adjoint_gradient(&c, &[0.3], &State::zero(1), &z)?;
//! for b in 0..3 {
//!     assert!((values[b] - value).abs() < 1e-12);
//!     assert!((grads[b][0] - grad[0]).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

use crate::batch::BatchedState;
use crate::circuit::Circuit;
use crate::fusion::{CompiledCircuit, DerivKind, FusedOp, SlotDeriv};
use crate::kernels::{self, simulation_threads, PARALLEL_MIN_AMPS};
use crate::{Complex64, DiagonalObservable, QsimError};

/// Per-member observable factory handed to the backward sweep
/// ([`AdjointWorkspace::backward_with`],
/// [`crate::backend::QuantumBackend::adjoint_gradient_batch`]): called
/// once per member, in order, with that member's exact output
/// distribution, and returns the member's effective diagonal
/// observable.
pub type ObsForMember<'a> =
    dyn FnMut(usize, &[f64]) -> Result<DiagonalObservable, QsimError> + 'a;

/// Reusable buffers for the fused batched adjoint engine: ket and bra
/// arrays (`B · 2^n` each), per-member expectation values, per-member
/// gradients, and a probability scratch — everything a training step
/// needs, allocated once and recycled. See the [module docs](self).
#[derive(Debug, Default)]
pub struct AdjointWorkspace {
    ket: Vec<Complex64>,
    bra: Vec<Complex64>,
    probs: Vec<f64>,
    values: Vec<f64>,
    grads: Vec<f64>,
    num_qubits: usize,
    batch: usize,
    num_slots: usize,
    forward_done: bool,
    forward_stamp: u64,
    cache: Option<(Circuit, CompiledCircuit)>,
    allocations: usize,
    reuses: usize,
    recompiles: usize,
    rebinds: usize,
}

impl AdjointWorkspace {
    /// An empty workspace; buffers are sized lazily by the first call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Members of the last forward pass.
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// Trainable slots of the last compiled circuit seen.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// How many calls had to grow a buffer (including the very first
    /// call, which must). A steady-state training loop holds this at its
    /// warm-up value while [`AdjointWorkspace::reuses`] climbs — the
    /// no-allocation contract, counted so tests can assert it.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// How many calls recycled every existing buffer without touching
    /// the allocator.
    pub fn reuses(&self) -> usize {
        self.reuses
    }

    /// How many [`AdjointWorkspace::adjoint_batch`] calls had to run a
    /// full structure compile because the circuit changed (including the
    /// very first call, which must). A training loop over a fixed circuit
    /// holds this at `1` while [`AdjointWorkspace::rebinds`] climbs — the
    /// compile-once contract, counted so tests can assert it.
    pub fn recompiles(&self) -> usize {
        self.recompiles
    }

    /// How many [`AdjointWorkspace::adjoint_batch`] calls reused the
    /// cached circuit structure and only re-bound parameter values.
    pub fn rebinds(&self) -> usize {
        self.rebinds
    }

    /// Per-member expectation values `⟨ψ_b|O_b|ψ_b⟩` of the last
    /// backward pass.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Member `b`'s expectation value from the last backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn value(&self, b: usize) -> f64 {
        self.values[b]
    }

    /// Member `b`'s gradient from the last backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn grad(&self, b: usize) -> &[f64] {
        &self.grads[b * self.num_slots..(b + 1) * self.num_slots]
    }

    /// Runs the forward pass: loads every member of `inputs` into the
    /// ket array (recycling its allocation) and applies the compiled
    /// circuit through the adaptive batched sweep. Output amplitudes are
    /// then available via [`AdjointWorkspace::output_member`] until the
    /// backward pass consumes them.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] if the circuit width
    /// differs from the members'.
    pub fn forward(
        &mut self,
        compiled: &CompiledCircuit,
        inputs: &BatchedState,
        threads: usize,
    ) -> Result<(), QsimError> {
        if compiled.num_qubits() != inputs.num_qubits() {
            return Err(QsimError::QubitCountMismatch {
                expected: inputs.num_qubits(),
                actual: compiled.num_qubits(),
            });
        }
        self.num_qubits = inputs.num_qubits();
        self.batch = inputs.batch_len();
        self.num_slots = compiled.num_slots();
        let amps = inputs.amps();
        let grads_len = self.batch * self.num_slots;
        if self.ket.capacity() >= amps.len()
            && self.bra.capacity() >= amps.len()
            && self.probs.capacity() >= self.member_dim()
            && self.values.capacity() >= self.batch
            && self.grads.capacity() >= grads_len
        {
            self.reuses += 1;
        } else {
            self.allocations += 1;
        }
        self.ket.clear();
        self.ket.extend_from_slice(amps);
        self.bra.clear();
        self.bra.resize(amps.len(), Complex64::ZERO);
        self.values.clear();
        self.values.resize(self.batch, 0.0);
        self.grads.clear();
        self.grads.resize(grads_len, 0.0);
        compiled.apply_members_threaded(&mut self.ket, threads);
        self.forward_done = true;
        self.forward_stamp = compiled.binding();
        Ok(())
    }

    /// Amplitudes per member.
    fn member_dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Member `b`'s output amplitudes from the last forward pass (valid
    /// until the backward pass sweeps the ket array back).
    ///
    /// # Panics
    ///
    /// Panics if no forward pass is pending or `b` is out of range.
    pub fn output_member(&self, b: usize) -> &[Complex64] {
        assert!(self.forward_done, "no pending forward pass");
        let dim = self.member_dim();
        &self.ket[b * dim..(b + 1) * dim]
    }

    /// Runs the backward sweep with **one observable shared by every
    /// member**.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] on width mismatch, or
    /// [`QsimError::Unsupported`] if `compiled` lacks gradient metadata
    /// or no forward pass is pending.
    pub fn backward(
        &mut self,
        compiled: &CompiledCircuit,
        obs: &DiagonalObservable,
        threads: usize,
    ) -> Result<(), QsimError> {
        self.backward_with(compiled, threads, &mut |_, _| Ok(obs.clone()))
    }

    /// Runs the backward sweep with a **per-member observable derived
    /// from that member's output distribution**: `obs_for(b, probs)` is
    /// called once per member, in order, with the member's basis-state
    /// probabilities — the shape QuGeo's decoders need, where each
    /// sample's loss gradient defines its own effective diagonal.
    ///
    /// On return, [`AdjointWorkspace::values`] holds `⟨ψ_b|O_b|ψ_b⟩` and
    /// [`AdjointWorkspace::grad`] the per-slot gradients of each member.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::Unsupported`] if `compiled` lacks gradient
    /// metadata or no forward pass is pending,
    /// [`QsimError::StaleBinding`] if `compiled` was re-bound to other
    /// parameters since the forward pass (the bra seeds in the workspace
    /// would mix parameter vectors),
    /// [`QsimError::QubitCountMismatch`] if a returned observable has the
    /// wrong width, and propagates `obs_for` errors.
    pub fn backward_with(
        &mut self,
        compiled: &CompiledCircuit,
        threads: usize,
        obs_for: &mut ObsForMember<'_>,
    ) -> Result<(), QsimError> {
        if !self.forward_done {
            return Err(QsimError::Unsupported {
                reason: "backward sweep without a pending forward pass".into(),
            });
        }
        if compiled.binding() != self.forward_stamp {
            // The circuit was re-bound (or swapped for a different
            // binding) between forward and backward: the bra seeds in the
            // workspace belong to the old parameters and the sweep would
            // silently mix gradients across parameter vectors.
            return Err(QsimError::StaleBinding {
                expected: self.forward_stamp,
                actual: compiled.binding(),
            });
        }
        if !compiled.has_gradients() {
            return Err(QsimError::Unsupported {
                reason: "circuit was compiled without gradient metadata \
                         (use CompiledCircuit::compile_with_grad)"
                    .into(),
            });
        }
        self.forward_done = false;
        let dim = self.member_dim();

        // Seed bra_b = O_b ψ_b and value_b = ⟨ψ_b|O_b|ψ_b⟩ member by
        // member; the observable callback sees each member's exact
        // output distribution.
        self.probs.clear();
        self.probs.resize(dim, 0.0);
        for b in 0..self.batch {
            let psi = &self.ket[b * dim..(b + 1) * dim];
            for (p, a) in self.probs.iter_mut().zip(psi) {
                *p = a.norm_sqr();
            }
            let obs = obs_for(b, &self.probs)?;
            if obs.num_qubits() != self.num_qubits {
                return Err(QsimError::QubitCountMismatch {
                    expected: self.num_qubits,
                    actual: obs.num_qubits(),
                });
            }
            let diag = obs.diagonal();
            let bra = &mut self.bra[b * dim..(b + 1) * dim];
            let mut value = 0.0;
            for ((o, a), d) in bra.iter_mut().zip(psi).zip(diag) {
                *o = a.scale(*d);
                value += a.norm_sqr() * d;
            }
            self.values[b] = value;
        }
        if self.num_slots == 0 || compiled.num_fused_ops() == 0 {
            return Ok(());
        }

        // The sweep itself: member-parallel for cache-sized members,
        // gate-parallel kernels otherwise — mirroring the forward
        // engine's adaptive split.
        let total = self.batch * dim;
        let member_threads = threads.min(self.batch);
        let member_parallel = member_threads > 1
            && dim <= CompiledCircuit::CIRCUIT_MAJOR_MAX_DIM
            && total >= PARALLEL_MIN_AMPS;
        if !member_parallel {
            let ns = self.num_slots;
            backward_members_serial(
                compiled,
                &mut self.ket,
                &mut self.bra,
                &mut self.grads,
                dim,
                ns,
                threads,
            );
            return Ok(());
        }
        let per = self.batch.div_ceil(member_threads);
        let ns = self.num_slots;
        std::thread::scope(|scope| {
            for ((kets, bras), grads) in self
                .ket
                .chunks_mut(per * dim)
                .zip(self.bra.chunks_mut(per * dim))
                .zip(self.grads.chunks_mut(per * ns))
            {
                scope.spawn(move || {
                    backward_members_serial(compiled, kets, bras, grads, dim, ns, 1);
                });
            }
        });
        Ok(())
    }

    /// One full gradient step — compile-or-rebind, forward, backward —
    /// with the workspace caching the compiled circuit across calls.
    ///
    /// The first call (and any call with a *different* circuit) runs a
    /// full gradient-aware structure compile and counts one
    /// [`AdjointWorkspace::recompiles`]; subsequent calls with the same
    /// circuit re-bind the new `params` into the cached fusion plan in
    /// O(params) and count one [`AdjointWorkspace::rebinds`]. A training
    /// loop that drives every step through this method therefore
    /// structure-compiles exactly once, no matter how many epochs run.
    ///
    /// `obs_for` has the [`ObsForMember`] shape: called once per member,
    /// in order, with that member's output distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if parameter counts or qubit counts mismatch, or
    /// propagates `obs_for` errors.
    pub fn adjoint_batch(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        inputs: &BatchedState,
        threads: usize,
        obs_for: &mut ObsForMember<'_>,
    ) -> Result<(), QsimError> {
        circuit.check_params(params)?;
        let (cached, compiled) = match self.cache.take() {
            Some((cached, mut compiled)) if cached == *circuit => {
                compiled.rebind(params)?;
                self.rebinds += 1;
                (cached, compiled)
            }
            _ => {
                let compiled = CompiledCircuit::compile_with_grad(circuit, params)?;
                self.recompiles += 1;
                (circuit.clone(), compiled)
            }
        };
        let result = self
            .forward(&compiled, inputs, threads)
            .and_then(|()| self.backward_with(&compiled, threads, obs_for));
        self.cache = Some((cached, compiled));
        result
    }

    /// Sizes the result buffers without a fused forward pass — the entry
    /// point for backends that produce adjoint results some other way
    /// (e.g. the reference serial implementation) but still report
    /// through a workspace.
    pub fn prepare_results(&mut self, num_qubits: usize, batch: usize, num_slots: usize) {
        let grads_len = batch * num_slots;
        if self.values.capacity() >= batch && self.grads.capacity() >= grads_len {
            self.reuses += 1;
        } else {
            self.allocations += 1;
        }
        self.num_qubits = num_qubits;
        self.batch = batch;
        self.num_slots = num_slots;
        self.forward_done = false;
        self.values.clear();
        self.values.resize(batch, 0.0);
        self.grads.clear();
        self.grads.resize(grads_len, 0.0);
    }

    /// Stores one member's externally-computed result (pairs with
    /// [`AdjointWorkspace::prepare_results`]).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range or `grad` has the wrong length.
    pub fn set_member_result(&mut self, b: usize, value: f64, grad: &[f64]) {
        assert_eq!(grad.len(), self.num_slots, "gradient length mismatch");
        self.values[b] = value;
        self.grads[b * self.num_slots..(b + 1) * self.num_slots].copy_from_slice(grad);
    }
}

/// One worker's backward sweep over a contiguous member range: groups of
/// four cache-sized members go through the batch-major SIMD tile
/// ([`kernels::tile::backward_members`] — zero members when the SIMD tier
/// is off or members exceed the circuit-major cap), the remainder through
/// the per-member sweep.
#[allow(clippy::too_many_arguments)]
fn backward_members_serial(
    compiled: &CompiledCircuit,
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    grads: &mut [f64],
    dim: usize,
    ns: usize,
    threads: usize,
) {
    let done = if dim <= CompiledCircuit::CIRCUIT_MAJOR_MAX_DIM {
        kernels::tile::backward_members(compiled, ket, bra, grads, dim, ns)
    } else {
        // A tile would spill L2 and beat the gate-parallel kernels at
        // nothing; keep huge members on the per-member path.
        0
    };
    for ((ket, bra), grad) in ket[done * dim..]
        .chunks_mut(dim)
        .zip(bra[done * dim..].chunks_mut(dim))
        .zip(grads[done * ns..].chunks_mut(ns))
    {
        backward_member(compiled, ket, bra, grad, threads);
    }
}

/// One member's full backward sweep. Each fused op takes **one** array
/// pass ([`kernels::backward_step_one`] and friends): the daggered op is
/// applied to ket and bra in registers while a small reduction matrix
/// `R[x][y] = Σ k'_x·conj(b_y)` accumulates on the op's support; every
/// derivative the op absorbed then contributes
/// `⟨bra|∂F|ket⟩ = Σ_{r,c} ∂F[r][c]·R[c][r]` in O(1), independent of
/// both state size and angle count — the backward sweep costs one pass
/// per fused *op*, not one per trainable *angle*.
fn backward_member(
    compiled: &CompiledCircuit,
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    grad: &mut [f64],
    threads: usize,
) {
    for (idx, op) in compiled.ops().iter().enumerate().rev() {
        let derivs = compiled.op_derivs(idx);
        if derivs.is_empty() {
            // Constant op (e.g. a fused SWAP block): plain dagger sweeps.
            let dagger = op.dagger();
            dagger.apply(ket, threads);
            dagger.apply(bra, threads);
            continue;
        }
        let r = match op {
            FusedOp::One { m, q } => {
                let r = kernels::backward_step_one(ket, bra, &m.dagger(), *q, threads);
                Reduction::One(r.m)
            }
            FusedOp::Multiplexed { a0, a1, c, t } => {
                let (r0, r1) = kernels::backward_step_multiplexed(
                    ket,
                    bra,
                    &a0.dagger(),
                    &a1.dagger(),
                    *c,
                    *t,
                    threads,
                );
                Reduction::Multiplexed(r0.m, r1.m)
            }
            FusedOp::Two { m, a, b } => {
                let r = kernels::backward_step_two(ket, bra, &m.dagger(), *a, *b, threads);
                Reduction::Two(r.m)
            }
        };
        contract(derivs, &r, grad);
    }
}

/// A backward step's reduction matrix `R[x][y] = Σ k'_x·conj(b_y)` on one
/// fused op's support, shaped like the op.
pub(crate) enum Reduction {
    /// Of a [`FusedOp::One`].
    One([[Complex64; 2]; 2]),
    /// Of a [`FusedOp::Multiplexed`]: the control-clear and control-set
    /// branches.
    Multiplexed([[Complex64; 2]; 2], [[Complex64; 2]; 2]),
    /// Of a [`FusedOp::Two`].
    Two([[Complex64; 4]; 4]),
}

/// Adds each derivative's `2·Re⟨bra|∂F|ket⟩` to its slot of one member's
/// gradient row, in derivative order. The per-member sweep and the
/// batch-major tile both accumulate through here, so both add the same
/// bits in the same order.
pub(crate) fn contract(derivs: &[SlotDeriv], reduction: &Reduction, grad: &mut [f64]) {
    for sd in derivs {
        let t = match (&sd.d, reduction) {
            (DerivKind::One(d), Reduction::One(r)) => trace(&d.m, r),
            (DerivKind::Multiplexed(d0, d1), Reduction::Multiplexed(r0, r1)) => {
                trace(&d0.m, r0) + trace(&d1.m, r1)
            }
            (DerivKind::Two(d), Reduction::Two(r)) => trace(&d.m, r),
            _ => unreachable!("derivative shape always matches its fused op"),
        };
        grad[sd.slot] += 2.0 * t.re;
    }
}

/// `Σ_{r,c} d[r][c] · R[c][r]` — the O(1) contraction of one 2×2 or 4×4
/// derivative against a backward-step reduction matrix.
fn trace<const N: usize>(d: &[[Complex64; N]; N], r: &[[Complex64; N]; N]) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for row in 0..N {
        for col in 0..N {
            acc += d[row][col] * r[col][row];
        }
    }
    acc
}

/// Batched adjoint gradient of `⟨ψ(θ)|O|ψ(θ)⟩` for every member of
/// `inputs`, through the fused engine with the default thread budget:
/// returns `(values, per-member gradients)`.
///
/// This is the allocating convenience wrapper; training loops should
/// hold an [`AdjointWorkspace`] and call
/// [`adjoint_gradient_batch_with`] (or drive the workspace directly) so
/// steady-state steps stay allocation-free.
///
/// # Errors
///
/// Returns an error if parameter counts or qubit counts mismatch.
pub fn adjoint_gradient_batch(
    circuit: &Circuit,
    params: &[f64],
    inputs: &BatchedState,
    obs: &DiagonalObservable,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), QsimError> {
    let mut ws = AdjointWorkspace::new();
    adjoint_gradient_batch_with(circuit, params, inputs, obs, simulation_threads(), &mut ws)?;
    let grads = (0..inputs.batch_len()).map(|b| ws.grad(b).to_vec()).collect();
    Ok((ws.values().to_vec(), grads))
}

/// [`adjoint_gradient_batch`] into a caller-held [`AdjointWorkspace`]
/// with an explicit thread budget; results are read from the workspace
/// ([`AdjointWorkspace::values`] / [`AdjointWorkspace::grad`]) without
/// further allocation.
///
/// # Errors
///
/// Returns an error if parameter counts or qubit counts mismatch.
pub fn adjoint_gradient_batch_with(
    circuit: &Circuit,
    params: &[f64],
    inputs: &BatchedState,
    obs: &DiagonalObservable,
    threads: usize,
    ws: &mut AdjointWorkspace,
) -> Result<(), QsimError> {
    ws.adjoint_batch(circuit, params, inputs, threads, &mut |_, _| Ok(obs.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
    use crate::gradient::adjoint_gradient;
    use crate::State;

    fn sample_state(n: usize, seed: usize) -> State {
        let data: Vec<f64> = (0..1usize << n)
            .map(|i| ((i + seed * 13) as f64 * 0.37).sin() + 0.25)
            .collect();
        State::from_real_normalized(&data).unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "{what}: component {i} differs: {x} vs {y}"
            );
        }
    }

    /// The acceptance shape: batched adjoint == serial adjoint to 1e-10
    /// on the paper-style ansatz, multiple distinct members, projector
    /// observables mixed in.
    #[test]
    fn batched_matches_serial_on_ansatz() {
        let circuit = u3_cu3_ansatz(AnsatzConfig {
            num_qubits: 4,
            num_blocks: 3,
            entangle: EntangleOrder::Ring,
        })
        .unwrap();
        let params: Vec<f64> = (0..circuit.num_slots())
            .map(|i| (i as f64 * 0.29).sin() * 1.1)
            .collect();
        let members: Vec<State> = (0..5).map(|s| sample_state(4, s)).collect();
        let obs = DiagonalObservable::weighted_sum(
            &[
                DiagonalObservable::z(4, 0).unwrap(),
                DiagonalObservable::z(4, 3).unwrap(),
                DiagonalObservable::projector(4, 9).unwrap(),
            ],
            &[0.8, -1.1, 2.3],
        )
        .unwrap();

        let inputs = BatchedState::from_states(&members).unwrap();
        let (values, grads) = adjoint_gradient_batch(&circuit, &params, &inputs, &obs).unwrap();
        for (b, m) in members.iter().enumerate() {
            let (value, grad) = adjoint_gradient(&circuit, &params, m, &obs).unwrap();
            assert!((values[b] - value).abs() < 1e-10, "member {b} value");
            assert_close(&grads[b], &grad, 1e-10, &format!("member {b} gradient"));
        }
    }

    /// Shared slots, swaps, CU3 and a reversed-control densification in
    /// one circuit: every deriv-tracking branch of the fusion builder.
    #[test]
    fn batched_matches_serial_on_adversarial_circuit() {
        let mut c = Circuit::new(3);
        let s0 = c.alloc_slots(3);
        let shared = c.alloc_slot();
        c.h(0).unwrap();
        c.u3_slots(1, s0).unwrap();
        c.ry_slot(0, shared).unwrap();
        c.ry_slot(2, shared).unwrap();
        c.cu3_slots(0, 2, s0).unwrap(); // slots reused across gates
        c.cu3_slots(2, 0, s0).unwrap(); // reversed roles: densifies
        c.swap(1, 2).unwrap();
        c.ry_slot(1, shared).unwrap(); // single after the swap absorbs
        c.cx(0, 1).unwrap();

        let params = [0.7, -0.2, 1.1, 0.45];
        let members: Vec<State> = (0..4).map(|s| sample_state(3, s + 3)).collect();
        let obs = DiagonalObservable::weighted_sum(
            &[
                DiagonalObservable::z(3, 1).unwrap(),
                DiagonalObservable::projector(3, 6).unwrap(),
            ],
            &[1.0, -2.0],
        )
        .unwrap();

        let inputs = BatchedState::from_states(&members).unwrap();
        let (values, grads) = adjoint_gradient_batch(&c, &params, &inputs, &obs).unwrap();
        for (b, m) in members.iter().enumerate() {
            let (value, grad) = adjoint_gradient(&c, &params, m, &obs).unwrap();
            assert!((values[b] - value).abs() < 1e-10, "member {b} value");
            assert_close(&grads[b], &grad, 1e-10, &format!("member {b} gradient"));
        }
    }

    #[test]
    fn workspace_reuse_allocates_once() {
        let circuit = u3_cu3_ansatz(AnsatzConfig {
            num_qubits: 3,
            num_blocks: 2,
            entangle: EntangleOrder::Ring,
        })
        .unwrap();
        let obs = DiagonalObservable::z(3, 0).unwrap();
        let inputs = BatchedState::from_states(
            &(0..4).map(|s| sample_state(3, s)).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut ws = AdjointWorkspace::new();
        for step in 0..10 {
            // Parameters change every step, exactly like training.
            let params: Vec<f64> = (0..circuit.num_slots())
                .map(|i| ((i + step) as f64 * 0.31).sin())
                .collect();
            adjoint_gradient_batch_with(&circuit, &params, &inputs, &obs, 1, &mut ws).unwrap();
        }
        // One warm-up allocation, nine pure reuses: the no-allocation
        // steady-state contract.
        assert_eq!(ws.allocations(), 1);
        assert_eq!(ws.reuses(), 9);
        // And one warm-up structure compile, nine pure re-binds: the
        // compile-once contract.
        assert_eq!(ws.recompiles(), 1);
        assert_eq!(ws.rebinds(), 9);
    }

    #[test]
    fn cached_rebind_steps_match_recompiling_steps_bitwise() {
        let circuit = u3_cu3_ansatz(AnsatzConfig {
            num_qubits: 4,
            num_blocks: 2,
            entangle: EntangleOrder::Ring,
        })
        .unwrap();
        let obs = DiagonalObservable::z(4, 1).unwrap();
        let inputs = BatchedState::from_states(
            &(0..3).map(|s| sample_state(4, s)).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut cached = AdjointWorkspace::new();
        for step in 0..5 {
            let params: Vec<f64> = (0..circuit.num_slots())
                .map(|i| ((i * 7 + step) as f64 * 0.23).sin())
                .collect();
            cached
                .adjoint_batch(&circuit, &params, &inputs, 1, &mut |_, _| Ok(obs.clone()))
                .unwrap();
            // Recompile-every-step reference: results must be IDENTICAL,
            // not merely close — bind and compile share one code path.
            let compiled = CompiledCircuit::compile_with_grad(&circuit, &params).unwrap();
            let mut fresh = AdjointWorkspace::new();
            fresh.forward(&compiled, &inputs, 1).unwrap();
            fresh.backward(&compiled, &obs, 1).unwrap();
            for b in 0..inputs.batch_len() {
                assert_eq!(cached.value(b), fresh.value(b), "step {step} member {b}");
                assert_eq!(cached.grad(b), fresh.grad(b), "step {step} member {b}");
            }
        }
        assert_eq!(cached.recompiles(), 1);
        assert_eq!(cached.rebinds(), 4);
    }

    #[test]
    fn changing_the_circuit_recompiles() {
        let obs = DiagonalObservable::z(2, 0).unwrap();
        let inputs = BatchedState::replicate(&State::zero(2), 2);
        let mut ws = AdjointWorkspace::new();
        let mut c1 = Circuit::new(2);
        let s = c1.alloc_slot();
        c1.ry_slot(0, s).unwrap();
        let mut c2 = c1.clone();
        c2.cx(0, 1).unwrap();
        let shared = &mut |_: usize, _: &[f64]| Ok(obs.clone());
        ws.adjoint_batch(&c1, &[0.3], &inputs, 1, shared).unwrap();
        ws.adjoint_batch(&c2, &[0.3], &inputs, 1, shared).unwrap();
        ws.adjoint_batch(&c2, &[0.4], &inputs, 1, shared).unwrap();
        ws.adjoint_batch(&c1, &[0.3], &inputs, 1, shared).unwrap();
        assert_eq!(ws.recompiles(), 3, "c1, c2, then c1 again");
        assert_eq!(ws.rebinds(), 1, "only the repeated c2 call re-binds");
    }

    #[test]
    fn rebind_between_forward_and_backward_is_stale() {
        let mut c = Circuit::new(1);
        let s = c.alloc_slot();
        c.ry_slot(0, s).unwrap();
        let z = DiagonalObservable::z(1, 0).unwrap();
        let inputs = BatchedState::replicate(&State::zero(1), 1);
        let mut compiled = CompiledCircuit::compile_with_grad(&c, &[0.3]).unwrap();
        let mut ws = AdjointWorkspace::new();
        ws.forward(&compiled, &inputs, 1).unwrap();
        compiled.rebind(&[0.9]).unwrap();
        assert!(matches!(
            ws.backward(&compiled, &z, 1),
            Err(QsimError::StaleBinding { .. })
        ));
        // The pristine pairing still works.
        ws.forward(&compiled, &inputs, 1).unwrap();
        ws.backward(&compiled, &z, 1).unwrap();
        assert!((ws.value(0) - 0.9f64.cos()).abs() < 1e-12);
    }

    #[test]
    fn per_member_observables_differ() {
        let mut c = Circuit::new(2);
        let s = c.alloc_slots(3);
        c.u3_slots(0, s).unwrap();
        c.cx(0, 1).unwrap();
        let params = [0.9, -0.3, 0.6];
        let members: Vec<State> = (0..2).map(|k| sample_state(2, k)).collect();
        let observables = [
            DiagonalObservable::z(2, 0).unwrap(),
            DiagonalObservable::projector(2, 3).unwrap(),
        ];

        let inputs = BatchedState::from_states(&members).unwrap();
        let compiled = CompiledCircuit::compile_with_grad(&c, &params).unwrap();
        let mut ws = AdjointWorkspace::new();
        ws.forward(&compiled, &inputs, 1).unwrap();
        ws.backward_with(&compiled, 1, &mut |b, _| Ok(observables[b].clone()))
            .unwrap();

        for (b, m) in members.iter().enumerate() {
            let (value, grad) = adjoint_gradient(&c, &params, m, &observables[b]).unwrap();
            assert!((ws.value(b) - value).abs() < 1e-12, "member {b}");
            assert_close(ws.grad(b), &grad, 1e-12, &format!("member {b}"));
        }
    }

    #[test]
    fn member_parallel_path_matches_serial_path() {
        // 9 qubits x 70 members = 35840 amplitudes >= PARALLEL_MIN_AMPS
        // with dim 512 <= CIRCUIT_MAJOR_MAX_DIM: forces the member-
        // parallel backward sweep when threads > 1.
        let circuit = u3_cu3_ansatz(AnsatzConfig {
            num_qubits: 9,
            num_blocks: 1,
            entangle: EntangleOrder::Ring,
        })
        .unwrap();
        let params: Vec<f64> = (0..circuit.num_slots())
            .map(|i| (i as f64 * 0.17).cos() * 0.9)
            .collect();
        let members: Vec<State> = (0..70).map(|s| sample_state(9, s)).collect();
        let obs = DiagonalObservable::z(9, 4).unwrap();
        let inputs = BatchedState::from_states(&members).unwrap();

        let mut serial = AdjointWorkspace::new();
        adjoint_gradient_batch_with(&circuit, &params, &inputs, &obs, 1, &mut serial).unwrap();
        let mut parallel = AdjointWorkspace::new();
        adjoint_gradient_batch_with(&circuit, &params, &inputs, &obs, 4, &mut parallel).unwrap();
        for b in 0..members.len() {
            assert!((serial.value(b) - parallel.value(b)).abs() < 1e-12);
            assert_close(serial.grad(b), parallel.grad(b), 1e-12, "parallel sweep");
        }
    }

    #[test]
    fn constant_circuit_yields_empty_gradients() {
        let mut c = Circuit::new(1);
        c.ry_fixed(0, 0.8).unwrap();
        let obs = DiagonalObservable::z(1, 0).unwrap();
        let inputs = BatchedState::replicate(&State::zero(1), 2);
        let (values, grads) = adjoint_gradient_batch(&c, &[], &inputs, &obs).unwrap();
        assert_eq!(grads.len(), 2);
        assert!(grads.iter().all(Vec::is_empty));
        for v in values {
            assert!((v - 0.8f64.cos()).abs() < 1e-12);
        }
    }

    #[test]
    fn validates_mismatches_and_missing_grad_metadata() {
        let mut c = Circuit::new(1);
        let s = c.alloc_slot();
        c.ry_slot(0, s).unwrap();
        let inputs = BatchedState::replicate(&State::zero(1), 1);
        let z2 = DiagonalObservable::z(2, 0).unwrap();
        assert!(adjoint_gradient_batch(&c, &[0.1], &inputs, &z2).is_err());
        assert!(adjoint_gradient_batch(&c, &[], &inputs, &z2).is_err());

        let z1 = DiagonalObservable::z(1, 0).unwrap();
        let mut ws = AdjointWorkspace::new();
        // Backward without forward is refused.
        let with_grad = CompiledCircuit::compile_with_grad(&c, &[0.1]).unwrap();
        assert!(matches!(
            ws.backward(&with_grad, &z1, 1),
            Err(QsimError::Unsupported { .. })
        ));
        // Backward over a gradient-less compilation is refused.
        let without = CompiledCircuit::compile(&c, &[0.1]).unwrap();
        ws.forward(&without, &inputs, 1).unwrap();
        assert!(matches!(
            ws.backward(&without, &z1, 1),
            Err(QsimError::Unsupported { .. })
        ));
    }
}
