//! Training strategies: what one epoch of updates means.
//!
//! A [`TrainStep`] owns the data, the model handle, and the execution
//! backend; the [`Trainer`](super::Trainer) owns everything that is the
//! same across strategies (shuffling, schedule, callbacks, history).
//! Two quantum strategies and one classical strategy ship:
//!
//! * [`MiniBatchVqc`] — per-sample gradients *averaged* over a
//!   mini-batch, one step per batch (the classical-ML shape, exact —
//!   no shared-norm precision cost); at `batch_size = 1` it is the
//!   paper's per-sample loop;
//! * [`QuBatchVqc`] — one step per QuBatch-widened circuit execution
//!   (`batch_size` samples share a register and an amplitude norm);
//! * [`RegressorStep`] — the CNN baselines of Table 2.
//!
//! Each VQC strategy holds its read-only training data once and trains
//! through one gradient context: a backend plus the scratch its steps
//! recycle. The context's [`ReplicaStep`] body is the strategy's only
//! gradient code — its own epochs run it on whole mini-batches, and
//! [`DataParallel`](super::DataParallel) runs it on micro-batch units
//! in per-replica copies of the context.

use std::sync::Arc;

use qugeo_geodata::scaling::ScaledSample;
use qugeo_metrics::{mse, ssim};
use qugeo_nn::models::{CnnRegressor, RegressorHead};
use qugeo_nn::optim::Optimizer;
use qugeo_nn::Model;
use qugeo_qsim::{
    AdjointWorkspace, BackendConfig, BatchedState, Circuit, CircuitStructure, QuantumBackend,
    State, StatevectorBackend,
};
use qugeo_tensor::norm::{l2_norm, l2_normalized};
use qugeo_tensor::Array2;

use super::parallel::{run_steps, ReplicaStep, Shardable};
use crate::model::{member_loss_obs, QuGeoVqc};
use crate::pipeline::normalized_target;
use crate::qubatch::QuBatch;
use crate::QuGeoError;

/// What a strategy reports back to the engine after one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Mean gradient ℓ₂ norm over the epoch's optimiser steps.
    pub grad_norm: f64,
}

/// One epoch of parameter updates plus held-out evaluation — the part
/// of training that differs between the paper loop, QuBatch, mini-batch
/// averaging, and the classical baselines.
pub trait TrainStep {
    /// Number of training samples (the engine shuffles `0..n`).
    fn num_train_samples(&self) -> usize;

    /// Initial parameter vector (seeded for quantum models; classical
    /// models keep their constructor-seeded weights).
    fn init_params(&self, seed: u64) -> Vec<f64>;

    /// Runs one epoch of updates over `order`, stepping `optimizer`
    /// in place.
    ///
    /// # Errors
    ///
    /// Propagates simulation, backend, or network failures.
    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError>;

    /// Evaluates `params` on the held-out set: mean (MSE, SSIM).
    ///
    /// # Errors
    ///
    /// Propagates prediction failures.
    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError>;
}

/// A gradient context's backend: the default statevector engine, owned,
/// or the caller's custom backend, shared by reference so its state —
/// shot streams, fault schedules — spans every context.
enum Backend<'a> {
    Owned(StatevectorBackend),
    Shared(&'a dyn QuantumBackend),
}

impl<'a> Backend<'a> {
    fn get(&self) -> &dyn QuantumBackend {
        match self {
            Self::Owned(b) => b,
            Self::Shared(b) => *b,
        }
    }

    /// A replica's backend: an owned engine is re-created under the
    /// replica's thread budget, a shared one stays shared.
    fn for_replica(&self, config: BackendConfig) -> Backend<'a> {
        match self {
            Self::Owned(_) => Backend::Owned(StatevectorBackend::with_config(config)),
            Self::Shared(b) => Backend::Shared(*b),
        }
    }
}

/// A VQC gradient context: the strategy's read-only data `D`, shared,
/// plus one backend and the scratch every step recycles — the adjoint
/// workspace, the input batch and the gradient buffer.
struct GradContext<'a, D> {
    data: Arc<D>,
    backend: Backend<'a>,
    ws: AdjointWorkspace,
    inputs: Option<BatchedState>,
    grad: Vec<f64>,
}

impl<'a, D> GradContext<'a, D> {
    fn new(data: Arc<D>, backend: Backend<'a>) -> Self {
        Self {
            data,
            backend,
            ws: AdjointWorkspace::new(),
            inputs: None,
            grad: Vec::new(),
        }
    }

    /// A context over the same data with a replica backend under
    /// `config`'s thread budget and scratch of its own.
    fn replica(&self, config: BackendConfig) -> Self {
        Self::new(Arc::clone(&self.data), self.backend.for_replica(config))
    }
}

/// Amplitude work of one gradient evaluation: `members` registers of
/// `2^qubits` amplitudes swept by each fused op of `circuit`.
fn amplitude_work(circuit: &Circuit, qubits: usize, members: usize) -> usize {
    let ops = CircuitStructure::compile(circuit).num_ops();
    members.saturating_mul(1 << qubits).saturating_mul(ops)
}

fn require_non_empty(train: &[ScaledSample], test: &[ScaledSample]) -> Result<(), QuGeoError> {
    if train.is_empty() || test.is_empty() {
        return Err(QuGeoError::Config {
            reason: "train and test sets must be non-empty".into(),
        });
    }
    Ok(())
}

fn require_batch_size(batch_size: usize) -> Result<(), QuGeoError> {
    if batch_size == 0 {
        return Err(QuGeoError::Config {
            reason: "batch_size must be positive".into(),
        });
    }
    Ok(())
}

/// Loads the step's member states into a context-held input batch,
/// recycling its allocation after the first step
/// ([`BatchedState::load_states`]).
fn load_inputs<'b>(
    buffer: &'b mut Option<BatchedState>,
    states: &[&State],
) -> Result<&'b BatchedState, QuGeoError> {
    match buffer {
        Some(batch) => {
            batch.load_states(states)?;
            Ok(batch)
        }
        None => {
            let mut batch = BatchedState::zeros(states[0].num_qubits(), 1);
            batch.load_states(states)?;
            Ok(buffer.insert(batch))
        }
    }
}

/// Mean (MSE, SSIM) of per-sample predictions against the samples'
/// normalised velocity targets.
fn mean_mse_ssim(samples: &[ScaledSample], preds: &[Array2]) -> Result<(f64, f64), QuGeoError> {
    debug_assert_eq!(samples.len(), preds.len());
    if samples.is_empty() {
        return Err(QuGeoError::Config {
            reason: "cannot evaluate on an empty set".into(),
        });
    }
    let mut mse_total = 0.0;
    let mut ssim_total = 0.0;
    for (s, pred) in samples.iter().zip(preds) {
        let target = normalized_target(s);
        mse_total += mse(pred, &target)?;
        ssim_total += ssim(pred, &target)?;
    }
    let n = samples.len() as f64;
    Ok((mse_total / n, ssim_total / n))
}

/// Evaluates a trained VQC on a sample set: mean (MSE, SSIM) against
/// normalised targets.
///
/// The whole set runs through one gate-fused batched engine call
/// ([`QuGeoVqc::predict_many`]): the ansatz is compiled once and swept
/// across all encoded samples — the evaluation-epoch hot path.
///
/// # Errors
///
/// Returns an error for empty sets or prediction failures.
pub fn evaluate_vqc(
    model: &QuGeoVqc,
    params: &[f64],
    samples: &[ScaledSample],
) -> Result<(f64, f64), QuGeoError> {
    evaluate_vqc_with(model, params, samples, &StatevectorBackend::default())
}

/// [`evaluate_vqc`] through an execution backend: the whole set runs via
/// [`QuGeoVqc::predict_many_with`], so evaluation can be re-run under
/// finite shots or gate noise by swapping the backend.
///
/// # Errors
///
/// Returns an error for empty sets or prediction failures.
pub fn evaluate_vqc_with(
    model: &QuGeoVqc,
    params: &[f64],
    samples: &[ScaledSample],
    backend: &dyn QuantumBackend,
) -> Result<(f64, f64), QuGeoError> {
    let seismic: Vec<&[f64]> = samples.iter().map(|s| s.seismic.as_slice()).collect();
    let preds = model.predict_many_with(&seismic, params, backend)?;
    mean_mse_ssim(samples, &preds)
}

/// What [`QuBatchVqc`] trains on: the widened-circuit builder, the
/// samples and their normalised targets.
struct QuBatchData<'a> {
    qubatch: QuBatch<'a>,
    train: &'a [ScaledSample],
    targets: Vec<Array2>,
}

/// The QuBatch gradient body: one widened-circuit execution per unit.
/// [`QuBatch::loss_and_grad_batch_ws`] already returns the unit's mean
/// loss and gradient.
impl ReplicaStep for GradContext<'_, QuBatchData<'_>> {
    fn eval_unit(&mut self, unit: &[usize], params: &[f64]) -> Result<(f64, &[f64]), QuGeoError> {
        let data = &*self.data;
        let seismic: Vec<Vec<f64>> = unit
            .iter()
            .map(|&i| data.train[i].seismic.clone())
            .collect();
        let targets: Vec<Array2> = unit.iter().map(|&i| data.targets[i].clone()).collect();
        let (loss, grad) = data.qubatch.loss_and_grad_batch_ws(
            &seismic,
            &targets,
            params,
            self.backend.get(),
            &mut self.ws,
        )?;
        self.grad = grad;
        Ok((loss, &self.grad))
    }
}

/// QuBatch training: each optimiser step consumes one batch of
/// `batch_size` samples executed as a single widened circuit
/// ([`QuBatch`] — extra qubits buy shared execution at a shared-norm
/// precision cost).
pub struct QuBatchVqc<'a> {
    ctx: GradContext<'a, QuBatchData<'a>>,
    test: &'a [ScaledSample],
    batch_size: usize,
}

impl<'a> QuBatchVqc<'a> {
    /// QuBatch training on the default statevector backend.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for empty sets, `batch_size == 0`,
    /// or a multi-group model (QuBatch requires one encoder group).
    pub fn new(
        model: &'a QuGeoVqc,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        batch_size: usize,
    ) -> Result<Self, QuGeoError> {
        let backend = Backend::Owned(StatevectorBackend::default());
        Self::build(model, train, test, batch_size, backend)
    }

    /// QuBatch training through an explicit execution backend.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for empty sets, `batch_size == 0`,
    /// or a multi-group model.
    pub fn with_backend(
        model: &'a QuGeoVqc,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        batch_size: usize,
        backend: &'a dyn QuantumBackend,
    ) -> Result<Self, QuGeoError> {
        Self::build(model, train, test, batch_size, Backend::Shared(backend))
    }

    fn build(
        model: &'a QuGeoVqc,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        batch_size: usize,
        backend: Backend<'a>,
    ) -> Result<Self, QuGeoError> {
        require_non_empty(train, test)?;
        require_batch_size(batch_size)?;
        let data = QuBatchData {
            qubatch: QuBatch::new(model)?,
            train,
            targets: train.iter().map(normalized_target).collect(),
        };
        Ok(Self {
            ctx: GradContext::new(Arc::new(data), backend),
            test,
            batch_size,
        })
    }

    /// The strategy's adjoint workspace (allocation/reuse counters).
    pub fn adjoint_workspace(&self) -> &AdjointWorkspace {
        &self.ctx.ws
    }
}

impl TrainStep for QuBatchVqc<'_> {
    fn num_train_samples(&self) -> usize {
        self.ctx.data.train.len()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.ctx.data.qubatch.model().init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        run_steps(order, self.batch_size, params, optimizer, &mut self.ctx)
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        self.evaluate_params(params)
    }
}

impl Shardable for QuBatchVqc<'_> {
    fn num_train_samples(&self) -> usize {
        self.ctx.data.train.len()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.ctx.data.qubatch.model().init_params(seed)
    }

    fn samples_per_step(&self) -> usize {
        self.batch_size
    }

    /// One register widened by the unit's batch qubits.
    fn unit_work(&self, unit_len: usize) -> usize {
        let qubatch = &self.ctx.data.qubatch;
        let circuit = qubatch.model().circuit();
        let qubits = circuit.num_qubits() + qubatch.extra_qubits(unit_len);
        amplitude_work(circuit, qubits, 1)
    }

    fn replica(&self, config: BackendConfig) -> Box<dyn ReplicaStep + '_> {
        Box::new(self.ctx.replica(config))
    }

    fn evaluate_params(&self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        let model = self.ctx.data.qubatch.model();
        evaluate_vqc_with(model, params, self.test, self.ctx.backend.get())
    }
}

/// What [`MiniBatchVqc`] trains on: the model, the samples, their
/// normalised targets and, on adjoint-capable backends, their amplitude
/// encodings.
struct MiniBatchData<'a> {
    model: &'a QuGeoVqc,
    train: &'a [ScaledSample],
    targets: Vec<Array2>,
    encoded: Vec<State>,
}

/// The mini-batch gradient body: one batched adjoint call over the
/// unit's members, their gradients summed in member order and scaled by
/// `1/|unit|`; backends without amplitude access take the per-sample
/// parameter-shift loop instead.
impl ReplicaStep for GradContext<'_, MiniBatchData<'_>> {
    fn eval_unit(&mut self, unit: &[usize], params: &[f64]) -> Result<(f64, &[f64]), QuGeoError> {
        let data = &*self.data;
        let backend = self.backend.get();
        self.grad.clear();
        self.grad.resize(params.len(), 0.0);
        let mut unit_loss = 0.0;
        if backend.supports_adjoint_gradient() {
            // The whole unit in ONE batched adjoint call: the circuit
            // compiles once, all members sweep together.
            let members: Vec<&State> = unit.iter().map(|&i| &data.encoded[i]).collect();
            let inputs = load_inputs(&mut self.inputs, &members)?;
            let decoder = data.model.decoder();
            backend.adjoint_gradient_batch(
                data.model.circuit(),
                params,
                inputs,
                &mut |b, probs| {
                    let (l, obs) = member_loss_obs(decoder, probs, &data.targets[unit[b]])?;
                    unit_loss += l;
                    Ok(obs)
                },
                &mut self.ws,
            )?;
            for b in 0..unit.len() {
                for (acc, g) in self.grad.iter_mut().zip(self.ws.grad(b)) {
                    *acc += g;
                }
            }
        } else {
            for &i in unit {
                let (loss, grad) = data.model.loss_and_grad_with(
                    &data.train[i].seismic,
                    &data.targets[i],
                    params,
                    backend,
                )?;
                unit_loss += loss;
                for (acc, g) in self.grad.iter_mut().zip(&grad) {
                    *acc += g;
                }
            }
        }
        let scale = 1.0 / unit.len() as f64;
        self.grad.iter_mut().for_each(|g| *g *= scale);
        Ok((unit_loss * scale, &self.grad))
    }
}

/// Mini-batch training with *averaged* per-sample gradients: one
/// optimiser step per batch, gradients computed exactly per sample and
/// averaged — the classical-ML batching shape, with none of QuBatch's
/// shared-norm precision cost (and none of its circuit sharing).
/// `batch_size = 1` is the paper's training loop: one optimiser step per
/// sample, bit-identical to the pre-engine per-sample loop.
///
/// On adjoint-capable backends the whole mini-batch's gradients come
/// from **one** batched adjoint call
/// ([`QuantumBackend::adjoint_gradient_batch`]): the circuit compiles
/// once per step, every member's ket/bra pair sweeps in parallel through
/// the fused engine, and the strategy-held [`AdjointWorkspace`], input
/// batch and gradient buffer keep the steady state allocation-free.
/// Backends without amplitude access fall back to the per-sample
/// parameter-shift loop.
pub struct MiniBatchVqc<'a> {
    ctx: GradContext<'a, MiniBatchData<'a>>,
    test: &'a [ScaledSample],
    batch_size: usize,
}

impl<'a> MiniBatchVqc<'a> {
    /// Mini-batch training on the default statevector backend.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for empty sets or
    /// `batch_size == 0`.
    pub fn new(
        model: &'a QuGeoVqc,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        batch_size: usize,
    ) -> Result<Self, QuGeoError> {
        let backend = Backend::Owned(StatevectorBackend::default());
        Self::build(model, train, test, batch_size, backend)
    }

    /// Mini-batch training through an explicit execution backend.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for empty sets or
    /// `batch_size == 0`.
    pub fn with_backend(
        model: &'a QuGeoVqc,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        batch_size: usize,
        backend: &'a dyn QuantumBackend,
    ) -> Result<Self, QuGeoError> {
        Self::build(model, train, test, batch_size, Backend::Shared(backend))
    }

    fn build(
        model: &'a QuGeoVqc,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        batch_size: usize,
        backend: Backend<'a>,
    ) -> Result<Self, QuGeoError> {
        require_non_empty(train, test)?;
        require_batch_size(batch_size)?;
        // Every training sample is amplitude-encoded once, here:
        // encoding is parameter-independent, so re-encoding per step is
        // pure waste. The states only feed the adjoint fast path; skip
        // the O(samples * 2^n) buffers on backends that cannot take it.
        let encoded = if backend.get().supports_adjoint_gradient() {
            train
                .iter()
                .map(|s| model.encode(&s.seismic))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let data = MiniBatchData {
            model,
            train,
            targets: train.iter().map(normalized_target).collect(),
            encoded,
        };
        Ok(Self {
            ctx: GradContext::new(Arc::new(data), backend),
            test,
            batch_size,
        })
    }

    /// The strategy's adjoint workspace — its allocation/reuse counters
    /// let callers assert the no-allocation steady-state contract.
    pub fn adjoint_workspace(&self) -> &AdjointWorkspace {
        &self.ctx.ws
    }
}

impl TrainStep for MiniBatchVqc<'_> {
    fn num_train_samples(&self) -> usize {
        self.ctx.data.train.len()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.ctx.data.model.init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        run_steps(order, self.batch_size, params, optimizer, &mut self.ctx)
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        self.evaluate_params(params)
    }
}

impl Shardable for MiniBatchVqc<'_> {
    fn num_train_samples(&self) -> usize {
        self.ctx.data.train.len()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.ctx.data.model.init_params(seed)
    }

    fn samples_per_step(&self) -> usize {
        self.batch_size
    }

    /// One register per unit member.
    fn unit_work(&self, unit_len: usize) -> usize {
        let circuit = self.ctx.data.model.circuit();
        amplitude_work(circuit, circuit.num_qubits(), unit_len)
    }

    fn replica(&self, config: BackendConfig) -> Box<dyn ReplicaStep + '_> {
        Box::new(self.ctx.replica(config))
    }

    fn evaluate_params(&self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        let model = self.ctx.data.model;
        evaluate_vqc_with(model, params, self.test, self.ctx.backend.get())
    }
}

/// The classical model's view of a scaled sample: the same
/// quantum-normalised input the VQC sees (per-group ℓ₂ norm) so the
/// Table 2 comparison is like-for-like.
fn regressor_input(sample: &ScaledSample, group_len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(sample.seismic.len());
    for chunk in sample.seismic.chunks(group_len) {
        out.extend(l2_normalized(chunk));
    }
    out
}

/// Builds the regression target for a head: 64 pixels (PX) or 8 row
/// means (LY) of the normalised map.
fn regressor_target(head: &RegressorHead, target_map: &Array2) -> Vec<f64> {
    match *head {
        RegressorHead::PixelWise { side } => {
            let mut t = Vec::with_capacity(side * side);
            for r in 0..side {
                t.extend_from_slice(target_map.row(r));
            }
            t
        }
        RegressorHead::LayerWise { rows } => (0..rows)
            .map(|r| {
                let row = target_map.row(r);
                row.iter().sum::<f64>() / row.len() as f64
            })
            .collect(),
    }
}

/// Expands a regressor output vector into a velocity map (rows replicated
/// for the layer-wise head).
fn regressor_map(head: &RegressorHead, output: &[f64]) -> Array2 {
    match *head {
        RegressorHead::PixelWise { side } => {
            Array2::from_fn(side, side, |r, c| output[r * side + c])
        }
        RegressorHead::LayerWise { rows } => Array2::from_fn(rows, rows, |r, _| output[r]),
    }
}

/// Evaluates a trained CNN regressor: mean (MSE, SSIM) against
/// normalised targets.
///
/// # Errors
///
/// Returns an error for empty sets or shape mismatches.
pub fn evaluate_regressor(
    model: &CnnRegressor,
    samples: &[ScaledSample],
    group_len: usize,
) -> Result<(f64, f64), QuGeoError> {
    if samples.is_empty() {
        return Err(QuGeoError::Config {
            reason: "cannot evaluate on an empty set".into(),
        });
    }
    let head = model.config().head;
    let preds = samples
        .iter()
        .map(|s| {
            let out = model.forward(&regressor_input(s, group_len))?;
            Ok(regressor_map(&head, &out))
        })
        .collect::<Result<Vec<_>, QuGeoError>>()?;
    mean_mse_ssim(samples, &preds)
}

/// Classical baseline training: one optimiser step per sample on a
/// [`CnnRegressor`], with the same engine (schedule, callbacks,
/// shuffling) as the quantum strategies.
pub struct RegressorStep<'a> {
    model: &'a mut CnnRegressor,
    inputs: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
    test: &'a [ScaledSample],
    group_len: usize,
}

impl<'a> RegressorStep<'a> {
    /// Per-sample regressor training; inputs are pre-normalised with the
    /// VQC's per-group ℓ₂ norm so the comparison is like-for-like.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for empty train or test sets.
    pub fn new(
        model: &'a mut CnnRegressor,
        train: &'a [ScaledSample],
        test: &'a [ScaledSample],
        group_len: usize,
    ) -> Result<Self, QuGeoError> {
        require_non_empty(train, test)?;
        let head = model.config().head;
        let inputs = train.iter().map(|s| regressor_input(s, group_len)).collect();
        let targets = train
            .iter()
            .map(|s| regressor_target(&head, &normalized_target(s)))
            .collect();
        Ok(Self {
            model,
            inputs,
            targets,
            test,
            group_len,
        })
    }
}

impl TrainStep for RegressorStep<'_> {
    fn num_train_samples(&self) -> usize {
        self.inputs.len()
    }

    fn init_params(&self, _seed: u64) -> Vec<f64> {
        // Classical networks keep their constructor-seeded weights; the
        // engine seed only drives shuffling.
        self.model.params()
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        let mut loss_sum = 0.0;
        let mut norm_sum = 0.0;
        for &i in order {
            let (loss, grad) = self.model.loss_and_grad(&self.inputs[i], &self.targets[i])?;
            optimizer.step(params, &grad);
            self.model.set_params(params);
            loss_sum += loss;
            norm_sum += l2_norm(&grad);
        }
        let n = order.len().max(1) as f64;
        Ok(EpochReport {
            train_loss: loss_sum / n,
            grad_norm: norm_sum / n,
        })
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        self.model.set_params(params);
        evaluate_regressor(self.model, self.test, self.group_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regressor_target_layer_wise_uses_row_means() {
        let map = Array2::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let t = regressor_target(&RegressorHead::LayerWise { rows: 4 }, &map);
        assert_eq!(t, vec![1.5, 5.5, 9.5, 13.5]);
        let tp = regressor_target(&RegressorHead::PixelWise { side: 4 }, &map);
        assert_eq!(tp.len(), 16);
        assert_eq!(tp[5], 5.0);
    }

    #[test]
    fn regressor_map_round_trips() {
        let out: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let m = regressor_map(&RegressorHead::LayerWise { rows: 4 }, &out);
        assert_eq!(m[(2, 0)], 2.0);
        assert_eq!(m[(2, 3)], 2.0);
    }

}
