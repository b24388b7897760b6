//! Data-parallel training with a deterministic all-reduce.
//!
//! [`DataParallel`] wraps a [`Shardable`] strategy and splits every
//! optimiser step's mini-batch across N replica evaluation contexts,
//! each owning its own [`AdjointWorkspace`](qugeo_qsim::AdjointWorkspace)
//! and backend (thread budget divided via
//! [`BackendConfig::split`]). Replicas evaluate disjoint *micro-batch
//! units*, the coordinator all-reduces the unit gradients, and the
//! optimiser steps exactly once per mini-batch — so data parallelism
//! changes wall-clock time, never semantics. The wrapped and the plain
//! strategies share one epoch loop and one gradient body: a plain
//! strategy evaluates each mini-batch as a single unit in its own
//! context.
//!
//! # The determinism contract
//!
//! `replicas = N` is **bit-identical** to `replicas = 1` for every
//! optimizer, schedule, and strategy, by construction:
//!
//! 1. **Unit decomposition is replica-free.** Each step's sample chunk is
//!    split into units of [`DataParallel::micro_batch`] samples. The unit
//!    boundaries depend only on the chunk and the micro-batch size —
//!    never on the replica count.
//! 2. **Units land in ordered slots.** Replicas write each unit's
//!    `(loss, gradient)` into the slot indexed by the unit's position, so
//!    scheduling and completion order are invisible to the reduction.
//! 3. **The all-reduce has a fixed shape.** Unit gradients are weighted
//!    by `|unit| / |chunk|` and combined by [`tree_reduce`] — pairwise
//!    rounds in unit order, a reduction tree whose shape is a function of
//!    the unit count alone.
//! 4. **Only the coordinator steps the optimiser**, once per mini-batch,
//!    with the reduced gradient; replicas never touch optimiser state.
//!
//! The sample order itself is derived once per epoch by the
//! [`Trainer`](super::Trainer) engine's coordinator RNG and passed down
//! as a slice; `DataParallel` only *partitions* that order, it never
//! reshuffles — sharding is therefore replica-count-invariant all the
//! way from the shuffle to the parameter update. The kernel layer
//! completes the chain: its reductions use fixed-size chunk partials, so
//! even the per-replica thread budget cannot perturb a gradient bit
//! (`reduce_chunks` in `qugeo_qsim`).
//!
//! # When replicas run on threads
//!
//! Where a unit runs never changes what it produces, so the wrapper
//! decides from what it observes, with no knob:
//!
//! * **The budget it was built with** — `base.effective_threads()` of
//!   [`DataParallel::with_config`] (the machine's simulation-thread
//!   budget for [`DataParallel::new`]). A step runs on at most that many
//!   threads, and never on more than it has replicas or units.
//! * **The coordinator runs one share itself**, so `w` workers cost
//!   `w − 1` spawns per step.
//! * **Only work that repays a spawn is spread.** A step's amplitude
//!   work — its unit count times [`Shardable::unit_work`] — buys one
//!   thread per [`REPLICA_SPAWN_MIN_WORK`]. Below twice that, every unit
//!   runs on the coordinator, in the first replica's context.
//!
//! # Failure containment
//!
//! A replica that panics mid-unit is caught — on its worker thread or on
//! the coordinator — and surfaced as [`QuGeoError::ReplicaPanic`]: the
//! optimiser is never stepped with a partial all-reduce, so a
//! chaos-injected engine panic can abort a run but cannot corrupt it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qugeo_nn::optim::Optimizer;
use qugeo_qsim::BackendConfig;
use qugeo_tensor::norm::l2_norm;

use super::strategy::{EpochReport, TrainStep};
use crate::QuGeoError;

/// Amplitude work (members × 2ⁿ amplitudes × fused ops, summed over a
/// step's units — see [`Shardable::unit_work`]) that buys [`DataParallel`]
/// one worker thread: a step runs on at most one thread per this much
/// work, so each worker's share is about this much or more.
///
/// Measured on a 2-vCPU AVX-512 host: a scoped-thread spawn plus join
/// costs 15–30 µs; a one-sample unit of a 6-qubit × 2-block ansatz
/// (~1 k amplitude-ops) takes ~7 µs; a paper Q-M-LY mini-batch-16 unit
/// at micro-batch 8 (8 qubits × 12 blocks, ~200 k amplitude-ops) takes
/// ~0.5 ms, ~2.5 ns per amplitude-op. At
/// `2^15` amplitude-ops (~80 µs at that rate) a spawn costs at most about
/// a third of the work it moves; less work runs faster inline.
pub const REPLICA_SPAWN_MIN_WORK: usize = 1 << 15;

/// One replica's evaluation context: owns whatever mutable scratch the
/// strategy needs (adjoint workspace, input batch, gradient buffer,
/// backend handle) and evaluates micro-batch units against shared
/// read-only data.
///
/// `Send` is a supertrait because replica contexts move onto scoped
/// worker threads.
pub trait ReplicaStep: Send {
    /// Evaluates one micro-batch unit of sample indices at `params`,
    /// returning the **mean** loss over the unit and its **mean**
    /// gradient, which stays in a buffer the context recycles.
    ///
    /// # Errors
    ///
    /// Propagates simulation or backend failures.
    fn eval_unit(&mut self, unit: &[usize], params: &[f64]) -> Result<(f64, &[f64]), QuGeoError>;
}

/// A strategy that can be sharded across data-parallel replicas.
///
/// The strategy stays the single owner of the training data, targets,
/// and pre-encoded states; [`Shardable::replica`] hands out lightweight
/// contexts that *share* the read-only state and own only their
/// mutable scratch.
pub trait Shardable {
    /// Number of training samples (the engine shuffles `0..n`).
    fn num_train_samples(&self) -> usize;

    /// Initial parameter vector for `seed`.
    fn init_params(&self, seed: u64) -> Vec<f64>;

    /// Samples consumed per optimiser step (1 for per-sample training,
    /// the batch size for mini-batch strategies). Defines the step
    /// boundaries `DataParallel` decomposes into micro-batch units.
    fn samples_per_step(&self) -> usize;

    /// Amplitude work of evaluating one unit of `unit_len` samples:
    /// simulated members × 2ⁿ amplitudes × fused ops. `DataParallel`
    /// compares it with [`REPLICA_SPAWN_MIN_WORK`].
    fn unit_work(&self, unit_len: usize) -> usize;

    /// Builds one replica evaluation context under `config`'s thread
    /// budget.
    fn replica(&self, config: BackendConfig) -> Box<dyn ReplicaStep + '_>;

    /// Evaluates `params` on the held-out set: mean (MSE, SSIM).
    ///
    /// # Errors
    ///
    /// Propagates prediction failures.
    fn evaluate_params(&self, params: &[f64]) -> Result<(f64, f64), QuGeoError>;
}

/// The epoch loop of every VQC strategy, plain or wrapped: `order` in
/// `step`-sample chunks, each chunk one gradient evaluation by `eval` and
/// one optimiser step.
pub(super) fn run_steps(
    order: &[usize],
    step: usize,
    params: &mut [f64],
    optimizer: &mut dyn Optimizer,
    eval: &mut dyn ReplicaStep,
) -> Result<EpochReport, QuGeoError> {
    let mut loss_sum = 0.0;
    let mut norm_sum = 0.0;
    let mut steps = 0usize;
    for chunk in order.chunks(step.max(1)) {
        let (loss, grad) = eval.eval_unit(chunk, params)?;
        optimizer.step(params, grad);
        loss_sum += loss;
        norm_sum += l2_norm(grad);
        steps += 1;
    }
    let n = steps.max(1) as f64;
    Ok(EpochReport {
        train_loss: loss_sum / n,
        grad_norm: norm_sum / n,
    })
}

/// Data-parallel wrapper: shards each optimiser step's samples across
/// replica contexts and all-reduces gradients deterministically. See the
/// module docs above for the bit-identity contract and the spawn rule.
///
/// # Examples
///
/// ```no_run
/// use qugeo::model::{QuGeoVqc, VqcConfig};
/// use qugeo::train::{DataParallel, MiniBatchVqc, TrainConfig, Trainer};
/// # fn main() -> Result<(), qugeo::QuGeoError> {
/// # let (train, test): (Vec<_>, Vec<_>) = (vec![], vec![]);
/// let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
/// let strategy = MiniBatchVqc::new(&model, &train, &test, 16)?;
/// let mut parallel = DataParallel::new(&strategy, 2)?.micro_batch(8);
/// let outcome = Trainer::new(TrainConfig::smoke(10)).fit(&mut parallel)?;
/// # Ok(())
/// # }
/// ```
pub struct DataParallel<'a, S: Shardable> {
    inner: &'a S,
    shards: Shards<'a>,
}

/// The replica contexts, the schedule they run on, and the per-unit
/// gradient slots every step recycles.
struct Shards<'a> {
    contexts: Vec<Box<dyn ReplicaStep + 'a>>,
    budget: usize,
    micro: usize,
    unit_work: usize,
    slots: Vec<Vec<f64>>,
}

impl<'a, S: Shardable> DataParallel<'a, S> {
    /// Wraps `inner` with `replicas` evaluation contexts under the
    /// machine's simulation-thread budget, split equally between them.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] when `replicas == 0`.
    pub fn new(inner: &'a S, replicas: usize) -> Result<Self, QuGeoError> {
        Self::with_config(inner, replicas, BackendConfig::default())
    }

    /// Wraps `inner` with `replicas` contexts under an explicit base
    /// thread budget: steps run on at most `base.effective_threads()`
    /// threads, and each replica's backend receives `base.split(replicas)`.
    /// Lets a sweep trial that already holds a
    /// [`BackendConfig::shared_across`] share divide it further.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] when `replicas == 0`.
    pub fn with_config(
        inner: &'a S,
        replicas: usize,
        base: BackendConfig,
    ) -> Result<Self, QuGeoError> {
        if replicas == 0 {
            return Err(QuGeoError::Config {
                reason: "data-parallel training requires at least one replica".into(),
            });
        }
        let per_replica = base.split(replicas);
        let shards = Shards {
            contexts: (0..replicas).map(|_| inner.replica(per_replica)).collect(),
            budget: base.effective_threads(),
            micro: 1,
            unit_work: 0,
            slots: Vec::new(),
        };
        Ok(Self { inner, shards }.micro_batch(1))
    }

    /// Sets the micro-batch unit size (default 1; values below 1 are
    /// clamped to 1).
    ///
    /// Units are the grain of parallel work *and* of the reduction:
    /// changing `micro` changes the floating-point summation grouping —
    /// deterministically — while changing the replica count never does.
    /// Set `micro` to the strategy's full batch size to make the wrapped
    /// run bit-identical to the plain strategy.
    pub fn micro_batch(mut self, micro: usize) -> Self {
        self.shards.micro = micro.max(1);
        self.shards.unit_work = self.inner.unit_work(self.shards.micro);
        self
    }

    /// Number of replica contexts.
    pub fn replicas(&self) -> usize {
        self.shards.contexts.len()
    }
}

impl<S: Shardable> TrainStep for DataParallel<'_, S> {
    fn num_train_samples(&self) -> usize {
        self.inner.num_train_samples()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.inner.init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        let step = self.inner.samples_per_step();
        run_steps(order, step, params, optimizer, &mut self.shards)
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        self.inner.evaluate_params(params)
    }
}

/// One optimiser step's chunk, sharded: its units are split into one
/// consecutive share per worker, sizes differing by at most one unit,
/// share `r` evaluated by replica `r`, then weighted and tree-reduced
/// into the step's mean gradient.
impl ReplicaStep for Shards<'_> {
    fn eval_unit(&mut self, chunk: &[usize], params: &[f64]) -> Result<(f64, &[f64]), QuGeoError> {
        let units: Vec<&[usize]> = chunk.chunks(self.micro).collect();
        let work = self.unit_work.saturating_mul(units.len());
        let workers = (work / REPLICA_SPAWN_MIN_WORK)
            .min(self.budget)
            .min(self.contexts.len())
            .min(units.len())
            .max(1);
        if self.slots.len() < units.len() {
            self.slots.resize_with(units.len(), Vec::new);
        }
        // Exactly `workers` consecutive shares, the first `units % workers`
        // of them one unit longer than the rest.
        let mut shares = Vec::with_capacity(workers);
        let (mut rest_units, mut rest_slots) = (&units[..], &mut self.slots[..units.len()]);
        for (r, ctx) in self.contexts.iter_mut().take(workers).enumerate() {
            let len = units.len() / workers + usize::from(r < units.len() % workers);
            let (share_units, tail_units) = rest_units.split_at(len);
            let (share_slots, tail_slots) = std::mem::take(&mut rest_slots).split_at_mut(len);
            shares.push((ctx, share_units, share_slots));
            (rest_units, rest_slots) = (tail_units, tail_slots);
        }
        let mut shares = shares.into_iter();
        let chunk_len = chunk.len();
        let outcomes = std::thread::scope(|scope| {
            // Every share but the first goes to a worker thread; the
            // coordinator evaluates the first itself.
            let first = shares.next();
            let handles: Vec<_> = shares
                .map(|(ctx, units, slots)| {
                    scope.spawn(move || eval_share(ctx.as_mut(), units, slots, params, chunk_len))
                })
                .collect();
            let mut outcomes = Vec::with_capacity(handles.len() + 1);
            if let Some((ctx, units, slots)) = first {
                outcomes.push(catch_unwind(AssertUnwindSafe(|| {
                    eval_share(ctx.as_mut(), units, slots, params, chunk_len)
                })));
            }
            outcomes.extend(handles.into_iter().map(|h| h.join()));
            outcomes
        });

        let mut step_loss = 0.0;
        for (replica, outcome) in outcomes.into_iter().enumerate() {
            let losses = outcome.map_err(|payload| QuGeoError::ReplicaPanic {
                replica,
                reason: panic_message(payload),
            })??;
            for loss in losses {
                step_loss += loss;
            }
        }
        Ok((step_loss, tree_reduce(&mut self.slots[..units.len()])))
    }
}

/// Evaluates one replica's consecutive `units` in order, leaving each
/// unit's mean gradient, weighted by the unit's share of the
/// `chunk_len`-sample chunk, in its slot; returns the weighted losses.
/// A full-chunk unit has weight exactly 1.0, a bitwise no-op.
fn eval_share(
    ctx: &mut (dyn ReplicaStep + '_),
    units: &[&[usize]],
    slots: &mut [Vec<f64>],
    params: &[f64],
    chunk_len: usize,
) -> Result<Vec<f64>, QuGeoError> {
    units
        .iter()
        .zip(slots)
        .map(|(unit, slot)| {
            let (loss, grad) = ctx.eval_unit(unit, params)?;
            let w = unit.len() as f64 / chunk_len as f64;
            slot.clear();
            slot.extend(grad.iter().map(|g| g * w));
            Ok(w * loss)
        })
        .collect()
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Pairwise tree reduction in slot order, in place: round after round,
/// slot `k` absorbs slot `k + stride`, with the stride doubling each
/// round, and the sum ends in slot 0. The tree's shape — and therefore
/// the floating-point summation order — is a function of the slot count
/// alone, which is what makes the all-reduce independent of how units
/// were scheduled across replicas.
fn tree_reduce(slots: &mut [Vec<f64>]) -> &[f64] {
    let mut stride = 1;
    while stride < slots.len() {
        for k in (0..slots.len() - stride).step_by(2 * stride) {
            let (low, high) = slots.split_at_mut(k + stride);
            for (x, y) in low[k].iter_mut().zip(&high[0]) {
                *x += y;
            }
        }
        stride *= 2;
    }
    slots.first().map_or(&[], Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_reduce_shape_depends_only_on_count() {
        // 5 inputs: rounds are ((0+1),(2+3),4) -> ((01+23),4) -> final.
        let mut inputs: Vec<Vec<f64>> = (0..5).map(|i| vec![10f64.powi(i - 2), 1.0]).collect();
        let expect0 =
            ((inputs[0][0] + inputs[1][0]) + (inputs[2][0] + inputs[3][0])) + inputs[4][0];
        let tree = tree_reduce(&mut inputs);
        assert_eq!(tree[0].to_bits(), expect0.to_bits());
        assert_eq!(tree[1], 5.0);

        // Single input passes through untouched, bit for bit.
        let mut one = vec![vec![0.1 + 0.2, -0.0]];
        let one = tree_reduce(&mut one);
        assert_eq!(one[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(one[1].to_bits(), (-0.0f64).to_bits());

        assert!(tree_reduce(&mut []).is_empty());
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(s), "literal");
        let owned = std::panic::catch_unwind(|| panic!("call {}", 7)).unwrap_err();
        assert_eq!(panic_message(owned), "call 7");
        let other = std::panic::catch_unwind(|| std::panic::panic_any(42usize)).unwrap_err();
        assert_eq!(panic_message(other), "non-string panic payload");
    }
}
