//! The unified training engine: one loop, swappable parts.
//!
//! The paper's recipe — "Adam optimizer with 500 epochs where the
//! initial learning rate is set to 0.1, followed by a cosine annealing
//! schedule" — is the *default* configuration of this engine, not a
//! hard-coded loop. A [`Trainer`] drives any [`TrainStep`] strategy
//! (mini-batch averaged, which is per-sample at batch 1; QuBatch-widened;
//! or the classical regressor) with any [`Optimizer`] and
//! [`LrSchedule`], and a [`Callback`] stack observes every epoch (early
//! stopping, periodic checkpoints, extra metrics).
//!
//! Layering:
//!
//! ```text
//!   Sweep (sweep)                grid/random trials over hyper-parameters
//!   Trainer (this module)        epoch loop, shuffling, schedule, history
//!     ├─ TrainStep  (strategy)   what one epoch of updates means
//!     │    └─ DataParallel (parallel)  shards a step across N replicas,
//!     │                                deterministic all-reduce
//!     ├─ Optimizer  (qugeo_nn)   how a gradient becomes a parameter update
//!     ├─ LrSchedule (qugeo_nn)   which learning rate each epoch runs at
//!     └─ Callback   (callback)   what happens after each epoch
//! ```
//!
//! The epoch's sample order is derived **once**, here, by the
//! coordinator's seeded RNG — strategies (including [`DataParallel`])
//! only consume the order, so sharding is replica-count-invariant by
//! construction.
//!
//! The paper's per-sample loop is [`MiniBatchVqc`] at `batch_size = 1`;
//! `train/tests.rs` pins it, and [`QuBatchVqc`], bit-for-bit against
//! frozen copies of the loops that predate the engine.
//!
//! Each VQC strategy has one gradient body and one epoch loop, and
//! [`DataParallel`] reuses both: it is the same loop over N replica
//! contexts plus a fixed-shape tree reduction. It has no threading
//! switch — it spreads a step over at most the thread budget it was
//! built with, and only when the step's amplitude work repays a thread
//! spawn ([`REPLICA_SPAWN_MIN_WORK`]).
//!
//! # Examples
//!
//! ```no_run
//! use qugeo::model::{QuGeoVqc, VqcConfig};
//! use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
//! # fn main() -> Result<(), qugeo::QuGeoError> {
//! # let (train, test): (Vec<_>, Vec<_>) = (vec![], vec![]);
//! let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
//! let outcome = Trainer::new(TrainConfig::paper_default())
//!     .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;
//! println!("SSIM {:.4}", outcome.final_ssim);
//! # Ok(())
//! # }
//! ```

mod callback;
mod parallel;
mod strategy;
mod sweep;

pub use callback::{
    Callback, CallbackFlow, EarlyStopping, EpochContext, MetricsRecorder, PeriodicCheckpoint,
};
pub use parallel::{DataParallel, ReplicaStep, Shardable, REPLICA_SPAWN_MIN_WORK};
pub use strategy::{
    evaluate_regressor, evaluate_vqc, evaluate_vqc_with, EpochReport, MiniBatchVqc, QuBatchVqc,
    RegressorStep, TrainStep,
};
pub use sweep::{
    Leaderboard, ScheduleSpec, Sweep, SweepSpace, SweepStrategy, TrialOutcome, TrialSpec,
};

use std::time::Instant;

use qugeo_nn::optim::{Adam, CosineAnnealing, LrSchedule, Optimizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::Checkpoint;
use crate::QuGeoError;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Initial learning rate (cosine-annealed to zero by default).
    pub initial_lr: f64,
    /// Seed for parameter initialisation and shuffling.
    pub seed: u64,
    /// Evaluate on the test set every `eval_every` epochs (and always on
    /// the final epoch). 0 disables intermediate evaluation.
    pub eval_every: usize,
}

impl TrainConfig {
    /// The paper's setup: 500 epochs, lr 0.1, cosine annealing.
    pub fn paper_default() -> Self {
        Self {
            epochs: 500,
            initial_lr: 0.1,
            seed: 7,
            eval_every: 25,
        }
    }

    /// A fast setup for tests and smoke runs.
    pub fn smoke(epochs: usize) -> Self {
        Self {
            epochs,
            initial_lr: 0.1,
            seed: 7,
            eval_every: 0,
        }
    }

    /// Checks the configuration is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] when `epochs == 0` or when
    /// `initial_lr` is non-finite or non-positive — configurations that
    /// would otherwise silently produce empty or NaN training histories.
    pub fn validate(&self) -> Result<(), QuGeoError> {
        if self.epochs == 0 {
            return Err(QuGeoError::Config {
                reason: "training requires epochs > 0".into(),
            });
        }
        if !self.initial_lr.is_finite() || self.initial_lr <= 0.0 {
            return Err(QuGeoError::Config {
                reason: format!(
                    "initial_lr must be finite and positive, got {}",
                    self.initial_lr
                ),
            });
        }
        Ok(())
    }
}

/// Metrics recorded during training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Test MSE (normalised velocity), when evaluated this epoch.
    pub test_mse: Option<f64>,
    /// Test SSIM (normalised velocity), when evaluated this epoch.
    pub test_ssim: Option<f64>,
    /// Mean per-step gradient ℓ₂ norm, when a [`MetricsRecorder`]
    /// callback is installed.
    pub grad_norm: Option<f64>,
    /// Wall-clock seconds the epoch took, when a [`MetricsRecorder`]
    /// callback is installed.
    pub wall_clock_secs: Option<f64>,
}

/// The result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// Final trained parameters.
    pub params: Vec<f64>,
    /// Per-epoch statistics (truncated where a callback stopped the run).
    pub history: Vec<EpochStats>,
    /// Final test MSE (normalised velocity).
    pub final_mse: f64,
    /// Final test SSIM.
    pub final_ssim: f64,
}

/// Builds a boxed optimiser for a given parameter count and initial
/// learning rate — deferred because the parameter count is only known
/// once the strategy initialises its parameter vector.
pub type OptimizerFactory = Box<dyn Fn(usize, f64) -> Box<dyn Optimizer>>;

/// The engine: drives any [`TrainStep`] strategy through the configured
/// epochs with a pluggable optimiser, schedule, and callback stack.
///
/// Defaults reproduce the paper's recipe exactly: Adam with
/// cosine-annealed learning rate, no callbacks. A `Trainer` is consumed
/// by [`Trainer::fit`] so stateful callbacks cannot leak between runs.
pub struct Trainer {
    config: TrainConfig,
    optimizer: Option<OptimizerFactory>,
    schedule: Option<Box<dyn LrSchedule>>,
    callbacks: Vec<Box<dyn Callback>>,
}

impl Trainer {
    /// A trainer with the paper-default parts: Adam optimiser and a
    /// cosine-annealing schedule over `config.epochs`.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            optimizer: None,
            schedule: None,
            callbacks: Vec::new(),
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Replaces the optimiser: `factory(num_params, initial_lr)` is
    /// called once, after the strategy has initialised its parameters.
    pub fn optimizer(
        mut self,
        factory: impl Fn(usize, f64) -> Box<dyn Optimizer> + 'static,
    ) -> Self {
        self.optimizer = Some(Box::new(factory));
        self
    }

    /// Replaces the learning-rate schedule.
    pub fn schedule(mut self, schedule: impl LrSchedule + 'static) -> Self {
        self.schedule = Some(Box::new(schedule));
        self
    }

    /// Appends a callback; callbacks run after every epoch in the order
    /// they were added.
    pub fn callback(mut self, callback: impl Callback + 'static) -> Self {
        self.callbacks.push(Box::new(callback));
        self
    }

    /// Runs the full training loop over `strategy`.
    ///
    /// Per epoch: set the scheduled learning rate, shuffle the sample
    /// order, run the strategy's update pass, evaluate if due
    /// (`eval_every`, always on the final epoch), then run the callback
    /// stack — any callback may enrich the epoch's [`EpochStats`] or
    /// stop the run early (history is truncated at the stopping epoch).
    /// A final evaluation on the held-out set produces
    /// [`TrainOutcome::final_mse`] / [`TrainOutcome::final_ssim`].
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for invalid configurations
    /// ([`TrainConfig::validate`]), and propagates strategy, backend,
    /// and callback failures.
    pub fn fit(self, strategy: &mut dyn TrainStep) -> Result<TrainOutcome, QuGeoError> {
        self.run(strategy, None)
    }

    /// Resumes an interrupted run from a mid-training checkpoint
    /// (captured by [`Checkpoint::capture_training`], typically via a
    /// [`PeriodicCheckpoint`] callback — find the newest usable one with
    /// [`PeriodicCheckpoint::latest_valid`]).
    ///
    /// The checkpoint's parameters and optimiser moments are restored,
    /// the shuffling RNG is fast-forwarded past the completed epochs,
    /// and the loop continues at `checkpoint.epoch + 1` under the same
    /// schedule — so an interrupted-then-resumed run produces **bit
    /// identical** final parameters to the uninterrupted one, provided
    /// the configuration, strategy and optimiser kind match the original
    /// run's.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] for invalid configurations, a
    /// checkpoint without resume metadata (epoch-less v1 or plain
    /// capture), a parameter-count mismatch with the strategy, or a
    /// checkpoint epoch at or past `config.epochs`; optimiser state of
    /// the wrong layout surfaces as [`QuGeoError::Network`]. Strategy,
    /// backend, and callback failures propagate.
    pub fn fit_resuming(
        self,
        strategy: &mut dyn TrainStep,
        checkpoint: &Checkpoint,
    ) -> Result<TrainOutcome, QuGeoError> {
        self.run(strategy, Some(checkpoint))
    }

    /// The engine loop behind [`Trainer::fit`] / [`Trainer::fit_resuming`].
    fn run(
        mut self,
        strategy: &mut dyn TrainStep,
        resume: Option<&Checkpoint>,
    ) -> Result<TrainOutcome, QuGeoError> {
        self.config.validate()?;
        let config = self.config;

        let mut params = strategy.init_params(config.seed);
        let mut optimizer: Box<dyn Optimizer> = match &self.optimizer {
            Some(factory) => factory(params.len(), config.initial_lr),
            None => Box::new(Adam::new(params.len(), config.initial_lr)),
        };
        let mut start_epoch = 0usize;
        if let Some(ckpt) = resume {
            let Some(epoch) = ckpt.epoch else {
                return Err(QuGeoError::Config {
                    reason: "checkpoint carries no resume metadata (not a training snapshot)"
                        .into(),
                });
            };
            if epoch + 1 >= config.epochs {
                return Err(QuGeoError::Config {
                    reason: format!(
                        "checkpoint epoch {epoch} leaves nothing to resume in a {}-epoch run",
                        config.epochs
                    ),
                });
            }
            if ckpt.params.len() != params.len() {
                return Err(QuGeoError::Config {
                    reason: format!(
                        "checkpoint of {} params cannot resume a {}-param strategy",
                        ckpt.params.len(),
                        params.len()
                    ),
                });
            }
            params.copy_from_slice(&ckpt.params);
            optimizer.load_state(&ckpt.opt_state)?;
            start_epoch = epoch + 1;
        }
        let schedule: Box<dyn LrSchedule> = match self.schedule.take() {
            Some(s) => s,
            None => Box::new(CosineAnnealing::new(config.initial_lr, config.epochs)),
        };
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xABCD_EF01);
        let mut order: Vec<usize> = (0..strategy.num_train_samples()).collect();
        // Fast-forward the shuffle stream past the completed epochs so a
        // resumed run sees exactly the sample orders the uninterrupted
        // run would have — the heart of the bit-identical-resume claim.
        for _ in 0..start_epoch {
            order.shuffle(&mut rng);
        }
        let mut history: Vec<EpochStats> = Vec::with_capacity(config.epochs - start_epoch);

        for epoch in start_epoch..config.epochs {
            optimizer.set_learning_rate(schedule.lr_at(epoch));
            order.shuffle(&mut rng);
            let started = Instant::now();
            let report = strategy.run_epoch(&order, &mut params, optimizer.as_mut())?;

            let evaluate = epoch + 1 == config.epochs
                || (config.eval_every > 0 && epoch % config.eval_every == 0);
            let (test_mse, test_ssim) = if evaluate {
                let (m, s) = strategy.evaluate(&params)?;
                (Some(m), Some(s))
            } else {
                (None, None)
            };

            let mut stats = EpochStats {
                epoch,
                train_loss: report.train_loss,
                test_mse,
                test_ssim,
                grad_norm: None,
                wall_clock_secs: None,
            };
            let mut stop = false;
            {
                let opt_state = optimizer.state();
                let ctx = EpochContext {
                    epoch,
                    params: &params,
                    prior_history: &history,
                    grad_norm: report.grad_norm,
                    wall_clock_secs: started.elapsed().as_secs_f64(),
                    opt_state: &opt_state,
                };
                for cb in &mut self.callbacks {
                    if matches!(cb.on_epoch_end(&mut stats, &ctx)?, CallbackFlow::Stop) {
                        stop = true;
                    }
                }
            }
            history.push(stats);
            if stop {
                break;
            }
        }

        let (final_mse, final_ssim) = strategy.evaluate(&params)?;
        Ok(TrainOutcome {
            params,
            history,
            final_mse,
            final_ssim,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests;
