//! Training through the public `Trainer`, plain or with every trait the
//! trainer reaches wrapped in a tracing delegate.

use std::sync::Arc;

use qugeo::model::QuGeoVqc;
use qugeo::train::{MiniBatchVqc, QuBatchVqc, TrainConfig, TrainOutcome, TrainStep, Trainer};
use qugeo::QuGeoError;
use qugeo_geodata::scaling::ScaledSample;
use qugeo_nn::optim::Adam;
use qugeo_qsim::{QuantumBackend, StatevectorBackend};

use crate::trace::{Recorder, TracedBackend, TracedOptimizer, TracedStep};

/// The three batching strategies the engine specialises on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `MiniBatchVqc` at batch 1: the paper's per-sample Adam loop.
    B1,
    /// `MiniBatchVqc` at batch 16: one batched fused adjoint per step.
    Mb16,
    /// `QuBatchVqc` at batch 16: 16 samples packed into one 12-qubit
    /// register (Fig. 3).
    Qb16,
}

impl Shape {
    /// All shapes, in reporting order.
    pub const ALL: [Shape; 3] = [Shape::B1, Shape::Mb16, Shape::Qb16];

    /// Metric-name tag.
    pub fn tag(self) -> &'static str {
        match self {
            Shape::B1 => "b1",
            Shape::Mb16 => "mb16",
            Shape::Qb16 => "qb16",
        }
    }

    /// Run id used on this shape's spans.
    pub fn run(self) -> u32 {
        self as u32
    }
}

/// Tracing context of a fit: the recorder and the run id its spans carry.
pub type Tracer<'a> = Option<(&'a Arc<Recorder>, u32)>;

/// A VQC fit's outcome plus its adjoint workspace's compile counters.
pub struct VqcFit {
    /// What the trainer returned.
    pub outcome: TrainOutcome,
    /// Full structure compiles of the adjoint workspace.
    pub recompiles: usize,
    /// Parameter-only rebinds of the adjoint workspace.
    pub rebinds: usize,
}

/// Runs `strategy` through a trainer; when traced, the optimiser and the
/// strategy are wrapped in delegating tracers.
pub fn fit<S: TrainStep>(
    strategy: &mut S,
    config: TrainConfig,
    tracer: Tracer<'_>,
) -> Result<TrainOutcome, QuGeoError> {
    match tracer {
        None => Trainer::new(config).fit(strategy),
        Some((rec, run)) => {
            let opt_rec = Arc::clone(rec);
            Trainer::new(config)
                .optimizer(move |n, lr| {
                    Box::new(TracedOptimizer::new(
                        Box::new(Adam::new(n, lr)),
                        Arc::clone(&opt_rec),
                        run,
                    ))
                })
                .fit(&mut TracedStep::new(strategy, Arc::clone(rec), run))
        }
    }
}

/// Fits `model` with one batching shape through `with_backend` on the
/// default statevector backend (wrapped in a [`TracedBackend`] when
/// traced).
pub fn fit_vqc(
    model: &QuGeoVqc,
    train: &[ScaledSample],
    test: &[ScaledSample],
    shape: Shape,
    config: TrainConfig,
    tracer: Tracer<'_>,
) -> Result<VqcFit, QuGeoError> {
    macro_rules! run {
        ($strategy:expr) => {{
            let mut strategy = $strategy;
            let outcome = fit(&mut strategy, config, tracer)?;
            let ws = strategy.adjoint_workspace();
            Ok(VqcFit {
                outcome,
                recompiles: ws.recompiles(),
                rebinds: ws.rebinds(),
            })
        }};
    }
    let plain = StatevectorBackend::default();
    let traced;
    let backend: &dyn QuantumBackend = match tracer {
        None => &plain,
        Some((rec, run)) => {
            traced = TracedBackend::new(plain, Arc::clone(rec), run);
            &traced
        }
    };
    match shape {
        Shape::B1 => run!(MiniBatchVqc::with_backend(model, train, test, 1, backend)?),
        Shape::Mb16 => run!(MiniBatchVqc::with_backend(model, train, test, 16, backend)?),
        Shape::Qb16 => run!(QuBatchVqc::with_backend(model, train, test, 16, backend)?),
    }
}
