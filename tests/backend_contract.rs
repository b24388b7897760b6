//! A backend owes one output distribution per batch member. One that
//! drops a distribution must fail every public entry point that decodes
//! them with the typed `QuGeoError::DistributionCount` — never a panic,
//! never a short result, never a request served as completed.

use std::fmt::Debug;
use std::time::Duration;

use qugeo::decoder::Decoder;
use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::qubatch::QuBatch;
use qugeo::serve::{CoalesceMode, QuServe, ServeConfig, ServeError};
use qugeo::session::InferenceSession;
use qugeo::train::{evaluate_vqc_with, MiniBatchVqc, QuBatchVqc, TrainConfig, Trainer};
use qugeo::QuGeoError;
use qugeo_geodata::scaling::ScaledSample;
use qugeo_qsim::ansatz::EntangleOrder;
use qugeo_qsim::{
    BackendConfig, BatchedState, CompiledCircuit, DiagonalObservable, QsimError, QuantumBackend,
    StatevectorBackend,
};
use qugeo_tensor::Array2;

/// Delegates to the statevector engine but drops the last distribution
/// of every batch. It reports no adjoint support, so gradient entry
/// points take the paths that read distributions.
#[derive(Default)]
struct DropsLast(StatevectorBackend);

impl QuantumBackend for DropsLast {
    fn name(&self) -> &'static str {
        "drops-last"
    }

    fn config(&self) -> &BackendConfig {
        self.0.config()
    }

    fn supports_adjoint_gradient(&self) -> bool {
        false
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        self.0.run_batch(circuit, batch)
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        self.0.run_each(circuits, batch)
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        self.0.expectations(batch, obs)
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        let mut dists = self.0.probabilities(batch)?;
        dists.pop();
        Ok(dists)
    }
}

fn model() -> QuGeoVqc {
    QuGeoVqc::new(VqcConfig {
        seismic_len: 16,
        num_groups: 1,
        num_blocks: 2,
        mixing_blocks: 0,
        entangle: EntangleOrder::Ring,
        decoder: Decoder::LayerWise { rows: 4 },
        max_qubits: 16,
    })
    .expect("valid config")
}

fn samples(n: usize) -> Vec<ScaledSample> {
    (0..n)
        .map(|k| ScaledSample {
            seismic: (0..16)
                .map(|i| ((i + k) as f64 * 0.3).sin() + 1.5)
                .collect(),
            velocity: Array2::from_fn(4, 4, |r, _| if r <= k % 3 { 2000.0 } else { 3500.0 }),
        })
        .collect()
}

/// Asserts `result` is the count error for a batch of `members`, one of
/// whose distributions the backend dropped.
fn assert_dropped<T: Debug>(result: Result<T, QuGeoError>, members: usize) {
    match result {
        Err(QuGeoError::DistributionCount { expected, actual }) => {
            assert_eq!((expected, actual), (members, members - 1));
        }
        other => panic!("expected DistributionCount for {members} members, got {other:?}"),
    }
}

#[test]
fn model_entry_points_reject_a_missing_distribution() {
    let model = model();
    let params = model.init_params(3);
    let data = samples(3);
    let seismic: Vec<&[f64]> = data.iter().map(|s| s.seismic.as_slice()).collect();
    let target = Array2::from_fn(4, 4, |r, _| r as f64 / 4.0);
    let backend = DropsLast::default();

    assert_dropped(model.predict_with(seismic[0], &params, &backend), 1);
    assert_dropped(model.predict_many_with(&seismic, &params, &backend), 3);
    assert_dropped(
        model.loss_and_grad_with(seismic[0], &target, &params, &backend),
        1,
    );
    assert_dropped(evaluate_vqc_with(&model, &params, &data, &backend), 3);
}

#[test]
fn qubatch_entry_points_reject_a_missing_distribution() {
    let model = model();
    let params = model.init_params(3);
    let qubatch = QuBatch::new(&model).unwrap();
    let batch: Vec<Vec<f64>> = samples(3).into_iter().map(|s| s.seismic).collect();
    let targets = vec![Array2::from_fn(4, 4, |r, _| r as f64 / 4.0); 3];
    let backend = DropsLast::default();

    // The whole QuBatch is one packed register: one distribution owed.
    assert_dropped(qubatch.predict_batch_with(&batch, &params, &backend), 1);
    assert_dropped(
        qubatch.loss_and_grad_batch_with(&batch, &targets, &params, &backend),
        1,
    );
}

#[test]
fn session_entry_points_reject_a_missing_distribution() {
    let model = model();
    let params = model.init_params(3);
    let batch: Vec<Vec<f64>> = samples(3).into_iter().map(|s| s.seismic).collect();
    let mut session = InferenceSession::with_backend(model, &params, DropsLast::default()).unwrap();

    assert_dropped(session.predict(&batch[0]), 1);
    assert_dropped(session.predict_many(&batch), 3);
    assert_dropped(session.predict_packed(&batch), 1);
}

#[test]
fn training_through_the_backend_fails_with_the_count_error() {
    let model = model();
    let data = samples(6);
    let (train, test) = data.split_at(4);
    let backend = DropsLast::default();

    let mut minibatch = MiniBatchVqc::with_backend(&model, train, test, 2, &backend).unwrap();
    assert_dropped(Trainer::new(TrainConfig::smoke(1)).fit(&mut minibatch), 1);
    let mut qubatch = QuBatchVqc::with_backend(&model, train, test, 2, &backend).unwrap();
    assert_dropped(Trainer::new(TrainConfig::smoke(1)).fit(&mut qubatch), 1);
}

#[test]
fn serving_counts_a_missing_distribution_as_failed() {
    let model = model();
    let params = model.init_params(3);
    let serve = QuServe::start_with(
        model,
        &params,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            coalesce: CoalesceMode::Batched,
            ..ServeConfig::default()
        },
        |_| DropsLast::default(),
    )
    .unwrap();
    let reply = serve.predict_blocking(samples(1).remove(0).seismic);
    match reply {
        Err(ServeError::Failed { reason }) => {
            assert!(reason.contains("0 output distributions for 1"), "{reason}");
        }
        other => panic!("expected a failed request, got {other:?}"),
    }
    let stats = serve.stats();
    assert_eq!((stats.completed, stats.failed), (0, 1));
    serve.shutdown();
}
