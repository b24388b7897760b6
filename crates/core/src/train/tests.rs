use super::*;
use crate::decoder::Decoder;
use crate::model::{QuGeoVqc, VqcConfig};
use crate::pipeline::normalized_target;
use crate::qubatch::QuBatch;
use qugeo_geodata::scaling::ScaledSample;
use qugeo_nn::models::{CnnRegressor, RegressorConfig};
use qugeo_nn::optim::{ConstantLr, Sgd, StepDecay, WarmupCosine};
use qugeo_qsim::ansatz::EntangleOrder;
use qugeo_qsim::{
    BackendConfig, BatchedState, CompiledCircuit, DiagonalObservable, QsimError, QuantumBackend,
    StatevectorBackend,
};
use qugeo_tensor::Array2;

/// Synthetic scaled samples with a learnable seismic→velocity link:
/// the seismic vector is a deterministic function of the layer depth.
pub(crate) fn synthetic_samples(n: usize, seismic_len: usize, side: usize) -> Vec<ScaledSample> {
    (0..n)
        .map(|k| {
            let depth = 1 + (k % (side - 1));
            let seismic: Vec<f64> = (0..seismic_len)
                .map(|i| {
                    let phase = i as f64 * 0.2 + depth as f64;
                    phase.sin() + 0.3 * (phase * 0.5).cos()
                })
                .collect();
            let velocity = Array2::from_fn(side, side, |r, _| {
                if r < depth {
                    2000.0
                } else {
                    3500.0
                }
            });
            ScaledSample { seismic, velocity }
        })
        .collect()
}

pub(crate) fn small_vqc(decoder: Decoder) -> QuGeoVqc {
    QuGeoVqc::new(VqcConfig {
        seismic_len: 16,
        num_groups: 1,
        num_blocks: 3,
        mixing_blocks: 0,
        entangle: EntangleOrder::Ring,
        decoder,
        max_qubits: 16,
    })
    .unwrap()
}

fn split(samples: Vec<ScaledSample>, at: usize) -> (Vec<ScaledSample>, Vec<ScaledSample>) {
    let test = samples[at..].to_vec();
    (samples[..at].to_vec(), test)
}

#[test]
fn per_sample_training_reduces_loss() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 30,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 0,
    };
    let outcome = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    let first = outcome.history.first().unwrap().train_loss;
    let last = outcome.history.last().unwrap().train_loss;
    assert!(last < first, "loss {first} -> {last} did not decrease");
    assert!(outcome.final_ssim.is_finite());
    assert_eq!(outcome.history.len(), 30);
}

/// Stops the run after a fixed epoch — simulates an interruption.
struct StopAfter(usize);

impl Callback for StopAfter {
    fn on_epoch_end(
        &mut self,
        _stats: &mut EpochStats,
        ctx: &EpochContext<'_>,
    ) -> Result<CallbackFlow, QuGeoError> {
        Ok(if ctx.epoch >= self.0 {
            CallbackFlow::Stop
        } else {
            CallbackFlow::Continue
        })
    }
}

#[test]
fn resumed_training_is_bit_identical_to_uninterrupted() {
    use crate::checkpoint::Checkpoint;

    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 10,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 0,
    };
    let dir = std::env::temp_dir().join("qugeo_train_resume_test");
    std::fs::remove_dir_all(&dir).ok();

    // The reference: one uninterrupted 10-epoch run.
    let full = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();

    // The same run "crashed" after epoch 4, having checkpointed there.
    let interrupted = Trainer::new(cfg)
        .callback(PeriodicCheckpoint::new(&model, &dir, 5, "resume").unwrap())
        .callback(StopAfter(4))
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    assert_eq!(interrupted.history.len(), 5);

    // Recover the artifact and finish the remaining five epochs.
    let ckpt = PeriodicCheckpoint::latest_valid(&dir, "resume", &model)
        .unwrap()
        .expect("epoch-4 checkpoint written");
    assert_eq!(ckpt.epoch, Some(4));
    let resumed = Trainer::new(cfg)
        .fit_resuming(
            &mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap(),
            &ckpt,
        )
        .unwrap();

    // Interruption must be invisible: bit-identical final parameters.
    assert_eq!(resumed.params, full.params);
    assert_eq!(resumed.history.len(), 5, "history covers epochs 5..10");
    assert_eq!(resumed.history[0].epoch, 5);

    // A corrupted newer artifact must fall back, not poison recovery:
    // tear a fake epoch-9 checkpoint and re-scan.
    let newer = dir.join("resume-epoch0009.ckpt");
    Checkpoint::capture_training(&model, &full.params, "resume", 9, &[1.0])
        .unwrap()
        .save(&newer)
        .unwrap();
    let bytes = std::fs::read(&newer).unwrap();
    std::fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();
    let fallback = PeriodicCheckpoint::latest_valid(&dir, "resume", &model)
        .unwrap()
        .expect("intact epoch-4 artifact remains");
    assert_eq!(fallback.epoch, Some(4), "torn epoch-9 file must be skipped");

    // Typed rejections: no resume metadata, and nothing left to resume.
    let mut strategy = MiniBatchVqc::new(&model, &train, &test, 1).unwrap();
    let plain = Checkpoint::capture(&model, &full.params, "resume").unwrap();
    assert!(matches!(
        Trainer::new(cfg).fit_resuming(&mut strategy, &plain),
        Err(QuGeoError::Config { .. })
    ));
    let done = Checkpoint::capture_training(&model, &full.params, "resume", 9, &[]).unwrap();
    assert!(matches!(
        Trainer::new(cfg).fit_resuming(&mut strategy, &done),
        Err(QuGeoError::Config { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_validation_rejects_degenerate_setups() {
    assert!(TrainConfig {
        epochs: 0,
        ..TrainConfig::smoke(1)
    }
    .validate()
    .is_err());
    for bad_lr in [0.0, -0.1, f64::NAN, f64::INFINITY] {
        let cfg = TrainConfig {
            initial_lr: bad_lr,
            ..TrainConfig::smoke(1)
        };
        assert!(cfg.validate().is_err(), "lr {bad_lr} must be rejected");
    }
    assert!(TrainConfig::paper_default().validate().is_ok());

    // fit() applies the validation before touching the strategy.
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 2);
    let mut strategy = MiniBatchVqc::new(&model, &train, &test, 1).unwrap();
    let err = Trainer::new(TrainConfig {
        epochs: 0,
        ..TrainConfig::smoke(1)
    })
    .fit(&mut strategy);
    assert!(matches!(err, Err(QuGeoError::Config { .. })));
}

#[test]
fn strategies_validate_their_inputs() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let samples = synthetic_samples(2, 16, 4);
    assert!(MiniBatchVqc::new(&model, &[], &samples, 1).is_err());
    assert!(MiniBatchVqc::new(&model, &samples, &[], 1).is_err());
    assert!(QuBatchVqc::new(&model, &samples, &samples, 0).is_err());
    assert!(MiniBatchVqc::new(&model, &samples, &samples, 0).is_err());
    let mut regressor = CnnRegressor::new(RegressorConfig::layer_wise(), 2).unwrap();
    assert!(RegressorStep::new(&mut regressor, &[], &samples, 64).is_err());
}

#[test]
fn qubatch_training_reduces_loss() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 20,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 0,
    };
    let outcome = Trainer::new(cfg)
        .fit(&mut QuBatchVqc::new(&model, &train, &test, 2).unwrap())
        .unwrap();
    let first = outcome.history.first().unwrap().train_loss;
    let last = outcome.history.last().unwrap().train_loss;
    assert!(last < first, "batched loss {first} -> {last}");
}

#[test]
fn minibatch_averaging_trains() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 25,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 0,
    };
    let outcome = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 2).unwrap())
        .unwrap();
    let first = outcome.history.first().unwrap().train_loss;
    let last = outcome.history.last().unwrap().train_loss;
    assert!(last < first, "mini-batch loss {first} -> {last}");
}

#[test]
fn custom_optimizer_and_schedule_plug_in() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 25,
        initial_lr: 0.3,
        seed: 3,
        eval_every: 0,
    };
    // Momentum-SGD under a warmup-then-cosine schedule — the staged
    // setup related hybrid-QNN FWI work trains with.
    let outcome = Trainer::new(cfg)
        .optimizer(|n, lr| Box::new(Sgd::with_momentum(n, lr, 0.9)))
        .schedule(WarmupCosine::new(cfg.initial_lr, 5, cfg.epochs))
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    let first = outcome.history.first().unwrap().train_loss;
    let last = outcome.history.last().unwrap().train_loss;
    assert!(last < first, "momentum-SGD loss {first} -> {last}");
    assert_eq!(outcome.history.len(), 25);

    // Step-decay schedule on the same strategy also runs end to end.
    let stepped = Trainer::new(cfg)
        .schedule(StepDecay::new(cfg.initial_lr, 0.5, 10))
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    assert!(stepped.final_mse.is_finite());
}

#[test]
fn early_stopping_halts_and_truncates_history() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 2);
    let cfg = TrainConfig {
        epochs: 40,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 1,
    };
    // A learning rate this small cannot move test MSE by more than
    // min_delta, so every evaluation after the first is a strike.
    let outcome = Trainer::new(cfg)
        .schedule(ConstantLr::new(1e-12))
        .callback(EarlyStopping::new(3, 1e-9).unwrap())
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    // Epoch 0 sets the best; epochs 1..=3 are strikes; stop at epoch 3.
    assert_eq!(
        outcome.history.len(),
        4,
        "history must be truncated at the stopping epoch"
    );
    assert!(outcome.history.len() < cfg.epochs);
    assert!(outcome.final_mse.is_finite());
    let last = outcome.history.last().unwrap();
    assert!(last.test_mse.is_some(), "stopping epoch was an evaluation");
}

#[test]
fn metrics_recorder_enriches_history_only_when_installed() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 2);
    let cfg = TrainConfig::smoke(3);

    let plain = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    assert!(plain.history.iter().all(|s| s.grad_norm.is_none()));
    assert!(plain.history.iter().all(|s| s.wall_clock_secs.is_none()));

    let recorded = Trainer::new(cfg)
        .callback(MetricsRecorder)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    for s in &recorded.history {
        let g = s.grad_norm.expect("grad norm recorded");
        assert!(g.is_finite() && g >= 0.0);
        assert!(s.wall_clock_secs.expect("wall clock recorded") >= 0.0);
    }
    // The recorder observes without perturbing the run.
    assert_eq!(plain.params, recorded.params);
}

#[test]
fn periodic_checkpoints_capture_restorable_params() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 2);
    let cfg = TrainConfig::smoke(6);
    let dir = std::env::temp_dir().join("qugeo_train_ckpt_test");
    std::fs::remove_dir_all(&dir).ok();
    let checkpointer = PeriodicCheckpoint::new(&model, &dir, 3, "engine-test").unwrap();
    let final_path = checkpointer.path_for_epoch(5);
    let mid_path = checkpointer.path_for_epoch(2);

    let outcome = Trainer::new(cfg)
        .callback(checkpointer)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();

    assert!(mid_path.exists(), "epoch-2 checkpoint written");
    assert!(final_path.exists(), "epoch-5 checkpoint written");
    // The final checkpoint restores exactly the trained parameters.
    let restored = crate::checkpoint::Checkpoint::load(&final_path)
        .unwrap()
        .restore_into(&model)
        .unwrap();
    assert_eq!(restored, outcome.params);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn regressor_training_reduces_loss() {
    let (train, test) = split(synthetic_samples(6, 256, 8), 4);
    let mut model = CnnRegressor::new(RegressorConfig::layer_wise(), 2).unwrap();
    let cfg = TrainConfig {
        epochs: 25,
        initial_lr: 0.02,
        seed: 3,
        eval_every: 0,
    };
    let outcome = Trainer::new(cfg)
        .fit(&mut RegressorStep::new(&mut model, &train, &test, 64).unwrap())
        .unwrap();
    let first = outcome.history.first().unwrap().train_loss;
    let last = outcome.history.last().unwrap().train_loss;
    assert!(last < first, "regressor loss {first} -> {last}");
    assert!(outcome.final_mse.is_finite());
}

#[test]
fn history_records_evaluations_at_interval() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 2);
    let cfg = TrainConfig {
        epochs: 6,
        initial_lr: 0.05,
        seed: 1,
        eval_every: 2,
    };
    let outcome = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    assert!(outcome.history[0].test_mse.is_some());
    assert!(outcome.history[1].test_mse.is_none());
    assert!(outcome.history[2].test_mse.is_some());
    assert!(outcome.history[5].test_mse.is_some()); // final epoch
}

#[test]
fn training_outcome_is_backend_invariant_across_exact_backends() {
    use qugeo_qsim::NaiveBackend;
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 3);
    let cfg = TrainConfig {
        epochs: 4,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 0,
    };
    let default_run = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    let naive = NaiveBackend::default();
    let naive_run = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::with_backend(&model, &train, &test, 1, &naive).unwrap())
        .unwrap();
    // Swapping one exact backend for another changes nothing: same
    // trained parameters, same metrics, to within rounding noise. The
    // naive backend deliberately runs the serial *unfused* adjoint as a
    // differential reference against the statevector backend's fused
    // engine, so per-step ~1e-13 rounding differences amplified through
    // four Adam epochs set the tolerance here.
    for (a, b) in default_run.params.iter().zip(&naive_run.params) {
        assert!((a - b).abs() < 1e-8, "params diverged: {a} vs {b}");
    }
    assert!((default_run.final_mse - naive_run.final_mse).abs() < 1e-8);
    assert!((default_run.final_ssim - naive_run.final_ssim).abs() < 1e-8);
}

/// An exact backend that hides its amplitudes: every call delegates to
/// the statevector engine, but it reports no adjoint support, so the
/// strategies must take their parameter-shift fallback.
struct NoAdjoint(StatevectorBackend);

impl QuantumBackend for NoAdjoint {
    fn name(&self) -> &'static str {
        "no-adjoint"
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
        self.0.probabilities(batch)
    }
}

#[test]
fn minibatch_parameter_shift_fallback_matches_adjoint_training() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig::smoke(3);
    let backend = NoAdjoint(StatevectorBackend::default());
    for batch_size in [1usize, 3] {
        let adjoint = Trainer::new(cfg)
            .fit(&mut MiniBatchVqc::new(&model, &train, &test, batch_size).unwrap())
            .unwrap();
        let mut shifted =
            MiniBatchVqc::with_backend(&model, &train, &test, batch_size, &backend).unwrap();
        let fallback = Trainer::new(cfg).fit(&mut shifted).unwrap();
        // The adjoint workspace never ran: every gradient came from
        // parameter shift through the backend.
        assert_eq!(shifted.adjoint_workspace().allocations(), 0);
        for (a, b) in adjoint.params.iter().zip(&fallback.params) {
            assert!(
                (a - b).abs() < 1e-8,
                "batch {batch_size}: params diverged: {a} vs {b}"
            );
        }
    }
}

/// The paper's per-sample training loop, frozen verbatim from the
/// implementation that predates the engine. It shares no code with
/// [`Trainer`] or the strategies, so the engine must reproduce it
/// bit-for-bit.
fn frozen_per_sample_loop(
    model: &QuGeoVqc,
    train: &[ScaledSample],
    test: &[ScaledSample],
    config: &TrainConfig,
) -> TrainOutcome {
    let backend = StatevectorBackend::default();
    let mut params = model.init_params(config.seed);
    let mut adam = Adam::new(params.len(), config.initial_lr);
    let schedule = CosineAnnealing::new(config.initial_lr, config.epochs);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xABCD_EF01);

    let targets: Vec<Array2> = train.iter().map(normalized_target).collect();
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut history = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        adam.set_learning_rate(schedule.lr_at(epoch));
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        for &i in &order {
            let (loss, grad) = model
                .loss_and_grad_with(&train[i].seismic, &targets[i], &params, &backend)
                .unwrap();
            adam.step(&mut params, &grad);
            loss_sum += loss;
        }
        let train_loss = loss_sum / train.len() as f64;

        let evaluate =
            epoch + 1 == config.epochs || (config.eval_every > 0 && epoch % config.eval_every == 0);
        let (test_mse, test_ssim) = if evaluate {
            let (m, s) = evaluate_vqc(model, &params, test).unwrap();
            (Some(m), Some(s))
        } else {
            (None, None)
        };
        history.push(EpochStats {
            epoch,
            train_loss,
            test_mse,
            test_ssim,
            grad_norm: None,
            wall_clock_secs: None,
        });
    }

    let (final_mse, final_ssim) = evaluate_vqc(model, &params, test).unwrap();
    TrainOutcome {
        params,
        history,
        final_mse,
        final_ssim,
    }
}

/// The QuBatch training loop, frozen verbatim from the implementation
/// that predates the engine.
fn frozen_qubatch_loop(
    model: &QuGeoVqc,
    train: &[ScaledSample],
    test: &[ScaledSample],
    config: &TrainConfig,
    batch_size: usize,
) -> TrainOutcome {
    let backend = StatevectorBackend::default();
    let qubatch = QuBatch::new(model).unwrap();
    let mut params = model.init_params(config.seed);
    let mut adam = Adam::new(params.len(), config.initial_lr);
    let schedule = CosineAnnealing::new(config.initial_lr, config.epochs);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xABCD_EF01);

    let targets: Vec<Array2> = train.iter().map(normalized_target).collect();
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut history = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        adam.set_learning_rate(schedule.lr_at(epoch));
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        let mut steps = 0usize;
        for chunk in order.chunks(batch_size) {
            let seismic: Vec<Vec<f64>> = chunk.iter().map(|&i| train[i].seismic.clone()).collect();
            let tgt: Vec<Array2> = chunk.iter().map(|&i| targets[i].clone()).collect();
            let (loss, grad) = qubatch
                .loss_and_grad_batch_with(&seismic, &tgt, &params, &backend)
                .unwrap();
            adam.step(&mut params, &grad);
            loss_sum += loss;
            steps += 1;
        }
        let train_loss = loss_sum / steps.max(1) as f64;

        let evaluate =
            epoch + 1 == config.epochs || (config.eval_every > 0 && epoch % config.eval_every == 0);
        let (test_mse, test_ssim) = if evaluate {
            let (m, s) = evaluate_vqc(model, &params, test).unwrap();
            (Some(m), Some(s))
        } else {
            (None, None)
        };
        history.push(EpochStats {
            epoch,
            train_loss,
            test_mse,
            test_ssim,
            grad_norm: None,
            wall_clock_secs: None,
        });
    }

    let (final_mse, final_ssim) = evaluate_vqc(model, &params, test).unwrap();
    TrainOutcome {
        params,
        history,
        final_mse,
        final_ssim,
    }
}

#[test]
fn minibatch_at_batch_one_reproduces_frozen_per_sample_loop_bit_for_bit() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 6,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 2,
    };
    let frozen = frozen_per_sample_loop(&model, &train, &test, &cfg);
    let engine = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();
    // Bit-for-bit: parameters, every history record, final metrics.
    assert_eq!(frozen, engine);
}

#[test]
fn qubatch_reproduces_frozen_qubatch_loop_bit_for_bit() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 5,
        initial_lr: 0.1,
        seed: 9,
        eval_every: 2,
    };
    for batch_size in [1usize, 2, 3] {
        let frozen = frozen_qubatch_loop(&model, &train, &test, &cfg, batch_size);
        let engine = Trainer::new(cfg)
            .fit(&mut QuBatchVqc::new(&model, &train, &test, batch_size).unwrap())
            .unwrap();
        assert_eq!(frozen, engine, "engine diverged at batch {batch_size}");
    }
}

#[test]
fn qubatch_through_explicit_statevector_backend_is_bit_identical() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(4, 16, 4), 2);
    let cfg = TrainConfig::smoke(3);
    let owned = Trainer::new(cfg)
        .fit(&mut QuBatchVqc::new(&model, &train, &test, 2).unwrap())
        .unwrap();
    let backend = StatevectorBackend::default();
    let borrowed = Trainer::new(cfg)
        .fit(&mut QuBatchVqc::with_backend(&model, &train, &test, 2, &backend).unwrap())
        .unwrap();
    assert_eq!(owned, borrowed);
}

/// Frozen copy of the pre-rewire per-sample epoch: fused forward pass
/// for the loss, serial *unfused* adjoint for the gradient — exactly the
/// behaviour `QuGeoVqc::loss_and_grad_with` had before the fused batched
/// adjoint engine became the gradient path. Kept verbatim so the rewire
/// stays pinned by a differential test.
struct FrozenPerSample<'a> {
    model: &'a QuGeoVqc,
    train: &'a [ScaledSample],
    test: &'a [ScaledSample],
    targets: Vec<Array2>,
}

impl<'a> FrozenPerSample<'a> {
    fn new(model: &'a QuGeoVqc, train: &'a [ScaledSample], test: &'a [ScaledSample]) -> Self {
        Self {
            model,
            train,
            test,
            targets: train.iter().map(normalized_target).collect(),
        }
    }
}

impl TrainStep for FrozenPerSample<'_> {
    fn num_train_samples(&self) -> usize {
        self.train.len()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.model.init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn qugeo_nn::optim::Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        use qugeo_qsim::adjoint_gradient;
        let backend = StatevectorBackend::default();
        let mut loss_sum = 0.0;
        let mut norm_sum = 0.0;
        for &i in order {
            let encoded = self.model.encode(&self.train[i].seismic)?;
            let compiled = self.model.circuit().compile(params)?;
            let mut batch = BatchedState::replicate(&encoded, 1);
            backend.run_batch(&compiled, &mut batch)?;
            let probs = backend
                .probabilities(&batch)?
                .pop()
                .expect("batch of one has one distribution");
            let (loss, prob_grad) = self
                .model
                .decoder()
                .loss_and_prob_grad(&probs, &self.targets[i])?;
            let obs = DiagonalObservable::from_diagonal(prob_grad)?;
            let (_, grad) = adjoint_gradient(self.model.circuit(), params, &encoded, &obs)?;
            optimizer.step(params, &grad);
            loss_sum += loss;
            norm_sum += qugeo_tensor::norm::l2_norm(&grad);
        }
        let n = order.len().max(1) as f64;
        Ok(EpochReport {
            train_loss: loss_sum / n,
            grad_norm: norm_sum / n,
        })
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        evaluate_vqc(self.model, params, self.test)
    }
}

#[test]
fn rewired_training_matches_frozen_pre_rewire_loop() {
    // Training equivalence across the gradient-engine rewire: the fused
    // batched adjoint path must reproduce the frozen serial-adjoint
    // loop's history and parameters. Per-step fused-vs-serial rounding
    // is ~1e-14; three Adam epochs amplify it, so 1e-10 is the honest
    // bound (bit-identity is impossible once the sweep order changes).
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 3,
        initial_lr: 0.1,
        seed: 11,
        eval_every: 1,
    };
    let frozen = Trainer::new(cfg)
        .fit(&mut FrozenPerSample::new(&model, &train, &test))
        .unwrap();
    let rewired = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).unwrap())
        .unwrap();

    assert_eq!(frozen.history.len(), rewired.history.len());
    for (a, b) in frozen.history.iter().zip(&rewired.history) {
        assert!(
            (a.train_loss - b.train_loss).abs() < 1e-10,
            "epoch {} loss: {} vs {}",
            a.epoch,
            a.train_loss,
            b.train_loss
        );
        match (a.test_mse, b.test_mse) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-10, "epoch {} mse", a.epoch),
            (x, y) => assert_eq!(x, y),
        }
    }
    // Adam's v-normalisation amplifies relative rounding differences
    // into the parameters faster than into the loss curve.
    for (a, b) in frozen.params.iter().zip(&rewired.params) {
        assert!((a - b).abs() < 1e-8, "params diverged: {a} vs {b}");
    }
    assert!((frozen.final_mse - rewired.final_mse).abs() < 1e-8);
    assert!((frozen.final_ssim - rewired.final_ssim).abs() < 1e-8);
}

#[test]
fn strategies_reuse_adjoint_workspace_without_reallocating() {
    // The no-allocation steady-state contract, asserted through the
    // strategy-held workspace counters (mirroring InferenceSession's
    // compile/reuse counters): one warm-up allocation, then pure reuse
    // for every subsequent adjoint call.
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(7, 16, 4), 5);
    let cfg = TrainConfig {
        epochs: 4,
        initial_lr: 0.1,
        seed: 5,
        eval_every: 0,
    };

    let mut per_sample = MiniBatchVqc::new(&model, &train, &test, 1).unwrap();
    Trainer::new(cfg).fit(&mut per_sample).unwrap();
    // 5 train samples × 4 epochs = 20 adjoint calls.
    assert_eq!(per_sample.adjoint_workspace().allocations(), 1);
    assert_eq!(per_sample.adjoint_workspace().reuses(), 19);

    let mut minibatch = MiniBatchVqc::new(&model, &train, &test, 2).unwrap();
    Trainer::new(cfg).fit(&mut minibatch).unwrap();
    // ceil(5/2) = 3 chunks × 4 epochs = 12 batched adjoint calls, each
    // covering a whole mini-batch.
    assert_eq!(minibatch.adjoint_workspace().allocations(), 1);
    assert_eq!(minibatch.adjoint_workspace().reuses(), 11);

    let mut qubatch = QuBatchVqc::new(&model, &train, &test, 2).unwrap();
    Trainer::new(cfg).fit(&mut qubatch).unwrap();
    assert_eq!(qubatch.adjoint_workspace().allocations(), 1);
    assert_eq!(qubatch.adjoint_workspace().reuses(), 11);
}

/// A per-sample loop identical to [`MiniBatchVqc`]'s adjoint path at
/// batch size 1 except that every step drops the workspace — forcing a
/// full gradient-aware structure compile on every single step. Reference
/// arm of the bind-vs-recompile training differential below.
struct RecompileEveryStep<'a> {
    model: &'a QuGeoVqc,
    train: &'a [ScaledSample],
    test: &'a [ScaledSample],
    targets: Vec<Array2>,
    encoded: Vec<qugeo_qsim::State>,
    recompiles: usize,
}

impl<'a> RecompileEveryStep<'a> {
    fn new(model: &'a QuGeoVqc, train: &'a [ScaledSample], test: &'a [ScaledSample]) -> Self {
        Self {
            model,
            train,
            test,
            targets: train.iter().map(normalized_target).collect(),
            encoded: train.iter().map(|s| model.encode(&s.seismic).unwrap()).collect(),
            recompiles: 0,
        }
    }
}

impl TrainStep for RecompileEveryStep<'_> {
    fn num_train_samples(&self) -> usize {
        self.train.len()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.model.init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn qugeo_nn::optim::Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        use qugeo_qsim::AdjointWorkspace;
        let backend = StatevectorBackend::default();
        let mut loss_sum = 0.0;
        let mut norm_sum = 0.0;
        for &i in order {
            // Fresh workspace per step: its circuit cache starts empty,
            // so this step structure-compiles from scratch.
            let mut ws = AdjointWorkspace::new();
            let inputs = BatchedState::replicate(&self.encoded[i], 1);
            let decoder = self.model.decoder();
            let target = &self.targets[i];
            let mut loss = 0.0;
            backend.adjoint_gradient_batch(
                self.model.circuit(),
                params,
                &inputs,
                &mut |_, probs| {
                    let (l, obs) = crate::model::member_loss_obs(decoder, probs, target)?;
                    loss = l;
                    Ok(obs)
                },
                &mut ws,
            )?;
            assert_eq!(ws.recompiles(), 1, "a cold workspace must compile");
            self.recompiles += ws.recompiles();
            optimizer.step(params, ws.grad(0));
            loss_sum += loss;
            norm_sum += qugeo_tensor::norm::l2_norm(ws.grad(0));
        }
        let n = order.len().max(1) as f64;
        Ok(EpochReport {
            train_loss: loss_sum / n,
            grad_norm: norm_sum / n,
        })
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        evaluate_vqc(self.model, params, self.test)
    }
}

#[test]
fn cached_training_loop_compiles_once_and_is_bit_identical_to_recompiling() {
    // The compile-once training contract, asserted two ways at once:
    // (1) counters — a 3-epoch loop through the strategy-held workspace
    // structure-compiles exactly once and re-binds every later step;
    // (2) differential — its entire training history and final
    // parameters are BIT-identical to a loop that recompiles on every
    // step, because bind and compile share one evaluation path.
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let (train, test) = split(synthetic_samples(6, 16, 4), 4);
    let cfg = TrainConfig {
        epochs: 3,
        initial_lr: 0.1,
        seed: 23,
        eval_every: 1,
    };
    let mut recompiling = RecompileEveryStep::new(&model, &train, &test);
    let reference = Trainer::new(cfg).fit(&mut recompiling).unwrap();
    assert_eq!(recompiling.recompiles, 12, "4 samples x 3 epochs");

    let mut cached = MiniBatchVqc::new(&model, &train, &test, 1).unwrap();
    let run = Trainer::new(cfg).fit(&mut cached).unwrap();
    assert_eq!(cached.adjoint_workspace().recompiles(), 1);
    assert_eq!(cached.adjoint_workspace().rebinds(), 11);

    assert_eq!(run.params, reference.params, "rebound steps must match bitwise");
    assert_eq!(run.final_mse, reference.final_mse);
    assert_eq!(run.final_ssim, reference.final_ssim);
    assert_eq!(run.history.len(), reference.history.len());
    for (a, b) in run.history.iter().zip(&reference.history) {
        assert_eq!(a.train_loss, b.train_loss, "epoch {}", a.epoch);
        assert_eq!(a.grad_norm, b.grad_norm, "epoch {}", a.epoch);
        assert_eq!(a.test_mse, b.test_mse, "epoch {}", a.epoch);
    }
}

#[test]
fn evaluation_errors_on_empty_set() {
    let model = small_vqc(Decoder::LayerWise { rows: 4 });
    let params = model.init_params(0);
    assert!(evaluate_vqc(&model, &params, &[]).is_err());
}
