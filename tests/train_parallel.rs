//! Differential suite for data-parallel training: `DataParallel` at any
//! replica count must be **bit-identical** to a single replica — same
//! parameters, same history, same optimiser moments — for every
//! strategy, optimiser, and schedule (the determinism contract in
//! `qugeo::train::parallel`). Also pinned here: plain-strategy anchors
//! (wrapping with `micro = batch_size` reproduces the unwrapped run
//! bitwise), resume-under-parallelism across *different* replica
//! counts, thread-budget invariance, the spawn rule (which thread runs a
//! unit), and the typed-error contract for a panicking replica.
//!
//! No test picks where units run: that follows from the inputs. An
//! explicit `BackendConfig::with_threads` budget and units whose work
//! clears `REPLICA_SPAWN_MIN_WORK` put replicas on worker threads even
//! where the machine budget (`QUGEO_SIM_THREADS`) is one thread.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use proptest::prelude::*;
use qugeo::decoder::Decoder;
use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::{
    Callback, CallbackFlow, DataParallel, EpochContext, EpochStats, MiniBatchVqc,
    PeriodicCheckpoint, QuBatchVqc, ReplicaStep, ScheduleSpec, Shardable, Sweep, SweepSpace,
    SweepStrategy, TrainConfig, Trainer, REPLICA_SPAWN_MIN_WORK,
};
use qugeo::QuGeoError;
use qugeo_geodata::scaling::ScaledSample;
use qugeo_nn::optim::{AmsGrad, Sgd, StepDecay, WarmupCosine};
use qugeo_qsim::ansatz::EntangleOrder;
use qugeo_qsim::{BackendConfig, FaultInjectingBackend, FaultPlan, StatevectorBackend};
use qugeo_tensor::Array2;

/// Synthetic scaled samples with a learnable seismic→velocity link: the
/// seismic vector is a deterministic function of the layer depth.
fn synthetic_samples(n: usize, seismic_len: usize) -> Vec<ScaledSample> {
    const SIDE: usize = 4;
    (0..n)
        .map(|k| {
            let depth = 1 + (k % (SIDE - 1));
            let seismic: Vec<f64> = (0..seismic_len)
                .map(|i| {
                    let phase = i as f64 * 0.2 + depth as f64;
                    phase.sin() + 0.3 * (phase * 0.5).cos()
                })
                .collect();
            let velocity = Array2::from_fn(SIDE, SIDE, |r, _| {
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

fn model(seismic_len: usize, num_blocks: usize) -> QuGeoVqc {
    QuGeoVqc::new(VqcConfig {
        seismic_len,
        num_groups: 1,
        num_blocks,
        mixing_blocks: 0,
        entangle: EntangleOrder::Ring,
        decoder: Decoder::LayerWise { rows: 4 },
        max_qubits: 16,
    })
    .expect("valid config")
}

/// 4 qubits × 2 blocks: a unit is ~150 amplitude-ops, so every step
/// runs inline on the coordinator.
fn small_model() -> QuGeoVqc {
    model(16, 2)
}

/// Seismic length of [`wide_model`]'s samples.
const WIDE_LEN: usize = 1024;

/// 10 qubits × 4 blocks: one sample is ~42 k amplitude-ops, above
/// `REPLICA_SPAWN_MIN_WORK`, so any step of two or more units can run on
/// worker threads.
fn wide_model() -> QuGeoVqc {
    model(WIDE_LEN, 4)
}

fn split(samples: Vec<ScaledSample>, at: usize) -> (Vec<ScaledSample>, Vec<ScaledSample>) {
    let test = samples[at..].to_vec();
    (samples[..at].to_vec(), test)
}

#[derive(Clone, Copy, Debug)]
enum StrategyKind {
    MiniBatch(usize),
    QuBatch(usize),
}

impl StrategyKind {
    /// The micro-batch size at which the wrapped run decomposes each
    /// step into exactly one unit — the plain-strategy bitwise anchor.
    fn anchor_micro(self) -> usize {
        match self {
            Self::MiniBatch(b) | Self::QuBatch(b) => b,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum OptKind {
    Adam,
    AmsGrad,
    Momentum,
}

#[derive(Clone, Copy, Debug)]
enum SchedKind {
    Cosine,
    Step,
    Warmup,
}

/// Captures the optimiser's serialised moment state after every epoch,
/// so runs are compared moment-for-moment, not just parameter-wise.
struct CaptureOptState(Arc<Mutex<Vec<f64>>>);

impl Callback for CaptureOptState {
    fn on_epoch_end(
        &mut self,
        _stats: &mut EpochStats,
        ctx: &EpochContext<'_>,
    ) -> Result<CallbackFlow, QuGeoError> {
        *self.0.lock().unwrap() = ctx.opt_state.to_vec();
        Ok(CallbackFlow::Continue)
    }
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

/// Everything a differential comparison pins: final parameters, the
/// full epoch history, and the optimiser's final moment vector.
#[derive(Debug, PartialEq)]
struct Run {
    params: Vec<f64>,
    history: Vec<EpochStats>,
    opt_state: Vec<f64>,
}

fn build_trainer(
    cfg: TrainConfig,
    opt: OptKind,
    sched: SchedKind,
    sink: Arc<Mutex<Vec<f64>>>,
) -> Trainer {
    let trainer = Trainer::new(cfg).callback(CaptureOptState(sink));
    let trainer = match sched {
        SchedKind::Cosine => trainer,
        SchedKind::Step => trainer.schedule(StepDecay::new(cfg.initial_lr, 0.5, 2)),
        SchedKind::Warmup => trainer.schedule(WarmupCosine::new(cfg.initial_lr, 2, cfg.epochs)),
    };
    match opt {
        OptKind::Adam => trainer,
        OptKind::AmsGrad => trainer.optimizer(|n, lr| Box::new(AmsGrad::new(n, lr))),
        OptKind::Momentum => trainer.optimizer(|n, lr| Box::new(Sgd::with_momentum(n, lr, 0.9))),
    }
}

/// Runs one full training, either through the plain strategy
/// (`parallel: None`) or wrapped in `DataParallel` with the given
/// `(replicas, micro_batch, thread budget)`.
#[allow(clippy::too_many_arguments)]
fn fit_with(
    model: &QuGeoVqc,
    train: &[ScaledSample],
    test: &[ScaledSample],
    cfg: TrainConfig,
    strategy: StrategyKind,
    opt: OptKind,
    sched: SchedKind,
    parallel: Option<(usize, usize, usize)>,
) -> Run {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let trainer = build_trainer(cfg, opt, sched, Arc::clone(&sink));
    let outcome = match (strategy, parallel) {
        (StrategyKind::MiniBatch(b), None) => {
            trainer.fit(&mut MiniBatchVqc::new(model, train, test, b).unwrap())
        }
        (StrategyKind::MiniBatch(b), Some((r, micro, budget))) => {
            let inner = MiniBatchVqc::new(model, train, test, b).unwrap();
            let budget = BackendConfig::with_threads(budget);
            let mut dp = DataParallel::with_config(&inner, r, budget)
                .unwrap()
                .micro_batch(micro);
            trainer.fit(&mut dp)
        }
        (StrategyKind::QuBatch(b), None) => {
            trainer.fit(&mut QuBatchVqc::new(model, train, test, b).unwrap())
        }
        (StrategyKind::QuBatch(b), Some((r, micro, budget))) => {
            let inner = QuBatchVqc::new(model, train, test, b).unwrap();
            let budget = BackendConfig::with_threads(budget);
            let mut dp = DataParallel::with_config(&inner, r, budget)
                .unwrap()
                .micro_batch(micro);
            trainer.fit(&mut dp)
        }
    }
    .expect("training run succeeds");
    let opt_state = sink.lock().unwrap().clone();
    Run {
        params: outcome.params,
        history: outcome.history,
        opt_state,
    }
}

/// The headline matrix: for every strategy × optimiser, the plain
/// unwrapped run and `DataParallel` at replicas ∈ {1, 2, 3, 8} (with
/// `micro = batch_size` and a thread per replica in the budget) agree
/// bit for bit on parameters, history, and optimiser moments.
#[test]
fn replicas_are_bit_identical_to_plain_for_every_strategy_and_optimizer() {
    let model = small_model();
    let (train, test) = split(synthetic_samples(7, 16), 5);
    let cfg = TrainConfig {
        epochs: 3,
        initial_lr: 0.1,
        seed: 13,
        eval_every: 0,
    };
    let strategies = [
        StrategyKind::MiniBatch(1),
        StrategyKind::MiniBatch(3),
        StrategyKind::QuBatch(2),
    ];
    let optimizers = [OptKind::Adam, OptKind::AmsGrad, OptKind::Momentum];
    for strategy in strategies {
        for opt in optimizers {
            let plain = fit_with(
                &model, &train, &test, cfg, strategy, opt, SchedKind::Cosine, None,
            );
            assert!(!plain.opt_state.is_empty(), "moments were captured");
            for replicas in [1, 2, 3, 8] {
                let dp = fit_with(
                    &model,
                    &train,
                    &test,
                    cfg,
                    strategy,
                    opt,
                    SchedKind::Cosine,
                    Some((replicas, strategy.anchor_micro(), replicas)),
                );
                assert_eq!(
                    dp, plain,
                    "{strategy:?} × {opt:?} diverged at replicas={replicas}"
                );
            }
        }
    }
}

/// Schedule invariance: swapping in step-decay or warmup-cosine leaves
/// the wrapped-vs-plain bit-identity intact (the schedule only feeds the
/// coordinator's optimiser, which replicas never touch).
#[test]
fn schedules_preserve_the_wrapped_vs_plain_bit_identity() {
    let model = small_model();
    let (train, test) = split(synthetic_samples(6, 16), 4);
    let cfg = TrainConfig {
        epochs: 4,
        initial_lr: 0.1,
        seed: 5,
        eval_every: 0,
    };
    for sched in [SchedKind::Step, SchedKind::Warmup] {
        let plain = fit_with(
            &model,
            &train,
            &test,
            cfg,
            StrategyKind::MiniBatch(2),
            OptKind::Adam,
            sched,
            None,
        );
        let dp = fit_with(
            &model,
            &train,
            &test,
            cfg,
            StrategyKind::MiniBatch(2),
            OptKind::Adam,
            sched,
            Some((3, 2, 3)),
        );
        assert_eq!(dp, plain, "{sched:?} broke the bit-identity");
    }
}

/// Where units run is pure scheduling: with units above the spawn rule,
/// runs inline (one replica, or a budget of one thread) and on 2–4
/// worker threads produce bit-identical results for both strategies, as
/// does piling on more replicas than the budget or the units.
#[test]
fn threading_policy_and_replica_surplus_never_change_results() {
    let model = wide_model();
    let (train, test) = split(synthetic_samples(6, WIDE_LEN), 4);
    let cfg = TrainConfig {
        epochs: 3,
        initial_lr: 0.1,
        seed: 29,
        eval_every: 0,
    };
    for strategy in [StrategyKind::MiniBatch(4), StrategyKind::QuBatch(4)] {
        let work = match strategy {
            StrategyKind::MiniBatch(b) => {
                MiniBatchVqc::new(&model, &train, &test, b).unwrap().unit_work(1)
            }
            StrategyKind::QuBatch(b) => {
                QuBatchVqc::new(&model, &train, &test, b).unwrap().unit_work(1)
            }
        };
        assert!(
            work >= REPLICA_SPAWN_MIN_WORK,
            "{strategy:?}: a unit of {work} amplitude-ops would never leave the coordinator"
        );
        // micro=1 decomposes each 4-sample step into four single-sample
        // units — a different (deterministic) reduction grouping than the
        // plain strategy, so the reference is the single-replica inline run.
        let reference = fit_with(
            &model,
            &train,
            &test,
            cfg,
            strategy,
            OptKind::Adam,
            SchedKind::Cosine,
            Some((1, 1, 1)),
        );
        for (replicas, budget) in [(1, 4), (3, 1), (3, 2), (4, 4), (5, 4), (8, 8)] {
            let run = fit_with(
                &model,
                &train,
                &test,
                cfg,
                strategy,
                OptKind::Adam,
                SchedKind::Cosine,
                Some((replicas, 1, budget)),
            );
            assert_eq!(
                run, reference,
                "{strategy:?} at replicas={replicas}, budget={budget} diverged from the inline run"
            );
        }
    }
}

/// A test-double strategy whose units do no work but record the thread
/// that ran them: two steps of four single-sample units each.
struct ThreadProbe {
    /// What `unit_work` reports for every unit.
    work: usize,
    /// Panic in any unit that runs off the `caller` thread.
    panic_off_caller: bool,
    caller: ThreadId,
    seen: Mutex<Vec<ThreadId>>,
}

impl ThreadProbe {
    const UNITS_PER_STEP: usize = 4;

    fn new(work: usize, panic_off_caller: bool) -> Self {
        Self {
            work,
            panic_off_caller,
            caller: std::thread::current().id(),
            seen: Mutex::new(Vec::new()),
        }
    }

    /// Trains the probe for one epoch on 4 replicas under `budget`
    /// threads and returns the per-step sets of threads that ran units.
    fn run(&self, budget: usize) -> Result<Vec<Vec<ThreadId>>, QuGeoError> {
        let mut dp = DataParallel::with_config(self, 4, BackendConfig::with_threads(budget))?;
        Trainer::new(TrainConfig::smoke(1)).fit(&mut dp)?;
        let seen = self.seen.lock().unwrap();
        Ok(seen
            .chunks(Self::UNITS_PER_STEP)
            .map(|step| {
                let mut threads: Vec<ThreadId> = Vec::new();
                for t in step {
                    if !threads.contains(t) {
                        threads.push(*t);
                    }
                }
                threads
            })
            .collect())
    }
}

struct ProbeReplica<'a> {
    probe: &'a ThreadProbe,
    grad: Vec<f64>,
}

impl ReplicaStep for ProbeReplica<'_> {
    fn eval_unit(&mut self, _unit: &[usize], params: &[f64]) -> Result<(f64, &[f64]), QuGeoError> {
        let here = std::thread::current().id();
        self.probe.seen.lock().unwrap().push(here);
        if self.probe.panic_off_caller && here != self.probe.caller {
            panic!("probe unit on a worker thread");
        }
        self.grad.resize(params.len(), 0.0);
        Ok((0.0, &self.grad))
    }
}

impl Shardable for ThreadProbe {
    fn num_train_samples(&self) -> usize {
        2 * Self::UNITS_PER_STEP
    }

    fn init_params(&self, _seed: u64) -> Vec<f64> {
        vec![0.5; 3]
    }

    fn samples_per_step(&self) -> usize {
        Self::UNITS_PER_STEP
    }

    fn unit_work(&self, _unit_len: usize) -> usize {
        self.work
    }

    fn replica(&self, _config: BackendConfig) -> Box<dyn ReplicaStep + '_> {
        Box::new(ProbeReplica {
            probe: self,
            grad: Vec::new(),
        })
    }

    fn evaluate_params(&self, _params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        Ok((0.0, 1.0))
    }
}

/// The spawn rule, observed from inside the units: work below
/// `REPLICA_SPAWN_MIN_WORK` stays on the caller's thread whatever the
/// budget; above it, 4 replicas on a budget of 2 run each step on at
/// most 2 threads — the caller plus one worker — and on a budget of 3
/// on all 3, the 4 units shared 2 + 1 + 1 rather than 2 + 2.
#[test]
fn units_run_on_worker_threads_only_within_budget_and_above_the_spawn_rule() {
    let caller = std::thread::current().id();

    let below = ThreadProbe::new(REPLICA_SPAWN_MIN_WORK / 8, false);
    let steps = below.run(4).unwrap();
    assert_eq!(steps.len(), 2);
    assert!(steps.iter().all(|threads| threads == &[caller]), "{steps:?}");

    let above = ThreadProbe::new(REPLICA_SPAWN_MIN_WORK, false);
    let steps = above.run(2).unwrap();
    assert_eq!(steps.len(), 2);
    for threads in &steps {
        assert!(threads.len() <= 2, "more threads than the budget: {threads:?}");
        assert!(threads.contains(&caller), "the coordinator runs a share itself");
        assert!(threads.len() == 2, "no unit ran on a worker thread: {threads:?}");
    }

    let three = ThreadProbe::new(REPLICA_SPAWN_MIN_WORK, false);
    let steps = three.run(3).unwrap();
    assert_eq!(steps.len(), 2);
    for threads in &steps {
        assert!(threads.contains(&caller), "the coordinator runs a share itself");
        assert_eq!(threads.len(), 3, "a budget of 3 left a thread idle: {threads:?}");
    }
}

/// A unit that panics on a worker thread surfaces as the typed
/// [`QuGeoError::ReplicaPanic`], naming the replica whose share it was.
#[test]
fn a_panic_on_a_worker_thread_surfaces_as_replica_panic() {
    let probe = ThreadProbe::new(REPLICA_SPAWN_MIN_WORK, true);
    match probe.run(2) {
        Err(QuGeoError::ReplicaPanic { replica, reason }) => {
            assert_eq!(replica, 1, "the coordinator's share is replica 0");
            assert!(reason.contains("worker thread"), "payload message lost: {reason}");
        }
        other => panic!("expected ReplicaPanic, got {other:?}"),
    }
}

/// Zero replicas is a typed configuration error, not a panic.
#[test]
fn zero_replicas_is_a_config_error() {
    let model = small_model();
    let (train, test) = split(synthetic_samples(4, 16), 2);
    let inner = MiniBatchVqc::new(&model, &train, &test, 2).unwrap();
    assert!(matches!(
        DataParallel::new(&inner, 0),
        Err(QuGeoError::Config { .. })
    ));
}

/// Resume under parallelism: a run interrupted at a checkpoint and
/// resumed with a *different* replica count finishes bit-identical to
/// the uninterrupted plain-strategy run — replica count is invisible
/// even across a crash/resume boundary.
#[test]
fn resuming_with_a_different_replica_count_is_bit_identical() {
    let model = small_model();
    let (train, test) = split(synthetic_samples(6, 16), 4);
    let cfg = TrainConfig {
        epochs: 8,
        initial_lr: 0.1,
        seed: 3,
        eval_every: 0,
    };
    let strategy = StrategyKind::MiniBatch(2);
    let dir = std::env::temp_dir().join("qugeo_train_parallel_resume");
    std::fs::remove_dir_all(&dir).ok();

    // The reference: one uninterrupted run of the plain strategy.
    let full = fit_with(
        &model, &train, &test, cfg, strategy, OptKind::Adam, SchedKind::Cosine, None,
    );

    // The same training "crashed" after epoch 3 while running on two
    // replicas, having checkpointed at epochs 1 and 3.
    {
        let inner = MiniBatchVqc::new(&model, &train, &test, 2).unwrap();
        let mut dp = DataParallel::new(&inner, 2).unwrap().micro_batch(2);
        let interrupted = Trainer::new(cfg)
            .callback(PeriodicCheckpoint::new(&model, &dir, 2, "dp-resume").unwrap())
            .callback(StopAfter(3))
            .fit(&mut dp)
            .unwrap();
        assert_eq!(interrupted.history.len(), 4);
    }

    // Recover the artifact and finish on THREE replicas this time.
    let ckpt = PeriodicCheckpoint::latest_valid(&dir, "dp-resume", &model)
        .unwrap()
        .expect("epoch-3 checkpoint written");
    assert_eq!(ckpt.epoch, Some(3));
    let sink = Arc::new(Mutex::new(Vec::new()));
    let inner = MiniBatchVqc::new(&model, &train, &test, 2).unwrap();
    let mut dp = DataParallel::new(&inner, 3).unwrap().micro_batch(2);
    let resumed = Trainer::new(cfg)
        .callback(CaptureOptState(Arc::clone(&sink)))
        .fit_resuming(&mut dp, &ckpt)
        .unwrap();

    assert_eq!(resumed.params, full.params, "resume must be invisible");
    assert_eq!(
        *sink.lock().unwrap(),
        full.opt_state,
        "optimiser moments must match the uninterrupted run"
    );
    assert_eq!(
        resumed.history.as_slice(),
        &full.history[4..],
        "resumed history covers epochs 4..8 exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica whose engine panics mid-step surfaces as the typed
/// [`QuGeoError::ReplicaPanic`] — caught on the coordinator here (the
/// small model's units stay inline), never an unwind through the
/// training loop, never an optimiser step on a partial all-reduce.
#[test]
fn panicking_replica_surfaces_as_a_typed_error() {
    let model = small_model();
    let (train, test) = split(synthetic_samples(6, 16), 4);
    let faulty = FaultInjectingBackend::new(
        StatevectorBackend::default(),
        FaultPlan {
            panic_rate: 1.0,
            ..FaultPlan::default()
        },
    );
    let inner = MiniBatchVqc::with_backend(&model, &train, &test, 4, &faulty).unwrap();
    let mut dp = DataParallel::new(&inner, 2).unwrap().micro_batch(1);
    let err = Trainer::new(TrainConfig::smoke(2)).fit(&mut dp).unwrap_err();
    match err {
        QuGeoError::ReplicaPanic { replica, reason } => {
            assert!(replica < 2, "replica index {replica} out of range");
            assert!(
                reason.contains("injected engine panic"),
                "payload message lost: {reason}"
            );
        }
        other => panic!("expected ReplicaPanic, got {other}"),
    }
}

/// The sweep layer inherits the same contract: the leaderboard — and its
/// stable JSON artifact — is identical whether trials run serially or on
/// a pool of workers, and a seeded random strategy enumerates the same
/// specs every time.
#[test]
fn sweep_leaderboard_is_parallelism_invariant() {
    let samples = synthetic_samples(6, 16);
    let (train, test) = (&samples[..4], &samples[4..]);
    let base = VqcConfig {
        seismic_len: 16,
        num_groups: 1,
        num_blocks: 2,
        mixing_blocks: 0,
        entangle: EntangleOrder::Ring,
        decoder: Decoder::LayerWise { rows: 4 },
        max_qubits: 16,
    };
    let cfg = TrainConfig {
        epochs: 2,
        initial_lr: 0.1,
        seed: 9,
        eval_every: 0,
    };
    let space = SweepSpace {
        learning_rates: vec![0.1, 0.02],
        schedules: vec![ScheduleSpec::CosineAnnealing, ScheduleSpec::Constant],
        depths: vec![2],
        batch_sizes: vec![2],
    };
    let serial = Sweep::new(base, train, test, cfg, space.clone()).run().unwrap();
    let pooled = Sweep::new(base, train, test, cfg, space.clone())
        .parallel_trials(3)
        .run()
        .unwrap();
    assert_eq!(serial, pooled, "worker count leaked into the leaderboard");
    assert_eq!(serial.to_json(), pooled.to_json());
    assert!(serial.to_json().contains("\"schema\": \"qugeo-sweep-leaderboard/v1\""));
    assert_eq!(serial.trials.len(), 4, "full grid ran");

    // Seeded random selection enumerates identically on every call.
    let draw = |parallel| {
        Sweep::new(base, train, test, cfg, space.clone())
            .strategy(SweepStrategy::Random { trials: 3, seed: 42 })
            .parallel_trials(parallel)
            .run()
            .unwrap()
    };
    assert_eq!(draw(1), draw(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomised instances of the core contract: any (batch, micro,
    /// replica-count, seed, epoch-count) combination trains to the same
    /// bits on N replicas, with a thread each, as on one. The wide
    /// model's units clear the spawn rule, so every draw with two or more
    /// units per step runs on worker threads.
    #[test]
    fn replica_count_never_changes_training_output(
        seed in 0u64..512,
        batch in 1usize..=3,
        micro in 1usize..=3,
        replicas in 2usize..=6,
        epochs in 2usize..=3,
    ) {
        let model = wide_model();
        let (train, test) = split(synthetic_samples(6, WIDE_LEN), 4);
        let cfg = TrainConfig { epochs, initial_lr: 0.1, seed, eval_every: 0 };
        let strategy = StrategyKind::MiniBatch(batch);
        let single = fit_with(
            &model, &train, &test, cfg, strategy, OptKind::Adam, SchedKind::Cosine,
            Some((1, micro, 1)),
        );
        let multi = fit_with(
            &model, &train, &test, cfg, strategy, OptKind::Adam, SchedKind::Cosine,
            Some((replicas, micro, replicas)),
        );
        prop_assert_eq!(single, multi);
    }
}
