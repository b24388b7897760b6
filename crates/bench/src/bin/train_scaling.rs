//! Data-parallel training scaling: wall-clock per epoch of
//! `DataParallel<MiniBatchVqc>` across replica counts on the acceptance
//! workload's ansatz (10 qubits × 12 blocks, mini-batch 16, micro-batch
//! 4; the paper's Q-M models are 8 qubits × 12 blocks).
//!
//! At this circuit size (1024 amplitudes) the simulation kernels stay
//! below their intra-circuit threading threshold, so replica workers are
//! the *only* parallelism in play — the curve isolates the data-parallel
//! layer itself. Every row records the machine's simulation-thread
//! budget (`cores`) and SIMD tier (`simd`), because the honest
//! expectation depends on them: on a multi-core host replicas=4 must
//! reach ≥2x over replicas=1; on a single core every arm runs its units
//! inline and the bench only asserts the wrapper does not *slow*
//! training down.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin train_scaling [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` shrinks to 6 qubits × 2 blocks, batch 4, replicas {1, 4} —
//! the CI gate shape (`scripts/verify.sh train-smoke`), whose units are
//! too small to repay a thread spawn, so every arm runs inline. Whatever
//! the mode, the run ends with the determinism gate at the full shape:
//! replicas=4 on a 4-thread budget (its units clear
//! `REPLICA_SPAWN_MIN_WORK`, so they run on worker threads) must produce
//! **bit-identical** trained parameters to replicas=1 on one thread, or
//! the process exits non-zero. Results are written to `BENCH_TRAIN.json`
//! (override with `--json`).

use std::time::Instant;

use qugeo::decoder::Decoder;
use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::{
    DataParallel, MiniBatchVqc, Shardable, TrainConfig, Trainer, REPLICA_SPAWN_MIN_WORK,
};
use qugeo_geodata::scaling::ScaledSample;
use qugeo_qsim::ansatz::EntangleOrder;
use qugeo_qsim::{simd_feature_level, simulation_threads, BackendConfig};
use qugeo_tensor::Array2;

/// The full shape: qubits, blocks, mini-batch and micro-batch.
const FULL: (usize, usize, usize, usize) = (10, 12, 16, 4);

struct Config {
    qubits: usize,
    blocks: usize,
    batch: usize,
    micro: usize,
    replicas: Vec<usize>,
    epochs: usize,
    reps: usize,
    smoke: bool,
    json_path: String,
}

impl Config {
    fn from_args() -> Self {
        let (qubits, blocks, batch, micro) = FULL;
        let mut cfg = Self {
            qubits,
            blocks,
            batch,
            micro,
            replicas: vec![1, 2, 4],
            epochs: 2,
            reps: 3,
            smoke: false,
            json_path: "BENCH_TRAIN.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => {
                    cfg.qubits = 6;
                    cfg.blocks = 2;
                    cfg.batch = 4;
                    cfg.micro = 1;
                    cfg.replicas = vec![1, 4];
                    cfg.reps = 5;
                    cfg.smoke = true;
                }
                "--json" => {
                    cfg.json_path = args.next().expect("--json needs a path");
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    eprintln!("usage: train_scaling [--smoke] [--json PATH]");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }
}

struct Row {
    replicas: usize,
    ns_per_epoch: f64,
    speedup_vs_r1: f64,
}

/// Synthetic scaled samples with a learnable seismic→velocity link.
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

fn model(qubits: usize, blocks: usize) -> QuGeoVqc {
    QuGeoVqc::new(VqcConfig {
        seismic_len: 1 << qubits,
        num_groups: 1,
        num_blocks: blocks,
        mixing_blocks: 0,
        entangle: EntangleOrder::Ring,
        decoder: Decoder::LayerWise { rows: 4 },
        max_qubits: 16,
    })
    .expect("valid model")
}

/// The determinism gate, at the full shape: replicas=4 on a 4-thread
/// budget must train to the same bits as replicas=1 on one thread. Its
/// units clear the spawn rule, so the 4-replica run uses worker threads
/// whatever the machine's budget.
fn determinism_gate() {
    let (qubits, blocks, batch, micro) = FULL;
    let model = model(qubits, blocks);
    let samples = synthetic_samples(batch * 2 + 2, 1 << qubits);
    let (train, test) = samples.split_at(batch * 2);
    let strategy = MiniBatchVqc::new(&model, train, test, batch).expect("strategy");
    assert!(
        strategy.unit_work(micro) >= REPLICA_SPAWN_MIN_WORK,
        "the gate's units must clear the spawn rule"
    );
    let run = |replicas: usize| {
        let budget = BackendConfig::with_threads(replicas);
        let mut dp = DataParallel::with_config(&strategy, replicas, budget)
            .expect("replicas >= 1")
            .micro_batch(micro);
        Trainer::new(TrainConfig::smoke(2))
            .fit(&mut dp)
            .expect("gate run")
    };
    let (reference, parallel) = (run(1), run(4));
    assert_eq!(
        parallel.params, reference.params,
        "replicas=4 must train to the same bits as replicas=1"
    );
    assert_eq!(parallel.history, reference.history);
    println!("determinism check: replicas=4 on 4 threads == replicas=1 inline bit-for-bit OK");
}

/// Minimum wall-clock over `reps` runs of `f`, in ns.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let cfg = Config::from_args();
    let cores = simulation_threads();
    let simd = simd_feature_level();
    let model = model(cfg.qubits, cfg.blocks);
    let samples = synthetic_samples(cfg.batch * 2 + 2, 1 << cfg.qubits);
    let (train, test) = samples.split_at(cfg.batch * 2);
    let train_cfg = TrainConfig {
        epochs: cfg.epochs,
        initial_lr: 0.1,
        seed: 7,
        eval_every: 0,
    };

    println!(
        "train_scaling: {}q x {} blocks, batch {} micro {}, {} epochs/run, \
         {} rep(s), {} simulation thread(s), SIMD {}",
        cfg.qubits, cfg.blocks, cfg.batch, cfg.micro, cfg.epochs, cfg.reps, cores, simd
    );
    println!("{:-<66}", "");
    println!(
        "{:>8}  {:>16} {:>16} {:>12}",
        "replicas", "ms/epoch", "samples/s", "speedup"
    );

    // Timing arms: the production configuration (the machine's thread
    // budget) across the replica ladder. Strategies are built outside the
    // timer — encoding is a one-off cost, the curve is about the epoch
    // loop.
    let mut rows: Vec<Row> = Vec::new();
    let mut r1_ns = f64::NAN;
    for &replicas in &cfg.replicas {
        let strategy = MiniBatchVqc::new(&model, train, test, cfg.batch).expect("strategy");
        let mut dp = DataParallel::new(&strategy, replicas)
            .expect("replicas >= 1")
            .micro_batch(cfg.micro);
        let ns = time_ns(cfg.reps, || {
            let outcome = Trainer::new(train_cfg).fit(&mut dp).expect("training run");
            std::hint::black_box(outcome.params.len());
        }) / cfg.epochs as f64;
        if rows.is_empty() {
            r1_ns = ns;
        }
        let speedup = r1_ns / ns;
        println!(
            "{:>8}  {:>16.3} {:>16.1} {:>11.2}x",
            replicas,
            ns / 1e6,
            (cfg.batch * 2) as f64 / (ns / 1e9),
            speedup
        );
        rows.push(Row {
            replicas,
            ns_per_epoch: ns,
            speedup_vs_r1: speedup,
        });
    }
    println!("{:-<66}", "");

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"workload\": \"train_scaling\", \"qubits\": {}, \"blocks\": {}, \
             \"batch\": {}, \"micro\": {}, \"replicas\": {}, \
             \"ns_per_epoch\": {:.1}, \"speedup_vs_r1\": {:.3}, \"cores\": {}, \
             \"simd\": \"{}\"}}{comma}\n",
            cfg.qubits,
            cfg.blocks,
            cfg.batch,
            cfg.micro,
            r.replicas,
            r.ns_per_epoch,
            r.speedup_vs_r1,
            cores,
            simd
        ));
    }
    json.push_str("]\n");
    match std::fs::write(&cfg.json_path, &json) {
        Ok(()) => println!("results written to {}", cfg.json_path),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", cfg.json_path);
            std::process::exit(1);
        }
    }

    // The determinism gate is what makes the bench a verification
    // artifact, not just a stopwatch.
    determinism_gate();

    // Scaling expectation, calibrated to the machine: a multi-core
    // budget must show real speedup at the top of the ladder. A
    // single-core budget, or the smoke shape's units (too small to repay
    // a spawn), runs every arm's units inline in one context, so the
    // floor bounds the wrapper's own overhead. A budget pinned above the
    // hardware (QUGEO_SIM_THREADS > physical cores) oversubscribes by
    // construction, so wall-clock asserts would only measure the
    // scheduler — skip them and say so.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let top = rows.last().expect("non-empty replica ladder");
    if cores > hw {
        println!(
            "scaling check: skipped (budget {cores} pinned above {hw} hardware thread(s); \
             determinism gate still enforced)"
        );
        return;
    }
    if !cfg.smoke && cores >= 4 {
        assert!(
            top.speedup_vs_r1 >= 2.0,
            "replicas={} reached only {:.2}x on a {}-thread budget",
            top.replicas,
            top.speedup_vs_r1,
            cores
        );
    } else {
        // The smoke shape's epochs are tens of microseconds, where
        // scheduler noise alone can cost >10% even at min-over-reps —
        // the floor leaves room for that; the full shape (ms-scale
        // epochs) is steadier.
        let floor = if cfg.smoke { 0.8 } else { 0.75 };
        assert!(
            top.speedup_vs_r1 >= floor,
            "replicas={} slowed training to {:.2}x of replicas=1 (floor {floor})",
            top.replicas,
            top.speedup_vs_r1
        );
    }
    println!(
        "scaling check: replicas={} at {:.2}x ({} thread(s)) OK",
        top.replicas, top.speedup_vs_r1, cores
    );
}
