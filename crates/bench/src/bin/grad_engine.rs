//! Gradient-engine benchmark: serial adjoint vs batched-fused adjoint vs
//! batched parameter-shift, at batch sizes 1/4/16 on the
//! acceptance-workload ansatz (10 qubits × 12 `U3+CU3` blocks, 720
//! trainable angles).
//!
//! Every series measures the full per-training-step cost — compilation
//! (parameters change every step), sweeps, and gradient extraction:
//!
//! * `serial_adjoint` — the frozen baseline: one unfused, single-threaded
//!   [`adjoint_gradient`] call per batch member, allocating its ket/bra/
//!   scratch/grad buffers per call, exactly what training did before the
//!   fused engine.
//! * `batched_fused_adjoint` — the production path: one
//!   [`adjoint_gradient_batch_with`] call for the whole batch through a
//!   persistent [`AdjointWorkspace`].
//! * `batched_param_shift` — the hardware-faithful oracle
//!   ([`parameter_shift_gradient_batched`]) per member, for scale: it
//!   needs `O(angles)` circuit executions where adjoint needs one.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin grad_engine [--smoke] [--json PATH] [--no-shift]
//! ```
//!
//! `--smoke` shrinks to 6 qubits × 2 blocks, batches 1/4, one timing rep
//! — the CI gate shape (`scripts/verify.sh bench-smoke`). Results are
//! written to `BENCH_grad.json` (override with `--json`) so the repo's
//! perf trajectory is tracked in a machine-readable file.

use std::time::Instant;

use qugeo_qsim::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
use qugeo_qsim::{
    adjoint_gradient, adjoint_gradient_batch_with, parameter_shift_gradient_batched,
    AdjointWorkspace, BatchedState, Circuit, DiagonalObservable, State,
};

struct Config {
    qubits: usize,
    blocks: usize,
    batches: Vec<usize>,
    reps: usize,
    shift: bool,
    json_path: String,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Self {
            qubits: 10,
            blocks: 12,
            batches: vec![1, 4, 16],
            reps: 3,
            shift: true,
            json_path: "BENCH_grad.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => {
                    cfg.qubits = 6;
                    cfg.blocks = 2;
                    cfg.batches = vec![1, 4];
                    cfg.reps = 1;
                }
                "--no-shift" => cfg.shift = false,
                "--json" => {
                    cfg.json_path = args.next().expect("--json needs a path");
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    eprintln!("usage: grad_engine [--smoke] [--json PATH] [--no-shift]");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }
}

struct Row {
    batch: usize,
    series: &'static str,
    ns_per_step: f64,
    speedup_vs_serial: f64,
}

/// Minimum wall-clock over `reps` runs of `f`, in ns — the usual
/// low-noise estimator for a deterministic workload.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn member_states(circuit: &Circuit, batch: usize) -> Vec<State> {
    (0..batch)
        .map(|k| {
            let data: Vec<f64> = (0..1usize << circuit.num_qubits())
                .map(|i| ((i + k * 17) as f64 * 0.11).sin() + 0.2)
                .collect();
            State::from_real_normalized(&data).expect("valid state")
        })
        .collect()
}

fn main() {
    let cfg = Config::from_args();
    let circuit = u3_cu3_ansatz(AnsatzConfig {
        num_qubits: cfg.qubits,
        num_blocks: cfg.blocks,
        entangle: EntangleOrder::Ring,
    })
    .expect("valid ansatz");
    let params: Vec<f64> = (0..circuit.num_slots())
        .map(|i| (i as f64 * 0.13).sin() * 0.4)
        .collect();
    let obs = DiagonalObservable::z(cfg.qubits, 0).expect("valid observable");

    println!(
        "grad_engine: {}q x {} blocks ({} params), batches {:?}, {} rep(s)",
        cfg.qubits,
        cfg.blocks,
        circuit.num_slots(),
        cfg.batches,
        cfg.reps
    );
    println!("{:-<78}", "");
    println!(
        "{:>5}  {:<24} {:>14} {:>14} {:>10}",
        "batch", "series", "ms/step", "grads/s", "speedup"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut ws = AdjointWorkspace::new();
    for &batch in &cfg.batches {
        let states = member_states(&circuit, batch);
        let inputs = BatchedState::from_states(&states).expect("batch");

        // Frozen baseline: per-member serial unfused adjoint.
        let serial_ns = time_ns(cfg.reps, || {
            for s in &states {
                std::hint::black_box(
                    adjoint_gradient(&circuit, &params, s, &obs).expect("serial adjoint"),
                );
            }
        });

        // Production path: one fused batched call, persistent workspace.
        let fused_ns = time_ns(cfg.reps, || {
            adjoint_gradient_batch_with(
                &circuit,
                &params,
                &inputs,
                &obs,
                qugeo_qsim::backend::BackendConfig::default().effective_threads(),
                &mut ws,
            )
            .expect("batched adjoint");
            std::hint::black_box(ws.values().len());
        });

        // Oracle scale reference: batched parameter shift per member.
        let shift_ns = cfg.shift.then(|| {
            time_ns(1, || {
                for s in &states {
                    std::hint::black_box(
                        parameter_shift_gradient_batched(&circuit, &params, s, &obs)
                            .expect("batched shift"),
                    );
                }
            })
        });

        let mut push = |series: &'static str, ns: f64| {
            let speedup = serial_ns / ns;
            println!(
                "{:>5}  {:<24} {:>14.3} {:>14.1} {:>9.2}x",
                batch,
                series,
                ns / 1e6,
                batch as f64 / (ns / 1e9),
                speedup
            );
            rows.push(Row {
                batch,
                series,
                ns_per_step: ns,
                speedup_vs_serial: speedup,
            });
        };
        push("serial_adjoint", serial_ns);
        push("batched_fused_adjoint", fused_ns);
        if let Some(ns) = shift_ns {
            push("batched_param_shift", ns);
        }
    }
    println!("{:-<78}", "");
    println!(
        "adjoint workspace: {} allocation(s), {} reuse(s)",
        ws.allocations(),
        ws.reuses()
    );

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"workload\": \"grad_engine\", \"qubits\": {}, \"blocks\": {}, \
             \"params\": {}, \"batch\": {}, \"series\": \"{}\", \
             \"ns_per_step\": {:.1}, \"speedup_vs_serial\": {:.3}}}{comma}\n",
            cfg.qubits,
            cfg.blocks,
            circuit.num_slots(),
            r.batch,
            r.series,
            r.ns_per_step,
            r.speedup_vs_serial
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

    // The differential guard the smoke gate actually relies on: the
    // fused batched engine must agree with the serial reference.
    let largest = *cfg.batches.iter().max().expect("non-empty batches");
    let states = member_states(&circuit, largest);
    let inputs = BatchedState::from_states(&states).expect("batch");
    adjoint_gradient_batch_with(&circuit, &params, &inputs, &obs, 1, &mut ws)
        .expect("batched adjoint");
    for (b, s) in states.iter().enumerate() {
        let (value, grad) = adjoint_gradient(&circuit, &params, s, &obs).expect("serial");
        assert!(
            (ws.value(b) - value).abs() < 1e-10,
            "member {b}: batched value {} vs serial {value}",
            ws.value(b)
        );
        for (x, y) in ws.grad(b).iter().zip(&grad) {
            assert!(
                (x - y).abs() < 1e-10,
                "member {b}: batched grad {x} vs serial {y}"
            );
        }
    }
    println!("differential check: batched == serial adjoint to 1e-10 OK");
}
