//! Compiler-pipeline benchmark: the structure/bind split and the
//! optimizer passes, on the acceptance-workload ansatz (10 qubits × 12
//! `U3+CU3` blocks, 720 trainable angles).
//!
//! The point of the split is that training and serving change *angles*
//! every step, never circuit *structure* — so the per-step cost should be
//! a parameter re-bind, not a re-fusion. This bin times every stage so
//! the split's payoff is tracked in `BENCH_qsim.json`:
//!
//! * `structure_compile` / `structure_compile_passes` — the
//!   parameter-independent fusion plan ([`CircuitStructure::compile`]),
//!   without and with the optimizer pass pipeline. Paid once per circuit
//!   shape.
//! * `bind` / `bind_with_grad` — materialising fused matrices (and
//!   per-slot derivative records) for one parameter vector on a
//!   pre-compiled structure. Paid once per parameter vector.
//! * `rebind` — rewriting a live [`CompiledCircuit`] in place between two
//!   parameter vectors: the steady-state training/serving step.
//! * `compile` / `compile_with_grad` — the monolithic paths (structure +
//!   bind in one call), the pre-split per-step cost.
//!
//! Fused-op counts with passes off/on are recorded for both the bench
//! workload and the paper's 8-qubit ansatz.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin compiler_pipeline [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` shrinks to 6 qubits × 2 blocks with few reps — the CI gate
//! shape (`scripts/verify.sh compiler-smoke`). Results are merged into
//! `BENCH_qsim.json` (override with `--json`): entries this bin owns
//! (names under `compiler_pipeline_*` / `fused_ops_*`) are replaced,
//! everything else in the file is preserved, so the criterion-driven
//! `fused_engine` series and this one share the trajectory file.
//!
//! The run ends with two built-in guards: the bind-vs-recompile
//! differential (re-binding must reproduce a fresh compile bit-for-bit,
//! and its statevector must match the unfused gate-by-gate reference to
//! 1e-10) and, outside smoke mode, the acceptance ratios (bind ≥ 5x
//! faster than `compile_with_grad`; passes strictly shrink the paper
//! ansatz).

use std::time::Instant;

use qugeo_qsim::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
use qugeo_qsim::{Circuit, CircuitStructure, CompiledCircuit, PassConfig, State};

struct Config {
    qubits: usize,
    blocks: usize,
    reps: usize,
    smoke: bool,
    json_path: String,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Self {
            qubits: 10,
            blocks: 12,
            reps: 400,
            smoke: false,
            json_path: "BENCH_qsim.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => {
                    cfg.qubits = 6;
                    cfg.blocks = 2;
                    cfg.reps = 5;
                    cfg.smoke = true;
                }
                "--json" => {
                    cfg.json_path = args.next().expect("--json needs a path");
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    eprintln!("usage: compiler_pipeline [--smoke] [--json PATH]");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }
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

fn params_at(circuit: &Circuit, seed: f64) -> Vec<f64> {
    (0..circuit.num_slots())
        .map(|i| ((i as f64 + seed) * 0.13).sin() * 0.4)
        .collect()
}

/// Replaces this bin's entries in the trajectory file, preserving every
/// entry owned by other benches. Both writers emit one object per line,
/// so the merge is line-based.
fn merge_json(path: &str, fresh: &[String]) -> std::io::Result<()> {
    let mut kept: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let entry = line.trim().trim_end_matches(',');
            if entry.starts_with('{')
                && !entry.contains("\"name\": \"compiler_pipeline_")
                && !entry.contains("\"name\": \"fused_ops_")
            {
                kept.push(entry.to_string());
            }
        }
    }
    kept.extend(fresh.iter().cloned());
    let mut out = String::from("[\n");
    for (i, entry) in kept.iter().enumerate() {
        let comma = if i + 1 == kept.len() { "" } else { "," };
        out.push_str(&format!("  {entry}{comma}\n"));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

fn main() {
    let cfg = Config::from_args();
    let circuit = u3_cu3_ansatz(AnsatzConfig {
        num_qubits: cfg.qubits,
        num_blocks: cfg.blocks,
        entangle: EntangleOrder::Ring,
    })
    .expect("valid ansatz");
    let p0 = params_at(&circuit, 0.0);
    let p1 = params_at(&circuit, 0.61);
    let workload = format!("compiler_pipeline_{}q_{}blocks", cfg.qubits, cfg.blocks);

    println!(
        "compiler_pipeline: {}q x {} blocks ({} params), {} rep(s)",
        cfg.qubits,
        cfg.blocks,
        circuit.num_slots(),
        cfg.reps
    );
    println!("{:-<64}", "");
    println!("{:<28} {:>14} {:>14}", "series", "ns/step", "vs compile+grad");

    let structure = CircuitStructure::compile(&circuit);
    let mut entries: Vec<String> = Vec::new();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();

    let mut measure = |series: &'static str, ns: f64| {
        timings.push((series, ns));
        entries.push(format!(
            "{{\"name\": \"{workload}/{series}\", \"ns_per_iter\": {ns:.1}, \"iters\": {}}}",
            cfg.reps
        ));
        ns
    };

    measure(
        "structure_compile",
        time_ns(cfg.reps, || {
            std::hint::black_box(CircuitStructure::compile(&circuit));
        }),
    );
    measure(
        "structure_compile_passes",
        time_ns(cfg.reps, || {
            std::hint::black_box(CircuitStructure::compile_with_passes(
                &circuit,
                &PassConfig::all(),
            ));
        }),
    );
    let bind_ns = measure(
        "bind",
        time_ns(cfg.reps, || {
            std::hint::black_box(structure.bind(&p0).expect("binds"));
        }),
    );
    measure(
        "bind_with_grad",
        time_ns(cfg.reps, || {
            std::hint::black_box(structure.bind_with_grad(&p0).expect("binds"));
        }),
    );
    let mut live = structure.bind(&p0).expect("binds");
    let mut flip = false;
    measure(
        "rebind",
        time_ns(cfg.reps, || {
            flip = !flip;
            live.rebind(if flip { &p1 } else { &p0 }).expect("rebinds");
            std::hint::black_box(live.binding());
        }),
    );
    measure(
        "compile",
        time_ns(cfg.reps, || {
            std::hint::black_box(CompiledCircuit::compile(&circuit, &p0).expect("compiles"));
        }),
    );
    let grad_ns = measure(
        "compile_with_grad",
        time_ns(cfg.reps, || {
            std::hint::black_box(
                CompiledCircuit::compile_with_grad(&circuit, &p0).expect("compiles"),
            );
        }),
    );

    for (series, ns) in &timings {
        println!("{series:<28} {ns:>14.1} {:>14.2}x", grad_ns / ns);
    }
    println!("{:-<64}", "");

    // Fused-op counts, passes off vs on, for this workload and for the
    // paper's 8-qubit ansatz (the acceptance circuit for the shrink).
    let paper = u3_cu3_ansatz(AnsatzConfig::paper_default()).expect("valid ansatz");
    let mut counts: Vec<(String, usize)> = Vec::new();
    for (label, c) in [
        (format!("fused_ops_{}q_{}blocks", cfg.qubits, cfg.blocks), &circuit),
        ("fused_ops_paper_ansatz".to_string(), &paper),
    ] {
        let plain = CircuitStructure::compile(c).num_ops();
        let passed = CircuitStructure::compile_with_passes(c, &PassConfig::all()).num_ops();
        println!(
            "{label}: {} source ops -> {plain} fused (passes off), {passed} (passes on)",
            c.num_ops()
        );
        counts.push((format!("{label}/passes_off"), plain));
        counts.push((format!("{label}/passes_on"), passed));
    }
    for (name, count) in &counts {
        entries.push(format!("{{\"name\": \"{name}\", \"count\": {count}}}"));
    }

    match merge_json(&cfg.json_path, &entries) {
        Ok(()) => println!("results merged into {}", cfg.json_path),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", cfg.json_path);
            std::process::exit(1);
        }
    }

    // Differential guard: a rebind round-trip must reproduce a fresh
    // compile bit-for-bit, and the re-bound circuit's statevector must
    // match the unfused gate-by-gate reference to 1e-10.
    let mut live = structure.bind_with_grad(&p1).expect("binds");
    live.rebind(&p0).expect("rebinds");
    assert_eq!(
        live,
        CompiledCircuit::compile_with_grad(&circuit, &p0).expect("compiles"),
        "rebind diverged from fresh compile"
    );
    let data: Vec<f64> = (0..1usize << cfg.qubits)
        .map(|i| (i as f64 * 0.11).sin() + 0.2)
        .collect();
    let input = State::from_real_normalized(&data).expect("valid state");
    let reference = circuit.run(&input, &p0).expect("reference run");
    for config in [PassConfig::none(), PassConfig::all()] {
        let compiled = CircuitStructure::compile_with_passes(&circuit, &config)
            .bind(&p0)
            .expect("binds");
        let state = compiled.run(&input).expect("runs");
        for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
            assert!(
                (*a - *b).norm() < 1e-10,
                "{config:?}: bound circuit diverged from unfused reference"
            );
        }
    }
    println!("differential check: rebind == fresh compile (bitwise), state to 1e-10 OK");

    // Acceptance ratios — full workload only; smoke runs are too small
    // and too noisy to hold them to the contract.
    if !cfg.smoke {
        assert!(
            bind_ns * 5.0 <= grad_ns,
            "bind ({bind_ns:.0} ns) is not >= 5x faster than compile_with_grad ({grad_ns:.0} ns)"
        );
        println!(
            "acceptance: bind {:.1}x faster than compile_with_grad",
            grad_ns / bind_ns
        );
    }
    let paper_plain = CircuitStructure::compile(&paper).num_ops();
    let paper_passed = CircuitStructure::compile_with_passes(&paper, &PassConfig::all()).num_ops();
    assert!(
        paper_passed < paper_plain,
        "passes did not shrink the paper ansatz ({paper_passed} vs {paper_plain})"
    );
}
