//! Full-circuit differential suite for the SIMD kernel layer.
//!
//! The in-module tests in `kernels::simd` pin each AVX2 body to its
//! scalar tier; this suite pins the *assembled engine* — forward
//! execution, batched sweeps, reductions and adjoint gradients — against
//! independent references through the public API:
//!
//! * arbitrary circuits on the default backend vs [`NaiveBackend`]
//!   (gate-by-gate, kernel-free reference) at 1e-10,
//! * batched adjoint gradients vs the serial unfused
//!   [`adjoint_gradient`] at 1e-10, across odd and even batch sizes,
//! * the norm/probability/expectation reductions vs inline scalar sums
//!   at 1e-12,
//! * an explicit scalar-vs-SIMD A/B via [`set_simd_enabled`] at 1e-12, on
//!   forward amplitudes, values and gradients.
//!
//! Everything here also runs under `QUGEO_SIMD=off` (the verify gate does
//! exactly that), where it degenerates to scalar-vs-reference.

use proptest::prelude::*;
use qugeo_qsim::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
use qugeo_qsim::{
    adjoint_gradient, adjoint_gradient_batch, set_simd_enabled, BatchedState, Circuit,
    DiagonalObservable, Gate1, NaiveBackend, ParamSource, QuantumBackend, State,
    StatevectorBackend,
};

/// Builds an arbitrary 4-qubit circuit from raw draw tuples (same
/// folding scheme as the crate's main proptest suite).
fn arbitrary_circuit(draws: &[(usize, usize, usize, f64)]) -> Circuit {
    const N: usize = 4;
    let mut c = Circuit::new(N);
    for &(kind, q, other, angle) in draws {
        let q = q % N;
        let other = if other % N == q { (q + 1) % N } else { other % N };
        match kind % 7 {
            0 => {
                c.push_single(
                    Gate1::U3(
                        ParamSource::Fixed(angle),
                        ParamSource::Fixed(angle * 0.7),
                        ParamSource::Fixed(-angle * 1.3),
                    ),
                    q,
                )
                .unwrap();
            }
            1 => {
                c.push_single(Gate1::Ry(ParamSource::Fixed(angle)), q).unwrap();
            }
            2 => {
                c.h(q).unwrap();
            }
            3 => {
                c.push_controlled(Gate1::Rz(ParamSource::Fixed(angle)), q, other)
                    .unwrap();
            }
            4 => {
                c.push_controlled(
                    Gate1::U3(
                        ParamSource::Fixed(angle),
                        ParamSource::Fixed(angle + 0.4),
                        ParamSource::Fixed(angle - 0.9),
                    ),
                    q,
                    other,
                )
                .unwrap();
            }
            5 => {
                c.swap(q, other).unwrap();
            }
            _ => {
                c.x(q).unwrap();
            }
        }
    }
    c
}

/// A batch of `b` random (normalized) member states.
fn sample_batch(num_qubits: usize, b: usize, seed: u64) -> BatchedState {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = 1usize << num_qubits;
    let states: Vec<State> = (0..b)
        .map(|_| {
            let data: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.05..1.0)).collect();
            State::from_real_normalized(&data).unwrap()
        })
        .collect();
    BatchedState::from_states(&states).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The default backend (SIMD when available) agrees with the
    /// gate-by-gate [`NaiveBackend`] on arbitrary circuits and batch
    /// sizes — including odd batches, whose remainder members leave the
    /// tile path for the per-member path.
    #[test]
    fn default_backend_matches_naive_on_arbitrary_circuits(
        draws in prop::collection::vec(
            (0usize..7, 0usize..4, 0usize..4, -3.0f64..3.0), 4..24),
        batch in 1usize..8,
        seed in 0u64..1 << 32,
    ) {
        let circuit = arbitrary_circuit(&draws);
        let compiled = circuit.compile(&[]).unwrap();
        let fast = &StatevectorBackend::default() as &dyn QuantumBackend;
        let slow = &NaiveBackend::default() as &dyn QuantumBackend;
        let mut via_fast = sample_batch(4, batch, seed);
        let mut via_slow = via_fast.clone();
        fast.run_batch(&compiled, &mut via_fast).unwrap();
        slow.run_batch(&compiled, &mut via_slow).unwrap();
        for (i, (a, b)) in via_fast.amps().iter().zip(via_slow.amps()).enumerate() {
            prop_assert!((*a - *b).norm() < 1e-10, "amplitude {}: {:?} vs {:?}", i, a, b);
        }
    }

    /// Batched (tile + interleaved) adjoint gradients agree with the
    /// serial unfused reference per member.
    #[test]
    fn batched_adjoint_matches_serial_reference(
        batch in 1usize..8,
        seed in 0u64..1 << 32,
        scale in 0.2f64..1.0,
    ) {
        let circuit = u3_cu3_ansatz(AnsatzConfig {
            num_qubits: 4,
            num_blocks: 3,
            entangle: EntangleOrder::Ring,
        })
        .unwrap();
        let params: Vec<f64> =
            (0..circuit.num_slots()).map(|i| scale * (0.3 + 0.11 * i as f64).sin()).collect();
        let obs = DiagonalObservable::z(4, 1).unwrap();
        let inputs = sample_batch(4, batch, seed);
        let (values, grads) = adjoint_gradient_batch(&circuit, &params, &inputs, &obs).unwrap();
        for b in 0..batch {
            let member = inputs.member(b).unwrap();
            let (v_ref, g_ref) = adjoint_gradient(&circuit, &params, &member, &obs).unwrap();
            prop_assert!((values[b] - v_ref).abs() < 1e-10, "member {} value", b);
            for (s, (g, r)) in grads[b].iter().zip(&g_ref).enumerate() {
                prop_assert!((g - r).abs() < 1e-10, "member {} slot {}: {} vs {}", b, s, g, r);
            }
        }
    }

    /// The vectorized norm/probability/expectation reductions agree with
    /// plain scalar sums over the same amplitudes at 1e-12.
    #[test]
    fn reductions_match_scalar_sums(
        seed in 0u64..1 << 32,
        weights in prop::collection::vec(-2.0f64..2.0, 32),
    ) {
        let state = sample_batch(5, 1, seed).member(0).unwrap();
        let amps = state.amplitudes();
        let norm_ref: f64 = amps.iter().map(|a| a.re * a.re + a.im * a.im).sum::<f64>().sqrt();
        prop_assert!((state.norm() - norm_ref).abs() < 1e-12);
        let probs = state.probabilities();
        for (p, a) in probs.iter().zip(amps) {
            prop_assert!((p - (a.re * a.re + a.im * a.im)).abs() < 1e-12);
        }
        let obs = DiagonalObservable::from_diagonal(weights.clone()).unwrap();
        let exp_ref: f64 =
            amps.iter().zip(&weights).map(|(a, w)| (a.re * a.re + a.im * a.im) * w).sum();
        prop_assert!((obs.expectation(&state) - exp_ref).abs() < 1e-12);
    }
}

/// In-process A/B: the same forward sweep and adjoint gradients with the
/// SIMD tier pinned off and back on must agree at 1e-12, at batch 6 (one
/// partial tile group) and batch 16 (two full 8-wide tile groups). Runs
/// as a single test so the global tier switch has one owner; the other
/// tests in this binary are tolerance-based against references and are
/// unaffected by a concurrent tier flip.
#[test]
fn scalar_and_simd_tiers_agree() {
    let circuit = u3_cu3_ansatz(AnsatzConfig {
        num_qubits: 5,
        num_blocks: 3,
        entangle: EntangleOrder::Ring,
    })
    .unwrap();
    let params: Vec<f64> = (0..circuit.num_slots())
        .map(|i| (0.2 + 0.07 * i as f64).cos())
        .collect();
    let compiled = circuit.compile(&params).unwrap();
    let obs = DiagonalObservable::z(5, 2).unwrap();

    for batch in [6, 16] {
        let inputs = sample_batch(5, batch, 0xA5A5);
        let run = || {
            let mut forward = inputs.clone();
            forward.apply_compiled(&compiled).unwrap();
            let (values, grads) = adjoint_gradient_batch(&circuit, &params, &inputs, &obs).unwrap();
            (forward, values, grads)
        };
        set_simd_enabled(false);
        let (scalar_forward, scalar_values, scalar_grads) = run();
        set_simd_enabled(true);
        let (simd_forward, simd_values, simd_grads) = run();

        for (i, (s, v)) in scalar_forward
            .amps()
            .iter()
            .zip(simd_forward.amps())
            .enumerate()
        {
            assert!(
                (*s - *v).norm() < 1e-12,
                "batch {batch} amplitude {i}: {s:?} vs {v:?}"
            );
        }
        for (b, (s, v)) in scalar_values.iter().zip(&simd_values).enumerate() {
            assert!(
                (s - v).abs() < 1e-12,
                "batch {batch} member {b} value: {s} vs {v}"
            );
        }
        for (b, (sg, vg)) in scalar_grads.iter().zip(&simd_grads).enumerate() {
            for (slot, (s, v)) in sg.iter().zip(vg).enumerate() {
                assert!(
                    (s - v).abs() < 1e-12,
                    "batch {batch} member {b} slot {slot}: {s} vs {v}"
                );
            }
        }
    }
}
