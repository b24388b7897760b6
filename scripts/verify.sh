#!/usr/bin/env bash
# Repository verification: tier-1 build/tests plus lint and documentation
# checks.
#
#   ./scripts/verify.sh              # everything
#   ./scripts/verify.sh docs         # documentation gate only
#   ./scripts/verify.sh lint         # clippy gate only
#   ./scripts/verify.sh serve-smoke  # serving coalescing-determinism gate only
#   ./scripts/verify.sh compiler-smoke  # structure/bind + pass-pipeline gate only
#   ./scripts/verify.sh kernel-smoke # SIMD/scalar differential gate only
#   ./scripts/verify.sh chaos-smoke  # fault-injection / recovery gate only
#   ./scripts/verify.sh train-smoke  # data-parallel determinism gate only
#   ./scripts/verify.sh bench-build  # perfbench/ type-check gate only
#
# Performance is measured by perfbench/ alone (see perfbench/README.md);
# the smoke gates here run test suites and time nothing.
#
# The lint gate keeps `cargo clippy` warning-free across every target
# (lib, tests, examples, bins) — warnings are errors, and use
# of deprecated items is denied too, so a public item leaves the API by
# being deleted together with its callers, never by lingering behind a
# `#[deprecated]` wrapper. It also checks `qugeo-wavesim`'s formatting
# with `cargo fmt --check`. The docs gate enforces that `cargo doc
# --no-deps` stays warning-free (warnings are promoted to errors via
# RUSTDOCFLAGS) and that every doctest passes — run both before sending
# any PR that touches public API or documentation.

set -euo pipefail
cd "$(dirname "$0")/.."

docs_gate() {
    echo "==> cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
    echo "==> cargo test --doc"
    cargo test -q --doc --workspace
}

lint_gate() {
    echo "==> cargo clippy --workspace --all-targets (warnings are errors, deprecated denied)"
    cargo clippy --workspace --all-targets --quiet -- -D warnings -D deprecated
    # Deny missing_docs on the API crates so an undocumented public item
    # can never land.
    echo "==> cargo clippy -p qugeo -p qugeo-qsim -p qugeo-nn -p qugeo-geodata -p qugeo-wavesim -p qugeo-tensor -p qugeo-metrics (missing public-item docs denied)"
    cargo clippy -p qugeo -p qugeo-qsim -p qugeo-nn -p qugeo-geodata -p qugeo-wavesim -p qugeo-tensor -p qugeo-metrics --quiet -- -D warnings -D missing-docs
    # The simulator's SIMD kernels and the FDTD stencil's AVX2 dispatch
    # are the workspace's unsafe code: every unsafe block and impl in
    # those lib targets states its invariant.
    echo "==> cargo clippy -p qugeo-qsim -p qugeo-wavesim (undocumented unsafe blocks denied)"
    cargo clippy -p qugeo-qsim -p qugeo-wavesim --quiet -- -D warnings -D clippy::undocumented-unsafe-blocks
    # The leaf crates' lib targets hold no panic site: outside input gets
    # a typed error, and each remaining site carries a local #[allow]
    # naming its invariant. --no-deps keeps the vendored shims out.
    echo "==> cargo clippy --no-deps (leaf crates: unwrap/expect/panic/unreachable denied)"
    cargo clippy --no-deps -p qugeo-tensor -p qugeo-metrics -p qugeo-wavesim -p qugeo-geodata -p qugeo-nn --lib --quiet -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic -D clippy::unreachable
    # Formatting is enforced crate by crate, starting with qugeo-wavesim.
    echo "==> cargo fmt --check -p qugeo-wavesim"
    cargo fmt --check -p qugeo-wavesim
}

tier1() {
    echo "==> cargo build --release"
    cargo build --release
    echo "==> cargo test -q"
    cargo test -q
    echo "==> cargo test -q --workspace"
    cargo test -q --workspace
}

# Serving gate: the coalescing stress suite (Batched coalescing
# bit-identical to sequential prediction, Packed within 1e-9 on the
# exact backend, hot-swap never tears a batch, overload sheds with a
# typed error, Packed deploys rebind instead of recompiling).
serve_smoke() {
    echo "==> cargo test --release --test serve_stress (serve-smoke)"
    cargo test -q --release --test serve_stress
}

# Compiler gate: the differential-test harness pinning the structure/bind
# split and every optimizer-pass combination against the unfused
# reference (bind ≡ compile bitwise, semantics to 1e-10, pipeline
# idempotent).
compiler_smoke() {
    echo "==> cargo test --release --test compiler_differential (compiler-smoke)"
    cargo test -q --release --test compiler_differential
}

# Kernel gate: the full-circuit SIMD differential suite run twice — once
# with QUGEO_SIMD=off (scalar tier vs references) and once with the
# default runtime dispatch (AVX2/AVX-512 where detected). Its in-process
# A/B asserts the scalar and SIMD tiers agree to 1e-12 on forward
# amplitudes, values and gradients, and the batched adjoint matches the
# serial reference to 1e-10.
kernel_smoke() {
    echo "==> cargo test --release --test simd_differential (QUGEO_SIMD=off)"
    QUGEO_SIMD=off cargo test -q --release -p qugeo-qsim --test simd_differential
    echo "==> cargo test --release --test simd_differential (runtime dispatch)"
    cargo test -q --release -p qugeo-qsim --test simd_differential
}

# Resilience gate: the chaos soak suite (seeded fault injection through a
# live QuServe — worker panics, transient errors, NaN outputs, latency
# spikes — with exact stats accounting and bit-identical post-recovery
# results), plus the crash-safe checkpoint torn-file regressions and the
# trainer's bit-identical resume differential. Release mode: the soak
# pushes 1000 requests through real statevector simulations.
chaos_smoke() {
    echo "==> cargo test --release --test serve_chaos (chaos-smoke)"
    cargo test -q --release --test serve_chaos
    echo "==> cargo test --release -p qugeo checkpoint:: (torn-file regressions)"
    cargo test -q --release -p qugeo --lib checkpoint::
    echo "==> cargo test --release -p qugeo resumed_training (bit-identical resume)"
    cargo test -q --release -p qugeo --lib resumed_training_is_bit_identical_to_uninterrupted
}

# Data-parallel training gate: the replica-determinism differential
# suite (DataParallel at N replicas bit-identical to one replica across
# strategies, optimisers, and schedules; resume under parallelism; the
# spawn rule; typed replica-panic errors), run under the default SIMD
# dispatch, once more with QUGEO_SIMD=off — the all-reduce bit-identity
# must hold on both kernel tiers — and once with QUGEO_SIM_THREADS=1:
# the suite's threaded runs take their thread budget from explicit
# configs, so a one-thread machine budget still exercises worker
# threads. No wall-clock floor: one run on a shared host cannot show
# whether replicas scale.
train_smoke() {
    echo "==> cargo test --release --test train_parallel (train-smoke)"
    cargo test -q --release --test train_parallel
    echo "==> cargo test --release --test train_parallel (QUGEO_SIMD=off)"
    QUGEO_SIMD=off cargo test -q --release --test train_parallel
    echo "==> cargo test --release --test train_parallel (QUGEO_SIM_THREADS=1)"
    QUGEO_SIM_THREADS=1 cargo test -q --release --test train_parallel
}

# Benchmark build gate: perfbench/ is its own Cargo workspace, so the
# --workspace build, test and clippy gates never compile it, and a
# public-API change could break the benchmark unnoticed. This
# type-checks it against the current crates; --locked turns a
# dependency change that would rewrite perfbench/Cargo.lock into a
# failure instead of a silent edit under perfbench/.
bench_build() {
    echo "==> cargo check --locked --offline --manifest-path perfbench/Cargo.toml (bench-build)"
    cargo check --locked --offline --quiet --manifest-path perfbench/Cargo.toml
}

case "${1:-all}" in
    docs) docs_gate ;;
    lint) lint_gate ;;
    tier1) tier1 ;;
    serve-smoke|--serve-smoke) serve_smoke ;;
    compiler-smoke|--compiler-smoke) compiler_smoke ;;
    kernel-smoke|--kernel-smoke) kernel_smoke ;;
    chaos-smoke|--chaos-smoke) chaos_smoke ;;
    train-smoke|--train-smoke) train_smoke ;;
    bench-build|--bench-build) bench_build ;;
    all)
        tier1
        lint_gate
        bench_build
        docs_gate
        serve_smoke
        compiler_smoke
        kernel_smoke
        chaos_smoke
        train_smoke
        ;;
    *)
        echo "usage: $0 [all|tier1|docs|lint|serve-smoke|compiler-smoke|kernel-smoke|chaos-smoke|train-smoke|bench-build]" >&2
        exit 2
        ;;
esac

echo "verify: OK"
