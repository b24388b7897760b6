//! Low-level gate-application kernels over raw amplitude slices.
//!
//! Everything that touches amplitudes funnels through here: [`crate::State`]
//! for single statevectors and [`crate::batch::BatchedState`] for
//! contiguously-stored batches. Two properties distinguish these kernels
//! from a textbook implementation:
//!
//! * **Branch-free index enumeration.** Instead of scanning all `2^n`
//!   basis indices and testing bit masks (the obvious loop, which
//!   mispredicts on every other index), each kernel iterates directly
//!   over the `2^n / 2` pairs (or `2^n / 4` quads) it updates, expanding
//!   a dense counter into a basis index with shift/mask bit insertion.
//! * **Chunked data-parallelism.** Above [`PARALLEL_MIN_AMPS`] amplitudes
//!   the pair/quad index space is split into contiguous chunks executed
//!   on scoped threads ([`std::thread::scope`] — the offline build has no
//!   `rayon`). Distinct pair/quad indices touch disjoint amplitude sets,
//!   so the split is race-free. Below the threshold (or on single-core
//!   hosts) the serial loop runs unchanged: thread spawn costs more than
//!   a small statevector sweep.
//!
//! Every kernel takes an explicit `threads` argument so execution
//! backends ([`crate::backend::BackendConfig`]) can own their thread
//! budget. Callers without a configured count use
//! [`simulation_threads`]: [`std::thread::available_parallelism`],
//! overridable (e.g. pinned to 1 for timing experiments) with the
//! `QUGEO_SIM_THREADS` environment variable.
//!
//! # SIMD dispatch
//!
//! Each kernel is a thin dispatcher over two tiers:
//!
//! * **avx2** — explicit AVX2/FMA lane kernels ([`simd`]) processing two
//!   complex amplitudes per 256-bit register, selected at runtime when
//!   the CPU reports `avx2` *and* `fma`.
//! * **scalar** — the original branch-free loops (`*_scalar`), always
//!   available and bit-identical to the pre-SIMD engine.
//!
//! The tier is resolved once per process; `QUGEO_SIMD=off` (also `0` or
//! `scalar`) pins the scalar tier for A/B testing, and
//! [`set_simd_enabled`] offers the same switch programmatically for
//! in-process benchmarking. On top of the lane kernels, [`tile`] provides
//! batch-major cache-blocked sweeps for [`crate::BatchedState`]-shaped
//! workloads (several members per register, one broadcast-FMA stream per
//! fused gate); where the CPU additionally reports `avx512f`, the
//! forward tile widens from four members per 256-bit register to eight
//! per 512-bit register.

use std::sync::OnceLock;

pub(crate) mod simd;
pub(crate) mod tile;

use crate::gates::{Matrix2, Matrix4};
use crate::Complex64;

/// The kernel dispatch tier currently in effect: `"avx512"` when the
/// AVX2/FMA kernels are active *and* the CPU reports `avx512f` (so the
/// batched tile runs eight members per 512-bit register), `"avx2"` for
/// the 256-bit kernels alone, `"scalar"` otherwise (unsupported CPU,
/// `QUGEO_SIMD=off`, or [`set_simd_enabled`]`(false)`).
///
/// Benchmark tooling records this next to its series so numbers are
/// attributable to a specific kernel tier.
pub fn simd_feature_level() -> &'static str {
    simd::level_name()
}

/// Programmatically pins (`false`) or releases (`true`) the scalar kernel
/// tier. `set_simd_enabled(true)` never enables more than the environment
/// allows: it only clears a previous `set_simd_enabled(false)`, and the
/// resolved tier still honours `QUGEO_SIMD=off` and the CPU feature
/// detection. Intended for in-process A/B measurement (scalar vs SIMD in
/// one benchmark run); production code should leave the dispatch alone.
pub fn set_simd_enabled(enabled: bool) {
    simd::set_enabled(enabled)
}

/// Minimum amplitude count before kernels fan out to threads. `2^15`
/// amplitudes ≈ 512 KiB of complex data — below that, spawn overhead
/// dominates any speedup.
///
/// Measured (Xeon @2.1 GHz, 10 qubits × 12 blocks × batch 16,
/// 2026-08): that whole batch is 16 × 2^10 = 2^14 amplitudes, so it
/// takes the serial branch — and on that branch the AVX-512 tile sweep
/// already delivers 4.7× over scalar per-sample execution. Sweeps this
/// size are FMA-port-bound, not memory-bound; scoped-thread spawn/join
/// (tens of µs) would eat most of a ~600 µs sweep. The threshold only pays off once a single member (or the
/// flattened batch) is ≥ 512 KiB and a gate sweep streams from L2/LLC.
pub const PARALLEL_MIN_AMPS: usize = 1 << 15;

/// The default worker-thread count: the `QUGEO_SIM_THREADS` environment
/// variable when set, otherwise [`std::thread::available_parallelism`]
/// (cached). Execution backends may override this per instance via
/// [`crate::backend::BackendConfig::threads`].
pub fn simulation_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("QUGEO_SIM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Expands a dense counter `k` into a basis index with a zero bit
/// inserted at position `pos`.
#[inline(always)]
fn insert_zero_bit(k: usize, pos: usize) -> usize {
    let low = (1usize << pos) - 1;
    ((k & !low) << 1) | (k & low)
}

/// Raw pointer that may cross thread boundaries. Safety is established at
/// each use site: parallel loops partition the pair/quad index space into
/// disjoint ranges, and distinct indices address disjoint amplitudes.
#[derive(Clone, Copy)]
struct SendPtr(*mut Complex64);
// SAFETY: `SendPtr` is a bare address that owns nothing. Every use site
// takes it from a slice that outlives the scoped workers and gives each
// worker a disjoint pair/quad range, so no amplitude is reached from two
// threads.
unsafe impl Send for SendPtr {}
// SAFETY: sharing `&SendPtr` only copies the address; see `Send` above.
unsafe impl Sync for SendPtr {}

/// Runs `work(range)` over `0..total` split into contiguous chunks on at
/// most `threads` scoped worker threads, or inline when `total` is small
/// or only one thread is allowed.
fn for_each_chunk(
    total: usize,
    amps_len: usize,
    threads: usize,
    work: impl Fn(std::ops::Range<usize>) + Sync,
) {
    if threads <= 1 || amps_len < PARALLEL_MIN_AMPS || total < threads {
        work(0..total);
        return;
    }
    let chunk = total.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(total);
            if lo >= hi {
                break;
            }
            let work = &work;
            scope.spawn(move || work(lo..hi));
        }
    });
}

/// Applies a 2×2 gate to qubit `q` of every statevector block in `amps`.
///
/// `amps` may hold one statevector or `B` concatenated ones, as long as
/// `q` addresses bits *within* a block and `amps.len()` is a multiple of
/// the block size — pair enumeration is oblivious to block boundaries.
///
/// # Panics
///
/// Panics (debug) if `amps.len()` is not a multiple of `2^(q+1)`.
pub(crate) fn apply_one(amps: &mut [Complex64], g: &Matrix2, q: usize, threads: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: the avx2 tier is only resolved on CPUs reporting
        // AVX2 and FMA.
        unsafe { simd::avx2::apply_one(amps, g, q, threads) };
        return;
    }
    apply_one_scalar(amps, g, q, threads)
}

/// Scalar tier of [`apply_one`] — the original branch-free loop.
pub(crate) fn apply_one_scalar(amps: &mut [Complex64], g: &Matrix2, q: usize, threads: usize) {
    debug_assert_eq!(amps.len() % (1 << (q + 1)), 0);
    let mask = 1usize << q;
    let [[m00, m01], [m10, m11]] = g.m;
    let pairs = amps.len() / 2;
    let ptr = SendPtr(amps.as_mut_ptr());
    for_each_chunk(pairs, amps.len(), threads, move |range| {
        let ptr = ptr;
        for k in range {
            let i = insert_zero_bit(k, q);
            let j = i | mask;
            // SAFETY: i != j, and distinct k map to distinct {i, j} sets;
            // chunk ranges are disjoint, so no two threads alias.
            unsafe {
                let a0 = *ptr.0.add(i);
                let a1 = *ptr.0.add(j);
                *ptr.0.add(i) = m00 * a0 + m01 * a1;
                *ptr.0.add(j) = m10 * a0 + m11 * a1;
            }
        }
    });
}

/// Applies a 4×4 gate to the qubit pair `(a, b)`, `a < b`, of every
/// statevector block in `amps`. Basis ordering within a quad follows
/// [`Matrix4`]: index `bit_a + 2·bit_b`.
///
/// # Panics
///
/// Panics (debug) if `a >= b` or `amps.len()` is not a multiple of
/// `2^(b+1)`.
pub(crate) fn apply_two(amps: &mut [Complex64], g: &Matrix4, a: usize, b: usize, threads: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        unsafe { simd::avx2::apply_two(amps, g, a, b, threads) };
        return;
    }
    apply_two_scalar(amps, g, a, b, threads)
}

/// Scalar tier of [`apply_two`].
pub(crate) fn apply_two_scalar(
    amps: &mut [Complex64],
    g: &Matrix4,
    a: usize,
    b: usize,
    threads: usize,
) {
    debug_assert!(a < b);
    debug_assert_eq!(amps.len() % (1 << (b + 1)), 0);
    let ma = 1usize << a;
    let mb = 1usize << b;
    let m = g.m;
    let quads = amps.len() / 4;
    let ptr = SendPtr(amps.as_mut_ptr());
    for_each_chunk(quads, amps.len(), threads, move |range| {
        let ptr = ptr;
        for k in range {
            let i00 = insert_zero_bit(insert_zero_bit(k, a), b);
            let i01 = i00 | ma;
            let i10 = i00 | mb;
            let i11 = i00 | ma | mb;
            // SAFETY: the four indices are distinct and the quad sets of
            // distinct k are disjoint; chunk ranges are disjoint.
            unsafe {
                let v0 = *ptr.0.add(i00);
                let v1 = *ptr.0.add(i01);
                let v2 = *ptr.0.add(i10);
                let v3 = *ptr.0.add(i11);
                *ptr.0.add(i00) = m[0][0] * v0 + m[0][1] * v1 + m[0][2] * v2 + m[0][3] * v3;
                *ptr.0.add(i01) = m[1][0] * v0 + m[1][1] * v1 + m[1][2] * v2 + m[1][3] * v3;
                *ptr.0.add(i10) = m[2][0] * v0 + m[2][1] * v1 + m[2][2] * v2 + m[2][3] * v3;
                *ptr.0.add(i11) = m[3][0] * v0 + m[3][1] * v1 + m[3][2] * v2 + m[3][3] * v3;
            }
        }
    });
}

/// Applies a controlled 2×2 gate (control `c`, target `t`), visiting only
/// the `2^n / 4` basis pairs with the control bit set — the sparse
/// structure a dense 4×4 embedding would throw away.
///
/// # Panics
///
/// Panics (debug) if `c == t` or the slice is not a multiple of the
/// enclosing block size.
pub(crate) fn apply_controlled(
    amps: &mut [Complex64],
    g: &Matrix2,
    c: usize,
    t: usize,
    threads: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        unsafe { simd::avx2::apply_controlled(amps, g, c, t, threads) };
        return;
    }
    apply_controlled_scalar(amps, g, c, t, threads)
}

/// Scalar tier of [`apply_controlled`].
pub(crate) fn apply_controlled_scalar(
    amps: &mut [Complex64],
    g: &Matrix2,
    c: usize,
    t: usize,
    threads: usize,
) {
    debug_assert_ne!(c, t);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    debug_assert_eq!(amps.len() % (1 << (hi + 1)), 0);
    let cmask = 1usize << c;
    let tmask = 1usize << t;
    let [[m00, m01], [m10, m11]] = g.m;
    let quads = amps.len() / 4;
    let ptr = SendPtr(amps.as_mut_ptr());
    for_each_chunk(quads, amps.len(), threads, move |range| {
        let ptr = ptr;
        for k in range {
            // Control bit forced to 1, target bit 0.
            let i = insert_zero_bit(insert_zero_bit(k, lo), hi) | cmask;
            let j = i | tmask;
            // SAFETY: disjoint pairs per k, disjoint chunk ranges.
            unsafe {
                let a0 = *ptr.0.add(i);
                let a1 = *ptr.0.add(j);
                *ptr.0.add(i) = m00 * a0 + m01 * a1;
                *ptr.0.add(j) = m10 * a0 + m11 * a1;
            }
        }
    });
}

/// Applies a multiplexed (uniformly-controlled) pair of 2×2 gates:
/// `a0` on `t` where bit `c` is 0, `a1` where it is 1. This preserves the
/// sparsity fusion would otherwise destroy — a controlled gate with an
/// absorbed target-side single costs 2 complex multiplies per amplitude
/// here versus 4 for a dense 4×4 embedding.
///
/// When `a0` is exactly the identity this degrades to the plain
/// controlled kernel (half the amplitudes untouched).
///
/// # Panics
///
/// Panics (debug) if `c == t` or the slice is not a multiple of the
/// enclosing block size.
pub(crate) fn apply_multiplexed(
    amps: &mut [Complex64],
    a0: &Matrix2,
    a1: &Matrix2,
    c: usize,
    t: usize,
    threads: usize,
) {
    if *a0 == Matrix2::identity() {
        apply_controlled(amps, a1, c, t, threads);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        unsafe { simd::avx2::apply_multiplexed(amps, a0, a1, c, t, threads) };
        return;
    }
    apply_multiplexed_scalar(amps, a0, a1, c, t, threads)
}

/// Scalar tier of [`apply_multiplexed`] (assumes the identity-`a0`
/// degradation was already handled by the dispatcher).
pub(crate) fn apply_multiplexed_scalar(
    amps: &mut [Complex64],
    a0: &Matrix2,
    a1: &Matrix2,
    c: usize,
    t: usize,
    threads: usize,
) {
    debug_assert_ne!(c, t);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    debug_assert_eq!(amps.len() % (1 << (hi + 1)), 0);
    let cmask = 1usize << c;
    let tmask = 1usize << t;
    let [[z00, z01], [z10, z11]] = a0.m;
    let [[o00, o01], [o10, o11]] = a1.m;
    let quads = amps.len() / 4;
    let ptr = SendPtr(amps.as_mut_ptr());
    for_each_chunk(quads, amps.len(), threads, move |range| {
        let ptr = ptr;
        for k in range {
            let base = insert_zero_bit(insert_zero_bit(k, lo), hi);
            let i0 = base;
            let j0 = base | tmask;
            let i1 = base | cmask;
            let j1 = i1 | tmask;
            // SAFETY: the four indices are distinct; quad sets of distinct
            // k are disjoint; chunk ranges are disjoint.
            unsafe {
                let x0 = *ptr.0.add(i0);
                let x1 = *ptr.0.add(j0);
                *ptr.0.add(i0) = z00 * x0 + z01 * x1;
                *ptr.0.add(j0) = z10 * x0 + z11 * x1;
                let y0 = *ptr.0.add(i1);
                let y1 = *ptr.0.add(j1);
                *ptr.0.add(i1) = o00 * y0 + o01 * y1;
                *ptr.0.add(j1) = o10 * y0 + o11 * y1;
            }
        }
    });
}

/// Fixed partial-sum granularity for [`reduce_chunks`]. The chunk size is
/// a constant — never derived from the thread count — so the grouping of
/// floating-point partial sums, and therefore the bit-exact result, is a
/// function of `total` alone. Any thread count (including 1) produces the
/// same chunk partials and the same left-to-right final accumulation.
const REDUCE_CHUNK: usize = 1 << 12;

/// Sums `work(range)` over `0..total`, splitting the range into
/// fixed-size [`REDUCE_CHUNK`] chunks whose partial sums are accumulated
/// left-to-right in chunk order. Threads only pick up disjoint slot
/// ranges of the partial-sum table, so the reduction order — and the
/// bit-exact floating-point result — is invariant under the thread
/// count. The reduction analogue of [`for_each_chunk`].
fn reduce_chunks<const N: usize>(
    total: usize,
    amps_len: usize,
    threads: usize,
    work: impl Fn(std::ops::Range<usize>) -> [Complex64; N] + Sync,
) -> [Complex64; N] {
    if amps_len < PARALLEL_MIN_AMPS || total <= REDUCE_CHUNK {
        return work(0..total);
    }
    let chunks = total.div_ceil(REDUCE_CHUNK);
    let mut partials = vec![[Complex64::ZERO; N]; chunks];
    let slot_range = |slot: usize| {
        let lo = slot * REDUCE_CHUNK;
        lo..(lo + REDUCE_CHUNK).min(total)
    };
    if threads <= 1 {
        for (slot, part) in partials.iter_mut().enumerate() {
            *part = work(slot_range(slot));
        }
    } else {
        let per = chunks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slots) in partials.chunks_mut(per).enumerate() {
                let work = &work;
                let slot_range = &slot_range;
                scope.spawn(move || {
                    for (k, part) in slots.iter_mut().enumerate() {
                        *part = work(slot_range(t * per + k));
                    }
                });
            }
        });
    }
    let mut acc = [Complex64::ZERO; N];
    for part in &partials {
        for (a, p) in acc.iter_mut().zip(part) {
            *a += *p;
        }
    }
    acc
}

// ---- Adjoint backward-step kernels -----------------------------------------
//
// One fused op's entire backward step in a single pass: `ket := G† ket`,
// `bra := G† bra`, plus the *reduction matrix* `R[x][y] = Σ k'_x·conj(b_y)`
// accumulated over all pairs/quads (with `b` read BEFORE its update, as
// the adjoint method requires). Every recorded derivative `D` of the op
// then contributes `⟨bra|D|ket⟩ = Σ_{r,c} D[r][c]·R[c][r]` in O(1) —
// independent of both the state size and the number of trainable angles
// the op absorbed. This is what turns the adjoint backward sweep from
// one array pass per *angle* (720 on the paper ansatz) into one array
// pass per *fused op* (~121).

/// Backward step for a fused single-qubit op: applies the (already
/// daggered) `g` to `ket` and `bra` on qubit `q` and returns the 2×2
/// reduction matrix over all pairs.
pub(crate) fn backward_step_one(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    g: &Matrix2,
    q: usize,
    threads: usize,
) -> Matrix2 {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        return unsafe { simd::avx2::backward_step_one(ket, bra, g, q, threads) };
    }
    backward_step_one_scalar(ket, bra, g, q, threads)
}

/// Scalar tier of [`backward_step_one`].
pub(crate) fn backward_step_one_scalar(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    g: &Matrix2,
    q: usize,
    threads: usize,
) -> Matrix2 {
    debug_assert_eq!(bra.len(), ket.len());
    debug_assert_eq!(ket.len() % (1 << (q + 1)), 0);
    let mask = 1usize << q;
    let [[g00, g01], [g10, g11]] = g.m;
    let pairs = ket.len() / 2;
    let kp = SendPtr(ket.as_mut_ptr());
    let bp = SendPtr(bra.as_mut_ptr());
    let r = reduce_chunks::<4>(pairs, ket.len(), threads, move |range| {
        let (kp, bp) = (kp, bp);
        let mut acc = [Complex64::ZERO; 4];
        for k in range {
            let i = insert_zero_bit(k, q);
            let j = i | mask;
            // SAFETY: i != j, distinct k map to disjoint pairs, chunk
            // ranges are disjoint — no two threads alias.
            unsafe {
                let k0 = *kp.0.add(i);
                let k1 = *kp.0.add(j);
                let nk0 = g00 * k0 + g01 * k1;
                let nk1 = g10 * k0 + g11 * k1;
                *kp.0.add(i) = nk0;
                *kp.0.add(j) = nk1;
                let b0 = *bp.0.add(i);
                let b1 = *bp.0.add(j);
                let c0 = b0.conj();
                let c1 = b1.conj();
                acc[0] += nk0 * c0;
                acc[1] += nk0 * c1;
                acc[2] += nk1 * c0;
                acc[3] += nk1 * c1;
                *bp.0.add(i) = g00 * b0 + g01 * b1;
                *bp.0.add(j) = g10 * b0 + g11 * b1;
            }
        }
        acc
    });
    Matrix2 {
        m: [[r[0], r[1]], [r[2], r[3]]],
    }
}

/// Backward step for a multiplexed op: applies the (already daggered)
/// branches `z`/`o` on the control-0/control-1 subspaces and returns the
/// pair of per-branch 2×2 reduction matrices.
pub(crate) fn backward_step_multiplexed(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    z: &Matrix2,
    o: &Matrix2,
    c: usize,
    t: usize,
    threads: usize,
) -> (Matrix2, Matrix2) {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        return unsafe { simd::avx2::backward_step_multiplexed(ket, bra, z, o, c, t, threads) };
    }
    backward_step_multiplexed_scalar(ket, bra, z, o, c, t, threads)
}

/// Scalar tier of [`backward_step_multiplexed`].
pub(crate) fn backward_step_multiplexed_scalar(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    z: &Matrix2,
    o: &Matrix2,
    c: usize,
    t: usize,
    threads: usize,
) -> (Matrix2, Matrix2) {
    debug_assert_eq!(bra.len(), ket.len());
    debug_assert_ne!(c, t);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    debug_assert_eq!(ket.len() % (1 << (hi + 1)), 0);
    let cmask = 1usize << c;
    let tmask = 1usize << t;
    let [[z00, z01], [z10, z11]] = z.m;
    let [[o00, o01], [o10, o11]] = o.m;
    let quads = ket.len() / 4;
    let kp = SendPtr(ket.as_mut_ptr());
    let bp = SendPtr(bra.as_mut_ptr());
    let r = reduce_chunks::<8>(quads, ket.len(), threads, move |range| {
        let (kp, bp) = (kp, bp);
        let mut acc = [Complex64::ZERO; 8];
        for k in range {
            let base = insert_zero_bit(insert_zero_bit(k, lo), hi);
            // SAFETY: the four indices are distinct per k, quad sets of
            // distinct k are disjoint, chunk ranges are disjoint.
            unsafe {
                let i = base;
                let j = base | tmask;
                let k0 = *kp.0.add(i);
                let k1 = *kp.0.add(j);
                let nk0 = z00 * k0 + z01 * k1;
                let nk1 = z10 * k0 + z11 * k1;
                *kp.0.add(i) = nk0;
                *kp.0.add(j) = nk1;
                let b0 = *bp.0.add(i);
                let b1 = *bp.0.add(j);
                let c0 = b0.conj();
                let c1 = b1.conj();
                acc[0] += nk0 * c0;
                acc[1] += nk0 * c1;
                acc[2] += nk1 * c0;
                acc[3] += nk1 * c1;
                *bp.0.add(i) = z00 * b0 + z01 * b1;
                *bp.0.add(j) = z10 * b0 + z11 * b1;

                let i = base | cmask;
                let j = i | tmask;
                let k0 = *kp.0.add(i);
                let k1 = *kp.0.add(j);
                let nk0 = o00 * k0 + o01 * k1;
                let nk1 = o10 * k0 + o11 * k1;
                *kp.0.add(i) = nk0;
                *kp.0.add(j) = nk1;
                let b0 = *bp.0.add(i);
                let b1 = *bp.0.add(j);
                let c0 = b0.conj();
                let c1 = b1.conj();
                acc[4] += nk0 * c0;
                acc[5] += nk0 * c1;
                acc[6] += nk1 * c0;
                acc[7] += nk1 * c1;
                *bp.0.add(i) = o00 * b0 + o01 * b1;
                *bp.0.add(j) = o10 * b0 + o11 * b1;
            }
        }
        acc
    });
    (
        Matrix2 {
            m: [[r[0], r[1]], [r[2], r[3]]],
        },
        Matrix2 {
            m: [[r[4], r[5]], [r[6], r[7]]],
        },
    )
}

/// Backward step for a dense two-qubit op (`a < b`, [`Matrix4`] basis
/// convention): applies the (already daggered) `g` and returns the 4×4
/// reduction matrix over all quads.
pub(crate) fn backward_step_two(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    g: &Matrix4,
    a: usize,
    b: usize,
    threads: usize,
) -> Matrix4 {
    // The a == 0 layout (no contiguous quad runs) stays on the scalar
    // tier: dense two-qubit ops are rare in fused circuits (the paper
    // ansatz compiles to none) and the adjacent-lane accumulator shuffle
    // is not worth the code for a cold path.
    #[cfg(target_arch = "x86_64")]
    if a > 0 && simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        return unsafe { simd::avx2::backward_step_two(ket, bra, g, a, b, threads) };
    }
    backward_step_two_scalar(ket, bra, g, a, b, threads)
}

/// Scalar tier of [`backward_step_two`].
pub(crate) fn backward_step_two_scalar(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    g: &Matrix4,
    a: usize,
    b: usize,
    threads: usize,
) -> Matrix4 {
    debug_assert_eq!(bra.len(), ket.len());
    debug_assert!(a < b);
    debug_assert_eq!(ket.len() % (1 << (b + 1)), 0);
    let ma = 1usize << a;
    let mb = 1usize << b;
    let m = g.m;
    let quads = ket.len() / 4;
    let kp = SendPtr(ket.as_mut_ptr());
    let bp = SendPtr(bra.as_mut_ptr());
    let r = reduce_chunks::<16>(quads, ket.len(), threads, move |range| {
        let (kp, bp) = (kp, bp);
        let mut acc = [Complex64::ZERO; 16];
        for k in range {
            let i00 = insert_zero_bit(insert_zero_bit(k, a), b);
            let idx = [i00, i00 | ma, i00 | mb, i00 | ma | mb];
            // SAFETY: distinct indices per k, disjoint quads, disjoint
            // chunk ranges.
            unsafe {
                let kv = idx.map(|i| *kp.0.add(i));
                let bv = idx.map(|i| *bp.0.add(i));
                let cv = bv.map(Complex64::conj);
                for (r_idx, &i) in idx.iter().enumerate() {
                    let nk = m[r_idx][0] * kv[0]
                        + m[r_idx][1] * kv[1]
                        + m[r_idx][2] * kv[2]
                        + m[r_idx][3] * kv[3];
                    *kp.0.add(i) = nk;
                    for (col, &cb) in cv.iter().enumerate() {
                        acc[r_idx * 4 + col] += nk * cb;
                    }
                    let nb = m[r_idx][0] * bv[0]
                        + m[r_idx][1] * bv[1]
                        + m[r_idx][2] * bv[2]
                        + m[r_idx][3] * bv[3];
                    *bp.0.add(i) = nb;
                }
            }
        }
        acc
    });
    let mut out = Matrix4::zero();
    for row in 0..4 {
        for col in 0..4 {
            out.m[row][col] = r[row * 4 + col];
        }
    }
    out
}

/// Swaps qubits `a` and `b` in every block of `amps`.
///
/// # Panics
///
/// Panics (debug) if `a == b` or the slice is not a multiple of the
/// enclosing block size.
pub(crate) fn apply_swap(amps: &mut [Complex64], a: usize, b: usize, threads: usize) {
    debug_assert_ne!(a, b);
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    debug_assert_eq!(amps.len() % (1 << (hi + 1)), 0);
    let lomask = 1usize << lo;
    let himask = 1usize << hi;
    let quads = amps.len() / 4;
    let ptr = SendPtr(amps.as_mut_ptr());
    for_each_chunk(quads, amps.len(), threads, move |range| {
        let ptr = ptr;
        for k in range {
            let base = insert_zero_bit(insert_zero_bit(k, lo), hi);
            let i01 = base | lomask;
            let i10 = base | himask;
            // SAFETY: disjoint pairs per k, disjoint chunk ranges.
            unsafe {
                std::ptr::swap(ptr.0.add(i01), ptr.0.add(i10));
            }
        }
    });
}

// ---- Vectorized reductions -------------------------------------------------
//
// The norm²/probability/expectation sweeps the observable layer runs after
// every forward pass are pure reductions over the amplitude array; they
// share the SIMD dispatch with the gate kernels. All three keep the same
// left-to-right association as the scalar loops within each 4-wide block,
// so the scalar tier remains bit-identical to the pre-SIMD engine.

/// `Σ |aᵢ|²` over the slice (the squared norm).
pub(crate) fn norm_sqr_sum(amps: &[Complex64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        return unsafe { simd::avx2::norm_sqr_sum(amps) };
    }
    amps.iter().map(|a| a.norm_sqr()).sum()
}

/// Writes `|aᵢ|²` per amplitude into `out`.
///
/// # Panics
///
/// Panics (debug) if the lengths differ.
pub(crate) fn probabilities_into(amps: &[Complex64], out: &mut [f64]) {
    debug_assert_eq!(amps.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        unsafe { simd::avx2::probabilities_into(amps, out) };
        return;
    }
    for (o, a) in out.iter_mut().zip(amps) {
        *o = a.norm_sqr();
    }
}

/// `Σ dᵢ·|aᵢ|²` — the expectation of a diagonal observable.
///
/// # Panics
///
/// Panics (debug) if the lengths differ.
pub(crate) fn expectation_diag(amps: &[Complex64], diag: &[f64]) -> f64 {
    debug_assert_eq!(amps.len(), diag.len());
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: avx2 tier implies runtime AVX2+FMA support.
        return unsafe { simd::avx2::expectation_diag(amps, diag) };
    }
    amps.iter().zip(diag).map(|(a, d)| a.norm_sqr() * d).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_amps(n_qubits: usize, seed: u64) -> Vec<Complex64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << n_qubits)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// Reference kernels: the seed's masked full-scan loops.
    fn naive_one(amps: &mut [Complex64], g: &Matrix2, q: usize) {
        let mask = 1usize << q;
        let [[m00, m01], [m10, m11]] = g.m;
        for i in 0..amps.len() {
            if i & mask == 0 {
                let j = i | mask;
                let a0 = amps[i];
                let a1 = amps[j];
                amps[i] = m00 * a0 + m01 * a1;
                amps[j] = m10 * a0 + m11 * a1;
            }
        }
    }

    fn naive_controlled(amps: &mut [Complex64], g: &Matrix2, c: usize, t: usize) {
        let cmask = 1usize << c;
        let tmask = 1usize << t;
        let [[m00, m01], [m10, m11]] = g.m;
        for i in 0..amps.len() {
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                let a0 = amps[i];
                let a1 = amps[j];
                amps[i] = m00 * a0 + m01 * a1;
                amps[j] = m10 * a0 + m11 * a1;
            }
        }
    }

    fn assert_amps_eq(a: &[Complex64], b: &[Complex64], tol: f64) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).norm() < tol, "amplitude {i}: {x:?} vs {y:?}");
        }
    }

    /// The partial-sum grouping of `reduce_chunks` must be a function of
    /// `total` alone — never of the thread count — so that gradients are
    /// bit-identical whatever thread budget a backend was handed.
    #[test]
    fn reduce_chunks_is_bitwise_thread_invariant() {
        // Non-associative-friendly work: wildly varying magnitudes so any
        // regrouping of the floating-point sums would change low bits.
        let work = |range: std::ops::Range<usize>| {
            let mut acc = [Complex64::ZERO; 4];
            for k in range {
                let x = ((k as f64) * 0.7390851332151607).sin() * 1e8f64.powf((k % 7) as f64 / 6.0 - 0.5);
                let y = ((k as f64) * 1.324_717_957_244_746).cos() * 1e6f64.powf((k % 5) as f64 / 4.0 - 0.5);
                for (s, a) in acc.iter_mut().enumerate() {
                    *a += Complex64::new(x * (s as f64 + 1.0), y - s as f64);
                }
            }
            acc
        };
        // amps_len at the parallel threshold, total spanning many chunks
        // (not a multiple of REDUCE_CHUNK, to cover the ragged tail).
        let total = (1 << 14) + 123;
        let amps_len = PARALLEL_MIN_AMPS;
        let reference = reduce_chunks::<4>(total, amps_len, 1, work);
        for threads in [2, 3, 5, 8] {
            let got = reduce_chunks::<4>(total, amps_len, threads, work);
            for (slot, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    r.re.to_bits(),
                    g.re.to_bits(),
                    "slot {slot} re differs at {threads} threads"
                );
                assert_eq!(
                    r.im.to_bits(),
                    g.im.to_bits(),
                    "slot {slot} im differs at {threads} threads"
                );
            }
        }
        // The small-state single-sweep path must agree with itself too
        // (trivially) and stay in use below the parallel threshold.
        let small = reduce_chunks::<4>(256, 512, 8, work);
        let small_ref = work(0..256);
        for (r, g) in small_ref.iter().zip(&small) {
            assert_eq!(r.re.to_bits(), g.re.to_bits());
            assert_eq!(r.im.to_bits(), g.im.to_bits());
        }
    }

    #[test]
    fn branch_free_one_matches_naive() {
        let g = Matrix2::u3(0.7, -0.4, 1.2);
        for q in 0..5 {
            let mut fast = random_amps(5, 11);
            let mut slow = fast.clone();
            apply_one(&mut fast, &g, q, simulation_threads());
            naive_one(&mut slow, &g, q);
            assert_amps_eq(&fast, &slow, 1e-14);
        }
    }

    #[test]
    fn branch_free_controlled_matches_naive() {
        let g = Matrix2::u3(1.1, 0.3, -0.8);
        for (c, t) in [(0usize, 4usize), (4, 0), (2, 3), (3, 2)] {
            let mut fast = random_amps(5, 7);
            let mut slow = fast.clone();
            apply_controlled(&mut fast, &g, c, t, simulation_threads());
            naive_controlled(&mut slow, &g, c, t);
            assert_amps_eq(&fast, &slow, 1e-14);
        }
    }

    #[test]
    fn two_qubit_kernel_matches_composed_embeddings() {
        // A dense 4×4 built as CU3 · (I ⊗ u3) must equal applying the u3
        // then the controlled gate with the 2×2 kernels.
        let u = Matrix2::u3(0.5, 0.9, -1.3);
        let cg = Matrix2::u3(-0.6, 0.2, 0.7);
        for (a, b, control_on_low) in [(0usize, 3usize, true), (1, 4, false)] {
            let fused = Matrix4::controlled(&cg, control_on_low).matmul(&Matrix4::single_on_low(&u));
            let mut via_fused = random_amps(5, 23);
            let mut via_steps = via_fused.clone();
            apply_two(&mut via_fused, &fused, a, b, 1);
            apply_one(&mut via_steps, &u, a, 1);
            let (c, t) = if control_on_low { (a, b) } else { (b, a) };
            apply_controlled(&mut via_steps, &cg, c, t, 1);
            assert_amps_eq(&via_fused, &via_steps, 1e-13);
        }
    }

    #[test]
    fn multiplexed_kernel_matches_two_step_reference() {
        let a0 = Matrix2::u3(0.3, -0.9, 0.4);
        let a1 = Matrix2::u3(1.2, 0.1, -0.6);
        for (c, t) in [(0usize, 3usize), (3, 0), (2, 4)] {
            let mut fast = random_amps(5, 31);
            let mut slow = fast.clone();
            apply_multiplexed(&mut fast, &a0, &a1, c, t, simulation_threads());
            // Reference: a0 everywhere, then "undo a0 / apply a1" on the
            // control-set half.
            naive_one(&mut slow, &a0, t);
            let fixup = a1.matmul(&a0.dagger());
            naive_controlled(&mut slow, &fixup, c, t);
            assert_amps_eq(&fast, &slow, 1e-13);
        }
    }

    #[test]
    fn multiplexed_with_identity_a0_equals_controlled() {
        let g = Matrix2::u3(0.8, 0.2, -1.4);
        let mut fast = random_amps(4, 9);
        let mut slow = fast.clone();
        apply_multiplexed(&mut fast, &Matrix2::identity(), &g, 1, 3, 1);
        naive_controlled(&mut slow, &g, 1, 3);
        assert_amps_eq(&fast, &slow, 1e-14);
    }

    #[test]
    fn swap_kernel_is_involutive_and_moves_bits() {
        let mut amps = random_amps(4, 3);
        let orig = amps.clone();
        apply_swap(&mut amps, 1, 3, 1);
        assert!(amps.iter().zip(&orig).any(|(x, y)| (*x - *y).norm() > 1e-12));
        apply_swap(&mut amps, 3, 1, 1);
        assert_amps_eq(&amps, &orig, 1e-15); // pure permutation: bit-exact
    }

    #[test]
    fn kernels_apply_per_block_on_batched_layouts() {
        // Two concatenated 3-qubit blocks must evolve independently.
        let block_a = random_amps(3, 1);
        let block_b = random_amps(3, 2);
        let mut batched: Vec<Complex64> = block_a.iter().chain(&block_b).copied().collect();
        let g = Matrix2::h();
        apply_one(&mut batched, &g, 1, 1);
        let mut expect_a = block_a;
        let mut expect_b = block_b;
        apply_one(&mut expect_a, &g, 1, 1);
        apply_one(&mut expect_b, &g, 1, 1);
        assert_amps_eq(&batched[..8], &expect_a, 1e-14);
        assert_amps_eq(&batched[8..], &expect_b, 1e-14);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Force the chunked path by exceeding the amplitude threshold.
        let n = 16; // 65536 amplitudes >= PARALLEL_MIN_AMPS
        let g = Matrix2::u3(0.3, 0.8, -0.2);
        let g4 = Matrix4::controlled(&Matrix2::ry(0.77), true).matmul(&Matrix4::single_on_high(&g));
        let mut parallel = random_amps(n, 5);
        let mut serial = parallel.clone();

        apply_one(&mut parallel, &g, n - 1, simulation_threads());
        apply_two(&mut parallel, &g4, 2, n - 2, simulation_threads());

        // Serial reference on the same data via chunk-free loops.
        naive_one(&mut serial, &g, n - 1);
        let quads = serial.len() / 4;
        let (a, b) = (2usize, n - 2);
        let (ma, mb) = (1usize << a, 1usize << b);
        for k in 0..quads {
            let i00 = insert_zero_bit(insert_zero_bit(k, a), b);
            let v = [
                serial[i00],
                serial[i00 | ma],
                serial[i00 | mb],
                serial[i00 | ma | mb],
            ];
            for (r, idx) in [i00, i00 | ma, i00 | mb, i00 | ma | mb].into_iter().enumerate() {
                serial[idx] =
                    g4.m[r][0] * v[0] + g4.m[r][1] * v[1] + g4.m[r][2] * v[2] + g4.m[r][3] * v[3];
            }
        }
        assert_amps_eq(&parallel, &serial, 1e-13);
    }
}
