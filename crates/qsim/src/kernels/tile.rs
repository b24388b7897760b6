//! Cache-blocked, batch-major SIMD sweeps for [`crate::BatchedState`].
//!
//! The interleaved kernels in [`super::simd`] put two *amplitudes of one
//! member* in a register, which forces per-qubit-position layouts (the
//! `q = 0` butterfly needs in-register shuffles). This module uses the
//! orthogonal decomposition: a register holds the **same amplitude index
//! of several batch members**, stored as split re/im planes
//! (`re[idx·G + member]`). In that layout every gate — any qubit
//! position, controlled or dense — is a pure broadcast-FMA with zero
//! shuffles, and the control-clear half of a controlled op is skipped
//! exactly like the scalar kernels do.
//!
//! One tile body serves two register widths. It is generic over the
//! [`Lane`] trait, implemented for `__m256d` (G = 4 members per AVX2
//! register) and for `__m512d` (G = 8 per 512-bit register, where
//! `avx512f` is available: twice the f64 FMA throughput on server cores
//! with dual 512-bit FMA ports — the fused-ansatz sweep is
//! FMA-port-bound, so the wider tile is where most of the batched
//! speedup comes from). Each width has one `#[target_feature]` entry,
//! [`Lane::sweep`], that instantiates the generic body; the lane methods
//! and the body are `#[inline(always)]`, so an entry compiles to inline
//! intrinsics with no calls. [`apply_members`] dispatches widest-first
//! and leaves any remainder to the caller's per-member path. The
//! backward sweep is reduction-heavy and runs at G = 4 only.
//!
//! A group of members is transposed into a thread-local scratch tile
//! once, swept through **all** fused ops of the circuit, and transposed
//! back out. Two cache refinements keep the hot loops fed:
//!
//! * **L1-chunked sweeps.** A full tile is `G·dim` complex amplitudes —
//!   128 KiB at 10 qubits for the 4-member tile, which no longer fits
//!   L1. Maximal runs of ops whose [`op_span`] fits an L1-sized window
//!   ([`Lane::CHUNK_AMPS`]) are applied chunk-by-chunk: every op of
//!   the run visits one aligned window before the sweep moves to the
//!   next, so the window stays L1-resident across the whole run. Ops
//!   spanning the top qubits (24 of the paper ansatz's 121 fused ops
//!   touch q9) are applied whole-tile between runs. The reordering is
//!   bit-transparent: an op with span ≤ chunk is block-diagonal over
//!   aligned windows, so the same FP operations run in the same
//!   per-amplitude order.
//! * **Blocked transposes.** The member-major↔plane transpose is done in
//!   `TRANSPOSE_BLOCK`-amplitude blocks so the strided plane accesses
//!   reuse L1 lines instead of touching a fresh cache line per scalar —
//!   without blocking the transposes re-streamed the whole tile once
//!   per member and cost ~20% of the sweep.
//!
//! Entry points return the number of members handled (a multiple of 4,
//! or 0 when the SIMD tier is off or the arch is not x86-64); callers
//! run the remainder through the per-member path.

#![allow(dead_code)] // the non-x86 build compiles the entry points only

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::cell::RefCell;

use super::{insert_zero_bit, simd};
use crate::adjoint::{contract, Reduction};
use crate::fusion::{CompiledCircuit, DerivKind, FusedOp};
use crate::gates::{Matrix2, Matrix4};
use crate::Complex64;

/// Smallest aligned window size an op is block-diagonal over:
/// `2^(highest qubit + 1)` amplitudes. The sweep plans its L1-blocked
/// runs with it.
fn op_span(op: &FusedOp) -> usize {
    let top = match op {
        FusedOp::One { q, .. } => *q,
        FusedOp::Multiplexed { c, t, .. } => (*c).max(*t),
        FusedOp::Two { a, b, .. } => (*a).max(*b),
    };
    1usize << (top + 1)
}

/// Batch-major forward sweep: applies `ops` to as many leading groups of
/// members of `amps` (member-major, `dim` amplitudes each) as the tile
/// layout covers. Returns the number of members handled.
pub(crate) fn apply_members(ops: &[FusedOp], amps: &mut [Complex64], dim: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if simd::level() == simd::SimdLevel::Avx2 && dim >= 2 {
            // Widest groups first: eight-member 512-bit tiles where the
            // CPU has them, four-member 256-bit tiles on the remainder,
            // per-member kernels (the caller's job) on what's left.
            let mut done = 0;
            if simd::avx512_tile() {
                // SAFETY: `avx512_tile` checked that the CPU has AVX-512F.
                done = unsafe { forward_groups::<__m512d>(ops, amps, dim) };
            }
            // SAFETY: the avx2 tier is active, so the CPU has AVX2 and FMA.
            done += unsafe { forward_groups::<__m256d>(ops, &mut amps[done * dim..], dim) };
            return done;
        }
    }
    let _ = (ops, amps, dim);
    0
}

/// Batch-major backward sweep: the tile analogue of the per-member
/// adjoint pass. `ket`/`bra` hold member-major amplitudes, `grads` holds
/// member-major gradient rows of `num_slots` entries for the same
/// members. Returns the number of members handled.
pub(crate) fn backward_members(
    compiled: &CompiledCircuit,
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    grads: &mut [f64],
    dim: usize,
    num_slots: usize,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if simd::level() == simd::SimdLevel::Avx2 && dim >= 2 {
            return backward_groups::<__m256d>(ket, bra, grads, dim, num_slots, |k, b, g| {
                // SAFETY: the avx2 tier is active, so the CPU has AVX2
                // and FMA; `backward_groups` hands over one group's
                // tiles and its gradient rows.
                unsafe { backward_sweep_w4(compiled, k, b, dim, g, num_slots) }
            });
        }
    }
    let _ = (compiled, ket, bra, grads, dim, num_slots);
    0
}

/// The backward entry: the generic reverse sweep compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn backward_sweep_w4(
    compiled: &CompiledCircuit,
    ket: Plane,
    bra: Plane,
    dim: usize,
    grads: &mut [f64],
    num_slots: usize,
) {
    backward_sweep::<__m256d>(compiled, ket, bra, dim, grads, num_slots)
}

// ---- Lanes -----------------------------------------------------------------

/// One SIMD register of `G` f64 lanes; in a tile, lane `m` holds member
/// `m`'s value at one amplitude index.
///
/// The lane methods are `#[inline(always)]`, so the generic tile body
/// compiles into each width's `#[target_feature]` entry ([`Lane::sweep`],
/// and `backward_sweep_w4` at G = 4) with the intrinsics inlined rather
/// than called.
///
/// # Safety
///
/// Each method needs the CPU features of its register type (`avx2` and
/// `fma` for `__m256d`, `avx512f` for `__m512d`); `load` and `store`
/// need `p` valid for `G` consecutive `f64`s.
trait Lane: Copy {
    /// Members per register.
    const G: usize;

    /// L1-blocking chunk, in amplitudes. One chunk's working set is
    /// `2 planes × G lanes × CHUNK_AMPS × 8 B = 32 KiB` at every width —
    /// inside a 48 KiB L1d with room for the coefficient broadcasts.
    /// Above ~9 qubits the full group tile (64 KiB at 10 qubits) no
    /// longer fits L1, and streaming it from L2 once per op erases the
    /// tile's fewer-ops advantage over the per-member path; chunked runs
    /// keep the hot window L1-resident across consecutive low-qubit ops.
    const CHUNK_AMPS: usize = 2048 / Self::G;

    /// The `G` values at `p`.
    unsafe fn load(p: *const f64) -> Self;
    /// Writes the `G` values to `p`.
    unsafe fn store(self, p: *mut f64);
    /// `x` in every lane.
    unsafe fn splat(x: f64) -> Self;
    /// `self·b` lane-wise.
    unsafe fn mul(self, b: Self) -> Self;
    /// `self·b + c` lane-wise, rounded once.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// `c − self·b` lane-wise, rounded once.
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self;

    /// The value in lane `m`.
    #[inline(always)]
    unsafe fn lane(self, m: usize) -> f64 {
        // Room for the widest register's lanes, so `store` stays in bounds.
        const { assert!(Self::G <= 8) };
        let mut lanes = [0.0; 8];
        self.store(lanes.as_mut_ptr());
        lanes[m]
    }

    /// This width's forward entry: [`tile_sweep`] compiled with the
    /// register's instructions.
    unsafe fn sweep(p: Plane, dim: usize, ops: &[FusedOp]);
}

#[cfg(target_arch = "x86_64")]
impl Lane for __m256d {
    const G: usize = 4;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm256_loadu_pd(p)
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm256_storeu_pd(p, self)
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm256_set1_pd(x)
    }

    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_pd(self, b)
    }

    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm256_fmadd_pd(self, b, c)
    }

    #[inline(always)]
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
        _mm256_fnmadd_pd(self, b, c)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn sweep(p: Plane, dim: usize, ops: &[FusedOp]) {
        tile_sweep::<Self>(p, dim, ops)
    }
}

#[cfg(target_arch = "x86_64")]
impl Lane for __m512d {
    const G: usize = 8;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm512_loadu_pd(p)
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm512_storeu_pd(p, self)
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm512_set1_pd(x)
    }

    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_pd(self, b)
    }

    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm512_fmadd_pd(self, b, c)
    }

    #[inline(always)]
    unsafe fn fnmadd(self, b: Self, c: Self) -> Self {
        _mm512_fnmadd_pd(self, b, c)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn sweep(p: Plane, dim: usize, ops: &[FusedOp]) {
        tile_sweep::<Self>(p, dim, ops)
    }
}

/// One split-plane tile: `re[idx·G + m]` / `im[idx·G + m]` for the `G`
/// members of the current group. Raw pointers into the thread-local
/// scratch; never shared across threads.
#[derive(Clone, Copy)]
struct Plane {
    re: *mut f64,
    im: *mut f64,
}

impl Plane {
    /// The re and im halves of `scratch`.
    fn new(scratch: &mut [f64]) -> Self {
        let (re, im) = scratch.split_at_mut(scratch.len() / 2);
        Self {
            re: re.as_mut_ptr(),
            im: im.as_mut_ptr(),
        }
    }
}

/// `G` members' worth of one amplitude index.
#[derive(Clone, Copy)]
struct V<L> {
    re: L,
    im: L,
}

impl<L: Lane> V<L> {
    #[inline(always)]
    unsafe fn zero() -> Self {
        Self {
            re: L::splat(0.0),
            im: L::splat(0.0),
        }
    }

    #[inline(always)]
    unsafe fn load(p: Plane, idx: usize) -> Self {
        Self {
            re: L::load(p.re.add(idx * L::G)),
            im: L::load(p.im.add(idx * L::G)),
        }
    }

    #[inline(always)]
    unsafe fn store(self, p: Plane, idx: usize) {
        self.re.store(p.re.add(idx * L::G));
        self.im.store(p.im.add(idx * L::G));
    }

    /// `acc + self·conj(b)` lane-wise — the reduction product of the
    /// backward steps.
    #[inline(always)]
    unsafe fn mul_conj_add(self, b: Self, acc: Self) -> Self {
        Self {
            re: self.re.fmadd(b.re, self.im.fmadd(b.im, acc.re)),
            im: self.re.fnmadd(b.im, self.im.fmadd(b.re, acc.im)),
        }
    }

    /// Member `m`'s value.
    #[inline(always)]
    unsafe fn lane(self, m: usize) -> Complex64 {
        Complex64::new(self.re.lane(m), self.im.lane(m))
    }
}

/// A complex coefficient broadcast across the member lanes.
#[derive(Clone, Copy)]
struct K<L> {
    rr: L,
    ii: L,
}

impl<L: Lane> K<L> {
    #[inline(always)]
    unsafe fn new(c: Complex64) -> Self {
        Self {
            rr: L::splat(c.re),
            ii: L::splat(c.im),
        }
    }

    /// `self·v`.
    #[inline(always)]
    unsafe fn mul(self, v: V<L>) -> V<L> {
        V {
            re: v.im.fnmadd(self.ii, v.re.mul(self.rr)),
            im: v.re.fmadd(self.ii, v.im.mul(self.rr)),
        }
    }

    /// `acc + self·v`.
    #[inline(always)]
    unsafe fn mul_add(self, v: V<L>, acc: V<L>) -> V<L> {
        V {
            re: v.im.fnmadd(self.ii, v.re.fmadd(self.rr, acc.re)),
            im: v.re.fmadd(self.ii, v.im.fmadd(self.rr, acc.im)),
        }
    }
}

/// Broadcast coefficients of an N×N gate matrix (2×2 or 4×4).
#[derive(Clone, Copy)]
struct Coefs<L, const N: usize> {
    k: [[K<L>; N]; N],
}

impl<L: Lane, const N: usize> Coefs<L, N> {
    #[inline(always)]
    unsafe fn new(m: &[[Complex64; N]; N]) -> Self {
        let mut k = [[K::new(Complex64::ZERO); N]; N];
        for (row, mrow) in k.iter_mut().zip(m) {
            for (coef, entry) in row.iter_mut().zip(mrow) {
                *coef = K::new(*entry);
            }
        }
        Self { k }
    }
}

impl<L: Lane> Coefs<L, 2> {
    /// The 2×2 applied to the pair `(v0, v1)`.
    #[inline(always)]
    unsafe fn apply(self, v0: V<L>, v1: V<L>) -> (V<L>, V<L>) {
        // Canonical 2×2 row order (cross-layout bit-identity contract):
        // fold column 1 first, then fuse column 0 on top, matching the
        // interleaved kernels' `bfly2`/two-stream bodies exactly.
        (
            self.k[0][0].mul_add(v0, self.k[0][1].mul(v1)),
            self.k[1][0].mul_add(v0, self.k[1][1].mul(v1)),
        )
    }

    /// In-place butterfly on amplitude indices `i`, `j`.
    #[inline(always)]
    unsafe fn butterfly(self, p: Plane, i: usize, j: usize) {
        let (vi, vj) = self.apply(V::load(p, i), V::load(p, j));
        vi.store(p, i);
        vj.store(p, j);
    }
}

impl<L: Lane> Coefs<L, 4> {
    /// Row `row` of the 4×4 applied to the quad `v`, in the canonical
    /// order: column 1 fused onto column 0, then columns 2 and 3.
    #[inline(always)]
    unsafe fn row(&self, row: usize, v: &[V<L>; 4]) -> V<L> {
        let krow = &self.k[row];
        let acc = krow[1].mul_add(v[1], krow[0].mul(v[0]));
        let acc = krow[2].mul_add(v[2], acc);
        krow[3].mul_add(v[3], acc)
    }
}

/// The four amplitude indices `idx` of a tile.
#[inline(always)]
unsafe fn load4<L: Lane>(p: Plane, idx: &[usize; 4]) -> [V<L>; 4] {
    [
        V::load(p, idx[0]),
        V::load(p, idx[1]),
        V::load(p, idx[2]),
        V::load(p, idx[3]),
    ]
}

// ---- Scratch and transposes ------------------------------------------------

/// Runs `f` on the thread's tile scratch, cut to `len` f64s. The scratch
/// is grown once and reused by both widths and both directions, which
/// keeps the engine's zero-steady-state-allocation contract; every sweep
/// transposes a whole group in before reading it.
fn with_scratch(len: usize, f: impl FnOnce(&mut [f64])) {
    std::thread_local! {
        static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        f(&mut scratch[..len]);
    });
}

/// Amp-index block size for the transposes: all members of the group
/// fill (or drain) one block of tile rows before moving on, so the
/// stride-`G` side of the transpose stays within a few KiB of
/// L1-resident lines instead of streaming the whole tile per member.
const TRANSPOSE_BLOCK: usize = 64;

/// Member-major → split-plane tile for one group of `L::G` members.
fn transpose_in<L: Lane>(members: &[Complex64], dim: usize, p: Plane) {
    let bs = dim.min(TRANSPOSE_BLOCK);
    for start in (0..dim).step_by(bs) {
        for (m, member) in members.chunks_exact(dim).enumerate() {
            for (i, a) in member[start..start + bs].iter().enumerate() {
                // SAFETY: the scratch tile holds dim·G entries per plane;
                // start + i < dim and m < G.
                unsafe {
                    *p.re.add((start + i) * L::G + m) = a.re;
                    *p.im.add((start + i) * L::G + m) = a.im;
                }
            }
        }
    }
}

/// Split-plane tile → member-major for one group of `L::G` members.
fn transpose_out<L: Lane>(members: &mut [Complex64], dim: usize, p: Plane) {
    let bs = dim.min(TRANSPOSE_BLOCK);
    for start in (0..dim).step_by(bs) {
        for (m, member) in members.chunks_exact_mut(dim).enumerate() {
            for (i, a) in member[start..start + bs].iter_mut().enumerate() {
                // SAFETY: same bounds as `transpose_in`.
                unsafe {
                    a.re = *p.re.add((start + i) * L::G + m);
                    a.im = *p.im.add((start + i) * L::G + m);
                }
            }
        }
    }
}

/// Batch-major forward sweep at one width: transposes each full group
/// of `L::G` members at the front of `amps` into a scratch tile, runs
/// the width's [`Lane::sweep`] on it and transposes it back. Returns the
/// number of members handled.
///
/// # Safety
///
/// The CPU must have `L`'s features (see [`Lane`]).
unsafe fn forward_groups<L: Lane>(ops: &[FusedOp], amps: &mut [Complex64], dim: usize) -> usize {
    let tile = L::G * dim;
    let groups = amps.len() / tile;
    if groups == 0 {
        return 0;
    }
    with_scratch(2 * tile, |scratch| {
        let p = Plane::new(scratch);
        for group in amps.chunks_exact_mut(tile) {
            transpose_in::<L>(group, dim, p);
            L::sweep(p, dim, ops);
            transpose_out::<L>(group, dim, p);
        }
    });
    groups * L::G
}

/// The backward analogue of [`forward_groups`]: transposes each full
/// group's ket and bra into two scratch tiles, runs `sweep(ket, bra,
/// rows)` with the group's `L::G` gradient rows, and transposes both
/// back. Returns the number of members handled.
fn backward_groups<L: Lane>(
    ket: &mut [Complex64],
    bra: &mut [Complex64],
    grads: &mut [f64],
    dim: usize,
    num_slots: usize,
    mut sweep: impl FnMut(Plane, Plane, &mut [f64]),
) -> usize {
    let tile = L::G * dim;
    let groups = ket.len() / tile;
    if groups == 0 {
        return 0;
    }
    let rows = L::G * num_slots;
    with_scratch(4 * tile, |scratch| {
        let (kscratch, bscratch) = scratch.split_at_mut(2 * tile);
        let (kp, bp) = (Plane::new(kscratch), Plane::new(bscratch));
        for (g, (kgroup, bgroup)) in ket
            .chunks_exact_mut(tile)
            .zip(bra.chunks_exact_mut(tile))
            .enumerate()
        {
            transpose_in::<L>(kgroup, dim, kp);
            transpose_in::<L>(bgroup, dim, bp);
            sweep(kp, bp, &mut grads[g * rows..(g + 1) * rows]);
            transpose_out::<L>(kgroup, dim, kp);
            transpose_out::<L>(bgroup, dim, bp);
        }
    });
    groups * L::G
}

// ---- Forward op sweeps -----------------------------------------------------
//
// Every forward kernel takes a `(base, len)` window: the op is applied
// to amplitude indices `[base, base + len)` only. An op whose qubits
// all lie below `log2(len)` is block-diagonal over aligned windows of
// that size, so a full sweep (`base = 0, len = dim`) and a
// window-by-window sweep compute the *identical* floating-point
// operations per amplitude — the L1 chunking below is bit-transparent.

/// One-qubit op on a tile window: `len/2` uniform butterflies, any `q`
/// with `2^(q+1) <= len`. Enumerated as nested unit-stride loops (not
/// `insert_zero_bit`) so the inner loop walks contiguous addresses.
#[inline(always)]
unsafe fn tile_one<L: Lane>(p: Plane, base: usize, len: usize, g: &Matrix2, q: usize) {
    let k = Coefs::<L, 2>::new(&g.m);
    let mask = 1usize << q;
    let mut block = base;
    while block < base + len {
        for i in block..block + mask {
            k.butterfly(p, i, i | mask);
        }
        block += 2 * mask;
    }
}

/// Multiplexed op: independent butterflies on both branches, or on the
/// control-set branch alone when `controlled` (identity `a0`) — the tile
/// keeps the scalar kernels' sparsity advantage.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_multiplexed<L: Lane>(
    p: Plane,
    base: usize,
    len: usize,
    a0: &Matrix2,
    a1: &Matrix2,
    c: usize,
    t: usize,
    controlled: bool,
) {
    let k0 = Coefs::<L, 2>::new(&a0.m);
    let k1 = Coefs::<L, 2>::new(&a1.m);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    let mlo = 1usize << lo;
    let mhi = 1usize << hi;
    let cmask = 1usize << c;
    let tmask = 1usize << t;
    let mut outer = base;
    while outer < base + len {
        let mut inner = outer;
        while inner < outer + mhi {
            for quad in inner..inner + mlo {
                if !controlled {
                    k0.butterfly(p, quad, quad | tmask);
                }
                k1.butterfly(p, quad | cmask, quad | cmask | tmask);
            }
            inner += 2 * mlo;
        }
        outer += 2 * mhi;
    }
}

/// Dense two-qubit op: a 4×4 on every quad.
#[inline(always)]
unsafe fn tile_two<L: Lane>(p: Plane, base: usize, len: usize, g: &Matrix4, a: usize, b: usize) {
    let k = Coefs::<L, 4>::new(&g.m);
    let ma = 1usize << a;
    let mb = 1usize << b;
    let mut outer = base;
    while outer < base + len {
        let mut inner = outer;
        while inner < outer + mb {
            for quad in inner..inner + ma {
                let idx = [quad, quad | ma, quad | mb, quad | ma | mb];
                let v = load4(p, &idx);
                for (row, &i) in idx.iter().enumerate() {
                    k.row(row, &v).store(p, i);
                }
            }
            inner += 2 * ma;
        }
        outer += 2 * mb;
    }
}

/// Applies one fused op to a tile window, peeling the identity-`a0`
/// controlled case like the interleaved dispatcher does.
#[inline(always)]
unsafe fn tile_op<L: Lane>(p: Plane, base: usize, len: usize, op: &FusedOp) {
    match op {
        FusedOp::One { m, q } => tile_one::<L>(p, base, len, m, *q),
        FusedOp::Multiplexed { a0, a1, c, t } => {
            let controlled = *a0 == Matrix2::identity();
            tile_multiplexed::<L>(p, base, len, a0, a1, *c, *t, controlled);
        }
        FusedOp::Two { m, a, b } => tile_two::<L>(p, base, len, m, *a, *b),
    }
}

/// Forward sweep of all ops over one group tile, L1-blocked: maximal
/// runs of ops spanning at most [`Lane::CHUNK_AMPS`] are applied
/// chunk-by-chunk (every op of the run to one chunk, then the next
/// chunk), an op reaching higher qubits sweeps the full tile alone.
/// Bit-identical to the naive per-op sweep — see the window note on
/// the kernels above.
#[inline(always)]
unsafe fn tile_sweep<L: Lane>(p: Plane, dim: usize, ops: &[FusedOp]) {
    let chunk = dim.min(L::CHUNK_AMPS);
    let mut i = 0;
    while i < ops.len() {
        let mut j = i;
        while j < ops.len() && op_span(&ops[j]) <= chunk {
            j += 1;
        }
        let (end, window) = if j == i { (i + 1, dim) } else { (j, chunk) };
        for base in (0..dim).step_by(window) {
            for op in &ops[i..end] {
                tile_op::<L>(p, base, window, op);
            }
        }
        i = end;
    }
}

// ---- Backward op sweeps ----------------------------------------------------

/// One backward butterfly: applies the daggered op `k` to the ket and
/// bra pairs at `i`, `j` while adding `k'_x·conj(b_y)` (new ket, old
/// bra) into `acc[x][y]`.
#[inline(always)]
unsafe fn backward_pair<L: Lane>(
    k: Coefs<L, 2>,
    ket: Plane,
    bra: Plane,
    i: usize,
    j: usize,
    acc: &mut [[V<L>; 2]; 2],
) {
    let (k0, k1) = k.apply(V::load(ket, i), V::load(ket, j));
    k0.store(ket, i);
    k1.store(ket, j);
    let (b0, b1) = (V::load(bra, i), V::load(bra, j));
    acc[0][0] = k0.mul_conj_add(b0, acc[0][0]);
    acc[0][1] = k0.mul_conj_add(b1, acc[0][1]);
    acc[1][0] = k1.mul_conj_add(b0, acc[1][0]);
    acc[1][1] = k1.mul_conj_add(b1, acc[1][1]);
    let (n0, n1) = k.apply(b0, b1);
    n0.store(bra, i);
    n1.store(bra, j);
}

/// Backward one-qubit step on the tile: applies the daggered op to
/// ket and bra planes while reducing the per-member 2×2 matrices
/// `R[x][y] = Σ k'_x·conj(b_y)`.
#[inline(always)]
unsafe fn tile_backward_one<L: Lane>(
    ket: Plane,
    bra: Plane,
    dim: usize,
    g: &Matrix2,
    q: usize,
) -> [[V<L>; 2]; 2] {
    let k = Coefs::new(&g.m);
    let mask = 1usize << q;
    let mut acc = [[V::zero(); 2]; 2];
    for r in 0..dim / 2 {
        let i = insert_zero_bit(r, q);
        backward_pair(k, ket, bra, i, i | mask, &mut acc);
    }
    acc
}

/// Backward multiplexed step on the tile: the control-clear and
/// control-set branches' reductions. When `skip_zero` is set the
/// control-clear branch is untouched (identity `a0` with all-zero
/// branch derivatives) and its reduction stays zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_backward_multiplexed<L: Lane>(
    ket: Plane,
    bra: Plane,
    dim: usize,
    a0: &Matrix2,
    a1: &Matrix2,
    c: usize,
    t: usize,
    skip_zero: bool,
) -> [[[V<L>; 2]; 2]; 2] {
    let k0 = Coefs::new(&a0.m);
    let k1 = Coefs::new(&a1.m);
    let (lo, hi) = if c < t { (c, t) } else { (t, c) };
    let cmask = 1usize << c;
    let tmask = 1usize << t;
    let mut acc = [[[V::zero(); 2]; 2]; 2];
    for r in 0..dim / 4 {
        let base = insert_zero_bit(insert_zero_bit(r, lo), hi);
        if !skip_zero {
            backward_pair(k0, ket, bra, base, base | tmask, &mut acc[0]);
        }
        let (i, j) = (base | cmask, base | cmask | tmask);
        backward_pair(k1, ket, bra, i, j, &mut acc[1]);
    }
    acc
}

/// Backward dense two-qubit step on the tile.
#[inline(always)]
unsafe fn tile_backward_two<L: Lane>(
    ket: Plane,
    bra: Plane,
    dim: usize,
    g: &Matrix4,
    a: usize,
    b: usize,
) -> [[V<L>; 4]; 4] {
    let k = Coefs::new(&g.m);
    let ma = 1usize << a;
    let mb = 1usize << b;
    let mut acc = [[V::zero(); 4]; 4];
    for r in 0..dim / 4 {
        let base = insert_zero_bit(insert_zero_bit(r, a), b);
        let idx = [base, base | ma, base | mb, base | ma | mb];
        let kv = load4(ket, &idx);
        let bv = load4(bra, &idx);
        for (row, (acc_row, &i)) in acc.iter_mut().zip(&idx).enumerate() {
            let nk = k.row(row, &kv);
            nk.store(ket, i);
            for (r_xy, &b_y) in acc_row.iter_mut().zip(&bv) {
                *r_xy = nk.mul_conj_add(b_y, *r_xy);
            }
            k.row(row, &bv).store(bra, i);
        }
    }
    acc
}

/// Member `m`'s reduction matrix out of a block of accumulators.
#[inline(always)]
unsafe fn member_matrix<L: Lane, const N: usize>(
    acc: &[[V<L>; N]; N],
    m: usize,
) -> [[Complex64; N]; N] {
    let mut out = [[Complex64::ZERO; N]; N];
    for (orow, arow) in out.iter_mut().zip(acc) {
        for (entry, v) in orow.iter_mut().zip(arow) {
            *entry = v.lane(m);
        }
    }
    out
}

/// Reverse sweep of one group tile: every fused op, last to first, is
/// daggered onto the ket and bra tiles while its reduction accumulates,
/// and each member's reduction is contracted into its row of `grads`
/// (`G` rows of `num_slots`).
#[inline(always)]
unsafe fn backward_sweep<L: Lane>(
    compiled: &CompiledCircuit,
    ket: Plane,
    bra: Plane,
    dim: usize,
    grads: &mut [f64],
    num_slots: usize,
) {
    for (idx, op) in compiled.ops().iter().enumerate().rev() {
        let derivs = compiled.op_derivs(idx);
        if derivs.is_empty() {
            // Constant op: plain dagger sweeps on both tiles.
            let dagger = op.dagger();
            tile_op::<L>(ket, 0, dim, &dagger);
            tile_op::<L>(bra, 0, dim, &dagger);
            continue;
        }
        // A derivative names a slot, so `num_slots > 0` from here on.
        match op {
            FusedOp::One { m, q } => {
                let acc = tile_backward_one::<L>(ket, bra, dim, &m.dagger(), *q);
                for (member, grad) in grads.chunks_exact_mut(num_slots).enumerate() {
                    contract(derivs, &Reduction::One(member_matrix(&acc, member)), grad);
                }
            }
            FusedOp::Multiplexed { a0, a1, c, t } => {
                // Identity control-clear branch with all-zero branch
                // derivatives never contributes to R0: skip that half of
                // the sweep entirely.
                let skip_zero = *a0 == Matrix2::identity()
                    && derivs.iter().all(|sd| {
                        matches!(&sd.d, DerivKind::Multiplexed(d0, _) if *d0 == Matrix2::zero())
                    });
                let [acc0, acc1] = tile_backward_multiplexed::<L>(
                    ket,
                    bra,
                    dim,
                    &a0.dagger(),
                    &a1.dagger(),
                    *c,
                    *t,
                    skip_zero,
                );
                for (member, grad) in grads.chunks_exact_mut(num_slots).enumerate() {
                    let (r0, r1) = (member_matrix(&acc0, member), member_matrix(&acc1, member));
                    contract(derivs, &Reduction::Multiplexed(r0, r1), grad);
                }
            }
            FusedOp::Two { m, a, b } => {
                let acc = tile_backward_two::<L>(ket, bra, dim, &m.dagger(), *a, *b);
                for (member, grad) in grads.chunks_exact_mut(num_slots).enumerate() {
                    contract(derivs, &Reduction::Two(member_matrix(&acc, member)), grad);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
    use crate::kernels;

    fn random_amps(len: usize, seed: u64) -> Vec<Complex64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// An op list covering every tile kernel shape: one-qubit at the edge
    /// positions, multiplexed in both orientations, identity-`a0`
    /// (controlled sparsity) and a dense two-qubit op.
    fn op_suite(n: usize) -> Vec<FusedOp> {
        let u = |a, b, c| Matrix2::u3(a, b, c);
        vec![
            FusedOp::One { m: u(0.3, -0.8, 1.1), q: 0 },
            FusedOp::One { m: u(-1.2, 0.4, 0.9), q: 1 },
            FusedOp::One { m: u(0.6, 0.2, -0.5), q: n - 1 },
            FusedOp::Multiplexed { a0: u(0.1, 0.7, -0.3), a1: u(-0.9, 0.2, 0.8), c: 0, t: 2 },
            FusedOp::Multiplexed { a0: u(1.3, -0.2, 0.5), a1: u(0.4, 0.9, -1.1), c: 2, t: 0 },
            FusedOp::Multiplexed { a0: Matrix2::identity(), a1: u(0.8, -0.6, 0.2), c: 1, t: n - 1 },
            FusedOp::Two {
                m: Matrix4::controlled(&u(0.5, 0.3, -0.7), true)
                    .matmul(&Matrix4::single_on_low(&u(-0.4, 1.0, 0.6))),
                a: 1,
                b: 3,
            },
        ]
    }

    type Forward = unsafe fn(&[FusedOp], &mut [Complex64], usize) -> usize;

    /// Each width's instantiation this host can run, with its group size.
    /// Called directly, so the 4-wide body is pinned at every batch even
    /// where the dispatcher sends most groups 8-wide.
    fn widths() -> Vec<(usize, Forward)> {
        let mut widths: Vec<(usize, Forward)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                widths.push((4, forward_groups::<__m256d>));
            }
            if is_x86_feature_detected!("avx512f") {
                widths.push((8, forward_groups::<__m512d>));
            }
        }
        widths
    }

    /// The QuServe batching contract: tile-handled members carry exactly
    /// the same bits as the per-member interleaved path (`assert_eq!` on
    /// the raw f64 bits, not a tolerance), and the remainder is left to
    /// the caller untouched.
    #[test]
    fn tile_forward_is_bit_identical_to_per_member_path() {
        // At n = 5 one chunk covers the whole tile; at n = 10 (dim 1024)
        // the tile spans several chunks at both widths, so the chunked
        // runs and the whole-tile ops between them are pinned too.
        for n in [5, 10] {
            let dim = 1usize << n;
            let ops = op_suite(n);
            for batch in [4usize, 5, 7, 8, 16] {
                let input = random_amps(batch * dim, 0xBA7C + batch as u64);
                let mut runs = Vec::new();
                let mut tiled = input.clone();
                let done = apply_members(&ops, &mut tiled, dim);
                if done > 0 {
                    assert_eq!(done, batch / 4 * 4, "dispatch, batch {batch}");
                    runs.push(("dispatch".to_string(), done, tiled));
                }
                for (g, path) in widths() {
                    let mut tiled = input.clone();
                    // SAFETY: `widths` lists only widths whose CPU
                    // features were detected.
                    let done = unsafe { path(&ops, &mut tiled, dim) };
                    assert_eq!(done, batch / g * g, "{g}-wide, batch {batch}");
                    runs.push((format!("{g}-wide"), done, tiled));
                }
                for (path, done, tiled) in runs {
                    let mut expect = input.clone();
                    for member in expect[..done * dim].chunks_mut(dim) {
                        for op in &ops {
                            op.apply(member, 1);
                        }
                    }
                    for (i, (x, y)) in tiled.iter().zip(&expect).enumerate() {
                        assert!(
                            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                            "n {n}, batch {batch}, {path}, amplitude {i}: {x:?} vs {y:?}"
                        );
                    }
                }
            }
        }
    }

    fn trace2(d: &Matrix2, r: &Matrix2) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for row in 0..2 {
            for col in 0..2 {
                acc += d.m[row][col] * r.m[col][row];
            }
        }
        acc
    }

    fn trace4(d: &Matrix4, r: &Matrix4) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for row in 0..4 {
            for col in 0..4 {
                acc += d.m[row][col] * r.m[col][row];
            }
        }
        acc
    }

    /// Per-member reference of the backward sweep, written against the
    /// dispatcher kernels (mirrors `adjoint::backward_member`).
    fn backward_reference(
        compiled: &CompiledCircuit,
        ket: &mut [Complex64],
        bra: &mut [Complex64],
        grad: &mut [f64],
    ) {
        for (idx, op) in compiled.ops().iter().enumerate().rev() {
            let derivs = compiled.op_derivs(idx);
            if derivs.is_empty() {
                for amps in [&mut *ket, &mut *bra] {
                    op.dagger().apply(amps, 1);
                }
                continue;
            }
            match op {
                FusedOp::One { m, q } => {
                    let r = kernels::backward_step_one(ket, bra, &m.dagger(), *q, 1);
                    for sd in derivs {
                        let DerivKind::One(d) = &sd.d else { unreachable!() };
                        grad[sd.slot] += 2.0 * trace2(d, &r).re;
                    }
                }
                FusedOp::Multiplexed { a0, a1, c, t } => {
                    let (r0, r1) = kernels::backward_step_multiplexed(
                        ket,
                        bra,
                        &a0.dagger(),
                        &a1.dagger(),
                        *c,
                        *t,
                        1,
                    );
                    for sd in derivs {
                        let DerivKind::Multiplexed(d0, d1) = &sd.d else { unreachable!() };
                        grad[sd.slot] += 2.0 * (trace2(d0, &r0) + trace2(d1, &r1)).re;
                    }
                }
                FusedOp::Two { m, a, b } => {
                    let r = kernels::backward_step_two(ket, bra, &m.dagger(), *a, *b, 1);
                    for sd in derivs {
                        let DerivKind::Two(d) = &sd.d else { unreachable!() };
                        grad[sd.slot] += 2.0 * trace4(d, &r).re;
                    }
                }
            }
        }
    }

    #[test]
    fn tile_backward_matches_per_member_reference() {
        // n = 10 spans several forward chunks, like the forward pin above.
        for n in [4, 10] {
            // An ansatz plus constant gates so the sweep hits the
            // empty-derivative (dagger-only) arm too.
            let mut circuit = u3_cu3_ansatz(AnsatzConfig {
                num_qubits: n,
                num_blocks: 2,
                entangle: EntangleOrder::Ring,
            })
            .unwrap();
            circuit.h(0).unwrap().swap(1, 3).unwrap();
            let params: Vec<f64> =
                (0..circuit.num_slots()).map(|i| 0.1 + 0.05 * i as f64).collect();
            let compiled = CompiledCircuit::compile_with_grad(&circuit, &params).unwrap();
            let dim = 1usize << n;
            let ns = compiled.num_slots();
            for batch in [4usize, 8] {
                let mut ket = random_amps(batch * dim, 0x5EED + batch as u64);
                let mut bra = random_amps(batch * dim, 0xF00D + batch as u64);
                let mut grads = vec![0.0; batch * ns];
                let mut ket_ref = ket.clone();
                let mut bra_ref = bra.clone();
                let mut grads_ref = vec![0.0; batch * ns];
                let done = backward_members(&compiled, &mut ket, &mut bra, &mut grads, dim, ns);
                if done == 0 {
                    return; // no AVX2 tier on this host
                }
                assert_eq!(done, batch);
                for ((k, b), g) in ket_ref
                    .chunks_mut(dim)
                    .zip(bra_ref.chunks_mut(dim))
                    .zip(grads_ref.chunks_mut(ns))
                {
                    backward_reference(&compiled, k, b, g);
                }
                for (i, (a, b)) in grads.iter().zip(&grads_ref).enumerate() {
                    assert!((a - b).abs() < 1e-12, "n {n}, grad {i}: {a} vs {b}");
                }
                for (i, (a, b)) in ket.iter().zip(&ket_ref).enumerate() {
                    assert!((*a - *b).norm() < 1e-12, "n {n}, ket {i}: {a:?} vs {b:?}");
                }
                for (i, (a, b)) in bra.iter().zip(&bra_ref).enumerate() {
                    assert!((*a - *b).norm() < 1e-12, "n {n}, bra {i}: {a:?} vs {b:?}");
                }
            }
        }
    }
}
