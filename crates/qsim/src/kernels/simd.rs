//! Runtime-dispatched SIMD tiers for the statevector kernels.
//!
//! The public face of this module is tiny: [`level`] resolves the active
//! [`SimdLevel`] once per process (CPU detection gated by the
//! `QUGEO_SIMD` environment variable and the [`set_enabled`] override),
//! and the [`avx2`] submodule holds the explicit-lane kernel bodies the
//! dispatchers in [`super`] jump to.
//!
//! # Lane layout
//!
//! Amplitudes are interleaved `re, im` pairs ([`Complex64`] is
//! `#[repr(C)]`), so one 256-bit register holds **two complex values**:
//! `[re₀, im₀, re₁, im₁]`. A complex multiply by a constant `c` becomes
//! two FMAs against a precomputed coefficient pair ([`avx2::Coef`]):
//! `re` broadcast to all lanes and `im` pre-negated on the real slots
//! (`[-im, +im, -im, +im]`), giving
//! `z·c = fmadd(swap_within(z), c.im, fmadd(z, c.re, acc))`.
//!
//! # Pair-run contiguity
//!
//! The branch-free index enumeration in [`super`] maps a dense counter to
//! basis indices with zero-bit insertion; for a gate on qubit `q ≥ 1`
//! every run of `2^q` consecutive counters yields **contiguous** address
//! streams for each butterfly leg, which is what the vector loops walk.
//! The `q = 0` (and `min(c,t) = 0`) layouts have no runs; those cases use
//! in-register butterflies instead — per-128-bit-lane coefficients plus a
//! cross-lane swap — so every qubit position stays on the SIMD tier.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The kernel tiers the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    /// The original scalar loops — always available, bit-identical to the
    /// pre-SIMD engine.
    Scalar,
    /// AVX2 + FMA lane kernels (x86-64 only, runtime-detected).
    Avx2,
}

/// When `true`, [`level`] reports [`SimdLevel::Scalar`] regardless of what
/// the CPU supports (the [`crate::set_simd_enabled`] switch).
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// The environment/CPU-resolved tier, computed once per process.
fn detected_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if matches!(
            std::env::var("QUGEO_SIMD").as_deref(),
            Ok("off") | Ok("0") | Ok("scalar")
        ) {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// The tier kernel dispatchers should use right now.
pub(crate) fn level() -> SimdLevel {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        detected_level()
    }
}

/// Backs [`crate::set_simd_enabled`]: `false` pins the scalar tier,
/// `true` restores environment/CPU resolution.
pub(crate) fn set_enabled(enabled: bool) {
    FORCE_SCALAR.store(!enabled, Ordering::Relaxed);
}

/// Whether the batch-major tile may use its 512-bit lane variant (eight
/// members per register). Deliberately *not* a third [`SimdLevel`]: the
/// interleaved per-member kernels stay AVX2 either way, so every
/// `level() == Avx2` dispatch check keeps its meaning.
/// `off`/[`set_enabled`]`(false)` disable this along with the rest of
/// the SIMD tier via [`level`].
pub(crate) fn avx512_tile() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        level() == SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Human-readable name of the active tier (`avx512` means the AVX2
/// kernels plus the 512-bit batch tile).
pub(crate) fn level_name() -> &'static str {
    match level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => {
            if avx512_tile() {
                "avx512"
            } else {
                "avx2"
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    //! The AVX2/FMA kernel bodies. Every function here carries
    //! `#[target_feature(enable = "avx2,fma")]` and is only reachable
    //! through dispatchers that checked [`super::level`] first.

    use std::arch::x86_64::*;

    use super::super::{for_each_chunk, insert_zero_bit, reduce_chunks, SendPtr};
    use crate::gates::{Matrix2, Matrix4};
    use crate::Complex64;

    /// Two interleaved complex values: `[re₀, im₀, re₁, im₁]`.
    type F4 = __m256d;

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load2(p: *const Complex64) -> F4 {
        _mm256_loadu_pd(p.cast())
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store2(p: *mut Complex64, v: F4) {
        _mm256_storeu_pd(p.cast(), v)
    }

    /// `[im₀, re₀, im₁, re₁]` — swaps re/im inside each complex lane.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn swap_within(v: F4) -> F4 {
        _mm256_permute_pd(v, 0b0101)
    }

    /// `[re₁, im₁, re₀, im₀]` — swaps the two complex lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn swap_lanes(v: F4) -> F4 {
        _mm256_permute2f128_pd(v, v, 0x01)
    }

    /// `[re₀, im₀, re₀, im₀]` — the low complex lane in both lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dup_lo(v: F4) -> F4 {
        _mm256_permute2f128_pd(v, v, 0x00)
    }

    /// `[re₁, im₁, re₁, im₁]` — the high complex lane in both lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dup_hi(v: F4) -> F4 {
        _mm256_permute2f128_pd(v, v, 0x11)
    }

    /// Spills the two complex lanes of a register.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lanes(v: F4) -> (Complex64, Complex64) {
        let mut out = [Complex64::ZERO; 2];
        _mm256_storeu_pd(out.as_mut_ptr().cast(), v);
        (out[0], out[1])
    }

    /// Sums the two complex lanes into one value.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: F4) -> Complex64 {
        let (a, b) = lanes(v);
        a + b
    }

    /// `z · conj(w)`, lane-wise: `fmsubadd` adds on the even (real) slots
    /// and subtracts on the odd (imaginary) slots, which is exactly the
    /// conjugated product `(z_r·w_r + z_i·w_i, z_i·w_r − z_r·w_i)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mul_conj(z: F4, w: F4) -> F4 {
        let wr = _mm256_movedup_pd(w);
        let wi = _mm256_permute_pd(w, 0b1111);
        _mm256_fmsubadd_pd(z, wr, _mm256_mul_pd(swap_within(z), wi))
    }

    /// A complex coefficient prepared for lane-wise multiply:
    /// `re` broadcast everywhere and `im` pre-negated on the real slots,
    /// so `z·c` costs two FMAs (see the module docs).
    #[derive(Clone, Copy)]
    pub(crate) struct Coef {
        re: F4,
        im: F4,
    }

    impl Coef {
        /// The same constant on both complex lanes.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(c: Complex64) -> Self {
            Self {
                re: _mm256_set1_pd(c.re),
                im: _mm256_setr_pd(-c.im, c.im, -c.im, c.im),
            }
        }

        /// Distinct constants on the low/high complex lane — the
        /// in-register butterfly layouts put two different matrix entries
        /// in one register.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn per_lane(lo: Complex64, hi: Complex64) -> Self {
            Self {
                re: _mm256_setr_pd(lo.re, lo.re, hi.re, hi.re),
                im: _mm256_setr_pd(-lo.im, lo.im, -hi.im, hi.im),
            }
        }

        /// `acc + self·z`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mul_add(self, z: F4, acc: F4) -> F4 {
            _mm256_fmadd_pd(swap_within(z), self.im, _mm256_fmadd_pd(z, self.re, acc))
        }

        /// `self·z`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mul(self, z: F4) -> F4 {
            _mm256_fmadd_pd(swap_within(z), self.im, _mm256_mul_pd(z, self.re))
        }
    }

    /// In-register 2×2 butterfly: the register holds both legs
    /// `[a₀, a₁]`; `c0` carries the first column `(m00, m10)` per output
    /// lane, `c1` the second column `(m01, m11)`. The association —
    /// round `m_r1·a₁` first, then fold `m_r0·a₀` in fused — is the
    /// **canonical row order** every forward layout follows, so one
    /// member's amplitudes round identically whether it runs through
    /// contiguous runs, in-register butterflies, or the batch-major tile
    /// (the engine's cross-layout bit-identity contract).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bfly2(v: F4, c0: Coef, c1: Coef) -> F4 {
        c0.mul_add(dup_lo(v), c1.mul(dup_hi(v)))
    }

    // ---- Forward kernels ---------------------------------------------------

    /// AVX2 tier of [`super::super::apply_one`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn apply_one(amps: &mut [Complex64], g: &Matrix2, q: usize, threads: usize) {
        debug_assert_eq!(amps.len() % (1 << (q + 1)), 0);
        let [[m00, m01], [m10, m11]] = g.m;
        let ptr = SendPtr(amps.as_mut_ptr());
        if q == 0 {
            // Pair k is the adjacent amplitudes (2k, 2k+1): one register
            // per butterfly, per-lane column coefficients on the
            // duplicated legs.
            let c0 = Coef::per_lane(m00, m10);
            let c1 = Coef::per_lane(m01, m11);
            let pairs = amps.len() / 2;
            // SAFETY: AVX2/FMA per the module contract. Pair k < len/2 is amplitudes
            // 2k and 2k+1; workers get disjoint pair ranges.
            for_each_chunk(pairs, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for k in range {
                    let p = ptr.0.add(2 * k);
                    store2(p, bfly2(load2(p), c0, c1));
                }
            });
            return;
        }
        // q >= 1: pair counter k = r·2^q + s maps to amplitude
        // i = r·2^(q+1) + s, so each run r is two contiguous streams of
        // 2^q amplitudes (the a₀ leg and the a₁ leg) — walk them two
        // complex values per register.
        let c00 = Coef::splat(m00);
        let c01 = Coef::splat(m01);
        let c10 = Coef::splat(m10);
        let c11 = Coef::splat(m11);
        let half = 1usize << q;
        let runs = amps.len() >> (q + 1);
        // SAFETY: AVX2/FMA as above. Run r < len >> (q+1) owns its 2^(q+1)
        // amplitudes, read two at a time; workers get disjoint run ranges.
        for_each_chunk(runs, amps.len(), threads, move |range| unsafe {
            let ptr = ptr;
            for r in range {
                let lo = ptr.0.add(r << (q + 1));
                let hi = lo.add(half);
                let mut s = 0;
                while s < half {
                    let v0 = load2(lo.add(s));
                    let v1 = load2(hi.add(s));
                    store2(lo.add(s), c00.mul_add(v0, c01.mul(v1)));
                    store2(hi.add(s), c10.mul_add(v0, c11.mul(v1)));
                    s += 2;
                }
            }
        });
    }

    /// AVX2 tier of [`super::super::apply_controlled`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn apply_controlled(
        amps: &mut [Complex64],
        g: &Matrix2,
        c: usize,
        t: usize,
        threads: usize,
    ) {
        debug_assert_ne!(c, t);
        let (lo, hi) = if c < t { (c, t) } else { (t, c) };
        debug_assert_eq!(amps.len() % (1 << (hi + 1)), 0);
        let [[m00, m01], [m10, m11]] = g.m;
        let cmask = 1usize << c;
        let tmask = 1usize << t;
        let quads = amps.len() / 4;
        let ptr = SendPtr(amps.as_mut_ptr());
        if lo >= 1 {
            // Quad counter k = r·2^lo + s keeps s below both insertion
            // points, so each run is contiguous streams for the two
            // control-set butterfly legs; the control-clear half is never
            // touched (the sparsity advantage over a dense 4×4).
            let c00 = Coef::splat(m00);
            let c01 = Coef::splat(m01);
            let c10 = Coef::splat(m10);
            let c11 = Coef::splat(m11);
            let run = 1usize << lo;
            let runs = quads >> lo;
            // SAFETY: AVX2/FMA as above. `amps` is whole 2^(hi+1) blocks, so each
            // run of 2^lo quads is in bounds; workers get disjoint run ranges.
            for_each_chunk(runs, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for r in range {
                    let base = insert_zero_bit(insert_zero_bit(r << lo, lo), hi);
                    let ip = ptr.0.add(base | cmask);
                    let jp = ptr.0.add(base | cmask | tmask);
                    let mut s = 0;
                    while s < run {
                        let v0 = load2(ip.add(s));
                        let v1 = load2(jp.add(s));
                        store2(ip.add(s), c00.mul_add(v0, c01.mul(v1)));
                        store2(jp.add(s), c10.mul_add(v0, c11.mul(v1)));
                        s += 2;
                    }
                }
            });
        } else if t == 0 {
            // t = 0, c = hi: the butterfly legs are adjacent amplitudes on
            // the control-set stream — in-register butterflies, walking
            // addresses base + cmask + 2s.
            let c0 = Coef::per_lane(m00, m10);
            let c1 = Coef::per_lane(m01, m11);
            // SAFETY: AVX2/FMA as above. With t = 0, quad k < len/4 has its control-set
            // pair adjacent and in bounds; workers get disjoint quad ranges.
            for_each_chunk(quads, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for k in range {
                    let p = ptr.0.add(insert_zero_bit(2 * k, hi) | cmask);
                    store2(p, bfly2(load2(p), c0, c1));
                }
            });
        } else {
            // c = 0, t = hi: the control-clear and control-set values sit
            // in adjacent lanes. Butterfly every lane, then blend the
            // original low (control-clear) lane back in — that subspace
            // must keep its exact bits (even a -0.0), like every other
            // controlled layout leaves it untouched.
            let c00 = Coef::splat(m00);
            let c01 = Coef::splat(m01);
            let c10 = Coef::splat(m10);
            let c11 = Coef::splat(m11);
            // SAFETY: AVX2/FMA as above. With c = 0, each target leg of quad k < len/4
            // is an adjacent in-bounds pair; workers get disjoint quad ranges.
            for_each_chunk(quads, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for k in range {
                    let base = insert_zero_bit(2 * k, hi);
                    let up = ptr.0.add(base);
                    let wp = ptr.0.add(base | tmask);
                    let u = load2(up);
                    let w = load2(wp);
                    let nu = c00.mul_add(u, c01.mul(w));
                    let nw = c10.mul_add(u, c11.mul(w));
                    store2(up, _mm256_blend_pd(u, nu, 0b1100));
                    store2(wp, _mm256_blend_pd(w, nw, 0b1100));
                }
            });
        }
    }

    /// Shared body for the `c = 0, t = hi` multiplexed layout: the
    /// register `[x, y]` holds the control-clear (`x`, gets `a0`) and
    /// control-set (`y`, gets `a1`) values of the *same* target bit, so
    /// both branch matrices ride in per-lane coefficients and no shuffle
    /// is needed at all.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn multiplexed_c0(
        ptr: SendPtr,
        quads: usize,
        amps_len: usize,
        a0: &Matrix2,
        a1: &Matrix2,
        hi: usize,
        threads: usize,
    ) {
        let [[z00, z01], [z10, z11]] = a0.m;
        let [[o00, o01], [o10, o11]] = a1.m;
        let c00 = Coef::per_lane(z00, o00);
        let c01 = Coef::per_lane(z01, o01);
        let c10 = Coef::per_lane(z10, o10);
        let c11 = Coef::per_lane(z11, o11);
        let tmask = 1usize << hi;
        // SAFETY: AVX2/FMA per the module contract; `ptr` and `amps_len` come from
        // one live slice, so quad k < amps_len/4 is in bounds, disjoint per worker.
        for_each_chunk(quads, amps_len, threads, move |range| unsafe {
            let ptr = ptr;
            for k in range {
                let base = insert_zero_bit(2 * k, hi);
                let up = ptr.0.add(base);
                let wp = ptr.0.add(base | tmask);
                let u = load2(up);
                let w = load2(wp);
                store2(up, c00.mul_add(u, c01.mul(w)));
                store2(wp, c10.mul_add(u, c11.mul(w)));
            }
        });
    }

    /// AVX2 tier of [`super::super::apply_multiplexed`] (the dispatcher
    /// already peeled off identity `a0`).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn apply_multiplexed(
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
        let quads = amps.len() / 4;
        let ptr = SendPtr(amps.as_mut_ptr());
        if lo >= 1 {
            let [[z00, z01], [z10, z11]] = a0.m;
            let [[o00, o01], [o10, o11]] = a1.m;
            let cz00 = Coef::splat(z00);
            let cz01 = Coef::splat(z01);
            let cz10 = Coef::splat(z10);
            let cz11 = Coef::splat(z11);
            let co00 = Coef::splat(o00);
            let co01 = Coef::splat(o01);
            let co10 = Coef::splat(o10);
            let co11 = Coef::splat(o11);
            let run = 1usize << lo;
            let runs = quads >> lo;
            // SAFETY: AVX2/FMA as above. `amps` is whole 2^(hi+1) blocks, so each
            // run of 2^lo quads is in bounds; workers get disjoint run ranges.
            for_each_chunk(runs, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for r in range {
                    let base = insert_zero_bit(insert_zero_bit(r << lo, lo), hi);
                    let i0 = ptr.0.add(base);
                    let j0 = ptr.0.add(base | tmask);
                    let i1 = ptr.0.add(base | cmask);
                    let j1 = ptr.0.add(base | cmask | tmask);
                    let mut s = 0;
                    while s < run {
                        let x0 = load2(i0.add(s));
                        let x1 = load2(j0.add(s));
                        store2(i0.add(s), cz00.mul_add(x0, cz01.mul(x1)));
                        store2(j0.add(s), cz10.mul_add(x0, cz11.mul(x1)));
                        let y0 = load2(i1.add(s));
                        let y1 = load2(j1.add(s));
                        store2(i1.add(s), co00.mul_add(y0, co01.mul(y1)));
                        store2(j1.add(s), co10.mul_add(y0, co11.mul(y1)));
                        s += 2;
                    }
                }
            });
        } else if t == 0 {
            // t = 0, c = hi: each branch is its own stream of in-register
            // butterflies.
            let [[z00, z01], [z10, z11]] = a0.m;
            let [[o00, o01], [o10, o11]] = a1.m;
            let zc0 = Coef::per_lane(z00, z10);
            let zc1 = Coef::per_lane(z01, z11);
            let oc0 = Coef::per_lane(o00, o10);
            let oc1 = Coef::per_lane(o01, o11);
            // SAFETY: AVX2/FMA as above. With t = 0, each branch of quad k < len/4 is
            // an adjacent in-bounds pair; workers get disjoint quad ranges.
            for_each_chunk(quads, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for k in range {
                    let base = insert_zero_bit(2 * k, hi);
                    let zp = ptr.0.add(base);
                    let op = ptr.0.add(base | cmask);
                    store2(zp, bfly2(load2(zp), zc0, zc1));
                    store2(op, bfly2(load2(op), oc0, oc1));
                }
            });
        } else {
            multiplexed_c0(ptr, quads, amps.len(), a0, a1, hi, threads);
        }
    }

    /// AVX2 tier of [`super::super::apply_two`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn apply_two(
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
        if a >= 1 {
            let mut co = [[Coef::splat(Complex64::ZERO); 4]; 4];
            for (row, mrow) in co.iter_mut().zip(&m) {
                for (coef, entry) in row.iter_mut().zip(mrow) {
                    *coef = Coef::splat(*entry);
                }
            }
            let run = 1usize << a;
            let runs = quads >> a;
            // SAFETY: AVX2/FMA as above. `amps` is whole 2^(b+1) blocks, so each run
            // of 2^a quads is in bounds; workers get disjoint run ranges.
            for_each_chunk(runs, amps.len(), threads, move |range| unsafe {
                let ptr = ptr;
                for r in range {
                    let base = insert_zero_bit(insert_zero_bit(r << a, a), b);
                    let p = [
                        ptr.0.add(base),
                        ptr.0.add(base | ma),
                        ptr.0.add(base | mb),
                        ptr.0.add(base | ma | mb),
                    ];
                    let mut s = 0;
                    while s < run {
                        let v = [
                            load2(p[0].add(s)),
                            load2(p[1].add(s)),
                            load2(p[2].add(s)),
                            load2(p[3].add(s)),
                        ];
                        for (row, out) in co.iter().zip(p) {
                            let acc = row[1].mul_add(v[1], row[0].mul(v[0]));
                            let acc = row[2].mul_add(v[2], acc);
                            store2(out.add(s), row[3].mul_add(v[3], acc));
                        }
                        s += 2;
                    }
                }
            });
            return;
        }
        // a = 0, b = hi: registers u = [v0, v1] and w = [v2, v3]; the
        // dense 4×4 becomes per-lane column coefficients on the
        // duplicated legs, folded in the canonical 4×4 row order
        // (column 0 rounded first, then columns 1–3 fused) so one
        // member rounds identically to the a ≥ 1 and tile layouts.
        let cu = [
            Coef::per_lane(m[0][0], m[1][0]),
            Coef::per_lane(m[0][1], m[1][1]),
            Coef::per_lane(m[0][2], m[1][2]),
            Coef::per_lane(m[0][3], m[1][3]),
        ];
        let cw = [
            Coef::per_lane(m[2][0], m[3][0]),
            Coef::per_lane(m[2][1], m[3][1]),
            Coef::per_lane(m[2][2], m[3][2]),
            Coef::per_lane(m[2][3], m[3][3]),
        ];
        // SAFETY: AVX2/FMA as above. With a = 0, quad k < len/4 is two adjacent
        // in-bounds pairs; workers get disjoint quad ranges.
        for_each_chunk(quads, amps.len(), threads, move |range| unsafe {
            let ptr = ptr;
            for k in range {
                let base = insert_zero_bit(2 * k, b);
                let up = ptr.0.add(base);
                let wp = ptr.0.add(base | mb);
                let u = load2(up);
                let w = load2(wp);
                let legs = [dup_lo(u), dup_hi(u), dup_lo(w), dup_hi(w)];
                let nu = cu[0].mul(legs[0]);
                let nu = cu[1].mul_add(legs[1], nu);
                let nu = cu[2].mul_add(legs[2], nu);
                let nu = cu[3].mul_add(legs[3], nu);
                let nw = cw[0].mul(legs[0]);
                let nw = cw[1].mul_add(legs[1], nw);
                let nw = cw[2].mul_add(legs[2], nw);
                let nw = cw[3].mul_add(legs[3], nw);
                store2(up, nu);
                store2(wp, nw);
            }
        });
    }

    // ---- Backward (adjoint) kernels ----------------------------------------

    /// AVX2 tier of [`super::super::backward_step_one`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn backward_step_one(
        ket: &mut [Complex64],
        bra: &mut [Complex64],
        g: &Matrix2,
        q: usize,
        threads: usize,
    ) -> Matrix2 {
        assert_eq!(bra.len(), ket.len(), "ket and bra lengths differ");
        debug_assert_eq!(ket.len() % (1 << (q + 1)), 0);
        let [[m00, m01], [m10, m11]] = g.m;
        let kp = SendPtr(ket.as_mut_ptr());
        let bp = SendPtr(bra.as_mut_ptr());
        let r = if q == 0 {
            // In-register butterflies; the reduction matrix splits into a
            // lane-aligned diagonal product (R00/R11) and a lane-swapped
            // cross product (R01/R10).
            let c0 = Coef::per_lane(m00, m10);
            let c1 = Coef::per_lane(m01, m11);
            let pairs = ket.len() / 2;
            // SAFETY: AVX2/FMA per the module contract; `ket` and `bra` have one length
            // (asserted above). Pair k < len/2 is in bounds, disjoint per worker.
            reduce_chunks::<4>(pairs, ket.len(), threads, move |range| unsafe {
                let (kp, bp) = (kp, bp);
                let mut acc_d = _mm256_setzero_pd();
                let mut acc_x = _mm256_setzero_pd();
                for k in range {
                    let pk = kp.0.add(2 * k);
                    let pb = bp.0.add(2 * k);
                    let nk = bfly2(load2(pk), c0, c1);
                    store2(pk, nk);
                    let b = load2(pb);
                    acc_d = _mm256_add_pd(acc_d, mul_conj(nk, b));
                    acc_x = _mm256_add_pd(acc_x, mul_conj(nk, swap_lanes(b)));
                    store2(pb, bfly2(b, c0, c1));
                }
                let (r00, r11) = lanes(acc_d);
                let (r01, r10) = lanes(acc_x);
                [r00, r01, r10, r11]
            })
        } else {
            let c00 = Coef::splat(m00);
            let c01 = Coef::splat(m01);
            let c10 = Coef::splat(m10);
            let c11 = Coef::splat(m11);
            let half = 1usize << q;
            let runs = ket.len() >> (q + 1);
            // SAFETY: AVX2/FMA as above. Run r < len >> (q+1) owns its 2^(q+1)
            // amplitudes of each slice; workers get disjoint run ranges.
            reduce_chunks::<4>(runs, ket.len(), threads, move |range| unsafe {
                let (kp, bp) = (kp, bp);
                let mut acc = [_mm256_setzero_pd(); 4];
                for r in range {
                    let klo = kp.0.add(r << (q + 1));
                    let khi = klo.add(half);
                    let blo = bp.0.add(r << (q + 1));
                    let bhi = blo.add(half);
                    let mut s = 0;
                    while s < half {
                        let k0 = load2(klo.add(s));
                        let k1 = load2(khi.add(s));
                        let nk0 = c00.mul_add(k0, c01.mul(k1));
                        let nk1 = c10.mul_add(k0, c11.mul(k1));
                        store2(klo.add(s), nk0);
                        store2(khi.add(s), nk1);
                        let b0 = load2(blo.add(s));
                        let b1 = load2(bhi.add(s));
                        acc[0] = _mm256_add_pd(acc[0], mul_conj(nk0, b0));
                        acc[1] = _mm256_add_pd(acc[1], mul_conj(nk0, b1));
                        acc[2] = _mm256_add_pd(acc[2], mul_conj(nk1, b0));
                        acc[3] = _mm256_add_pd(acc[3], mul_conj(nk1, b1));
                        store2(blo.add(s), c00.mul_add(b0, c01.mul(b1)));
                        store2(bhi.add(s), c10.mul_add(b0, c11.mul(b1)));
                        s += 2;
                    }
                }
                [hsum(acc[0]), hsum(acc[1]), hsum(acc[2]), hsum(acc[3])]
            })
        };
        Matrix2 {
            m: [[r[0], r[1]], [r[2], r[3]]],
        }
    }

    /// AVX2 tier of [`super::super::backward_step_multiplexed`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn backward_step_multiplexed(
        ket: &mut [Complex64],
        bra: &mut [Complex64],
        z: &Matrix2,
        o: &Matrix2,
        c: usize,
        t: usize,
        threads: usize,
    ) -> (Matrix2, Matrix2) {
        assert_eq!(bra.len(), ket.len(), "ket and bra lengths differ");
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
        let r = if lo >= 1 {
            let cz00 = Coef::splat(z00);
            let cz01 = Coef::splat(z01);
            let cz10 = Coef::splat(z10);
            let cz11 = Coef::splat(z11);
            let co00 = Coef::splat(o00);
            let co01 = Coef::splat(o01);
            let co10 = Coef::splat(o10);
            let co11 = Coef::splat(o11);
            let run = 1usize << lo;
            let runs = quads >> lo;
            // SAFETY: AVX2/FMA per the module contract; `ket` and `bra` are one length
            // (asserted above) of whole 2^(hi+1) blocks: runs are in bounds, disjoint.
            reduce_chunks::<8>(runs, ket.len(), threads, move |range| unsafe {
                let (kp, bp) = (kp, bp);
                let mut acc = [_mm256_setzero_pd(); 8];
                for r in range {
                    let base = insert_zero_bit(insert_zero_bit(r << lo, lo), hi);
                    let mut s = 0;
                    while s < run {
                        // Control-clear branch (z).
                        let ki = kp.0.add(base).add(s);
                        let kj = kp.0.add(base | tmask).add(s);
                        let bi = bp.0.add(base).add(s);
                        let bj = bp.0.add(base | tmask).add(s);
                        let k0 = load2(ki);
                        let k1 = load2(kj);
                        let nk0 = cz00.mul_add(k0, cz01.mul(k1));
                        let nk1 = cz10.mul_add(k0, cz11.mul(k1));
                        store2(ki, nk0);
                        store2(kj, nk1);
                        let b0 = load2(bi);
                        let b1 = load2(bj);
                        acc[0] = _mm256_add_pd(acc[0], mul_conj(nk0, b0));
                        acc[1] = _mm256_add_pd(acc[1], mul_conj(nk0, b1));
                        acc[2] = _mm256_add_pd(acc[2], mul_conj(nk1, b0));
                        acc[3] = _mm256_add_pd(acc[3], mul_conj(nk1, b1));
                        store2(bi, cz00.mul_add(b0, cz01.mul(b1)));
                        store2(bj, cz10.mul_add(b0, cz11.mul(b1)));
                        // Control-set branch (o).
                        let ki = kp.0.add(base | cmask).add(s);
                        let kj = kp.0.add(base | cmask | tmask).add(s);
                        let bi = bp.0.add(base | cmask).add(s);
                        let bj = bp.0.add(base | cmask | tmask).add(s);
                        let k0 = load2(ki);
                        let k1 = load2(kj);
                        let nk0 = co00.mul_add(k0, co01.mul(k1));
                        let nk1 = co10.mul_add(k0, co11.mul(k1));
                        store2(ki, nk0);
                        store2(kj, nk1);
                        let b0 = load2(bi);
                        let b1 = load2(bj);
                        acc[4] = _mm256_add_pd(acc[4], mul_conj(nk0, b0));
                        acc[5] = _mm256_add_pd(acc[5], mul_conj(nk0, b1));
                        acc[6] = _mm256_add_pd(acc[6], mul_conj(nk1, b0));
                        acc[7] = _mm256_add_pd(acc[7], mul_conj(nk1, b1));
                        store2(bi, co00.mul_add(b0, co01.mul(b1)));
                        store2(bj, co10.mul_add(b0, co11.mul(b1)));
                        s += 2;
                    }
                }
                [
                    hsum(acc[0]),
                    hsum(acc[1]),
                    hsum(acc[2]),
                    hsum(acc[3]),
                    hsum(acc[4]),
                    hsum(acc[5]),
                    hsum(acc[6]),
                    hsum(acc[7]),
                ]
            })
        } else if t == 0 {
            // t = 0, c = hi: per-branch in-register butterflies, each with
            // the diagonal/cross accumulator split of the q = 0 one-qubit
            // case.
            let zc0 = Coef::per_lane(z00, z10);
            let zc1 = Coef::per_lane(z01, z11);
            let oc0 = Coef::per_lane(o00, o10);
            let oc1 = Coef::per_lane(o01, o11);
            // SAFETY: AVX2/FMA as above. With t = 0, each branch of quad k < len/4 is
            // an adjacent in-bounds pair of each slice; workers get disjoint quads.
            reduce_chunks::<8>(quads, ket.len(), threads, move |range| unsafe {
                let (kp, bp) = (kp, bp);
                let mut zacc_d = _mm256_setzero_pd();
                let mut zacc_x = _mm256_setzero_pd();
                let mut oacc_d = _mm256_setzero_pd();
                let mut oacc_x = _mm256_setzero_pd();
                for k in range {
                    let base = insert_zero_bit(2 * k, hi);
                    let kz = kp.0.add(base);
                    let bz = bp.0.add(base);
                    let nk = bfly2(load2(kz), zc0, zc1);
                    store2(kz, nk);
                    let b = load2(bz);
                    zacc_d = _mm256_add_pd(zacc_d, mul_conj(nk, b));
                    zacc_x = _mm256_add_pd(zacc_x, mul_conj(nk, swap_lanes(b)));
                    store2(bz, bfly2(b, zc0, zc1));
                    let ko = kp.0.add(base | cmask);
                    let bo = bp.0.add(base | cmask);
                    let nk = bfly2(load2(ko), oc0, oc1);
                    store2(ko, nk);
                    let b = load2(bo);
                    oacc_d = _mm256_add_pd(oacc_d, mul_conj(nk, b));
                    oacc_x = _mm256_add_pd(oacc_x, mul_conj(nk, swap_lanes(b)));
                    store2(bo, bfly2(b, oc0, oc1));
                }
                let (z00r, z11r) = lanes(zacc_d);
                let (z01r, z10r) = lanes(zacc_x);
                let (o00r, o11r) = lanes(oacc_d);
                let (o01r, o10r) = lanes(oacc_x);
                [z00r, z01r, z10r, z11r, o00r, o01r, o10r, o11r]
            })
        } else {
            // c = 0, t = hi: lanes are branches, so every reduction
            // product is lane-aligned — branch z lands in the low lane,
            // branch o in the high lane, with no shuffles at all.
            let c00 = Coef::per_lane(z00, o00);
            let c01 = Coef::per_lane(z01, o01);
            let c10 = Coef::per_lane(z10, o10);
            let c11 = Coef::per_lane(z11, o11);
            // SAFETY: AVX2/FMA as above. With c = 0, each target leg of quad k < len/4
            // is an adjacent in-bounds pair of each slice; workers get disjoint quads.
            reduce_chunks::<8>(quads, ket.len(), threads, move |range| unsafe {
                let (kp, bp) = (kp, bp);
                let mut acc = [_mm256_setzero_pd(); 4];
                for k in range {
                    let base = insert_zero_bit(2 * k, hi);
                    let ku = kp.0.add(base);
                    let kw = kp.0.add(base | tmask);
                    let bu = bp.0.add(base);
                    let bw = bp.0.add(base | tmask);
                    let u = load2(ku);
                    let w = load2(kw);
                    let nu = c00.mul_add(u, c01.mul(w));
                    let nw = c10.mul_add(u, c11.mul(w));
                    store2(ku, nu);
                    store2(kw, nw);
                    let vu = load2(bu);
                    let vw = load2(bw);
                    acc[0] = _mm256_add_pd(acc[0], mul_conj(nu, vu));
                    acc[1] = _mm256_add_pd(acc[1], mul_conj(nu, vw));
                    acc[2] = _mm256_add_pd(acc[2], mul_conj(nw, vu));
                    acc[3] = _mm256_add_pd(acc[3], mul_conj(nw, vw));
                    store2(bu, c00.mul_add(vu, c01.mul(vw)));
                    store2(bw, c10.mul_add(vu, c11.mul(vw)));
                }
                let (z00r, o00r) = lanes(acc[0]);
                let (z01r, o01r) = lanes(acc[1]);
                let (z10r, o10r) = lanes(acc[2]);
                let (z11r, o11r) = lanes(acc[3]);
                [z00r, z01r, z10r, z11r, o00r, o01r, o10r, o11r]
            })
        };
        (
            Matrix2 {
                m: [[r[0], r[1]], [r[2], r[3]]],
            },
            Matrix2 {
                m: [[r[4], r[5]], [r[6], r[7]]],
            },
        )
    }

    /// AVX2 tier of [`super::super::backward_step_two`] for `a ≥ 1` (the
    /// dispatcher keeps `a = 0` on the scalar tier).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn backward_step_two(
        ket: &mut [Complex64],
        bra: &mut [Complex64],
        g: &Matrix4,
        a: usize,
        b: usize,
        threads: usize,
    ) -> Matrix4 {
        assert_eq!(bra.len(), ket.len(), "ket and bra lengths differ");
        debug_assert!(a >= 1 && a < b);
        debug_assert_eq!(ket.len() % (1 << (b + 1)), 0);
        let ma = 1usize << a;
        let mb = 1usize << b;
        let mut co = [[Coef::splat(Complex64::ZERO); 4]; 4];
        for (row, mrow) in co.iter_mut().zip(&g.m) {
            for (coef, entry) in row.iter_mut().zip(mrow) {
                *coef = Coef::splat(*entry);
            }
        }
        let run = 1usize << a;
        let runs = (ket.len() / 4) >> a;
        let kp = SendPtr(ket.as_mut_ptr());
        let bp = SendPtr(bra.as_mut_ptr());
        // SAFETY: AVX2/FMA per the module contract; `ket` and `bra` are one length
        // (asserted above) of whole 2^(b+1) blocks: runs are in bounds, disjoint.
        let r = reduce_chunks::<16>(runs, ket.len(), threads, move |range| unsafe {
            let (kp, bp) = (kp, bp);
            let mut acc = [_mm256_setzero_pd(); 16];
            for r in range {
                let base = insert_zero_bit(insert_zero_bit(r << a, a), b);
                let off = [base, base | ma, base | mb, base | ma | mb];
                let mut s = 0;
                while s < run {
                    let kv = [
                        load2(kp.0.add(off[0]).add(s)),
                        load2(kp.0.add(off[1]).add(s)),
                        load2(kp.0.add(off[2]).add(s)),
                        load2(kp.0.add(off[3]).add(s)),
                    ];
                    let bv = [
                        load2(bp.0.add(off[0]).add(s)),
                        load2(bp.0.add(off[1]).add(s)),
                        load2(bp.0.add(off[2]).add(s)),
                        load2(bp.0.add(off[3]).add(s)),
                    ];
                    for (row, (crow, &o)) in co.iter().zip(&off).enumerate() {
                        let nk = crow[1].mul_add(kv[1], crow[0].mul(kv[0]));
                        let nk = crow[2].mul_add(kv[2], nk);
                        let nk = crow[3].mul_add(kv[3], nk);
                        store2(kp.0.add(o).add(s), nk);
                        for (col, &bcol) in bv.iter().enumerate() {
                            acc[row * 4 + col] =
                                _mm256_add_pd(acc[row * 4 + col], mul_conj(nk, bcol));
                        }
                        let nb = crow[1].mul_add(bv[1], crow[0].mul(bv[0]));
                        let nb = crow[2].mul_add(bv[2], nb);
                        let nb = crow[3].mul_add(bv[3], nb);
                        store2(bp.0.add(o).add(s), nb);
                    }
                    s += 2;
                }
            }
            let mut out = [Complex64::ZERO; 16];
            for (o, v) in out.iter_mut().zip(acc) {
                *o = hsum(v);
            }
            out
        });
        let mut out = Matrix4::zero();
        for (row, orow) in out.m.iter_mut().enumerate() {
            for (col, entry) in orow.iter_mut().enumerate() {
                *entry = r[row * 4 + col];
            }
        }
        out
    }

    // ---- Reductions --------------------------------------------------------

    /// AVX2 tier of [`super::super::norm_sqr_sum`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn norm_sqr_sum(amps: &[Complex64]) -> f64 {
        let mut acc = _mm256_setzero_pd();
        let p = amps.as_ptr();
        let pairs = amps.len() / 2;
        for k in 0..pairs {
            let v = load2(p.add(2 * k));
            acc = _mm256_fmadd_pd(v, v, acc);
        }
        let (a, b) = lanes(acc);
        let mut total = a.re + a.im + b.re + b.im;
        for a in &amps[2 * pairs..] {
            total += a.norm_sqr();
        }
        total
    }

    /// Squares-and-pairs four probabilities from two amplitude registers:
    /// `hadd` leaves them in `[p0, p2, p1, p3]` order, fixed up with a
    /// cross-lane permute.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn four_probs(v0: F4, v1: F4) -> F4 {
        let h = _mm256_hadd_pd(_mm256_mul_pd(v0, v0), _mm256_mul_pd(v1, v1));
        _mm256_permute4x64_pd(h, 0b11_01_10_00)
    }

    /// AVX2 tier of [`super::super::probabilities_into`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn probabilities_into(amps: &[Complex64], out: &mut [f64]) {
        debug_assert_eq!(amps.len(), out.len());
        let p = amps.as_ptr();
        let o = out.as_mut_ptr();
        let blocks = amps.len() / 4;
        for k in 0..blocks {
            let probs = four_probs(load2(p.add(4 * k)), load2(p.add(4 * k + 2)));
            _mm256_storeu_pd(o.add(4 * k), probs);
        }
        for (o, a) in out[4 * blocks..].iter_mut().zip(&amps[4 * blocks..]) {
            *o = a.norm_sqr();
        }
    }

    /// AVX2 tier of [`super::super::expectation_diag`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn expectation_diag(amps: &[Complex64], diag: &[f64]) -> f64 {
        debug_assert_eq!(amps.len(), diag.len());
        let p = amps.as_ptr();
        let d = diag.as_ptr();
        let blocks = amps.len() / 4;
        let mut acc = _mm256_setzero_pd();
        for k in 0..blocks {
            let probs = four_probs(load2(p.add(4 * k)), load2(p.add(4 * k + 2)));
            acc = _mm256_fmadd_pd(probs, _mm256_loadu_pd(d.add(4 * k)), acc);
        }
        let (a, b) = lanes(acc);
        let mut total = a.re + a.im + b.re + b.im;
        for (a, d) in amps[4 * blocks..].iter().zip(&diag[4 * blocks..]) {
            total += a.norm_sqr() * d;
        }
        total
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    //! Differential tests pinning every AVX2 kernel body to its scalar
    //! tier: same inputs through both paths, compared at 1e-12. Qubit
    //! positions are swept exhaustively (including the in-register q = 0
    //! and q = 1 layouts) per generated case; matrices and amplitudes are
    //! property-generated. Each test no-ops on hardware without AVX2+FMA —
    //! there the dispatcher never selects these bodies either.
    use super::super::{
        apply_controlled_scalar, apply_multiplexed_scalar, apply_one_scalar, apply_two_scalar,
        backward_step_multiplexed_scalar, backward_step_one_scalar, backward_step_two_scalar,
    };
    use super::avx2;
    use crate::complex::Complex64;
    use crate::gates::{Matrix2, Matrix4};
    use proptest::prelude::*;

    const N: usize = 6;
    const TOL: f64 = 1e-12;

    fn to_amps(raw: &[f64]) -> Vec<Complex64> {
        raw.chunks_exact(2).map(|c| Complex64::new(c[0], c[1])).collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).norm() < TOL, "amplitude {i}: {x:?} vs {y:?}");
        }
    }

    fn assert_m2_close(a: &Matrix2, b: &Matrix2) {
        for r in 0..2 {
            for c in 0..2 {
                assert!((a.m[r][c] - b.m[r][c]).norm() < TOL, "entry ({r},{c})");
            }
        }
    }

    fn assert_m4_close(a: &Matrix4, b: &Matrix4) {
        for r in 0..4 {
            for c in 0..4 {
                assert!((a.m[r][c] - b.m[r][c]).norm() < TOL, "entry ({r},{c})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn avx2_apply_one_matches_scalar(
            angles in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            raw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            let g = Matrix2::u3(angles.0, angles.1, angles.2);
            for q in 0..N {
                let mut fast = to_amps(&raw);
                let mut slow = fast.clone();
                unsafe { avx2::apply_one(&mut fast, &g, q, 1) };
                apply_one_scalar(&mut slow, &g, q, 1);
                assert_close(&fast, &slow);
            }
        }

        #[test]
        fn avx2_apply_controlled_matches_scalar(
            angles in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            raw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            let g = Matrix2::u3(angles.0, angles.1, angles.2);
            for c in 0..N {
                for t in 0..N {
                    if c == t {
                        continue;
                    }
                    let mut fast = to_amps(&raw);
                    let mut slow = fast.clone();
                    unsafe { avx2::apply_controlled(&mut fast, &g, c, t, 1) };
                    apply_controlled_scalar(&mut slow, &g, c, t, 1);
                    assert_close(&fast, &slow);
                }
            }
        }

        #[test]
        fn avx2_apply_multiplexed_matches_scalar(
            za in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            oa in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            raw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            let a0 = Matrix2::u3(za.0, za.1, za.2);
            let a1 = Matrix2::u3(oa.0, oa.1, oa.2);
            for c in 0..N {
                for t in 0..N {
                    if c == t {
                        continue;
                    }
                    let mut fast = to_amps(&raw);
                    let mut slow = fast.clone();
                    unsafe { avx2::apply_multiplexed(&mut fast, &a0, &a1, c, t, 1) };
                    apply_multiplexed_scalar(&mut slow, &a0, &a1, c, t, 1);
                    assert_close(&fast, &slow);
                }
            }
        }

        #[test]
        fn avx2_apply_two_matches_scalar(
            ua in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            ca in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            raw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            // A generic (non-sparse) 4x4: CU3 stacked on a one-qubit U3.
            let g = Matrix4::controlled(&Matrix2::u3(ca.0, ca.1, ca.2), true)
                .matmul(&Matrix4::single_on_low(&Matrix2::u3(ua.0, ua.1, ua.2)));
            for a in 0..N {
                for b in (a + 1)..N {
                    let mut fast = to_amps(&raw);
                    let mut slow = fast.clone();
                    unsafe { avx2::apply_two(&mut fast, &g, a, b, 1) };
                    apply_two_scalar(&mut slow, &g, a, b, 1);
                    assert_close(&fast, &slow);
                }
            }
        }

        #[test]
        fn avx2_backward_one_matches_scalar(
            angles in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            kraw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
            braw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            let g = Matrix2::u3(angles.0, angles.1, angles.2);
            for q in 0..N {
                let mut kf = to_amps(&kraw);
                let mut bf = to_amps(&braw);
                let mut ks = kf.clone();
                let mut bs = bf.clone();
                let rf = unsafe { avx2::backward_step_one(&mut kf, &mut bf, &g, q, 1) };
                let rs = backward_step_one_scalar(&mut ks, &mut bs, &g, q, 1);
                assert_close(&kf, &ks);
                assert_close(&bf, &bs);
                assert_m2_close(&rf, &rs);
            }
        }

        #[test]
        fn avx2_backward_multiplexed_matches_scalar(
            za in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            oa in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            kraw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
            braw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            let z = Matrix2::u3(za.0, za.1, za.2);
            let o = Matrix2::u3(oa.0, oa.1, oa.2);
            for c in 0..N {
                for t in 0..N {
                    if c == t {
                        continue;
                    }
                    let mut kf = to_amps(&kraw);
                    let mut bf = to_amps(&braw);
                    let mut ks = kf.clone();
                    let mut bs = bf.clone();
                    let (rzf, rof) =
                        unsafe { avx2::backward_step_multiplexed(&mut kf, &mut bf, &z, &o, c, t, 1) };
                    let (rzs, ros) =
                        backward_step_multiplexed_scalar(&mut ks, &mut bs, &z, &o, c, t, 1);
                    assert_close(&kf, &ks);
                    assert_close(&bf, &bs);
                    assert_m2_close(&rzf, &rzs);
                    assert_m2_close(&rof, &ros);
                }
            }
        }

        #[test]
        fn avx2_backward_two_matches_scalar(
            ua in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            ca in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
            kraw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
            braw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            let g = Matrix4::controlled(&Matrix2::u3(ca.0, ca.1, ca.2), false)
                .matmul(&Matrix4::single_on_high(&Matrix2::u3(ua.0, ua.1, ua.2)));
            // The dispatcher keeps a == 0 on the scalar tier, so the AVX2
            // body only ever sees contiguous quad runs (a >= 1).
            for a in 1..N {
                for b in (a + 1)..N {
                    let mut kf = to_amps(&kraw);
                    let mut bf = to_amps(&braw);
                    let mut ks = kf.clone();
                    let mut bs = bf.clone();
                    let rf = unsafe { avx2::backward_step_two(&mut kf, &mut bf, &g, a, b, 1) };
                    let rs = backward_step_two_scalar(&mut ks, &mut bs, &g, a, b, 1);
                    assert_close(&kf, &ks);
                    assert_close(&bf, &bs);
                    assert_m4_close(&rf, &rs);
                }
            }
        }

        #[test]
        fn avx2_reductions_match_scalar(
            raw in prop::collection::vec(-1.0f64..1.0, 1 << (N + 1)),
            diag in prop::collection::vec(-2.0f64..2.0, 1 << N),
            len in 1usize..(1 << N),
        ) {
            if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
                return;
            }
            // Sub-slice lengths exercise the scalar tails (len % 4 != 0).
            let amps = to_amps(&raw);
            let amps = &amps[..len];
            let diag = &diag[..len];
            let norm_ref: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
            assert!((unsafe { avx2::norm_sqr_sum(amps) } - norm_ref).abs() < TOL);
            let exp_ref: f64 = amps.iter().zip(diag).map(|(a, d)| a.norm_sqr() * d).sum();
            assert!((unsafe { avx2::expectation_diag(amps, diag) } - exp_ref).abs() < TOL);
            let mut probs = vec![0.0; len];
            unsafe { avx2::probabilities_into(amps, &mut probs) };
            for (p, a) in probs.iter().zip(amps) {
                assert!((p - a.norm_sqr()).abs() < TOL);
            }
        }
    }
}
