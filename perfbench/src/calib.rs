//! Normalised CPU time: a fixed reference loop, timed beside the
//! workload, tells how fast the host's core runs at the moment, and
//! measured CPU time is rescaled to a nominal core speed.
//!
//! On a shared host the speed a vCPU gets moves by up to 1.7× within
//! seconds, and for minutes at a time, with what the host's other
//! tenants run, and the two vCPUs move independently. Neither wall nor
//! CPU time of the program alone can tell that apart from a change to
//! the program. The reference loop is shaped like the simulator's
//! kernels and runs on the same thread as the timed work, between its
//! units, so it sees the same core under the same neighbours; the
//! program's CPU time divided by the loop's gives its cost in a unit
//! that the host's speed cancels out of. The loop is the benchmark's own
//! code: a change to the program does not move it.

use crate::env::thread_cpu_s;
use crate::stats::{median, quantile_sorted, sorted};

/// CPU seconds of one timing of the reference loop on the nominal core
/// that normalised times are expressed for.
pub const NOMINAL_S: f64 = 1e-3;

/// Amplitudes of the reference state: a 10-qubit register, as the
/// paper's Q-M-LY circuit simulates (8 KiB per plane, L1-resident).
const AMPS: usize = 1 << 10;
/// f64 per cache line.
const LINE: usize = 8;
/// Gate sweeps per timing.
const SWEEPS: usize = 600;
/// Timings per probe; the median is kept.
const TRIES: usize = 5;

#[inline(always)]
fn sweep(re: &mut [f64], im: &mut [f64], c: f64, s: f64) {
    // One real rotation on each qubit from 3 up: pairs (j, j + step)
    // of contiguous runs of at least 8 amplitudes.
    let mut step = 8;
    while step < AMPS {
        for base in (0..AMPS).step_by(2 * step) {
            let (re_lo, re_hi) = re[base..base + 2 * step].split_at_mut(step);
            let (im_lo, im_hi) = im[base..base + 2 * step].split_at_mut(step);
            for j in 0..step {
                let (a, b) = (re_lo[j], re_hi[j]);
                re_lo[j] = c * a - s * b;
                re_hi[j] = s * a + c * b;
                let (a, b) = (im_lo[j], im_hi[j]);
                im_lo[j] = c * a - s * b;
                im_hi[j] = s * a + c * b;
            }
        }
        step *= 2;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn sweep_avx512(re: &mut [f64], im: &mut [f64], c: f64, s: f64) {
    sweep(re, im, c, s)
}

/// [`sweep`] in the widest vector tier the CPU has, as the simulator's
/// runtime-dispatched kernels use.
fn sweep_widest(re: &mut [f64], im: &mut [f64], c: f64, s: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports every feature the function enables.
            return unsafe { sweep_avx512(re, im, c, s) };
        }
    }
    sweep(re, im, c, s)
}

/// Times the reference loop between units of work.
pub struct Meter {
    /// Both planes of the reference state, on cache-line boundaries
    /// from `start`: the loop's speed depends on the alignment of its
    /// buffers (by 1.6× with AVX-512), which must not vary.
    buf: Vec<f64>,
    start: usize,
    /// CPU seconds of each probe since the last [`Meter::phase_reference_s`].
    probes: Vec<f64>,
}

impl Meter {
    /// Allocates the reference state.
    pub fn new() -> Self {
        let mut buf = vec![0.0; 2 * AMPS + LINE];
        let misalign = (buf.as_ptr() as usize / std::mem::size_of::<f64>()) % LINE;
        let start = (LINE - misalign) % LINE;
        for (i, x) in buf[start..start + 2 * AMPS].iter_mut().enumerate() {
            *x = ((i % 13) as f64 - 6.0) * 1e-2;
        }
        Self {
            buf,
            start,
            probes: Vec::new(),
        }
    }

    /// Times the reference loop: the median of a few timings of fixed
    /// rotation sweeps over a 10-qubit state, each on the calling
    /// thread's CPU clock.
    pub fn probe(&mut self) {
        let (re, im) = self.buf[self.start..self.start + 2 * AMPS].split_at_mut(AMPS);
        let mut times = [0.0; TRIES];
        for t in &mut times {
            let started = thread_cpu_s();
            for _ in 0..SWEEPS {
                sweep_widest(re, im, 0.6, 0.8);
            }
            std::hint::black_box((&*re, &*im));
            *t = thread_cpu_s() - started;
        }
        self.probes.push(median(&times));
    }

    /// Median CPU seconds of the reference loop over the probes since
    /// the previous call, which start the next phase.
    pub fn phase_reference_s(&mut self) -> f64 {
        let probes = sorted(&self.probes);
        self.probes.clear();
        let us = |q| quantile_sorted(&probes, q) * 1e6;
        eprintln!(
            "reference loop us over {} probes: min {:.1}, median {:.1}, max {:.1}",
            probes.len(),
            us(0.0),
            us(0.5),
            us(1.0)
        );
        quantile_sorted(&probes, 0.5)
    }
}

/// `cpu_s` CPU seconds, measured while the reference loop took
/// `reference_s`, in seconds of the nominal core.
pub fn normalise(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * NOMINAL_S / reference_s
}
