use crate::WavesimError;

/// A Ricker wavelet — the second derivative of a Gaussian, the standard
/// band-limited source signature in seismic modelling.
///
/// `w(t) = (1 − 2π²f²τ²) · exp(−π²f²τ²)` with `τ = t − t₀`, where the
/// delay `t₀ = 1/f` puts the wavelet's peak safely after time zero.
///
/// The QuGeo paper's physics-guided rescaling lowers the source frequency
/// from 15 Hz to 8 Hz when shrinking the time axis, so that the coarser
/// sampling still resolves the wavelet — both frequencies are constructed
/// here in the data pipeline.
///
/// # Examples
///
/// ```
/// use qugeo_wavesim::RickerWavelet;
///
/// # fn main() -> Result<(), qugeo_wavesim::WavesimError> {
/// let w = RickerWavelet::new(15.0, 0.001)?;
/// // Peak amplitude 1.0 at the delay time.
/// assert!((w.amplitude(w.delay()) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RickerWavelet {
    peak_frequency: f64,
    dt: f64,
    delay: f64,
}

impl RickerWavelet {
    /// Creates a Ricker wavelet with the given peak frequency, sampled at
    /// `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`WavesimError::InvalidWavelet`] if the frequency is not
    /// positive/finite, or if `dt` cannot resolve it (needs at least ~10
    /// samples per period to keep the discrete source clean).
    pub fn new(peak_frequency: f64, dt: f64) -> Result<Self, WavesimError> {
        if !(peak_frequency > 0.0 && peak_frequency.is_finite()) {
            return Err(WavesimError::InvalidWavelet {
                reason: format!("peak frequency must be positive, got {peak_frequency}"),
            });
        }
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(WavesimError::InvalidWavelet {
                reason: format!("dt must be positive, got {dt}"),
            });
        }
        if dt * peak_frequency > 0.1 {
            return Err(WavesimError::InvalidWavelet {
                reason: format!("dt {dt} too coarse for {peak_frequency} Hz (need dt*f <= 0.1)"),
            });
        }
        Ok(Self {
            peak_frequency,
            dt,
            delay: 1.0 / peak_frequency,
        })
    }

    /// Sample interval in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Time of the wavelet peak in seconds.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Wavelet amplitude at absolute time `t` (seconds).
    pub fn amplitude(&self, t: f64) -> f64 {
        let tau = t - self.delay;
        let a = std::f64::consts::PI * self.peak_frequency * tau;
        let a2 = a * a;
        (1.0 - 2.0 * a2) * (-a2).exp()
    }

    /// Amplitude at time step `step` (i.e. `t = step · dt`).
    pub fn sample(&self, step: usize) -> f64 {
        self.amplitude(step as f64 * self.dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_one_at_delay() {
        let w = RickerWavelet::new(8.0, 0.001).unwrap();
        assert!((w.amplitude(w.delay()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_about_delay() {
        let w = RickerWavelet::new(15.0, 0.001).unwrap();
        for &off in &[0.01, 0.02, 0.05] {
            let a = w.amplitude(w.delay() + off);
            let b = w.amplitude(w.delay() - off);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn decays_to_zero() {
        let w = RickerWavelet::new(15.0, 0.001).unwrap();
        assert!(w.amplitude(w.delay() + 1.0).abs() < 1e-10);
        assert!(w.amplitude(0.0).abs() < 0.05); // small at onset thanks to delay
    }

    #[test]
    fn zero_mean_integral() {
        // The Ricker wavelet integrates to zero (band-limited, no DC).
        // Truncation at t = 0 leaves a small residual; the integral must
        // still be orders of magnitude below the wavelet's unit peak.
        let w = RickerWavelet::new(10.0, 0.001).unwrap();
        let sum: f64 = (0..2000).map(|step| w.sample(step)).sum();
        assert!(sum.abs() * w.dt() < 1e-4, "integral was {}", sum * w.dt());
    }

    #[test]
    fn lower_frequency_means_wider_wavelet() {
        let hi = RickerWavelet::new(15.0, 0.001).unwrap();
        let lo = RickerWavelet::new(8.0, 0.001).unwrap();
        // Width proxy: count samples above half the peak.
        let count = |w: &RickerWavelet| (0..2000).filter(|&step| w.sample(step) > 0.5).count();
        assert!(
            count(&lo) > count(&hi),
            "8 Hz wavelet should be wider than 15 Hz"
        );
    }

    #[test]
    fn validates_inputs() {
        assert!(RickerWavelet::new(0.0, 0.001).is_err());
        assert!(RickerWavelet::new(-5.0, 0.001).is_err());
        assert!(RickerWavelet::new(15.0, 0.0).is_err());
        assert!(RickerWavelet::new(15.0, 0.05).is_err()); // unresolvable
        assert!(RickerWavelet::new(f64::NAN, 0.001).is_err());
    }

    #[test]
    fn sample_matches_amplitude() {
        let w = RickerWavelet::new(12.0, 0.002).unwrap();
        assert_eq!(w.sample(50), w.amplitude(0.1));
    }
}
