/// Cerjan-style sponge absorbing boundary.
///
/// The physical model is padded with `width` extra cells on the left,
/// right and bottom edges (the top is a free surface, as in the OpenFWI
/// setup); inside the padding, wavefield amplitudes are multiplied each
/// step by a taper that decays towards the outer edge, absorbing outgoing
/// energy and suppressing edge reflections.
///
/// The taper follows Cerjan et al. (1985):
/// `g(d) = exp(−(α · (width − d) / width)²)` for distance `d` from the
/// inner edge of the sponge.
///
/// # Examples
///
/// ```
/// use qugeo_wavesim::SpongeBoundary;
///
/// let sponge = SpongeBoundary::new(20, 3.0);
/// assert_eq!(sponge.width(), 20);
/// assert!(sponge.taper(0) < sponge.taper(19)); // decays outward
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpongeBoundary {
    width: usize,
    strength: f64,
    taper: Vec<f64>,
}

impl SpongeBoundary {
    /// Creates a sponge of `width` cells with decay `strength` (values in
    /// the 2–4 range absorb well; 0 disables damping).
    pub fn new(width: usize, strength: f64) -> Self {
        let taper = (0..width)
            .map(|d| {
                if width == 0 {
                    1.0
                } else {
                    let x = strength * (width - d) as f64 / width as f64;
                    (-x * x).exp()
                }
            })
            .collect();
        Self {
            width,
            strength,
            taper,
        }
    }

    /// Sponge width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Decay strength.
    pub fn strength(&self) -> f64 {
        self.strength
    }

    /// Damping factor at distance `d` **from the outer edge** (so `d = 0`
    /// is the outermost, most damped cell). Distances at or beyond the
    /// sponge width return 1.0 (no damping).
    pub fn taper(&self, d: usize) -> f64 {
        if d < self.width {
            self.taper[d]
        } else {
            1.0
        }
    }

    /// Damping factor for a padded-grid cell.
    ///
    /// `ix`/`iz` index the padded grid of `nx_pad × nz_pad` cells; the
    /// sponge occupies the left/right/bottom margins (free surface on
    /// top).
    pub fn factor(&self, ix: usize, iz: usize, nx_pad: usize, nz_pad: usize) -> f64 {
        let mut f = 1.0;
        // Left margin.
        if ix < self.width {
            f *= self.taper(ix);
        }
        // Right margin.
        if ix >= nx_pad - self.width.min(nx_pad) {
            f *= self.taper(nx_pad - 1 - ix);
        }
        // Bottom margin.
        if iz >= nz_pad - self.width.min(nz_pad) {
            f *= self.taper(nz_pad - 1 - iz);
        }
        f
    }
}

impl Default for SpongeBoundary {
    /// A well-tested default: 20 cells, strength 3.0.
    fn default() -> Self {
        Self::new(20, 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taper_monotone_increasing_inward() {
        let s = SpongeBoundary::new(10, 3.0);
        for d in 0..9 {
            assert!(s.taper(d) < s.taper(d + 1), "taper must grow inward");
        }
        assert!(s.taper(0) > 0.0);
        assert!(s.taper(9) < 1.0);
        assert_eq!(s.taper(10), 1.0);
        assert_eq!(s.taper(100), 1.0);
    }

    #[test]
    fn interior_is_undamped() {
        let s = SpongeBoundary::new(5, 3.0);
        // Centre of a 30x30 padded grid.
        assert_eq!(s.factor(15, 15, 30, 30), 1.0);
        // Top edge (free surface) is undamped.
        assert_eq!(s.factor(15, 0, 30, 30), 1.0);
    }

    #[test]
    fn margins_are_damped() {
        let s = SpongeBoundary::new(5, 3.0);
        assert!(s.factor(0, 15, 30, 30) < 1.0); // left
        assert!(s.factor(29, 15, 30, 30) < 1.0); // right
        assert!(s.factor(15, 29, 30, 30) < 1.0); // bottom
    }

    #[test]
    fn corner_damping_compounds() {
        let s = SpongeBoundary::new(5, 3.0);
        let corner = s.factor(0, 29, 30, 30);
        let edge = s.factor(0, 15, 30, 30);
        assert!(corner < edge, "corner should be damped in both directions");
    }

    #[test]
    fn zero_width_is_identity() {
        let s = SpongeBoundary::new(0, 3.0);
        assert_eq!(s.factor(0, 0, 10, 10), 1.0);
        assert_eq!(s.factor(9, 9, 10, 10), 1.0);
    }

    #[test]
    fn zero_strength_is_identity_taper() {
        let s = SpongeBoundary::new(10, 0.0);
        for d in 0..10 {
            assert_eq!(s.taper(d), 1.0);
        }
    }
}
