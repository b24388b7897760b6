use crate::{QsimError, State};

/// A diagonal observable on `n` qubits: a real weight per basis state.
///
/// Every measurement the QuGeo decoders need is diagonal in the
/// computational basis:
///
/// * the layer-wise decoder reads per-qubit Pauli-Z expectations
///   ([`DiagonalObservable::z`]),
/// * the pixel-wise decoder reads basis-state probabilities, i.e.
///   projector expectations ([`DiagonalObservable::projector`]),
/// * loss gradients combine those into one weighted sum
///   ([`DiagonalObservable::weighted_sum`]), which is what the adjoint
///   differentiation pass consumes.
///
/// # Examples
///
/// ```
/// use qugeo_qsim::{DiagonalObservable, State};
///
/// # fn main() -> Result<(), qugeo_qsim::QsimError> {
/// let z0 = DiagonalObservable::z(2, 0)?;
/// let state = State::zero(2);
/// assert_eq!(z0.expectation(&state), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalObservable {
    num_qubits: usize,
    diag: Vec<f64>,
}

impl DiagonalObservable {
    /// Builds an observable from an explicit diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidStateLength`] unless the length is a
    /// positive power of two.
    pub fn from_diagonal(diag: Vec<f64>) -> Result<Self, QsimError> {
        let len = diag.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(QsimError::InvalidStateLength { len });
        }
        Ok(Self {
            num_qubits: len.trailing_zeros() as usize,
            diag,
        })
    }

    /// Pauli-Z on qubit `q` of an `num_qubits`-qubit register.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] if `q >= num_qubits`.
    pub fn z(num_qubits: usize, q: usize) -> Result<Self, QsimError> {
        if q >= num_qubits {
            return Err(QsimError::QubitOutOfRange {
                qubit: q,
                num_qubits,
            });
        }
        let mask = 1usize << q;
        let diag = (0..1usize << num_qubits)
            .map(|i| if i & mask == 0 { 1.0 } else { -1.0 })
            .collect();
        Ok(Self { num_qubits, diag })
    }

    /// Projector `|index⟩⟨index|` on the full register.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidStateLength`] if
    /// `index >= 2^num_qubits`.
    pub fn projector(num_qubits: usize, index: usize) -> Result<Self, QsimError> {
        let dim = 1usize << num_qubits;
        if index >= dim {
            return Err(QsimError::InvalidStateLength { len: index });
        }
        let mut diag = vec![0.0; dim];
        diag[index] = 1.0;
        Ok(Self { num_qubits, diag })
    }

    /// Weighted sum `Σ wᵢ Oᵢ` of same-size diagonal observables.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] if the observables differ
    /// in size, or [`QsimError::InvalidStateLength`] when `terms` is empty
    /// or lengths differ between `weights` and `terms`.
    pub fn weighted_sum(terms: &[Self], weights: &[f64]) -> Result<Self, QsimError> {
        if terms.is_empty() || terms.len() != weights.len() {
            return Err(QsimError::InvalidStateLength { len: terms.len() });
        }
        let num_qubits = terms[0].num_qubits;
        let mut diag = vec![0.0; terms[0].diag.len()];
        for (t, &w) in terms.iter().zip(weights) {
            if t.num_qubits != num_qubits {
                return Err(QsimError::QubitCountMismatch {
                    expected: num_qubits,
                    actual: t.num_qubits,
                });
            }
            for (d, &v) in diag.iter_mut().zip(&t.diag) {
                *d += w * v;
            }
        }
        Ok(Self { num_qubits, diag })
    }

    /// Number of qubits the observable acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The diagonal entries.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// Expectation value `⟨ψ|O|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the state has a different qubit count.
    pub fn expectation(&self, state: &State) -> f64 {
        assert_eq!(
            state.num_qubits(),
            self.num_qubits,
            "observable and state disagree on qubit count"
        );
        crate::kernels::expectation_diag(state.amplitudes(), &self.diag)
    }

    /// Applies the observable to a state, producing `O|ψ⟩` (element-wise
    /// scaling of amplitudes). Used as the seed of adjoint
    /// differentiation.
    ///
    /// # Panics
    ///
    /// Panics if the state has a different qubit count.
    pub fn apply(&self, state: &State) -> State {
        assert_eq!(
            state.num_qubits(),
            self.num_qubits,
            "observable and state disagree on qubit count"
        );
        let amps = state
            .amplitudes()
            .iter()
            .zip(&self.diag)
            .map(|(a, &d)| a.scale(d))
            .collect();
        State::from_amplitudes(amps).expect("same power-of-two length as input state")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix2;

    const EPS: f64 = 1e-12;

    #[test]
    fn z_observable_matches_state_method() {
        let mut s = State::zero(3);
        s.apply_single(&Matrix2::h(), 0);
        s.apply_single(&Matrix2::x(), 2);
        for q in 0..3 {
            let o = DiagonalObservable::z(3, q).unwrap();
            assert!((o.expectation(&s) - s.z_expectation(q)).abs() < EPS);
        }
    }

    #[test]
    fn z_rejects_out_of_range() {
        assert!(DiagonalObservable::z(2, 2).is_err());
    }

    #[test]
    fn projector_expectation_is_probability() {
        let s = State::from_real_normalized(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        for i in 0..4 {
            let p = DiagonalObservable::projector(2, i).unwrap();
            assert!((p.expectation(&s) - s.probability(i)).abs() < EPS);
        }
        assert!(DiagonalObservable::projector(2, 4).is_err());
    }

    #[test]
    fn weighted_sum_is_linear() {
        let s = State::from_real_normalized(&[1.0, -1.0, 2.0, 0.5]).unwrap();
        let z0 = DiagonalObservable::z(2, 0).unwrap();
        let z1 = DiagonalObservable::z(2, 1).unwrap();
        let sum = DiagonalObservable::weighted_sum(&[z0.clone(), z1.clone()], &[2.0, -3.0]).unwrap();
        let expect = 2.0 * z0.expectation(&s) - 3.0 * z1.expectation(&s);
        assert!((sum.expectation(&s) - expect).abs() < EPS);
    }

    #[test]
    fn weighted_sum_validates() {
        let z0 = DiagonalObservable::z(2, 0).unwrap();
        let z1 = DiagonalObservable::z(3, 0).unwrap();
        assert!(DiagonalObservable::weighted_sum(&[], &[]).is_err());
        assert!(DiagonalObservable::weighted_sum(std::slice::from_ref(&z0), &[1.0, 2.0]).is_err());
        assert!(DiagonalObservable::weighted_sum(&[z0, z1], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn apply_scales_amplitudes() {
        let s = State::from_real_normalized(&[1.0, 1.0]).unwrap();
        let z = DiagonalObservable::z(1, 0).unwrap();
        let zs = z.apply(&s);
        assert!((zs.amplitudes()[0].re - s.amplitudes()[0].re).abs() < EPS);
        assert!((zs.amplitudes()[1].re + s.amplitudes()[1].re).abs() < EPS);
        // <ψ|Z|ψ> via inner product equals expectation.
        let ip = s.inner(&zs).unwrap();
        assert!((ip.re - z.expectation(&s)).abs() < EPS);
    }

    #[test]
    fn from_diagonal_validates_length() {
        assert!(DiagonalObservable::from_diagonal(vec![1.0, 2.0, 3.0]).is_err());
        assert!(DiagonalObservable::from_diagonal(vec![]).is_err());
        let o = DiagonalObservable::from_diagonal(vec![1.0, 2.0]).unwrap();
        assert_eq!(o.num_qubits(), 1);
        assert_eq!(o.diagonal(), &[1.0, 2.0]);
    }
}
