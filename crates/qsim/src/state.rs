use crate::{Complex64, Matrix2, QsimError};

/// A statevector over `n` qubits: `2^n` complex amplitudes, little-endian
/// (qubit `q` is bit `q` of the basis index).
///
/// # Examples
///
/// ```
/// use qugeo_qsim::State;
///
/// # fn main() -> Result<(), qugeo_qsim::QsimError> {
/// let state = State::from_real_normalized(&[1.0, 1.0, 1.0, 1.0])?;
/// assert_eq!(state.num_qubits(), 2);
/// assert!((state.probability(0) - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl State {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero(num_qubits: usize) -> Self {
        let mut amps = vec![Complex64::ZERO; 1 << num_qubits];
        amps[0] = Complex64::ONE;
        Self { num_qubits, amps }
    }

    /// Builds a state from explicit complex amplitudes.
    ///
    /// The amplitudes are used as-is (no normalisation); callers that need a
    /// physical state should pass a unit-norm vector. Non-normalised states
    /// are permitted because intermediate vectors in gradient computations
    /// are not unit norm.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidStateLength`] unless `amps.len()` is a
    /// positive power of two.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Result<Self, QsimError> {
        let len = amps.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(QsimError::InvalidStateLength { len });
        }
        Ok(Self {
            num_qubits: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Amplitude-encodes a real vector after ℓ₂ normalisation.
    ///
    /// This is the simulation-level equivalent of an amplitude-encoding
    /// circuit: classical element `i` becomes the amplitude of basis state
    /// `|i⟩`.
    ///
    /// # Errors
    ///
    /// * [`QsimError::InvalidStateLength`] if the length is not a positive
    ///   power of two.
    /// * [`QsimError::ZeroVector`] if every element is zero.
    pub fn from_real_normalized(data: &[f64]) -> Result<Self, QsimError> {
        let len = data.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(QsimError::InvalidStateLength { len });
        }
        let norm = data.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return Err(QsimError::ZeroVector);
        }
        let amps = data
            .iter()
            .map(|&x| Complex64::from_real(x / norm))
            .collect();
        Ok(Self {
            num_qubits: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of amplitudes (`2^n`).
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Always `false`: a state has at least one amplitude.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of the amplitudes.
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable view of the amplitudes.
    pub fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Probability of measuring basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Probabilities of all basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.amps.len()];
        crate::kernels::probabilities_into(&self.amps, &mut out);
        out
    }

    /// Euclidean norm of the state (1.0 for a physical state).
    pub fn norm(&self) -> f64 {
        crate::kernels::norm_sqr_sum(&self.amps).sqrt()
    }

    /// Rescales to unit norm (no-op on a zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for a in &mut self.amps {
                *a = a.scale(1.0 / n);
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] if dimensions differ.
    pub fn inner(&self, other: &Self) -> Result<Complex64, QsimError> {
        if self.num_qubits != other.num_qubits {
            return Err(QsimError::QubitCountMismatch {
                expected: self.num_qubits,
                actual: other.num_qubits,
            });
        }
        let mut acc = Complex64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        Ok(acc)
    }

    /// Expectation value `⟨ψ|Z_q|ψ⟩` of Pauli-Z on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    pub fn z_expectation(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let sign = if i & mask == 0 { 1.0 } else { -1.0 };
                sign * a.norm_sqr()
            })
            .sum()
    }

    /// Z expectation of every qubit, low to high.
    pub fn z_expectations(&self) -> Vec<f64> {
        (0..self.num_qubits).map(|q| self.z_expectation(q)).collect()
    }

    /// Marginal probabilities over the low `k` qubits (tracing out the
    /// rest). Element `j` of the result is `P(low k qubits = j)`.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.num_qubits()`.
    pub fn marginal_low(&self, k: usize) -> Vec<f64> {
        assert!(k <= self.num_qubits, "marginal over too many qubits");
        let mut probs = vec![0.0; 1 << k];
        let mask = (1usize << k) - 1;
        for (i, a) in self.amps.iter().enumerate() {
            probs[i & mask] += a.norm_sqr();
        }
        probs
    }

    /// Extracts block `index` of `count` equal contiguous blocks of the
    /// statevector as a new (unnormalised) state.
    ///
    /// With QuBatch the batch qubits are the *high* qubits, so the
    /// amplitudes of batch sample `b` are exactly block `b` of `B` blocks.
    /// The returned block has squared norm equal to the probability of the
    /// batch label `index`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidEncoding`] if `count` does not evenly
    /// divide the amplitude count into power-of-two blocks or
    /// `index >= count`.
    pub fn block(&self, index: usize, count: usize) -> Result<Self, QsimError> {
        if count == 0 || !count.is_power_of_two() || count > self.amps.len() {
            return Err(QsimError::InvalidEncoding {
                reason: format!("block count {count} invalid for {} amplitudes", self.amps.len()),
            });
        }
        if index >= count {
            return Err(QsimError::InvalidEncoding {
                reason: format!("block index {index} out of range ({count} blocks)"),
            });
        }
        let size = self.amps.len() / count;
        let amps = self.amps[index * size..(index + 1) * size].to_vec();
        Self::from_amplitudes(amps)
    }

    /// Applies a single-qubit gate in place.
    ///
    /// Delegates to the crate's branch-free kernels, which switch to
    /// chunked data-parallelism on large registers.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    pub fn apply_single(&mut self, gate: &Matrix2, q: usize) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        crate::kernels::apply_one(&mut self.amps, gate, q, crate::kernels::simulation_threads());
    }

    /// Applies a controlled single-qubit gate in place (gate acts on
    /// `target` where `control` is 1).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or `control == target`.
    pub fn apply_controlled(&mut self, gate: &Matrix2, control: usize, target: usize) {
        assert!(
            control < self.num_qubits && target < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(control, target, "control equals target");
        crate::kernels::apply_controlled(&mut self.amps, gate, control, target, crate::kernels::simulation_threads());
    }

    /// Applies a SWAP gate in place.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or `a == b`.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.num_qubits && b < self.num_qubits, "qubit out of range");
        assert_ne!(a, b, "swap qubits must differ");
        crate::kernels::apply_swap(&mut self.amps, a, b, crate::kernels::simulation_threads());
    }

    /// Writes `gate|self⟩` restricted to the controlled subspace into
    /// `out`, zeroing all other amplitudes of `out`. Used by the adjoint
    /// differentiation pass, where the derivative of a controlled gate
    /// vanishes outside the control-on subspace.
    ///
    /// When `control` is `None` the (possibly non-unitary) matrix acts on
    /// the whole space.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()` or any qubit is out of range.
    pub fn apply_matrix_into(
        &self,
        gate: &Matrix2,
        control: Option<usize>,
        target: usize,
        out: &mut Self,
    ) {
        assert_eq!(out.len(), self.len(), "output state dimension mismatch");
        assert!(target < self.num_qubits, "qubit out of range");
        let tmask = 1usize << target;
        let [[m00, m01], [m10, m11]] = gate.m;
        for a in &mut out.amps {
            *a = Complex64::ZERO;
        }
        match control {
            None => {
                for i in 0..self.amps.len() {
                    if i & tmask == 0 {
                        let j = i | tmask;
                        let a0 = self.amps[i];
                        let a1 = self.amps[j];
                        out.amps[i] = m00 * a0 + m01 * a1;
                        out.amps[j] = m10 * a0 + m11 * a1;
                    }
                }
            }
            Some(c) => {
                assert!(c < self.num_qubits, "control qubit out of range");
                assert_ne!(c, target, "control equals target");
                let cmask = 1usize << c;
                for i in 0..self.amps.len() {
                    if i & cmask != 0 && i & tmask == 0 {
                        let j = i | tmask;
                        let a0 = self.amps[i];
                        let a1 = self.amps[j];
                        out.amps[i] = m00 * a0 + m01 * a1;
                        out.amps[j] = m10 * a0 + m11 * a1;
                    }
                }
            }
        }
    }

    /// Tensor product `self ⊗ other`; `other`'s qubits become the new
    /// low-order qubits.
    pub fn tensor(&self, other: &Self) -> Self {
        let mut amps = Vec::with_capacity(self.amps.len() * other.amps.len());
        for a in &self.amps {
            for b in &other.amps {
                amps.push(*a * *b);
            }
        }
        Self {
            num_qubits: self.num_qubits + other.num_qubits,
            amps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state_is_basis_zero() {
        let s = State::zero(3);
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.len(), 8);
        assert!((s.probability(0) - 1.0).abs() < EPS);
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn from_real_normalized_unit_norm() {
        let s = State::from_real_normalized(&[3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((s.norm() - 1.0).abs() < EPS);
        assert!((s.probability(0) - 0.36).abs() < EPS);
        assert!((s.probability(3) - 0.64).abs() < EPS);
    }

    #[test]
    fn from_real_rejects_bad_input() {
        assert!(matches!(
            State::from_real_normalized(&[1.0, 2.0, 3.0]),
            Err(QsimError::InvalidStateLength { len: 3 })
        ));
        assert!(matches!(
            State::from_real_normalized(&[0.0, 0.0]),
            Err(QsimError::ZeroVector)
        ));
        assert!(matches!(
            State::from_real_normalized(&[]),
            Err(QsimError::InvalidStateLength { len: 0 })
        ));
    }

    #[test]
    fn x_gate_flips_qubit() {
        let mut s = State::zero(2);
        s.apply_single(&Matrix2::x(), 1);
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn h_gate_makes_uniform_superposition() {
        let mut s = State::zero(1);
        s.apply_single(&Matrix2::h(), 0);
        assert!((s.amplitudes()[0].re - FRAC_1_SQRT_2).abs() < EPS);
        assert!((s.amplitudes()[1].re - FRAC_1_SQRT_2).abs() < EPS);
        assert!((s.z_expectation(0)).abs() < EPS);
    }

    #[test]
    fn bell_state_entanglement() {
        let mut s = State::zero(2);
        s.apply_single(&Matrix2::h(), 0);
        s.apply_controlled(&Matrix2::x(), 0, 1);
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
        assert!(s.probability(0b01) < EPS);
        assert!(s.probability(0b10) < EPS);
    }

    #[test]
    fn controlled_gate_inactive_when_control_zero() {
        let mut s = State::zero(2); // control qubit 0 is |0>
        s.apply_controlled(&Matrix2::x(), 0, 1);
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn z_expectation_signs() {
        let mut s = State::zero(2);
        assert!((s.z_expectation(0) - 1.0).abs() < EPS);
        s.apply_single(&Matrix2::x(), 0);
        assert!((s.z_expectation(0) + 1.0).abs() < EPS);
        assert!((s.z_expectation(1) - 1.0).abs() < EPS);
        assert_eq!(s.z_expectations().len(), 2);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = State::zero(2);
        s.apply_single(&Matrix2::x(), 0); // |01> (qubit0 = 1)
        s.apply_swap(0, 1);
        assert!((s.probability(0b10) - 1.0).abs() < EPS); // now qubit1 = 1
    }

    #[test]
    fn swap_is_involution() {
        let mut s = State::from_real_normalized(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let before = s.clone();
        s.apply_swap(0, 1);
        s.apply_swap(0, 1);
        for (a, b) in s.amplitudes().iter().zip(before.amplitudes()) {
            assert!((*a - *b).norm() < EPS);
        }
    }

    #[test]
    fn gates_preserve_norm() {
        let mut s = State::from_real_normalized(&[0.1, 0.4, -0.2, 0.8]).unwrap();
        s.apply_single(&Matrix2::u3(0.7, -0.3, 1.1), 0);
        s.apply_controlled(&Matrix2::u3(1.3, 0.2, -0.9), 0, 1);
        s.apply_swap(0, 1);
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn marginal_low_sums_to_one() {
        let s = State::from_real_normalized(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        let m = s.marginal_low(2);
        assert_eq!(m.len(), 4);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < EPS);
        // P(low2 = 0) = |a0|^2 + |a4|^2
        let expect = s.probability(0) + s.probability(4);
        assert!((m[0] - expect).abs() < EPS);
    }

    #[test]
    fn block_extracts_batches() {
        let s = State::from_real_normalized(&[1.0, 0.0, 0.0, 1.0]).unwrap();
        let b0 = s.block(0, 2).unwrap();
        let b1 = s.block(1, 2).unwrap();
        assert_eq!(b0.num_qubits(), 1);
        assert!((b0.amplitudes()[0].re - FRAC_1_SQRT_2).abs() < EPS);
        assert!((b1.amplitudes()[1].re - FRAC_1_SQRT_2).abs() < EPS);
        assert!(s.block(2, 2).is_err());
        assert!(s.block(0, 3).is_err());
    }

    #[test]
    fn inner_product() {
        let a = State::zero(1);
        let mut b = State::zero(1);
        b.apply_single(&Matrix2::h(), 0);
        let ip = a.inner(&b).unwrap();
        assert!((ip.re - FRAC_1_SQRT_2).abs() < EPS);
        assert!(a.inner(&State::zero(2)).is_err());
    }

    #[test]
    fn tensor_product_dimensions_and_values() {
        let mut a = State::zero(1);
        a.apply_single(&Matrix2::x(), 0); // |1>
        let b = State::zero(1); // |0>
        let t = a.tensor(&b); // a is high qubit: |1>|0> = index 0b10
        assert_eq!(t.num_qubits(), 2);
        assert!((t.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn apply_matrix_into_matches_apply_controlled() {
        let s = State::from_real_normalized(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let g = Matrix2::u3(0.4, 0.9, -0.2);
        let mut out = State::zero(2);
        s.apply_matrix_into(&g, Some(0), 1, &mut out);
        // Manual: copy, apply controlled, then zero control-off amplitudes.
        let mut manual = s.clone();
        manual.apply_controlled(&g, 0, 1);
        for i in 0..4 {
            if i & 1 != 0 {
                assert!((out.amplitudes()[i] - manual.amplitudes()[i]).norm() < EPS);
            } else {
                assert_eq!(out.amplitudes()[i], Complex64::ZERO);
            }
        }
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let mut s = State::from_amplitudes(vec![
            Complex64::new(3.0, 0.0),
            Complex64::new(0.0, 4.0),
        ])
        .unwrap();
        s.normalize();
        assert!((s.norm() - 1.0).abs() < EPS);
    }
}
