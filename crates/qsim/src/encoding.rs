//! Classical-to-quantum data encoding.
//!
//! QuGeo loads seismic data into quantum amplitudes three ways:
//!
//! * [`amplitude_encode`] — one vector of `2^n` values on `n` qubits,
//! * [`encode_grouped`] — the ST-Encoder: data split into per-source
//!   groups, each group amplitude-encoded on its own qubit subset; the
//!   joint state is the tensor product of the group states,
//! * [`encode_batched`] — QuBatch: `B` samples concatenated into one
//!   statevector over `n + log₂B` qubits, the batch index living in the
//!   high-order qubits.
//!
//! Encoding necessarily ℓ₂-normalises the data (quantum amplitudes must
//! have unit norm); QuBatch additionally spreads one unit of norm across
//! all batch members, which is the precision loss the paper's Section 3.3.3
//! discusses. [`BatchedState::block_weights`] records each member's share.

use crate::{QsimError, State};

/// Amplitude-encodes a real vector of power-of-two length onto
/// `log₂(len)` qubits.
///
/// # Errors
///
/// Returns [`QsimError::InvalidStateLength`] for non-power-of-two lengths
/// and [`QsimError::ZeroVector`] for all-zero data.
///
/// # Examples
///
/// ```
/// use qugeo_qsim::encoding::amplitude_encode;
///
/// # fn main() -> Result<(), qugeo_qsim::QsimError> {
/// let state = amplitude_encode(&[1.0, 0.0, 0.0, 1.0])?;
/// assert_eq!(state.num_qubits(), 2);
/// assert!((state.probability(0) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn amplitude_encode(data: &[f64]) -> Result<State, QsimError> {
    State::from_real_normalized(data)
}

/// Amplitude-encodes after zero-padding the data up to the next power of
/// two.
///
/// # Errors
///
/// Returns [`QsimError::ZeroVector`] for all-zero (or empty) data.
pub fn amplitude_encode_padded(data: &[f64]) -> Result<State, QsimError> {
    if data.is_empty() {
        return Err(QsimError::ZeroVector);
    }
    let target = data.len().next_power_of_two();
    if target == data.len() {
        return amplitude_encode(data);
    }
    let mut padded = data.to_vec();
    padded.resize(target, 0.0);
    amplitude_encode(&padded)
}

/// Description of a grouped (ST-Encoder) layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLayout {
    /// Number of groups (e.g. seismic sources).
    pub num_groups: usize,
    /// Qubits each group occupies.
    pub qubits_per_group: usize,
}

impl GroupLayout {
    /// Computes the layout for splitting `data_len` values into
    /// `num_groups` equal power-of-two groups.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidEncoding`] unless `num_groups` divides
    /// `data_len` into equal power-of-two chunks.
    pub fn for_data(data_len: usize, num_groups: usize) -> Result<Self, QsimError> {
        if num_groups == 0 || data_len == 0 || !data_len.is_multiple_of(num_groups) {
            return Err(QsimError::InvalidEncoding {
                reason: format!("cannot split {data_len} values into {num_groups} groups"),
            });
        }
        let group_size = data_len / num_groups;
        if !group_size.is_power_of_two() {
            return Err(QsimError::InvalidEncoding {
                reason: format!("group size {group_size} is not a power of two"),
            });
        }
        Ok(Self {
            num_groups,
            qubits_per_group: group_size.trailing_zeros() as usize,
        })
    }

    /// Total qubits of the grouped register.
    pub fn total_qubits(&self) -> usize {
        self.num_groups * self.qubits_per_group
    }

    /// The qubit indices of group `g` (low to high).
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.num_groups`.
    pub fn group_qubits(&self, g: usize) -> std::ops::Range<usize> {
        assert!(g < self.num_groups, "group {g} out of range");
        g * self.qubits_per_group..(g + 1) * self.qubits_per_group
    }
}

/// ST-Encoder: splits `data` into `num_groups` equal chunks (one per
/// seismic source), amplitude-encodes each chunk on its own qubits, and
/// returns the tensor-product state. Group 0 occupies the lowest qubits.
///
/// Each group is normalised independently — the relative scale between
/// groups is intentionally discarded, matching the paper's design where
/// each source is an independent physical event.
///
/// # Errors
///
/// Returns [`QsimError::InvalidEncoding`] for non-divisible layouts and
/// [`QsimError::ZeroVector`] if any group is all zeros.
pub fn encode_grouped(data: &[f64], num_groups: usize) -> Result<State, QsimError> {
    let layout = GroupLayout::for_data(data.len(), num_groups)?;
    let group_size = 1usize << layout.qubits_per_group;
    let mut state: Option<State> = None;
    // Build from the highest group downwards so that group 0 ends up in
    // the low-order qubits (State::tensor makes the right operand low).
    for g in (0..num_groups).rev() {
        let chunk = &data[g * group_size..(g + 1) * group_size];
        let group_state = State::from_real_normalized(chunk)?;
        state = Some(match state {
            None => group_state,
            Some(s) => s.tensor(&group_state),
        });
    }
    Ok(state.expect("num_groups >= 1 guaranteed by layout"))
}

/// A QuBatch-encoded state: `B` samples sharing one circuit execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedState {
    state: State,
    data_qubits: usize,
    batch_qubits: usize,
    batch_count: usize,
    block_weights: Vec<f64>,
}

impl BatchedState {
    /// The underlying statevector over `data_qubits + batch_qubits`
    /// qubits.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Qubits holding each sample's data.
    pub fn data_qubits(&self) -> usize {
        self.data_qubits
    }

    /// Extra high-order qubits holding the batch index (`log₂B`).
    pub fn batch_qubits(&self) -> usize {
        self.batch_qubits
    }

    /// Number of real samples encoded (the register may hold up to
    /// `2^batch_qubits`).
    pub fn batch_count(&self) -> usize {
        self.batch_count
    }

    /// `|c_b|²` — the share of total state norm carried by sample `b`.
    ///
    /// These weights are invariant under any circuit that touches only the
    /// data qubits, which is what makes per-sample decoding and gradients
    /// well-defined.
    pub fn block_weights(&self) -> &[f64] {
        &self.block_weights
    }

    /// Extracts the (renormalised) data-qubit state of sample `b` from a
    /// processed statevector of matching dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidEncoding`] if `b >= batch_count` or the
    /// processed state's size disagrees with the encoding.
    pub fn sample_state(&self, processed: &State, b: usize) -> Result<State, QsimError> {
        if b >= self.batch_count {
            return Err(QsimError::InvalidEncoding {
                reason: format!("sample {b} out of range ({} encoded)", self.batch_count),
            });
        }
        if processed.num_qubits() != self.data_qubits + self.batch_qubits {
            return Err(QsimError::QubitCountMismatch {
                expected: self.data_qubits + self.batch_qubits,
                actual: processed.num_qubits(),
            });
        }
        let mut block = processed.block(b, 1 << self.batch_qubits)?;
        block.normalize();
        Ok(block)
    }
}

/// QuBatch encoding: concatenates `samples` (each of the same power-of-two
/// length) into one statevector whose high-order qubits index the batch.
///
/// The batch dimension is zero-padded up to a power of two, so `B` samples
/// cost `ceil(log₂B)` extra qubits — the paper's "process 2^N batches with
/// only N additional qubits".
///
/// # Errors
///
/// * [`QsimError::InvalidEncoding`] if `samples` is empty or lengths are
///   unequal / not a power of two.
/// * [`QsimError::ZeroVector`] if any sample is all zeros.
///
/// # Examples
///
/// ```
/// use qugeo_qsim::encoding::encode_batched;
///
/// # fn main() -> Result<(), qugeo_qsim::QsimError> {
/// let batch = encode_batched(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// assert_eq!(batch.data_qubits(), 1);
/// assert_eq!(batch.batch_qubits(), 1);
/// assert!((batch.block_weights()[0] - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn encode_batched(samples: &[Vec<f64>]) -> Result<BatchedState, QsimError> {
    let first = samples.first().ok_or_else(|| QsimError::InvalidEncoding {
        reason: "empty batch".to_string(),
    })?;
    let sample_len = first.len();
    if sample_len == 0 || !sample_len.is_power_of_two() {
        return Err(QsimError::InvalidEncoding {
            reason: format!("sample length {sample_len} is not a power of two"),
        });
    }
    let padded_count = samples.len().next_power_of_two();
    let batch_qubits = padded_count.trailing_zeros() as usize;
    let data_qubits = sample_len.trailing_zeros() as usize;

    let mut concat = Vec::with_capacity(padded_count * sample_len);
    let mut norms_sq = Vec::with_capacity(samples.len());
    for s in samples {
        if s.len() != sample_len {
            return Err(QsimError::InvalidEncoding {
                reason: format!("sample length {} differs from {}", s.len(), sample_len),
            });
        }
        let nsq: f64 = s.iter().map(|x| x * x).sum();
        if nsq == 0.0 {
            return Err(QsimError::ZeroVector);
        }
        norms_sq.push(nsq);
        concat.extend_from_slice(s);
    }
    concat.resize(padded_count * sample_len, 0.0);

    let total: f64 = norms_sq.iter().sum();
    let block_weights = norms_sq.iter().map(|n| n / total).collect();
    let state = State::from_real_normalized(&concat)?;

    Ok(BatchedState {
        state,
        data_qubits,
        batch_qubits,
        batch_count: samples.len(),
        block_weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn amplitude_encode_matches_normalized_data() {
        let s = amplitude_encode(&[3.0, 4.0]).unwrap();
        assert!((s.amplitudes()[0].re - 0.6).abs() < EPS);
        assert!((s.amplitudes()[1].re - 0.8).abs() < EPS);
    }

    #[test]
    fn padded_encode_rounds_up() {
        let s = amplitude_encode_padded(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(s.num_qubits(), 2);
        assert!(s.probability(3) < EPS);
        assert!(amplitude_encode_padded(&[]).is_err());
    }

    #[test]
    fn group_layout_validation() {
        let l = GroupLayout::for_data(256, 2).unwrap();
        assert_eq!(l.qubits_per_group, 7);
        assert_eq!(l.total_qubits(), 14);
        assert_eq!(l.group_qubits(1), 7..14);
        assert!(GroupLayout::for_data(256, 3).is_err());
        assert!(GroupLayout::for_data(24, 2).is_err()); // 12 not power of two
        assert!(GroupLayout::for_data(256, 0).is_err());
    }

    #[test]
    fn encode_grouped_single_group_equals_plain() {
        let data = [1.0, -2.0, 0.5, 3.0];
        let grouped = encode_grouped(&data, 1).unwrap();
        let plain = amplitude_encode(&data).unwrap();
        for (a, b) in grouped.amplitudes().iter().zip(plain.amplitudes()) {
            assert!((*a - *b).norm() < EPS);
        }
    }

    #[test]
    fn encode_grouped_is_product_state() {
        // Group 0 = [1, 0] -> |0>, group 1 = [0, 1] -> |1>.
        // Joint state should be |1>_g1 |0>_g0 = basis index 0b10.
        let s = encode_grouped(&[1.0, 0.0, 0.0, 1.0], 2).unwrap();
        assert_eq!(s.num_qubits(), 2);
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn encode_grouped_normalises_each_group() {
        // Different group magnitudes must not leak across groups.
        let s = encode_grouped(&[100.0, 0.0, 0.0, 0.001], 2).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn encode_grouped_rejects_zero_group() {
        assert!(matches!(
            encode_grouped(&[1.0, 1.0, 0.0, 0.0], 2),
            Err(QsimError::ZeroVector)
        ));
    }

    #[test]
    fn batched_encoding_layout() {
        let b = encode_batched(&[vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]]).unwrap();
        assert_eq!(b.data_qubits(), 2);
        assert_eq!(b.batch_qubits(), 1);
        assert_eq!(b.batch_count(), 2);
        assert_eq!(b.state().num_qubits(), 3);
        assert!((b.state().norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn batched_block_weights_sum_to_one() {
        let b = encode_batched(&[
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 3.0],
        ])
        .unwrap();
        // Padded to 4 blocks, 2 batch qubits.
        assert_eq!(b.batch_qubits(), 2);
        let sum: f64 = b.block_weights().iter().sum();
        assert!((sum - 1.0).abs() < EPS);
        // Weights proportional to squared norms 1 : 4 : 9.
        assert!((b.block_weights()[1] / b.block_weights()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sample_state_recovers_each_sample() {
        let samples = vec![vec![1.0, 2.0], vec![-3.0, 1.0]];
        let b = encode_batched(&samples).unwrap();
        for (i, s) in samples.iter().enumerate() {
            let rec = b.sample_state(b.state(), i).unwrap();
            let expect = State::from_real_normalized(s).unwrap();
            for (a, e) in rec.amplitudes().iter().zip(expect.amplitudes()) {
                assert!((*a - *e).norm() < EPS, "sample {i} mismatch");
            }
        }
        assert!(b.sample_state(b.state(), 2).is_err());
    }

    #[test]
    fn batched_encoding_validates() {
        assert!(encode_batched(&[]).is_err());
        assert!(encode_batched(&[vec![1.0, 2.0, 3.0]]).is_err());
        assert!(encode_batched(&[vec![1.0, 2.0], vec![1.0]]).is_err());
        assert!(encode_batched(&[vec![0.0, 0.0]]).is_err());
    }

    #[test]
    fn batched_single_sample_has_no_batch_qubits() {
        let b = encode_batched(&[vec![1.0, 1.0]]).unwrap();
        assert_eq!(b.batch_qubits(), 0);
        assert_eq!(b.batch_count(), 1);
    }
}
