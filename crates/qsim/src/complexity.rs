//! QuBatch cost model (paper Section 3.3.3).
//!
//! The paper analyses the qubit/depth overhead of batching `B` samples
//! through a `G`-group encoder whose unbatched time–space complexity
//! (qubits × circuit depth) is `X`:
//!
//! * extra qubits: `O(G · log₂B)`,
//! * extra depth per group: `O(log₂B)` (amplitude-encoding depth grows
//!   linearly with qubit count),
//! * batched time–space complexity: `O(G · log₂²B · X)`,
//! * running the batch members independently instead: `O(B · X)`.
//!
//! For `B ≫ G` the batched form wins by an exponential factor, which is
//! the claim the `table1`/ablation benches of this workspace exercise.

/// Ceiling of `log₂(b)`; 0 for `b ≤ 1`.
///
/// # Examples
///
/// ```
/// use qugeo_qsim::complexity::log2_ceil;
///
/// assert_eq!(log2_ceil(1), 0);
/// assert_eq!(log2_ceil(2), 1);
/// assert_eq!(log2_ceil(5), 3);
/// ```
pub fn log2_ceil(b: usize) -> usize {
    if b <= 1 {
        0
    } else {
        (usize::BITS - (b - 1).leading_zeros()) as usize
    }
}

/// Extra qubits QuBatch needs for `batch` samples over `groups` encoder
/// groups: `G · ⌈log₂B⌉`.
pub fn qubit_overhead(groups: usize, batch: usize) -> usize {
    groups * log2_ceil(batch)
}

/// Time–space complexity of the batched execution,
/// `G · (1 + ⌈log₂B⌉)² · X`, in the same (arbitrary) units as `base_x`.
///
/// The `1 +` keeps the estimate meaningful at `B = 1`, where the paper's
/// asymptotic form degenerates to zero.
pub fn qubatch_time_space(groups: usize, batch: usize, base_x: f64) -> f64 {
    let l = log2_ceil(batch) as f64;
    groups as f64 * (1.0 + l) * (1.0 + l) * base_x
}

/// Time–space complexity of running the `B` batch members independently:
/// `B · X`.
pub fn independent_time_space(batch: usize, base_x: f64) -> f64 {
    batch as f64 * base_x
}

/// The advantage factor `independent / batched`; values above 1.0 mean
/// QuBatch wins.
pub fn qubatch_advantage(groups: usize, batch: usize) -> f64 {
    independent_time_space(batch, 1.0) / qubatch_time_space(groups, batch, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(8), 3);
        assert_eq!(log2_ceil(9), 4);
    }

    #[test]
    fn table1_qubit_overheads() {
        // The paper's Table 1: batch 1/2/4 => 0/1/2 extra qubits (G = 1).
        assert_eq!(qubit_overhead(1, 1), 0);
        assert_eq!(qubit_overhead(1, 2), 1);
        assert_eq!(qubit_overhead(1, 4), 2);
    }

    #[test]
    fn overhead_scales_with_groups() {
        assert_eq!(qubit_overhead(4, 8), 12);
    }

    #[test]
    fn advantage_grows_with_batch() {
        let a16 = qubatch_advantage(1, 16);
        let a256 = qubatch_advantage(1, 256);
        assert!(a256 > a16, "advantage should grow with batch size");
        assert!(a256 > 1.0);
    }

    #[test]
    fn advantage_shrinks_with_groups() {
        assert!(qubatch_advantage(1, 64) > qubatch_advantage(8, 64));
    }

    #[test]
    fn batched_degenerates_gracefully_at_one() {
        assert_eq!(qubatch_time_space(1, 1, 10.0), 10.0);
        assert_eq!(independent_time_space(1, 10.0), 10.0);
    }
}
