use std::error::Error;
use std::fmt;

use qugeo_geodata::GeodataError;
use qugeo_nn::NnError;
use qugeo_qsim::QsimError;
use qugeo_tensor::ShapeError;
use qugeo_wavesim::WavesimError;

/// Top-level error of the QuGeo framework, wrapping substrate errors and
/// adding configuration violations of its own.
///
/// # Examples
///
/// ```
/// use qugeo::model::{QuGeoVqc, VqcConfig};
/// use qugeo::QuGeoError;
///
/// let mut cfg = VqcConfig::paper_layer_wise();
/// cfg.num_groups = 4; // 4 groups × 6 qubits = 24 qubits > 16 budget
/// assert!(matches!(QuGeoVqc::new(cfg), Err(QuGeoError::Config { .. })));
/// ```
#[derive(Debug)]
pub enum QuGeoError {
    /// A framework-level configuration violation (e.g. exceeding the
    /// paper's 16-qubit budget).
    Config {
        /// What was wrong.
        reason: String,
    },
    /// Quantum simulation failed.
    Quantum(QsimError),
    /// Forward modelling failed.
    Modeling(WavesimError),
    /// Dataset synthesis or scaling failed.
    Data(GeodataError),
    /// A classical network failed.
    Network(NnError),
    /// An array shape mismatch.
    Shape(ShapeError),
    /// A checkpoint file failed integrity verification — torn by a crash
    /// mid-write, truncated, or bit-flipped on disk (CRC32 footer
    /// mismatch). Distinct from [`QuGeoError::Config`] so recovery code
    /// can skip the damaged artifact and fall back to an older one
    /// instead of aborting.
    CorruptCheckpoint {
        /// What integrity check failed.
        reason: String,
    },
    /// A data-parallel replica panicked mid-step. The coordinator
    /// contains the panic (no gradient from any replica is applied — the
    /// step never produces a silently partial all-reduce) and surfaces it
    /// as this typed error so callers can retry, drop to fewer replicas,
    /// or abort deliberately.
    ReplicaPanic {
        /// Zero-based index of the replica whose evaluation panicked.
        replica: usize,
        /// The panic payload, when it carried a string message.
        reason: String,
    },
    /// An execution backend returned a number of output distributions
    /// other than one per batch member. Decoding what came back would
    /// drop or misalign requests, so the whole call fails instead.
    DistributionCount {
        /// Batch members the backend was given.
        expected: usize,
        /// Distributions it returned.
        actual: usize,
    },
}

impl fmt::Display for QuGeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config { reason } => write!(f, "configuration error: {reason}"),
            Self::Quantum(e) => write!(f, "quantum simulation failed: {e}"),
            Self::Modeling(e) => write!(f, "forward modelling failed: {e}"),
            Self::Data(e) => write!(f, "data pipeline failed: {e}"),
            Self::Network(e) => write!(f, "network failed: {e}"),
            Self::Shape(e) => write!(f, "shape mismatch: {e}"),
            Self::CorruptCheckpoint { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            Self::ReplicaPanic { replica, reason } => {
                write!(
                    f,
                    "replica {replica} panicked during a data-parallel step: {reason}"
                )
            }
            Self::DistributionCount { expected, actual } => write!(
                f,
                "backend returned {actual} output distributions for {expected} batch members"
            ),
        }
    }
}

impl Error for QuGeoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Config { .. }
            | Self::CorruptCheckpoint { .. }
            | Self::ReplicaPanic { .. }
            | Self::DistributionCount { .. } => None,
            Self::Quantum(e) => Some(e),
            Self::Modeling(e) => Some(e),
            Self::Data(e) => Some(e),
            Self::Network(e) => Some(e),
            Self::Shape(e) => Some(e),
        }
    }
}

impl From<QsimError> for QuGeoError {
    fn from(e: QsimError) -> Self {
        Self::Quantum(e)
    }
}

impl From<WavesimError> for QuGeoError {
    fn from(e: WavesimError) -> Self {
        Self::Modeling(e)
    }
}

impl From<GeodataError> for QuGeoError {
    fn from(e: GeodataError) -> Self {
        Self::Data(e)
    }
}

impl From<NnError> for QuGeoError {
    fn from(e: NnError) -> Self {
        Self::Network(e)
    }
}

impl From<ShapeError> for QuGeoError {
    fn from(e: ShapeError) -> Self {
        Self::Shape(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = QuGeoError::Config {
            reason: "too many qubits".into(),
        };
        assert!(e.to_string().contains("too many qubits"));
        assert!(e.source().is_none());

        let q: QuGeoError = QsimError::ZeroVector.into();
        assert!(q.source().is_some());
        assert!(q.to_string().contains("quantum"));

        let p = QuGeoError::ReplicaPanic {
            replica: 2,
            reason: "injected engine panic".into(),
        };
        assert!(p.source().is_none());
        assert!(p.to_string().contains("replica 2"));
        assert!(p.to_string().contains("injected engine panic"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<QuGeoError>();
    }
}
