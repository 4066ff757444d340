//! Error type of the mapping layer: a run can fail for algorithmic reasons
//! (bad data, corrupt stream) or for machine reasons (deadlock, a PE out of
//! SRAM — §4.4's memory constraint made enforceable).

use ceresz_core::CompressError;
use wse_sim::SimError;

/// Why a mapped run failed.
#[derive(Debug)]
pub enum WseError {
    /// The compression algorithm itself failed (propagates the cause).
    Compress(CompressError),
    /// The simulated machine failed (deadlock, out of SRAM, bad routing).
    Sim(SimError),
    /// The requested configuration cannot fit the wafer (e.g. the per-PE
    /// working set exceeds 48 KB at every pipeline length), or a stream's
    /// layout is one the mapped kernels cannot decode.
    DoesNotFit {
        /// Human-readable explanation with the numbers.
        reason: String,
    },
    /// The mapping strategy parameters are invalid (zero rows or pipeline
    /// length, or a mesh shape whose PE count overflows) — recoverable by
    /// the caller instead of an `assert!` abort.
    InvalidStrategy {
        /// Human-readable explanation with the numbers.
        reason: String,
    },
    /// The static mapping verifier rejected the constructed mapping before
    /// simulation (unroutable color, unbalanced channel, SRAM overflow,
    /// dead task). Carries every error-severity diagnostic, each located at
    /// a PE/color with a fix hint.
    MappingRejected {
        /// The mapping (strategy + shape) that failed verification.
        mapping: String,
        /// The error-severity findings.
        diagnostics: Vec<wse_verify::Diagnostic>,
    },
}

impl std::fmt::Display for WseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WseError::Compress(e) => write!(f, "compression failed: {e}"),
            WseError::Sim(e) => write!(f, "wafer simulation failed: {e}"),
            WseError::DoesNotFit { reason } => write!(f, "configuration does not fit: {reason}"),
            WseError::InvalidStrategy { reason } => {
                write!(f, "invalid mapping strategy: {reason}")
            }
            WseError::MappingRejected {
                mapping,
                diagnostics,
            } => {
                write!(
                    f,
                    "static verification rejected mapping `{mapping}` with {} error(s)",
                    diagnostics.len()
                )?;
                for d in diagnostics.iter().take(4) {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for WseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WseError::Compress(e) => Some(e),
            WseError::Sim(e) => Some(e),
            WseError::DoesNotFit { .. }
            | WseError::InvalidStrategy { .. }
            | WseError::MappingRejected { .. } => None,
        }
    }
}

impl From<CompressError> for WseError {
    fn from(e: CompressError) -> Self {
        WseError::Compress(e)
    }
}

impl From<SimError> for WseError {
    fn from(e: SimError) -> Self {
        WseError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_cause() {
        let e = WseError::from(CompressError::Truncated);
        assert!(e.to_string().contains("truncated"));
        let e = WseError::DoesNotFit {
            reason: "needs 70000 B".into(),
        };
        assert!(e.to_string().contains("70000"));
    }
}
