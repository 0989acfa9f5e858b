//! The workspace error type.
//!
//! Before this type, the public surface mixed `io::Result`, a
//! checkpoint-local `RecoverError` and bare `unwrap()`s; recovery-path
//! failures are exactly the ones that must be *reportable*, not fatal.
//! Every public fallible entry point of the stack now returns
//! `Result<_, HcftError>`.

use std::io;

/// Unified error for the FT stack's public API.
#[derive(Debug)]
pub enum HcftError {
    /// Underlying I/O problem (checkpoint store, result files, …).
    Io(io::Error),
    /// A graph/node partition could not be built as requested.
    Partition(String),
    /// An erasure group lost more shards than its parity covers — the
    /// paper's *catastrophic failure*. `needed` shards are required to
    /// reconstruct; only `available` survive.
    Erasure {
        /// Shards required for reconstruction (the code's `k`).
        needed: usize,
        /// Shards still readable.
        available: usize,
    },
    /// A recovery step failed for a non-erasure reason (protocol
    /// violation, missing replay data, inconsistent artefacts).
    Recovery(String),
    /// An invalid configuration was rejected by validation.
    Config(String),
}

impl std::fmt::Display for HcftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HcftError::Io(e) => write!(f, "I/O error: {e}"),
            HcftError::Partition(msg) => write!(f, "partition error: {msg}"),
            HcftError::Erasure { needed, available } => write!(
                f,
                "catastrophic failure: {needed} shards needed, only {available} available"
            ),
            HcftError::Recovery(msg) => write!(f, "recovery error: {msg}"),
            HcftError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for HcftError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HcftError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HcftError {
    fn from(e: io::Error) -> Self {
        HcftError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_convert() {
        let e: HcftError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, HcftError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn erasure_displays_counts() {
        let e = HcftError::Erasure {
            needed: 4,
            available: 2,
        };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('2'), "{s}");
    }

    #[test]
    fn config_and_partition_render_their_message() {
        assert!(HcftError::Config("ppn = 0".into())
            .to_string()
            .contains("ppn = 0"));
        assert!(HcftError::Partition("k too large".into())
            .to_string()
            .contains("k too large"));
    }
}
