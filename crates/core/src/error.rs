//! Communication errors.

use core::fmt;

use crate::addr::{Addr, Asid, ProcId};

/// Errors surfaced when submitting or validating a communication operation.
///
/// The paper's semantics: "the system faults a process that tries to access
/// an address space without first getting permission to do so". In the
/// simulator the fault is surfaced as an error at submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The submitting process has not been granted access to the target
    /// address space.
    PermissionDenied {
        /// Who attempted the access.
        src: ProcId,
        /// The protected address space.
        target: Asid,
    },
    /// The target address space does not exist.
    UnknownAsid(Asid),
    /// An address range falls outside its address space.
    OutOfBounds {
        /// The offending space.
        asid: Asid,
        /// Start of the attempted access.
        addr: Addr,
        /// Length of the attempted access.
        nbytes: u32,
        /// Size of the space.
        size: u64,
    },
    /// A zero-byte transfer was requested where data is required.
    EmptyTransfer,
    /// The destination node stopped responding: the reliable link layer
    /// exhausted its retransmission budget without an acknowledgement.
    Unreachable {
        /// The unresponsive node.
        dst: usize,
        /// Transmissions attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PermissionDenied { src, target } => {
                write!(f, "{src} has no permission to access {target}")
            }
            CommError::UnknownAsid(a) => write!(f, "no such address space: {a}"),
            CommError::OutOfBounds {
                asid,
                addr,
                nbytes,
                size,
            } => write!(
                f,
                "access [{addr}, +{nbytes}) exceeds {asid} of size {size}"
            ),
            CommError::EmptyTransfer => write!(f, "zero-byte transfer"),
            CommError::Unreachable { dst, attempts } => {
                write!(f, "node {dst} unreachable after {attempts} transmissions")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = CommError::PermissionDenied {
            src: ProcId(1),
            target: Asid(2),
        };
        assert_eq!(e.to_string(), "p1 has no permission to access asid2");
        let e = CommError::OutOfBounds {
            asid: Asid(0),
            addr: Addr(100),
            nbytes: 8,
            size: 64,
        };
        assert!(e.to_string().contains("exceeds asid0"));
        let e = CommError::Unreachable {
            dst: 3,
            attempts: 8,
        };
        assert_eq!(e.to_string(), "node 3 unreachable after 8 transmissions");
    }
}
