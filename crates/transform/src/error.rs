//! Errors raised when a transformation's safety conditions fail.

use std::error::Error;
use std::fmt;

use heapdrag_vm::ids::MethodId;

/// Why a requested transformation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The allocation may be used; removal would change behaviour.
    AllocationMayBeUsed {
        /// Allocating method.
        method: MethodId,
        /// Allocation pc.
        pc: u32,
        /// Human-readable witness.
        witness: String,
    },
    /// A handler in the program could observe an exception of the removed
    /// code (Java's precise exception model, §5.5).
    ExceptionObservable {
        /// Method containing the code.
        method: MethodId,
        /// Offending pc.
        pc: u32,
    },
    /// The instruction at the given pc is not what the transformation
    /// expected (e.g. not an allocation).
    UnexpectedShape {
        /// Method inspected.
        method: MethodId,
        /// pc inspected.
        pc: u32,
        /// What was expected.
        expected: &'static str,
    },
    /// The constructor is not removable / not lazy-allocatable.
    ConstructorImpure {
        /// The constructor.
        ctor: MethodId,
    },
    /// A field read site could not be statically resolved, so guards
    /// cannot be placed soundly.
    UnresolvedFieldRead {
        /// Method with the unresolved read.
        method: MethodId,
        /// pc of the read.
        pc: u32,
    },
    /// Type inference failed on a method the transformation must edit.
    Analysis(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::AllocationMayBeUsed {
                method,
                pc,
                witness,
            } => {
                write!(f, "allocation at {method}@{pc} may be used: {witness}")
            }
            TransformError::ExceptionObservable { method, pc } => {
                write!(f, "a handler could observe exceptions of {method}@{pc}")
            }
            TransformError::UnexpectedShape {
                method,
                pc,
                expected,
            } => {
                write!(f, "expected {expected} at {method}@{pc}")
            }
            TransformError::ConstructorImpure { ctor } => {
                write!(f, "constructor {ctor} has side effects")
            }
            TransformError::UnresolvedFieldRead { method, pc } => {
                write!(f, "field read at {method}@{pc} has an unknown receiver")
            }
            TransformError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
        }
    }
}

impl Error for TransformError {}

impl From<heapdrag_analysis::TypeError> for TransformError {
    fn from(e: heapdrag_analysis::TypeError) -> Self {
        TransformError::Analysis(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TransformError::ConstructorImpure { ctor: MethodId(3) };
        assert!(e.to_string().contains("side effects"));
        let e = TransformError::Analysis("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
