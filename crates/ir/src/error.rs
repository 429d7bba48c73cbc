//! Error types for the IR crate.

use std::fmt;

/// Errors produced while constructing or validating IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An affine expression or map referenced an iterator outside the
    /// declared iteration space.
    DimOutOfRange {
        /// The offending iterator index (or length, for arity mismatches).
        dim: usize,
        /// The declared number of iterators.
        num_dims: usize,
    },
    /// Operand count does not match the number of indexing maps.
    OperandMapMismatch {
        /// Number of operands (inputs + outputs).
        operands: usize,
        /// Number of indexing maps.
        maps: usize,
    },
    /// An indexing map's result rank does not match the operand tensor rank.
    RankMismatch {
        /// Operand position.
        operand: usize,
        /// Rank implied by the indexing map.
        map_rank: usize,
        /// Rank of the tensor type.
        tensor_rank: usize,
    },
    /// An indexing map declares a different number of iterators than the
    /// operation.
    IteratorArityMismatch {
        /// Operand position.
        operand: usize,
        /// Iterators declared by the map.
        map_dims: usize,
        /// Iterators declared by the operation.
        op_dims: usize,
    },
    /// The loop bounds inferred from two operands disagree.
    InconsistentLoopBounds {
        /// Iterator index with conflicting bounds.
        dim: usize,
        /// First bound.
        first: u64,
        /// Conflicting bound.
        second: u64,
    },
    /// A loop bound could not be inferred for an iterator.
    UnboundedIterator {
        /// The iterator with no bound.
        dim: usize,
    },
    /// An operation references a value that is not defined in the module.
    UnknownValue {
        /// The missing value identifier.
        value: usize,
    },
    /// An operation identifier was not found in the module.
    UnknownOperation {
        /// The missing operation identifier.
        op: usize,
    },
    /// Parse error with a human-readable description.
    Parse {
        /// Line at which parsing failed (1-based), 0 if unknown.
        line: usize,
        /// Description of the failure.
        message: String,
    },
    /// A tensor type was malformed (e.g. zero-sized dimension).
    InvalidTensorType {
        /// Description of the problem.
        message: String,
    },
    /// The product of an operation's loop bounds does not fit in a `u64`.
    IterationCountOverflow {
        /// The loop bounds.
        bounds: Vec<u64>,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DimOutOfRange { dim, num_dims } => {
                write!(f, "iterator d{dim} out of range for {num_dims} iterators")
            }
            IrError::OperandMapMismatch { operands, maps } => write!(
                f,
                "operation has {operands} operands but {maps} indexing maps"
            ),
            IrError::RankMismatch {
                operand,
                map_rank,
                tensor_rank,
            } => write!(
                f,
                "operand {operand}: indexing map produces rank {map_rank} but tensor has rank {tensor_rank}"
            ),
            IrError::IteratorArityMismatch {
                operand,
                map_dims,
                op_dims,
            } => write!(
                f,
                "operand {operand}: indexing map declares {map_dims} iterators but operation declares {op_dims}"
            ),
            IrError::InconsistentLoopBounds { dim, first, second } => write!(
                f,
                "iterator d{dim} has inconsistent bounds {first} and {second}"
            ),
            IrError::UnboundedIterator { dim } => {
                write!(f, "no loop bound could be inferred for iterator d{dim}")
            }
            IrError::UnknownValue { value } => write!(f, "unknown value %{value}"),
            IrError::UnknownOperation { op } => write!(f, "unknown operation #{op}"),
            IrError::Parse { line, message } => {
                if *line == 0 {
                    write!(f, "parse error: {message}")
                } else {
                    write!(f, "parse error at line {line}: {message}")
                }
            }
            IrError::InvalidTensorType { message } => write!(f, "invalid tensor type: {message}"),
            IrError::IterationCountOverflow { bounds } => {
                write!(f, "loop bounds {bounds:?} overflow a u64 iteration count")
            }
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = IrError::DimOutOfRange {
            dim: 3,
            num_dims: 2,
        };
        assert_eq!(e.to_string(), "iterator d3 out of range for 2 iterators");

        let e = IrError::Parse {
            line: 4,
            message: "expected `->`".into(),
        };
        assert!(e.to_string().contains("line 4"));

        let e = IrError::Parse {
            line: 0,
            message: "unexpected end of input".into(),
        };
        assert_eq!(e.to_string(), "parse error: unexpected end of input");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }
}
