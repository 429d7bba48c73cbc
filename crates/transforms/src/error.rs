//! Errors reported by transformation legality checks and application.

use std::fmt;

use mlir_rl_ir::OpId;

/// Why a transformation could not be applied to an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The tile-size vector length does not match the number of loops.
    TileSizeArity {
        /// Number of loops of the operation.
        loops: usize,
        /// Number of tile sizes provided.
        provided: usize,
    },
    /// A tile size exceeds the loop bound it applies to.
    TileSizeTooLarge {
        /// The loop level.
        level: usize,
        /// The requested tile size.
        tile: u64,
        /// The loop bound.
        bound: u64,
    },
    /// The interchange permutation is not a permutation of the loop levels.
    InvalidPermutation {
        /// The offending permutation.
        permutation: Vec<usize>,
        /// Number of loops of the operation.
        loops: usize,
    },
    /// Vectorization pre-conditions are not satisfied.
    VectorizationPrecondition {
        /// Human-readable reason.
        reason: String,
    },
    /// Parallelization would parallelize a reduction loop.
    ParallelizingReduction {
        /// The reduction loop level.
        level: usize,
    },
    /// Fusion was requested but the operation has no producer to fuse.
    NoProducerToFuse {
        /// The consumer operation.
        op: OpId,
    },
    /// Fusion was requested with a producer that is not a producer of the op.
    NotAProducer {
        /// The consumer operation.
        op: OpId,
        /// The candidate producer.
        producer: OpId,
    },
    /// The producer has already been transformed and can no longer be fused
    /// (Linalg fusion has limited ability to fuse a modified producer).
    ProducerAlreadyScheduled {
        /// The producer operation.
        producer: OpId,
    },
    /// The operation was already vectorized; vectorization is terminal and
    /// no further Linalg transformation can be applied.
    AlreadyVectorized,
    /// The schedule has reached the maximum transformation-sequence length.
    ScheduleFull {
        /// The configured maximum length (τ).
        max_len: usize,
    },
    /// The operation was already fused into a consumer and can no longer be
    /// scheduled on its own.
    OperationFusedAway {
        /// The operation.
        op: OpId,
    },
    /// The operation's optimization was stopped (`NoTransformation`); its
    /// schedule is closed.
    OperationStopped {
        /// The operation.
        op: OpId,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::TileSizeArity { loops, provided } => write!(
                f,
                "tile-size vector has {provided} entries but the operation has {loops} loops"
            ),
            TransformError::TileSizeTooLarge { level, tile, bound } => write!(
                f,
                "tile size {tile} at loop level {level} exceeds the loop bound {bound}"
            ),
            TransformError::InvalidPermutation { permutation, loops } => write!(
                f,
                "interchange {permutation:?} is not a permutation of {loops} loop levels"
            ),
            TransformError::VectorizationPrecondition { reason } => {
                write!(f, "vectorization pre-condition failed: {reason}")
            }
            TransformError::ParallelizingReduction { level } => write!(
                f,
                "cannot parallelize loop level {level}: it carries a reduction"
            ),
            TransformError::NoProducerToFuse { op } => {
                write!(f, "operation {op} has no producer to fuse")
            }
            TransformError::NotAProducer { op, producer } => {
                write!(f, "{producer} is not a producer of {op}")
            }
            TransformError::ProducerAlreadyScheduled { producer } => write!(
                f,
                "producer {producer} was already transformed and can no longer be fused"
            ),
            TransformError::AlreadyVectorized => {
                write!(
                    f,
                    "operation was already vectorized; no further transformation is possible"
                )
            }
            TransformError::ScheduleFull { max_len } => {
                write!(
                    f,
                    "schedule already has the maximum of {max_len} transformations"
                )
            }
            TransformError::OperationFusedAway { op } => {
                write!(f, "operation {op} was fused into its consumer")
            }
            TransformError::OperationStopped { op } => {
                write!(f, "optimization of operation {op} was stopped")
            }
        }
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_relevant_numbers() {
        let e = TransformError::TileSizeTooLarge {
            level: 2,
            tile: 64,
            bound: 32,
        };
        let s = e.to_string();
        assert!(s.contains("64") && s.contains("32") && s.contains('2'));

        let e = TransformError::InvalidPermutation {
            permutation: vec![0, 0, 1],
            loops: 3,
        };
        assert!(e.to_string().contains("[0, 0, 1]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TransformError>();
    }
}
