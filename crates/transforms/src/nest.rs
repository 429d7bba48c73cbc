//! Lowered loop-nest form of a scheduled operation.
//!
//! After the schedule of an operation is applied, the operation is lowered
//! to a [`LoopNest`]: an explicit list of loops (tile loops, then point
//! loops), plus vectorization and fusion information. This is the form the
//! cost model consumes and the closest analogue of the `scf.forall` /
//! `scf.for` structure MLIR produces (Listing 2 of the paper).

use mlir_rl_ir::{IteratorType, OpId, OpKind};

/// What a loop in the lowered nest iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// An outer loop over tiles, executed in parallel (`scf.forall`).
    ParallelTile,
    /// An outer loop over tiles, executed sequentially.
    Tile,
    /// An intra-tile (point) loop.
    Point,
}

/// One loop of the lowered nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopDim {
    /// The original Linalg iterator this loop scans (0-based).
    pub iterator: usize,
    /// Trip count of the loop.
    pub extent: u64,
    /// Role of the loop in the nest.
    pub kind: LoopKind,
    /// Iterator type of the original loop level.
    pub iterator_type: IteratorType,
}

/// A producer operation fused into the consumer's tile loops.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProducer {
    /// The fused producer operation.
    pub op: OpId,
    /// Kind of the producer (for reporting).
    pub kind: OpKind,
    /// Total scalar arithmetic of the producer (recomputed inside the
    /// consumer's tiles).
    pub flops: f64,
    /// Bytes of the producer's own inputs, still read from memory.
    pub input_bytes: u64,
    /// Bytes of the intermediate tensor that no longer round-trips through
    /// main memory thanks to fusion.
    pub intermediate_bytes: u64,
}

/// The lowered loop nest of one scheduled operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// The operation this nest was lowered from.
    pub op: OpId,
    /// Loops, outermost first: tile loops (if any) followed by point loops.
    pub loops: Vec<LoopDim>,
    /// Point-loop extent per original iterator (equals the loop bound when
    /// the iterator is untiled).
    pub point_extents: Vec<u64>,
    /// Original loop bounds per iterator.
    pub full_extents: Vec<u64>,
    /// Current loop order: `order[i]` is the original iterator at nest
    /// position `i` (identity when no interchange was applied).
    pub order: Vec<usize>,
    /// Whether the innermost loop was vectorized.
    pub vectorized: bool,
    /// Producers fused into this nest.
    pub fused_producers: Vec<FusedProducer>,
}

impl LoopNest {
    /// Number of loops in the lowered nest (tile + point loops).
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Total iteration points of the point loops (one tile's worth of work
    /// times the number of tiles equals the full domain).
    pub fn total_iterations(&self) -> u64 {
        self.full_extents.iter().product()
    }

    /// Iteration points inside one tile.
    pub fn tile_iterations(&self) -> u64 {
        self.point_extents.iter().product()
    }

    /// Number of tiles (product of tile-loop extents; 1 when untiled).
    pub fn num_tiles(&self) -> u64 {
        self.loops
            .iter()
            .filter(|l| l.kind != LoopKind::Point)
            .map(|l| l.extent)
            .product()
    }

    /// Degree of parallelism exposed by `scf.forall` loops (product of
    /// parallel tile-loop extents; 1 when nothing is parallelized).
    pub fn parallel_degree(&self) -> u64 {
        self.loops
            .iter()
            .filter(|l| l.kind == LoopKind::ParallelTile)
            .map(|l| l.extent)
            .product()
    }

    /// The original iterator scanned by the innermost point loop, if any.
    pub fn innermost_iterator(&self) -> Option<usize> {
        self.loops
            .iter()
            .rev()
            .find(|l| l.kind == LoopKind::Point)
            .map(|l| l.iterator)
    }

    /// Extent of the innermost point loop (1 if there are no loops).
    pub fn innermost_extent(&self) -> u64 {
        self.loops
            .iter()
            .rev()
            .find(|l| l.kind == LoopKind::Point)
            .map_or(1, |l| l.extent)
    }

    /// True if any loop level was actually tiled (a tile loop exists with
    /// more than one tile, or a point extent is smaller than the full
    /// extent).
    pub fn is_tiled(&self) -> bool {
        self.point_extents
            .iter()
            .zip(&self.full_extents)
            .any(|(p, f)| p < f)
    }

    /// Loop extents in nest order, outermost first (useful for display).
    pub fn extents(&self) -> Vec<u64> {
        self.loops.iter().map(|l| l.extent).collect()
    }

    /// Sum of intermediate bytes saved by fusion.
    pub fn fused_intermediate_bytes(&self) -> u64 {
        self.fused_producers
            .iter()
            .map(|p| p.intermediate_bytes)
            .sum()
    }

    /// Total extra compute contributed by fused producers.
    pub fn fused_flops(&self) -> f64 {
        self.fused_producers.iter().map(|p| p.flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_nest() -> LoopNest {
        LoopNest {
            op: OpId(0),
            loops: vec![
                LoopDim {
                    iterator: 0,
                    extent: 32,
                    kind: LoopKind::ParallelTile,
                    iterator_type: IteratorType::Parallel,
                },
                LoopDim {
                    iterator: 1,
                    extent: 64,
                    kind: LoopKind::Tile,
                    iterator_type: IteratorType::Parallel,
                },
                LoopDim {
                    iterator: 0,
                    extent: 8,
                    kind: LoopKind::Point,
                    iterator_type: IteratorType::Parallel,
                },
                LoopDim {
                    iterator: 1,
                    extent: 8,
                    kind: LoopKind::Point,
                    iterator_type: IteratorType::Parallel,
                },
                LoopDim {
                    iterator: 2,
                    extent: 1024,
                    kind: LoopKind::Point,
                    iterator_type: IteratorType::Reduction,
                },
            ],
            point_extents: vec![8, 8, 1024],
            full_extents: vec![256, 512, 1024],
            order: vec![0, 1, 2],
            vectorized: true,
            fused_producers: vec![FusedProducer {
                op: OpId(1),
                kind: OpKind::Relu,
                flops: 1000.0,
                input_bytes: 4096,
                intermediate_bytes: 2048,
            }],
        }
    }

    #[test]
    fn nest_queries() {
        let n = sample_nest();
        assert_eq!(n.depth(), 5);
        assert_eq!(n.total_iterations(), 256 * 512 * 1024);
        assert_eq!(n.tile_iterations(), 8 * 8 * 1024);
        assert_eq!(n.num_tiles(), 32 * 64);
        assert_eq!(n.parallel_degree(), 32);
        assert_eq!(n.innermost_iterator(), Some(2));
        assert_eq!(n.innermost_extent(), 1024);
        assert!(n.is_tiled());
        assert!(n.vectorized);
        assert_eq!(n.fused_intermediate_bytes(), 2048);
        assert_eq!(n.fused_flops(), 1000.0);
        assert_eq!(n.extents(), vec![32, 64, 8, 8, 1024]);
    }

    #[test]
    fn untiled_nest_has_single_tile() {
        let n = LoopNest {
            op: OpId(0),
            loops: vec![LoopDim {
                iterator: 0,
                extent: 128,
                kind: LoopKind::Point,
                iterator_type: IteratorType::Parallel,
            }],
            point_extents: vec![128],
            full_extents: vec![128],
            order: vec![0],
            vectorized: false,
            fused_producers: vec![],
        };
        assert_eq!(n.num_tiles(), 1);
        assert_eq!(n.parallel_degree(), 1);
        assert!(!n.is_tiled());
        assert_eq!(n.tile_iterations(), 128);
    }
}
