//! Working-set (footprint) analysis and cache-traffic estimation.
//!
//! Given the polyhedral access matrices of an operation and the lowered loop
//! nest of its schedule, this module estimates how many bytes must be
//! fetched from beyond a cache of a given capacity. The model walks the loop
//! nest from the outermost loop inwards, finds the largest sub-nest whose
//! combined working set fits in the cache, and charges one load of that
//! working set per operand for every outer iteration that changes the data
//! the operand touches. This is the standard footprint/reuse analysis used
//! by analytical tiling models and is exactly the mechanism the paper's
//! transformations (tiling, interchange, fusion) are meant to exploit.
//!
//! None of the sub-nest footprints depend on the capacity, so the estimator
//! builds one [`SubnestTable`] per (op, nest) — each iterator's extent, each
//! tensor dimension's touched extent and each operand's footprint at every
//! loop position, plus which loops index which operand — and prices all
//! three cache levels from it.
//! [`traffic_beyond_cache`] recomputes everything per capacity; it is the
//! reference the table is tested against bit for bit
//! (`tests/property_based.rs`) and no estimate calls it.

use mlir_rl_ir::{AccessMatrix, IrError, LinalgOp};
use mlir_rl_transforms::LoopNest;

/// The access pattern of one tensor operand of an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OperandAccess {
    /// Polyhedral access matrix (tensor dims x loop iterators).
    pub matrix: AccessMatrix,
    /// Shape of the accessed tensor.
    pub shape: Vec<u64>,
    /// Size of one element in bytes.
    pub element_bytes: u64,
    /// Whether the operand is written (the output of the op).
    pub is_output: bool,
}

impl OperandAccess {
    /// Whether loop iterator `j` is used (with a non-zero coefficient) by
    /// this operand.
    pub fn uses_iterator(&self, j: usize) -> bool {
        self.matrix
            .coefficients
            .iter()
            .any(|row| row.get(j).copied().unwrap_or(0) != 0)
    }

    /// Whether the access is unit-stride in iterator `j` (the
    /// fastest-varying tensor dimension is exactly `j`).
    pub fn unit_stride_in(&self, j: usize) -> bool {
        self.matrix.unit_stride_in(j)
    }
}

/// Extracts the operand accesses (inputs then output) of an operation.
///
/// # Errors
///
/// Propagates [`IrError`] from malformed indexing maps.
pub fn operand_accesses(op: &LinalgOp) -> Result<Vec<OperandAccess>, IrError> {
    let matrices = op.access_matrices()?;
    let mut out = Vec::with_capacity(matrices.len());
    for (i, matrix) in matrices.into_iter().enumerate() {
        let (shape, element_bytes, is_output) = if i < op.inputs.len() {
            (
                op.input_types[i].shape().to_vec(),
                op.input_types[i].element().size_bytes() as u64,
                false,
            )
        } else {
            (
                op.result_type.shape().to_vec(),
                op.result_type.element().size_bytes() as u64,
                true,
            )
        };
        out.push(OperandAccess {
            matrix,
            shape,
            element_bytes,
            is_output,
        });
    }
    Ok(out)
}

/// Range of values covered by iterator `iterator` within the sub-nest
/// consisting of loop positions `pos..` of the lowered nest.
fn iterator_extent_in_subnest(nest: &LoopNest, pos: usize, iterator: usize) -> u64 {
    let product: u64 = nest.loops[pos..]
        .iter()
        .filter(|l| l.iterator == iterator)
        .map(|l| l.extent)
        .product();
    let full = nest.full_extents.get(iterator).copied().unwrap_or(1).max(1);
    product.clamp(1, full)
}

/// Cache-line size used by the traffic model: accesses that touch isolated
/// elements of a tensor dimension still pull in whole lines.
pub const CACHE_LINE_BYTES: u64 = 64;

/// Number of elements of tensor dimension `d` of `access` touched by one
/// execution of the sub-nest starting at loop position `pos`.
fn dim_extent_in_subnest(access: &OperandAccess, nest: &LoopNest, pos: usize, d: usize) -> u64 {
    let Some(row) = access.matrix.coefficients.get(d) else {
        return 1;
    };
    let mut extent: u64 = 1;
    for (j, coeff) in row.iter().enumerate() {
        if *coeff == 0 {
            continue;
        }
        let it_extent = iterator_extent_in_subnest(nest, pos, j);
        extent += coeff.unsigned_abs() * (it_extent - 1);
    }
    let dim_size = access.shape.get(d).copied().unwrap_or(1).max(1);
    extent.min(dim_size)
}

/// Bytes of operand `access` touched by one execution of the sub-nest
/// starting at loop position `pos` (`pos == nest.depth()` means a single
/// iteration point).
pub fn operand_subnest_footprint(access: &OperandAccess, nest: &LoopNest, pos: usize) -> u64 {
    let mut elements: u64 = 1;
    for d in 0..access.matrix.coefficients.len() {
        elements = elements.saturating_mul(dim_extent_in_subnest(access, nest, pos, d));
    }
    elements.saturating_mul(access.element_bytes)
}

/// Cache-line waste factor for loading one block of `access` (the sub-nest
/// starting at `pos`): when the block touches only a short run of the
/// tensor's fastest-varying dimension, every element drags in a mostly
/// unused cache line.
fn line_waste_factor(access: &OperandAccess, nest: &LoopNest, pos: usize) -> u64 {
    if access.shape.is_empty() || access.element_bytes == 0 {
        return 1;
    }
    let last = access.shape.len() - 1;
    let run_bytes = dim_extent_in_subnest(access, nest, pos, last) * access.element_bytes;
    let max_waste = (CACHE_LINE_BYTES / access.element_bytes).max(1);
    (CACHE_LINE_BYTES / run_bytes.max(1)).clamp(1, max_waste)
}

/// Combined working set of all operands for the sub-nest starting at `pos`.
pub fn subnest_footprint(accesses: &[OperandAccess], nest: &LoopNest, pos: usize) -> u64 {
    accesses
        .iter()
        .map(|a| operand_subnest_footprint(a, nest, pos))
        .sum()
}

/// Per-operand traffic (in bytes) that must be served from beyond a cache of
/// `capacity_bytes`, for one execution of the full loop nest.
///
/// Returns one entry per operand, in the same order as `accesses`.
pub fn traffic_beyond_cache(
    accesses: &[OperandAccess],
    nest: &LoopNest,
    capacity_bytes: u64,
) -> Vec<u64> {
    let depth = nest.depth();
    // Combined working set of every sub-nest position (position `depth` is a
    // single iteration point and always "fits").
    let footprints: Vec<u64> = (0..=depth)
        .map(|pos| subnest_footprint(accesses, nest, pos))
        .collect();
    // Outermost position whose working set fits in the cache.
    let fit_pos = (0..=depth)
        .find(|pos| footprints[*pos] <= capacity_bytes)
        .unwrap_or(depth);

    accesses
        .iter()
        .map(|access| {
            // The block loaded per execution of the fitting sub-nest; blocks
            // with a short contiguous run along the tensor's fastest
            // dimension waste most of each cache line.
            let block = operand_subnest_footprint(access, nest, fit_pos)
                .saturating_mul(line_waste_factor(access, nest, fit_pos));
            // An outer loop forces a reload of the operand's block unless
            // (a) the loop does not index the operand, and (b) the data
            // touched during one iteration of that loop still fits in the
            // cache — otherwise the block has been evicted before it is
            // reused.
            let reload_factor: u64 = nest.loops[..fit_pos]
                .iter()
                .enumerate()
                .filter(|(pos, l)| {
                    access.uses_iterator(l.iterator) || footprints[pos + 1] > capacity_bytes
                })
                .map(|(_, l)| l.extent)
                .product();
            let traffic = block.saturating_mul(reload_factor.max(1));
            // Never less than the compulsory traffic (the full touched
            // region read once), never more than one full cache line per
            // access.
            let compulsory = operand_subnest_footprint(access, nest, 0);
            let worst_case = nest.total_iterations().saturating_mul(CACHE_LINE_BYTES);
            traffic.clamp(compulsory, compulsory.max(worst_case))
        })
        .collect()
}

/// The capacity-independent part of [`traffic_beyond_cache`] for one
/// (op, nest) pair, built once and priced at any number of capacities.
///
/// Rows are built innermost position first. Moving out one loop changes the
/// sub-nest extent of one iterator only, so a row copies the one below it,
/// multiplies that iterator's extent by the loop's trip count (a suffix
/// product) and recomputes only the tensor dimensions whose access row uses
/// that iterator. Every number is the one the reference computes, from the
/// same inputs with the same `u64` operations in the same order, except the
/// suffix products, which multiply innermost-first instead of rescanning
/// `nest.loops[pos..]`: loop extents are at least 1, so the reordered
/// product wraps (release) or overflows (debug) exactly when the
/// reference's does. (A lowered nest cannot overflow it at all: an
/// iterator's tile and point trip counts multiply to less than twice its
/// bound.)
#[derive(Debug)]
pub struct SubnestTable<'a> {
    accesses: &'a [OperandAccess],
    nest: &'a LoopNest,
    /// Words per row: `iterators + dims + accesses.len() + 1`.
    stride: usize,
    /// `depth + 1` rows, one per sub-nest position, each holding the
    /// unclamped suffix product of every iterator's loop extents, the
    /// touched extent of every tensor dimension (operand by operand), one
    /// footprint per operand, and their sum.
    words: Vec<u64>,
    /// `uses[k * depth + pos]`: operand `k` is indexed by the iterator of
    /// loop `pos`.
    uses: Vec<bool>,
}

impl<'a> SubnestTable<'a> {
    /// Builds the table of every sub-nest position of `nest`.
    pub fn new(accesses: &'a [OperandAccess], nest: &'a LoopNest) -> Self {
        let depth = nest.depth();
        let iterators = nest.full_extents.len();
        let dims: usize = accesses.iter().map(|a| a.matrix.coefficients.len()).sum();
        let stride = iterators + dims + accesses.len() + 1;
        let mut words = vec![0; (depth + 1) * stride];
        let mut uses = vec![false; accesses.len() * depth];

        // Position `depth` is a single iteration point: every iterator and
        // every tensor dimension has extent 1.
        let point = &mut words[depth * stride..];
        point[..iterators + dims].fill(1);
        fill_footprints(accesses, &mut point[iterators..stride]);

        for pos in (0..depth).rev() {
            let (rows, below) = words.split_at_mut((pos + 1) * stride);
            let row = &mut rows[pos * stride..];
            row[..iterators + dims].copy_from_slice(&below[..iterators + dims]);
            let l = &nest.loops[pos];
            if l.iterator < iterators {
                row[l.iterator] *= l.extent;
            }
            let (extents, dim_extents) = row.split_at_mut(iterators);
            let mut at = 0;
            for (k, access) in accesses.iter().enumerate() {
                for (d, coeffs) in access.matrix.coefficients.iter().enumerate() {
                    if coeffs.get(l.iterator).is_some_and(|c| *c != 0) {
                        dim_extents[at] = dim_extent(access, d, extents, &nest.full_extents);
                        uses[k * depth + pos] = true;
                    }
                    at += 1;
                }
            }
            fill_footprints(accesses, &mut row[iterators..stride]);
        }

        Self {
            accesses,
            nest,
            stride,
            words,
            uses,
        }
    }

    fn footprint(&self, pos: usize) -> u64 {
        self.words[(pos + 1) * self.stride - 1]
    }

    /// Per-operand traffic beyond a cache of `capacity_bytes`: equal, bit
    /// for bit, to [`traffic_beyond_cache`] on the same accesses and nest.
    pub fn traffic_beyond_cache(&self, capacity_bytes: u64) -> impl Iterator<Item = u64> + '_ {
        let depth = self.nest.depth();
        let iterators = self.nest.full_extents.len();
        let fit_pos = (0..=depth)
            .find(|pos| self.footprint(*pos) <= capacity_bytes)
            .unwrap_or(depth);
        let fit_row = &self.words[fit_pos * self.stride..(fit_pos + 1) * self.stride];
        let footprints = &fit_row[self.stride - 1 - self.accesses.len()..];
        let compulsory = &self.words[self.stride - 1 - self.accesses.len()..self.stride - 1];
        let worst_case = self
            .nest
            .total_iterations()
            .saturating_mul(CACHE_LINE_BYTES);
        let mut dims_at = iterators;
        self.accesses.iter().enumerate().map(move |(k, access)| {
            let rank = access.matrix.coefficients.len();
            let dim_extents = &fit_row[dims_at..dims_at + rank];
            dims_at += rank;
            let block = footprints[k].saturating_mul(line_waste(access, dim_extents));
            let uses = &self.uses[k * depth..(k + 1) * depth];
            let reload_factor: u64 = self.nest.loops[..fit_pos]
                .iter()
                .enumerate()
                .filter(|(pos, _)| uses[*pos] || self.footprint(pos + 1) > capacity_bytes)
                .map(|(_, l)| l.extent)
                .product();
            let traffic = block.saturating_mul(reload_factor.max(1));
            traffic.clamp(compulsory[k], compulsory[k].max(worst_case))
        })
    }

    /// Total traffic beyond a cache of `capacity_bytes`, summed over
    /// operands.
    pub fn total_traffic_beyond_cache(&self, capacity_bytes: u64) -> u64 {
        self.traffic_beyond_cache(capacity_bytes).sum()
    }
}

/// [`dim_extent_in_subnest`] from one row's unclamped suffix products
/// (iterators past the row have extent 1 and add nothing).
fn dim_extent(access: &OperandAccess, d: usize, suffix: &[u64], full_extents: &[u64]) -> u64 {
    let mut extent: u64 = 1;
    for ((coeff, product), full) in access.matrix.coefficients[d]
        .iter()
        .zip(suffix)
        .zip(full_extents)
    {
        if *coeff == 0 {
            continue;
        }
        let it_extent = (*product).clamp(1, (*full).max(1));
        extent += coeff.unsigned_abs() * (it_extent - 1);
    }
    let dim_size = access.shape.get(d).copied().unwrap_or(1).max(1);
    extent.min(dim_size)
}

/// Writes each operand's footprint and their sum into the tail of a row:
/// `row` holds the touched dimension extents, then one word per operand,
/// then the sum.
fn fill_footprints(accesses: &[OperandAccess], row: &mut [u64]) {
    let (dim_extents, rest) = row.split_at_mut(row.len() - accesses.len() - 1);
    let (footprints, sum) = rest.split_at_mut(accesses.len());
    let mut at = 0;
    for (fp, access) in footprints.iter_mut().zip(accesses) {
        let rank = access.matrix.coefficients.len();
        let mut elements: u64 = 1;
        for extent in &dim_extents[at..at + rank] {
            elements = elements.saturating_mul(*extent);
        }
        at += rank;
        *fp = elements.saturating_mul(access.element_bytes);
    }
    sum[0] = footprints.iter().sum();
}

/// [`line_waste_factor`] from the block's touched dimension extents.
fn line_waste(access: &OperandAccess, dim_extents: &[u64]) -> u64 {
    if access.shape.is_empty() || access.element_bytes == 0 {
        return 1;
    }
    let last = access.shape.len() - 1;
    let run_bytes = dim_extents.get(last).copied().unwrap_or(1) * access.element_bytes;
    let max_waste = (CACHE_LINE_BYTES / access.element_bytes).max(1);
    (CACHE_LINE_BYTES / run_bytes.max(1)).clamp(1, max_waste)
}

/// Total traffic beyond a cache of the given capacity, summed over operands.
pub fn total_traffic_beyond_cache(
    accesses: &[OperandAccess],
    nest: &LoopNest,
    capacity_bytes: u64,
) -> u64 {
    traffic_beyond_cache(accesses, nest, capacity_bytes)
        .iter()
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_rl_ir::{ModuleBuilder, OpId};
    use mlir_rl_transforms::{ScheduledModule, Transformation};

    fn matmul_setup() -> (ScheduledModule, Vec<OperandAccess>) {
        let mut b = ModuleBuilder::new("m");
        let a = b.argument("A", vec![256, 1024]);
        let w = b.argument("B", vec![1024, 512]);
        b.matmul(a, w);
        let sm = ScheduledModule::new(b.finish());
        let accesses = operand_accesses(sm.module().op(OpId(0)).unwrap()).unwrap();
        (sm, accesses)
    }

    #[test]
    fn operand_accesses_structure() {
        let (_, accesses) = matmul_setup();
        assert_eq!(accesses.len(), 3);
        assert!(!accesses[0].is_output);
        assert!(accesses[2].is_output);
        // A[d0, d2] uses iterators 0 and 2 only.
        assert!(accesses[0].uses_iterator(0));
        assert!(!accesses[0].uses_iterator(1));
        assert!(accesses[0].uses_iterator(2));
        // C[d0, d1] is unit-stride in d1 (its fastest dim).
        assert!(accesses[2].unit_stride_in(1));
        assert!(!accesses[2].unit_stride_in(0));
        assert_eq!(accesses[0].shape, vec![256, 1024]);
        assert_eq!(accesses[0].element_bytes, 4);
    }

    #[test]
    fn whole_nest_footprint_is_sum_of_tensors() {
        let (sm, accesses) = matmul_setup();
        let nest = sm.lower(OpId(0));
        let fp = subnest_footprint(&accesses, &nest, 0);
        let expected = (256 * 1024 + 1024 * 512 + 256 * 512) * 4;
        assert_eq!(fp, expected);
    }

    #[test]
    fn innermost_subnest_footprint_is_small() {
        let (sm, accesses) = matmul_setup();
        let nest = sm.lower(OpId(0));
        // The innermost loop is the reduction (k, extent 1024): it touches a
        // row of A (1024 elements), a column of B (1024 elements) and a
        // single element of C.
        let pos = nest.depth() - 1;
        let fp = subnest_footprint(&accesses, &nest, pos);
        assert_eq!(fp, (1024 + 1024 + 1) * 4);
        // A single iteration point touches one element of each operand.
        let fp_point = subnest_footprint(&accesses, &nest, nest.depth());
        assert_eq!(fp_point, 3 * 4);
    }

    #[test]
    fn tiling_reduces_traffic_beyond_small_cache() {
        let (mut sm, accesses) = matmul_setup();
        let capacity = 256 * 1024; // L2-sized
        let untiled_nest = sm.lower(OpId(0));
        let untiled = total_traffic_beyond_cache(&accesses, &untiled_nest, capacity);

        sm.apply(
            OpId(0),
            Transformation::Tiling {
                tile_sizes: vec![64, 64, 64],
            },
        )
        .unwrap();
        let tiled_nest = sm.lower(OpId(0));
        let tiled = total_traffic_beyond_cache(&accesses, &tiled_nest, capacity);

        assert!(
            tiled < untiled / 2,
            "tiling should cut L2 traffic substantially: tiled={tiled} untiled={untiled}"
        );
    }

    #[test]
    fn traffic_never_below_compulsory() {
        let (sm, accesses) = matmul_setup();
        let nest = sm.lower(OpId(0));
        // With an enormous cache everything fits: traffic equals tensor
        // sizes (compulsory misses only).
        let traffic = traffic_beyond_cache(&accesses, &nest, u64::MAX / 4);
        assert_eq!(traffic[0], 256 * 1024 * 4);
        assert_eq!(traffic[1], 1024 * 512 * 4);
        assert_eq!(traffic[2], 256 * 512 * 4);
    }

    #[test]
    fn tiny_cache_traffic_is_bounded_by_total_accesses() {
        let (sm, accesses) = matmul_setup();
        let nest = sm.lower(OpId(0));
        let traffic = traffic_beyond_cache(&accesses, &nest, 64);
        let total_iters = 256u64 * 512 * 1024;
        for t in &traffic {
            assert!(*t <= total_iters * CACHE_LINE_BYTES);
        }
        // With essentially no cache, operands indexed by all three loops
        // (none here) would miss every access; A misses once per (i, k)
        // repeated for every j unless cached — here it must be at least its
        // compulsory size.
        assert!(traffic[0] >= 256 * 1024 * 4);
    }

    #[test]
    fn interchange_affects_traffic() {
        // With j innermost (default i, j, k order has k innermost), compare
        // against k-outermost order: traffic beyond a small cache should
        // differ, demonstrating the model is sensitive to loop order.
        let (mut sm, accesses) = matmul_setup();
        let capacity = 32 * 1024;
        let default_nest = sm.lower(OpId(0));
        let default_traffic = total_traffic_beyond_cache(&accesses, &default_nest, capacity);

        sm.apply(
            OpId(0),
            Transformation::Interchange {
                permutation: vec![2, 0, 1],
            },
        )
        .unwrap();
        let interchanged_nest = sm.lower(OpId(0));
        let interchanged_traffic =
            total_traffic_beyond_cache(&accesses, &interchanged_nest, capacity);
        assert_ne!(default_traffic, interchanged_traffic);
    }

    #[test]
    fn strided_conv_footprint_clamped_to_tensor() {
        let mut b = ModuleBuilder::new("c");
        let x = b.argument("x", vec![1, 3, 16, 16]);
        let w = b.argument("w", vec![8, 3, 3, 3]);
        b.conv2d(x, w, 2);
        let sm = ScheduledModule::new(b.finish());
        let op = sm.module().op(OpId(0)).unwrap();
        let accesses = operand_accesses(op).unwrap();
        let nest = sm.lower(OpId(0));
        // The input footprint of the whole nest can never exceed the input
        // tensor size even though the strided access doubles the apparent
        // extent.
        let fp = operand_subnest_footprint(&accesses[0], &nest, 0);
        assert_eq!(accesses[0].shape, vec![1, 3, 16, 16]);
        assert!(fp <= 3 * 16 * 16 * accesses[0].element_bytes);
    }
}
