//! Affine expressions and affine maps.
//!
//! MLIR Linalg operations carry *indexing maps*: affine maps from loop
//! iterators `(d0, d1, ..., dN-1)` to tensor indices. This module provides a
//! small affine-expression language sufficient to express the maps that
//! appear in Linalg named operations and in the LQCD kernels the paper
//! targets (affine combinations of iterators plus constants), together with
//! the polyhedral *access matrix* encoding used by the feature extractor
//! (Fig. 2 in the paper).

use std::fmt;

use crate::error::IrError;

/// An affine expression over loop iterators `d0..dN-1`.
///
/// Expressions are kept in a small tree form; [`AffineExpr::coefficients`]
/// flattens an affine expression into per-dimension coefficients plus a
/// constant, which is what both the transformation legality checks and the
/// RL feature extractor consume.
///
/// # Examples
///
/// ```
/// use mlir_rl_ir::affine::AffineExpr;
///
/// // d0 + 2*d1 - 3
/// let e = AffineExpr::dim(0) + AffineExpr::dim(1) * 2 - AffineExpr::constant(3);
/// let (coeffs, cst) = e.coefficients(2).unwrap();
/// assert_eq!(coeffs, vec![1, 2]);
/// assert_eq!(cst, -3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AffineExpr {
    /// A loop iterator `d<i>`.
    Dim(usize),
    /// An integer constant.
    Constant(i64),
    /// Sum of two affine expressions.
    Add(Box<AffineExpr>, Box<AffineExpr>),
    /// Product of an affine expression and a constant factor.
    Mul(Box<AffineExpr>, i64),
}

impl AffineExpr {
    /// Creates the iterator expression `d<index>`.
    pub fn dim(index: usize) -> Self {
        AffineExpr::Dim(index)
    }

    /// Creates a constant expression.
    pub fn constant(value: i64) -> Self {
        AffineExpr::Constant(value)
    }

    /// Returns `true` if the expression is a bare iterator.
    pub fn is_dim(&self) -> bool {
        matches!(self, AffineExpr::Dim(_))
    }

    /// Returns the iterator index if the expression is a bare iterator.
    pub fn as_dim(&self) -> Option<usize> {
        match self {
            AffineExpr::Dim(d) => Some(*d),
            _ => None,
        }
    }

    /// Largest iterator index referenced, if any.
    pub fn max_dim(&self) -> Option<usize> {
        match self {
            AffineExpr::Dim(d) => Some(*d),
            AffineExpr::Constant(_) => None,
            AffineExpr::Add(a, b) => match (a.max_dim(), b.max_dim()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            },
            AffineExpr::Mul(a, _) => a.max_dim(),
        }
    }

    /// Evaluates the expression for the given iterator values.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if the expression references an
    /// iterator index not covered by `dims`.
    pub fn evaluate(&self, dims: &[i64]) -> Result<i64, IrError> {
        match self {
            AffineExpr::Dim(d) => dims.get(*d).copied().ok_or(IrError::DimOutOfRange {
                dim: *d,
                num_dims: dims.len(),
            }),
            AffineExpr::Constant(c) => Ok(*c),
            AffineExpr::Add(a, b) => Ok(a.evaluate(dims)? + b.evaluate(dims)?),
            AffineExpr::Mul(a, f) => Ok(a.evaluate(dims)? * f),
        }
    }

    /// Flattens the expression into `(per-dimension coefficients, constant)`.
    ///
    /// The returned coefficient vector has length `num_dims`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if the expression references an
    /// iterator outside `0..num_dims`.
    pub fn coefficients(&self, num_dims: usize) -> Result<(Vec<i64>, i64), IrError> {
        let mut coeffs = vec![0i64; num_dims];
        let constant = self.coefficients_into(&mut coeffs)?;
        Ok((coeffs, constant))
    }

    /// Allocation-free [`AffineExpr::coefficients`]: overwrites `coeffs`
    /// (one slot per iterator, so `coeffs.len()` is the number of
    /// dimensions) with the per-dimension coefficients and returns the
    /// constant. The feature extractor walks every indexing-map result of
    /// an operation through one reused buffer.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if the expression references an
    /// iterator outside `0..coeffs.len()`; `coeffs` is then unspecified.
    pub fn coefficients_into(&self, coeffs: &mut [i64]) -> Result<i64, IrError> {
        coeffs.fill(0);
        let mut constant = 0i64;
        self.accumulate(1, coeffs, &mut constant)?;
        Ok(constant)
    }

    fn accumulate(
        &self,
        factor: i64,
        coeffs: &mut [i64],
        constant: &mut i64,
    ) -> Result<(), IrError> {
        match self {
            AffineExpr::Dim(d) => {
                if *d >= coeffs.len() {
                    return Err(IrError::DimOutOfRange {
                        dim: *d,
                        num_dims: coeffs.len(),
                    });
                }
                coeffs[*d] += factor;
                Ok(())
            }
            AffineExpr::Constant(c) => {
                *constant += factor * c;
                Ok(())
            }
            AffineExpr::Add(a, b) => {
                a.accumulate(factor, coeffs, constant)?;
                b.accumulate(factor, coeffs, constant)
            }
            AffineExpr::Mul(a, f) => a.accumulate(factor * f, coeffs, constant),
        }
    }

    /// The smallest and largest value the expression takes while each
    /// iterator `d<i>` ranges over `0..bounds[i]` (a zero bound counts as
    /// `0..1`), exact for any affine expression. `None` when the expression
    /// reads an iterator `bounds` does not cover, or when a coefficient,
    /// the constant, a bound or an extreme does not fit an `i64`.
    pub(crate) fn range_over(&self, bounds: &[u64]) -> Option<(i64, i64)> {
        let mut coeffs = vec![0i64; bounds.len()];
        let mut constant = 0i64;
        self.accumulate_checked(1, &mut coeffs, &mut constant)?;
        let (mut min, mut max) = (constant, constant);
        for (coeff, bound) in coeffs.iter().zip(bounds) {
            let reach = coeff.checked_mul(i64::try_from(bound.saturating_sub(1)).ok()?)?;
            if reach < 0 {
                min = min.checked_add(reach)?;
            } else {
                max = max.checked_add(reach)?;
            }
        }
        Some((min, max))
    }

    /// [`Self::accumulate`] in checked arithmetic: `None` on an iterator
    /// outside `coeffs` or on an `i64` overflow.
    fn accumulate_checked(
        &self,
        factor: i64,
        coeffs: &mut [i64],
        constant: &mut i64,
    ) -> Option<()> {
        match self {
            AffineExpr::Dim(d) => {
                let coeff = coeffs.get_mut(*d)?;
                *coeff = coeff.checked_add(factor)?;
            }
            AffineExpr::Constant(c) => *constant = constant.checked_add(factor.checked_mul(*c)?)?,
            AffineExpr::Add(a, b) => {
                a.accumulate_checked(factor, coeffs, constant)?;
                b.accumulate_checked(factor, coeffs, constant)?;
            }
            AffineExpr::Mul(a, f) => {
                a.accumulate_checked(factor.checked_mul(*f)?, coeffs, constant)?
            }
        }
        Some(())
    }

    /// Rewrites every iterator index through `mapping` (old index -> new index).
    ///
    /// Used by loop interchange: permuting loops renames the iterators that
    /// the indexing maps refer to.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if an iterator is not covered by
    /// the mapping.
    pub fn remap_dims(&self, mapping: &[usize]) -> Result<AffineExpr, IrError> {
        match self {
            AffineExpr::Dim(d) => {
                mapping
                    .get(*d)
                    .map(|nd| AffineExpr::Dim(*nd))
                    .ok_or(IrError::DimOutOfRange {
                        dim: *d,
                        num_dims: mapping.len(),
                    })
            }
            AffineExpr::Constant(c) => Ok(AffineExpr::Constant(*c)),
            AffineExpr::Add(a, b) => Ok(AffineExpr::Add(
                Box::new(a.remap_dims(mapping)?),
                Box::new(b.remap_dims(mapping)?),
            )),
            AffineExpr::Mul(a, f) => Ok(AffineExpr::Mul(Box::new(a.remap_dims(mapping)?), *f)),
        }
    }
}

impl std::ops::Add for AffineExpr {
    type Output = AffineExpr;

    fn add(self, rhs: AffineExpr) -> AffineExpr {
        AffineExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for AffineExpr {
    type Output = AffineExpr;

    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        AffineExpr::Add(Box::new(self), Box::new(AffineExpr::Mul(Box::new(rhs), -1)))
    }
}

impl std::ops::Mul<i64> for AffineExpr {
    type Output = AffineExpr;

    fn mul(self, rhs: i64) -> AffineExpr {
        AffineExpr::Mul(Box::new(self), rhs)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffineExpr::Dim(d) => write!(f, "d{d}"),
            AffineExpr::Constant(c) => write!(f, "{c}"),
            AffineExpr::Add(a, b) => {
                // Print `a + (-1 * b)` as `a - b` for readability.
                if let AffineExpr::Mul(inner, -1) = b.as_ref() {
                    write!(f, "{a} - {inner}")
                } else {
                    write!(f, "{a} + {b}")
                }
            }
            AffineExpr::Mul(a, c) => {
                if a.is_dim() {
                    write!(f, "{c} * {a}")
                } else {
                    write!(f, "{c} * ({a})")
                }
            }
        }
    }
}

/// An affine map `(d0, ..., dN-1) -> (e0, ..., eD-1)`.
///
/// Linalg indexing maps associate every operand of an operation with one
/// affine map describing which tensor element each iteration reads or
/// writes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    num_dims: usize,
    results: Vec<AffineExpr>,
}

impl AffineMap {
    /// Creates an affine map with `num_dims` input iterators and the given
    /// result expressions.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if any result references an
    /// iterator outside `0..num_dims`.
    pub fn new(num_dims: usize, results: Vec<AffineExpr>) -> Result<Self, IrError> {
        for r in &results {
            if let Some(max) = r.max_dim() {
                if max >= num_dims {
                    return Err(IrError::DimOutOfRange { dim: max, num_dims });
                }
            }
        }
        Ok(Self { num_dims, results })
    }

    /// The identity map `(d0, ..., dN-1) -> (d0, ..., dN-1)`.
    pub fn identity(num_dims: usize) -> Self {
        Self {
            num_dims,
            results: (0..num_dims).map(AffineExpr::Dim).collect(),
        }
    }

    /// A projection map selecting the listed dimensions, e.g.
    /// `projection(3, &[0, 2])` is `(d0, d1, d2) -> (d0, d2)`.
    ///
    /// # Panics
    ///
    /// Panics if any selected dimension is `>= num_dims`.
    pub fn projection(num_dims: usize, dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|d| *d < num_dims),
            "projection dimension out of range"
        );
        Self {
            num_dims,
            results: dims.iter().map(|d| AffineExpr::Dim(*d)).collect(),
        }
    }

    /// Number of input iterators.
    pub fn num_dims(&self) -> usize {
        self.num_dims
    }

    /// Number of result expressions (the rank of the accessed tensor).
    pub fn num_results(&self) -> usize {
        self.results.len()
    }

    /// The result expressions.
    pub fn results(&self) -> &[AffineExpr] {
        &self.results
    }

    /// Evaluates the map for concrete iterator values, returning the tensor
    /// indices accessed.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if `dims.len() != num_dims`.
    pub fn evaluate(&self, dims: &[i64]) -> Result<Vec<i64>, IrError> {
        if dims.len() != self.num_dims {
            return Err(IrError::DimOutOfRange {
                dim: dims.len(),
                num_dims: self.num_dims,
            });
        }
        self.results.iter().map(|r| r.evaluate(dims)).collect()
    }

    /// Builds the polyhedral access matrix of shape `num_results x num_dims`
    /// plus a constant column, as in Fig. 2 of the paper.
    ///
    /// Row `i`, column `j` holds the coefficient of iterator `d_j` in the
    /// `i`-th tensor index expression.
    ///
    /// # Errors
    ///
    /// Propagates [`IrError::DimOutOfRange`] from malformed expressions.
    pub fn access_matrix(&self) -> Result<AccessMatrix, IrError> {
        let mut rows = Vec::with_capacity(self.results.len());
        let mut constants = Vec::with_capacity(self.results.len());
        for r in &self.results {
            let (coeffs, constant) = r.coefficients(self.num_dims)?;
            rows.push(coeffs);
            constants.push(constant);
        }
        Ok(AccessMatrix {
            coefficients: rows,
            constants,
        })
    }

    /// Returns true if the map is a permutation of a subset of the iterators
    /// (i.e. every result is a distinct bare iterator).
    pub fn is_projected_permutation(&self) -> bool {
        // Runs per operand per environment step (the extractor's and the
        // mask's vectorization pre-condition): the iterators seen so far
        // are a bitset while they fit one, a vector beyond.
        if self.num_dims <= u128::BITS as usize {
            let mut seen = 0u128;
            self.results_are_dims(|d| {
                let fresh = seen & (1 << d) == 0;
                seen |= 1 << d;
                fresh
            })
        } else {
            let mut seen = vec![false; self.num_dims];
            self.results_are_dims(|d| !std::mem::replace(&mut seen[d], true))
        }
    }

    /// True if every result is a bare iterator that `accept` takes.
    fn results_are_dims(&self, mut accept: impl FnMut(usize) -> bool) -> bool {
        self.results
            .iter()
            .all(|r| r.as_dim().is_some_and(&mut accept))
    }

    /// Rewrites the map's iterators through a permutation produced by loop
    /// interchange. `mapping[old] = new`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimOutOfRange`] if the mapping does not cover all
    /// iterators.
    pub fn remap_dims(&self, mapping: &[usize]) -> Result<AffineMap, IrError> {
        if mapping.len() != self.num_dims {
            return Err(IrError::DimOutOfRange {
                dim: mapping.len(),
                num_dims: self.num_dims,
            });
        }
        let results = self
            .results
            .iter()
            .map(|r| r.remap_dims(mapping))
            .collect::<Result<Vec<_>, _>>()?;
        AffineMap::new(self.num_dims, results)
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "affine_map<(")?;
        for i in 0..self.num_dims {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{i}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")>")
    }
}

/// The polyhedral access matrix of an indexing map (Fig. 2 of the paper).
///
/// `coefficients[i][j]` is the coefficient of iterator `d_j` in the `i`-th
/// tensor dimension; `constants[i]` is the constant offset of that dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessMatrix {
    /// Per-tensor-dimension iterator coefficients.
    pub coefficients: Vec<Vec<i64>>,
    /// Per-tensor-dimension constant offsets.
    pub constants: Vec<i64>,
}

impl AccessMatrix {
    /// Number of tensor dimensions (rows).
    pub fn rank(&self) -> usize {
        self.coefficients.len()
    }

    /// Number of loop iterators (columns).
    pub fn num_dims(&self) -> usize {
        self.coefficients.first().map_or(0, Vec::len)
    }

    /// Flattens the matrix (row-major) into an `f64` feature vector padded
    /// or truncated to `max_rank x max_dims` entries.
    pub fn to_padded_features(&self, max_rank: usize, max_dims: usize) -> Vec<f64> {
        let mut out = vec![0.0; max_rank * max_dims];
        for (i, row) in self.coefficients.iter().take(max_rank).enumerate() {
            for (j, c) in row.iter().take(max_dims).enumerate() {
                out[i * max_dims + j] = *c as f64;
            }
        }
        out
    }

    /// Returns true if the access along the fastest-varying (last) tensor
    /// dimension is unit-stride in iterator `dim` (coefficient 1 and the
    /// dimension is only driven by that iterator).
    pub fn unit_stride_in(&self, dim: usize) -> bool {
        match self.coefficients.last() {
            Some(row) => {
                row.get(dim).copied().unwrap_or(0) == 1
                    && row.iter().enumerate().all(|(j, c)| j == dim || *c == 0)
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_and_constant_constructors() {
        assert!(AffineExpr::dim(3).is_dim());
        assert_eq!(AffineExpr::dim(3).as_dim(), Some(3));
        assert_eq!(AffineExpr::constant(5).as_dim(), None);
    }

    #[test]
    fn expr_evaluation() {
        // d0 + 2*d1 - 3
        let e = AffineExpr::dim(0) + AffineExpr::dim(1) * 2 - AffineExpr::constant(3);
        assert_eq!(e.evaluate(&[10, 4]).unwrap(), 10 + 8 - 3);
    }

    #[test]
    fn expr_evaluation_out_of_range() {
        let e = AffineExpr::dim(2);
        assert!(e.evaluate(&[1, 2]).is_err());
    }

    #[test]
    fn expr_coefficients() {
        // d0 + 2*d1 - 3*d2 => [1, 2, -3], constant 0
        let e = AffineExpr::dim(0) + AffineExpr::dim(1) * 2 - AffineExpr::dim(2) * 3;
        let (coeffs, cst) = e.coefficients(3).unwrap();
        assert_eq!(coeffs, vec![1, 2, -3]);
        assert_eq!(cst, 0);
    }

    #[test]
    fn expr_coefficients_with_constant() {
        // 1 - d1 => [0, -1], constant 1
        let e = AffineExpr::constant(1) - AffineExpr::dim(1);
        let (coeffs, cst) = e.coefficients(2).unwrap();
        assert_eq!(coeffs, vec![0, -1]);
        assert_eq!(cst, 1);
    }

    #[test]
    fn coefficients_into_overwrites_a_reused_buffer() {
        let mut buf = [7i64; 3];
        let e = AffineExpr::dim(0) + AffineExpr::dim(1) * 2 - AffineExpr::constant(3);
        assert_eq!(e.coefficients_into(&mut buf), Ok(-3));
        assert_eq!(buf, [1, 2, 0]);
        // The next expression sees none of the previous one's entries.
        assert_eq!(AffineExpr::dim(2).coefficients_into(&mut buf), Ok(0));
        assert_eq!(buf, [0, 0, 1]);
        assert!(AffineExpr::dim(3).coefficients_into(&mut buf).is_err());
    }

    #[test]
    fn expr_display() {
        let e = AffineExpr::dim(0) + AffineExpr::dim(2) * 3;
        assert_eq!(e.to_string(), "d0 + 3 * d2");
        let s = AffineExpr::dim(1) - AffineExpr::dim(0);
        assert_eq!(s.to_string(), "d1 - d0");
    }

    #[test]
    fn expr_remap_dims() {
        let e = AffineExpr::dim(0) + AffineExpr::dim(2) * 2;
        let remapped = e.remap_dims(&[2, 1, 0]).unwrap();
        let (coeffs, _) = remapped.coefficients(3).unwrap();
        assert_eq!(coeffs, vec![2, 0, 1]);
    }

    #[test]
    fn map_identity_and_projection() {
        let id = AffineMap::identity(3);
        assert_eq!(id.num_dims(), 3);
        assert_eq!(id.num_results(), 3);
        assert!(id.is_projected_permutation());

        let proj = AffineMap::projection(3, &[0, 2]);
        assert_eq!(proj.num_results(), 2);
        assert!(proj.is_projected_permutation());
        assert_eq!(proj.evaluate(&[7, 8, 9]).unwrap(), vec![7, 9]);
    }

    #[test]
    fn map_new_rejects_out_of_range_dims() {
        let res = AffineMap::new(2, vec![AffineExpr::dim(2)]);
        assert!(res.is_err());
    }

    #[test]
    fn matmul_maps_access_matrices() {
        // C[d0, d1] += A[d0, d2] * B[d2, d1]
        let a = AffineMap::projection(3, &[0, 2]);
        let b = AffineMap::projection(3, &[2, 1]);
        let c = AffineMap::projection(3, &[0, 1]);

        let am = a.access_matrix().unwrap();
        assert_eq!(am.coefficients, vec![vec![1, 0, 0], vec![0, 0, 1]]);
        let bm = b.access_matrix().unwrap();
        assert_eq!(bm.coefficients, vec![vec![0, 0, 1], vec![0, 1, 0]]);
        let cm = c.access_matrix().unwrap();
        assert_eq!(cm.coefficients, vec![vec![1, 0, 0], vec![0, 1, 0]]);
        assert!(cm.unit_stride_in(1));
        assert!(!cm.unit_stride_in(0));
    }

    #[test]
    fn access_matrix_from_paper_figure2() {
        // array[d0, d0 + 2*d1 - 3*d2, 1 - d1]
        let map = AffineMap::new(
            3,
            vec![
                AffineExpr::dim(0),
                AffineExpr::dim(0) + AffineExpr::dim(1) * 2 - AffineExpr::dim(2) * 3,
                AffineExpr::constant(1) - AffineExpr::dim(1),
            ],
        )
        .unwrap();
        let m = map.access_matrix().unwrap();
        assert_eq!(
            m.coefficients,
            vec![vec![1, 0, 0], vec![1, 2, -3], vec![0, -1, 0]]
        );
        assert_eq!(m.constants, vec![0, 0, 1]);
        assert_eq!(m.rank(), 3);
        assert_eq!(m.num_dims(), 3);
    }

    #[test]
    fn access_matrix_padded_features() {
        let map = AffineMap::projection(3, &[0, 2]);
        let m = map.access_matrix().unwrap();
        let feats = m.to_padded_features(3, 4);
        assert_eq!(feats.len(), 12);
        assert_eq!(feats[0], 1.0); // row 0, d0
        assert_eq!(feats[4 + 2], 1.0); // row 1, d2
        assert!(feats[8..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn map_remap_dims_permutation() {
        // (d0, d1, d2) -> (d0, d2) remapped by [2, 0, 1] becomes (d2, d1).
        let map = AffineMap::projection(3, &[0, 2]);
        let remapped = map.remap_dims(&[2, 0, 1]).unwrap();
        assert_eq!(
            remapped.results()[0].as_dim(),
            Some(2),
            "d0 should become d2"
        );
        assert_eq!(remapped.results()[1].as_dim(), Some(1));
    }

    #[test]
    fn map_display() {
        let map = AffineMap::projection(3, &[0, 2]);
        assert_eq!(map.to_string(), "affine_map<(d0, d1, d2) -> (d0, d2)>");
    }

    #[test]
    fn non_permutation_map_detected() {
        let map = AffineMap::new(
            2,
            vec![AffineExpr::dim(0), AffineExpr::dim(0) + AffineExpr::dim(1)],
        )
        .unwrap();
        assert!(!map.is_projected_permutation());
    }

    #[test]
    fn projected_permutation_beyond_one_bitset_word() {
        // 128 iterators fit the bitset, 129 take the vector: same answers.
        for num_dims in [128, 129] {
            let last = num_dims - 1;
            assert!(AffineMap::projection(num_dims, &[last, 0, 64]).is_projected_permutation());
            assert!(!AffineMap::projection(num_dims, &[last, 0, last]).is_projected_permutation());
        }
    }
}
