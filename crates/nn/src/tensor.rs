//! Row-major matrices and the blocked, deterministically-ordered matmul
//! kernels behind every batched network path.
//!
//! The per-vector reference loops (`Param::matvec` and friends) accumulate
//! each output element as one sequential left-to-right sum over the
//! contraction dimension, seeded from `+0.0`. The kernels here block the
//! *independent* dimensions (batch rows and output features) for
//! instruction-level parallelism and cache reuse, but keep exactly one
//! accumulator per output element that walks the contraction dimension in
//! the same ascending order — so a batched product is **bit-for-bit
//! identical, row by row, to the per-vector loops** for every batch size
//! (property-tested). That is what lets the whole stack (layers, heads,
//! PPO) batch without perturbing a single determinism test.
//!
//! Why tiling wins even without SIMD reassociation: a lone dot product is
//! latency-bound on its single accumulator chain; a register tile runs
//! many independent chains side by side.
//!
//! Every weight is stored input-major (see [`crate::param`]), so a forward
//! product's right operand holds one contiguous run of outputs per input
//! and `matmul_nn_cols` tiles *contiguous* outputs: 4x8 over a 4-row band,
//! 1x16 for a lone row (batch-1 inference, or the rows left over below a
//! band), `R`x1 over the output columns left below a full tile. Each listed
//! input streams one run of weights per tile instead of gathering one
//! weight from each of the tile's rows. The input-gradient product reads
//! the same storage as a row-major `b` of [`matmul_nt`] (4x4 and 1x8
//! dot-product tiles), and weight gradients accumulate through
//! [`add_matmul_tn_rev`].
//!
//! # Contracting over the non-zero columns only
//!
//! The paper's observation vector is under 2 % dense (zero-padded access
//! matrices, a one-hot action history), the first LSTM step's hidden state
//! is all zeros, and a ReLU output is about half zeros. The products
//! therefore list — once per call, ascending, into reused scratch — the
//! columns of the left operand that are non-zero in at least one row, and
//! when at most half the columns are listed they contract over the list
//! only. Otherwise they run the dense loop. The choice is made from the
//! input itself; there is no switch. A caller that already holds the list
//! (an observation is stored as its non-zeros) hands it over instead of
//! having it found again ([`crate::Lstm::infer_nonzeros`], and
//! [`crate::Lstm::forward_batch_nonzeros`] row by row): same list, same
//! rule, same kernel, same bits.
//!
//! The result is the same **bit for bit** as the dense loop's whenever the
//! right operand is finite. Proof. Every output element is one sequential
//! sum `acc = (..((+0.0 + t_0) + t_1) + ..) + t_{k-1}` with `t_p = a_p *
//! b_p`. (1) An accumulator seeded `+0.0` is never `-0.0`: IEEE-754
//! round-to-nearest addition returns `-0.0` only for `-0.0 + -0.0`; an
//! exact cancellation `x + (-x)` gives `+0.0`, and a non-zero exact sum of
//! two floats never rounds to zero. By induction from the seed no partial
//! sum is `-0.0`. (2) A skipped column holds `±0.0` in every row, so with
//! `b_p` finite, `t_p = ±0.0`. (3) Adding `±0.0` to an accumulator that is
//! not `-0.0` returns it unchanged: `+0.0 + ±0.0 = +0.0`, and `x + ±0.0 = x`
//! for every non-zero, infinite or NaN `x`. So dropping the term changes
//! no partial sum, and the listed terms are still added in ascending `p`.
//! The one difference: a skipped `0 * NaN` or `0 * inf` would have
//! poisoned the dense sum with NaN; the sparse path leaves it out.
//!
//! The same argument covers weight-gradient accumulation over a sparse
//! input (`Param::add_outer_to_grad_cols`, which the LSTM backward feeds
//! each sample's own column list): gradient buffers start at `+0.0` after
//! `zero_grad` and only ever take `+=`, so by (1) they hold no `-0.0`, and
//! by (3) the `±0.0` products of the skipped columns would have changed
//! nothing.

use std::cell::RefCell;

/// Register-tile height (rows of the left operand per tile).
const MR: usize = 4;
/// Register-tile width (output columns per tile).
const NR: usize = 4;
/// Tile width for a lone row of the left operand: eight accumulator chains.
const ROW_NR: usize = 8;
/// Tile width over a 4-row band when the right operand is stored
/// input-major ([`matmul_nn_cols`]): 4 x 8 chains, each tile row one
/// contiguous 8-value run of every listed weight column.
const RUN_NR: usize = 8;
/// [`RUN_NR`] for a lone row: 1 x 16 chains.
const RUN_ROW_NR: usize = 16;

/// A dense row-major matrix of `f64` values.
///
/// `Tensor2` is the batch currency of the NN crate: a batch of `B` feature
/// vectors of length `F` is a `B x F` tensor whose row `i` is sample `i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor2 {
    /// Creates a zero-filled `rows x cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer length mismatch");
        Self { rows, cols, data }
    }

    /// A `1 x len` tensor holding one row (the batch-of-1 constructor the
    /// per-vector wrappers use).
    pub fn from_row(row: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Builds a tensor from an iterator of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `cols`.
    pub fn from_rows<'a, I>(cols: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut out = Self::zeros(0, cols);
        for row in rows {
            out.push_row(row);
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The row-major backing slice.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of range");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "pushed row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reshapes to `rows x cols`, zero-filling.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` leaving the contents unspecified (stale
    /// values, zeros where the buffer grew): for outputs the caller
    /// overwrites entirely, which a zero-fill would only write twice.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies a row-major buffer into the tensor, reshaping to
    /// `rows x cols` while reusing the existing allocation. This is the
    /// arena-friendly counterpart of [`Tensor2::from_flat`]: a long-lived
    /// scratch tensor (e.g. the LSTM's batch-1 staging rows) can be
    /// refilled every call without a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn assign_flat(&mut self, rows: usize, cols: usize, data: &[f64]) {
        assert_eq!(data.len(), rows * cols, "flat buffer length mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Consumes the tensor and returns the row-major buffer (used by the
    /// batch-of-1 wrappers to hand back a plain `Vec`).
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// `self * rhs^T`: `(M x K) * (N x K)^T -> M x N`.
    ///
    /// Row `i` of the result is exactly `rhs.matvec(self.row(i))` bit for
    /// bit. This is the batched **forward** product (`rhs` holds one weight
    /// row per output feature).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Tensor2) -> Tensor2 {
        let mut out = Tensor2::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor2::matmul_nt`] into a caller-provided tensor (resized to
    /// `M x N`).
    pub fn matmul_nt_into(&self, rhs: &Tensor2, out: &mut Tensor2) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt contraction mismatch");
        out.reshape_for_overwrite(self.rows, rhs.rows);
        matmul_nt(
            &self.data,
            &rhs.data,
            self.rows,
            rhs.rows,
            self.cols,
            &mut out.data,
        );
    }
}

/// The columns of a left operand worth contracting over: the ascending
/// list of those non-zero in at least one row, or "all of them" when more
/// than half are. Built by [`ActiveCols::scan`] — or taken over from a
/// caller who already has the list, [`ActiveCols::adopt`] — into storage
/// the owner reuses, and valid only for the operand it was built for — the
/// LSTM lists a step's input once and shares the list between its four
/// gates.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ActiveCols {
    /// Ascending column indices; complete only when `sparse`.
    idx: Vec<u32>,
    sparse: bool,
}

impl ActiveCols {
    /// Columns are tested a block at a time, so that the long all-zero
    /// stretches of an observation vector cost one vectorised test each.
    const BLOCK: usize = 64;

    /// Lists the columns of the row-major `m x k` operand `a` that hold a
    /// non-zero (`-0.0` counts as zero) in at least one row, giving up as
    /// soon as more than half of them do.
    pub(crate) fn scan(&mut self, a: &[f64], m: usize, k: usize) {
        assert_eq!(a.len(), m * k);
        assert!(
            u32::try_from(k).is_ok(),
            "contraction dimension exceeds u32"
        );
        self.idx.clear();
        self.sparse = true;
        for start in (0..k).step_by(Self::BLOCK) {
            let end = (start + Self::BLOCK).min(k);
            // `bits << 1 != 0` is `v != 0.0` (it drops the sign of `-0.0`
            // and keeps NaN), as integer ORs the compiler vectorises.
            let block_is_live = (0..m).any(|r| {
                let ored = a[r * k + start..r * k + end]
                    .iter()
                    .fold(0, |acc, v| acc | (v.to_bits() << 1));
                ored != 0
            });
            if !block_is_live {
                continue;
            }
            for p in start..end {
                if (0..m).any(|r| a[r * k + p] != 0.0) {
                    self.idx.push(p as u32);
                }
            }
            if self.idx.len() * 2 > k {
                self.sparse = false;
                return;
            }
        }
    }

    /// Takes a list the caller already has and has checked — strictly
    /// ascending, below `k`, covering every non-zero column of the
    /// `k`-column operand — instead of scanning for it; the dense loop runs
    /// under the same rule as after a scan, when more than half the columns
    /// are listed.
    pub(crate) fn adopt(&mut self, cols: &[u32], k: usize) {
        self.idx.clear();
        self.idx.extend_from_slice(cols);
        self.sparse = cols.len() * 2 <= k;
    }

    /// The listed columns when contracting over them alone pays, `None`
    /// when the dense loop should run.
    pub(crate) fn sparse(&self) -> Option<&[u32]> {
        self.sparse.then_some(&self.idx)
    }
}

thread_local! {
    /// Column-list scratch for products that bring no list of their own
    /// (every `Linear` layer, the transposed products), so they stay
    /// allocation-free.
    static SCAN_SCRATCH: RefCell<ActiveCols> = RefCell::new(ActiveCols::default());
}

/// One way of reading the right operand `b` of a tiled product: each
/// implementation computes one `R x C` register tile of the output at row
/// `i`, column `j` — `R * C` independent accumulator chains, each a
/// sequential sum over the contraction indices `ps` yields, in that order —
/// and writes it to `out` (`m x n` row-major).
trait Tile {
    #[allow(clippy::too_many_arguments)]
    fn tile<const R: usize, const C: usize>(
        a: &[f64],
        b: &[f64],
        n: usize,
        k: usize,
        i: usize,
        j: usize,
        ps: impl Iterator<Item = usize>,
        out: &mut [f64],
    );
}

/// `b` is `n x k` row-major, one row of inputs per output ([`matmul_nt`]):
/// the tile's chains are seeded from `+0.0` and overwrite `out`.
struct DotTile;

impl Tile for DotTile {
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(
        a: &[f64],
        b: &[f64],
        n: usize,
        k: usize,
        i: usize,
        j: usize,
        ps: impl Iterator<Item = usize>,
        out: &mut [f64],
    ) {
        let arows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        let brows: [&[f64]; C] = std::array::from_fn(|c| &b[(j + c) * k..(j + c + 1) * k]);
        let mut acc = [[0.0f64; C]; R];
        for p in ps {
            for (accr, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[p];
                for (slot, brow) in accr.iter_mut().zip(&brows) {
                    *slot += av * brow[p];
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[(i + r) * n + j..(i + r) * n + j + C].copy_from_slice(accr);
        }
    }
}

/// `b` is `k x n` row-major — a weight stored input-major, one run of `n`
/// outputs per input ([`matmul_nn_cols`]): for each index `p` the tile
/// reads `C` contiguous values of `b`'s row `p`. Its chains start from the
/// values in `out` and go back there; a stored `f64` reloads unchanged, so
/// chains carried across calls through `out` from `+0.0` form the same
/// sequential sums as [`DotTile`] over the row-major copy of `b`, bit for
/// bit.
struct RunTile;

impl Tile for RunTile {
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(
        a: &[f64],
        b: &[f64],
        n: usize,
        k: usize,
        i: usize,
        j: usize,
        ps: impl Iterator<Item = usize>,
        out: &mut [f64],
    ) {
        let arows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        let mut acc = [[0.0f64; C]; R];
        for (r, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + C]);
        }
        for p in ps {
            let run = &b[p * n + j..p * n + j + C];
            for (accr, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[p];
                for (slot, bv) in accr.iter_mut().zip(run) {
                    *slot += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[(i + r) * n + j..(i + r) * n + j + C].copy_from_slice(accr);
        }
    }
}

/// Rows `i..i + R` of the product: `R x C` tiles across the output
/// columns, `R x 1` tiles over the columns left below a full tile.
fn band<T: Tile, const R: usize, const C: usize, I>(
    a: &[f64],
    b: &[f64],
    n: usize,
    k: usize,
    i: usize,
    ps: &I,
    out: &mut [f64],
) where
    I: Iterator<Item = usize> + Clone,
{
    let mut j = 0;
    while j + C <= n {
        T::tile::<R, C>(a, b, n, k, i, j, ps.clone(), out);
        j += C;
    }
    while j < n {
        T::tile::<R, 1>(a, b, n, k, i, j, ps.clone(), out);
        j += 1;
    }
}

/// The `m x n` product over the contraction indices `ps` yields: full
/// `MR`-row bands in `MR x BAND_C` tiles, the rows left over (all of them
/// at batch 1) one at a time in `1 x ROW_C` tiles.
fn tiled<T: Tile, const BAND_C: usize, const ROW_C: usize, I>(
    a: &[f64],
    b: &[f64],
    (m, n, k): (usize, usize, usize),
    ps: I,
    out: &mut [f64],
) where
    I: Iterator<Item = usize> + Clone,
{
    let mut i = 0;
    while i + MR <= m {
        band::<T, MR, BAND_C, I>(a, b, n, k, i, &ps, out);
        i += MR;
    }
    while i < m {
        band::<T, 1, ROW_C, I>(a, b, n, k, i, &ps, out);
        i += 1;
    }
}

/// `out = a * b^T` where `a` is `m x k`, `b` is `n x k`, `out` is `m x n`,
/// all row-major. Each output element is one sequential sum over ascending
/// `p` seeded from `+0.0` (bit-identical per row to
/// [`crate::Param::matvec_transposed`] when `b` is a `Param`'s input-major
/// storage); the `m`/`n` dimensions are register-tiled for instruction-level
/// parallelism. When at most half of `a`'s columns hold a non-zero, only
/// those are contracted over — same bits for finite `b`, see the
/// [module docs](self).
pub fn matmul_nt(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    with_scanned_cols(a, m, k, |cols| matmul_nt_cols(a, b, m, n, k, cols, out));
}

/// A column list as the contraction indices the tiles walk.
fn list(idx: &[u32]) -> impl Iterator<Item = usize> + Clone + '_ {
    idx.iter().map(|&p| p as usize)
}

/// Runs `f` on the column list of the row-major `m x k` operand `a`,
/// scanned into per-thread scratch (no allocation once warm).
pub(crate) fn with_scanned_cols<T>(
    a: &[f64],
    m: usize,
    k: usize,
    f: impl FnOnce(&ActiveCols) -> T,
) -> T {
    SCAN_SCRATCH.with_borrow_mut(|cols| {
        cols.scan(a, m, k);
        f(cols)
    })
}

/// [`matmul_nt`] with the column list of `a` supplied by the caller (it
/// must have been scanned from this `a`).
pub(crate) fn matmul_nt_cols(
    a: &[f64],
    b: &[f64],
    m: usize,
    n: usize,
    k: usize,
    cols: &ActiveCols,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    match cols.sparse() {
        Some(idx) => tiled::<DotTile, NR, ROW_NR, _>(a, b, (m, n, k), list(idx), out),
        None => tiled::<DotTile, NR, ROW_NR, _>(a, b, (m, n, k), 0..k, out),
    }
}

/// Inputs per pass of [`matmul_nn_cols`]'s dense loop. A tile walks down
/// `b` one row of `n` values at a time, so at the paper's width (`n` = 512
/// in `exp nn_throughput`) each step of a pass over all 3252 inputs lands
/// on a new page: that read about a quarter of the row-major loop's rate
/// on dense inputs. Passes over 32 rows, which every tile of the band
/// takes in turn while they stay cached, read 0.86x (batch 1) and 0.95x
/// (batch 16) of it, medians of eight alternating runs; 16 read the same,
/// 64 and 256 worse. Real observations never take this loop at that width
/// (they list under 2 % of the columns).
const RUN_BLOCK: usize = 32;

/// `out = a * b` where `a` is `m x k`, `b` is `k x n`, `out` is `m x n`,
/// all row-major, contracted over `a`'s column list (scanned from this
/// `a`). This is the forward product of a weight stored input-major: `b`
/// holds one contiguous run of `n` outputs per input, so each listed input
/// streams its run instead of gathering one value from each of `n` rows.
/// When the list is not sparse every input is contracted, [`RUN_BLOCK`]
/// at a time. Each output element is one sequential sum over ascending
/// `p` seeded from `+0.0`, register-tiled like [`matmul_nt`]: bit-identical
/// to [`matmul_nt_cols`] on the row-major copy of `b`.
pub(crate) fn matmul_nn_cols(
    a: &[f64],
    b: &[f64],
    m: usize,
    n: usize,
    k: usize,
    cols: &ActiveCols,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    match cols.sparse() {
        Some(idx) => tiled::<RunTile, RUN_NR, RUN_ROW_NR, _>(a, b, (m, n, k), list(idx), out),
        None => {
            for start in (0..k).step_by(RUN_BLOCK) {
                let block = start..(start + RUN_BLOCK).min(k);
                tiled::<RunTile, RUN_NR, RUN_ROW_NR, _>(a, b, (m, n, k), block, out);
            }
        }
    }
}

/// `acc += a^T * b` contracted over the **batch** dimension in *descending*
/// order: `a` is `bsz x m` (e.g. upstream gradients), `b` is `bsz x n`
/// (e.g. cached inputs), `acc` is `m x n` (e.g. a weight gradient).
///
/// Each target element is updated as one running sum seeded from its
/// current value with batch rows added from `bsz - 1` down to `0` — exactly
/// the sequence of `+=` a reverse-order per-sample replay of
/// [`crate::Param::add_outer_to_grad`] performs, which is what keeps the
/// batched PPO update bit-identical to the stacked-replay path.
pub fn add_matmul_tn_rev(a: &[f64], b: &[f64], bsz: usize, m: usize, n: usize, acc: &mut [f64]) {
    debug_assert_eq!(a.len(), bsz * m);
    debug_assert_eq!(b.len(), bsz * n);
    debug_assert_eq!(acc.len(), m * n);
    let mut i = 0;
    while i < m {
        let mh = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let nh = NR.min(n - j);
            if mh == MR && nh == NR {
                let mut tile = [[0.0f64; NR]; MR];
                for (r, tr) in tile.iter_mut().enumerate() {
                    for (c, slot) in tr.iter_mut().enumerate() {
                        *slot = acc[(i + r) * n + j + c];
                    }
                }
                for p in (0..bsz).rev() {
                    for (r, tr) in tile.iter_mut().enumerate() {
                        let av = a[p * m + i + r];
                        for (c, slot) in tr.iter_mut().enumerate() {
                            *slot += av * b[p * n + j + c];
                        }
                    }
                }
                for (r, tr) in tile.iter().enumerate() {
                    acc[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(tr);
                }
            } else {
                for r in 0..mh {
                    for c in 0..nh {
                        let mut slot = acc[(i + r) * n + j + c];
                        for p in (0..bsz).rev() {
                            slot += a[p * m + i + r] * b[p * n + j + c];
                        }
                        acc[(i + r) * n + j + c] = slot;
                    }
                }
            }
            j += nh;
        }
        i += mh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Tensor2 {
        Tensor2::from_flat(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        )
    }

    fn random_param(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Param {
        let mut p = Param::zeros(rows, cols);
        p.set_value((0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect());
        p
    }

    #[test]
    fn shape_accessors_and_rows() {
        let mut t = Tensor2::zeros(0, 3);
        assert!(t.is_empty());
        t.push_row(&[1.0, 2.0, 3.0]);
        t.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!((t.rows(), t.cols(), t.len()), (2, 3, 6));
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        t.row_mut(0)[0] = 9.0;
        assert_eq!(t.data()[0], 9.0);
        let u = Tensor2::from_rows(3, [t.row(0), t.row(1)]);
        assert_eq!(u, t);
        assert_eq!(Tensor2::from_row(&[1.0, 2.0]).into_flat(), vec![1.0, 2.0]);
    }

    #[test]
    fn resize_reshapes_and_zeroes() {
        let mut t = Tensor2::from_row(&[1.0, 2.0]);
        t.resize(2, 3);
        assert_eq!((t.rows(), t.cols()), (2, 3));
        assert!(t.data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn matmul_nt_matches_per_row_matvec_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Shapes straddling the register-tile boundaries.
        for (m, n, k) in [(1, 7, 5), (4, 4, 9), (5, 6, 3), (16, 9, 17), (3, 12, 1)] {
            let a = random_tensor(m, k, &mut rng);
            let w = random_param(n, k, &mut rng);
            let wt = Tensor2::from_flat(n, k, w.logical_values().collect());
            let out = a.matmul_nt(&wt);
            for i in 0..m {
                assert_eq!(out.row(i), w.matvec(a.row(i)).as_slice(), "row {i}");
            }
        }
    }

    #[test]
    fn transposed_product_matches_per_row_matvec_transposed_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for (m, n, k) in [(1, 5, 4), (4, 4, 4), (6, 10, 7), (13, 3, 8)] {
            let a = random_tensor(m, k, &mut rng);
            let w = random_param(k, n, &mut rng);
            let out = w.matmul_batch_transposed(&a);
            for i in 0..m {
                assert_eq!(
                    out.row(i),
                    w.matvec_transposed(a.row(i)).as_slice(),
                    "row {i}"
                );
            }
        }
    }

    #[test]
    fn add_matmul_tn_rev_matches_reverse_outer_product_replay() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (bsz, m, n) in [(1, 3, 4), (4, 4, 4), (7, 6, 9), (16, 5, 5)] {
            let dy = random_tensor(bsz, m, &mut rng);
            let x = random_tensor(bsz, n, &mut rng);
            // Reference: per-sample add_outer_to_grad in reverse batch order,
            // starting from a non-zero accumulator. The `m x n` gradient is
            // stored input-major, i.e. as the `n x m` product `x^T dy`.
            let mut reference = random_param(m, n, &mut rng);
            let mut batched: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            reference.grad_mut().copy_from_slice(&batched);
            for p in (0..bsz).rev() {
                reference.add_outer_to_grad(dy.row(p), x.row(p));
            }
            add_matmul_tn_rev(x.data(), dy.data(), bsz, n, m, &mut batched);
            assert_eq!(batched, reference.grad(), "bsz={bsz} m={m} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "contraction mismatch")]
    fn matmul_checks_dimensions() {
        Tensor2::zeros(2, 3).matmul_nt(&Tensor2::zeros(2, 4));
    }
}
