//! CSR sparse matrix with the two fundamental GNN kernels: SpMM and SDDMM
//! (paper Section II-C).

use std::sync::{Arc, OnceLock};

use argo_rt::{racecheck, ThreadPool};

use crate::dense::Matrix;
use crate::simd;

/// A `rows x cols` sparse matrix in CSR form with optional explicit values
/// (implicit value 1.0 when `values` is `None`) — exactly the shape of a
/// sampled message-passing block: rows are destination nodes, columns are
/// source nodes, values are normalization coefficients.
///
/// A [`CscMirror`] (column-major view of the same entries) is built lazily
/// on first transposed SpMM and cached; clones share an already-built
/// mirror via `Arc`, so every layer and the backward pass of a training
/// step reuse one mirror per adjacency.
#[derive(Debug)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Option<Vec<f32>>,
    csc: OnceLock<Arc<CscMirror>>,
}

impl Clone for SparseMatrix {
    fn clone(&self) -> Self {
        let csc = OnceLock::new();
        // Share an already-built mirror; an unbuilt one stays lazy.
        if let Some(m) = self.csc.get() {
            let _ = csc.set(Arc::clone(m));
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            csc,
        }
    }
}

impl PartialEq for SparseMatrix {
    fn eq(&self, other: &Self) -> bool {
        // The CSC mirror is derived state: equality is structural.
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

/// Column-major mirror of a [`SparseMatrix`]: the same entries grouped by
/// CSR *column*, with the originating row of each entry in `rowidx`.
///
/// Built by a counting sort over the CSR entries in row-major order, so
/// within every column the rows appear in **ascending** order — a CSC
/// gather therefore accumulates each output element in exactly the order
/// the naive CSR scatter ([`SparseMatrix::spmm_transpose`]) does, and the
/// two kernels agree bitwise.
#[derive(Debug)]
pub struct CscMirror {
    colptr: Vec<usize>,
    rowidx: Vec<u32>,
    values: Option<Vec<f32>>,
}

impl CscMirror {
    /// Column pointer array (`cols + 1` entries).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// CSR row index of each entry, ascending within each column.
    pub fn rowidx(&self) -> &[u32] {
        &self.rowidx
    }
}

impl SparseMatrix {
    /// Builds a CSR matrix; validates the structure.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Option<Vec<f32>>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr[0]");
        assert_eq!(indptr[rows], indices.len(), "indptr end");
        assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr monotone");
        assert!(indices.iter().all(|&c| (c as usize) < cols), "col in range");
        if let Some(v) = &values {
            assert_eq!(v.len(), indices.len(), "values length");
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            csc: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Explicit values, if any.
    pub fn values(&self) -> Option<&[f32]> {
        self.values.as_deref()
    }

    /// Value of the `k`-th stored entry.
    #[inline]
    fn value_at(&self, k: usize) -> f32 {
        self.values.as_ref().map_or(1.0, |v| v[k])
    }

    /// **SpMM**: `self @ dense`, the feature-aggregation kernel (Eq. 1–2).
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, &mut out);
        out
    }

    /// [`SparseMatrix::spmm`] writing into a caller-provided (e.g.
    /// workspace-recycled) output matrix; prior contents are overwritten.
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.spmm_into_opt(dense, out, simd::available());
    }

    /// [`SparseMatrix::spmm_into`] with an explicit SIMD-gather switch —
    /// the vectorized and scalar gathers are bitwise-equal, so this only
    /// exists for dispatch routing and for benchmarking both in one
    /// process.
    pub(crate) fn spmm_into_opt(&self, dense: &Matrix, out: &mut Matrix, use_simd: bool) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.rows, dense.cols()));
        out.data_mut().fill(0.0);
        self.spmm_rows_into(dense, 0..self.rows, out, use_simd);
    }

    /// SpMM with the row loop parallelized over `pool`.
    pub fn spmm_pool(&self, dense: &Matrix, pool: &ThreadPool) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_pool_into(dense, pool, &mut out);
        out
    }

    /// [`SparseMatrix::spmm_pool`] writing into a caller-provided output
    /// matrix; prior contents are overwritten.
    pub fn spmm_pool_into(&self, dense: &Matrix, pool: &ThreadPool, out: &mut Matrix) {
        self.spmm_pool_into_opt(dense, pool, out, simd::available());
    }

    /// [`SparseMatrix::spmm_pool_into`] with an explicit SIMD switch (see
    /// [`SparseMatrix::spmm_into_opt`]).
    pub(crate) fn spmm_pool_into_opt(
        &self,
        dense: &Matrix,
        pool: &ThreadPool,
        out: &mut Matrix,
        use_simd: bool,
    ) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.rows, dense.cols()));
        out.data_mut().fill(0.0);
        let n = dense.cols();
        let out_ptr = out.data_mut().as_mut_ptr() as usize;
        let shadow = racecheck::region("tensor.spmm_pool", self.rows);
        pool.parallel_ranges(self.rows, |range| {
            racecheck::write(&shadow, range.start, range.len());
            for i in range {
                // SAFETY: each output row is written by exactly one worker.
                let drow =
                    unsafe { std::slice::from_raw_parts_mut((out_ptr as *mut f32).add(i * n), n) };
                self.row_accumulate(dense, i, drow, use_simd);
            }
        });
    }

    fn spmm_rows_into(
        &self,
        dense: &Matrix,
        range: std::ops::Range<usize>,
        out: &mut Matrix,
        use_simd: bool,
    ) {
        for i in range {
            let n = out.cols();
            let drow = &mut out.data_mut()[i * n..(i + 1) * n];
            self.row_accumulate(dense, i, drow, use_simd);
        }
    }

    #[inline]
    fn row_accumulate(&self, dense: &Matrix, i: usize, drow: &mut [f32], use_simd: bool) {
        accumulate_entries(
            &self.indices,
            self.values.as_deref(),
            self.indptr[i]..self.indptr[i + 1],
            dense,
            drow,
            use_simd,
        );
    }

    /// **Transposed SpMM**: `selfᵀ @ dense`. Needed by the backward pass of
    /// feature aggregation (`dX = Aᵀ dY`).
    pub fn spmm_transpose(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.rows, dense.rows(), "spmm_transpose shape mismatch");
        let mut out = Matrix::zeros(self.cols, dense.cols());
        for i in 0..self.rows {
            let src = dense.row(i);
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                let w = self.value_at(k);
                let n = out.cols();
                let drow = &mut out.data_mut()[j * n..(j + 1) * n];
                for (d, &s) in drow.iter_mut().zip(src) {
                    *d += w * s;
                }
            }
        }
        out
    }

    /// Returns the cached CSC mirror, building it on first use (a counting
    /// sort, `O(nnz + cols)`). Clones made after this call share the mirror.
    pub fn csc(&self) -> &CscMirror {
        self.csc.get_or_init(|| Arc::new(self.build_csc()))
    }

    /// Whether the CSC mirror has been built (for cache-reuse assertions).
    pub fn csc_is_built(&self) -> bool {
        self.csc.get().is_some()
    }

    fn build_csc(&self) -> CscMirror {
        let mut colptr = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            colptr[j as usize + 1] += 1;
        }
        for c in 0..self.cols {
            colptr[c + 1] += colptr[c];
        }
        let mut next = colptr.clone();
        let mut rowidx = vec![0u32; self.nnz()];
        let mut values = self.values.as_ref().map(|_| vec![0.0f32; self.nnz()]);
        // Visiting CSR entries in row-major order fills each column's slots
        // with ascending rows — the invariant the exactness claim rests on.
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                let slot = next[j];
                next[j] += 1;
                rowidx[slot] = i as u32;
                if let (Some(dst), Some(src)) = (values.as_mut(), self.values.as_ref()) {
                    dst[slot] = src[k];
                }
            }
        }
        CscMirror {
            colptr,
            rowidx,
            values,
        }
    }

    /// Transposed SpMM as a CSC **gather**: output row `j` is assembled from
    /// column `j`'s entries alone. Bitwise-equal to the scatter version
    /// (see [`CscMirror`]) but row-parallelizable — each output row touches
    /// disjoint state.
    pub fn spmm_transpose_csc(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, dense.cols());
        self.spmm_transpose_csc_into(dense, &mut out);
        out
    }

    /// [`SparseMatrix::spmm_transpose_csc`] writing into a caller-provided
    /// output matrix; prior contents are overwritten.
    pub fn spmm_transpose_csc_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.spmm_transpose_csc_into_opt(dense, out, simd::available());
    }

    /// [`SparseMatrix::spmm_transpose_csc_into`] with an explicit SIMD
    /// switch (see [`SparseMatrix::spmm_into_opt`]).
    pub(crate) fn spmm_transpose_csc_into_opt(
        &self,
        dense: &Matrix,
        out: &mut Matrix,
        use_simd: bool,
    ) {
        assert_eq!(self.rows, dense.rows(), "spmm_transpose shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.cols, dense.cols()));
        out.data_mut().fill(0.0);
        let csc = self.csc();
        let n = dense.cols();
        for j in 0..self.cols {
            Self::csc_gather_row(
                csc,
                dense,
                j,
                &mut out.data_mut()[j * n..(j + 1) * n],
                use_simd,
            );
        }
    }

    /// [`SparseMatrix::spmm_transpose_csc`] with the output rows
    /// parallelized over `pool`.
    pub fn spmm_transpose_csc_pool(&self, dense: &Matrix, pool: &ThreadPool) -> Matrix {
        let mut out = Matrix::zeros(self.cols, dense.cols());
        self.spmm_transpose_csc_pool_into(dense, pool, &mut out);
        out
    }

    /// [`SparseMatrix::spmm_transpose_csc_pool`] writing into a
    /// caller-provided output matrix; prior contents are overwritten.
    pub fn spmm_transpose_csc_pool_into(
        &self,
        dense: &Matrix,
        pool: &ThreadPool,
        out: &mut Matrix,
    ) {
        self.spmm_transpose_csc_pool_into_opt(dense, pool, out, simd::available());
    }

    /// [`SparseMatrix::spmm_transpose_csc_pool_into`] with an explicit SIMD
    /// switch (see [`SparseMatrix::spmm_into_opt`]).
    pub(crate) fn spmm_transpose_csc_pool_into_opt(
        &self,
        dense: &Matrix,
        pool: &ThreadPool,
        out: &mut Matrix,
        use_simd: bool,
    ) {
        assert_eq!(self.rows, dense.rows(), "spmm_transpose shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.cols, dense.cols()));
        out.data_mut().fill(0.0);
        let csc = self.csc();
        let n = dense.cols();
        let out_ptr = out.data_mut().as_mut_ptr() as usize;
        let shadow = racecheck::region("tensor.spmm_transpose_csc_pool", self.cols);
        pool.parallel_ranges(self.cols, |range| {
            racecheck::write(&shadow, range.start, range.len());
            for j in range {
                // SAFETY: each output row is written by exactly one worker,
                // and the pool call blocks until all workers finish.
                let drow =
                    unsafe { std::slice::from_raw_parts_mut((out_ptr as *mut f32).add(j * n), n) };
                Self::csc_gather_row(csc, dense, j, drow, use_simd);
            }
        });
    }

    #[inline]
    fn csc_gather_row(csc: &CscMirror, dense: &Matrix, j: usize, drow: &mut [f32], use_simd: bool) {
        accumulate_entries(
            &csc.rowidx,
            csc.values.as_deref(),
            csc.colptr[j]..csc.colptr[j + 1],
            dense,
            drow,
            use_simd,
        );
    }

    /// **SDDMM**: for every stored entry `(i, j)` computes `a_i · b_j`
    /// (rows of `a` and `b`), returning a sparse matrix with the same
    /// structure and the dot products as values.
    #[allow(clippy::needless_range_loop)] // CSR walk indexes `vals` by entry
    pub fn sddmm(&self, a: &Matrix, b: &Matrix) -> SparseMatrix {
        assert_eq!(a.rows(), self.rows, "sddmm a rows");
        assert_eq!(b.rows(), self.cols, "sddmm b rows");
        assert_eq!(a.cols(), b.cols(), "sddmm inner dim");
        let mut vals = vec![0.0f32; self.nnz()];
        for i in 0..self.rows {
            let ar = a.row(i);
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                let br = b.row(j);
                let mut acc = 0.0f32;
                for (x, y) in ar.iter().zip(br) {
                    acc += x * y;
                }
                vals[k] = acc;
            }
        }
        SparseMatrix::new(
            self.rows,
            self.cols,
            self.indptr.clone(),
            self.indices.clone(),
            Some(vals),
        )
    }

    /// Broadcast-add SDDMM variant (`u_add_v` in DGL terms): value of entry
    /// `(i, j)` becomes `row_vals[i] + col_vals[j]` — the edge-score
    /// computation of attention models (GAT).
    #[allow(clippy::needless_range_loop)] // CSR walk indexes values by entry
    pub fn sddmm_add(&self, row_vals: &[f32], col_vals: &[f32]) -> SparseMatrix {
        assert_eq!(row_vals.len(), self.rows, "sddmm_add row length");
        assert_eq!(col_vals.len(), self.cols, "sddmm_add col length");
        let mut vals = vec![0.0f32; self.nnz()];
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                vals[k] = row_vals[i] + col_vals[self.indices[k] as usize];
            }
        }
        self.with_values(vals)
    }

    /// Row-wise softmax over the stored values (edge softmax): within each
    /// row the values are replaced by `exp(v - max) / Σ exp(v - max)`.
    /// Rows without entries are left empty. Panics if no values are set.
    pub fn row_softmax(&self) -> SparseMatrix {
        let v = self.values.as_ref().expect("row_softmax needs values");
        let mut out = v.clone();
        for i in 0..self.rows {
            let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
            if lo == hi {
                continue;
            }
            let max = out[lo..hi]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for x in &mut out[lo..hi] {
                *x = (*x - max).exp();
                denom += *x;
            }
            for x in &mut out[lo..hi] {
                *x /= denom;
            }
        }
        self.with_values(out)
    }

    /// Backward of [`SparseMatrix::row_softmax`]: given the softmax output
    /// `alpha` (this matrix's values) and upstream gradient `d_alpha`,
    /// returns `d_logits`: `α_k (dα_k − Σ_{k'∈row} α_{k'} dα_{k'})`.
    pub fn row_softmax_backward(&self, d_alpha: &[f32]) -> Vec<f32> {
        let alpha = self
            .values
            .as_ref()
            .expect("row_softmax_backward needs values");
        assert_eq!(d_alpha.len(), alpha.len(), "gradient length");
        let mut out = vec![0.0f32; alpha.len()];
        for i in 0..self.rows {
            let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
            let dot: f32 = alpha[lo..hi]
                .iter()
                .zip(&d_alpha[lo..hi])
                .map(|(a, d)| a * d)
                .sum();
            for k in lo..hi {
                out[k] = alpha[k] * (d_alpha[k] - dot);
            }
        }
        out
    }

    /// Sums the stored values within each row (e.g. `Σ_k de_k` per dst node
    /// in attention backward). Panics if no values are set.
    pub fn row_value_sums(&self) -> Vec<f32> {
        let v = self.values.as_ref().expect("row_value_sums needs values");
        let mut out = vec![0.0f32; self.rows];
        for i in 0..self.rows {
            out[i] = v[self.indptr[i]..self.indptr[i + 1]].iter().sum();
        }
        out
    }

    /// Sums the stored values per *column* (scatter to sources).
    pub fn col_value_sums(&self) -> Vec<f32> {
        let v = self.values.as_ref().expect("col_value_sums needs values");
        let mut out = vec![0.0f32; self.cols];
        for (k, &j) in self.indices.iter().enumerate() {
            out[j as usize] += v[k];
        }
        out
    }

    /// The given rows, in the given order — e.g. the rows a subgraph
    /// layer must compute. `cols` renumbers the columns onto a kept subset
    /// (every entry of the rows must lie in it); the renumbering is
    /// monotone, so each row keeps its entry order. Without it all columns
    /// stay.
    pub fn select_rows(&self, rows: &[usize], cols: Option<&ColumnSubset>) -> SparseMatrix {
        select_csr(
            |i| self.indptr[i],
            &self.indices,
            self.values.as_deref(),
            self.cols,
            rows,
            cols,
        )
    }

    /// Replaces the values; structure unchanged.
    pub fn with_values(&self, values: Vec<f32>) -> SparseMatrix {
        assert_eq!(values.len(), self.nnz());
        SparseMatrix::new(
            self.rows,
            self.cols,
            self.indptr.clone(),
            self.indices.clone(),
            Some(values),
        )
    }

    /// Converts to dense (for tests / tiny matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                let cur = out.get(i, j);
                out.set(i, j, cur + self.value_at(k));
            }
        }
        out
    }
}

/// A subset of a matrix's columns renumbered in ascending order: the
/// monotone column map of [`SparseMatrix::select_rows`] and
/// [`SparseView::select_rows`].
#[derive(Clone, Debug)]
pub struct ColumnSubset {
    /// New index of each kept column; `u32::MAX` for a dropped one.
    pos: Vec<u32>,
    kept: usize,
}

impl ColumnSubset {
    /// Keeps the columns `c < cols` for which `keep(c)` holds.
    pub fn new(cols: usize, keep: impl Fn(usize) -> bool) -> Self {
        let mut kept = 0;
        let pos = (0..cols)
            .map(|c| {
                if !keep(c) {
                    return u32::MAX;
                }
                kept += 1;
                kept as u32 - 1
            })
            .collect();
        Self { pos, kept }
    }

    /// Number of kept columns.
    pub(crate) fn kept(&self) -> usize {
        self.kept
    }

    /// New index of the kept column `c`.
    pub fn position(&self, c: usize) -> usize {
        let p = self.pos[c];
        assert!(p != u32::MAX, "column {c} is not kept");
        p as usize
    }
}

/// Row selection with an optional column renumbering over borrowed CSR
/// arrays (`row_start(i)` is `indptr[i]`), shared by the owned and the
/// borrowed matrix.
fn select_csr(
    row_start: impl Fn(usize) -> usize,
    indices: &[u32],
    values: Option<&[f32]>,
    cols: usize,
    rows: &[usize],
    keep: Option<&ColumnSubset>,
) -> SparseMatrix {
    let n = rows.len();
    let nnz = rows.iter().map(|&r| row_start(r + 1) - row_start(r)).sum();
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0);
    let mut out = Vec::with_capacity(nnz);
    let mut vals = values.map(|_| Vec::with_capacity(nnz));
    for &r in rows {
        let span = row_start(r)..row_start(r + 1);
        match keep {
            Some(k) => out.extend(
                indices[span.clone()]
                    .iter()
                    .map(|&c| k.position(c as usize) as u32),
            ),
            None => out.extend_from_slice(&indices[span.clone()]),
        }
        if let (Some(dst), Some(src)) = (vals.as_mut(), values) {
            dst.extend_from_slice(&src[span]);
        }
        indptr.push(out.len());
    }
    SparseMatrix {
        rows: n,
        cols: keep.map_or(cols, ColumnSubset::kept),
        indptr,
        indices: out,
        values: vals,
        csc: OnceLock::new(),
    }
}

/// The single entry-accumulation kernel shared by every CSR/CSC gather in
/// this crate: `drow += w_k * dense[row_of(k)]` for each stored entry `k`
/// in `range`. Both the owned [`SparseMatrix`] paths and the borrowed
/// [`SparseView`] paths funnel through here, so the SIMD gather tier (and
/// its bitwise-equal scalar fallback) applies identically to both.
#[inline]
fn accumulate_entries(
    indices: &[u32],
    values: Option<&[f32]>,
    range: std::ops::Range<usize>,
    dense: &Matrix,
    drow: &mut [f32],
    use_simd: bool,
) {
    for k in range {
        let j = indices[k] as usize;
        let w = values.map_or(1.0, |v| v[k]);
        let src = dense.row(j);
        if use_simd {
            simd::axpy(drow, w, src);
        } else {
            for (d, &s) in drow.iter_mut().zip(src) {
                *d += w * s;
            }
        }
    }
}

/// A **borrowed** CSR adjacency: the same shape as [`SparseMatrix`] but all
/// three arrays are slices into caller-owned storage (in practice the
/// sampler's epoch-stamped batch arena), with a compact `u32` row-pointer
/// array — a sampled block never has more than `u32::MAX` entries.
///
/// This is the zero-copy handoff type of the fused sampling→assembly path:
/// `nn`/`serve` aggregate straight out of the arena through
/// [`SparseView::spmm_into`] (routed by `DispatchPolicy::aggregate_view_into`),
/// which shares its inner gather kernel — including the SIMD tier — with the
/// owned paths. Crossing an ownership boundary (the loader's reorder heap,
/// training's CSC-backed backward pass) materializes via
/// [`SparseView::to_owned`].
#[derive(Clone, Copy, Debug)]
pub struct SparseView<'a> {
    rows: usize,
    cols: usize,
    indptr: &'a [u32],
    indices: &'a [u32],
    values: Option<&'a [f32]>,
}

impl<'a> SparseView<'a> {
    /// Wraps borrowed CSR arrays. Cheap O(rows) structural checks run
    /// always; the O(nnz) checks that [`SparseMatrix::new`] performs are
    /// debug-only — skipping that per-batch revalidation pass is part of
    /// the point of arena assembly, and the producing sampler is
    /// property-tested bitwise-equal to the validated legacy path.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: &'a [u32],
        indices: &'a [u32],
        values: Option<&'a [f32]>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr[0]");
        assert_eq!(indptr[rows] as usize, indices.len(), "indptr end");
        if let Some(v) = values {
            assert_eq!(v.len(), indices.len(), "values length");
        }
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr monotone");
        debug_assert!(indices.iter().all(|&c| (c as usize) < cols), "col in range");
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (compact `u32`).
    pub fn indptr(&self) -> &'a [u32] {
        self.indptr
    }

    /// Column indices.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// Explicit values, if any.
    pub fn values(&self) -> Option<&'a [f32]> {
        self.values
    }

    /// [`SparseMatrix::select_rows`] read straight from the borrowed arrays.
    pub fn select_rows(&self, rows: &[usize], cols: Option<&ColumnSubset>) -> SparseMatrix {
        select_csr(
            |i| self.indptr[i] as usize,
            self.indices,
            self.values,
            self.cols,
            rows,
            cols,
        )
    }

    /// **SpMM** `self @ dense` into a caller-provided matrix — the borrowed
    /// twin of [`SparseMatrix::spmm_into`].
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.spmm_into_opt(dense, out, simd::available());
    }

    pub(crate) fn spmm_into_opt(&self, dense: &Matrix, out: &mut Matrix, use_simd: bool) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.rows, dense.cols()));
        out.data_mut().fill(0.0);
        let n = out.cols();
        for i in 0..self.rows {
            let drow = &mut out.data_mut()[i * n..(i + 1) * n];
            self.row_accumulate(dense, i, drow, use_simd);
        }
    }

    /// [`SparseView::spmm_into`] with the row loop parallelized over `pool`.
    pub fn spmm_pool_into(&self, dense: &Matrix, pool: &ThreadPool, out: &mut Matrix) {
        self.spmm_pool_into_opt(dense, pool, out, simd::available());
    }

    pub(crate) fn spmm_pool_into_opt(
        &self,
        dense: &Matrix,
        pool: &ThreadPool,
        out: &mut Matrix,
        use_simd: bool,
    ) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        assert_eq!((out.rows(), out.cols()), (self.rows, dense.cols()));
        out.data_mut().fill(0.0);
        let n = dense.cols();
        let out_ptr = out.data_mut().as_mut_ptr() as usize;
        let shadow = racecheck::region("tensor.spmm_view_pool", self.rows);
        pool.parallel_ranges(self.rows, |range| {
            racecheck::write(&shadow, range.start, range.len());
            for i in range {
                // SAFETY: each output row is written by exactly one worker,
                // and the pool call blocks until all workers finish — the
                // borrowed arena slices outlive the call for the same reason.
                let drow =
                    unsafe { std::slice::from_raw_parts_mut((out_ptr as *mut f32).add(i * n), n) };
                self.row_accumulate(dense, i, drow, use_simd);
            }
        });
    }

    #[inline]
    fn row_accumulate(&self, dense: &Matrix, i: usize, drow: &mut [f32], use_simd: bool) {
        accumulate_entries(
            self.indices,
            self.values,
            self.indptr[i] as usize..self.indptr[i + 1] as usize,
            dense,
            drow,
            use_simd,
        );
    }

    /// Materializes an owned [`SparseMatrix`] — the fallback at ownership
    /// boundaries (loader channel handoff, CSC-backed backward pass). The
    /// structure was validated at view construction, so this is three
    /// straight copies (indptr widened to `usize`), not a revalidating
    /// [`SparseMatrix::new`].
    pub fn to_owned(&self) -> SparseMatrix {
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.iter().map(|&p| p as usize).collect(),
            indices: self.indices.to_vec(),
            values: self.values.map(|v| v.to_vec()),
            csc: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [[1, 0, 2], [0, 3, 0]]
    fn sample() -> SparseMatrix {
        SparseMatrix::new(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            Some(vec![1.0, 2.0, 3.0]),
        )
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let d = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let got = s.spmm(&d);
        let want = s.to_dense().matmul(&d);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn spmm_implicit_ones() {
        let s = SparseMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], None);
        let d = Matrix::from_vec(2, 1, vec![10., 20.]);
        let got = s.spmm(&d);
        assert_eq!(got.data(), &[20., 10.]);
    }

    #[test]
    fn spmm_pool_matches_serial() {
        let pool = ThreadPool::new("t", 4);
        // Random-ish structure.
        let rows = 50;
        let cols = 40;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                if (i * 7 + j * 13) % 5 == 0 {
                    indices.push(j as u32);
                    vals.push(((i + j) % 3) as f32 + 0.5);
                }
            }
            indptr.push(indices.len());
        }
        let s = SparseMatrix::new(rows, cols, indptr, indices, Some(vals));
        let d = Matrix::xavier(cols, 8, 3);
        let a = s.spmm(&d);
        let b = s.spmm_pool(&d, &pool);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn spmm_transpose_matches_dense_transpose() {
        let s = sample();
        let d = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let got = s.spmm_transpose(&d);
        // dense: s.to_dense()ᵀ @ d
        let sd = s.to_dense();
        let mut st = Matrix::zeros(3, 2);
        for i in 0..2 {
            for j in 0..3 {
                st.set(j, i, sd.get(i, j));
            }
        }
        let want = st.matmul(&d);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn csc_gather_matches_scatter_bitwise() {
        // Ragged structure with values: gather vs scatter must agree exactly.
        let rows = 37;
        let cols = 23;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                if (i * 5 + j * 11) % 7 == 0 {
                    indices.push(j as u32);
                    vals.push(((i * j) % 13) as f32 * 0.37 - 1.0);
                }
            }
            indptr.push(indices.len());
        }
        let s = SparseMatrix::new(rows, cols, indptr, indices, Some(vals));
        let d = Matrix::xavier(rows, 9, 11);
        assert_eq!(s.spmm_transpose(&d).data(), s.spmm_transpose_csc(&d).data());
    }

    #[test]
    fn csc_pool_matches_serial() {
        let pool = ThreadPool::new("t", 4);
        let s = SparseMatrix::new(3, 4, vec![0, 2, 3, 5], vec![0, 3, 1, 0, 2], None);
        let d = Matrix::xavier(3, 6, 12);
        let serial = s.spmm_transpose_csc(&d);
        let par = s.spmm_transpose_csc_pool(&d, &pool);
        assert_eq!(serial.data(), par.data());
    }

    #[test]
    fn csc_rows_ascend_within_columns() {
        let s = sample();
        let csc = s.csc();
        for j in 0..s.cols() {
            let col = &csc.rowidx()[csc.colptr()[j]..csc.colptr()[j + 1]];
            assert!(col.windows(2).all(|w| w[0] < w[1]), "col {j}: {col:?}");
        }
    }

    #[test]
    fn clone_shares_built_csc_mirror() {
        let s = sample();
        assert!(!s.csc_is_built());
        let before = s.clone();
        assert!(!before.csc_is_built(), "lazy mirror is not cloned eagerly");
        let _ = s.csc();
        let after = s.clone();
        assert!(after.csc_is_built(), "built mirror is shared into clones");
        assert!(
            std::ptr::eq(s.csc(), after.csc()),
            "same Arc, not a rebuild"
        );
        assert_eq!(s, after, "equality ignores the cache");
        assert_eq!(s, before);
    }

    #[test]
    fn sddmm_computes_dots() {
        let s = SparseMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], None);
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let out = s.sddmm(&a, &b);
        // entry (0,1): a0·b1 = 1*7+2*8 = 23; entry (1,0): a1·b0 = 3*5+4*6=39.
        assert_eq!(out.values().unwrap(), &[23.0, 39.0]);
        assert_eq!(out.indices(), s.indices());
    }

    #[test]
    fn to_dense_roundtrip_values() {
        let s = sample();
        let d = s.to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_indptr_panics() {
        SparseMatrix::new(2, 2, vec![0, 3, 2], vec![0, 1], None);
    }

    #[test]
    #[should_panic]
    fn col_out_of_range_panics() {
        SparseMatrix::new(1, 2, vec![0, 1], vec![5], None);
    }

    #[test]
    fn sddmm_add_broadcasts() {
        let s = SparseMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], None);
        let out = s.sddmm_add(&[10.0, 20.0], &[1.0, 2.0, 3.0]);
        assert_eq!(out.values().unwrap(), &[11.0, 13.0, 22.0]);
    }

    #[test]
    fn row_softmax_rows_sum_to_one() {
        let s = SparseMatrix::new(3, 3, vec![0, 2, 2, 5], vec![0, 1, 0, 1, 2], None)
            .with_values(vec![1.0, 2.0, 5.0, 5.0, 5.0]);
        let sm = s.row_softmax();
        let v = sm.values().unwrap();
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
        assert!(v[1] > v[0]); // larger logit gets more mass
        assert!((v[2] + v[3] + v[4] - 1.0).abs() < 1e-6);
        assert!((v[2] - 1.0 / 3.0).abs() < 1e-6); // uniform row
    }

    #[test]
    fn row_softmax_stable_for_large_values() {
        let s = SparseMatrix::new(1, 2, vec![0, 2], vec![0, 1], Some(vec![1000.0, -1000.0]));
        let v = s.row_softmax();
        assert!(v.values().unwrap().iter().all(|x| x.is_finite()));
        assert!((v.values().unwrap()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn row_softmax_backward_matches_finite_difference() {
        let logits = vec![0.3f32, -0.5, 1.2, 0.1];
        let s = SparseMatrix::new(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], Some(logits.clone()));
        let alpha = s.row_softmax();
        // Upstream grad on alpha.
        let d_alpha = vec![0.7f32, -0.2, 0.4, 0.9];
        let analytic = alpha.row_softmax_backward(&d_alpha);
        // FD on loss = Σ d_alpha · softmax(logits).
        let eps = 1e-3f32;
        for k in 0..4 {
            let mut lp = logits.clone();
            lp[k] += eps;
            let mut lm = logits.clone();
            lm[k] -= eps;
            let f = |l: Vec<f32>| -> f32 {
                let sm = s.with_values(l).row_softmax();
                sm.values()
                    .unwrap()
                    .iter()
                    .zip(&d_alpha)
                    .map(|(a, d)| a * d)
                    .sum()
            };
            let fd = (f(lp) - f(lm)) / (2.0 * eps);
            assert!(
                (fd - analytic[k]).abs() < 1e-3,
                "k={k}: fd {fd} vs {}",
                analytic[k]
            );
        }
    }

    #[test]
    fn row_and_col_value_sums() {
        let s = SparseMatrix::new(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            Some(vec![1.0, 2.0, 3.0]),
        );
        assert_eq!(s.row_value_sums(), vec![3.0, 3.0]);
        assert_eq!(s.col_value_sums(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn with_values_preserves_structure() {
        let s = sample();
        let t = s.with_values(vec![9.0, 9.0, 9.0]);
        assert_eq!(t.indptr(), s.indptr());
        assert_eq!(t.values().unwrap(), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn empty_rows_ok() {
        let s = SparseMatrix::new(3, 2, vec![0, 0, 1, 1], vec![1], None);
        let d = Matrix::from_vec(2, 1, vec![5., 7.]);
        let out = s.spmm(&d);
        assert_eq!(out.data(), &[0., 7., 0.]);
    }

    /// Borrowed-view twin of `sample()`.
    fn sample_view_arrays() -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        (vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn view_spmm_bitwise_matches_owned() {
        let (indptr, indices, values) = sample_view_arrays();
        let v = SparseView::new(2, 3, &indptr, &indices, Some(&values));
        let owned = sample();
        let d = Matrix::xavier(3, 7, 5);
        let mut a = Matrix::zeros(2, 7);
        let mut b = Matrix::zeros(2, 7);
        owned.spmm_into(&d, &mut a);
        v.spmm_into(&d, &mut b);
        assert_eq!(a.data(), b.data(), "view and owned SpMM must agree bitwise");
    }

    #[test]
    fn view_spmm_scalar_and_simd_agree_bitwise() {
        let (indptr, indices, values) = sample_view_arrays();
        let v = SparseView::new(2, 3, &indptr, &indices, Some(&values));
        let d = Matrix::xavier(3, 9, 6);
        let mut a = Matrix::zeros(2, 9);
        let mut b = Matrix::zeros(2, 9);
        v.spmm_into_opt(&d, &mut a, false);
        v.spmm_into_opt(&d, &mut b, simd::available());
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn view_pool_matches_serial() {
        let pool = ThreadPool::new("t", 4);
        // Ragged structure, implicit ones.
        let mut indptr = vec![0u32];
        let mut indices: Vec<u32> = Vec::new();
        for i in 0..40u32 {
            for j in 0..30u32 {
                if (i * 7 + j * 13) % 5 == 0 {
                    indices.push(j);
                }
            }
            indptr.push(indices.len() as u32);
        }
        let v = SparseView::new(40, 30, &indptr, &indices, None);
        let d = Matrix::xavier(30, 8, 3);
        let mut a = Matrix::zeros(40, 8);
        let mut b = Matrix::zeros(40, 8);
        v.spmm_into(&d, &mut a);
        v.spmm_pool_into(&d, &pool, &mut b);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn view_to_owned_round_trips() {
        let (indptr, indices, values) = sample_view_arrays();
        let v = SparseView::new(2, 3, &indptr, &indices, Some(&values));
        let owned = v.to_owned();
        assert_eq!(owned, sample());
        assert!(!owned.csc_is_built(), "materialized view starts lazy");
    }

    /// Ragged `rows x cols` matrix with explicit values and some empty rows.
    fn ragged(rows: usize, cols: usize) -> SparseMatrix {
        let (mut indptr, mut indices, mut values) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..rows {
            for j in 0..cols {
                if (i * 7 + j * 13) % 5 == 0 && i % 4 != 3 {
                    indices.push(j as u32);
                    values.push(0.25 + (i + j) as f32 / 64.0);
                }
            }
            indptr.push(indices.len());
        }
        SparseMatrix::new(rows, cols, indptr, indices, Some(values))
    }

    #[test]
    fn select_rows_matches_dense_rows_in_any_order() {
        let s = ragged(12, 9);
        let dense = s.to_dense();
        for rows in [vec![], vec![0, 1, 2, 3, 4], vec![7, 3, 3, 0, 11]] {
            let sel = s.select_rows(&rows, None);
            assert_eq!((sel.rows(), sel.cols()), (rows.len(), 9));
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(sel.to_dense().row(i), dense.row(r), "row {r}");
            }
        }
    }

    #[test]
    fn prefix_block_mirror_is_the_prefix_of_each_full_column() {
        // The exactness claim a seed-prefix layer rests on: its CSC gather sums
        // the same nonzero terms, in the same order, as the full mirror
        // restricted to rows below the prefix.
        let s = ragged(20, 20);
        let block = s.select_rows(&(0..8).collect::<Vec<_>>(), None);
        let (full, part) = (s.csc(), block.csc());
        for j in 0..20 {
            let col = &full.rowidx()[full.colptr()[j]..full.colptr()[j + 1]];
            let kept: Vec<u32> = col.iter().copied().take_while(|&r| r < 8).collect();
            assert_eq!(
                &part.rowidx()[part.colptr()[j]..part.colptr()[j + 1]],
                &kept[..]
            );
        }
        // So `blockᵀ g` equals `sᵀ (g padded with zero rows)` bitwise.
        let g = Matrix::xavier(8, 6, 4);
        let mut padded = Matrix::zeros(20, 6);
        padded.data_mut()[..g.data().len()].copy_from_slice(g.data());
        for simd in [false, true] {
            let (mut a, mut b) = (Matrix::zeros(20, 6), Matrix::zeros(20, 6));
            block.spmm_transpose_csc_into_opt(&g, &mut a, simd);
            s.spmm_transpose_csc_into_opt(&padded, &mut b, simd);
            assert_eq!(a.data(), b.data(), "simd={simd}");
        }
    }

    #[test]
    fn view_select_rows_equals_owned_select_rows() {
        let s = ragged(10, 7);
        let indptr: Vec<u32> = s.indptr().iter().map(|&p| p as u32).collect();
        let v = SparseView::new(10, 7, &indptr, s.indices(), s.values());
        for rows in [
            vec![],
            vec![0, 1, 2, 3],
            (0..10).collect(),
            vec![9, 2, 2, 5],
        ] {
            assert_eq!(v.select_rows(&rows, None), s.select_rows(&rows, None));
        }
    }

    /// `m`'s rows at `rows`, in order.
    fn dense_rows(m: &Matrix, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), m.cols());
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(m.row(r));
        }
        out
    }

    #[test]
    fn column_subset_keeps_each_rows_terms_in_order() {
        // The exactness claim a pruned subgraph layer rests on: ascending
        // rows over their compacted columns sum the same nonzero terms, in
        // the same order, as the full matrix does forward and transposed.
        let s = ragged(20, 20);
        let rows = [1, 2, 5, 8, 13];
        let reached = |c: usize| {
            rows.iter()
                .any(|&r| s.indices()[s.indptr()[r]..s.indptr()[r + 1]].contains(&(c as u32)))
        };
        let keep = ColumnSubset::new(20, |c| reached(c) || c % 3 == 0);
        let kept: Vec<usize> = (0..20).filter(|&c| reached(c) || c % 3 == 0).collect();
        assert_eq!(keep.kept(), kept.len());
        let sub = s.select_rows(&rows, Some(&keep));
        assert_eq!((sub.rows(), sub.cols()), (rows.len(), kept.len()));
        let indptr: Vec<u32> = s.indptr().iter().map(|&p| p as u32).collect();
        let v = SparseView::new(20, 20, &indptr, s.indices(), s.values());
        assert_eq!(v.select_rows(&rows, Some(&keep)), sub);

        let h = Matrix::xavier(20, 6, 3);
        let g = Matrix::xavier(rows.len(), 6, 4);
        let mut padded = Matrix::zeros(20, 6);
        for (i, &r) in rows.iter().enumerate() {
            padded.row_mut(r).copy_from_slice(g.row(i));
        }
        for simd in [false, true] {
            let (mut a, mut b) = (Matrix::zeros(rows.len(), 6), Matrix::zeros(20, 6));
            sub.spmm_into_opt(&dense_rows(&h, &kept), &mut a, simd);
            s.spmm_into_opt(&h, &mut b, simd);
            assert_eq!(a.data(), dense_rows(&b, &rows).data(), "simd={simd}");
            let (mut a, mut b) = (Matrix::zeros(kept.len(), 6), Matrix::zeros(20, 6));
            sub.spmm_transpose_csc_into_opt(&g, &mut a, simd);
            s.spmm_transpose_csc_into_opt(&padded, &mut b, simd);
            assert_eq!(a.data(), dense_rows(&b, &kept).data(), "simd={simd}");
        }
    }

    #[test]
    #[should_panic(expected = "not kept")]
    fn column_subset_rejects_a_dropped_column() {
        ragged(6, 6).select_rows(&[0], Some(&ColumnSubset::new(6, |_| false)));
    }

    #[test]
    #[should_panic]
    fn view_bad_indptr_end_panics() {
        let indptr = vec![0u32, 3];
        let indices = vec![0u32, 1];
        SparseView::new(1, 2, &indptr, &indices, None);
    }
}
