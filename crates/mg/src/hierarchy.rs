//! Geometric multigrid hierarchy over the Poisson generators.
//!
//! A hierarchy is a chain of level descriptors, finest first. Each level
//! holds the operator at that resolution, the `(BLOCK)` descriptor its
//! vectors live on, and the *precomputed* communication shapes the
//! V-cycle charges to the simulated machine: a per-processor halo
//! traffic matrix for the residual matvec, and per-processor transfer
//! traffic matrices for restriction and prolongation. Coarse operators
//! are the Galerkin products `A_{l+1} = Pᵀ A_l P` of bilinear /
//! trilinear interpolation `P`, so restriction `R = Pᵀ` (full weighting
//! scaled by `2^d`) makes every level exactly symmetric — the property
//! the outer CG needs from its preconditioner. The coarsest operator is
//! factored once at build time by envelope (skyline) Cholesky, which
//! stores each factor row only from its first nonzero column; the
//! simulated clock still charges the dense `2·n²` coarse solve.
//!
//! Grid dims of the form `2^k − 1` per axis coarsen cleanly (every
//! coarse node coincides with a fine node); other sizes work but leave
//! the last fine plane interpolated one-sidedly.

use crate::smoother::BlockSymgs;
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_sparse::CsrMatrix;
use std::fmt;

/// Interior-node grid extents; `nz == 1` means a 2-D (5-point) problem,
/// `nz > 1` a 3-D (7-point) one. The global index map matches the
/// Poisson generators: `(i·ny + j)·nz + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl GridDims {
    /// A 2-D grid (5-point stencil).
    pub fn d2(nx: usize, ny: usize) -> Self {
        GridDims { nx, ny, nz: 1 }
    }

    /// A 3-D grid (7-point stencil).
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Self {
        GridDims { nx, ny, nz }
    }

    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_3d(&self) -> bool {
        self.nz > 1
    }

    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.ny + j) * self.nz + k
    }

    /// The Poisson operator this grid discretises (5-point in 2-D,
    /// 7-point in 3-D) — the matrix [`MgHierarchy::build`] takes as its
    /// finest level.
    pub fn poisson(&self) -> hpf_sparse::CsrMatrix {
        if self.is_3d() {
            hpf_sparse::gen::poisson_3d(self.nx, self.ny, self.nz)
        } else {
            hpf_sparse::gen::poisson_2d(self.nx, self.ny)
        }
    }

    /// Whether a `levels`-deep hierarchy can be built over this grid
    /// (every level above the coarsest must coarsen again). Cheap —
    /// walks the dims only, no operators are formed.
    pub fn supports_levels(&self, levels: usize) -> bool {
        let mut dims = *self;
        for _ in 1..levels {
            match dims.coarsen() {
                Some(c) => dims = c,
                None => return false,
            }
        }
        levels >= 2
    }

    /// Standard vertex-centred coarsening: every active axis drops to
    /// `(d − 1) / 2` (coarse node `I` sits on fine node `2I + 1`).
    /// `None` when an axis of extent 2 cannot halve again, or the grid
    /// is already a single point.
    pub fn coarsen(&self) -> Option<GridDims> {
        if self.n() == 1 {
            return None;
        }
        let c = |d: usize| match d {
            1 => Some(1),
            2 => None,
            d => Some((d - 1) / 2),
        };
        Some(GridDims {
            nx: c(self.nx)?,
            ny: c(self.ny)?,
            nz: c(self.nz)?,
        })
    }
}

impl fmt::Display for GridDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_3d() {
            write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
        } else {
            write!(f, "{}x{}", self.nx, self.ny)
        }
    }
}

/// Why a hierarchy could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgError {
    /// Fewer than two levels is not a hierarchy.
    BadLevels { levels: usize },
    /// A level's grid could not be coarsened again.
    TooCoarse { level: usize, dims: GridDims },
    /// The coarsest operator failed its Cholesky factorisation (cannot
    /// happen for Galerkin-coarsened Poisson; guards future operators).
    NotSpd { level: usize, pivot: usize },
}

impl fmt::Display for MgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgError::BadLevels { levels } => {
                write!(f, "a multigrid hierarchy needs >= 2 levels, got {levels}")
            }
            MgError::TooCoarse { level, dims } => write!(
                f,
                "grid {dims} at level {level} is too coarse to halve again"
            ),
            MgError::NotSpd { level, pivot } => write!(
                f,
                "coarsest operator (level {level}) is not SPD at pivot {pivot}"
            ),
        }
    }
}

impl std::error::Error for MgError {}

/// Inter-level transfer: the interpolation matrix and the communication
/// shapes its two directions induce under `(BLOCK)` ownership.
pub(crate) struct Transfer {
    /// `n_fine × n_coarse` bilinear / trilinear interpolation.
    pub p: CsrMatrix,
    /// `restrict_traffic[p][q]`: words processor `p` sends `q` so `q`
    /// can form its coarse entries of `rc = Pᵀ rr`.
    pub restrict_traffic: Vec<Vec<usize>>,
    /// `prolong_traffic[p][q]`: words `p` sends `q` so `q` can form its
    /// fine entries of `P zc`.
    pub prolong_traffic: Vec<Vec<usize>>,
    pub restrict_flops: Vec<usize>,
    pub prolong_flops: Vec<usize>,
}

/// One level of the hierarchy.
pub(crate) struct Level {
    pub dims: GridDims,
    pub a: CsrMatrix,
    pub desc: ArrayDescriptor,
    /// Boundary-exchange traffic for one matvec at this level.
    pub halo: Vec<Vec<usize>>,
    /// Flops charged per processor for one SymGS sweep pair: `4` per
    /// in-block entry plus `4` per row, the cost the §4 model prices
    /// whatever kernel the host runs.
    pub smooth_flops: Vec<usize>,
    pub residual_flops: Vec<usize>,
    /// The operator's rows pre-split for block SymGS.
    pub smoother: BlockSymgs,
    /// Transfer towards the next-coarser level; `None` on the coarsest.
    pub down: Option<Transfer>,
}

/// Envelope (skyline) Cholesky factor `A = L Lᵀ` of the coarsest
/// operator, solved serially at the V-cycle's bottom.
///
/// Row `i` of `L` stores columns `first[i]..=i`, where `first[i]` is
/// the first stored column of row `i` of `A` at or left of the
/// diagonal: no fill can land left of it, so the dense factor holds an
/// exact `+0.0` there. A transposed copy (column `i` of `L`, rows
/// `i + 1..=last[i]`) lets the backward sweep read ascending `k`
/// contiguously. Every term the envelope skips is an exact `±0`
/// product: in the factor and the forward sweep those come before the
/// first in-envelope term, in the backward sweep after the last. For
/// finite data without negative zeros (Galerkin operators store no
/// zeros; restricted residuals accumulate from `+0.0`) the factor and
/// every solve are therefore bit-identical to the dense factor and its
/// two full triangular sweeps, which is what the simulated clock still
/// charges (see [`EnvelopeCholesky::solve_flops`]).
pub(crate) struct EnvelopeCholesky {
    /// `first[i]`: leftmost stored column of row `i` of `L`.
    first: Vec<usize>,
    /// Row `i` of `L` is `l[row_start[i]..row_start[i + 1]]`, diagonal
    /// last.
    row_start: Vec<usize>,
    l: Vec<f64>,
    /// Column `i` of `L` below the diagonal is
    /// `lt[col_start[i]..col_start[i + 1]]`, rows `i + 1` upwards.
    col_start: Vec<usize>,
    lt: Vec<f64>,
}

impl EnvelopeCholesky {
    pub(crate) fn factor(a: &CsrMatrix, level: usize) -> Result<Self, MgError> {
        let n = a.n_rows();
        let first: Vec<usize> = (0..n)
            .map(|i| {
                a.row(i)
                    .map(|(j, _)| j)
                    .filter(|&j| j <= i)
                    .min()
                    .unwrap_or(i)
            })
            .collect();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0);
        for i in 0..n {
            row_start.push(row_start[i] + i + 1 - first[i]);
        }
        // Load the lower triangle, then factor in place: entry (i, j)
        // is read as A's before it is overwritten by L's.
        let mut l = vec![0.0f64; row_start[n]];
        for i in 0..n {
            for (j, v) in a.row(i).filter(|&(j, _)| j <= i) {
                l[row_start[i] + j - first[i]] = v;
            }
        }
        for i in 0..n {
            let (fi, ri) = (first[i], row_start[i]);
            for j in fi..=i {
                let (fj, rj) = (first[j], row_start[j]);
                let k0 = fi.max(fj);
                let mut s = l[ri + j - fi];
                for (lik, ljk) in l[ri + k0 - fi..ri + j - fi]
                    .iter()
                    .zip(&l[rj + k0 - fj..rj + j - fj])
                {
                    s -= lik * ljk;
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(MgError::NotSpd { level, pivot: i });
                    }
                    l[ri + i - fi] = s.sqrt();
                } else {
                    l[ri + j - fi] = s / l[rj + j - fj];
                }
            }
        }
        // Column envelope: column j reaches down to the last row whose
        // envelope starts at or left of j.
        let mut last: Vec<usize> = (0..n).collect();
        for k in 0..n {
            for lj in &mut last[first[k]..k] {
                *lj = k;
            }
        }
        let mut col_start = Vec::with_capacity(n + 1);
        col_start.push(0);
        for j in 0..n {
            col_start.push(col_start[j] + last[j] - j);
        }
        let mut lt = vec![0.0f64; col_start[n]];
        for k in 0..n {
            for j in first[k]..k {
                lt[col_start[j] + k - j - 1] = l[row_start[k] + j - first[k]];
            }
        }
        Ok(EnvelopeCholesky {
            first,
            row_start,
            l,
            col_start,
            lt,
        })
    }

    fn n(&self) -> usize {
        self.first.len()
    }

    fn diag(&self, i: usize) -> f64 {
        self.l[self.row_start[i + 1] - 1]
    }

    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n();
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            let fi = self.first[i];
            let mut s = b[i];
            for (lik, yk) in self.l[self.row_start[i]..self.row_start[i + 1] - 1]
                .iter()
                .zip(&y[fi..i])
            {
                s -= lik * yk;
            }
            y[i] = s / self.diag(i);
        }
        for i in (0..n).rev() {
            let mut s = y[i];
            for (lki, yk) in self.lt[self.col_start[i]..self.col_start[i + 1]]
                .iter()
                .zip(&y[i + 1..])
            {
                s -= lki * yk;
            }
            y[i] = s / self.diag(i);
        }
        y
    }

    /// Flops the simulated clock charges for one solve: `2·n²`, two
    /// dense triangular sweeps. The §4 cost model prices the paper's
    /// dense coarse solve; the host runs the envelope sweeps instead,
    /// which give the same bits.
    pub fn solve_flops(&self) -> usize {
        2 * self.n() * self.n()
    }
}

/// A built multigrid hierarchy: level operators, descriptors,
/// communication shapes, and the factored coarsest solve.
pub struct MgHierarchy {
    pub(crate) levels: Vec<Level>,
    pub(crate) coarse: EnvelopeCholesky,
    np: usize,
}

impl MgHierarchy {
    /// Build a `levels`-deep hierarchy over the Poisson problem on
    /// `dims`, distributed `(BLOCK)` across `np` processors.
    pub fn build(dims: GridDims, levels: usize, np: usize) -> Result<Self, MgError> {
        if levels < 2 {
            return Err(MgError::BadLevels { levels });
        }
        let mut mats = vec![dims.poisson()];
        let mut all_dims = vec![dims];
        let mut interps: Vec<CsrMatrix> = Vec::new();
        for l in 0..levels - 1 {
            let f = all_dims[l];
            let c = f
                .coarsen()
                .ok_or(MgError::TooCoarse { level: l, dims: f })?;
            let p = interpolation(f, c);
            let a_c = galerkin(&mats[l], &p);
            interps.push(p);
            mats.push(a_c);
            all_dims.push(c);
        }
        let coarse = EnvelopeCholesky::factor(&mats[levels - 1], levels - 1)?;

        let descs: Vec<ArrayDescriptor> = mats
            .iter()
            .map(|a| ArrayDescriptor::block(a.n_rows(), np))
            .collect();
        let mut interps = interps.into_iter();
        let mut built: Vec<Level> = Vec::with_capacity(levels);
        for (l, (a, dims)) in mats.into_iter().zip(all_dims).enumerate() {
            let desc = descs[l].clone();
            let down = interps.next().map(|p| transfer(p, &desc, &descs[l + 1]));
            let halo = halo_traffic(&a, &desc);
            let (smooth_flops, residual_flops) = level_flops(&a, &desc);
            let smoother = BlockSymgs::new(&a, &desc);
            built.push(Level {
                dims,
                a,
                desc,
                halo,
                smooth_flops,
                residual_flops,
                smoother,
                down,
            });
        }
        Ok(MgHierarchy {
            levels: built,
            coarse,
            np,
        })
    }

    /// Number of levels (finest = 0).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    pub fn np(&self) -> usize {
        self.np
    }

    /// Grid extents at one level.
    pub fn level_dims(&self, level: usize) -> GridDims {
        self.levels[level].dims
    }

    /// The finest-level operator matrix.
    pub fn fine_matrix(&self) -> &CsrMatrix {
        &self.levels[0].a
    }

    /// A rowwise `(BLOCK, *)` distributed operator over the finest
    /// level, ready for the `pcg_*` entry points.
    pub fn fine_operator(&self) -> RowwiseCsr {
        RowwiseCsr::block(
            self.levels[0].a.clone(),
            self.np,
            DataArrayLayout::RowAligned,
        )
    }

    /// Total stored nonzeros across all level operators.
    pub fn total_nnz(&self) -> usize {
        self.levels.iter().map(|l| l.a.nnz()).sum()
    }
}

/// 1-D interpolation weights for fine node `i`: coincident coarse nodes
/// (fine position `2I + 1`) carry weight 1, in-between fine nodes
/// average their two coarse neighbours (a missing neighbour is the
/// homogeneous Dirichlet boundary).
fn weights_1d(i: usize, nf: usize, nc: usize) -> Vec<(usize, f64)> {
    if nf == 1 {
        return vec![(0, 1.0)];
    }
    if i % 2 == 1 {
        let ii = (i - 1) / 2;
        return if ii < nc { vec![(ii, 1.0)] } else { Vec::new() };
    }
    let mut w = Vec::with_capacity(2);
    let k = i / 2;
    if k >= 1 {
        w.push((k - 1, 0.5));
    }
    if k < nc {
        w.push((k, 0.5));
    }
    w
}

/// Bilinear (2-D) / trilinear (3-D) interpolation `P: coarse → fine` as
/// the tensor product of the 1-D weights. Rows come out in fine-index
/// order and each row's coarse columns ascending, so the CSR arrays are
/// written directly.
fn interpolation(fine: GridDims, coarse: GridDims) -> CsrMatrix {
    let mut row_ptr = Vec::with_capacity(fine.n() + 1);
    row_ptr.push(0);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..fine.nx {
        let wx = weights_1d(i, fine.nx, coarse.nx);
        for j in 0..fine.ny {
            let wy = weights_1d(j, fine.ny, coarse.ny);
            for k in 0..fine.nz {
                let wz = weights_1d(k, fine.nz, coarse.nz);
                for &(ix, vx) in &wx {
                    for &(jy, vy) in &wy {
                        for &(kz, vz) in &wz {
                            cols.push(coarse.index(ix, jy, kz));
                            vals.push(vx * vy * vz);
                        }
                    }
                }
                row_ptr.push(cols.len());
            }
        }
    }
    CsrMatrix::from_raw(fine.n(), coarse.n(), row_ptr, cols, vals)
        .expect("indices in range by construction")
}

/// Row-by-row sparse accumulator: a dense value row, a marker array
/// and the list of touched columns, sorted on flush.
struct SparseAccumulator {
    vals: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
}

impl SparseAccumulator {
    fn new(n: usize) -> Self {
        SparseAccumulator {
            vals: vec![0.0; n],
            seen: vec![false; n],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, j: usize, v: f64) {
        if !self.seen[j] {
            self.seen[j] = true;
            self.touched.push(j);
        }
        self.vals[j] += v;
    }

    /// Append the accumulated row's nonzeros in column order and reset
    /// for the next row.
    fn flush(&mut self, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        self.touched.sort_unstable();
        for &j in &self.touched {
            let v = std::mem::take(&mut self.vals[j]);
            self.seen[j] = false;
            if v != 0.0 {
                cols.push(j);
                vals.push(v);
            }
        }
        self.touched.clear();
    }
}

/// Galerkin triple product `Pᵀ A P`, deterministic. `B = A P` is
/// formed row by row, then `C = Pᵀ B` row by row through the rows of
/// `Pᵀ`, so every entry `C[I, J]` sums its terms over the fine rows `i`
/// in ascending order, each `B[i, J]` in the storage order of `A`'s row
/// `i`. Entries that cancel to exactly zero are not stored: an
/// accumulator starts at `+0.0`, so adding the `±0` terms a stored zero
/// of `B` would contribute never changes an entry of `C`.
fn galerkin(a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
    let nc = p.n_cols();
    // Transposed first, so its COO scratch is gone before B exists.
    let pt = p.transpose();
    let mut spa = SparseAccumulator::new(nc);
    let (mut b_ptr, mut b_col, mut b_val) = (vec![0usize], Vec::new(), Vec::new());
    for i in 0..a.n_rows() {
        for (j, aij) in a.row(i) {
            for (jj, pj) in p.row(j) {
                spa.add(jj, aij * pj);
            }
        }
        spa.flush(&mut b_col, &mut b_val);
        b_ptr.push(b_col.len());
    }
    let (mut c_ptr, mut c_col, mut c_val) = (vec![0usize], Vec::new(), Vec::new());
    for ii in 0..nc {
        for (i, pi) in pt.row(ii) {
            for k in b_ptr[i]..b_ptr[i + 1] {
                spa.add(b_col[k], pi * b_val[k]);
            }
        }
        spa.flush(&mut c_col, &mut c_val);
        c_ptr.push(c_col.len());
    }
    CsrMatrix::from_raw(nc, nc, c_ptr, c_col, c_val).expect("accumulated rows are well formed")
}

fn proc_rows(desc: &ArrayDescriptor, p: usize) -> std::ops::Range<usize> {
    desc.contiguous_range(p).unwrap_or(0..0)
}

/// Words each processor must send each other so every processor holds
/// the off-block vector entries its rows of `a` reference — the
/// boundary exchange one matvec at this level costs.
fn halo_traffic(a: &CsrMatrix, desc: &ArrayDescriptor) -> Vec<Vec<usize>> {
    let np = desc.np();
    let n = a.n_rows();
    let mut t = vec![vec![0usize; np]; np];
    for q in 0..np {
        let mut seen = vec![false; n];
        for i in proc_rows(desc, q) {
            for (j, _) in a.row(i) {
                let p = desc.owner(j);
                if p != q && !seen[j] {
                    seen[j] = true;
                    t[p][q] += 1;
                }
            }
        }
    }
    t
}

/// Per-processor flop counts for one SymGS sweep pair and one residual
/// evaluation at this level.
fn level_flops(a: &CsrMatrix, desc: &ArrayDescriptor) -> (Vec<usize>, Vec<usize>) {
    let np = desc.np();
    let mut smooth = vec![0usize; np];
    let mut residual = vec![0usize; np];
    for q in 0..np {
        let range = proc_rows(desc, q);
        let (lo, hi) = (range.start, range.end);
        for i in lo..hi {
            let mut in_block = 0usize;
            let mut row_nnz = 0usize;
            for (j, _) in a.row(i) {
                row_nnz += 1;
                if j >= lo && j < hi {
                    in_block += 1;
                }
            }
            // Forward + backward sweep over the block entries, plus the
            // diagonal divides and the D·y scaling.
            smooth[q] += 4 * in_block + 4;
            residual[q] += 2 * row_nnz + 1;
        }
    }
    (smooth, residual)
}

/// Communication shapes and flop counts for one interpolation matrix
/// under `(BLOCK)` ownership on both sides.
fn transfer(p: CsrMatrix, fdesc: &ArrayDescriptor, cdesc: &ArrayDescriptor) -> Transfer {
    let np = fdesc.np();
    let nf = p.n_rows();
    let mut restrict_traffic = vec![vec![0usize; np]; np];
    let mut prolong_traffic = vec![vec![0usize; np]; np];
    let mut restrict_flops = vec![0usize; np];
    let mut prolong_flops = vec![0usize; np];
    // Restriction rc = Pᵀ rr: the owner of coarse entry I consumes fine
    // entries i with P[i,I] ≠ 0; each off-processor fine entry moves
    // once per destination.
    for i in 0..nf {
        let pf = fdesc.owner(i);
        let mut dests: Vec<usize> = Vec::new();
        for (ii, _) in p.row(i) {
            let qc = cdesc.owner(ii);
            restrict_flops[qc] += 2;
            prolong_flops[pf] += 2;
            if qc != pf && !dests.contains(&qc) {
                dests.push(qc);
            }
        }
        for &q in &dests {
            restrict_traffic[pf][q] += 1;
        }
    }
    // Prolongation z += P zc: the owner of fine entry i consumes the
    // coarse entries its interpolation row references.
    for q in 0..np {
        let mut seen = vec![false; p.n_cols()];
        for i in proc_rows(fdesc, q) {
            for (ii, _) in p.row(i) {
                let pc = cdesc.owner(ii);
                if pc != q && !seen[ii] {
                    seen[ii] = true;
                    prolong_traffic[pc][q] += 1;
                }
            }
        }
    }
    Transfer {
        p,
        restrict_traffic,
        prolong_traffic,
        restrict_flops,
        prolong_flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::{gen, CooMatrix};

    #[test]
    fn coarsening_halves_pow2_minus_1_dims_exactly() {
        let d = GridDims::d2(15, 15);
        assert_eq!(d.coarsen(), Some(GridDims::d2(7, 7)));
        assert_eq!(GridDims::d3(7, 7, 7).coarsen(), Some(GridDims::d3(3, 3, 3)));
        assert_eq!(GridDims::d2(2, 15).coarsen(), None);
        // The z = 1 axis of a 2-D problem stays inactive.
        assert_eq!(GridDims::d2(15, 15).coarsen().unwrap().nz, 1);
    }

    #[test]
    fn hierarchy_build_validates_inputs() {
        assert!(matches!(
            MgHierarchy::build(GridDims::d2(15, 15), 1, 4),
            Err(MgError::BadLevels { levels: 1 })
        ));
        assert!(matches!(
            MgHierarchy::build(GridDims::d2(7, 7), 4, 4),
            Err(MgError::TooCoarse { level: 2, .. })
        ));
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        assert_eq!(h.depth(), 3);
        assert_eq!(h.level_dims(2), GridDims::d2(3, 3));
        assert_eq!(h.fine_matrix().n_rows(), 225);
    }

    #[test]
    fn galerkin_coarse_operators_stay_symmetric_spd() {
        for (dims, levels) in [(GridDims::d2(15, 15), 3), (GridDims::d3(7, 7, 7), 2)] {
            let h = MgHierarchy::build(dims, levels, 4).unwrap();
            for l in 0..h.depth() {
                let a = &h.levels[l].a;
                assert!(a.is_symmetric(1e-12), "level {l} not symmetric");
                for (i, d) in a.diagonal().iter().enumerate() {
                    assert!(*d > 0.0, "level {l} diagonal {i} not positive");
                }
            }
        }
    }

    #[test]
    fn interpolation_rows_partition_unity_away_from_boundary() {
        // Interior fine nodes interpolate with weights summing to 1;
        // boundary-adjacent rows lose weight to the Dirichlet boundary.
        let f = GridDims::d2(7, 7);
        let c = f.coarsen().unwrap();
        let p = interpolation(f, c);
        let row = f.index(3, 3, 0); // coincident with coarse (1,1)
        let entries: Vec<_> = p.row(row).collect();
        assert_eq!(entries, vec![(c.index(1, 1, 0), 1.0)]);
        let mid = f.index(2, 3, 0); // between two coarse nodes in x
        let s: f64 = p.row(mid).map(|(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    /// The directly written CSR is column-sorted without duplicates:
    /// re-sorting it through COO changes nothing, also on grids that
    /// leave the last fine plane interpolated one-sidedly.
    #[test]
    fn interpolation_is_written_in_csr_order() {
        for f in [
            GridDims::d2(15, 15),
            GridDims::d2(8, 10),
            GridDims::d3(6, 7, 9),
        ] {
            let p = interpolation(f, f.coarsen().unwrap());
            assert_eq!(p, CsrMatrix::from_coo(&p.to_coo()), "{f}");
        }
    }

    #[test]
    fn halo_traffic_is_symmetric_for_symmetric_operators() {
        let h = MgHierarchy::build(GridDims::d2(15, 15), 2, 4).unwrap();
        let t = &h.levels[0].halo;
        for p in 0..4 {
            for q in 0..4 {
                assert_eq!(t[p][q], t[q][p], "halo asymmetric at ({p},{q})");
            }
            assert_eq!(t[p][p], 0);
        }
        // A (BLOCK) split of a 15x15 5-point grid exchanges whole
        // boundary rows between neighbours.
        assert!(t[0][1] > 0);
    }

    #[test]
    fn cholesky_solves_the_coarsest_operator() {
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        let a = &h.levels[2].a;
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = h.coarse.solve(&b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
        assert_eq!(h.coarse.solve_flops(), 2 * n * n);
    }

    /// The coarse factor as first written: dense, row-major, every
    /// column of every row. The envelope factor must reproduce it bit
    /// for bit.
    struct DenseCholesky {
        n: usize,
        l: Vec<f64>,
    }

    impl DenseCholesky {
        fn factor(a: &CsrMatrix, level: usize) -> Result<Self, MgError> {
            let n = a.n_rows();
            let mut m = vec![0.0f64; n * n];
            for i in 0..n {
                for (j, v) in a.row(i) {
                    m[i * n + j] = v;
                }
            }
            let mut l = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let mut s = m[i * n + j];
                    for k in 0..j {
                        s -= l[i * n + k] * l[j * n + k];
                    }
                    if i == j {
                        if s <= 0.0 {
                            return Err(MgError::NotSpd { level, pivot: i });
                        }
                        l[i * n + i] = s.sqrt();
                    } else {
                        l[i * n + j] = s / l[j * n + j];
                    }
                }
            }
            Ok(DenseCholesky { n, l })
        }

        fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.n;
            let mut y = vec![0.0f64; n];
            for i in 0..n {
                let mut s = b[i];
                for k in 0..i {
                    s -= self.l[i * n + k] * y[k];
                }
                y[i] = s / self.l[i * n + i];
            }
            for i in (0..n).rev() {
                let mut s = y[i];
                for k in (i + 1)..n {
                    s -= self.l[k * n + i] * y[k];
                }
                y[i] = s / self.l[i * n + i];
            }
            y
        }
    }

    impl EnvelopeCholesky {
        /// `L` expanded to dense row-major, `+0.0` outside the envelope.
        fn to_dense(&self) -> Vec<f64> {
            let n = self.n();
            let mut d = vec![0.0f64; n * n];
            for i in 0..n {
                let row = &self.l[self.row_start[i]..self.row_start[i + 1]];
                d[i * n + self.first[i]..=i * n + i].copy_from_slice(row);
            }
            d
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The Galerkin product as first written: `BTreeMap` accumulators
    /// for `B = A P`, then a scatter of `Pᵀ B` into per-row maps.
    fn btree_galerkin(a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
        use std::collections::BTreeMap;
        let nc = p.n_cols();
        let mut b: Vec<Vec<(usize, f64)>> = Vec::new();
        for i in 0..a.n_rows() {
            let mut acc: BTreeMap<usize, f64> = BTreeMap::new();
            for (j, aij) in a.row(i) {
                for (jj, pj) in p.row(j) {
                    *acc.entry(jj).or_insert(0.0) += aij * pj;
                }
            }
            b.push(acc.into_iter().collect());
        }
        let mut c: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); nc];
        for (i, bi) in b.iter().enumerate() {
            for (ii, pi) in p.row(i) {
                for &(jj, v) in bi {
                    *c[ii].entry(jj).or_insert(0.0) += pi * v;
                }
            }
        }
        let mut coo = CooMatrix::new(nc, nc);
        for (i, row) in c.iter().enumerate() {
            for (&j, &v) in row {
                if v != 0.0 {
                    coo.push(i, j, v).unwrap();
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The sparse-accumulator product stores the same entries with the
    /// same bits as the map-based one, on 2-D and 3-D levels. Poisson
    /// values and interpolation weights are dyadic, so their Galerkin
    /// sums are exact in any order and hold exact zeros in `B = A P`;
    /// perturbed values make every rounding, and so the term order,
    /// show.
    #[test]
    fn galerkin_matches_the_map_based_product_bit_for_bit() {
        for dims in [GridDims::d2(31, 31), GridDims::d3(15, 15, 15)] {
            let fine = dims.poisson();
            let vals = (0..fine.n_rows())
                .flat_map(|i| fine.row(i).map(move |(j, v)| (i, j, v)))
                .map(|(i, j, v)| v * (1.0 + ((i * 31 + j * 17) % 97) as f64 / 323.0))
                .collect();
            let n = fine.n_rows();
            let (ptr, cols) = (fine.row_ptr().to_vec(), fine.col_idx().to_vec());
            let perturbed = CsrMatrix::from_raw(n, n, ptr, cols, vals).unwrap();
            for mut a in [fine, perturbed] {
                let mut f = dims;
                for _ in 0..2 {
                    let c = f.coarsen().unwrap();
                    let p = interpolation(f, c);
                    let fast = galerkin(&a, &p);
                    let slow = btree_galerkin(&a, &p);
                    assert_eq!(fast.row_ptr(), slow.row_ptr(), "{f}");
                    assert_eq!(fast.col_idx(), slow.col_idx(), "{f}");
                    assert_eq!(bits(fast.values()), bits(slow.values()), "{f}");
                    (a, f) = (fast, c);
                }
            }
        }
    }

    /// Envelope factor and solve equal the dense ones bit for bit on
    /// 2-D and 3-D Galerkin coarse operators, and the transposed copy
    /// holds exactly the columns of `L`.
    #[test]
    fn envelope_cholesky_matches_dense_bit_for_bit() {
        for (dims, levels) in [
            (GridDims::d2(31, 31), 3),
            (GridDims::d3(15, 15, 15), 2),
            (GridDims::d3(15, 15, 15), 3),
        ] {
            let h = MgHierarchy::build(dims, levels, 4).unwrap();
            let a = &h.levels[levels - 1].a;
            let n = a.n_rows();
            let dense = DenseCholesky::factor(a, levels - 1).unwrap();
            let env = EnvelopeCholesky::factor(a, levels - 1).unwrap();
            assert_eq!(bits(&env.to_dense()), bits(&dense.l), "{dims} factor");
            assert!(env.l.len() < n * n, "{dims}: envelope is the full square");
            for j in 0..n {
                let col = &env.lt[env.col_start[j]..env.col_start[j + 1]];
                for (k, v) in (j + 1..).zip(col) {
                    assert_eq!(v.to_bits(), dense.l[k * n + j].to_bits());
                }
            }
            for seed in 0..5u32 {
                let b: Vec<f64> = (0..n)
                    .map(|i| ((i as f64 + 1.0) * (0.37 + f64::from(seed))).sin())
                    .collect();
                assert_eq!(
                    bits(&env.solve(&b)),
                    bits(&dense.solve(&b)),
                    "{dims} rhs {seed}"
                );
            }
        }
    }

    /// On an indefinite matrix both factors give up at the same pivot.
    #[test]
    fn envelope_cholesky_reports_the_dense_pivot() {
        let mut coo = gen::poisson_2d(6, 6).to_coo();
        for i in 0..36 {
            coo.push(i, i, -1.5).unwrap();
        }
        let a = CsrMatrix::from_coo(&coo);
        let dense = DenseCholesky::factor(&a, 1).err().unwrap();
        let env = EnvelopeCholesky::factor(&a, 1).err().unwrap();
        assert!(matches!(dense, MgError::NotSpd { level: 1, pivot } if pivot > 0));
        assert_eq!(env, dense);
    }
}
