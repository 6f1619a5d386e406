//! Block symmetric Gauss-Seidel smoothing.
//!
//! Each processor sweeps its own `(BLOCK)` diagonal block — forward
//! `(D + L) y = r`, then backward `(D + U) z = D y` — using only
//! in-block couplings, so one application is pure local compute: the
//! paper's alignment discipline again, applied to the smoother. The
//! induced operator `M = (D + L) D⁻¹ (D + U)` restricted blockwise is
//! symmetric positive definite whenever `A` is, which is what keeps the
//! V-cycle a legal CG preconditioner. Couplings that cross the block
//! boundary are deferred to the residual evaluation, whose halo
//! exchange *is* priced (label `mg-halo`).

use hpf_dist::ArrayDescriptor;
use hpf_sparse::CsrMatrix;

/// Storage positions of one row's in-block parts: the lower part is
/// `lower..diag`, the diagonal sits at `diag`, the upper part is
/// `diag + 1..upper`.
#[derive(Clone, Copy)]
struct SplitRow {
    lower: usize,
    diag: usize,
    upper: usize,
}

/// Block SymGS over one level operator, its rows pre-split at build
/// time. CSR rows are column-sorted, so each row's in-block lower and
/// upper couplings are contiguous slices of its storage; the sweeps
/// loop over those slices in storage order without testing a column.
pub(crate) struct BlockSymgs {
    rows: Vec<SplitRow>,
    blocks: Vec<std::ops::Range<usize>>,
}

impl BlockSymgs {
    /// Split every row of `a` at its `(BLOCK)` owner's block bounds.
    /// Panics when a row is not column-sorted or stores no diagonal.
    pub(crate) fn new(a: &CsrMatrix, desc: &ArrayDescriptor) -> Self {
        let (ptr, cols) = (a.row_ptr(), a.col_idx());
        let blocks: Vec<_> = (0..desc.np())
            .map(|q| desc.contiguous_range(q).unwrap_or(0..0))
            .collect();
        let mut rows = Vec::with_capacity(a.n_rows());
        for b in &blocks {
            for i in b.clone() {
                let row = &cols[ptr[i]..ptr[i + 1]];
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "row {i} is not column-sorted"
                );
                let at = |c: usize| ptr[i] + row.partition_point(|&j| j < c);
                let diag = at(i);
                assert!(cols.get(diag) == Some(&i), "row {i} stores no diagonal");
                rows.push(SplitRow {
                    lower: at(b.start),
                    diag,
                    upper: at(b.end),
                });
            }
        }
        debug_assert_eq!(rows.len(), a.n_rows(), "(BLOCK) ranges cover every row");
        BlockSymgs { rows, blocks }
    }

    /// One symmetric Gauss-Seidel sweep pair over every processor's
    /// diagonal block of `a` (the matrix this split was built from):
    /// returns `z ≈ M⁻¹ r`.
    pub(crate) fn apply(&self, a: &CsrMatrix, r: &[f64]) -> Vec<f64> {
        let (cols, vals) = (a.col_idx(), a.values());
        let n = a.n_rows();
        let mut y = vec![0.0f64; n];
        let mut z = vec![0.0f64; n];
        for b in &self.blocks {
            // Forward: (D + L) y = r over the block.
            for i in b.clone() {
                let SplitRow { lower, diag, .. } = self.rows[i];
                let mut s = r[i];
                for (v, &j) in vals[lower..diag].iter().zip(&cols[lower..diag]) {
                    s -= v * y[j];
                }
                y[i] = s / vals[diag];
            }
            // Backward: (D + U) z = D y over the block.
            for i in b.clone().rev() {
                let SplitRow { diag, upper, .. } = self.rows[i];
                let mut s = 0.0;
                for (v, &j) in vals[diag + 1..upper].iter().zip(&cols[diag + 1..upper]) {
                    s -= v * z[j];
                }
                let d = vals[diag];
                z[i] = (d * y[i] + s) / d;
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridDims, MgHierarchy};
    use hpf_sparse::gen;

    fn symgs(a: &CsrMatrix, desc: &ArrayDescriptor, r: &[f64]) -> Vec<f64> {
        BlockSymgs::new(a, desc).apply(a, r)
    }

    /// The sweep pair as first written: every stored entry tests its
    /// column to find the in-block lower and upper parts. The split
    /// kernel must reproduce it bit for bit.
    fn branchy_symgs(a: &CsrMatrix, desc: &ArrayDescriptor, r: &[f64]) -> Vec<f64> {
        let n = a.n_rows();
        let mut y = vec![0.0f64; n];
        let mut z = vec![0.0f64; n];
        for q in 0..desc.np() {
            let range = desc.contiguous_range(q).unwrap_or(0..0);
            let (lo, hi) = (range.start, range.end);
            for i in lo..hi {
                let mut s = r[i];
                let mut d = 0.0;
                for (j, v) in a.row(i) {
                    if j == i {
                        d = v;
                    } else if j >= lo && j < i {
                        s -= v * y[j];
                    }
                }
                y[i] = s / d;
            }
            for i in (lo..hi).rev() {
                let mut s = 0.0;
                let mut d = 0.0;
                for (j, v) in a.row(i) {
                    if j == i {
                        d = v;
                    } else if j > i && j < hi {
                        s -= v * z[j];
                    }
                }
                z[i] = (d * y[i] + s) / d;
            }
        }
        z
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Split SymGS equals the branchy sweeps bit for bit on 5-, 7- and
    /// 27-point level operators, at NP = 1, 3 and 8. At NP > 1 every
    /// block cut falls inside the stencil of the rows beside it, so
    /// their couplings straddle a block bound.
    #[test]
    fn split_symgs_matches_branchy_sweeps_bit_for_bit() {
        for np in [1, 3, 8] {
            for (dims, levels) in [(GridDims::d2(15, 15), 2), (GridDims::d3(15, 15, 15), 3)] {
                let h = MgHierarchy::build(dims, levels, np).unwrap();
                for lvl in &h.levels {
                    let (a, desc) = (&lvl.a, &lvl.desc);
                    let n = a.n_rows();
                    if np > 1 {
                        let cut = desc.contiguous_range(0).unwrap().end;
                        assert!(a.row(cut - 1).any(|(j, _)| j >= cut));
                    }
                    let r: Vec<f64> = (0..n)
                        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0)
                        .collect();
                    assert_eq!(
                        bits(&lvl.smoother.apply(a, &r)),
                        bits(&branchy_symgs(a, desc, &r)),
                        "{dims} np={np} n={n}"
                    );
                }
            }
        }
    }

    /// On one processor the block is the whole matrix, so SymGS must
    /// satisfy M z = r with M = (D+L) D⁻¹ (D+U) exactly.
    #[test]
    fn single_block_symgs_inverts_the_symgs_matrix() {
        let a = gen::poisson_2d(5, 5);
        let n = a.n_rows();
        let desc = ArrayDescriptor::block(n, 1);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
        let z = symgs(&a, &desc, &r);
        // Rebuild M z by hand: u = (D+U) z, then M z = (D+L) D⁻¹ u.
        let d: Vec<f64> = a.diagonal();
        let mut u = vec![0.0; n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j >= i {
                    u[i] += v * z[j];
                }
            }
        }
        for i in 0..n {
            let mut s = d[i] * (u[i] / d[i]);
            for (j, v) in a.row(i) {
                if j < i {
                    s += v * (u[j] / d[j]);
                }
            }
            assert!((s - r[i]).abs() < 1e-12, "row {i}: {s} vs {}", r[i]);
        }
    }

    /// The blockwise smoother is symmetric: rᵀ S r' == r'ᵀ S r.
    #[test]
    fn block_symgs_is_a_symmetric_operator() {
        let a = gen::poisson_2d(6, 6);
        let n = a.n_rows();
        let desc = ArrayDescriptor::block(n, 3);
        let r1: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let r2: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
        let s1 = symgs(&a, &desc, &r1);
        let s2 = symgs(&a, &desc, &r2);
        let d1: f64 = r2.iter().zip(&s1).map(|(a, b)| a * b).sum();
        let d2: f64 = r1.iter().zip(&s2).map(|(a, b)| a * b).sum();
        assert!((d1 - d2).abs() < 1e-10 * d1.abs().max(1.0));
    }
}
