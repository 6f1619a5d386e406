//! Two-dimensional `(BLOCK, BLOCK)` matrix distribution — the ablation
//! Section 4's conclusion invites.
//!
//! The paper proves both 1-D stripings cost the same: "it is not
//! possible to reduce the communication time if the matrix is
//! partitioned into regular stripes either in a row-wise or column-wise
//! fashion." The classical escape (Kumar et al., *Introduction to
//! Parallel Computing* — the paper's reference \[17\]) is the 2-D
//! checkerboard: on a `√P x √P` processor grid,
//!
//! * the input vector is allgathered only within each *column group*
//!   (`√P` processors, `n/√P` elements), and
//! * the partial products are reduce-scattered within each *row group*,
//!
//! for a per-matvec communication of `2·t_s·log √P + O(t_c·n/√P)` versus
//! the 1-D `t_s·log P + t_c·n` — asymptotically less of both terms.
//! This module implements the dense checkerboard matvec on the simulated
//! machine so the crossover can be measured (experiment E16).

use crate::vector::DistVector;
use hpf_dist::ArrayDescriptor;
use hpf_machine::{EventKind, Machine};
use hpf_sparse::DenseMatrix;

/// A `√P x √P` processor grid over `P` processors (P must be a perfect
/// square).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid2D {
    pub rows: usize,
    pub cols: usize,
}

impl ProcGrid2D {
    /// Square grid from a perfect-square processor count.
    pub fn square(np: usize) -> Option<Self> {
        let side = (np as f64).sqrt().round() as usize;
        if side * side == np {
            Some(ProcGrid2D {
                rows: side,
                cols: side,
            })
        } else {
            None
        }
    }

    pub fn np(&self) -> usize {
        self.rows * self.cols
    }

    /// Rank of grid position (r, c) — row-major.
    pub fn rank(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols);
        r * self.cols + c
    }

    /// Grid position of a rank.
    pub fn position(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.np());
        (rank / self.cols, rank % self.cols)
    }

    /// Members of grid row `r`.
    pub fn row_group(&self, r: usize) -> Vec<usize> {
        (0..self.cols).map(|c| self.rank(r, c)).collect()
    }

    /// Members of grid column `c`.
    pub fn col_group(&self, c: usize) -> Vec<usize> {
        (0..self.rows).map(|r| self.rank(r, c)).collect()
    }
}

/// Dense matrix distributed `(BLOCK, BLOCK)` on a 2-D grid.
#[derive(Debug, Clone)]
pub struct Checkerboard {
    matrix: DenseMatrix,
    grid: ProcGrid2D,
}

/// Stats of one checkerboard matvec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckerboardStats {
    /// Words each column-group allgather moves (per group).
    pub col_allgather_words: usize,
    /// Words each row-group reduce-scatter moves (per group).
    pub row_reduce_words: usize,
    /// Simulated time of the whole matvec.
    pub time: f64,
}

impl Checkerboard {
    pub fn new(matrix: DenseMatrix, grid: ProcGrid2D) -> Self {
        assert!(matrix.is_square(), "checkerboard matvec needs square A");
        Checkerboard { matrix, grid }
    }

    pub fn grid(&self) -> ProcGrid2D {
        self.grid
    }

    /// `q = A p` with A on the 2-D grid and the vectors block-distributed
    /// over all P processors. Three phases:
    /// 1. column-group allgather of the `n/√P` vector slice each grid
    ///    column needs;
    /// 2. fully parallel local `(n/√P) x (n/√P)` block products;
    /// 3. row-group reduce-scatter of the partial results.
    pub fn matvec(&self, machine: &mut Machine, p: &DistVector) -> (DistVector, CheckerboardStats) {
        let n = self.matrix.n_rows();
        assert_eq!(p.len(), n, "operand length mismatch");
        assert_eq!(machine.np(), self.grid.np(), "machine/grid mismatch");
        let t0 = machine.elapsed();
        let side = self.grid.rows;
        let slice = n.div_ceil(side);

        // Phase 1: allgather p within every grid column.
        for c in 0..self.grid.cols {
            let members = self.grid.col_group(c);
            machine.group_collective(
                &members,
                EventKind::AllGather,
                slice.div_ceil(side),
                "cb-col-allgather",
            );
        }

        // Phase 2: local block products, all P processors in parallel.
        let block_flops = 2 * slice * slice;
        machine.compute_uniform(block_flops, "cb-local-block");

        // Phase 3: reduce-scatter partials within every grid row.
        for r in 0..self.grid.rows {
            let members = self.grid.row_group(r);
            machine.group_collective(
                &members,
                EventKind::Reduce,
                slice.div_ceil(side),
                "cb-row-reduce",
            );
        }

        // Real arithmetic.
        let q_global = self.matrix.matvec(&p.to_global()).expect("square system");
        let q = DistVector::from_global(ArrayDescriptor::block(n, self.grid.np()), &q_global);

        let stats = CheckerboardStats {
            col_allgather_words: slice,
            row_reduce_words: slice,
            time: machine.elapsed() - t0,
        };
        (q, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matvec::dense_rowwise_matvec;
    use hpf_machine::{CostModel, Topology};
    use hpf_sparse::gen;

    #[test]
    fn grid_geometry() {
        let g = ProcGrid2D::square(16).unwrap();
        assert_eq!(g.rows, 4);
        assert_eq!(g.rank(2, 3), 11);
        assert_eq!(g.position(11), (2, 3));
        assert_eq!(g.row_group(1), vec![4, 5, 6, 7]);
        assert_eq!(g.col_group(2), vec![2, 6, 10, 14]);
        assert!(ProcGrid2D::square(12).is_none());
        assert!(ProcGrid2D::square(1).is_some());
    }

    #[test]
    fn checkerboard_matvec_matches_reference() {
        let d = gen::poisson_2d(6, 6).to_dense();
        let np = 9;
        let grid = ProcGrid2D::square(np).unwrap();
        let cb = Checkerboard::new(d.clone(), grid);
        let x: Vec<f64> = (0..36).map(|i| (i % 7) as f64 - 3.0).collect();
        let want = d.matvec(&x).unwrap();
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let p = DistVector::from_global(ArrayDescriptor::block(36, np), &x);
        let (q, stats) = cb.matvec(&mut m, &p);
        for (u, v) in q.to_global().iter().zip(want.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(stats.time > 0.0);
        assert_eq!(m.trace().with_label("cb-col-allgather").count(), 3);
        assert_eq!(m.trace().with_label("cb-row-reduce").count(), 3);
    }

    #[test]
    fn checkerboard_beats_1d_striping_at_scale() {
        // The E16 claim: for large P the 2-D layout's communication is
        // asymptotically cheaper than the 1-D rowwise broadcast.
        let n = 1024;
        let d = DenseMatrix::zeros(n, n); // structure-independent cost
        let np = 64;
        let x = vec![0.0; n];
        let p1 = DistVector::from_global(ArrayDescriptor::block(n, np), &x);
        // Zero-flop model isolates the communication critical path; the
        // machine clocks correctly overlap the disjoint grid groups
        // (while the trace sums per-group event durations).
        let comm_only = CostModel {
            t_flop: 0.0,
            ..CostModel::mpp_1995()
        };

        let mut m1 = Machine::new(np, Topology::Hypercube, comm_only);
        dense_rowwise_matvec(&mut m1, &d, &p1);
        let comm_1d = m1.elapsed();

        let grid = ProcGrid2D::square(np).unwrap();
        let cb = Checkerboard::new(d, grid);
        let mut m2 = Machine::new(np, Topology::Hypercube, comm_only);
        cb.matvec(&mut m2, &p1);
        let comm_2d = m2.elapsed();

        assert!(
            comm_2d < comm_1d,
            "2-D comm {comm_2d} must beat 1-D {comm_1d} at P = {np}"
        );
    }

    #[test]
    fn single_processor_grid_degenerates() {
        let d = gen::poisson_2d(3, 3).to_dense();
        let cb = Checkerboard::new(d.clone(), ProcGrid2D::square(1).unwrap());
        let mut m = Machine::hypercube(1);
        let x = vec![1.0; 9];
        let p = DistVector::from_global(ArrayDescriptor::block(9, 1), &x);
        let (q, _) = cb.matvec(&mut m, &p);
        assert_eq!(q.to_global(), d.matvec(&x).unwrap());
        assert_eq!(m.trace().total_comm_words(), 0);
    }
}
