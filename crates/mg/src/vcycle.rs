//! The V-cycle preconditioner: one multigrid cycle per CG iteration.
//!
//! `apply` runs one V(1,1) cycle — pre-smooth, restrict the residual,
//! recurse, prolong the correction, post-smooth — charging the machine
//! at every step: smoother and residual compute as per-processor
//! [`Machine::compute_all`] phases, boundary exchange and level
//! transfers as typed `Redistribute` events ([`Machine::exchange`]),
//! and the coarsest solve as a gather / serial-Cholesky / scatter
//! sequence, so unequal coarse block sizes exercise the varying-payload
//! gather pricing. The host solves through the envelope Cholesky
//! factor, bit-identical to the dense `2·n²` solve the simulated clock
//! charges. Every event lands under a
//! `vcycle/level=l/{smooth,residual,restrict,prolong,coarse}` span
//! path; level spans are entered per *phase* (never nested across
//! levels), so `span::level_of` always reads the level the work
//! actually ran on.
//!
//! The cycle is symmetric — SymGS pre- and post-smoothing are adjoint,
//! restriction is exactly `Pᵀ`, coarse operators are Galerkin — so the
//! induced operator `B ≈ A⁻¹` is symmetric positive definite and CG's
//! convergence theory applies unchanged.

use crate::hierarchy::MgHierarchy;
use hpf_core::DistVector;
use hpf_machine::{span, Machine};
use hpf_solvers::DistPreconditioner;

/// A [`DistPreconditioner`] applying one V(1,1)-cycle of the owned
/// hierarchy per call.
pub struct MgPreconditioner {
    h: MgHierarchy,
}

impl MgPreconditioner {
    pub fn new(h: MgHierarchy) -> Self {
        MgPreconditioner { h }
    }

    pub fn hierarchy(&self) -> &MgHierarchy {
        &self.h
    }

    /// `rr = r − A z` at one level, charging the boundary exchange and
    /// the matvec compute.
    fn residual(&self, machine: &mut Machine, level: usize, r: &[f64], z: &[f64]) -> Vec<f64> {
        let lvl = &self.h.levels[level];
        let _s = span::enter("residual");
        machine.exchange(&lvl.halo, "mg-halo");
        machine.compute_all(&lvl.residual_flops, "mg-residual");
        let az = lvl.a.matvec(z).expect("level dims fixed at build");
        r.iter().zip(&az).map(|(ri, ai)| ri - ai).collect()
    }

    fn smooth(&self, machine: &mut Machine, level: usize, r: &[f64]) -> Vec<f64> {
        let lvl = &self.h.levels[level];
        let _s = span::enter("smooth");
        machine.compute_all(&lvl.smooth_flops, "mg-smooth");
        lvl.smoother.apply(&lvl.a, r)
    }

    /// Exact solve at the bottom: funnel the coarse residual to the
    /// root, back-substitute through the prebuilt envelope Cholesky
    /// factor, fan the correction back out.
    fn coarse_solve(&self, machine: &mut Machine, level: usize, r: &[f64]) -> Vec<f64> {
        let _lv = span::enter(format!("level={level}"));
        let _s = span::enter("coarse");
        let lens = self.h.levels[level].desc.local_lens();
        machine.gather_varying(0, &lens, "mg-coarse-gather");
        machine.compute_serial(self.h.coarse.solve_flops(), "mg-coarse-solve");
        let z = self.h.coarse.solve(r);
        machine.scatter_varying(0, &lens, "mg-coarse-scatter");
        z
    }

    fn cycle(&self, machine: &mut Machine, level: usize, r: &[f64]) -> Vec<f64> {
        if level + 1 == self.h.levels.len() {
            return self.coarse_solve(machine, level, r);
        }
        let lvl = &self.h.levels[level];
        let t = lvl
            .down
            .as_ref()
            .expect("non-coarsest level has a transfer");
        let mut z;
        let rc;
        {
            let _lv = span::enter(format!("level={level}"));
            z = self.smooth(machine, level, r);
            let rr = self.residual(machine, level, r, &z);
            rc = {
                let _s = span::enter("restrict");
                machine.exchange(&t.restrict_traffic, "mg-restrict");
                machine.compute_all(&t.restrict_flops, "mg-restrict-apply");
                t.p.matvec_transpose(&rr)
                    .expect("transfer dims fixed at build")
            };
        }
        let zc = self.cycle(machine, level + 1, &rc);
        {
            let _lv = span::enter(format!("level={level}"));
            {
                let _s = span::enter("prolong");
                machine.exchange(&t.prolong_traffic, "mg-prolong");
                machine.compute_all(&t.prolong_flops, "mg-prolong-apply");
                let pz = t.p.matvec(&zc).expect("transfer dims fixed at build");
                for (zi, pi) in z.iter_mut().zip(&pz) {
                    *zi += pi;
                }
            }
            let rr = self.residual(machine, level, r, &z);
            let dz = self.smooth(machine, level, &rr);
            for (zi, di) in z.iter_mut().zip(&dz) {
                *zi += di;
            }
        }
        z
    }
}

impl std::fmt::Debug for MgPreconditioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MgPreconditioner")
            .field("depth", &self.h.depth())
            .field("fine", &self.h.level_dims(0))
            .field("np", &self.h.np())
            .finish()
    }
}

impl DistPreconditioner for MgPreconditioner {
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector {
        let _v = span::enter("vcycle");
        let rg = r.to_global();
        let zg = self.cycle(machine, 0, &rg);
        DistVector::from_global(self.h.levels[0].desc.clone(), &zg)
    }

    fn name(&self) -> &'static str {
        "mg-vcycle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GridDims;
    use hpf_machine::{CostModel, EventKind, Topology};

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn vcycle_matrix(dims: GridDims, levels: usize, np: usize) -> Vec<Vec<f64>> {
        let h = MgHierarchy::build(dims, levels, np).unwrap();
        let n = h.fine_matrix().n_rows();
        let desc = h.levels[0].desc.clone();
        let pre = MgPreconditioner::new(h);
        let mut m = machine(np);
        let mut cols = Vec::with_capacity(n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let r = DistVector::from_global(desc.clone(), &e);
            cols.push(pre.apply(&mut m, &r).to_global());
        }
        cols
    }

    /// The V-cycle operator B is symmetric: eᵢᵀ B eⱼ == eⱼᵀ B eᵢ, and
    /// positive on the diagonal — the contract CG relies on.
    #[test]
    fn vcycle_operator_is_symmetric_positive() {
        let b = vcycle_matrix(GridDims::d2(9, 9), 3, 4);
        let n = b.len();
        for i in 0..n {
            assert!(b[i][i] > 0.0, "B[{i}][{i}] = {} not positive", b[i][i]);
            for j in (i + 1)..n {
                let diff = (b[j][i] - b[i][j]).abs();
                let scale = b[j][i].abs().max(b[i][j].abs()).max(1e-30);
                assert!(diff <= 1e-10 * scale, "B asymmetric at ({i},{j}): {diff}");
            }
        }
    }

    /// One V-cycle is a strong approximate inverse: applying it to A x
    /// for a smooth x recovers most of x (error contraction well below
    /// 1, where a Jacobi application leaves O(1) error).
    #[test]
    fn vcycle_contracts_the_error() {
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        let a = h.fine_matrix().clone();
        let n = a.n_rows();
        let desc = h.levels[0].desc.clone();
        let pre = MgPreconditioner::new(h);
        let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 * 0.21).sin()).collect();
        let b = a.matvec(&x).unwrap();
        let mut m = machine(4);
        let z = pre
            .apply(&mut m, &DistVector::from_global(desc, &b))
            .to_global();
        let err: f64 = z
            .iter()
            .zip(&x)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            err < 0.2 * norm,
            "one V-cycle left {:.1}% of the error",
            100.0 * err / norm
        );
    }

    /// Every machine event of an application lands under a
    /// `vcycle/level=l/...` span, levels are never nested, and the
    /// typed event kinds appear where the design says they should.
    #[test]
    fn vcycle_events_carry_per_level_spans() {
        let h = MgHierarchy::build(GridDims::d2(9, 9), 3, 4).unwrap();
        let desc = h.levels[0].desc.clone();
        let pre = MgPreconditioner::new(h);
        let mut m = machine(4);
        let r = DistVector::constant(desc, 1.0);
        pre.apply(&mut m, &r);
        assert!(!m.trace().is_empty());
        for e in m.trace().events() {
            assert!(e.span.starts_with("vcycle/level="), "span {}", e.span);
            assert_eq!(
                e.span.matches("level=").count(),
                1,
                "nested level spans in {}",
                e.span
            );
        }
        let levels_seen: std::collections::BTreeSet<usize> = m
            .trace()
            .events()
            .iter()
            .filter_map(|e| span::level_of(&e.span))
            .collect();
        assert_eq!(levels_seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Transfers and halos are typed Redistribute events; the coarse
        // solve funnels through gather/scatter.
        for label in ["mg-halo", "mg-restrict", "mg-prolong"] {
            assert!(
                m.trace()
                    .with_label(label)
                    .all(|e| e.kind == EventKind::Redistribute),
                "{label} should be Redistribute"
            );
            assert!(m.trace().with_label(label).count() > 0);
        }
        assert_eq!(m.trace().count(EventKind::Gather), 1);
        assert_eq!(m.trace().count(EventKind::Scatter), 1);
    }

    /// Two applications on the same inputs produce identical events and
    /// identical numbers — the determinism the convergence-CSV test at
    /// the solver level builds on.
    #[test]
    fn vcycle_application_is_deterministic() {
        let run = || {
            let h = MgHierarchy::build(GridDims::d3(7, 7, 7), 2, 4).unwrap();
            let desc = h.levels[0].desc.clone();
            let pre = MgPreconditioner::new(h);
            let mut m = machine(4);
            let n = desc.len();
            let r: Vec<f64> = (0..n).map(|i| ((i * 31 % 101) as f64) / 101.0).collect();
            let z = pre
                .apply(&mut m, &DistVector::from_global(desc, &r))
                .to_global();
            (z, m.trace().to_jsonl())
        };
        let (z1, t1) = run();
        let (z2, t2) = run();
        assert_eq!(t1, t2);
        assert!(z1.iter().zip(&z2).all(|(a, b)| a == b));
    }
}
