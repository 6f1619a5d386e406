//! Timing wrappers: the benchmark's own `DistOperator` and
//! `DistPreconditioner`, which open a span around each call and
//! otherwise delegate unchanged, so the traced solve runs the same
//! program as the untraced one.

use crate::spans::Recorder;
use hpf_core::DistVector;
use hpf_machine::Machine;
use hpf_solvers::{DistOperator, DistPreconditioner};

pub struct TimedOp<'a, A: ?Sized> {
    pub inner: &'a A,
    pub rec: &'a Recorder,
}

impl<A: DistOperator + ?Sized> DistOperator for TimedOp<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        let _s = self.rec.span("matvec");
        self.inner.apply(machine, p)
    }
    fn apply_transpose(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        let _s = self.rec.span("matvec_t");
        self.inner.apply_transpose(machine, p)
    }
    fn descriptor(&self) -> hpf_dist::ArrayDescriptor {
        self.inner.descriptor()
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }
}

pub struct TimedPrec<'a, M: ?Sized> {
    pub inner: &'a M,
    pub rec: &'a Recorder,
}

impl<M: DistPreconditioner + ?Sized> DistPreconditioner for TimedPrec<'_, M> {
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector {
        let _s = self.rec.span("precond");
        self.inner.apply(machine, r)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{machine, spans::totals, stop};
    use hpf_core::{DataArrayLayout, RowwiseCsr};
    use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
    use hpf_solvers::{cg_distributed, pcg_preconditioned_distributed};

    fn bits(v: &DistVector) -> Vec<u64> {
        v.to_global().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn wrapped_operator_and_preconditioner_return_identical_vectors() {
        let h = MgHierarchy::build(GridDims::d2(16, 16), 2, 4).unwrap();
        let pre = MgPreconditioner::new(h);
        let op = pre.hierarchy().fine_operator();
        let rec = Recorder::new();
        let p = DistVector::from_global(op.descriptor(), &crate::rng::Rng::new(5, 0).vector(256));
        let (mut m1, mut m2) = (machine(4, true), machine(4, true));
        let plain = op.apply(&mut m1, &p);
        let wrapped = TimedOp {
            inner: &op,
            rec: &rec,
        }
        .apply(&mut m2, &p);
        assert_eq!(bits(&plain), bits(&wrapped));
        let plain = op.apply_transpose(&mut m1, &p);
        let wrapped = TimedOp {
            inner: &op,
            rec: &rec,
        }
        .apply_transpose(&mut m2, &p);
        assert_eq!(bits(&plain), bits(&wrapped));
        let plain = pre.apply(&mut m1, &p);
        let wrapped = TimedPrec {
            inner: &pre,
            rec: &rec,
        }
        .apply(&mut m2, &p);
        assert_eq!(bits(&plain), bits(&wrapped));
        assert_eq!(m1.elapsed().to_bits(), m2.elapsed().to_bits());
        assert_eq!(m1.trace().len(), m2.trace().len());
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn wrapped_cg_solve_matches_sim_time_and_iterations() {
        let a = hpf_sparse::gen::poisson_2d(24, 24);
        let op = RowwiseCsr::block(a, 4, DataArrayLayout::RowAligned);
        let b = crate::rng::Rng::new(9, 1).vector(576);
        let rec = Recorder::new();
        let (mut m1, mut m2) = (machine(4, false), machine(4, false));
        let (x1, s1) = cg_distributed(&mut m1, &op, &b, stop(), 1000).unwrap();
        let (x2, s2) = {
            let _s = rec.span("solve");
            cg_distributed(
                &mut m2,
                &TimedOp {
                    inner: &op,
                    rec: &rec,
                },
                &b,
                stop(),
                1000,
            )
            .unwrap()
        };
        assert_eq!(bits(&x1), bits(&x2));
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(m1.elapsed().to_bits(), m2.elapsed().to_bits());
        let spans = rec.spans();
        assert_eq!(totals(&spans, "matvec").count as usize, s1.matvecs);
        assert_eq!(totals(&spans, "solve").count, 1);
    }

    #[test]
    fn wrapped_mg_solve_matches_pcg_mg_distributed() {
        let h = MgHierarchy::build(GridDims::d3(9, 9, 9), 2, 4).unwrap();
        let pre = MgPreconditioner::new(h);
        let b = crate::rng::Rng::new(3, 2).vector(729);
        let rec = Recorder::new();
        let (mut m1, mut m2) = (machine(4, false), machine(4, false));
        let (x1, s1) = pcg_mg_distributed(&mut m1, &pre, &b, stop(), 200).unwrap();
        let op = pre.hierarchy().fine_operator();
        let (x2, s2) = pcg_preconditioned_distributed(
            &mut m2,
            &TimedOp {
                inner: &op,
                rec: &rec,
            },
            &TimedPrec {
                inner: &pre,
                rec: &rec,
            },
            &b,
            stop(),
            200,
        )
        .unwrap();
        assert_eq!(bits(&x1), bits(&x2));
        assert_eq!(s1.iterations, s2.iterations);
        assert_eq!(m1.elapsed().to_bits(), m2.elapsed().to_bits());
        assert!(totals(&rec.spans(), "precond").count >= s1.iterations as u64);
    }
}
