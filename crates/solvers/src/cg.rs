//! The Conjugate Gradient solver — serial and distributed.
//!
//! The iteration structure follows the paper's Section 2 listing and the
//! Figure 2 HPF code verbatim:
//!
//! ```fortran
//! DO k=1,Niter
//!   rho0 = rho
//!   rho  = DOT_PRODUCT(r, r)        ! sdot
//!   beta = rho / rho0
//!   p = beta * p + r                ! saypx
//!   q = 0.0                         ! sparse mat-vect multiply
//!   FORALL( j=1:n ) ...
//!   alpha = rho / DOT_PRODUCT(p, q)
//!   x = x + alpha * p               ! saxpy
//!   r = r - alpha * q               ! saxpy
//!   IF ( stop_criterion ) EXIT
//! END DO
//! ```
//!
//! The distributed version runs the same recurrence over
//! [`DistVector`]s and any [`DistOperator`], so every communication the
//! chosen data layout induces is charged to the simulated machine.

use crate::error::SolverError;
use crate::observer::{IterObserver, IterSample, MachineMark, NullObserver};
use crate::operator::{DistOperator, SerialOperator};
use crate::precond::DistPreconditioner;
use crate::recovery::{protected_pcg, RecoveryConfig, RecoveryStats};
use crate::stopping::{ResidualMonitor, SolveStats, StopCriterion};
use hpf_core::DistVector;
use hpf_machine::{span, Machine};

/// Guard against division by a numerically dead inner product.
pub(crate) fn check_breakdown(what: &'static str, v: f64) -> Result<(), SolverError> {
    if !v.is_finite() || v.abs() < f64::MIN_POSITIVE * 1e16 {
        Err(SolverError::Breakdown { what, value: v })
    } else {
        Ok(())
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Serial (non-preconditioned) CG for SPD systems.
///
/// ```
/// use hpf_solvers::{cg, StopCriterion};
/// use hpf_sparse::gen;
///
/// let a = gen::poisson_2d(8, 8);
/// let (x_true, b) = gen::rhs_for_known_solution(&a);
/// let (x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 1000).unwrap();
/// assert!(stats.converged);
/// assert!(x.iter().zip(&x_true).all(|(u, v)| (u - v).abs() < 1e-6));
/// ```
pub fn cg<A: SerialOperator + ?Sized>(
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(Vec<f64>, SolveStats), SolverError> {
    cg_with_observer(a, b, stop, max_iters, &mut NullObserver)
}

/// [`cg`] with a per-iteration telemetry hook (see
/// [`crate::observer::IterObserver`]). Serial solves have no machine, so
/// samples carry zero flops/comm/sim-time.
pub fn cg_with_observer<A: SerialOperator + ?Sized>(
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<(Vec<f64>, SolveStats), SolverError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    let mut stats = SolveStats::new();
    let b_norm = norm2(b);
    stats.dots += 1;
    let mut monitor = ResidualMonitor::new(stop);

    // Initial guess x = 0, so r = p = b (the paper's initialisation).
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = b.to_vec();
    let mut rho = dot(&r, &r);
    stats.dots += 1;
    stats.residual_norm = rho.sqrt();
    if monitor.observe(stats.residual_norm, b_norm)? {
        stats.converged = true;
        return Ok((x, stats));
    }

    for _k in 0..max_iters {
        let q = a.apply(&p);
        stats.matvecs += 1;
        let pq = dot(&p, &q);
        stats.dots += 1;
        check_breakdown("p.Ap", pq)?;
        let alpha = rho / pq;
        for ((xi, &pi), (ri, &qi)) in x.iter_mut().zip(p.iter()).zip(r.iter_mut().zip(q.iter())) {
            *xi += alpha * pi;
            *ri -= alpha * qi;
        }
        stats.axpys += 2;
        let rho_new = dot(&r, &r);
        stats.dots += 1;
        stats.iterations += 1;
        stats.residual_norm = rho_new.sqrt();
        // beta reported is the one the *next* direction update will use
        // (rho_new / rho), the scalar the paper's saypx line consumes.
        obs.on_iteration(&IterSample {
            iteration: stats.iterations,
            residual_norm: stats.residual_norm,
            alpha,
            beta: rho_new / rho,
            flops: 0,
            comm_words: 0,
            sim_time: 0.0,
            predicted_time: 0.0,
            rollbacks: 0,
        });
        if monitor.observe(stats.residual_norm, b_norm)? {
            stats.converged = true;
            return Ok((x, stats));
        }
        check_breakdown("rho", rho)?;
        let beta = rho_new / rho;
        rho = rho_new;
        for (pi, &ri) in p.iter_mut().zip(r.iter()) {
            *pi = ri + beta * *pi;
        }
        stats.axpys += 1;
    }
    Ok((x, stats))
}

/// How [`pcg_distributed`] runs.
#[derive(Clone, Copy)]
pub struct SolveOptions<'a> {
    /// When the solve has converged.
    pub stop: StopCriterion,
    /// Iteration budget.
    pub max_iters: usize,
    /// `M⁻¹`, applied as `z = M⁻¹ r` under a `precondition` span;
    /// `None` runs plain CG.
    pub precond: Option<&'a dyn DistPreconditioner>,
    /// `Some` runs the checkpoint/rollback driver of [`crate::recovery`].
    pub recovery: Option<RecoveryConfig>,
}

impl SolveOptions<'_> {
    /// Plain CG: no preconditioner, no recovery.
    pub fn new(stop: StopCriterion, max_iters: usize) -> Self {
        SolveOptions {
            stop,
            max_iters,
            precond: None,
            recovery: None,
        }
    }
}

/// Distributed CG and PCG (the full Figure 2 program) over any
/// [`DistOperator`]: the one entry point of the family. All
/// communication is charged to `machine`.
///
/// `opts.precond` picks CG or PCG. `opts.recovery` picks the plain loop
/// or the checkpoint/rollback driver of [`crate::recovery`], which also
/// returns its [`RecoveryStats`]. Machine events are span-tagged
/// (`solve/iter=k/matvec`, `.../dot`, `.../axpy`, `.../precondition`).
/// `obs` receives one [`IterSample`] per iteration and, when protected,
/// every rollback and restart.
///
/// ```
/// use hpf_core::{DataArrayLayout, RowwiseCsr};
/// use hpf_machine::{CostModel, Machine, Topology};
/// use hpf_solvers::{
///     pcg_distributed, JacobiPreconditioner, NullObserver, SolveOptions, StopCriterion,
/// };
/// use hpf_sparse::gen;
///
/// let a = gen::poisson_2d(8, 8);
/// let (_, b) = gen::rhs_for_known_solution(&a);
/// let op = RowwiseCsr::block(a, 4, DataArrayLayout::RowAligned);
/// let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
/// let opts = SolveOptions {
///     precond: Some(&jacobi),
///     ..SolveOptions::new(StopCriterion::RelativeResidual(1e-10), 500)
/// };
/// let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
/// let (x, stats, recovery) = pcg_distributed(&mut m, &op, &b, &opts, &mut NullObserver).unwrap();
/// assert!(stats.converged && recovery.is_none());
/// assert_eq!(x.len(), 64);
/// ```
pub fn pcg_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    opts: &SolveOptions,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats, Option<RecoveryStats>), SolverError> {
    match opts.recovery {
        Some(config) => {
            let (x, stats, rec) = protected_pcg(machine, a, b_global, opts, config, obs)?;
            Ok((x, stats, Some(rec)))
        }
        None => {
            let (x, stats) = plain_pcg(machine, a, b_global, opts, obs)?;
            Ok((x, stats, None))
        }
    }
}

/// Distributed CG without an observer: a forward to [`pcg_distributed`],
/// kept with this signature because the benchmark harness calls it.
pub fn cg_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    let opts = SolveOptions::new(stop, max_iters);
    pcg_distributed(machine, a, b_global, &opts, &mut NullObserver).map(|(x, s, _)| (x, s))
}

/// Distributed CG preconditioned by any [`DistPreconditioner`], without
/// an observer: a forward to [`pcg_distributed`], kept with this
/// signature because the benchmark harness calls it.
pub fn pcg_preconditioned_distributed<A, M>(
    machine: &mut Machine,
    a: &A,
    m: &M,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError>
where
    A: DistOperator + ?Sized,
    M: DistPreconditioner + ?Sized,
{
    let opts = SolveOptions {
        precond: Some(&m),
        ..SolveOptions::new(stop, max_iters)
    };
    pcg_distributed(machine, a, b_global, &opts, &mut NullObserver).map(|(x, s, _)| (x, s))
}

/// The unprotected CG/PCG loop. Plain CG and PCG differ in ways the
/// pinned traces record, so each keeps its own branch around the shared
/// first half of the iteration:
///
/// * Set-up: CG runs two dots (`b·b`, `r·r`) under `solve/setup`; PCG
///   applies `M⁻¹` and runs three (`b·b`, `r·z`, `r·r`) with no span.
/// * CG reports an iteration before its stop test, with a finite β.
///   PCG tests first and reports β = NaN on the iteration that
///   converges, skipping that iteration's preconditioner apply.
/// * PCG's `r·z` dot and `p` update carry no `dot`/`axpy` span.
fn plain_pcg<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    opts: &SolveOptions,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats), SolverError> {
    let _solve_span = span::enter("solve");
    // !HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
    let (b, x) = distribute_rhs(a, b_global)?;
    let r = b.clone();
    let mut stats = SolveStats::new();
    let mut monitor = ResidualMonitor::new(opts.stop);

    let (b_norm, mut rho, p) = match opts.precond {
        None => {
            let _s = span::enter("setup");
            let b_norm = b.dot(machine, &b).sqrt();
            let rho = r.dot(machine, &r);
            stats.dots = 2;
            stats.residual_norm = rho.sqrt();
            (b_norm, rho, b.clone())
        }
        Some(m) => {
            let z = m.apply(machine, &r);
            let b_norm = b.dot(machine, &b).sqrt();
            let rho = r.dot(machine, &z);
            stats.residual_norm = r.dot(machine, &r).sqrt();
            stats.dots = 3;
            (b_norm, rho, z)
        }
    };
    let mut v = CgVectors { x, r, p };
    if monitor.observe(stats.residual_norm, b_norm)? {
        stats.converged = true;
        return Ok((v.x, stats));
    }

    let mut mark = MachineMark::take(machine);
    for k in 0..opts.max_iters {
        let _iter_span = span::enter(format!("iter={k}"));
        let alpha = v.advance(machine, a, rho, &mut stats, |pq| {
            check_breakdown("p.Ap", pq)
        })?;
        let rr = {
            let _s = span::enter("dot");
            v.r.dot(machine, &v.r)
        };
        stats.dots += 1;
        stats.iterations += 1;
        stats.residual_norm = rr.sqrt();
        let sample = mark.sample(machine, &stats, alpha, 0);
        match opts.precond {
            None => {
                // The beta reported is the one the next direction
                // update uses: rho_new / rho, with rho_new = r·r.
                let beta = rr / rho;
                obs.on_iteration(&IterSample { beta, ..sample });
                if monitor.observe(stats.residual_norm, b_norm)? {
                    stats.converged = true;
                    return Ok((v.x, stats));
                }
                check_breakdown("rho", rho)?;
                rho = rr;
                let _s = span::enter("axpy");
                v.p.aypx(machine, beta, &v.r); // p = beta p + r  (saypx)
            }
            Some(m) => {
                if monitor.observe(stats.residual_norm, b_norm)? {
                    obs.on_iteration(&sample);
                    stats.converged = true;
                    return Ok((v.x, stats));
                }
                let z = {
                    let _s = span::enter("precondition");
                    m.apply(machine, &v.r)
                };
                let rho_new = v.r.dot(machine, &z);
                stats.dots += 1;
                check_breakdown("rho", rho)?;
                let beta = rho_new / rho;
                obs.on_iteration(&IterSample { beta, ..sample });
                rho = rho_new;
                v.p.aypx(machine, beta, &z);
            }
        }
        stats.axpys += 1;
    }
    Ok((v.x, stats))
}

/// Check `b`'s length against `a` and lay it out on `a`'s descriptor:
/// returns `(b, x = 0)`, the set-up every distributed solver shares.
pub(crate) fn distribute_rhs<A: DistOperator + ?Sized>(
    a: &A,
    b_global: &[f64],
) -> Result<(DistVector, DistVector), SolverError> {
    let n = a.dim();
    if b_global.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b_global.len(),
        });
    }
    let desc = a.descriptor();
    Ok((
        DistVector::from_global(desc.clone(), b_global),
        DistVector::zeros(desc),
    ))
}

/// The iterate, residual and search direction a CG recurrence carries.
#[derive(Clone)]
pub(crate) struct CgVectors {
    pub(crate) x: DistVector,
    pub(crate) r: DistVector,
    pub(crate) p: DistVector,
}

impl CgVectors {
    /// The first half of every CG iteration: `q = A p` and `p·q` under
    /// their spans; then, if `check(p·q)` passes, `alpha = rho / p·q`
    /// and `x += alpha p`, `r -= alpha q` under one `axpy` span. Returns
    /// `alpha`, or `check`'s error with `x` and `r` untouched.
    pub(crate) fn advance<A: DistOperator + ?Sized, E>(
        &mut self,
        machine: &mut Machine,
        a: &A,
        rho: f64,
        stats: &mut SolveStats,
        check: impl FnOnce(f64) -> Result<(), E>,
    ) -> Result<f64, E> {
        let q = {
            let _s = span::enter("matvec");
            a.apply(machine, &self.p)
        };
        stats.matvecs += 1;
        let pq = {
            let _s = span::enter("dot");
            self.p.dot(machine, &q)
        };
        stats.dots += 1;
        check(pq)?;
        let alpha = rho / pq;
        {
            let _s = span::enter("axpy");
            self.x.axpy(machine, alpha, &self.p); // x = x + alpha p
            self.r.axpy(machine, -alpha, &q); // r = r - alpha q
        }
        stats.axpys += 2;
        Ok(alpha)
    }

    /// Overwrite all three vectors with `other`'s (a checkpoint restore).
    pub(crate) fn copy_from(&mut self, other: &CgVectors) {
        self.x.copy_from(&other.x);
        self.r.copy_from(&other.r);
        self.p.copy_from(&other.p);
    }
}

/// The true residual `b - A x` and its norm.
pub(crate) fn true_residual<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b: &DistVector,
    x: &DistVector,
    stats: &mut SolveStats,
) -> (DistVector, f64) {
    let ax = a.apply(machine, x);
    stats.matvecs += 1;
    let mut r = b.clone();
    r.axpy(machine, -1.0, &ax);
    stats.axpys += 1;
    let norm = r.dot(machine, &r).sqrt();
    stats.dots += 1;
    (r, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::{DataArrayLayout, RowwiseCsr};
    use hpf_machine::{CostModel, EventKind, Topology};
    use hpf_sparse::gen;

    fn relative_error(x: &[f64], y: &[f64]) -> f64 {
        let num: f64 = x
            .iter()
            .zip(y.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den = norm2(y).max(1e-300);
        num / den
    }

    #[test]
    fn cg_solves_poisson_2d() {
        let a = gen::poisson_2d(10, 10);
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 1000).unwrap();
        assert!(stats.converged);
        assert!(relative_error(&x, &x_true) < 1e-8);
        // CG structure: one matvec + ~2 dots per iteration.
        assert_eq!(stats.matvecs, stats.iterations);
        assert_eq!(stats.transpose_matvecs, 0);
    }

    #[test]
    fn cg_solves_banded_and_random() {
        for a in [gen::banded_spd(80, 4, 1), gen::random_spd(80, 5, 2)] {
            let (x_true, b) = gen::rhs_for_known_solution(&a);
            let (x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 2000).unwrap();
            assert!(stats.converged, "CG must converge on SPD");
            assert!(relative_error(&x, &x_true) < 1e-7);
        }
    }

    #[test]
    fn cg_dimension_check() {
        let a = gen::poisson_2d(3, 3);
        let err = cg(&a, &[1.0; 5], StopCriterion::RelativeResidual(1e-8), 10).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn cg_zero_rhs_converges_immediately() {
        let a = gen::poisson_2d(4, 4);
        let (x, stats) = cg(&a, &[0.0; 16], StopCriterion::RelativeResidual(1e-8), 10).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cg_reports_nonconvergence() {
        let a = gen::poisson_2d(12, 12);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-14), 3).unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
    }

    #[test]
    fn cg_converges_in_ne_iterations_distinct_eigenvalues() {
        // Section 2: "The CG algorithm will generally converge ... in at
        // most n_e iterations, where n_e is the number of distinct
        // eigenvalues."
        for (eigs, n) in [
            (vec![1.0, 10.0], 16),
            (vec![1.0, 4.0, 9.0], 18),
            (vec![2.0, 3.0, 5.0, 7.0, 11.0], 20),
        ] {
            let a = gen::distinct_eigenvalues(n, &eigs, 4 * n, 7);
            let (_, b) = gen::rhs_for_known_solution(&a);
            let (_, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-9), 200).unwrap();
            assert!(stats.converged);
            assert!(
                stats.iterations <= eigs.len(),
                "{} eigenvalues but {} iterations",
                eigs.len(),
                stats.iterations
            );
        }
    }

    #[test]
    fn distributed_cg_matches_serial() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x_serial, s_serial) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();

        let np = 4;
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let (x_dist, s_dist) =
            cg_distributed(&mut m, &op, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert!(s_dist.converged);
        assert_eq!(s_dist.iterations, s_serial.iterations);
        assert!(relative_error(&x_dist.to_global(), &x_serial) < 1e-9);
        // The layout induced real communication: allgathers (matvec
        // broadcast) and allreduces (dot merges).
        assert!(m.trace().count(EventKind::AllGather) >= s_dist.matvecs);
        assert!(m.trace().count(EventKind::AllReduce) >= s_dist.dots);
    }

    #[test]
    fn distributed_cg_per_iteration_comm_structure() {
        // Figure 2's loop: per iteration 1 allgather + 2 dot merges.
        let a = gen::poisson_2d(6, 6);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let np = 4;
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let (_, stats) =
            cg_distributed(&mut m, &op, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        let gathers = m.trace().count(EventKind::AllGather);
        let reduces = m.trace().count(EventKind::AllReduce);
        assert_eq!(gathers, stats.iterations); // one per matvec
        assert_eq!(reduces, stats.dots); // one merge per DOT_PRODUCT
    }

    #[test]
    fn distributed_cg_events_carry_span_paths() {
        let a = gen::poisson_2d(6, 6);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let np = 4;
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let mut obs = crate::observer::RecordingObserver::new();
        let opts = SolveOptions::new(StopCriterion::RelativeResidual(1e-10), 500);
        let (_, stats, _) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
        assert!(stats.converged);
        // Every event recorded inside the loop carries a
        // solve/iter=k/<phase> path; the setup dots carry solve/setup.
        let evs = m.trace().events();
        assert!(evs.iter().all(|e| e.span.starts_with("solve")));
        assert!(evs.iter().any(|e| e.span == "solve/iter=0/matvec"));
        assert!(evs.iter().any(|e| e.span == "solve/iter=0/dot"));
        assert!(evs.iter().any(|e| e.span == "solve/setup"));
        // One telemetry sample per iteration, residuals decreasing
        // overall and alpha/beta finite.
        assert_eq!(obs.samples.len(), stats.iterations);
        assert!(obs.samples.iter().all(|s| s.alpha.is_finite()));
        assert!(obs.samples.iter().all(|s| s.beta.is_finite()));
        assert!(obs.samples.iter().all(|s| s.comm_words > 0));
        assert!(obs.samples.last().unwrap().residual_norm < obs.samples[0].residual_norm);
        // sim_time is cumulative and nondecreasing.
        assert!(obs
            .samples
            .windows(2)
            .all(|w| w[1].sim_time >= w[0].sim_time));
        // The span stack unwound completely.
        assert_eq!(hpf_machine::span::depth(), 0);
    }

    #[test]
    fn serial_cg_observer_sees_every_iteration() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let mut obs = crate::observer::RecordingObserver::new();
        let (_, stats) = cg_with_observer(
            &a,
            &b,
            StopCriterion::RelativeResidual(1e-10),
            1000,
            &mut obs,
        )
        .unwrap();
        assert!(stats.converged);
        assert_eq!(obs.samples.len(), stats.iterations);
        assert_eq!(obs.samples.last().unwrap().iteration, stats.iterations);
        assert!((obs.samples.last().unwrap().residual_norm - stats.residual_norm).abs() < 1e-300);
    }

    #[test]
    fn breakdown_detected_on_indefinite_system() {
        // An indefinite diagonal matrix makes p.Ap hit zero quickly for a
        // crafted rhs; CG must fail loudly, not loop forever.
        use hpf_sparse::{CooMatrix, CsrMatrix};
        let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, -1.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let b = vec![1.0, 1.0];
        let r = cg(&a, &b, StopCriterion::RelativeResidual(1e-12), 50);
        match r {
            Err(SolverError::Breakdown { .. }) => {}
            Ok((_, stats)) => assert!(!stats.converged || stats.residual_norm < 1e-6),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
