//! Checkpoint/rollback CG — self-healing solves under injected faults.
//!
//! The machine layer can corrupt reduction and matvec results
//! (`hpf_machine::FaultPlan`); this module makes the Figure 2 CG loop
//! survive that. The protected solvers keep a small ring of checkpoints
//! `(x, r, p, rho)`, watch every scalar the recurrence divides by, and
//! periodically recompute the *true* residual `b - A x` (residual
//! replacement in the sense of Chen/Carson). When corruption is detected
//! — a non-finite or non-positive `p·Ap`, a residual jump, or drift
//! between the recurrence residual and the true residual — the solve
//! rolls back to the last checkpoint and replays instead of diverging.
//!
//! Replayed iterations do not re-hit the same faults: the machine's
//! fault schedule is keyed to a monotone operation counter, so a fault
//! fires once and the replay runs over clean operations.

use crate::cg::{
    check_breakdown, distribute_rhs, pcg_distributed, true_residual, CgVectors, SolveOptions,
};
use crate::error::SolverError;
use crate::observer::{IterObserver, IterSample, MachineMark, NullObserver};
use crate::operator::DistOperator;
use crate::precond::JacobiPreconditioner;
use crate::stopping::{ResidualMonitor, SolveStats, StopCriterion};
use hpf_core::DistVector;
use hpf_machine::{span, Machine};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Knobs for the checkpoint/rollback machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Save a checkpoint every this many iterations.
    pub checkpoint_interval: usize,
    /// How many checkpoints to keep (a rollback that keeps failing
    /// retreats to older ones).
    pub ring_capacity: usize,
    /// Recompute the true residual `b - A x` every this many iterations.
    pub residual_check_interval: usize,
    /// A recurrence residual this many times larger than the previous
    /// one is treated as corruption, not convergence history.
    pub residual_jump_factor: f64,
    /// Relative drift between recurrence and true residual (scaled by
    /// `||b||`) that triggers residual replacement.
    pub drift_tolerance: f64,
    /// Give up with [`SolverError::RecoveryExhausted`] after this many
    /// rollbacks.
    pub max_rollbacks: usize,
    /// If the best residual seen fails to improve by at least 1% over
    /// this many consecutive iterations, assume a silently corrupted
    /// scalar froze the recurrence and restart from the true residual.
    pub stagnation_window: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 8,
            ring_capacity: 3,
            residual_check_interval: 25,
            residual_jump_factor: 1e6,
            drift_tolerance: 1e-4,
            max_rollbacks: 16,
            stagnation_window: 40,
        }
    }
}

/// What the recovery machinery did during one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Checkpoints saved.
    pub checkpoints: usize,
    /// Rollbacks performed.
    pub rollbacks: usize,
    /// Corruption events detected (each triggers a rollback or a
    /// residual replacement).
    pub faults_detected: usize,
    /// True-residual recomputations that replaced the recurrence
    /// residual.
    pub residual_replacements: usize,
}

/// One saved iteration state.
struct Checkpoint {
    k: usize,
    v: CgVectors,
    rho: f64,
    res: f64,
}

/// Fault-tolerant distributed CG without an observer: a forward to
/// [`pcg_distributed`] with `recovery: Some(config)`, kept with this
/// signature because the benchmark harness calls it.
pub fn cg_distributed_protected<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    config: RecoveryConfig,
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let opts = SolveOptions {
        recovery: Some(config),
        ..SolveOptions::new(stop, max_iters)
    };
    let (x, s, rec) = pcg_distributed(machine, a, b_global, &opts, &mut NullObserver)?;
    Ok((x, s, rec.unwrap_or_default()))
}

/// Fault-tolerant Jacobi-preconditioned distributed CG without an
/// observer: a forward to [`pcg_distributed`], kept with this signature
/// because the benchmark harness calls it.
pub fn pcg_jacobi_distributed_protected<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    config: RecoveryConfig,
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let m = JacobiPreconditioner::from_operator(a)?;
    let opts = SolveOptions {
        precond: Some(&m),
        recovery: Some(config),
        ..SolveOptions::new(stop, max_iters)
    };
    let (x, s, rec) = pcg_distributed(machine, a, b_global, &opts, &mut NullObserver)?;
    Ok((x, s, rec.unwrap_or_default()))
}

/// The checkpoint/rollback CG/PCG loop [`pcg_distributed`] runs when
/// `opts.recovery` is set. It differs from the plain loop in ways the
/// pinned traces record: its set-up applies the preconditioner (under a
/// `precondition` span) and runs three dots (`b·b`, `r·z`, `r·r`) with no
/// set-up span, whether preconditioned or not; it applies `M⁻¹` and
/// computes `r·z` and `r·r` before its divergence test; and neither those
/// dots nor the `p` update carry a `dot`/`axpy` span.
pub(crate) fn protected_pcg<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    opts: &SolveOptions,
    config: RecoveryConfig,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let _solve_span = span::enter("solve");
    let (b, x) = distribute_rhs(a, b_global)?;
    let desc = a.descriptor();
    let checkpoint_interval = config.checkpoint_interval.max(1);
    let residual_check_interval = config.residual_check_interval.max(1);
    let ring_capacity = config.ring_capacity.max(1);

    let mut stats = SolveStats::new();
    let mut rec = RecoveryStats::default();
    let mut monitor = ResidualMonitor::new(opts.stop);

    // z = M^-1 r, identity when unpreconditioned (then z is just a copy
    // of r).
    let precondition = |machine: &mut Machine, r: &DistVector| -> DistVector {
        match opts.precond {
            Some(m) => {
                let _s = span::enter("precondition");
                m.apply(machine, r)
            }
            None => r.clone(),
        }
    };

    let r = b.clone();
    let mut z = precondition(machine, &r);
    let mut v = CgVectors { x, p: z.clone(), r };

    let b_norm = b.dot(machine, &b).sqrt();
    stats.dots += 1;
    let mut rho = v.r.dot(machine, &z);
    stats.dots += 1;
    let mut res = v.r.dot(machine, &v.r).sqrt();
    stats.dots += 1;
    stats.residual_norm = res;
    if monitor.observe(res, b_norm)? {
        stats.converged = true;
        return Ok((v.x, stats, rec));
    }
    check_breakdown("rho", rho)?;

    // Per-proc flop counts charged for a checkpoint save / restore: the
    // three vectors (x, r, p) are copied locally, no communication.
    let copy_flops: Vec<usize> = (0..desc.np()).map(|pr| 3 * desc.local_len(pr)).collect();

    let mut ring: VecDeque<Checkpoint> = VecDeque::new();
    ring.push_back(Checkpoint {
        k: 0,
        v: v.clone(),
        rho,
        res,
    });
    {
        let _s = span::enter("checkpoint");
        machine.compute_all(&copy_flops, "checkpoint-save");
    }
    rec.checkpoints += 1;

    let mut k = 0usize;
    let mut rollbacks_since_checkpoint = 0usize;
    let stagnation_window = config.stagnation_window.max(1);
    let mut best_res = res;
    let mut since_improve = 0usize;

    // Roll back to the newest surviving checkpoint; retreat one
    // checkpoint deeper when the newest one keeps failing (it may have
    // been saved after the corruption landed).
    macro_rules! rollback {
        ($reason:expr) => {{
            rec.rollbacks += 1;
            rec.faults_detected += 1;
            rollbacks_since_checkpoint += 1;
            obs.on_rollback(k, $reason);
            if rec.rollbacks > config.max_rollbacks {
                return Err(SolverError::RecoveryExhausted {
                    rollbacks: rec.rollbacks,
                    residual_norm: res,
                });
            }
            if rollbacks_since_checkpoint >= 2 && ring.len() > 1 {
                ring.pop_back();
            }
            let cp = ring.back().expect("ring never empties");
            v.copy_from(&cp.v);
            rho = cp.rho;
            res = cp.res;
            k = cp.k;
            stats.iterations = k;
            stats.residual_norm = res;
            since_improve = 0;
            monitor.reset_window();
            {
                let _s = span::enter("rollback");
                machine.compute_all(&copy_flops, "rollback-restore");
            }
            continue;
        }};
    }

    // Swap in the true residual `r_true` (norm `res_true`) and restart
    // the search direction from it.
    macro_rules! replace_residual {
        ($r_true:expr, $res_true:expr) => {{
            rec.residual_replacements += 1;
            obs.on_restart(k);
            v.r = $r_true;
            z = precondition(machine, &v.r);
            rho = v.r.dot(machine, &z);
            stats.dots += 1;
            v.p = z.clone();
            res = $res_true;
            stats.residual_norm = res;
            since_improve = 0;
            monitor.reset_window();
            if !rho.is_finite() || rho < 0.0 {
                rollback!("non-finite");
            }
            check_breakdown("rho", rho)?;
            // Convergence is only ever declared through the verified
            // path in the main loop; a claim here just means the next
            // iteration's observation triggers verification.
            monitor.observe(res, b_norm)?;
            continue;
        }};
    }

    // A detected fault the checkpoints cannot fix: discard the (possibly
    // mis-scaled) search direction and restart CG from the true residual
    // at the current iterate, unless the recovery budget is spent.
    macro_rules! restart_from_true_residual {
        () => {{
            rec.faults_detected += 1;
            if rec.rollbacks + rec.residual_replacements >= config.max_rollbacks {
                return Err(SolverError::RecoveryExhausted {
                    rollbacks: rec.rollbacks,
                    residual_norm: res,
                });
            }
            let _restart_span = span::enter("restart");
            let (r_true, res_true) = true_residual(machine, a, &b, &v.x, &mut stats);
            if !res_true.is_finite() {
                rollback!("non-finite");
            }
            replace_residual!(r_true, res_true);
        }};
    }

    let mut mark = MachineMark::take(machine);
    while k < opts.max_iters {
        let _iter_span = span::enter(format!("iter={k}"));
        // SPD input guarantees p·Ap > 0; non-finite or non-positive
        // means a corrupted reduction (or a genuinely indefinite input,
        // which exhausts the rollback budget and surfaces as a typed
        // error).
        let healthy = |pq: f64| {
            if pq.is_finite() && pq > 0.0 {
                Ok(())
            } else {
                Err(())
            }
        };
        let Ok(alpha) = v.advance(machine, a, rho, &mut stats, healthy) else {
            rollback!("non-finite");
        };
        // Unpreconditioned CG has z = r, so one reduction serves both
        // rho and the residual norm (keeps the faults-off overhead to
        // checkpointing alone).
        let (rho_new, res_new) = match opts.precond {
            Some(_) => {
                z = precondition(machine, &v.r);
                let rho_new = v.r.dot(machine, &z);
                stats.dots += 1;
                let res_new = v.r.dot(machine, &v.r).sqrt();
                stats.dots += 1;
                (rho_new, res_new)
            }
            None => {
                let rho_new = v.r.dot(machine, &v.r);
                stats.dots += 1;
                z = v.r.clone();
                (rho_new, rho_new.abs().sqrt())
            }
        };
        if !res_new.is_finite()
            || !rho_new.is_finite()
            || rho_new < 0.0
            || res_new > config.residual_jump_factor * res.max(f64::MIN_POSITIVE)
        {
            rollback!("divergence");
        }
        k += 1;
        stats.iterations = k;
        res = res_new;
        stats.residual_norm = res;
        obs.on_iteration(&IterSample {
            beta: rho_new / rho,
            ..mark.sample(machine, &stats, alpha, rec.rollbacks)
        });

        // Progress watchdog: a silently mis-scaled scalar (e.g. a bit
        // flip in rho) freezes the recurrence without breaking the
        // residual invariant, so neither the jump test nor drift
        // detection fires. No improvement over a whole window means the
        // search direction is dead — restart it.
        if res <= 0.99 * best_res {
            best_res = res;
            since_improve = 0;
        } else {
            since_improve += 1;
        }
        if since_improve >= stagnation_window {
            restart_from_true_residual!();
        }

        // Residual replacement: periodically recompute the true
        // residual b - A x. Large drift means the recurrence was
        // silently corrupted; swap in the true residual and restart the
        // search direction (skipping the beta update).
        if k.is_multiple_of(residual_check_interval) {
            let _check_span = span::enter("residual-check");
            let (r_true, res_true) = true_residual(machine, a, &b, &v.x, &mut stats);
            if !res_true.is_finite() {
                rollback!("non-finite");
            }
            if (res_true - res).abs() > config.drift_tolerance * b_norm.max(f64::MIN_POSITIVE) {
                rec.faults_detected += 1;
                replace_residual!(r_true, res_true);
            }
        }

        if monitor.observe(res, b_norm)? {
            // Trust but verify: a corrupted reduction can fake a tiny
            // residual norm. Accept convergence only if the true
            // residual b - A x agrees — computed twice, because an armed
            // corruption can drain into the verification itself, and it
            // can only drain once.
            let mut verify = || {
                let _s = span::enter("verify");
                true_residual(machine, a, &b, &v.x, &mut stats).1
            };
            let (v1, v2) = (verify(), verify());
            let res_true = v1.max(v2);
            let agree = (v1 - v2).abs() <= 1e-12 * b_norm.max(f64::MIN_POSITIVE);
            if res_true.is_finite() && agree && opts.stop.satisfied(res_true, b_norm) {
                stats.converged = true;
                stats.residual_norm = res_true;
                return Ok((v.x, stats, rec));
            }
            if !res_true.is_finite() {
                rollback!("non-finite");
            }
            // The recursive residual lied but the iterate is finite.
            // Checkpoints may have been saved after the corruption
            // landed (replaying them repeats the false claim), so repair
            // the recurrence in place instead of rolling back.
            restart_from_true_residual!();
        }
        check_breakdown("rho", rho)?;
        let beta = rho_new / rho;
        rho = rho_new;
        v.p.aypx(machine, beta, &z);
        stats.axpys += 1;

        if k.is_multiple_of(checkpoint_interval) {
            ring.push_back(Checkpoint {
                k,
                v: v.clone(),
                rho,
                res,
            });
            if ring.len() > ring_capacity {
                ring.pop_front();
            }
            {
                let _s = span::enter("checkpoint");
                machine.compute_all(&copy_flops, "checkpoint-save");
            }
            rec.checkpoints += 1;
            rollbacks_since_checkpoint = 0;
        }
    }
    Ok((v.x, stats, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{cg_distributed, SolveOptions};
    use hpf_core::{DataArrayLayout, RowwiseCsr};
    use hpf_machine::{CostModel, FaultPlan, Topology};
    use hpf_sparse::gen;

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn poisson_op(np: usize) -> (RowwiseCsr, Vec<f64>, Vec<f64>) {
        let a = gen::poisson_2d(8, 8);
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        (
            RowwiseCsr::block(a, np, DataArrayLayout::RowAligned),
            x_true,
            b,
        )
    }

    fn rel_err(x: &[f64], y: &[f64]) -> f64 {
        let num: f64 = x
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        num / den
    }

    #[test]
    fn protected_cg_matches_plain_cg_without_faults() {
        let np = 4;
        let (op, _x_true, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m1 = machine(np);
        let (x_plain, s_plain) = cg_distributed(&mut m1, &op, &b, stop, 500).unwrap();
        let mut m2 = machine(np);
        let (x_prot, s_prot, rec) =
            cg_distributed_protected(&mut m2, &op, &b, stop, 500, RecoveryConfig::default())
                .unwrap();

        assert!(s_prot.converged);
        assert_eq!(s_prot.iterations, s_plain.iterations);
        assert_eq!(rec.rollbacks, 0);
        assert!(rec.checkpoints >= 1);
        assert!(rel_err(&x_prot.to_global(), &x_plain.to_global()) < 1e-12);
    }

    #[test]
    fn checkpoint_overhead_without_faults_is_small() {
        let np = 4;
        let (op, _, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m1 = machine(np);
        cg_distributed(&mut m1, &op, &b, stop, 500).unwrap();
        let t_plain = m1.elapsed();
        let mut m2 = machine(np);
        cg_distributed_protected(&mut m2, &op, &b, stop, 500, RecoveryConfig::default()).unwrap();
        let t_prot = m2.elapsed();

        assert!(
            t_prot < 1.10 * t_plain,
            "checkpoint overhead {:.1}% exceeds 10%",
            100.0 * (t_prot / t_plain - 1.0)
        );
    }

    #[test]
    fn protected_cg_survives_bit_flips_where_plain_cg_degrades() {
        let np = 4;
        let (op, x_true, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);
        // High-order mantissa/exponent bit flips on reductions early in
        // the solve.
        let plan = FaultPlan::new()
            .with_bit_flip(20, 1, 62, 3)
            .with_bit_flip(47, 2, 61, 5);

        let mut m = machine(np);
        m.set_fault_plan(plan);
        let (x, s, rec) =
            cg_distributed_protected(&mut m, &op, &b, stop, 2000, RecoveryConfig::default())
                .unwrap();
        assert!(
            s.converged,
            "protected CG must converge under bit flips: {s:?} {rec:?}"
        );
        assert!(
            rec.faults_detected >= 1,
            "faults should be detected: injected={} {s:?} {rec:?}",
            m.faults_injected()
        );
        assert!(rel_err(&x.to_global(), &x_true) < 1e-7);
    }

    #[test]
    fn protected_cg_survives_a_crash() {
        let np = 4;
        let (op, x_true, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_crash(30, 2));
        let (x, s, rec) =
            cg_distributed_protected(&mut m, &op, &b, stop, 2000, RecoveryConfig::default())
                .unwrap();
        assert!(s.converged, "protected CG must converge past a crash");
        assert!(rec.rollbacks >= 1, "a crash forces a rollback");
        assert!(rel_err(&x.to_global(), &x_true) < 1e-7);
    }

    #[test]
    fn observer_sees_rollbacks_and_every_iteration() {
        let np = 4;
        let (op, _, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_crash(30, 2));
        let mut obs = crate::observer::RecordingObserver::new();
        let opts = SolveOptions {
            recovery: Some(RecoveryConfig::default()),
            ..SolveOptions::new(stop, 2000)
        };
        let (_, s, rec) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
        let rec = rec.unwrap();
        assert!(s.converged);
        assert!(rec.rollbacks >= 1);
        assert_eq!(obs.rollbacks.len(), rec.rollbacks);
        // Samples exist for every surviving iteration number 1..=final,
        // and replayed iterations re-report (so counts can exceed the
        // final iteration count but never miss one).
        let mut seen: Vec<usize> = obs.samples.iter().map(|s| s.iteration).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (1..=s.iterations).collect::<Vec<_>>());
        // The running rollback count is nondecreasing and ends at the
        // reported total.
        assert!(obs
            .samples
            .windows(2)
            .all(|w| w[1].rollbacks >= w[0].rollbacks || w[1].iteration < w[0].iteration));
        assert_eq!(obs.samples.last().unwrap().rollbacks, rec.rollbacks);
        // Recovery phases left span-tagged events in the trace.
        assert!(m
            .trace()
            .events()
            .iter()
            .any(|e| e.span.contains("rollback")));
    }

    #[test]
    fn unprotected_cg_fails_under_the_same_crash() {
        let np = 4;
        let (op, _, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_crash(30, 2));
        let out = cg_distributed(&mut m, &op, &b, stop, 2000);
        match out {
            Err(SolverError::NonFinite { .. }) | Err(SolverError::Breakdown { .. }) => {}
            Ok((_, s)) => assert!(!s.converged, "NaN poison must not converge"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn protected_pcg_converges_under_faults() {
        let np = 4;
        let a = gen::banded_spd(96, 3, 11);
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_bit_flip(25, 0, 60, 1));
        let (x, s, rec) = pcg_jacobi_distributed_protected(
            &mut m,
            &op,
            &b,
            stop,
            2000,
            RecoveryConfig::default(),
        )
        .unwrap();
        assert!(
            s.converged,
            "injected={} {s:?} {rec:?}",
            m.faults_injected()
        );
        assert!(rel_err(&x.to_global(), &x_true) < 1e-7);
    }

    #[test]
    fn indefinite_input_exhausts_recovery_with_typed_error() {
        use hpf_sparse::{CooMatrix, CsrMatrix};
        let np = 2;
        let coo = CooMatrix::from_triplets(
            4,
            4,
            (0..4)
                .map(|i| (i, i, if i % 2 == 0 { 1.0 } else { -1.0 }))
                .collect(),
        )
        .unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let b = vec![0.0, 1.0, 0.0, 1.0];

        let mut m = machine(np);
        let out = cg_distributed_protected(
            &mut m,
            &op,
            &b,
            StopCriterion::RelativeResidual(1e-12),
            200,
            RecoveryConfig::default(),
        );
        assert!(
            matches!(out, Err(SolverError::RecoveryExhausted { .. })),
            "indefinite input must exhaust the rollback budget, got {out:?}"
        );
    }
}
