//! Batch execution on the simulated machine.
//!
//! A worker receives a [`Batch`], resolves a plan (cache or fresh
//! partition), builds the distributed operator once, then runs every
//! job's right-hand sides. Panic isolation lives here, at two scopes:
//! a panic during setup (plan/operator build) fails the whole batch
//! with [`ServiceError::WorkerPanic`], a panic during one job's solves
//! fails only that job. Either way every job is answered exactly once
//! and the worker thread survives.
//!
//! Robustness policies also live here: the batch is refused outright
//! when its structure's circuit breaker is open, each job's fault plan
//! (if any) is installed on the simulated machine for the first
//! attempt, and a retryable solver failure re-runs the job — with
//! backoff, on a clean machine, escalating CG → BiCGSTAB → GMRES.

use crate::admission::AdmissionController;
use crate::batch::Batch;
use crate::events::{self, ServiceEvent, ServiceEventSink};
use crate::metrics::Metrics;
use crate::plan::{CacheOutcome, PlanCache, SolvePlan};
use crate::request::{ServiceConfig, SolverKind};
use crate::response::{PlanSource, ServiceError, SolveResponse, TraceSummary};
use crate::retry::{backoff_delay_jittered, escalate, is_retryable, Admission, CircuitBreaker};
use crate::supervisor::{CurrentJob, SupervisorAbort, WorkerState};
use hpf_core::RowwiseCsr;
use hpf_machine::{CostModel, Machine};
use hpf_solvers::{
    bicg_distributed, bicgstab_distributed, gmres_distributed, pcg_distributed, DistPreconditioner,
    IterObserver, JacobiPreconditioner, RecoveryStats, SolveOptions, SolveStats, SolverError,
    TailObserver,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Fail every deadline-expired job in `batch` now, returning the live
/// remainder. Expired jobs get a typed error instead of occupying a
/// worker — the queue can shed load it can no longer serve in time.
pub fn shed_expired(batch: Batch, metrics: &Metrics, admission: &AdmissionController) -> Batch {
    shed_expired_with_sink(batch, metrics, admission, &None)
}

/// [`shed_expired`] with a live-telemetry tap: each expiry emits a
/// [`ServiceEvent::DeadlineExpired`] plus the terminal
/// [`ServiceEvent::Completed`] (`ok: false`).
pub fn shed_expired_with_sink(
    batch: Batch,
    metrics: &Metrics,
    admission: &AdmissionController,
    sink: &Option<ServiceEventSink>,
) -> Batch {
    let now = Instant::now();
    let (expired, live): (Vec<_>, Vec<_>) = batch
        .jobs
        .into_iter()
        .partition(|j| j.deadline_expired(now));
    for job in expired {
        admission.release(job.request.qos, job.admission_us);
        metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        metrics.failed.fetch_add(1, Ordering::Relaxed);
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        let waited = now.duration_since(job.submitted);
        events::emit(
            sink,
            ServiceEvent::DeadlineExpired {
                trace_id: job.request.trace_id,
                class: job.request.qos,
            },
        );
        events::emit(
            sink,
            ServiceEvent::Completed {
                trace_id: job.request.trace_id,
                class: job.request.qos,
                latency_us: waited.as_micros() as u64,
                ok: false,
                outcome: "deadline",
            },
        );
        let _ = job
            .responder
            .send(Err(ServiceError::DeadlineExceeded { waited }));
    }
    Batch { jobs: live }
}

/// Execute a (non-empty, same-key) batch end to end and answer each job
/// exactly once. `worker_state`, when present, receives per-operation
/// progress heartbeats through the simulated machine's hook and is how
/// the supervisor's kill order (the abort flag) reaches the solve: the
/// hook panics with [`SupervisorAbort`], the per-job catch site answers
/// [`ServiceError::WorkerKilled`], and the caller's loop exits.
pub fn execute_batch(
    batch: Batch,
    cache: &Mutex<PlanCache>,
    config: &ServiceConfig,
    metrics: &Metrics,
    breaker: &CircuitBreaker,
    admission: &AdmissionController,
    worker_state: Option<&Arc<WorkerState>>,
) {
    let batch = shed_expired_with_sink(batch, metrics, admission, &config.event_sink);
    if batch.jobs.is_empty() {
        return;
    }
    let fingerprint = batch.jobs[0].fingerprint;
    if breaker.admit(fingerprint) == Admission::Refuse {
        for job in batch.jobs {
            admission.release(job.request.qos, job.admission_us);
            metrics.breaker_open.fetch_add(1, Ordering::Relaxed);
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
            events::emit(
                &config.event_sink,
                ServiceEvent::Completed {
                    trace_id: job.request.trace_id,
                    class: job.request.qos,
                    latency_us: job.submitted.elapsed().as_micros() as u64,
                    ok: false,
                    outcome: "circuit-open",
                },
            );
            let _ = job
                .responder
                .send(Err(ServiceError::CircuitOpen { fingerprint }));
        }
        return;
    }
    let started = Instant::now();
    let matrix = batch.jobs[0].request.matrix.clone();

    // Batch-wide setup: plan resolution (the service's only partitioner
    // call site) and one operator build serving every job. The batch key
    // includes the partitioner name, so jobs[0] speaks for the batch;
    // unknown names were rejected at submission.
    let partitioner = hpf_partition::by_name(&batch.jobs[0].request.partitioner)
        .unwrap_or_else(|| Box::new(hpf_partition::BalancedContiguous));
    // Multigrid jobs cache their hierarchy alongside the plan, keyed on
    // depth (grid presence was validated at submission; `grid` is in the
    // batch key so jobs[0] speaks for the batch here too).
    let mg_req = match (batch.jobs[0].request.solver, batch.jobs[0].request.grid) {
        (SolverKind::PcgMg { levels }, Some(dims)) => Some((dims, levels)),
        _ => None,
    };
    let setup = catch_unwind(AssertUnwindSafe(|| {
        let (plan, source) = if config.plan_cache_enabled {
            let (plan, outcome) = cache.lock().get_or_build(
                &matrix,
                config.np,
                config.topology,
                partitioner.as_ref(),
                mg_req,
                || {
                    metrics
                        .partitioner_invocations
                        .fetch_add(1, Ordering::Relaxed);
                },
            );
            match outcome {
                CacheOutcome::Hit => {
                    metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    (plan, PlanSource::CacheHit)
                }
                CacheOutcome::Miss => {
                    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                    (plan, PlanSource::Built)
                }
            }
        } else {
            metrics
                .partitioner_invocations
                .fetch_add(1, Ordering::Relaxed);
            let mut plan =
                SolvePlan::build_with(&matrix, config.np, config.topology, partitioner.as_ref());
            if let Some((dims, levels)) = mg_req {
                plan = plan.with_mg(dims, levels);
            }
            (Arc::new(plan), PlanSource::Built)
        };
        let op =
            RowwiseCsr::with_row_cuts(matrix.as_ref().clone(), config.np, plan.row_cuts.clone());
        let mut machine = Machine::new(config.np, config.topology, CostModel::mpp_1995());
        machine.set_tracing(true);
        if let Some(sink) = &config.machine_sink {
            // Live telemetry: every event this machine records streams
            // through the bus adapter mid-solve.
            machine.set_event_sink(sink.clone());
        }
        (plan, source, op, machine)
    }));
    let (plan, source, op, mut machine) = match setup {
        Ok(s) => s,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            for job in batch.jobs {
                admission.release(job.request.qos, job.admission_us);
                metrics.failed.fetch_add(1, Ordering::Relaxed);
                metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = job
                    .responder
                    .send(Err(ServiceError::WorkerPanic(msg.clone())));
            }
            return;
        }
    };
    if let Some(state) = worker_state {
        // Heartbeat once per simulated-machine operation; observe the
        // supervisor's kill order at the same granularity. The panic
        // unwinds into the per-job catch site below.
        let s = Arc::clone(state);
        machine.set_progress_hook(hpf_machine::ProgressHook::new(move |_op| {
            s.heartbeat.fetch_add(1, Ordering::Relaxed);
            if s.abort.load(Ordering::SeqCst) {
                std::panic::panic_any(SupervisorAbort);
            }
        }));
    }

    let batched_with = batch.jobs.len() - 1;
    metrics.batches_executed.fetch_add(1, Ordering::Relaxed);
    if batched_with > 0 {
        metrics
            .batched_jobs
            .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
    }

    for job in batch.jobs {
        // Tag every machine event this job induces with its request's
        // trace id and job id, so multi-job traces stay attributable and
        // a live consumer can join machine spans with service events:
        // "trace=00c0ffee/job=7/solve/iter=3/...".
        let _trace_span = hpf_machine::span::enter(format!("trace={:016x}", job.request.trace_id));
        let _job_span = hpf_machine::span::enter(format!("job={}", job.id));
        let job_started = Instant::now();
        if let Some(state) = worker_state {
            *state.current.lock() = Some(CurrentJob {
                job_id: job.id,
                fingerprint,
                since: job_started,
            });
        }
        let max_attempts = config.max_attempts.max(1);
        let mut kind = job.request.solver;
        let mut attempts = 0usize;
        let outcome = loop {
            attempts += 1;
            machine.reset();
            // The fault plan models a hostile environment for the first
            // attempt only; retries run on a clean machine. A stale
            // injector from a previous job in the batch is cleared too.
            match (&job.request.fault_plan, attempts) {
                (Some(plan), 1) => machine.set_fault_plan(plan.clone()),
                _ => machine.clear_fault_plan(),
            }
            // Bounded residual-series tail for the flight recorder. It
            // lives *outside* the catch site so a supervisor kill
            // mid-attempt still leaves the iterations recorded so far
            // available to the post-mortem flush below.
            let mut res_tail = TailObserver::new(48);
            let solved = catch_unwind(AssertUnwindSafe(|| {
                let mut solutions = Vec::with_capacity(job.request.rhs.len());
                let mut stats: Vec<SolveStats> = Vec::with_capacity(job.request.rhs.len());
                let mut recovery: Option<RecoveryStats> = None;
                let opts = SolveOptions {
                    recovery: config.recovery,
                    ..SolveOptions::new(job.request.stop, job.request.max_iters)
                };
                for rhs in &job.request.rhs {
                    // One tail per RHS: a failing solve breaks out, so
                    // the flushed tail is the failing system's.
                    res_tail.clear();
                    let (x, s, rec) = run_solver(
                        kind,
                        &mut machine,
                        &op,
                        plan.mg.as_deref(),
                        rhs,
                        &opts,
                        &mut res_tail,
                    )?;
                    if let Some(rec) = rec {
                        let agg = recovery.get_or_insert_with(RecoveryStats::default);
                        agg.checkpoints += rec.checkpoints;
                        agg.rollbacks += rec.rollbacks;
                        agg.faults_detected += rec.faults_detected;
                        agg.residual_replacements += rec.residual_replacements;
                    }
                    solutions.push(x);
                    stats.push(s);
                }
                Ok::<_, SolverError>((solutions, stats, recovery))
            }));
            // Per-attempt: reset() rewinds the injector, clear removes it.
            metrics
                .faults_injected
                .fetch_add(machine.faults_injected() as u64, Ordering::Relaxed);
            // Flush the attempt's residual tail to the flight recorder
            // whether the attempt succeeded, failed typed, or was killed
            // mid-solve (the panic left `res_tail` intact).
            if let Some(tap) = &config.solver_tap {
                if !res_tail.is_empty() {
                    tap.emit(&crate::events::SolverTail {
                        trace_id: job.request.trace_id,
                        attempt: attempts,
                        solver: kind.name(),
                        samples: res_tail.tail(),
                        rollbacks: res_tail.rollbacks().to_vec(),
                        restarts: res_tail.restarts().to_vec(),
                        overwritten: res_tail.overwritten(),
                    });
                }
            }
            match solved {
                Ok(Ok((solutions, stats, recovery))) => {
                    if let Some(rec) = &recovery {
                        metrics
                            .faults_detected
                            .fetch_add(rec.faults_detected as u64, Ordering::Relaxed);
                        metrics
                            .rollbacks
                            .fetch_add(rec.rollbacks as u64, Ordering::Relaxed);
                        for _ in 0..rec.rollbacks {
                            events::emit(
                                &config.event_sink,
                                ServiceEvent::Rollback {
                                    trace_id: job.request.trace_id,
                                    class: job.request.qos,
                                },
                            );
                        }
                    }
                    break Ok((solutions, stats, recovery));
                }
                Ok(Err(e)) => {
                    if attempts < max_attempts && is_retryable(&e) {
                        metrics.retries.fetch_add(1, Ordering::Relaxed);
                        events::emit(
                            &config.event_sink,
                            ServiceEvent::Retry {
                                trace_id: job.request.trace_id,
                                class: job.request.qos,
                                attempt: attempts + 1,
                            },
                        );
                        if config.escalation_enabled {
                            if let Some(next) = escalate(kind) {
                                kind = next;
                                metrics.escalations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        std::thread::sleep(backoff_delay_jittered(
                            config.backoff_base,
                            config.backoff_cap,
                            attempts as u32,
                            job.id,
                        ));
                        continue;
                    }
                    break Err(ServiceError::Solver(e));
                }
                Err(payload) => {
                    if payload.as_ref().downcast_ref::<SupervisorAbort>().is_some() {
                        let after = job_started.elapsed();
                        events::emit(
                            &config.event_sink,
                            ServiceEvent::WorkerKilled {
                                trace_id: job.request.trace_id,
                                class: job.request.qos,
                                after_us: after.as_micros() as u64,
                            },
                        );
                        break Err(ServiceError::WorkerKilled { after });
                    }
                    break Err(ServiceError::WorkerPanic(panic_message(payload.as_ref())));
                }
            }
        };
        admission.release(job.request.qos, job.admission_us);
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        let result = match outcome {
            Ok((solutions, stats, recovery)) => {
                breaker.record_success(fingerprint);
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                // Calibrate the admission oracle on clean first-attempt
                // successes only: retries and fault-plan runs would
                // teach it the faults, not the costs.
                if attempts == 1 && job.request.fault_plan.is_none() && !stats.is_empty() {
                    let mean_iters = stats.iter().map(|s| s.iterations).sum::<usize>() as f64
                        / stats.len() as f64;
                    admission.observe(
                        job.request.matrix.n_rows(),
                        mean_iters,
                        machine.elapsed(),
                        job_started.elapsed(),
                    );
                }
                // `kind` is the post-escalation solver that produced
                // the outcome, not necessarily the one requested.
                metrics.record_solve_outcome(kind.name(), &job.request.scenario, true);
                metrics
                    .rhs_solved
                    .fetch_add(solutions.len() as u64, Ordering::Relaxed);
                let finished = Instant::now();
                metrics.observe_latency(finished.duration_since(job.submitted));
                Ok(SolveResponse {
                    job_id: job.id,
                    solutions,
                    stats,
                    fingerprint: plan.fingerprint,
                    plan_source: source,
                    plan_imbalance: plan.imbalance,
                    partitioner: plan.partitioner,
                    batched_with,
                    solver_used: kind,
                    attempts,
                    recovery,
                    trace: TraceSummary::from_trace(machine.trace()),
                    wait_time: started.duration_since(job.submitted),
                    solve_time: finished.duration_since(job_started),
                })
            }
            Err(e) => {
                breaker.record_failure(fingerprint);
                metrics.failed.fetch_add(1, Ordering::Relaxed);
                metrics.record_solve_outcome(kind.name(), &job.request.scenario, false);
                Err(e)
            }
        };
        // Terminal telemetry event: exactly one `Completed` per answered
        // handle, success or typed failure (the SLO tracker's unit of
        // account for latency and error-budget burn, and the flight
        // recorder's dump trigger via the outcome tag).
        events::emit(
            &config.event_sink,
            ServiceEvent::Completed {
                trace_id: job.request.trace_id,
                class: job.request.qos,
                latency_us: job.submitted.elapsed().as_micros() as u64,
                ok: result.is_ok(),
                outcome: match &result {
                    Ok(_) => "ok",
                    Err(e) => e.outcome(),
                },
            },
        );
        let _ = job.responder.send(result);
        if let Some(state) = worker_state {
            *state.current.lock() = None;
        }
    }
}

/// Best-effort rendering of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Dispatch one right-hand side to the requested distributed solver.
/// CG, PCG-Jacobi and MG-PCG are one [`pcg_distributed`] call, protected
/// by checkpoint/rollback when `opts.recovery` is set; `opts.precond` is
/// ignored and chosen by `kind`. `mg` is the plan's cached V-cycle
/// preconditioner; MG-PCG runs over the hierarchy's own `(BLOCK)` fine
/// operator (the level descriptors the transfers price against), not
/// the partitioned `op` the other methods use.
fn run_solver(
    kind: SolverKind,
    machine: &mut Machine,
    op: &RowwiseCsr,
    mg: Option<&hpf_mg::MgPreconditioner>,
    rhs: &[f64],
    opts: &SolveOptions,
    obs: &mut dyn IterObserver,
) -> Result<(Vec<f64>, SolveStats, Option<RecoveryStats>), SolverError> {
    let (stop, max_iters) = (opts.stop, opts.max_iters);
    let (x, s, rec) = match kind {
        SolverKind::Cg | SolverKind::PcgJacobi | SolverKind::PcgMg { .. } => {
            let (jacobi, fine);
            let (a, precond): (&RowwiseCsr, Option<&dyn DistPreconditioner>) = match kind {
                SolverKind::PcgJacobi => {
                    jacobi = JacobiPreconditioner::from_operator(op)?;
                    (op, Some(&jacobi))
                }
                SolverKind::PcgMg { .. } => {
                    let pre = mg.expect("validated: pcg-mg plans carry a hierarchy");
                    fine = pre.hierarchy().fine_operator();
                    (&fine, Some(pre))
                }
                _ => (op, None),
            };
            pcg_distributed(machine, a, rhs, &SolveOptions { precond, ..*opts }, obs)?
        }
        SolverKind::Bicg => {
            let (x, s) = bicg_distributed(machine, op, rhs, stop, max_iters, obs)?;
            (x, s, None)
        }
        SolverKind::Bicgstab => {
            let (x, s) = bicgstab_distributed(machine, op, rhs, stop, max_iters, obs)?;
            (x, s, None)
        }
        SolverKind::Gmres { restart } => {
            let (x, s) = gmres_distributed(machine, op, rhs, restart, stop, max_iters, obs)?;
            (x, s, None)
        }
    };
    Ok((x.to_global(), s, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{form_batch, Job};
    use crate::fingerprint::Fingerprint;
    use crate::request::SolveRequest;
    use crossbeam::channel::{unbounded, Receiver};
    use hpf_solvers::StopCriterion;
    use hpf_sparse::gen;
    use std::collections::VecDeque;
    use std::time::Duration;

    fn make_job(
        id: u64,
        matrix: &Arc<hpf_sparse::CsrMatrix>,
        rhs: Vec<Vec<f64>>,
    ) -> (Job, Receiver<Result<SolveResponse, ServiceError>>) {
        let (tx, rx) = unbounded();
        let mut request = SolveRequest::new(matrix.clone(), Vec::new());
        request.rhs = rhs;
        (
            Job {
                id,
                fingerprint: Fingerprint::of(matrix),
                request,
                submitted: Instant::now(),
                admission_us: 0,
                responder: tx,
            },
            rx,
        )
    }

    fn config(np: usize) -> ServiceConfig {
        ServiceConfig {
            np,
            ..ServiceConfig::default()
        }
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(0, Duration::ZERO)
    }

    fn admission(np: usize) -> AdmissionController {
        AdmissionController::new(&config(np))
    }

    #[test]
    fn batch_execution_answers_every_job_correctly() {
        let a = Arc::new(gen::banded_spd(48, 3, 9));
        let (b1, _x1) = gen::rhs_for_known_solution(&a);
        let (mut jobs, rxs): (Vec<_>, Vec<_>) =
            (0..3).map(|i| make_job(i, &a, vec![b1.clone()])).unzip();
        let seed = jobs.remove(0);
        let mut pending: VecDeque<Job> = jobs.into();
        let batch = form_batch(seed, &mut pending, 8);
        assert_eq!(batch.jobs.len(), 3);

        let cache = Mutex::new(PlanCache::new(8));
        let metrics = Metrics::new();
        metrics.in_flight.fetch_add(3, Ordering::Relaxed);
        execute_batch(
            batch,
            &cache,
            &config(4),
            &metrics,
            &breaker(),
            &admission(4),
            None,
        );

        for rx in rxs {
            let resp = rx.recv().unwrap().unwrap();
            assert_eq!(resp.batched_with, 2);
            assert!(resp.stats[0].converged);
            let ax = a.matvec(&resp.solutions[0]).unwrap();
            let res: f64 = ax
                .iter()
                .zip(&b1)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b1.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(res <= 1e-6 * bn, "residual {res} vs ||b|| {bn}");
            assert!(resp.trace.events > 0);
            assert!(!resp.trace.by_label.is_empty());
        }
        let s = metrics.snapshot();
        assert_eq!(s.completed, 3);
        assert_eq!(s.partitioner_invocations, 1);
        assert_eq!(s.batches_executed, 1);
        assert_eq!(s.batched_jobs, 3);
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn expired_jobs_are_shed_with_a_typed_error() {
        let a = Arc::new(gen::tridiagonal(16, 4.0, -1.0));
        let (mut job, rx) = make_job(1, &a, vec![vec![1.0; 16]]);
        job.request.deadline = Some(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        let metrics = Metrics::new();
        metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let cache = Mutex::new(PlanCache::new(2));
        execute_batch(
            Batch { jobs: vec![job] },
            &cache,
            &config(2),
            &metrics,
            &breaker(),
            &admission(2),
            None,
        );
        match rx.recv().unwrap() {
            Err(ServiceError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_nanos(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let s = metrics.snapshot();
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.completed, 0);
        // No partitioning happened for a job that never ran.
        assert_eq!(s.partitioner_invocations, 0);
    }

    #[test]
    fn cache_disabled_partitions_every_batch() {
        let a = Arc::new(gen::banded_spd(32, 2, 4));
        let cache = Mutex::new(PlanCache::new(4));
        let metrics = Metrics::new();
        let mut cfg = config(4);
        cfg.plan_cache_enabled = false;
        for i in 0..3 {
            let (job, rx) = make_job(i, &a, vec![vec![1.0; 32]]);
            metrics.in_flight.fetch_add(1, Ordering::Relaxed);
            execute_batch(
                Batch { jobs: vec![job] },
                &cache,
                &cfg,
                &metrics,
                &breaker(),
                &admission(4),
                None,
            );
            assert!(rx.recv().unwrap().is_ok());
        }
        let s = metrics.snapshot();
        assert_eq!(s.partitioner_invocations, 3);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
    }

    #[test]
    fn solver_failure_is_reported_not_panicked() {
        // CG on a non-symmetric matrix must surface a typed error.
        let coo = hpf_sparse::CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0), (2, 2, 2.0)],
        )
        .unwrap();
        let a = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
        let (job, rx) = make_job(1, &a, vec![vec![1.0; 3]]);
        let cache = Mutex::new(PlanCache::new(2));
        let metrics = Metrics::new();
        metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        execute_batch(
            Batch { jobs: vec![job] },
            &cache,
            &config(2),
            &metrics,
            &breaker(),
            &admission(2),
            None,
        );
        let out = rx.recv().unwrap();
        assert!(matches!(out, Err(ServiceError::Solver(_))) || out.is_ok());
    }

    /// The HPCG-class path end to end at the worker level: an MG-PCG
    /// job solves through the plan's cached hierarchy, the trace carries
    /// the V-cycle labels, and a second batch reuses the cached
    /// (depth-keyed) plan without re-partitioning.
    #[test]
    fn hpcg_jobs_run_mg_pcg_through_the_cached_hierarchy() {
        use hpf_mg::GridDims;
        let dims = GridDims::d2(15, 15);
        let cache = Mutex::new(PlanCache::new(4));
        let metrics = Metrics::new();
        for round in 0..2 {
            let mut request = SolveRequest::hpcg(dims, 3, vec![1.0; dims.n()]);
            request.stop = StopCriterion::RelativeResidual(1e-8);
            let (tx, rx) = unbounded();
            let job = Job {
                id: round,
                fingerprint: Fingerprint::of(&request.matrix),
                request,
                submitted: Instant::now(),
                admission_us: 0,
                responder: tx,
            };
            metrics.in_flight.fetch_add(1, Ordering::Relaxed);
            execute_batch(
                Batch { jobs: vec![job] },
                &cache,
                &config(4),
                &metrics,
                &breaker(),
                &admission(4),
                None,
            );
            let resp = rx.recv().unwrap().unwrap();
            assert!(resp.stats[0].converged);
            assert_eq!(resp.solver_used.name(), "pcg-mg");
            let labels: Vec<&str> = resp
                .trace
                .by_label
                .iter()
                .map(|l| l.label.as_str())
                .collect();
            // Redistribute labels are split per level by
            // `summary_by_label` ("mg-restrict [level=0]", ...).
            for want in ["mg-smooth", "mg-halo", "mg-restrict", "mg-prolong"] {
                assert!(
                    labels.iter().any(|l| l.starts_with(want)),
                    "missing {want} in {labels:?}"
                );
            }
            assert!(
                labels.iter().any(|l| l.contains("[level=1]")),
                "no per-level split in {labels:?}"
            );
        }
        let s = metrics.snapshot();
        assert_eq!(s.completed, 2);
        // One partition (and one hierarchy build) served both rounds.
        assert_eq!(s.partitioner_invocations, 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn multi_rhs_job_returns_one_solution_per_rhs() {
        let a = Arc::new(gen::banded_spd(24, 2, 7));
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..24).map(|i| ((i + k) % 5) as f64).collect())
            .collect();
        let (job, rx) = make_job(1, &a, rhs.clone());
        let cache = Mutex::new(PlanCache::new(2));
        let metrics = Metrics::new();
        metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        execute_batch(
            Batch { jobs: vec![job] },
            &cache,
            &config(4),
            &metrics,
            &breaker(),
            &admission(2),
            None,
        );
        let resp = rx.recv().unwrap().unwrap();
        assert_eq!(resp.solutions.len(), 4);
        assert_eq!(resp.stats.len(), 4);
        for (x, b) in resp.solutions.iter().zip(&rhs) {
            let ax = a.matvec(x).unwrap();
            let res: f64 = ax
                .iter()
                .zip(b)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(res <= 1e-6 * bn.max(1.0), "residual {res}");
        }
        assert_eq!(metrics.snapshot().rhs_solved, 4);
    }
}
