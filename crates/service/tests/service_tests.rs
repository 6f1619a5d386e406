//! End-to-end tests through a running [`SolverService`]: real threads,
//! real bounded queues, real plan cache.

use hpf_machine::Topology;
use hpf_service::{
    PlanSource, QosClass, ServiceConfig, ServiceError, SolvePlan, SolveRequest, SolverKind,
    SolverService,
};
use hpf_solvers::StopCriterion;
use hpf_sparse::gen;
use std::sync::Arc;
use std::time::Duration;

fn residual_ok(a: &hpf_sparse::CsrMatrix, x: &[f64], b: &[f64], tol: f64) -> bool {
    let ax = a.matvec(x).unwrap();
    let res: f64 = ax
        .iter()
        .zip(b)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    res <= tol * bn.max(1.0)
}

/// Acceptance criterion from the issue: at least 32 queued solves that
/// share one structure, with the plan cache on, run the partitioner
/// exactly once.
#[test]
fn thirty_three_same_structure_jobs_partition_exactly_once() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        np: 8,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::power_law_spd(96, 12, 0.9, 21));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    let handles: Vec<_> = (0..33)
        .map(|_| {
            service
                .submit(SolveRequest::new(a.clone(), b.clone()))
                .expect("queue sized to hold every job")
        })
        .collect();
    let mut built = 0usize;
    for h in handles {
        let resp = h.wait().unwrap();
        assert!(resp.stats[0].converged);
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
        if resp.plan_source == PlanSource::Built {
            built += 1;
        }
    }

    let m = service.shutdown();
    assert_eq!(m.accepted, 33);
    assert_eq!(m.completed, 33);
    assert_eq!(m.failed, 0);
    assert_eq!(m.in_flight, 0);
    // The heart of the subsystem: one partition served 33 solves.
    assert_eq!(
        m.partitioner_invocations, 1,
        "plan cache must reuse the partition"
    );
    assert_eq!(m.cache_misses, 1);
    assert!(built >= 1, "some batch must have built the plan");
    assert_eq!(m.rhs_solved, 33);
}

/// With the cache disabled every batch re-partitions; batching is also
/// off here so each job is its own batch.
#[test]
fn cache_off_partitions_per_job() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        plan_cache_enabled: false,
        batching_enabled: false,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(40, 3, 5));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit(SolveRequest::new(a.clone(), b.clone()))
                .unwrap()
        })
        .collect();
    for h in handles {
        let resp = h.wait().unwrap();
        assert_eq!(resp.plan_source, PlanSource::Built);
        assert_eq!(resp.batched_with, 0);
    }
    let m = service.shutdown();
    assert_eq!(m.partitioner_invocations, 4);
    assert_eq!(m.cache_hits, 0);
}

/// A full bounded queue rejects with a typed `Busy` error instead of
/// blocking the submitter; already-accepted work still completes.
#[test]
fn full_queue_rejects_with_busy() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        batching_enabled: false,
        np: 4,
        ..ServiceConfig::default()
    });
    // Heavy enough that the single worker lags far behind the submit loop.
    let a = Arc::new(gen::power_law_spd(256, 16, 0.9, 3));
    let rhs: Vec<Vec<f64>> = (0..4)
        .map(|k| (0..256).map(|i| ((i * 7 + k) % 11) as f64).collect())
        .collect();

    let mut saw_busy = false;
    let mut handles = Vec::new();
    for _ in 0..200 {
        match service.submit(SolveRequest::with_rhs_set(a.clone(), rhs.clone())) {
            Ok(h) => handles.push(h),
            Err(ServiceError::Busy { queue_capacity }) => {
                assert_eq!(queue_capacity, 2);
                saw_busy = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        saw_busy,
        "a 2-slot queue must overflow under a 200-job burst"
    );
    for h in handles {
        assert!(h.wait().is_ok());
    }
    let m = service.shutdown();
    assert!(m.rejected_busy >= 1);
    assert_eq!(m.failed, 0);
    assert_eq!(m.in_flight, 0);
}

/// Acceptance criterion from the issue: a deadline-exceeded request
/// returns a typed error rather than hanging the pool — and the pool
/// keeps serving afterwards.
#[test]
fn deadline_exceeded_is_typed_and_pool_survives() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(32, 2, 8));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    // A 1 ns deadline has always passed by the time a worker gets the
    // job, so the shed path triggers deterministically.
    let doomed = service
        .submit(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_nanos(1)))
        .unwrap();
    match doomed.wait() {
        Err(ServiceError::DeadlineExceeded { waited }) => {
            assert!(waited >= Duration::from_nanos(1));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The pool is alive and the next job solves normally.
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .unwrap();
    assert!(resp.stats[0].converged);
    let m = service.shutdown();
    assert_eq!(m.deadline_exceeded, 1);
    assert_eq!(m.completed, 1);
    assert_eq!(m.in_flight, 0);
    // The doomed job never reached the partitioner or the solver.
    assert_eq!(m.rhs_solved, 1);
}

/// CI hook: the same structural fingerprint must always map to the same
/// plan, both via direct builds and through a running service.
#[test]
fn plan_cache_determinism_same_fingerprint_same_plan() {
    // Two matrices, identical structure, different values.
    let a1 = gen::power_law_spd(120, 18, 1.0, 13);
    let mut a2 = a1.clone();
    a2.scale(3.25);

    let p1 = SolvePlan::build(&a1, 8, Topology::Hypercube);
    let p2 = SolvePlan::build(&a2, 8, Topology::Hypercube);
    assert_eq!(p1.fingerprint, p2.fingerprint);
    assert_eq!(p1.row_cuts, p2.row_cuts);
    assert_eq!(p1.loads, p2.loads);
    assert_eq!(p1.imbalance.to_bits(), p2.imbalance.to_bits());
    assert_eq!(p1.trio_descriptors(), p2.trio_descriptors());

    // Through the service: two runs report the same fingerprint and the
    // same plan imbalance for structurally identical inputs.
    let run = |m: hpf_sparse::CsrMatrix| {
        let service = SolverService::start(ServiceConfig {
            workers: 1,
            np: 8,
            ..ServiceConfig::default()
        });
        let m = Arc::new(m);
        let (b, _x) = gen::rhs_for_known_solution(&m);
        let resp = service.solve(SolveRequest::new(m, b)).unwrap();
        (resp.fingerprint, resp.plan_imbalance.to_bits())
    };
    assert_eq!(run(a1), run(a2));
}

/// A solver-level failure is reported as a typed error for that job
/// only; the worker thread keeps serving.
#[test]
fn solver_failure_does_not_poison_the_pool() {
    // Retry/escalation off so the breakdown surfaces instead of being
    // healed by the fallback chain (which has its own test).
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        max_attempts: 1,
        escalation_enabled: false,
        ..ServiceConfig::default()
    });
    // CG breaks down deterministically on this indefinite system:
    // A = [[0,1],[1,0]], b = [1,0] gives p·Ap = 0 in the first step.
    let coo = hpf_sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let bad = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
    let out = service.solve(SolveRequest::new(bad, vec![1.0, 0.0]));
    assert!(matches!(out, Err(ServiceError::Solver(_))));

    let a = Arc::new(gen::tridiagonal(16, 4.0, -1.0));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let resp = service.solve(SolveRequest::new(a, b)).unwrap();
    assert!(resp.stats[0].converged);
    let m = service.shutdown();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 1);
}

/// Malformed requests are rejected up front with a typed error and never
/// consume a queue slot.
#[test]
fn invalid_requests_fail_fast() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));

    let wrong_len = service.submit(SolveRequest::new(a.clone(), vec![1.0; 5]));
    assert!(matches!(wrong_len, Err(ServiceError::InvalidRequest(_))));

    let no_rhs = service.submit(SolveRequest::with_rhs_set(a.clone(), Vec::new()));
    assert!(matches!(no_rhs, Err(ServiceError::InvalidRequest(_))));

    let zero_iters = service.submit(SolveRequest::new(a.clone(), vec![1.0; 8]).max_iters(0));
    assert!(matches!(zero_iters, Err(ServiceError::InvalidRequest(_))));

    let bad_partitioner =
        service.submit(SolveRequest::new(a.clone(), vec![1.0; 8]).partitioner("metis"));
    match bad_partitioner {
        Err(ServiceError::InvalidRequest(why)) => {
            assert!(why.contains("metis"), "{why}");
            assert!(why.contains("balanced-rows"), "{why}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }

    let m = service.shutdown();
    assert_eq!(m.rejected_invalid, 4);
    assert_eq!(m.accepted, 0);
}

/// GMRES with a zero restart length is refused up front, not accepted
/// and then answered with a worker panic.
#[test]
fn gmres_zero_restart_is_an_invalid_request() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
    let zero = service.submit(
        SolveRequest::new(a.clone(), vec![1.0; 8]).solver(SolverKind::Gmres { restart: 0 }),
    );
    match zero {
        Err(ServiceError::InvalidRequest(why)) => assert!(why.contains("restart"), "{why}"),
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    let one =
        service.solve(SolveRequest::new(a, vec![1.0; 8]).solver(SolverKind::Gmres { restart: 1 }));
    assert!(one.unwrap().stats[0].converged);
    let m = service.shutdown();
    assert_eq!((m.rejected_invalid, m.accepted, m.failed), (1, 1, 0));
}

/// Every registered partitioner solves end to end, and the response
/// reports the one that laid out the plan. Each (structure, partitioner)
/// pair builds its own cached plan.
#[test]
fn every_partitioner_solves_through_the_service() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::power_law_spd(80, 14, 0.9, 17));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    for name in hpf_partition::partitioner_names() {
        let resp = service
            .solve(SolveRequest::new(a.clone(), b.clone()).partitioner(name))
            .unwrap();
        assert_eq!(resp.partitioner, name);
        assert!(resp.stats[0].converged, "{name}");
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6), "{name}");
    }

    assert_eq!(
        service.cached_plans(),
        hpf_partition::partitioner_names().len()
    );
    let m = service.shutdown();
    assert_eq!(m.partitioner_invocations, 4);
    assert_eq!(m.completed, 4);
}

/// Every configured solver kind works end to end on an SPD system.
#[test]
fn all_solver_kinds_run_through_the_service() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(40, 2, 17));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    for kind in [
        SolverKind::Cg,
        SolverKind::PcgJacobi,
        SolverKind::Bicg,
        SolverKind::Bicgstab,
        SolverKind::Gmres { restart: 20 },
    ] {
        let resp = service
            .solve(
                SolveRequest::new(a.clone(), b.clone())
                    .solver(kind)
                    .stop(StopCriterion::RelativeResidual(1e-8)),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
        assert!(resp.stats[0].converged, "{} did not converge", kind.name());
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
        assert!(resp.trace.events > 0);
    }
    drop(service);
}

/// The HPCG-class scenario end to end: a `SolveRequest::hpcg` runs
/// MG-PCG over the service's cached hierarchy, the answer satisfies the
/// Poisson system, and the per-level V-cycle attribution survives into
/// the response's trace summary.
#[test]
fn hpcg_scenario_solves_end_to_end_with_per_level_spans() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 4,
        ..ServiceConfig::default()
    });
    let dims = hpf_mg::GridDims::d2(15, 15);
    let a = dims.poisson();
    let (_x, b) = gen::rhs_for_known_solution(&a);

    for _ in 0..2 {
        let req =
            SolveRequest::hpcg(dims, 3, b.clone()).stop(StopCriterion::RelativeResidual(1e-8));
        assert_eq!(req.scenario, "hpcg");
        let resp = service.solve(req).expect("hpcg request must be answered");
        assert!(resp.stats[0].converged);
        assert_eq!(resp.solver_used.name(), "pcg-mg");
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
        let labels: Vec<&str> = resp
            .trace
            .by_label
            .iter()
            .map(|l| l.label.as_str())
            .collect();
        assert!(
            labels.iter().any(|l| l.starts_with("mg-smooth")),
            "{labels:?}"
        );
        for level in [0, 1] {
            assert!(
                labels
                    .iter()
                    .any(|l| l.ends_with(&format!("[level={level}]"))),
                "no level-{level} attribution in {labels:?}"
            );
        }
    }

    // Second round hit the depth-keyed plan cache.
    let m = service.shutdown();
    assert_eq!(m.completed, 2);
    assert_eq!(m.partitioner_invocations, 1);

    // A pcg-mg request without grid dims is refused up front.
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let bad =
        SolveRequest::new(Arc::new(a.clone()), b.clone()).solver(SolverKind::PcgMg { levels: 3 });
    match service.solve(bad) {
        Err(ServiceError::InvalidRequest(why)) => assert!(why.contains("grid"), "{why}"),
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
}

/// CG breakdown on an indefinite system is healed by the escalation
/// chain: the job is answered (by GMRES, the chain's end) and the retry
/// and escalation counters record the path taken.
#[test]
fn breakdown_is_healed_by_escalation() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        ..ServiceConfig::default()
    });
    // p·Ap = 0 on the first CG step; BiCGSTAB also breaks down here, so
    // the chain must walk CG → BiCGSTAB → GMRES.
    let coo = hpf_sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let a = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
    let b = vec![1.0, 0.0];
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .expect("escalation must answer the job");
    assert!(resp.stats[0].converged);
    assert!(matches!(resp.solver_used, SolverKind::Gmres { .. }));
    assert!(resp.attempts >= 2);
    assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));

    let m = service.shutdown();
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 0);
    assert!(m.retries >= 1, "retries: {}", m.retries);
    assert!(m.escalations >= 1, "escalations: {}", m.escalations);
}

/// A structure that keeps failing trips its circuit breaker: further
/// jobs on the same fingerprint are refused with a typed error instead
/// of burning a worker.
#[test]
fn repeated_failures_open_the_circuit_breaker() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        max_attempts: 1,
        escalation_enabled: false,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(30),
        ..ServiceConfig::default()
    });
    let coo = hpf_sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let a = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
    let b = vec![1.0, 0.0];

    for _ in 0..2 {
        let out = service.solve(SolveRequest::new(a.clone(), b.clone()));
        assert!(matches!(out, Err(ServiceError::Solver(_))));
    }
    let refused = service.solve(SolveRequest::new(a.clone(), b.clone()));
    assert!(
        matches!(refused, Err(ServiceError::CircuitOpen { .. })),
        "third job must be refused: {refused:?}"
    );
    assert_eq!(service.open_circuits(), 1);

    // A different (healthy) structure is unaffected.
    let good = Arc::new(gen::tridiagonal(16, 4.0, -1.0));
    let (gb, _x) = gen::rhs_for_known_solution(&good);
    assert!(service.solve(SolveRequest::new(good, gb)).is_ok());

    let m = service.shutdown();
    assert_eq!(m.breaker_open, 1);
    assert_eq!(m.failed, 3);
    assert_eq!(m.completed, 1);
}

/// A request carrying a fault plan runs under injection on the first
/// attempt; the protected solver rides it out and the response reports
/// the recovery work.
#[test]
fn fault_plan_jobs_recover_and_report() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(64, 3, 9));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let plan = hpf_machine::FaultPlan::new()
        .with_crash(25, 1)
        .with_message_drop(60, 2);
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()).fault_plan(plan))
        .expect("protected CG must survive the plan");
    assert!(resp.stats[0].converged);
    assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
    let rec = resp.recovery.expect("protected solver reports recovery");
    assert!(rec.checkpoints >= 1);
    assert!(rec.faults_detected >= 1);

    let m = service.shutdown();
    assert!(
        m.faults_injected >= 2,
        "faults_injected: {}",
        m.faults_injected
    );
    assert!(m.faults_detected >= 1);
    assert_eq!(m.completed, 1);
}

/// Shutdown answers still-queued jobs with a typed `Shutdown` error —
/// nobody hangs on a dropped responder — while jobs already executing
/// run to completion.
#[test]
fn shutdown_drains_queued_jobs_with_typed_errors() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        np: 4,
        batching_enabled: false,
        ..ServiceConfig::default()
    });
    // A deliberately slow head job: one structure, many right-hand
    // sides, tight tolerance.
    let slow_a = Arc::new(gen::poisson_2d(40, 40));
    let (sb, _x) = gen::rhs_for_known_solution(&slow_a);
    let slow = service
        .submit(SolveRequest::with_rhs_set(
            slow_a.clone(),
            vec![sb.clone(); 24],
        ))
        .unwrap();
    // Wait until the worker has actually picked the slow job up, so
    // "in-flight work finishes" is deterministic below.
    while service.metrics().batches_executed == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Distinct structures behind it, so each is its own batch.
    let queued: Vec<_> = (0..8)
        .map(|i| {
            let a = Arc::new(gen::banded_spd(32, 2, 100 + i));
            let (b, _x) = gen::rhs_for_known_solution(&a);
            service.submit(SolveRequest::new(a, b)).unwrap()
        })
        .collect();

    let metrics = service.shutdown();

    let slow_out = slow.wait();
    assert!(
        matches!(&slow_out, Ok(r) if r.stats.len() == 24),
        "the in-flight job finishes: {slow_out:?}"
    );
    let mut drained = 0usize;
    for h in queued {
        match h.wait() {
            Ok(r) => assert!(r.stats[0].converged),
            Err(ServiceError::Shutdown) => drained += 1,
            Err(e) => panic!("unexpected error during drain: {e}"),
        }
    }
    assert!(drained >= 1, "at least one queued job is drained");
    assert_eq!(metrics.completed + metrics.failed, 9);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(metrics.failed as usize, drained);
}

/// Tentpole acceptance: once the admission oracle has a calibration
/// sample, a deadline no prediction can meet is refused at `submit`
/// with a typed `Shed` — before the job consumes a queue slot — while
/// feasible deadlines keep flowing.
#[test]
fn calibrated_admission_sheds_impossible_deadlines_at_submit() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        admission_min_samples: 1,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(256, 3, 11));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    // One clean solve teaches the oracle this structure's wall cost.
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .unwrap();
    assert!(resp.stats[0].converged);

    // A 1 ns budget sits far below any calibrated prediction.
    let out =
        service.submit(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_nanos(1)));
    match out {
        Err(ServiceError::Shed { predicted, budget }) => {
            assert_eq!(budget, Duration::from_nanos(1));
            assert!(predicted > budget, "{predicted:?} vs {budget:?}");
        }
        other => panic!("expected Shed, got {other:?}"),
    }

    // A generous deadline is still admitted and solved.
    let ok = service
        .solve(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_secs(3600)))
        .unwrap();
    assert!(ok.stats[0].converged);

    let m = service.shutdown();
    assert_eq!(m.shed_total, 1);
    assert_eq!(m.accepted, 2);
    assert_eq!(m.completed, 2);
    assert_eq!(m.failed, 0);
}

/// Tentpole acceptance: with the single worker pinned by a slow batch
/// job, best-effort work submitted *first* still runs *after* the
/// interactive work that arrived later — weighted-fair dequeue, not
/// arrival order.
#[test]
fn interactive_jobs_overtake_best_effort_under_load() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        np: 4,
        batching_enabled: false,
        ..ServiceConfig::default()
    });
    // A slow head job pins the worker while the contest queues up.
    let slow_a = Arc::new(gen::poisson_2d(32, 32));
    let (sb, _x) = gen::rhs_for_known_solution(&slow_a);
    let blocker = service
        .submit(SolveRequest::with_rhs_set(slow_a.clone(), vec![sb; 8]))
        .unwrap();
    while service.metrics().batches_executed == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Two decoys park the dispatcher: one fills the worker hand-off
    // channel, the next blocks the dispatcher mid-send. Everything
    // submitted afterwards is dequeued in one weighted pass.
    let decoys: Vec<_> = (0..2)
        .map(|i| {
            let a = Arc::new(gen::banded_spd(32, 2, 200 + i));
            let (b, _x) = gen::rhs_for_known_solution(&a);
            service
                .submit(SolveRequest::new(a, b).qos(QosClass::Interactive))
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let order = Arc::new(parking_lot::Mutex::new(Vec::<char>::new()));
    let mut contest = Vec::new();
    // Best-effort first: heavy enough that the completion gap at the
    // class boundary dwarfs waiter-thread wake-up jitter.
    for i in 0..3u64 {
        let a = Arc::new(gen::power_law_spd(256, 16, 0.9, 50 + i));
        let (b, _x) = gen::rhs_for_known_solution(&a);
        let h = service
            .submit(SolveRequest::new(a, b).qos(QosClass::BestEffort))
            .unwrap();
        let order = order.clone();
        contest.push(std::thread::spawn(move || {
            assert!(h.wait().is_ok());
            order.lock().push('B');
        }));
    }
    for i in 0..3u64 {
        let a = Arc::new(gen::banded_spd(48, 2, 300 + i));
        let (b, _x) = gen::rhs_for_known_solution(&a);
        let h = service
            .submit(SolveRequest::new(a, b).qos(QosClass::Interactive))
            .unwrap();
        let order = order.clone();
        contest.push(std::thread::spawn(move || {
            assert!(h.wait().is_ok());
            order.lock().push('I');
        }));
    }

    assert!(blocker.wait().is_ok());
    for d in decoys {
        assert!(d.wait().is_ok());
    }
    for t in contest {
        t.join().unwrap();
    }
    let observed: String = order.lock().iter().collect();
    assert_eq!(
        observed, "IIIBBB",
        "interactive must drain before best-effort"
    );
    let m = service.shutdown();
    assert_eq!(m.completed, 9);
}

/// Tentpole acceptance: a worker hung mid-solve (wall-clock stall fault,
/// no heartbeats) is killed by the supervisor — the job is answered with
/// a typed `WorkerKilled`, the worker is respawned, and the pool keeps
/// serving.
#[test]
fn hung_worker_is_killed_and_respawned() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        supervisor_poll: Duration::from_millis(10),
        breaker_threshold: 10,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(64, 3, 7));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    // A 600 ms stall on processor 0, six times the hang timeout:
    // heartbeats stop, the supervisor flags the worker, and the next
    // machine operation observes the abort.
    let plan = hpf_machine::FaultPlan::new().with_stall(30, 0, 600);
    let doomed = service
        .submit(SolveRequest::new(a.clone(), b.clone()).fault_plan(plan))
        .unwrap();
    match doomed.wait() {
        Err(ServiceError::WorkerKilled { after }) => {
            assert!(after >= Duration::from_millis(100), "{after:?}");
        }
        other => panic!("expected WorkerKilled, got {other:?}"),
    }

    // The respawned worker answers the next job.
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .unwrap();
    assert!(resp.stats[0].converged);

    let m = service.shutdown();
    assert!(m.supervisor_kills >= 1, "kills: {}", m.supervisor_kills);
    assert!(m.worker_restarts >= 1, "restarts: {}", m.worker_restarts);
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 1);
    assert_eq!(m.in_flight, 0);
}

/// Satellite property: `shutdown` racing a full queue yields exactly
/// one terminal response per accepted job. `wait` consuming the
/// one-shot responder makes "at most once" structural; what this
/// exercises is "at least once" — nothing hangs, nothing is dropped —
/// plus a balanced completed/failed ledger, across class mixes,
/// deadlines, and batching on/off.
#[test]
fn shutdown_with_full_queue_answers_every_accepted_job_exactly_once() {
    for round in 0..3u64 {
        let service = SolverService::start(ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            np: 4,
            batching_enabled: round % 2 == 0,
            ..ServiceConfig::default()
        });
        let mats: Vec<Arc<hpf_sparse::CsrMatrix>> = (0..3)
            .map(|s| Arc::new(gen::power_law_spd(160, 12, 0.9, 40 + round * 3 + s)))
            .collect();
        let mut state = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut handles = Vec::new();
        let mut overflowed = 0u64;
        for _ in 0..60 {
            let a = &mats[(next() % 3) as usize];
            let (b, _x) = gen::rhs_for_known_solution(a);
            let mut req = SolveRequest::new(a.clone(), b).qos(QosClass::ALL[(next() % 3) as usize]);
            if next() % 4 == 0 {
                // Some deadlines are generous, some already hopeless.
                req = req.deadline(if next() % 2 == 0 {
                    Duration::from_secs(600)
                } else {
                    Duration::from_nanos(1)
                });
            }
            match service.submit(req) {
                Ok(h) => handles.push(h),
                Err(ServiceError::Busy { .. }) => overflowed += 1,
                // Once calibrated, the hopeless deadlines are refused
                // up front; they get no handle and owe no response.
                Err(ServiceError::Shed { .. }) => {}
                Err(e) => panic!("round {round}: unexpected submit error: {e}"),
            }
        }
        assert!(overflowed >= 1, "round {round}: the queue never filled");
        let accepted = handles.len() as u64;

        // Shut down while the class queues are still loaded.
        let m = service.shutdown();

        let mut terminal = 0u64;
        for h in handles {
            match h.wait() {
                Ok(resp) => {
                    assert!(resp.stats.iter().all(|s| s.converged));
                    terminal += 1;
                }
                Err(ServiceError::Shutdown) | Err(ServiceError::DeadlineExceeded { .. }) => {
                    terminal += 1;
                }
                Err(e) => panic!("round {round}: unexpected terminal error: {e}"),
            }
        }
        assert_eq!(terminal, accepted, "round {round}");
        assert_eq!(m.accepted, accepted, "round {round}");
        assert_eq!(m.completed + m.failed, accepted, "round {round}");
        assert_eq!(m.in_flight, 0, "round {round}");
    }
}
