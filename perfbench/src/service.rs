//! The service workloads: closed-loop callers against a started
//! `SolverService`, timed around `submit` and `JobHandle::wait`.

use crate::check::check_solution;
use crate::pace::Pacer;
use crate::rng::Rng;
use crate::solver::{write_spans, System};
use crate::spans::{totals, Recorder};
use crate::stats::{mean, median, percentile};
use crate::timed::TimedOp;
use crate::{machine, probes, stop, Metrics, Outcome, Run, Tally, Workload, TOL};
use hpf_core::{DistVector, RowwiseCsr};
use hpf_machine::{Machine, Topology};
use hpf_mg::GridDims;
use hpf_service::{
    PlanSource, QosClass, ServiceConfig, SolvePlan, SolveRequest, SolverKind, SolverService,
};
use hpf_solvers::{
    cg, cg_distributed_protected, pcg, pcg_jacobi_distributed_protected, DistOperator, JacobiPrec,
    RecoveryConfig, RecoveryStats, SolveStats, SolverError,
};
use hpf_sparse::{gen, CsrMatrix};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Structures every caller reuses, so their plans are cached.
const CACHED: usize = 4;
/// Unknowns per job: `N_MIN + below(N_SPREAD)`.
const N_MIN: u64 = 380;
const N_SPREAD: u64 = 41;
const INTERACTIVE_CALLERS: usize = 2;
const INTERACTIVE_DEADLINE: Duration = Duration::from_secs(1);
const BATCH_WINDOW: usize = 32;
/// Every `FRESH_EVERY`-th batch job arrives on a new structure.
const FRESH_EVERY: usize = 4;
const FRESH_PARTITIONER: &str = "greedy-hypergraph";
const SETUP_REPEATS: usize = 7;
/// Fresh structures the traced run times the partitioner on.
const PARTITION_SAMPLES: usize = 16;
/// Jobs a second needs for its p99 to have at least ten samples above it.
const MIN_SECOND_SAMPLES: usize = 1000;
/// The multigrid hierarchy a job-sized grid would need (n = 400).
const JOB_GRID: (usize, usize) = (20, 20);
/// Traffic runs in rounds this long, with nothing outstanding between
/// them, where the pacer measures the host.
const ROUND: Duration = Duration::from_secs(1);
/// Reference sweeps per measurement, about 17 ms: too short to pace one
/// round, so a run is paced by the median of its measurements.
const ROUND_SWEEPS: usize = 25;

/// The seed's cached structures: random sparse SPD matrices.
pub fn cached_structures(seed: u64) -> Vec<Arc<CsrMatrix>> {
    let mut rng = Rng::new(seed, 10);
    (0..CACHED)
        .map(|_| {
            let n = (N_MIN + rng.below(N_SPREAD)) as usize;
            Arc::new(gen::random_spd(n, 4, rng.next_u64()))
        })
        .collect()
}

/// Fresh power-law structure `i` of the seed.
pub fn fresh_structure(seed: u64, i: u64) -> Arc<CsrMatrix> {
    let mut rng = Rng::new(seed, 20_000 + i);
    let n = (N_MIN + rng.below(N_SPREAD)) as usize;
    Arc::new(gen::power_law_spd(n, 24, 0.8, rng.next_u64()))
}

/// A request plus what the check needs once it is answered.
pub struct Job {
    pub request: SolveRequest,
    pub matrix: Arc<CsrMatrix>,
    pub rhs: Vec<f64>,
    /// A structure no earlier job used.
    pub fresh: bool,
}

impl Job {
    fn new(matrix: Arc<CsrMatrix>, rhs: Vec<f64>) -> Job {
        let request = SolveRequest::new(matrix.clone(), rhs.clone());
        Job {
            request,
            matrix,
            rhs,
            fresh: false,
        }
    }
}

/// The next job of an interactive caller: a cached structure, CG or
/// Jacobi PCG, `Interactive` QoS with a deadline.
pub fn interactive_job(cached: &[Arc<CsrMatrix>], rng: &mut Rng) -> Job {
    let a = cached[rng.below(CACHED as u64) as usize].clone();
    let kind = if rng.below(2) == 0 {
        SolverKind::Cg
    } else {
        SolverKind::PcgJacobi
    };
    let rhs = rng.vector(a.n_rows());
    let mut job = Job::new(a, rhs);
    job.request = job
        .request
        .solver(kind)
        .qos(QosClass::Interactive)
        .deadline(INTERACTIVE_DEADLINE);
    job
}

/// Job `i` of the batch caller: CG at `Batch` QoS with no deadline;
/// every fourth on a fresh power-law structure laid out by the
/// hypergraph partitioner.
pub fn batch_job(seed: u64, cached: &[Arc<CsrMatrix>], rng: &mut Rng, i: usize) -> Job {
    if i % FRESH_EVERY == FRESH_EVERY - 1 {
        let a = fresh_structure(seed, i as u64);
        let rhs = rng.vector(a.n_rows());
        let mut job = Job::new(a, rhs);
        job.request = job.request.partitioner(FRESH_PARTITIONER);
        job.fresh = true;
        job
    } else {
        let a = cached[rng.below(CACHED as u64) as usize].clone();
        let rhs = rng.vector(a.n_rows());
        Job::new(a, rhs)
    }
}

/// What a caller saw of one answered job.
#[derive(Debug, Clone)]
pub struct JobObs {
    /// When the answer arrived, in seconds since the traffic started.
    pub end_s: f64,
    pub submit_s: f64,
    pub latency_s: f64,
    pub wait_s: f64,
    pub solve_s: f64,
    pub batched_with: usize,
    pub hit: bool,
    pub attempts: usize,
    pub events: usize,
    pub iters: usize,
    /// Simulated seconds: the sum of the job's trace event times.
    pub sim_s: f64,
}

struct Pending {
    handle: hpf_service::JobHandle,
    t0: Instant,
    submit_s: f64,
    matrix: Arc<CsrMatrix>,
    rhs: Vec<f64>,
}

/// Submit one job; `Err` is already counted in `tally`.
fn submit(
    svc: &SolverService,
    job: Job,
    rec: Option<&Recorder>,
    tally: &mut Tally,
) -> Option<Pending> {
    let t0 = Instant::now();
    let handle = {
        let _s = rec.map(|r| r.span("submit"));
        svc.submit(job.request)
    };
    let submit_s = t0.elapsed().as_secs_f64();
    match handle {
        Ok(handle) => Some(Pending {
            handle,
            t0,
            submit_s,
            matrix: job.matrix,
            rhs: job.rhs,
        }),
        Err(e) => {
            tally.check(Err(format!("submit: {e:?}")));
            None
        }
    }
}

/// Wait for one job and check its answer.
fn finish(p: Pending, start: Instant, rec: Option<&Recorder>, tally: &mut Tally) -> Option<JobObs> {
    let resp = {
        let _s = rec.map(|r| r.span("wait"));
        p.handle.wait()
    };
    let latency_s = p.t0.elapsed().as_secs_f64();
    let checked = resp.map_err(|e| format!("job: {e:?}")).and_then(|r| {
        let (Some(x), Some(st)) = (r.solutions.first(), r.stats.first()) else {
            return Err("job: empty response".to_string());
        };
        if !st.converged {
            return Err(format!("job {}: not converged", r.job_id));
        }
        check_solution(&p.matrix, x, &p.rhs, TOL).map_err(|e| format!("job {}: {e}", r.job_id))?;
        Ok(JobObs {
            end_s: start.elapsed().as_secs_f64(),
            submit_s: p.submit_s,
            latency_s,
            wait_s: r.wait_time.as_secs_f64(),
            solve_s: r.solve_time.as_secs_f64(),
            batched_with: r.batched_with,
            hit: r.plan_source == PlanSource::CacheHit,
            attempts: r.attempts,
            events: r.trace.events,
            iters: st.iterations,
            sim_s: r.trace.total_time,
        })
    });
    match checked {
        Ok(o) => {
            tally.check(Ok(()));
            Some(o)
        }
        Err(e) => {
            tally.check(Err(e));
            None
        }
    }
}

/// Submit and wait.
fn run_job(
    svc: &SolverService,
    job: Job,
    start: Instant,
    rec: Option<&Recorder>,
    tally: &mut Tally,
) -> Option<JobObs> {
    let p = submit(svc, job, rec, tally)?;
    finish(p, start, rec, tally)
}

/// Start a default service and warm it: one job per cached structure
/// and solver, so every cached plan is built before timing starts.
fn start(w: Workload, cached: &[Arc<CsrMatrix>], seed: u64, tally: &mut Tally) -> SolverService {
    let svc = SolverService::start(ServiceConfig::default());
    let mut rng = Rng::new(seed, 30);
    for a in cached {
        for kind in [SolverKind::Cg, SolverKind::PcgJacobi] {
            if w == Workload::ServiceBatch && kind != SolverKind::Cg {
                continue;
            }
            let mut job = Job::new(a.clone(), rng.vector(a.n_rows()));
            job.request = job.request.solver(kind);
            run_job(&svc, job, Instant::now(), None, tally);
        }
    }
    svc
}

/// Closed-loop traffic for `budget`, in rounds of at most [`ROUND`]:
/// (answered jobs, seconds of traffic, fresh structures submitted).
/// Traced traffic draws jobs from its own stream of the seed. With a
/// pacer, the host's speed is measured after every round.
fn traffic(
    r: &Run,
    svc: &SolverService,
    cached: &[Arc<CsrMatrix>],
    budget: Duration,
    rec: Option<&Recorder>,
    mut pacer: Option<&mut Pacer>,
    tally: &mut Tally,
) -> (Vec<JobObs>, f64, Vec<Arc<CsrMatrix>>) {
    let (seed, t) = (r.seed, Instant::now());
    let stream = if rec.is_some() { 2 } else { 1 };
    let mut rngs: Vec<Rng> = (0..INTERACTIVE_CALLERS as u64)
        .map(|c| Rng::new(seed, stream * 100 + c))
        .collect();
    let (mut obs, mut fresh) = (Vec::new(), Vec::new());
    let mut i = stream as usize * 1_000_000;
    let mut secs = 0.0;
    while t.elapsed() < budget {
        let (round, end) = (Instant::now(), (t.elapsed() + ROUND).min(budget));
        match r.workload {
            Workload::ServiceInteractive => {
                let per_caller: Vec<(Vec<JobObs>, Tally)> = std::thread::scope(|s| {
                    let callers: Vec<_> = rngs
                        .iter_mut()
                        .map(|rng| {
                            s.spawn(move || {
                                let (mut obs, mut tally) = (Vec::new(), Tally::default());
                                while t.elapsed() < end {
                                    let job = interactive_job(cached, rng);
                                    obs.extend(run_job(svc, job, t, rec, &mut tally));
                                }
                                (obs, tally)
                            })
                        })
                        .collect();
                    callers
                        .into_iter()
                        .map(|h| h.join().expect("caller thread"))
                        .collect()
                });
                for (o, t) in per_caller {
                    obs.extend(o);
                    tally.merge(t);
                }
            }
            _ => {
                let rng = &mut rngs[0];
                let mut pending: VecDeque<Pending> = VecDeque::new();
                loop {
                    while t.elapsed() < end && pending.len() < BATCH_WINDOW {
                        let job = batch_job(seed, cached, rng, i);
                        i += 1;
                        if job.fresh && fresh.len() < PARTITION_SAMPLES {
                            fresh.push(job.matrix.clone());
                        }
                        pending.extend(submit(svc, job, rec, tally));
                    }
                    // The caller redeems its oldest job first, as a
                    // pipeline of outstanding requests would, and drains
                    // the pipeline at the end of the round.
                    let Some(p) = pending.pop_front() else { break };
                    obs.extend(finish(p, t, rec, tally));
                }
            }
        }
        // Nothing is outstanding now: the reference has the host alone,
        // and its time stays out of the traffic's seconds.
        secs += round.elapsed().as_secs_f64();
        if let Some(p) = pacer.as_deref_mut() {
            p.measure();
        }
    }
    (obs, secs, fresh)
}

pub fn run(r: Run) -> Outcome {
    let mut out = Outcome::default();
    let cached = cached_structures(r.seed);
    out.notes.push(format!(
        "cached structures: n={:?}, NP={}",
        cached.iter().map(|a| a.n_rows()).collect::<Vec<_>>(),
        ServiceConfig::default().np
    ));
    let mut setup_s = Vec::new();
    let mut svc = None;
    let mut pacer = Pacer::new(ROUND_SWEEPS);
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = svc.take() {
            SolverService::shutdown(old);
        }
        let t = Instant::now();
        svc = Some(start(r.workload, &cached, r.seed, &mut out.tally));
        setup_s.push(t.elapsed().as_secs_f64());
        pacer.measure();
    }
    let svc = svc.expect("at least one set-up");
    if r.trace {
        traced(&r, &svc, &cached, &mut out);
    } else {
        let budget = Duration::from_secs_f64(r.seconds);
        let (obs, secs, _) = traffic(
            &r,
            &svc,
            &cached,
            budget,
            None,
            Some(&mut pacer),
            &mut out.tally,
        );
        // Every wall-clock metric is paced by the host's speed (see `pace`).
        let pace = pacer.factor();
        let lat_ms: Vec<f64> = obs.iter().map(|o| o.latency_s * pace * 1e3).collect();
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s) * pace);
        m.set(
            "solve_s",
            median(&obs.iter().map(|o| o.solve_s * pace).collect::<Vec<_>>()),
        );
        m.set(
            "sim_s",
            median(&obs.iter().map(|o| o.sim_s).collect::<Vec<_>>()),
        );
        m.set("rps", obs.len() as f64 / (secs * pace));
        m.set("latency_p50_ms", percentile(&lat_ms, 50.0));
        let (p99, windows, in_best) = calmest_second_p99(&obs, pace);
        m.set("latency_p99_ms", p99);
        out.notes.push(format!(
            "latency samples: {} jobs; p99 from the calmest of {windows} whole seconds ({in_best} jobs); p99 over the whole run {:?} ms",
            obs.len(),
            percentile(&lat_ms, 99.0)
        ));
        out.notes.push(pacer.describe());
    }
    let snapshot = svc.shutdown();
    out.notes.push(format!(
        "service: completed={} failed={} shed={} batches={}",
        snapshot.completed, snapshot.failed, snapshot.shed_total, snapshot.batches_executed
    ));
    out
}

fn traced(r: &Run, svc: &SolverService, cached: &[Arc<CsrMatrix>], out: &mut Outcome) {
    let half = Duration::from_secs_f64(r.seconds / 2.0);
    let (plain, plain_s, _) = traffic(r, svc, cached, half, None, None, &mut out.tally);
    let rec = Recorder::new();
    let (obs, traced_s, fresh) = traffic(r, svc, cached, half, Some(&rec), None, &mut out.tally);
    let m = &mut out.metrics;
    layer_metrics(&obs, m);
    m.set(
        "solvers.iters",
        median(&obs.iter().map(|o| o.iters as f64).collect::<Vec<_>>()),
    );
    let np = ServiceConfig::default().np;
    let mats: Vec<&CsrMatrix> = cached.iter().map(|a| a.as_ref()).collect();
    let (ns, gbps) = probes::spmv(&mats, r.seed);
    m.set("sparse.spmv_ns_per_nnz", ns);
    m.set("sparse.spmv_gbps_computed", gbps);
    m.set(
        "core.roundtrip_us",
        probes::roundtrip_us(
            &hpf_dist::ArrayDescriptor::block(cached[0].n_rows(), np),
            r.seed,
        ),
    );
    let kinds: &[SolverKind] = if r.workload == Workload::ServiceBatch {
        &[SolverKind::Cg]
    } else {
        &[SolverKind::Cg, SolverKind::PcgJacobi]
    };
    direct_solves(cached, kinds, np, r.seed, &mut out.tally, m);
    let (build_s, vcycle_us) =
        probes::mg_layer(GridDims::d2(JOB_GRID.0, JOB_GRID.1), 3, np, 3, r.seed);
    m.set("mg.build_s", build_s);
    m.set("mg.vcycle_us", vcycle_us);
    // No job in these mixes runs a V-cycle.
    m.set("mg.vcycle_share", 0.0);
    let partition_ms = if fresh.is_empty() {
        probes::partition_ms(&mats, np, hpf_partition::DEFAULT_PARTITIONER)
    } else {
        let fresh: Vec<&CsrMatrix> = fresh.iter().map(|a| a.as_ref()).collect();
        probes::partition_ms(&fresh, np, FRESH_PARTITIONER)
    };
    m.set("partition.assign_ms", partition_ms);
    m.set(
        "bench.trace_overhead",
        (plain.len() as f64 / plain_s) / (obs.len() as f64 / traced_s),
    );
    let submit = totals(&rec.spans(), "submit");
    if let Err(e) = write_spans(&rec, r) {
        out.notes.push(format!("spans not written: {e}"));
    }
    out.notes.push(format!(
        "traced: {} untraced + {} traced jobs, {} submit spans",
        plain.len(),
        obs.len(),
        submit.count
    ));
}

/// Nearest-rank p99 latency (ms, wall times × `pace`) of the whole
/// second of the run with the lowest p99: (p99, whole seconds, jobs in
/// that second). On a host whose cores are shared with other tenants,
/// stalls come and go over minutes, and the p99 of a whole run swings
/// far more from run to run than the p99 of its calmest second. When no second holds enough jobs for a p99
/// with ten samples above it, falls back to the whole run's tail.
pub fn calmest_second_p99(obs: &[JobObs], pace: f64) -> (f64, usize, usize) {
    let whole = obs.iter().map(|o| o.end_s).fold(0.0, f64::max).floor() as usize;
    let mut seconds: Vec<Vec<f64>> = vec![Vec::new(); whole];
    for o in obs {
        if let Some(s) = seconds.get_mut(o.end_s as usize) {
            s.push(o.latency_s * pace * 1e3);
        }
    }
    seconds
        .iter()
        .filter(|s| s.len() >= MIN_SECOND_SAMPLES)
        .map(|s| (percentile(s, 99.0), s.len()))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map_or_else(
            || {
                let all: Vec<f64> = obs.iter().map(|o| o.latency_s * pace * 1e3).collect();
                (crate::stats::tail(&all).1, 0, all.len())
            },
            |(p, n)| (p, whole, n),
        )
}

/// The service-layer metrics of answered jobs.
pub fn layer_metrics(obs: &[JobObs], m: &mut Metrics) {
    let col = |f: &dyn Fn(&JobObs) -> f64| obs.iter().map(f).collect::<Vec<f64>>();
    m.set("service.submit_us_p50", median(&col(&|o| o.submit_s * 1e6)));
    m.set(
        "service.other_ms_p50",
        median(&col(&|o| (o.latency_s - o.wait_s - o.solve_s) * 1e3)),
    );
    m.set("service.wait_ms_p50", median(&col(&|o| o.wait_s * 1e3)));
    m.set(
        "service.batch_jobs_mean",
        mean(&col(&|o| (o.batched_with + 1) as f64)),
    );
    m.set(
        "service.plan_hit_ratio",
        mean(&col(&|o| if o.hit { 1.0 } else { 0.0 })),
    );
    m.set("service.solve_ms_p50", median(&col(&|o| o.solve_s * 1e3)));
    m.set(
        "service.attempts_per_job",
        mean(&col(&|o| o.attempts as f64)),
    );
    m.set("machine.events_per_job", mean(&col(&|o| o.events as f64)));
}

/// The solves a worker runs, called directly on the cached structures
/// with the plan's row cuts and the protected solvers: per-layer shares
/// from spans, machine counts per iteration, the cost of `Machine`
/// tracing, and the serial baseline.
fn direct_solves(
    cached: &[Arc<CsrMatrix>],
    kinds: &[SolverKind],
    np: usize,
    seed: u64,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let ops: Vec<RowwiseCsr> = cached
        .iter()
        .map(|a| {
            let plan = SolvePlan::build(a, np, Topology::Hypercube);
            RowwiseCsr::with_row_cuts(a.as_ref().clone(), np, plan.row_cuts)
        })
        .collect();
    let mut systems = Vec::new();
    let mut rng = Rng::new(seed, 40);
    for op in &ops {
        for &kind in kinds {
            systems.push((op, kind, rng.vector(op.matrix().n_rows())));
        }
    }
    let rec = Recorder::new();
    let solve = |op: &RowwiseCsr, kind, b: &[f64], tracing: bool, rec: Option<&Recorder>| {
        let mut mach = machine(np, tracing);
        let t = Instant::now();
        let res = match rec {
            Some(rec) => {
                let _s = rec.span("solve");
                protected(&mut mach, &TimedOp { inner: op, rec }, kind, b)
            }
            None => protected(&mut mach, op, kind, b),
        };
        let secs = t.elapsed().as_secs_f64();
        (res.map(|(x, st, _)| (x.to_global(), st)), mach, secs)
    };
    // Spans and machine counts, as the worker runs it (tracing on).
    let (mut iters, mut words, mut messages, mut flops, mut events) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let t = Instant::now();
    while t.elapsed() < probes::PROBE || iters == 0.0 {
        for (op, kind, b) in &systems {
            match solve(op, *kind, b, true, Some(&rec)) {
                (Ok((x, st)), mach, _) => {
                    tally.check(check_solution(op.matrix(), &x, b, TOL).map(|_| ()));
                    iters += st.iterations as f64;
                    words += mach.total_words_sent() as f64;
                    messages += mach.total_messages() as f64;
                    flops += mach.total_flops() as f64;
                    events += mach.trace().len() as f64;
                }
                (Err(e), _, _) => tally.check(Err(format!("direct solve: {e}"))),
            }
        }
    }
    let spans = rec.spans();
    let (solve_t, matvec) = (totals(&spans, "solve"), totals(&spans, "matvec"));
    m.set("core.matvec_us", matvec.mean_us());
    m.set("core.matvec_share", matvec.share_of(&solve_t));
    m.set("solvers.loop_share", solve_t.self_share());
    m.set("machine.words_per_iter", words / iters);
    m.set("machine.messages_per_iter", messages / iters);
    m.set("machine.flops_per_iter", flops / iters);
    m.set("machine.events_per_iter", events / iters);
    // Tracing off and on, alternating rounds over every system.
    let (mut on, mut off, mut rounds) = (0.0, 0.0, 0);
    let t = Instant::now();
    while t.elapsed() < probes::PROBE || rounds == 0 {
        for tracing in [false, true] {
            for (op, kind, b) in &systems {
                let secs = solve(op, *kind, b, tracing, None).2;
                *(if tracing { &mut on } else { &mut off }) += secs;
            }
        }
        rounds += 1;
    }
    m.set("machine.trace_overhead", on / off);
    // Serial baseline on the same systems.
    let serial_s = probes::mean_call_s(probes::PROBE, || {
        for (op, kind, b) in &systems {
            let a = op.matrix();
            let res = match kind {
                SolverKind::Cg => cg(a, b, stop(), 10 * b.len()),
                _ => pcg(
                    a,
                    &JacobiPrec::new(a).expect("diagonally dominant"),
                    b,
                    stop(),
                    10 * b.len(),
                ),
            };
            std::hint::black_box(res.is_ok());
        }
    }) / systems.len() as f64;
    let dist_s = off / (rounds * systems.len()) as f64;
    m.set("solvers.serial_solve_s", serial_s);
    m.set("solvers.dist_over_serial", dist_s / serial_s);
}

/// The protected solver a worker runs for `kind`, with the request's
/// default iteration cap (10 n).
fn protected<A: DistOperator + ?Sized>(
    m: &mut Machine,
    op: &A,
    kind: SolverKind,
    b: &[f64],
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let cfg = RecoveryConfig::default();
    match kind {
        SolverKind::Cg => cg_distributed_protected(m, op, b, stop(), 10 * b.len(), cfg),
        _ => pcg_jacobi_distributed_protected(m, op, b, stop(), 10 * b.len(), cfg),
    }
}

/// Service-layer metrics for a solver workload: its system submitted
/// twice, one after the other, to a default service of the workload's
/// machine size (the first builds the plan, the second hits it).
pub fn probe_system(sys: &System, seed: u64, tally: &mut Tally, m: &mut Metrics) {
    let cfg = ServiceConfig {
        np: sys.np(),
        ..ServiceConfig::default()
    };
    let svc = SolverService::start(cfg);
    let a = Arc::new(sys.matrix().clone());
    let mut obs = Vec::new();
    for k in 0..2 {
        let b = crate::solver::rhs(seed, k, a.n_rows());
        let mut job = Job::new(a.clone(), b);
        if let System::Mg(pre) = sys {
            let levels = pre.hierarchy().depth();
            job.request = job
                .request
                .solver(SolverKind::PcgMg { levels })
                .grid(sys.grid())
                .scenario("hpcg");
        }
        obs.extend(run_job(&svc, job, Instant::now(), None, tally));
    }
    svc.shutdown();
    layer_metrics(&obs, m);
    m.set(
        "partition.assign_ms",
        probes::partition_ms(&[&a], sys.np(), hpf_partition::DEFAULT_PARTITIONER),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(end_s: f64, latency_ms: f64) -> JobObs {
        JobObs {
            end_s,
            submit_s: 0.0,
            latency_s: latency_ms * 1e-3,
            wait_s: 0.0,
            solve_s: 0.0,
            batched_with: 0,
            hit: true,
            attempts: 1,
            events: 0,
            iters: 0,
            sim_s: 0.0,
        }
    }

    #[test]
    fn calmest_second_takes_the_lowest_whole_second_p99() {
        let mut all = Vec::new();
        // Second 0: latencies 1..=1000 ms, so p99 = 990. Second 1: faster
        // jobs but 20 outliers at 5000 ms, so p99 = 5000.
        for k in 0..1000 {
            all.push(obs(k as f64 / 1000.0, 1.0 + k as f64));
        }
        for k in 0..1000 {
            let lat = if k < 20 { 5000.0 } else { 0.5 + k as f64 };
            all.push(obs(1.0 + k as f64 / 1000.0, lat));
        }
        // A partial third second is ignored.
        all.push(obs(2.5, 0.1));
        assert_eq!(calmest_second_p99(&all, 1.0), (990.0, 2, 1000));
        // Pacing scales every latency.
        assert_eq!(calmest_second_p99(&all, 0.5), (495.0, 2, 1000));
        // Too few jobs per second: the whole run's tail, p90 of 100 jobs.
        let few: Vec<JobObs> = (0..100).map(|k| obs(k as f64 / 10.0, k as f64)).collect();
        assert_eq!(calmest_second_p99(&few, 1.0), (89.0, 0, 100));
    }

    #[test]
    fn workload_inputs_follow_the_seed() {
        let a = cached_structures(4);
        let b = cached_structures(4);
        assert_eq!(a.len(), CACHED);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.values(), y.values());
        }
        assert_ne!(cached_structures(5)[0].values(), a[0].values());
        assert_eq!(
            fresh_structure(4, 3).values(),
            fresh_structure(4, 3).values()
        );
        let (mut r1, mut r2) = (Rng::new(4, 1), Rng::new(4, 1));
        for i in 0..8 {
            let (j1, j2) = (batch_job(4, &a, &mut r1, i), batch_job(4, &a, &mut r2, i));
            assert_eq!(j1.rhs, j2.rhs);
            assert_eq!(j1.fresh, i % FRESH_EVERY == FRESH_EVERY - 1);
        }
    }
}
