//! The solver workloads: distributed CG on the 2D Poisson problem and
//! multigrid-preconditioned CG on the 3D one, called directly.

use crate::check::check_solution;
use crate::pace::{Paced, Pacer};
use crate::rng::Rng;
use crate::spans::{totals, Recorder};
use crate::stats::{self, median, percentile};
use crate::timed::{TimedOp, TimedPrec};
use crate::{machine, probes, service, stop, Outcome, Run, Tally, Workload, TOL};
use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
use hpf_machine::Machine;
use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
use hpf_solvers::{
    cg, cg_distributed, pcg_preconditioned_distributed, DistOperator, DistPreconditioner,
    SolveStats, SolverError,
};
use hpf_sparse::CsrMatrix;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

const CG_GRID: (usize, usize) = (256, 256);
const CG_NP: usize = 16;
const MG_GRID: (usize, usize, usize) = (47, 47, 47);
const MG_LEVELS: usize = 3;
const MG_NP: usize = 8;
/// Depth of the hierarchy timed for the CG grid: three levels would put
/// a 64² dense Cholesky factor at the bottom, which alone takes seconds.
const CG_GRID_MG_LEVELS: usize = 4;
const MAX_ITERS: usize = 5000;
/// Solves every run makes even when `--seconds` is shorter.
const MIN_SOLVES: usize = 3;
/// Operator applications that warm the system up inside set-up.
const WARM_UP_APPLIES: usize = 5;

/// Reference sweeps that pace one set-up and one solve of the workload:
/// about a tenth of the operation's own time (CG: 25 ms and 0.6 s;
/// MG: 0.6 s and 0.13 s on the development host).
fn pace_sweeps(w: Workload) -> (usize, usize) {
    match w {
        Workload::CgPoisson2d => (8, 100),
        _ => (100, 25),
    }
}

pub enum System {
    /// `RowwiseCsr::block(poisson_2d, NP, RowAligned)` solved by plain CG.
    Cg(RowwiseCsr),
    /// A multigrid V-cycle over the Poisson hierarchy, solved by PCG.
    Mg(MgPreconditioner),
}

impl System {
    pub fn matrix(&self) -> &CsrMatrix {
        match self {
            System::Cg(op) => op.matrix(),
            System::Mg(pre) => pre.hierarchy().fine_matrix(),
        }
    }

    pub fn np(&self) -> usize {
        match self {
            System::Cg(op) => op.np(),
            System::Mg(pre) => pre.hierarchy().np(),
        }
    }

    pub fn grid(&self) -> GridDims {
        match self {
            System::Cg(_) => GridDims::d2(CG_GRID.0, CG_GRID.1),
            System::Mg(pre) => pre.hierarchy().level_dims(0),
        }
    }

    /// Solve `A x = b`. With a recorder, the operator and preconditioner
    /// run inside this crate's timing wrappers under a `solve` span;
    /// the arithmetic and the machine charges are the same either way.
    pub fn solve(
        &self,
        m: &mut Machine,
        b: &[f64],
        rec: Option<&Recorder>,
    ) -> Result<(DistVector, SolveStats), SolverError> {
        match (self, rec) {
            (System::Cg(op), None) => cg_distributed(m, op, b, stop(), MAX_ITERS),
            (System::Cg(op), Some(rec)) => {
                let _s = rec.span("solve");
                cg_distributed(m, &TimedOp { inner: op, rec }, b, stop(), MAX_ITERS)
            }
            (System::Mg(pre), None) => pcg_mg_distributed(m, pre, b, stop(), MAX_ITERS),
            (System::Mg(pre), Some(rec)) => {
                let _s = rec.span("solve");
                // `pcg_mg_distributed` builds this operator per call too.
                let op = pre.hierarchy().fine_operator();
                let (op, pre) = (TimedOp { inner: &op, rec }, TimedPrec { inner: pre, rec });
                pcg_preconditioned_distributed(m, &op, &pre, b, stop(), MAX_ITERS)
            }
        }
    }
}

/// Build the workload's system: (system, seconds spent in
/// `MgHierarchy::build`, 0 for CG).
pub fn build(w: Workload) -> (System, f64) {
    match w {
        Workload::CgPoisson2d => {
            let a = hpf_sparse::gen::poisson_2d(CG_GRID.0, CG_GRID.1);
            (
                System::Cg(RowwiseCsr::block(a, CG_NP, DataArrayLayout::RowAligned)),
                0.0,
            )
        }
        _ => {
            let t = Instant::now();
            let dims = GridDims::d3(MG_GRID.0, MG_GRID.1, MG_GRID.2);
            let h = MgHierarchy::build(dims, MG_LEVELS, MG_NP).expect("47³ supports 3 levels");
            (
                System::Mg(MgPreconditioner::new(h)),
                t.elapsed().as_secs_f64(),
            )
        }
    }
}

fn warm_up(sys: &System, seed: u64) {
    let a = sys.matrix();
    let desc = hpf_dist::ArrayDescriptor::block(a.n_rows(), sys.np());
    let p = DistVector::from_global(desc, &Rng::new(seed, 3).vector(a.n_rows()));
    let mut m = machine(sys.np(), false);
    let fine;
    let op = match sys {
        System::Cg(op) => op,
        System::Mg(pre) => {
            fine = pre.hierarchy().fine_operator();
            &fine
        }
    };
    for _ in 0..WARM_UP_APPLIES {
        std::hint::black_box(op.apply(&mut m, &p));
    }
    if let System::Mg(pre) = sys {
        std::hint::black_box(pre.apply(&mut m, &p));
    }
}

/// Set the system up `repeats` times, each paced by `pacer`, and keep
/// the last: (system, set-up times per repeat, build seconds per repeat).
pub fn setup(
    w: Workload,
    seed: u64,
    repeats: usize,
    pacer: &mut Pacer,
) -> (System, Vec<Paced>, Vec<f64>) {
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let ((sys, b), paced) = pacer.time(|| {
            let (sys, b) = build(w);
            warm_up(&sys, seed);
            (sys, b)
        });
        setup_s.push(paced);
        build_s.push(b);
        last = Some(sys);
    }
    (last.expect("at least one set-up"), setup_s, build_s)
}

/// Right-hand side `k` of the seed.
pub fn rhs(seed: u64, k: usize, n: usize) -> Vec<f64> {
    Rng::new(seed, 1000 + k as u64).vector(n)
}

/// One timed solve and what it charged the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRecord {
    pub wall_s: f64,
    /// `wall_s` paced by the host's speed around the solve, when paced.
    pub paced_s: Option<f64>,
    pub sim_s: f64,
    pub iters: usize,
    pub words: u64,
    pub messages: u64,
    pub flops: u64,
    /// Hash of the solution's bits, to compare two runs of one solve.
    pub x_hash: u64,
}

fn bits_hash(x: &[f64]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in x {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Solve right-hand side `k`, check the answer, and record it.
pub fn solve_one(
    sys: &System,
    seed: u64,
    k: usize,
    rec: Option<&Recorder>,
    tally: &mut Tally,
) -> Option<SolveRecord> {
    let a = sys.matrix();
    let b = rhs(seed, k, a.n_rows());
    let mut m = machine(sys.np(), false);
    let t = Instant::now();
    let out = sys.solve(&mut m, &b, rec);
    let wall_s = t.elapsed().as_secs_f64();
    let checked = out
        .map_err(|e| format!("rhs {k}: {e}"))
        .and_then(|(x, st)| {
            let x = x.to_global();
            if !st.converged {
                return Err(format!(
                    "rhs {k}: not converged in {} iterations",
                    st.iterations
                ));
            }
            check_solution(a, &x, &b, TOL).map_err(|e| format!("rhs {k}: {e}"))?;
            Ok(SolveRecord {
                wall_s,
                paced_s: None,
                sim_s: m.elapsed(),
                iters: st.iterations,
                words: m.total_words_sent(),
                messages: m.total_messages(),
                flops: m.total_flops(),
                x_hash: bits_hash(&x),
            })
        });
    match checked {
        Ok(r) => {
            tally.check(Ok(()));
            Some(r)
        }
        Err(e) => {
            tally.check(Err(e));
            None
        }
    }
}

/// Solve right-hand sides 0, 1, 2, … until `budget` has passed, pacing
/// each solve when given a pacer.
pub fn solve_loop(
    sys: &System,
    seed: u64,
    budget: Duration,
    rec: Option<&Recorder>,
    mut pacer: Option<&mut Pacer>,
    tally: &mut Tally,
) -> Vec<SolveRecord> {
    let t = Instant::now();
    let mut out = Vec::new();
    let mut k = 0;
    while k < MIN_SOLVES || t.elapsed() < budget {
        let solved = solve_one(sys, seed, k, rec, tally);
        // A failed solve is still followed by the reference, so that the
        // next solve is paced by the host speed right before it.
        let paced = pacer
            .as_deref_mut()
            .map(|p| p.pace(solved.as_ref().map_or(0.0, |s| s.wall_s)));
        out.extend(solved.map(|s| SolveRecord {
            paced_s: paced,
            ..s
        }));
        k += 1;
    }
    out
}

/// Serial `cg` on right-hand side 0: (seconds, iterations). For the CG
/// workload the distributed solve must take exactly as many iterations.
fn serial_baseline(sys: &System, seed: u64, tally: &mut Tally) -> (f64, usize) {
    let a = sys.matrix();
    let b = rhs(seed, 0, a.n_rows());
    let t = Instant::now();
    let out = cg(a, &b, stop(), MAX_ITERS);
    let secs = t.elapsed().as_secs_f64();
    match out {
        Ok((x, st)) if st.converged => {
            tally.check(check_solution(a, &x, &b, TOL).map(|_| ()));
            (secs, st.iterations)
        }
        Ok((_, st)) => {
            tally.check(Err(format!(
                "serial cg: not converged in {}",
                st.iterations
            )));
            (secs, 0)
        }
        Err(e) => {
            tally.check(Err(format!("serial cg: {e}")));
            (secs, 0)
        }
    }
}

fn col(recs: &[SolveRecord], f: impl Fn(&SolveRecord) -> f64) -> Vec<f64> {
    recs.iter().map(f).collect()
}

fn sum(recs: &[SolveRecord], f: impl Fn(&SolveRecord) -> f64) -> f64 {
    recs.iter().map(f).sum()
}

pub fn run(r: Run) -> Outcome {
    // The CG set-up takes tens of milliseconds, the MG one most of a second.
    let repeats = if r.workload == Workload::CgPoisson2d {
        9
    } else {
        3
    };
    let (setup_sweeps, solve_sweeps) = pace_sweeps(r.workload);
    let (sys, setup_s, build_s) = setup(r.workload, r.seed, repeats, &mut Pacer::new(setup_sweeps));
    let mut out = Outcome::default();
    out.notes.push(format!(
        "system: n={} nnz={} NP={} tol={TOL:e}",
        sys.matrix().n_rows(),
        sys.matrix().nnz(),
        sys.np()
    ));
    if r.trace {
        traced(&r, &sys, &build_s, &mut out);
    } else {
        untraced(&r, &sys, &setup_s, &mut Pacer::new(solve_sweeps), &mut out);
    }
    out
}

fn untraced(r: &Run, sys: &System, setup: &[Paced], pacer: &mut Pacer, out: &mut Outcome) {
    let recs = solve_loop(
        sys,
        r.seed,
        Duration::from_secs_f64(r.seconds),
        None,
        Some(pacer),
        &mut out.tally,
    );
    if let (System::Cg(_), Some(first)) = (sys, recs.first()) {
        let (_, serial_iters) = serial_baseline(sys, r.seed, &mut out.tally);
        out.tally.check(if serial_iters == first.iters {
            Ok(())
        } else {
            Err(format!(
                "distributed cg took {} iterations, serial cg {serial_iters}",
                first.iters
            ))
        });
    }
    // Every wall-clock metric is paced by the host's speed (see `pace`).
    let paced: Vec<f64> = recs.iter().filter_map(|s| s.paced_s).collect();
    let ms: Vec<f64> = paced.iter().map(|w| w * 1e3).collect();
    let m = &mut out.metrics;
    m.set(
        "setup_s",
        median(&setup.iter().map(|p| p.paced_s).collect::<Vec<_>>()),
    );
    m.set("solve_s", median(&paced));
    m.set("sim_s", median(&col(&recs, |s| s.sim_s)));
    m.set("rps", paced.len() as f64 / paced.iter().sum::<f64>());
    m.set("latency_p50_ms", percentile(&ms, 50.0));
    let (p, tail) = stats::tail(&ms);
    m.set("latency_p99_ms", tail);
    out.notes.push(format!(
        "latency samples: {} solves; latency_p99_ms is p{p}, the highest percentile with {} solves above it",
        recs.len(),
        stats::TAIL_SUPPORT
    ));
    out.notes.push(format!(
        "unpaced wall time: median solve {:?} s, median set-up {:?} s",
        median(&col(&recs, |s| s.wall_s)),
        median(&setup.iter().map(|p| p.wall_s).collect::<Vec<_>>())
    ));
    if let Some(first) = recs.first() {
        out.notes.push(format!(
            "rhs 0: sim_s={:?} iters={}",
            first.sim_s, first.iters
        ));
    }
}

fn traced(r: &Run, sys: &System, build_s: &[f64], out: &mut Outcome) {
    let half = Duration::from_secs_f64(r.seconds / 2.0);
    let plain = solve_loop(sys, r.seed, half, None, None, &mut out.tally);
    let rec = Recorder::new();
    let wrapped = solve_loop(sys, r.seed, half, Some(&rec), None, &mut out.tally);
    // The wrappers must not change the program: same solution bits,
    // simulated time and iterations for every right-hand side both
    // halves solved.
    for (k, (p, w)) in plain.iter().zip(&wrapped).enumerate() {
        let same =
            p.sim_s.to_bits() == w.sim_s.to_bits() && p.iters == w.iters && p.x_hash == w.x_hash;
        out.tally.check(if same {
            Ok(())
        } else {
            Err(format!("rhs {k}: traced solve differs from untraced"))
        });
    }
    let spans = rec.spans();
    let solve = totals(&spans, "solve");
    let matvec = totals(&spans, "matvec");
    let precond = totals(&spans, "precond");
    let iters = sum(&wrapped, |s| s.iters as f64);
    let m = &mut out.metrics;

    let a = sys.matrix();
    let (ns_per_nnz, gbps) = probes::spmv(&[a], r.seed);
    m.set("sparse.spmv_ns_per_nnz", ns_per_nnz);
    m.set("sparse.spmv_gbps_computed", gbps);
    m.set("core.matvec_us", matvec.mean_us());
    m.set("core.matvec_share", matvec.share_of(&solve));
    m.set(
        "core.roundtrip_us",
        probes::roundtrip_us(
            &hpf_dist::ArrayDescriptor::block(a.n_rows(), sys.np()),
            r.seed,
        ),
    );
    m.set("solvers.iters", median(&col(&wrapped, |s| s.iters as f64)));
    let (serial_s, _) = serial_baseline(sys, r.seed, &mut out.tally);
    m.set("solvers.serial_solve_s", serial_s);
    m.set(
        "solvers.dist_over_serial",
        median(&col(&plain, |s| s.wall_s)) / serial_s,
    );
    m.set("solvers.loop_share", solve.self_share());
    match sys {
        System::Mg(_) => {
            m.set("mg.build_s", median(build_s));
            m.set("mg.vcycle_us", precond.mean_us());
        }
        System::Cg(_) => {
            // CG runs no V-cycle: time the hierarchy its grid would need.
            let (b, v) = probes::mg_layer(sys.grid(), CG_GRID_MG_LEVELS, sys.np(), 1, r.seed);
            m.set("mg.build_s", b);
            m.set("mg.vcycle_us", v);
        }
    }
    m.set("mg.vcycle_share", precond.share_of(&solve));
    m.set(
        "machine.words_per_iter",
        sum(&wrapped, |s| s.words as f64) / iters,
    );
    m.set(
        "machine.messages_per_iter",
        sum(&wrapped, |s| s.messages as f64) / iters,
    );
    m.set(
        "machine.flops_per_iter",
        sum(&wrapped, |s| s.flops as f64) / iters,
    );
    let (events_per_iter, overhead) = tracing_cost(sys, r.seed, &mut out.tally);
    m.set("machine.events_per_iter", events_per_iter);
    m.set("machine.trace_overhead", overhead);
    service::probe_system(sys, r.seed, &mut out.tally, m);
    m.set(
        "bench.trace_overhead",
        median(&col(&wrapped, |s| s.wall_s)) / median(&col(&plain, |s| s.wall_s)),
    );
    if let Err(e) = write_spans(&rec, r) {
        out.notes.push(format!("spans not written: {e}"));
    }
    out.notes.push(format!(
        "traced: {} untraced + {} traced solves",
        plain.len(),
        wrapped.len()
    ));
    if let Some(first) = wrapped.first() {
        out.notes.push(format!(
            "rhs 0: sim_s={:?} iters={}",
            first.sim_s, first.iters
        ));
    }
}

/// Right-hand side 0 with `Machine` tracing on and off, alternating, best
/// of two each: (trace events per iteration, on ÷ off wall time).
fn tracing_cost(sys: &System, seed: u64, tally: &mut Tally) -> (f64, f64) {
    let b = rhs(seed, 0, sys.matrix().n_rows());
    let (mut on, mut off, mut per_iter) = (f64::INFINITY, f64::INFINITY, f64::NAN);
    for _ in 0..2 {
        for tracing in [false, true] {
            let mut m = machine(sys.np(), tracing);
            let t = Instant::now();
            let res = sys.solve(&mut m, &b, None);
            let secs = t.elapsed().as_secs_f64();
            match res {
                Ok((_, st)) if tracing => {
                    on = on.min(secs);
                    per_iter = m.trace().len() as f64 / st.iterations.max(1) as f64;
                }
                Ok(_) => off = off.min(secs),
                Err(e) => tally.check(Err(format!("tracing probe: {e}"))),
            }
        }
    }
    (per_iter, on / off)
}

pub fn write_spans(rec: &Recorder, r: &Run) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", r.workload.name(), r.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&mut f)?;
    std::io::Write::flush(&mut f)
}
