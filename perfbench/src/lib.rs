//! Wall-clock benchmark for the HPF-CG workspace.
//!
//! One binary runs one workload from a seed. The untraced run reports
//! the end-to-end metrics; the traced run (`--trace 1`) records spans
//! from this crate's own code around calls into the library crates and
//! reports the per-layer metrics. Every answer is checked against a
//! residual recomputed with serial `CsrMatrix::matvec`. See `README.md`.

pub mod check;
pub mod host;
pub mod pace;
pub mod probes;
pub mod report;
pub mod rng;
pub mod service;
pub mod solver;
pub mod spans;
pub mod stats;
pub mod timed;

use hpf_machine::{CostModel, Machine, Topology};
use hpf_solvers::StopCriterion;

/// Relative-residual tolerance of every solve, and of the answer check.
pub const TOL: f64 = 1e-8;

pub fn stop() -> StopCriterion {
    StopCriterion::RelativeResidual(TOL)
}

/// A simulated machine as the service workers build it.
pub fn machine(np: usize, tracing: bool) -> Machine {
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(tracing);
    m
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CgPoisson2d,
    MgPoisson3d,
    ServiceInteractive,
    ServiceBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CgPoisson2d,
        Workload::MgPoisson3d,
        Workload::ServiceInteractive,
        Workload::ServiceBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CgPoisson2d => "cg-poisson2d",
            Workload::MgPoisson3d => "mg-poisson3d",
            Workload::ServiceInteractive => "service-interactive",
            Workload::ServiceBatch => "service-batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; an `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Metric values by name; units come from [`report`]'s registry.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Extra lines printed before the result (sample counts, seeds).
    pub notes: Vec<String>,
}

pub fn run(r: Run) -> Outcome {
    match r.workload {
        Workload::CgPoisson2d | Workload::MgPoisson3d => solver::run(r),
        Workload::ServiceInteractive | Workload::ServiceBatch => service::run(r),
    }
}
