//! Golden pins on multigrid-preconditioned CG.
//!
//! Each case hashes the full trace, the simulated clock, the solution
//! bits and every observer callback of one traced MG-PCG solve on a
//! 2-level `15 × 15` Poisson hierarchy at NP = 4: once plain, once
//! protected with one armed bit flip that recovery must detect.

#[path = "../../solvers/tests/digest/mod.rs"]
mod digest;

use digest::{observed_digest, DigestObserver};
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_mg::{GridDims, MgHierarchy, MgPreconditioner};
use hpf_solvers::{pcg_distributed, RecoveryConfig, SolveOptions, StopCriterion};

const NP: usize = 4;
/// An exponent-bit flip that recovery detects and answers with one
/// rollback (`on_rollback`).
const FLIP_OP: usize = 60;
const FLIP_BIT: u8 = 62;
const FLIP_TARGET: usize = 17;

fn setup() -> (MgPreconditioner, Vec<f64>, Machine) {
    let h = MgHierarchy::build(GridDims::d2(15, 15), 2, NP).unwrap();
    let n = h.fine_matrix().n_rows();
    let b = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(true);
    (MgPreconditioner::new(h), b, m)
}

#[test]
fn traced_mg_pcg_is_pinned() {
    let (pre, b, mut m) = setup();
    let mut obs = DigestObserver::default();
    let opts = SolveOptions {
        precond: Some(&pre),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 200)
    };
    let op = pre.hierarchy().fine_operator();
    let (x, stats, _) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    assert!(stats.converged);
    assert_eq!(observed_digest(&m, &x, &obs), 0x3d11_2b32_a620_e8e8);
}

#[test]
fn protected_mg_pcg_with_bit_flip_is_pinned() {
    let (pre, b, mut m) = setup();
    m.set_fault_plan(FaultPlan::new().with_bit_flip(FLIP_OP, 1, FLIP_BIT, FLIP_TARGET));
    let mut obs = DigestObserver::default();
    let opts = SolveOptions {
        precond: Some(&pre),
        recovery: Some(RecoveryConfig::default()),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 200)
    };
    let op = pre.hierarchy().fine_operator();
    let (x, stats, rec) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    let rec = rec.unwrap();
    assert!(stats.converged);
    assert_eq!(m.faults_injected(), 1);
    assert_eq!((rec.rollbacks, obs.rollbacks), (1, 1));
    assert_eq!(observed_digest(&m, &x, &obs), 0x27d8_c363_009c_8fb8);
}
