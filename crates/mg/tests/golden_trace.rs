//! Golden pins on multigrid-preconditioned CG.
//!
//! Each case hashes the full trace, the simulated clock, the solution
//! bits and every observer callback of one traced MG-PCG solve, once
//! plain and once protected with one armed bit flip that recovery must
//! detect. Two hierarchies are pinned: a 2-level `15 × 15` Poisson
//! hierarchy at NP = 4, and a 3-level `15 × 15 × 15` one at NP = 8,
//! whose level-1 Galerkin operator is a 27-point stencil and whose
//! coarsest operator has an envelope wider than one row.

#[path = "../../solvers/tests/digest/mod.rs"]
mod digest;

use digest::{observed_digest, DigestObserver};
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_mg::{GridDims, MgHierarchy, MgPreconditioner};
use hpf_solvers::{pcg_distributed, RecoveryConfig, RecoveryStats, SolveOptions, StopCriterion};

/// An exponent-bit flip: (operation, bit, target entry).
struct Flip {
    op: usize,
    bit: u8,
    target: usize,
}

/// On the 2-level hierarchy this flip ends in one rollback.
const FLIP_2D: Flip = Flip {
    op: 60,
    bit: 62,
    target: 17,
};

/// On the 3-level hierarchy this flip ends in one rollback.
const FLIP_3D: Flip = Flip {
    op: 70,
    bit: 62,
    target: 17,
};

fn setup(dims: GridDims, levels: usize, np: usize) -> (MgPreconditioner, Vec<f64>, Machine) {
    let h = MgHierarchy::build(dims, levels, np).unwrap();
    let n = h.fine_matrix().n_rows();
    let b = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(true);
    (MgPreconditioner::new(h), b, m)
}

fn plain_digest(dims: GridDims, levels: usize, np: usize) -> u64 {
    let (pre, b, mut m) = setup(dims, levels, np);
    let mut obs = DigestObserver::default();
    let opts = SolveOptions {
        precond: Some(&pre),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 200)
    };
    let op = pre.hierarchy().fine_operator();
    let (x, stats, _) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    assert!(stats.converged);
    observed_digest(&m, &x, &obs)
}

fn protected_digest(
    dims: GridDims,
    levels: usize,
    np: usize,
    flip: &Flip,
) -> (u64, RecoveryStats, DigestObserver) {
    let (pre, b, mut m) = setup(dims, levels, np);
    m.set_fault_plan(FaultPlan::new().with_bit_flip(flip.op, 1, flip.bit, flip.target));
    let mut obs = DigestObserver::default();
    let opts = SolveOptions {
        precond: Some(&pre),
        recovery: Some(RecoveryConfig::default()),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 200)
    };
    let op = pre.hierarchy().fine_operator();
    let (x, stats, rec) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    assert!(stats.converged);
    assert_eq!(m.faults_injected(), 1);
    (observed_digest(&m, &x, &obs), rec.unwrap(), obs)
}

#[test]
fn traced_mg_pcg_is_pinned() {
    assert_eq!(
        plain_digest(GridDims::d2(15, 15), 2, 4),
        0x3d11_2b32_a620_e8e8
    );
}

#[test]
fn protected_mg_pcg_with_bit_flip_is_pinned() {
    let (d, rec, obs) = protected_digest(GridDims::d2(15, 15), 2, 4, &FLIP_2D);
    assert_eq!((rec.rollbacks, obs.rollbacks), (1, 1));
    assert_eq!(d, 0x27d8_c363_009c_8fb8);
}

#[test]
fn traced_3d_three_level_mg_pcg_is_pinned() {
    assert_eq!(
        plain_digest(GridDims::d3(15, 15, 15), 3, 8),
        0x139a_9f72_33d1_e568
    );
}

#[test]
fn protected_3d_three_level_mg_pcg_with_bit_flip_is_pinned() {
    let (d, rec, obs) = protected_digest(GridDims::d3(15, 15, 15), 3, 8, &FLIP_3D);
    assert_eq!((rec.rollbacks, obs.rollbacks), (1, 1));
    assert_eq!(d, 0xf2ea_3f38_f900_372d);
}
