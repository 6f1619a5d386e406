//! Golden pins on the simulated side of distributed CG.
//!
//! Each case hashes the full trace (`Trace::to_jsonl`), the simulated
//! clock (`Machine::elapsed`) and the bits of the solution of one solve
//! on `poisson_2d(32, 32)` at NP = 4, under row layouts `BLOCK` and
//! `CYCLIC`. A change to how vectors are stored or how the matvec is
//! computed must leave every hash as it is: the §4 cost model, the event
//! labels and order, and the arithmetic are all covered.
//!
//! The protected case arms one silent bit flip inside a matvec. The flip
//! perturbs the solve without tripping recovery, so the solution bits
//! record which global element of `q` it hit.

mod digest;

use digest::{digest, observed_digest, DigestObserver};
use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_solvers::{
    bicgstab_distributed, cg_distributed, cg_distributed_protected, gmres_distributed,
    pcg_distributed, JacobiPreconditioner, RecoveryConfig, SolveOptions, StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CsrMatrix};

const NP: usize = 4;
/// Operation index of the `s1-bcast-p` allgather of the third matvec of
/// the protected solve: the flip it arms is drained by that matvec.
const FLIP_OP: usize = 43;
const FLIP_BIT: u8 = 20;
const FLIP_TARGET: usize = 777;
/// An exponent-bit flip in the protected PCG-Jacobi solve that recovery
/// detects and answers with a residual replacement (`on_restart`).
const PCG_FLIP_OP: usize = 43;
const PCG_FLIP_BIT: u8 = 62;

fn system(desc: fn(usize, usize) -> ArrayDescriptor) -> (RowwiseCsr, Vec<f64>) {
    let a = gen::poisson_2d(32, 32);
    let n = a.n_rows();
    let b = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    (
        RowwiseCsr::new(a, desc(n, NP), DataArrayLayout::RowAligned),
        b,
    )
}

fn traced_machine() -> Machine {
    let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(true);
    m
}

fn plain_solve(desc: fn(usize, usize) -> ArrayDescriptor) -> u64 {
    let (op, b) = system(desc);
    let mut m = traced_machine();
    let stop = StopCriterion::RelativeResidual(1e-8);
    let (x, stats) = cg_distributed(&mut m, &op, &b, stop, 500).unwrap();
    assert!(stats.converged);
    digest(&m, &x)
}

fn protected_solve_with_flip(desc: fn(usize, usize) -> ArrayDescriptor) -> u64 {
    let (op, b) = system(desc);
    let mut m = traced_machine();
    m.set_fault_plan(FaultPlan::new().with_bit_flip(FLIP_OP, 1, FLIP_BIT, FLIP_TARGET));
    let stop = StopCriterion::RelativeResidual(1e-8);
    let (x, stats, _) =
        cg_distributed_protected(&mut m, &op, &b, stop, 500, RecoveryConfig::default()).unwrap();
    assert!(stats.converged);
    assert_eq!(m.faults_injected(), 1);
    digest(&m, &x)
}

#[test]
fn traced_cg_block_is_pinned() {
    assert_eq!(plain_solve(ArrayDescriptor::block), 0x7817_e0b5_e0f0_3b01);
}

#[test]
fn traced_cg_cyclic_is_pinned() {
    assert_eq!(plain_solve(ArrayDescriptor::cyclic), 0x84b9_3313_88d8_070b);
}

#[test]
fn protected_cg_with_bit_flip_block_is_pinned() {
    assert_eq!(
        protected_solve_with_flip(ArrayDescriptor::block),
        0xec7e_f5a3_9c62_de42
    );
}

#[test]
fn protected_cg_with_bit_flip_cyclic_is_pinned() {
    assert_eq!(
        protected_solve_with_flip(ArrayDescriptor::cyclic),
        0x251c_8cc0_d4f8_3374
    );
}

/// The flip lands on global element `target % n` of `q` whatever the
/// row layout stores where.
#[test]
fn matvec_bit_flip_hits_global_target_under_every_layout() {
    let a = gen::poisson_2d(32, 32);
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let clean = a.matvec(&x).unwrap();
    for desc in [
        ArrayDescriptor::block(n, NP),
        ArrayDescriptor::cyclic(n, NP),
    ] {
        let op = RowwiseCsr::new(a.clone(), desc.clone(), DataArrayLayout::RowAligned);
        let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
        m.set_fault_plan(FaultPlan::new().with_bit_flip(0, 2, FLIP_BIT, FLIP_TARGET));
        let (q, _) = op.matvec(&mut m, &DistVector::from_global(desc, &x));
        let q = q.to_global();
        let hit: Vec<usize> = (0..n).filter(|&i| q[i] != clean[i]).collect();
        assert_eq!(hit, vec![FLIP_TARGET % n]);
    }
}

/// Observer digest of the traced plain CG solve; its trace must match
/// the unobserved solve's.
fn plain_observed(desc: fn(usize, usize) -> ArrayDescriptor) -> u64 {
    let (op, b) = system(desc);
    let mut m = traced_machine();
    let mut obs = DigestObserver::default();
    let opts = SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 500);
    let (x, stats, _) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    assert_eq!(obs.iterations, stats.iterations);
    assert_eq!(digest(&m, &x), plain_solve(desc));
    obs.hash
}

/// Observer digest of the protected CG solve with the armed flip; its
/// trace must match the unobserved solve's.
fn protected_observed(desc: fn(usize, usize) -> ArrayDescriptor) -> u64 {
    let (op, b) = system(desc);
    let mut m = traced_machine();
    m.set_fault_plan(FaultPlan::new().with_bit_flip(FLIP_OP, 1, FLIP_BIT, FLIP_TARGET));
    let mut obs = DigestObserver::default();
    let opts = SolveOptions {
        recovery: Some(RecoveryConfig::default()),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 500)
    };
    let (x, _, _) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    assert_eq!(digest(&m, &x), protected_solve_with_flip(desc));
    obs.hash
}

#[test]
fn traced_cg_block_observer_is_pinned() {
    assert_eq!(
        plain_observed(ArrayDescriptor::block),
        0xf60d_79fa_f947_e26f
    );
}

#[test]
fn traced_cg_cyclic_observer_is_pinned() {
    assert_eq!(
        plain_observed(ArrayDescriptor::cyclic),
        0xdea0_51cd_5c92_a123
    );
}

#[test]
fn protected_cg_with_bit_flip_block_observer_is_pinned() {
    assert_eq!(
        protected_observed(ArrayDescriptor::block),
        0x9e9e_19c9_ef53_e4ee
    );
}

#[test]
fn protected_cg_with_bit_flip_cyclic_observer_is_pinned() {
    assert_eq!(
        protected_observed(ArrayDescriptor::cyclic),
        0x74b4_8eda_7f82_ac27
    );
}

/// A badly scaled copy of the test system, so the Jacobi scaling is
/// not a uniform multiple of the identity.
fn scaled_system() -> (RowwiseCsr, Vec<f64>) {
    let (op, b) = system(ArrayDescriptor::block);
    let a = op.matrix();
    let scale = |i: usize| 1.0 + (i % 7) as f64;
    let mut coo = CooMatrix::new(a.n_rows(), a.n_cols());
    for i in 0..a.n_rows() {
        for (j, v) in a.row(i) {
            coo.push(i, j, v * scale(i) * scale(j)).unwrap();
        }
    }
    let n = a.n_rows();
    (
        RowwiseCsr::new(
            CsrMatrix::from_coo(&coo),
            ArrayDescriptor::block(n, NP),
            DataArrayLayout::RowAligned,
        ),
        b,
    )
}

#[test]
fn traced_pcg_jacobi_is_pinned() {
    let (op, b) = scaled_system();
    let mut m = traced_machine();
    let mut obs = DigestObserver::default();
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    let opts = SolveOptions {
        precond: Some(&jacobi),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 500)
    };
    let (x, stats, _) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    assert!(stats.converged);
    assert_eq!(observed_digest(&m, &x, &obs), 0x80ee_f5bf_6b0f_6668);
}

#[test]
fn protected_pcg_jacobi_with_bit_flip_is_pinned() {
    let (op, b) = scaled_system();
    let mut m = traced_machine();
    m.set_fault_plan(FaultPlan::new().with_bit_flip(PCG_FLIP_OP, 1, PCG_FLIP_BIT, FLIP_TARGET));
    let mut obs = DigestObserver::default();
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    let opts = SolveOptions {
        precond: Some(&jacobi),
        recovery: Some(RecoveryConfig::default()),
        ..SolveOptions::new(StopCriterion::RelativeResidual(1e-8), 500)
    };
    let (x, stats, rec) = pcg_distributed(&mut m, &op, &b, &opts, &mut obs).unwrap();
    let rec = rec.unwrap();
    assert!(stats.converged);
    assert_eq!(m.faults_injected(), 1);
    assert_eq!((rec.rollbacks, obs.restarts), (0, 1));
    assert_eq!(observed_digest(&m, &x, &obs), 0xca4f_ac17_2915_a5f6);
}

/// Upwinded 1-D convection-diffusion: diagonally dominant, not
/// symmetric.
fn nonsymmetric_system() -> (RowwiseCsr, Vec<f64>) {
    let n = 256;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.5).unwrap();
            coo.push(i + 1, i, -0.5).unwrap();
        }
    }
    let b = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    (
        RowwiseCsr::new(
            CsrMatrix::from_coo(&coo),
            ArrayDescriptor::block(n, NP),
            DataArrayLayout::RowAligned,
        ),
        b,
    )
}

#[test]
fn traced_bicgstab_is_pinned() {
    let (op, b) = nonsymmetric_system();
    let mut m = traced_machine();
    let mut obs = DigestObserver::default();
    let stop = StopCriterion::RelativeResidual(1e-8);
    let (x, stats) = bicgstab_distributed(&mut m, &op, &b, stop, 500, &mut obs).unwrap();
    assert!(stats.converged);
    assert_eq!(observed_digest(&m, &x, &obs), 0x862d_a86c_a4ce_847f);
}

#[test]
fn traced_gmres_is_pinned() {
    let (op, b) = nonsymmetric_system();
    let mut m = traced_machine();
    let mut obs = DigestObserver::default();
    let stop = StopCriterion::RelativeResidual(1e-8);
    let (x, stats) = gmres_distributed(&mut m, &op, &b, 8, stop, 500, &mut obs).unwrap();
    assert!(stats.converged);
    assert_eq!(observed_digest(&m, &x, &obs), 0x72e4_67bf_7e64_8f44);
}
