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

use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_solvers::{cg_distributed, cg_distributed_protected, RecoveryConfig, StopCriterion};
use hpf_sparse::gen;

const NP: usize = 4;
/// Operation index of the `s1-bcast-p` allgather of the third matvec of
/// the protected solve: the flip it arms is drained by that matvec.
const FLIP_OP: usize = 43;
const FLIP_BIT: u8 = 20;
const FLIP_TARGET: usize = 777;

/// FNV-1a, 64 bit: stable across platforms and toolchains.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(m: &Machine, x: &DistVector) -> u64 {
    let h = fnv1a(m.trace().to_jsonl().into_bytes(), 0xcbf2_9ce4_8422_2325);
    let h = fnv1a(m.elapsed().to_bits().to_le_bytes(), h);
    x.to_global()
        .iter()
        .fold(h, |h, v| fnv1a(v.to_bits().to_le_bytes(), h))
}

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
