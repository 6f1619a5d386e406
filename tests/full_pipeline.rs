//! Cross-crate integration: generate → distribute → solve → verify, over
//! multiple matrix families, topologies, processor counts and layouts.

use hpf::prelude::*;
use hpf::solvers::{ColwiseOperator, CscVariant};
use hpf::sparse::gen;

fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x).unwrap();
    let num: f64 = ax
        .iter()
        .zip(b.iter())
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

#[test]
fn distributed_cg_on_every_matrix_family() {
    let matrices: Vec<(&str, CsrMatrix)> = vec![
        ("poisson2d", gen::poisson_2d(12, 12)),
        ("poisson3d", gen::poisson_3d(6, 6, 6)),
        ("banded", gen::banded_spd(150, 5, 3)),
        ("random", gen::random_spd(150, 4, 4)),
        ("powerlaw", gen::power_law_spd(150, 40, 1.0, 5)),
        ("tridiag", gen::tridiagonal(150, 2.0, -0.9)),
    ];
    for (name, a) in matrices {
        let n = a.n_rows();
        let (_, b) = gen::rhs_for_known_solution(&a);
        let mut m = Machine::hypercube(8);
        let op = RowwiseCsr::block(a.clone(), 8, DataArrayLayout::RowAligned);
        let (x, stats) = cg_distributed(
            &mut m,
            &op,
            &b,
            StopCriterion::RelativeResidual(1e-9),
            20 * n,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(stats.converged, "{name} did not converge");
        assert!(
            rel_residual(&a, &x.to_global(), &b) < 1e-8,
            "{name} residual too large"
        );
    }
}

#[test]
fn distributed_cg_on_every_topology() {
    let a = gen::poisson_2d(8, 8);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let mut iters = Vec::new();
    for topo in [
        Topology::Hypercube,
        Topology::Mesh2D,
        Topology::Ring,
        Topology::FullyConnected,
        Topology::Bus,
    ] {
        let mut m = Machine::new(4, topo, CostModel::mpp_1995());
        let op = RowwiseCsr::block(a.clone(), 4, DataArrayLayout::RowAligned);
        let (_, stats) =
            cg_distributed(&mut m, &op, &b, StopCriterion::RelativeResidual(1e-9), 1000).unwrap();
        assert!(stats.converged, "{topo:?}");
        iters.push(stats.iterations);
        assert!(m.elapsed() > 0.0);
    }
    // Topology changes cost, never numerics.
    assert!(iters.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn distributed_cg_np_sweep_preserves_numerics() {
    let a = gen::poisson_2d(10, 10);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let mut solutions = Vec::new();
    for np in [1usize, 2, 3, 5, 8, 16] {
        let mut m = Machine::hypercube(np);
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let (x, stats) = cg_distributed(
            &mut m,
            &op,
            &b,
            StopCriterion::RelativeResidual(1e-10),
            1000,
        )
        .unwrap();
        assert!(stats.converged, "np={np}");
        solutions.push(x.to_global());
    }
    // The simulation computes identical results regardless of NP (same
    // serial reduction order by construction).
    for s in &solutions[1..] {
        for (u, v) in s.iter().zip(solutions[0].iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}

#[test]
fn scenario1_and_scenario2_solvers_agree() {
    let a = gen::random_spd(120, 4, 9);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let np = 4;

    let mut m1 = Machine::hypercube(np);
    let row_op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let (x1, s1) = cg_distributed(
        &mut m1,
        &row_op,
        &b,
        StopCriterion::RelativeResidual(1e-10),
        2000,
    )
    .unwrap();

    let mut m2 = Machine::hypercube(np);
    let col_op = ColwiseOperator {
        inner: ColwiseCsc::block(CscMatrix::from_csr(&a), np),
        variant: CscVariant::Temp2d,
    };
    let (x2, s2) = cg_distributed(
        &mut m2,
        &col_op,
        &b,
        StopCriterion::RelativeResidual(1e-10),
        2000,
    )
    .unwrap();

    assert!(s1.converged && s2.converged);
    assert_eq!(s1.iterations, s2.iterations);
    for (u, v) in x1.to_global().iter().zip(x2.to_global().iter()) {
        assert!((u - v).abs() < 1e-10);
    }
    // But their cost profiles differ: scenario 2 (temp2d) moves vector-
    // length merges instead of allgathers.
    assert!(m1.elapsed() != m2.elapsed());
}

#[test]
fn element_block_layout_costs_more_but_solves_identically() {
    let a = gen::random_spd(100, 5, 11);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let np = 4;
    let stop = StopCriterion::RelativeResidual(1e-9);

    let mut m_aligned = Machine::hypercube(np);
    let op_a = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let (xa, sa) = cg_distributed(&mut m_aligned, &op_a, &b, stop, 2000).unwrap();

    let mut m_block = Machine::hypercube(np);
    let op_b = RowwiseCsr::block(a.clone(), np, DataArrayLayout::ElementBlock);
    let (xb, sb) = cg_distributed(&mut m_block, &op_b, &b, stop, 2000).unwrap();

    assert_eq!(sa.iterations, sb.iterations);
    for (u, v) in xa.to_global().iter().zip(xb.to_global().iter()) {
        assert_eq!(u, v);
    }
    // The naive element-block layout pays for remote a/col fetches.
    assert!(m_block.elapsed() > m_aligned.elapsed());
    assert!(m_block.total_words_sent() > m_aligned.total_words_sent());
}

#[test]
fn matrix_market_roundtrip_through_solve() {
    // Write a system to Matrix Market text, read it back, solve both.
    let a = gen::random_spd(60, 3, 21);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let text = hpf::sparse::io::write_matrix_market(&a.to_coo());
    let back = CsrMatrix::from_coo(&hpf::sparse::io::read_matrix_market(&text).unwrap());
    let stop = StopCriterion::RelativeResidual(1e-10);
    let (x1, _) = cg(&a, &b, stop, 1000).unwrap();
    let (x2, _) = cg(&back, &b, stop, 1000).unwrap();
    for (u, v) in x1.iter().zip(x2.iter()) {
        assert!((u - v).abs() < 1e-9);
    }
}

#[test]
fn alignment_graph_drives_real_redistribution() {
    use hpf::dist::{AlignmentGraph, DistSpec};
    // Build the Figure 2 alignment group, then REDISTRIBUTE p and check
    // all aligned arrays move, with data preserved.
    let n = 64;
    let np = 4;
    let mut g = AlignmentGraph::new(np);
    g.distribute("p", n, DistSpec::Block);
    for name in ["q", "r", "x", "b"] {
        g.align(name, n, "p").unwrap();
    }
    let before = g.descriptor("r").unwrap();
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut r = DistVector::from_global(before, &data);

    let moved = g.redistribute("p", DistSpec::Cyclic).unwrap();
    assert_eq!(moved.len(), 5);
    let after = g.descriptor("r").unwrap();
    let mut m = Machine::hypercube(np);
    r.redistribute(&mut m, after.clone(), "group-move");
    for p in 0..np {
        for (off, &gidx) in after.global_indices(p).iter().enumerate() {
            assert_eq!(r.local(p)[off], data[gidx]);
        }
    }
    assert!(m.total_words_sent() > 0);
}
