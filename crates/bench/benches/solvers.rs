//! E1/E11/E12/E14 benches: the CG family, distributed CG, and
//! preconditioning, as wall-clock measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_solvers::{
    bicg, bicgstab, cg, cg_distributed, cgs, pcg, JacobiPrec, SsorPrec, StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CsrMatrix};
use std::hint::black_box;

fn bench_cg_iteration(c: &mut Criterion) {
    // E1: the Figure 2 program per-solve cost, serial vs distributed.
    let a = gen::poisson_2d(32, 32);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let stop = StopCriterion::RelativeResidual(1e-8);
    let mut group = c.benchmark_group("e1_cg");
    group.sample_size(10);
    group.bench_function("serial", |bch| {
        bch.iter(|| black_box(cg(&a, &b, stop, 5000).unwrap()))
    });
    for np in [4usize, 16] {
        group.bench_with_input(BenchmarkId::new("distributed", np), &np, |bch, &np| {
            let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
            bch.iter(|| {
                let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
                m.set_tracing(false);
                black_box(cg_distributed(&mut m, &op, &b, stop, 5000).unwrap())
            });
        });
    }
    group.finish();
}

fn nonsymmetric(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.6).unwrap();
            coo.push(i + 1, i, -0.4).unwrap();
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn bench_solver_family(c: &mut Criterion) {
    // E12: CG / BiCG / CGS / BiCGSTAB wall-clock per solve.
    let spd = gen::poisson_2d(24, 24);
    let (_, b_spd) = gen::rhs_for_known_solution(&spd);
    let ns = nonsymmetric(576);
    let (_, b_ns) = gen::rhs_for_known_solution(&ns);
    let stop = StopCriterion::RelativeResidual(1e-8);
    let mut group = c.benchmark_group("e12_family");
    group.sample_size(10);
    group.bench_function("cg_spd", |bch| {
        bch.iter(|| black_box(cg(&spd, &b_spd, stop, 5000).unwrap()))
    });
    group.bench_function("bicg_nonsym", |bch| {
        bch.iter(|| black_box(bicg(&ns, &b_ns, stop, 5000).unwrap()))
    });
    group.bench_function("cgs_nonsym", |bch| {
        bch.iter(|| black_box(cgs(&ns, &b_ns, stop, 5000)))
    });
    group.bench_function("bicgstab_nonsym", |bch| {
        bch.iter(|| black_box(bicgstab(&ns, &b_ns, stop, 5000).unwrap()))
    });
    group.finish();
}

fn bench_preconditioning(c: &mut Criterion) {
    // E14: plain vs Jacobi vs SSOR on a badly scaled system.
    let base = gen::poisson_2d(16, 16);
    let n = base.n_rows();
    let mut coo = CooMatrix::new(n, n);
    let scale = |i: usize| 10f64.powi((i % 5) as i32 - 2);
    for i in 0..n {
        for (j, v) in base.row(i) {
            coo.push(i, j, v * scale(i) * scale(j)).unwrap();
        }
    }
    let a = CsrMatrix::from_coo(&coo);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let stop = StopCriterion::RelativeResidual(1e-8);
    let mut group = c.benchmark_group("e14_pcg");
    group.sample_size(10);
    group.bench_function("plain", |bch| {
        bch.iter(|| black_box(cg(&a, &b, stop, 100 * n).unwrap()))
    });
    group.bench_function("jacobi", |bch| {
        let m = JacobiPrec::new(&a).unwrap();
        bch.iter(|| black_box(pcg(&a, &m, &b, stop, 100 * n).unwrap()))
    });
    group.bench_function("ssor", |bch| {
        let m = SsorPrec::new(&a, 1.2).unwrap();
        bch.iter(|| black_box(pcg(&a, &m, &b, stop, 100 * n).unwrap()))
    });
    group.finish();
}

fn bench_ne_convergence(c: &mut Criterion) {
    // E11: solve time as distinct-eigenvalue count grows.
    let mut group = c.benchmark_group("e11_ne");
    group.sample_size(10);
    for ne in [2usize, 4, 8] {
        let eigs: Vec<f64> = (1..=ne).map(|k| k as f64 * 1.7 + 0.5).collect();
        let a = gen::distinct_eigenvalues(48, &eigs, 192, 23);
        let (_, b) = gen::rhs_for_known_solution(&a);
        group.bench_with_input(BenchmarkId::from_parameter(ne), &ne, |bch, _| {
            bch.iter(|| black_box(cg(&a, &b, StopCriterion::RelativeResidual(1e-9), 500).unwrap()));
        });
    }
    group.finish();
}

fn bench_gmres_and_dist(c: &mut Criterion) {
    use hpf_solvers::{bicg_distributed, gmres, NullObserver};
    let a = gen::poisson_2d(16, 16);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let stop = StopCriterion::RelativeResidual(1e-8);
    let mut group = c.benchmark_group("e19_gmres");
    group.sample_size(10);
    for m in [10usize, 40] {
        group.bench_with_input(BenchmarkId::new("gmres", m), &m, |bch, &m| {
            bch.iter(|| black_box(gmres(&a, &b, m, stop, 100_000).unwrap()))
        });
    }
    group.bench_function("bicg_distributed_np8", |bch| {
        let ns = nonsymmetric(256);
        let (_, bn) = gen::rhs_for_known_solution(&ns);
        let op = RowwiseCsr::block(ns.clone(), 8, DataArrayLayout::RowAligned);
        bch.iter(|| {
            let mut m = Machine::new(8, Topology::Hypercube, CostModel::mpp_1995());
            m.set_tracing(false);
            black_box(bicg_distributed(&mut m, &op, &bn, stop, 5000, &mut NullObserver).unwrap())
        });
    });
    group.finish();
}

fn bench_directive_frontend(c: &mut Criterion) {
    // The hpf-lang front-end on the Figure 2 deck.
    let deck = "\n!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ DISTRIBUTE row(CYCLIC((n+NP-1)/np))\n!HPF$ ALIGN a(:) WITH col(:)\n!HPF$ DISTRIBUTE col(BLOCK)\n";
    let mut group = c.benchmark_group("lang_frontend");
    group.bench_function("parse_figure2", |bch| {
        bch.iter(|| black_box(hpf_lang::parse_program(deck).unwrap()))
    });
    group.bench_function("parse_and_elaborate", |bch| {
        let env = hpf_lang::Env::new().bind("np", 8).bind("n", 1024);
        let extents: std::collections::BTreeMap<String, usize> = [
            ("p", 1024usize),
            ("q", 1024),
            ("r", 1024),
            ("x", 1024),
            ("b", 1024),
            ("row", 1025),
            ("col", 5120),
            ("a", 5120),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        bch.iter(|| {
            let ds = hpf_lang::parse_program(deck).unwrap();
            black_box(hpf_lang::elaborate(&ds, &env, &extents).unwrap())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cg_iteration,
    bench_solver_family,
    bench_preconditioning,
    bench_ne_convergence,
    bench_gmres_and_dist,
    bench_directive_frontend
);
criterion_main!(benches);
