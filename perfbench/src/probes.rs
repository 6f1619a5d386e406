//! Direct calls into single layers, timed from outside.

use crate::stats::median;
use hpf_core::DistVector;
use hpf_dist::atoms::AtomSpec;
use hpf_dist::ArrayDescriptor;
use hpf_mg::{GridDims, MgHierarchy, MgPreconditioner};
use hpf_solvers::DistPreconditioner;
use hpf_sparse::CsrMatrix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe repeats its call for.
pub const PROBE: Duration = Duration::from_millis(300);

/// Repeat `f` until `budget` has passed (at least once); mean seconds
/// per call.
pub fn mean_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed() < budget {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / calls as f64
}

/// Bytes one serial CSR product touches, computed from the array sizes
/// (values and column indices per nonzero, row pointers, `x` and `y`),
/// ignoring caches.
pub fn spmv_bytes(a: &CsrMatrix) -> usize {
    let word = std::mem::size_of::<f64>();
    let index = std::mem::size_of::<usize>();
    a.nnz() * (word + index) + (a.n_rows() + 1) * index + a.n_cols() * word + a.n_rows() * word
}

/// Serial `CsrMatrix::matvec` over `mats` in turn:
/// (ns per nonzero, computed GB/s).
pub fn spmv(mats: &[&CsrMatrix], x_seed: u64) -> (f64, f64) {
    let xs: Vec<Vec<f64>> = mats
        .iter()
        .map(|a| crate::rng::Rng::new(x_seed, 7).vector(a.n_cols()))
        .collect();
    let nnz: usize = mats.iter().map(|a| a.nnz()).sum();
    let bytes: usize = mats.iter().map(|a| spmv_bytes(a)).sum();
    let per_round = mean_call_s(PROBE, || {
        for (a, x) in mats.iter().zip(&xs) {
            black_box(a.matvec(black_box(x)).expect("square workload matrix"));
        }
    });
    (per_round * 1e9 / nnz as f64, bytes as f64 / per_round / 1e9)
}

/// One `DistVector::from_global` plus `to_global` on `desc`, in µs.
pub fn roundtrip_us(desc: &ArrayDescriptor, x_seed: u64) -> f64 {
    let x = crate::rng::Rng::new(x_seed, 8).vector(desc.len());
    1e6 * mean_call_s(PROBE, || {
        let d = DistVector::from_global(desc.clone(), black_box(&x));
        black_box(d.to_global());
    })
}

/// `MgHierarchy::build` (seconds, median of `builds`) and one V-cycle
/// (µs) for a `levels`-deep hierarchy on `dims` over `np` processors.
pub fn mg_layer(
    dims: GridDims,
    levels: usize,
    np: usize,
    builds: usize,
    x_seed: u64,
) -> (f64, f64) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..builds.max(1) {
        let t = Instant::now();
        let h = MgHierarchy::build(dims, levels, np).expect("workload grids support the depth");
        times.push(t.elapsed().as_secs_f64());
        built = Some(h);
    }
    let pre = MgPreconditioner::new(built.expect("at least one build"));
    (median(&times), vcycle_us(&pre, x_seed))
}

/// Mean wall time of one V-cycle application, in µs.
pub fn vcycle_us(pre: &MgPreconditioner, x_seed: u64) -> f64 {
    let desc = ArrayDescriptor::block(pre.hierarchy().fine_matrix().n_rows(), pre.hierarchy().np());
    let r = DistVector::from_global(
        desc.clone(),
        &crate::rng::Rng::new(x_seed, 9).vector(desc.len()),
    );
    let mut m = crate::machine(pre.hierarchy().np(), false);
    1e6 * mean_call_s(PROBE, || {
        black_box(pre.apply(&mut m, black_box(&r)));
    })
}

/// Median wall time, in ms, of the named registered partitioner
/// assigning the rows of each of `mats` to `np` processors.
pub fn partition_ms(mats: &[&CsrMatrix], np: usize, partitioner: &str) -> f64 {
    let p = hpf_partition::by_name(partitioner).expect("registered partitioner");
    let times: Vec<f64> = mats
        .iter()
        .map(|a| {
            let spec = AtomSpec::from_pointer_array(a.row_ptr());
            let graph = hpf_partition::connectivity_of(a);
            let t = Instant::now();
            black_box(p.partition(&spec, &graph, np));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
