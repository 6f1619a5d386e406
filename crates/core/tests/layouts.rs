//! Every distribution spec through the contiguous `DistVector` storage
//! and the owner-computes row-wise matvec.
//!
//! The specs include the edge shapes: `BLOCK(k)` with empty trailing
//! processors and irregular cuts with an empty segment.

use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::{ArrayDescriptor, DistSpec};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_sparse::gen;
use proptest::prelude::*;

/// One descriptor per `DistSpec` variant, plus the edge shapes.
fn every_spec(n: usize, np: usize) -> Vec<ArrayDescriptor> {
    // BLOCK(k) wide enough that the last processor(s) hold nothing.
    let wide = n.div_ceil(np.div_ceil(2)).max(1);
    // Even cuts, then processor 0's segment emptied.
    let mut cuts: Vec<usize> = (0..=np).map(|i| i * n / np).collect();
    if np > 1 {
        cuts[1] = 0;
    }
    let mut specs = vec![
        DistSpec::Block,
        DistSpec::BlockK(wide),
        DistSpec::paper_block(n, np),
        DistSpec::Cyclic,
        DistSpec::CyclicK(3),
        DistSpec::Replicated,
        DistSpec::IrregularCuts(cuts),
    ];
    if n > 0 {
        specs.push(DistSpec::BlockK(n));
    }
    specs
        .into_iter()
        .map(|s| ArrayDescriptor::new(n, np, s))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn edge_specs_have_the_advertised_holes() {
    let specs = every_spec(20, 4);
    assert_eq!(specs[1].local_lens(), vec![10, 10, 0, 0]);
    assert_eq!(specs[6].local_lens(), vec![0, 10, 5, 5]);
}

#[test]
fn rowwise_matvec_matches_serial_bit_for_bit_on_every_layout() {
    let a = gen::poisson_2d(9, 7);
    let n = a.n_rows();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 17) as f64 / 7.0 - 1.1)
        .collect();
    let want = bits(&a.matvec(&x).unwrap());
    for np in [1, 3, 4, 8] {
        for desc in every_spec(n, np) {
            for layout in [DataArrayLayout::RowAligned, DataArrayLayout::ElementBlock] {
                let op = RowwiseCsr::new(a.clone(), desc.clone(), layout);
                let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
                let p = DistVector::from_global(desc.clone(), &x);
                let (q, _) = op.matvec(&mut m, &p);
                assert_eq!(q.descriptor(), &desc);
                assert_eq!(bits(&q.to_global()), want, "{:?} {layout:?}", desc.spec());
                for proc in 0..np {
                    let gathered: Vec<f64> = desc
                        .global_indices(proc)
                        .iter()
                        .map(|&g| f64::from_bits(want[g]))
                        .collect();
                    assert_eq!(
                        bits(q.local(proc)),
                        bits(&gathered),
                        "{:?} p{proc}",
                        desc.spec()
                    );
                }
            }
        }
    }
}

proptest! {
    /// `from_global`/`to_global` round-trip, each local part is the
    /// `global_indices(p)` gather, and redistributing to any spec keeps
    /// the data, for every spec.
    #[test]
    fn storage_round_trips_and_locals_are_the_index_gather(
        n in 0usize..90,
        np in 1usize..9,
        shift in -50.0f64..50.0,
    ) {
        let g: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 + shift).collect();
        for desc in every_spec(n, np) {
            let v = DistVector::from_global(desc.clone(), &g);
            prop_assert_eq!(v.to_global(), g.clone());
            prop_assert_eq!(v.global_view().into_owned(), g.clone());
            for p in 0..np {
                let gathered: Vec<f64> = desc.global_indices(p).iter().map(|&i| g[i]).collect();
                prop_assert_eq!(v.local(p), &gathered[..]);
            }
            for (i, &gi) in g.iter().enumerate() {
                prop_assert_eq!(v.get(i), gi);
            }
            for to in every_spec(n, np) {
                let mut moved = v.clone();
                moved.redistribute(&mut Machine::hypercube(np), to.clone(), "move");
                prop_assert_eq!(moved.descriptor(), &to);
                prop_assert_eq!(moved.to_global(), g.clone());
            }
        }
    }
}
