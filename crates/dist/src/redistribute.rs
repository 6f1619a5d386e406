//! `REDISTRIBUTE` — data movement between two layouts.
//!
//! "The REDISTRIBUTE directive indicates that the data is available for
//! use in the partitioning of the data arrays. The user is responsible
//! for putting the REDISTRIBUTE directive in the proper place to improve
//! the performance." (Section 5.2.1)
//!
//! Given the old and new [`ArrayDescriptor`]s this module computes the
//! exact processor-to-processor traffic matrix and charges it to the
//! simulated [`Machine`] as an irregular exchange.

use crate::atoms::{AtomAssignment, AtomSpec};
use crate::descriptor::ArrayDescriptor;
use hpf_machine::Machine;

/// Words each processor must send to each other processor to move an
/// array from `from` to `to` layout. `matrix[s][d]` = elements owned by
/// `s` under `from` that `d` owns under `to`.
pub fn traffic_matrix(from: &ArrayDescriptor, to: &ArrayDescriptor) -> Vec<Vec<usize>> {
    assert_eq!(from.len(), to.len(), "redistribute length mismatch");
    assert_eq!(from.np(), to.np(), "redistribute processor-count mismatch");
    let np = from.np();
    let mut m = vec![vec![0usize; np]; np];
    for i in 0..from.len() {
        let s = from.owner(i);
        let d = to.owner(i);
        if s != d {
            m[s][d] += 1;
        }
    }
    m
}

/// Total words moved by a redistribution.
pub fn total_words(from: &ArrayDescriptor, to: &ArrayDescriptor) -> usize {
    traffic_matrix(from, to)
        .iter()
        .map(|row| row.iter().sum::<usize>())
        .sum()
}

/// Execute the redistribution on the simulated machine (charging the
/// modeled exchange cost) and return the simulated time.
pub fn redistribute(
    machine: &mut Machine,
    from: &ArrayDescriptor,
    to: &ArrayDescriptor,
    label: &str,
) -> f64 {
    assert_eq!(machine.np(), from.np(), "machine size mismatch");
    let m = traffic_matrix(from, to);
    machine.exchange(&m, label)
}

/// Processor-to-processor traffic for moving whole atoms between two
/// atom assignments. Each moved atom carries `atom_size * words_per_element`
/// words (e.g. 2 for a CSC/CSR trio's `idx` + `values` arrays) plus
/// `words_per_atom` fixed words (pointer entry, per-row vector elements).
pub fn atom_traffic_matrix(
    spec: &AtomSpec,
    from: &AtomAssignment,
    to: &AtomAssignment,
    words_per_element: usize,
    words_per_atom: usize,
) -> Vec<Vec<usize>> {
    assert_eq!(from.n_atoms(), to.n_atoms(), "atom-count mismatch");
    assert_eq!(spec.n_atoms(), from.n_atoms(), "spec/assignment mismatch");
    assert_eq!(from.np, to.np, "processor-count mismatch");
    let np = from.np;
    let mut m = vec![vec![0usize; np]; np];
    for a in 0..spec.n_atoms() {
        let s = from.atom_owner[a];
        let d = to.atom_owner[a];
        if s != d {
            m[s][d] += spec.atom_size(a) * words_per_element + words_per_atom;
        }
    }
    m
}

/// Total words moved by an atom-granularity redistribution.
pub fn total_atom_words(
    spec: &AtomSpec,
    from: &AtomAssignment,
    to: &AtomAssignment,
    words_per_element: usize,
    words_per_atom: usize,
) -> usize {
    atom_traffic_matrix(spec, from, to, words_per_element, words_per_atom)
        .iter()
        .map(|row| row.iter().sum::<usize>())
        .sum()
}

/// `REDISTRIBUTE ... USING <partitioner>` — run a pluggable partitioner,
/// charge the machine for moving every atom whose owner changes, and
/// return the new assignment plus the words moved. The trace event is
/// labeled `REDISTRIBUTE USING <name>` so observability tooling can
/// attribute solve segments to the partitioner that laid them out.
///
/// Works for scattered target layouts too: traffic is computed at atom
/// granularity, no contiguous descriptor is required.
pub fn redistribute_using(
    machine: &mut Machine,
    spec: &AtomSpec,
    graph: &crate::graph::ConnectivityGraph,
    current: &AtomAssignment,
    partitioner: &dyn crate::partition::Partitioner,
    words_per_element: usize,
    words_per_atom: usize,
) -> (AtomAssignment, usize) {
    assert_eq!(machine.np(), current.np, "machine size mismatch");
    let next = partitioner.partition(spec, graph, current.np);
    let m = atom_traffic_matrix(spec, current, &next, words_per_element, words_per_atom);
    let words: usize = m.iter().map(|row| row.iter().sum::<usize>()).sum();
    let label = format!("REDISTRIBUTE USING {}", partitioner.name());
    machine.exchange(&m, &label);
    (next, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Topology};

    #[test]
    fn block_to_same_block_is_free() {
        let d = ArrayDescriptor::block(16, 4);
        assert_eq!(total_words(&d, &d), 0);
    }

    #[test]
    fn block_to_cyclic_moves_most_elements() {
        let from = ArrayDescriptor::block(16, 4);
        let to = ArrayDescriptor::cyclic(16, 4);
        // Under block, p owns 4 consecutive; under cyclic only 1 of each 4
        // stays home.
        assert_eq!(total_words(&from, &to), 12);
    }

    #[test]
    fn traffic_matrix_rows_match_ownership() {
        let from = ArrayDescriptor::block(8, 2);
        let to = ArrayDescriptor::cyclic(8, 2);
        let m = traffic_matrix(&from, &to);
        // p0 owns 0..4 under block; odd ones (1,3) go to p1.
        assert_eq!(m[0][1], 2);
        assert_eq!(m[1][0], 2);
        assert_eq!(m[0][0], 0);
    }

    #[test]
    fn machine_charged_for_exchange() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        let from = ArrayDescriptor::block(64, 4);
        let to = ArrayDescriptor::cyclic(64, 4);
        let t = redistribute(&mut m, &from, &to, "block->cyclic");
        assert!(t > 0.0);
        assert!(m.total_words_sent() > 0);
        assert_eq!(m.trace().count(hpf_machine::EventKind::Redistribute), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let a = ArrayDescriptor::block(10, 2);
        let b = ArrayDescriptor::block(12, 2);
        traffic_matrix(&a, &b);
    }

    #[test]
    fn atom_traffic_counts_moved_atoms_only() {
        let spec = AtomSpec::from_pointer_array(&[0, 4, 8, 9, 11]);
        let from = AtomAssignment::from_owners(vec![0, 0, 1, 1], 2);
        let to = AtomAssignment::from_owners(vec![0, 1, 1, 0], 2);
        // Atom 1 (4 elems) moves 0->1; atom 3 (2 elems) moves 1->0.
        let m = atom_traffic_matrix(&spec, &from, &to, 2, 1);
        assert_eq!(m[0][1], 4 * 2 + 1);
        assert_eq!(m[1][0], 2 * 2 + 1);
        assert_eq!(m[0][0] + m[1][1], 0);
        assert_eq!(total_atom_words(&spec, &from, &to, 2, 1), 14);
        // Identity move is free.
        assert_eq!(total_atom_words(&spec, &from, &from, 2, 1), 0);
    }

    #[test]
    fn redistribute_using_charges_machine_with_named_label() {
        use crate::graph::ConnectivityGraph;
        use crate::partition::Partitioner;

        struct ToCyclic;
        impl Partitioner for ToCyclic {
            fn name(&self) -> &'static str {
                "to-cyclic"
            }
            fn partition(
                &self,
                spec: &AtomSpec,
                _graph: &ConnectivityGraph,
                np: usize,
            ) -> AtomAssignment {
                AtomAssignment::atom_cyclic(spec, np)
            }
        }

        let mut machine = Machine::new(2, Topology::Hypercube, CostModel::mpp_1995());
        let spec = AtomSpec::uniform(8, 3);
        let graph = ConnectivityGraph::from_edges(8, &[]);
        let from = AtomAssignment::atom_block(&spec, 2);
        let (next, words) = redistribute_using(&mut machine, &spec, &graph, &from, &ToCyclic, 1, 0);
        assert!(!next.is_contiguous());
        assert!(words > 0);
        let trace = machine.trace();
        assert_eq!(trace.count(hpf_machine::EventKind::Redistribute), 1);
        let ev = &trace.events()[0];
        assert_eq!(ev.label, "REDISTRIBUTE USING to-cyclic");
    }
}
