//! Distributed vectors and the HPF vector intrinsics.
//!
//! The paper's CG iteration needs exactly three vector-operation classes
//! (Section 2): SAXPY-class updates (`x = x + alpha*p`, `p = beta*p + r`),
//! inner products (`DOT_PRODUCT(r, r)`), and the matrix–vector multiply.
//! This module provides the first two over [`DistVector`]s:
//!
//! * SAXPY/SAYPX are HPF "parallel array assignments": with all operands
//!   aligned they run in `O(n/N_P)` with **zero** communication;
//! * `DOT_PRODUCT` does its element-wise multiplies locally and pays one
//!   scalar all-reduce merge — `t_startup * log N_P` on the hypercube.

use std::borrow::Cow;

use hpf_dist::{ArrayDescriptor, DistSpec};
use hpf_machine::Machine;

/// A distributed 1-D array of `f64` with real per-processor local data.
///
/// All local parts live in one contiguous buffer, processor after
/// processor; `offsets[p]..offsets[p + 1]` is processor `p`'s part. For
/// ordered layouts ([`ArrayDescriptor::is_ordered`]) the buffer is the
/// global array itself, so gathering or scattering it is one copy.
///
/// ```
/// use hpf_core::DistVector;
/// use hpf_dist::ArrayDescriptor;
/// use hpf_machine::Machine;
///
/// let mut m = Machine::hypercube(4);
/// let d = ArrayDescriptor::block(8, 4);
/// let mut y = DistVector::constant(d.clone(), 1.0);
/// let x = DistVector::from_global(d, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
/// y.axpy(&mut m, 2.0, &x);                 // y = y + 2x: zero communication
/// assert_eq!(y.get(3), 7.0);
/// let s = y.dot(&mut m, &y);               // one t_s*log(NP) merge
/// assert!(s > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector {
    desc: ArrayDescriptor,
    data: Vec<f64>,
    offsets: Vec<usize>,
}

impl DistVector {
    /// Distribute a global vector according to `desc`.
    pub fn from_global(desc: ArrayDescriptor, global: &[f64]) -> Self {
        assert_eq!(desc.len(), global.len(), "descriptor/data length mismatch");
        let data = if desc.is_ordered() {
            global.to_vec()
        } else {
            (0..desc.np())
                .flat_map(|p| desc.global_indices(p))
                .map(|g| global[g])
                .collect()
        };
        let offsets = offsets_of(&desc);
        DistVector {
            desc,
            data,
            offsets,
        }
    }

    /// All-zero distributed vector.
    pub fn zeros(desc: ArrayDescriptor) -> Self {
        Self::constant(desc, 0.0)
    }

    /// Constant-filled distributed vector.
    pub fn constant(desc: ArrayDescriptor, value: f64) -> Self {
        let offsets = offsets_of(&desc);
        let data = vec![value; offsets[desc.np()]];
        DistVector {
            desc,
            data,
            offsets,
        }
    }

    pub fn descriptor(&self) -> &ArrayDescriptor {
        &self.desc
    }

    pub fn len(&self) -> usize {
        self.desc.len()
    }

    pub fn is_empty(&self) -> bool {
        self.desc.is_empty()
    }

    /// Local part of processor `p`.
    pub fn local(&self, p: usize) -> &[f64] {
        &self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Mutable local part of processor `p`.
    pub fn local_mut(&mut self, p: usize) -> &mut [f64] {
        &mut self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// The vector in global order, borrowed when the layout is ordered
    /// (inspection path; does not charge the machine).
    pub fn global_view(&self) -> Cow<'_, [f64]> {
        if self.desc.is_ordered() {
            return Cow::Borrowed(&self.data);
        }
        let mut out = vec![0.0; self.desc.len()];
        for p in 0..self.desc.np() {
            for (&g, &v) in self.desc.global_indices(p).iter().zip(self.local(p)) {
                out[g] = v;
            }
        }
        Cow::Owned(out)
    }

    /// Gather the vector back to a global array (test/inspection path;
    /// does not charge the machine).
    pub fn to_global(&self) -> Vec<f64> {
        self.global_view().into_owned()
    }

    /// Read one global element (owner lookup; free, for tests).
    pub fn get(&self, i: usize) -> f64 {
        self.data[self.slot(i)]
    }

    /// Storage index of global element `i` on its owner.
    fn slot(&self, i: usize) -> usize {
        self.offsets[self.desc.owner(i)] + self.desc.local_offset(i)
    }

    /// Replace global element `i` by `f` of itself, in every stored copy.
    pub(crate) fn update(&mut self, i: usize, f: &dyn Fn(f64) -> f64) {
        if self.desc.spec() == &DistSpec::Replicated {
            for p in 0..self.desc.np() {
                let s = &mut self.data[self.offsets[p] + i];
                *s = f(*s);
            }
        } else {
            let k = self.slot(i);
            self.data[k] = f(self.data[k]);
        }
    }

    fn assert_aligned(&self, other: &DistVector, op: &str) {
        assert!(
            self.desc.same_layout(other.descriptor()),
            "{op}: operands must be aligned (identical layouts); \
             realign with ALIGN/REDISTRIBUTE first"
        );
    }

    /// Per-processor local lengths (the flop distribution of element-wise
    /// ops).
    fn local_flops(&self, per_element: usize) -> Vec<usize> {
        self.offsets
            .windows(2)
            .map(|w| per_element * (w[1] - w[0]))
            .collect()
    }

    // ------------------------------------------------------------------
    // HPF parallel array assignments (communication-free when aligned)
    // ------------------------------------------------------------------

    /// `self = self + alpha * x` — the SAXPY of the paper's
    /// `x = x + alpha*p` / `r = r - alpha*q` lines.
    pub fn axpy(&mut self, machine: &mut Machine, alpha: f64, x: &DistVector) {
        self.assert_aligned(x, "axpy");
        for (s, &v) in self.data.iter_mut().zip(&x.data) {
            *s += alpha * v;
        }
        let flops = self.local_flops(2);
        machine.compute_all(&flops, "saxpy");
    }

    /// `self = beta * self + x` — the SAYPX of the paper's
    /// `p = beta*p + r` line.
    pub fn aypx(&mut self, machine: &mut Machine, beta: f64, x: &DistVector) {
        self.assert_aligned(x, "aypx");
        for (s, &v) in self.data.iter_mut().zip(&x.data) {
            *s = beta * *s + v;
        }
        let flops = self.local_flops(2);
        machine.compute_all(&flops, "saypx");
    }

    /// `self = alpha * self`.
    pub fn scale(&mut self, machine: &mut Machine, alpha: f64) {
        for s in &mut self.data {
            *s *= alpha;
        }
        let flops = self.local_flops(1);
        machine.compute_all(&flops, "scale");
    }

    /// Element-wise copy (aligned, communication-free).
    pub fn copy_from(&mut self, other: &DistVector) {
        self.assert_aligned(other, "copy");
        self.data.clone_from(&other.data);
        self.offsets.clone_from(&other.offsets);
    }

    /// Set every element to `v` (HPF `q = 0.0` style array assignment).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Element-wise combine with an arbitrary function (aligned).
    pub fn zip_apply(
        &mut self,
        machine: &mut Machine,
        other: &DistVector,
        flops_per_element: usize,
        label: &str,
        f: impl Fn(f64, f64) -> f64,
    ) {
        self.assert_aligned(other, "zip_apply");
        for (s, &v) in self.data.iter_mut().zip(&other.data) {
            *s = f(*s, v);
        }
        let flops = self.local_flops(flops_per_element);
        machine.compute_all(&flops, label);
    }

    // ------------------------------------------------------------------
    // Intrinsics with a merge phase
    // ------------------------------------------------------------------

    /// HPF `DOT_PRODUCT(self, other)`.
    ///
    /// "The element-wise multiplications in the inner-product operations
    /// can be performed locally without any communication overhead while
    /// the merge phase for adding up the partial results from processors
    /// involves communication overhead." — local phase `O(n/N_P)`, merge
    /// `t_startup * log N_P` on the hypercube.
    pub fn dot(&self, machine: &mut Machine, other: &DistVector) -> f64 {
        self.assert_aligned(other, "dot");
        let partials: Vec<f64> = (0..self.desc.np())
            .map(|p| {
                self.local(p)
                    .iter()
                    .zip(other.local(p))
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        let flops = self.local_flops(2);
        machine.compute_all(&flops, "dot-local");
        machine.allreduce(1, "dot-merge");
        // Deterministic merge order: processor rank order. The merged
        // scalar passes through the fault layer: an armed corruption
        // (bit flip, crash) lands here, exactly where a real machine
        // would deliver a damaged reduction result.
        machine.corrupt_scalar(partials.iter().sum())
    }

    /// HPF `SUM(self)` intrinsic: local sums + scalar merge.
    pub fn sum(&self, machine: &mut Machine) -> f64 {
        let mut total = 0.0;
        for p in 0..self.desc.np() {
            total += self.local(p).iter().sum::<f64>();
        }
        let flops = self.local_flops(1);
        machine.compute_all(&flops, "sum-local");
        machine.allreduce(1, "sum-merge");
        machine.corrupt_scalar(total)
    }

    /// Euclidean norm via `DOT_PRODUCT` (plus one scalar sqrt).
    pub fn norm2(&self, machine: &mut Machine) -> f64 {
        self.dot(machine, self).sqrt()
    }

    /// Replicate the whole vector on every processor via an all-to-all
    /// broadcast (allgather) — the operation Scenario 1's matvec needs.
    /// Returns the replicated global array (borrowed for ordered
    /// layouts, see [`DistVector::global_view`]) and charges
    /// `t_startup*log NP + t_word*(NP-1)*n/NP`.
    pub fn allgather(&self, machine: &mut Machine, label: &str) -> Cow<'_, [f64]> {
        let words_each = self.desc.len().div_ceil(self.desc.np().max(1));
        machine.allgather(words_each, label);
        self.global_view()
    }

    /// `!HPF$ REDISTRIBUTE` at the data level: move this vector to a new
    /// layout, performing the real element movement and charging the
    /// machine with the exact processor-to-processor traffic the change
    /// induces. "Whenever its distribution is changed, the others
    /// [aligned with it] are also automatically redistributed" — callers
    /// redistribute every member of an alignment group together.
    pub fn redistribute(&mut self, machine: &mut Machine, to: ArrayDescriptor, label: &str) {
        assert_eq!(self.desc.len(), to.len(), "redistribute length mismatch");
        assert_eq!(
            self.desc.np(),
            to.np(),
            "redistribute processor-count mismatch"
        );
        // Aligned layouts move nothing; the storage is still rebuilt, as
        // specs that agree on owners may still store differently (a
        // replicated copy per processor, say).
        if !self.desc.same_layout(&to) {
            hpf_dist::redistribute::redistribute(machine, &self.desc, &to, label);
        }
        let moved = DistVector::from_global(to, &self.global_view());
        *self = moved;
    }
}

/// Start of each processor's part in the contiguous buffer, plus the end.
fn offsets_of(desc: &ArrayDescriptor) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(desc.np() + 1);
    offsets.push(0);
    for p in 0..desc.np() {
        offsets.push(offsets[p] + desc.local_len(p));
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, EventKind, Topology};

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn vec_of(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn roundtrip_block_and_cyclic() {
        let g = vec_of(10, |i| i as f64);
        for desc in [
            ArrayDescriptor::block(10, 4),
            ArrayDescriptor::cyclic(10, 4),
        ] {
            let v = DistVector::from_global(desc, &g);
            assert_eq!(v.to_global(), g);
            assert_eq!(v.get(7), 7.0);
        }
    }

    #[test]
    fn axpy_matches_serial_and_is_comm_free() {
        let mut m = machine(4);
        let d = ArrayDescriptor::block(100, 4);
        let mut y = DistVector::from_global(d.clone(), &vec_of(100, |i| i as f64));
        let x = DistVector::from_global(d, &vec_of(100, |i| 2.0 * i as f64));
        y.axpy(&mut m, 0.5, &x);
        assert_eq!(y.to_global(), vec_of(100, |i| 2.0 * i as f64));
        // Zero communication, only compute events.
        assert_eq!(m.trace().total_comm_words(), 0);
        assert_eq!(m.trace().count(EventKind::Compute), 1);
        assert_eq!(m.total_flops(), 200);
    }

    #[test]
    fn aypx_is_the_papers_saypx() {
        let mut m = machine(2);
        let d = ArrayDescriptor::block(6, 2);
        let mut p = DistVector::from_global(d.clone(), &vec_of(6, |i| i as f64));
        let r = DistVector::constant(d, 1.0);
        p.aypx(&mut m, 3.0, &r); // p = 3p + r
        assert_eq!(p.to_global(), vec_of(6, |i| 3.0 * i as f64 + 1.0));
    }

    #[test]
    fn dot_matches_serial_and_charges_merge() {
        let mut m = machine(8);
        let d = ArrayDescriptor::block(64, 8);
        let a = DistVector::from_global(d.clone(), &vec_of(64, |i| (i % 5) as f64));
        let b = DistVector::from_global(d, &vec_of(64, |i| (i % 3) as f64));
        let got = a.dot(&mut m, &b);
        let want: f64 = (0..64).map(|i| ((i % 5) * (i % 3)) as f64).sum();
        assert!((got - want).abs() < 1e-12);
        // Exactly one scalar all-reduce merge.
        assert_eq!(m.trace().count(EventKind::AllReduce), 1);
        let merge = m.trace().with_label("dot-merge").next().unwrap();
        // On a hypercube of 8 the merge pays 3 startups.
        let c = *m.cost_model();
        let expect = 3.0 * (c.t_startup + c.t_word + c.t_flop);
        assert!((merge.time - expect).abs() < 1e-12);
    }

    #[test]
    fn saxpy_time_scales_inversely_with_np() {
        // O(n/NP): doubling NP halves the simulated SAXPY phase time.
        let n = 1 << 12;
        let mut t = Vec::new();
        for np in [2usize, 4, 8] {
            let mut m = machine(np);
            let d = ArrayDescriptor::block(n, np);
            let mut y = DistVector::zeros(d.clone());
            let x = DistVector::constant(d, 1.0);
            y.axpy(&mut m, 1.0, &x);
            t.push(m.elapsed());
        }
        assert!((t[0] / t[1] - 2.0).abs() < 1e-9);
        assert!((t[1] / t[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_operands_rejected() {
        let mut m = machine(4);
        let mut y = DistVector::zeros(ArrayDescriptor::block(16, 4));
        let x = DistVector::zeros(ArrayDescriptor::cyclic(16, 4));
        y.axpy(&mut m, 1.0, &x);
    }

    #[test]
    fn sum_and_norm() {
        let mut m = machine(4);
        let d = ArrayDescriptor::cyclic(9, 4);
        let v = DistVector::from_global(d, &vec_of(9, |i| i as f64));
        assert_eq!(v.sum(&mut m), 36.0);
        let n = v.norm2(&mut m);
        let want: f64 = (0..9).map(|i| (i * i) as f64).sum::<f64>();
        assert!((n - want.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn allgather_replicates_and_charges() {
        let mut m = machine(4);
        let d = ArrayDescriptor::block(32, 4);
        let v = DistVector::from_global(d, &vec_of(32, |i| i as f64));
        let g = v.allgather(&mut m, "bcast-p");
        assert_eq!(g, vec_of(32, |i| i as f64));
        assert_eq!(m.trace().count(EventKind::AllGather), 1);
        assert!(m.trace().with_label("bcast-p").next().unwrap().words == 32);
    }

    #[test]
    fn fill_and_copy() {
        let d = ArrayDescriptor::block(8, 2);
        let mut a = DistVector::constant(d.clone(), 7.0);
        a.fill(0.0);
        assert_eq!(a.to_global(), vec![0.0; 8]);
        let b = DistVector::constant(d, 3.0);
        a.copy_from(&b);
        assert_eq!(a.to_global(), vec![3.0; 8]);
    }

    #[test]
    fn redistribute_moves_data_and_charges_machine() {
        let mut m = machine(4);
        let g = vec_of(16, |i| i as f64 * 3.0);
        let mut v = DistVector::from_global(ArrayDescriptor::block(16, 4), &g);
        v.redistribute(&mut m, ArrayDescriptor::cyclic(16, 4), "block->cyclic");
        // Data preserved under the new layout.
        assert_eq!(v.to_global(), g);
        assert_eq!(v.descriptor().spec(), &hpf_dist::DistSpec::Cyclic);
        assert_eq!(v.local(0), &[0.0, 12.0, 24.0, 36.0]);
        // The machine saw the exchange.
        assert_eq!(m.trace().count(EventKind::Redistribute), 1);
        assert!(m.total_words_sent() > 0);
        // Aligned ops work under the new layout.
        let w = DistVector::from_global(ArrayDescriptor::cyclic(16, 4), &g);
        assert!((v.dot(&mut m, &w) - g.iter().map(|x| x * x).sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn redistribute_to_same_layout_is_free() {
        let mut m = machine(4);
        let mut v = DistVector::constant(ArrayDescriptor::block(12, 4), 2.0);
        v.redistribute(&mut m, ArrayDescriptor::block(12, 4), "noop");
        assert_eq!(m.trace().len(), 0);
        assert_eq!(m.total_words_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn redistribute_length_checked() {
        let mut m = machine(2);
        let mut v = DistVector::zeros(ArrayDescriptor::block(8, 2));
        v.redistribute(&mut m, ArrayDescriptor::block(10, 2), "bad");
    }

    #[test]
    fn zip_apply_custom_op() {
        let mut m = machine(2);
        let d = ArrayDescriptor::block(4, 2);
        let mut a = DistVector::from_global(d.clone(), &[1.0, 2.0, 3.0, 4.0]);
        let b = DistVector::from_global(d, &[10.0, 20.0, 30.0, 40.0]);
        a.zip_apply(&mut m, &b, 1, "mul", |x, y| x * y);
        assert_eq!(a.to_global(), vec![10.0, 40.0, 90.0, 160.0]);
    }
}
