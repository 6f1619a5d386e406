//! FNV-1a digests for the golden pins, shared by the solver and
//! multigrid test suites.
//!
//! [`digest`] covers a solve's full trace (`Trace::to_jsonl`), its
//! simulated clock and the bits of its solution. [`DigestObserver`]
//! folds every observer callback, in the order the solver makes them,
//! into a hash of its own: each [`IterSample`] field as bits, and every
//! `on_rollback` (with its reason) and `on_restart`.

#![allow(dead_code)]

use hpf_core::DistVector;
use hpf_machine::Machine;
use hpf_solvers::{IterObserver, IterSample};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit: stable across platforms and toolchains.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Trace JSONL, simulated clock and solution bits of one solve.
pub fn digest(m: &Machine, x: &DistVector) -> u64 {
    let h = fnv1a(m.trace().to_jsonl().into_bytes(), FNV_OFFSET);
    let h = fnv1a(m.elapsed().to_bits().to_le_bytes(), h);
    x.to_global()
        .iter()
        .fold(h, |h, v| fnv1a(v.to_bits().to_le_bytes(), h))
}

/// [`digest`] extended by everything `obs` saw.
pub fn observed_digest(m: &Machine, x: &DistVector, obs: &DigestObserver) -> u64 {
    fnv1a(obs.hash.to_le_bytes(), digest(m, x))
}

/// Hashes every callback it receives, in order.
pub struct DigestObserver {
    pub hash: u64,
    pub iterations: usize,
    pub rollbacks: usize,
    pub restarts: usize,
}

impl Default for DigestObserver {
    fn default() -> Self {
        DigestObserver {
            hash: FNV_OFFSET,
            iterations: 0,
            rollbacks: 0,
            restarts: 0,
        }
    }
}

impl DigestObserver {
    fn fold(&mut self, tag: u8, words: &[u64]) {
        self.hash = fnv1a([tag], self.hash);
        for w in words {
            self.hash = fnv1a(w.to_le_bytes(), self.hash);
        }
    }
}

impl IterObserver for DigestObserver {
    fn on_iteration(&mut self, s: &IterSample) {
        self.iterations += 1;
        self.fold(
            b'i',
            &[
                s.iteration as u64,
                s.residual_norm.to_bits(),
                s.alpha.to_bits(),
                s.beta.to_bits(),
                s.flops,
                s.comm_words,
                s.sim_time.to_bits(),
                s.predicted_time.to_bits(),
                s.rollbacks as u64,
            ],
        );
    }

    fn on_rollback(&mut self, iteration: usize, reason: &str) {
        self.rollbacks += 1;
        self.fold(b'b', &[iteration as u64]);
        self.hash = fnv1a(reason.bytes().chain([0]), self.hash);
    }

    fn on_restart(&mut self, iteration: usize) {
        self.restarts += 1;
        self.fold(b'r', &[iteration as u64]);
    }
}
