//! Host-speed pacing for wall times.
//!
//! The cores of a shared host run other tenants' work, and the speed
//! they give this process drifts by ±30% over tens of seconds. A run
//! therefore measures a fixed reference computation owned by this crate,
//! serial CG sweeps over a 256×256 five-point stencil in this crate's
//! own arrays, with no call into the library crates, so no change to
//! them moves it. A paced time is a wall time scaled by how much slower
//! than nominal the reference ran:
//!
//! - an operation long enough to carry its own reference (a solve or a
//!   set-up) is paced by the measurements right before and after it,
//!   `wall_s × NOMINAL_ITER_S / mean(before, after)` ([`Pacer::pace`]);
//! - service traffic, sub-millisecond jobs on several threads, is paced
//!   as a whole run by the median of the measurements taken between its
//!   rounds, `wall_s × NOMINAL_ITER_S / median` ([`Pacer::factor`]).

use crate::stats::median;
use std::time::Instant;

/// Seconds per reference sweep on the development host (2-core Xeon at
/// 2.1 GHz, 2 MiB L2), rounded: the median over a probe of several
/// minutes ranged from 0.64 to 0.83 ms as the host's speed drifted.
/// Paced times are seconds at this reference speed.
pub const NOMINAL_ITER_S: f64 = 6.7e-4;

/// Grid side of the reference's five-point stencil.
const SIDE: usize = 256;

/// The reference computation and the sweep times it measured.
pub struct Pacer {
    ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    /// Sweeps per measurement.
    sweeps: usize,
    /// Seconds per sweep, one entry per measurement.
    measured: Vec<f64>,
}

/// One operation paced by the measurements around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced {
    pub wall_s: f64,
    pub paced_s: f64,
}

impl Pacer {
    /// A reference of `sweeps` CG sweeps per measurement; takes the first
    /// measurement now.
    pub fn new(sweeps: usize) -> Pacer {
        let n = SIDE * SIDE;
        let (mut ptr, mut col, mut val) = (vec![0], Vec::new(), Vec::new());
        for i in 0..SIDE {
            for j in 0..SIDE {
                let row = i * SIDE + j;
                let mut push = |c: usize, v: f64| {
                    col.push(c);
                    val.push(v);
                };
                if i > 0 {
                    push(row - SIDE, -1.0);
                }
                if j > 0 {
                    push(row - 1, -1.0);
                }
                push(row, 4.0);
                if j + 1 < SIDE {
                    push(row + 1, -1.0);
                }
                if i + 1 < SIDE {
                    push(row + SIDE, -1.0);
                }
                ptr.push(col.len());
            }
        }
        let mut pacer = Pacer {
            ptr,
            col,
            val,
            x: vec![0.0; n],
            r: vec![0.0; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
            sweeps: sweeps.max(1),
            measured: Vec::new(),
        };
        pacer.measure();
        pacer
    }

    /// Run the reference once; record and return its seconds per sweep.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.sweep());
        let per_sweep = t.elapsed().as_secs_f64() / self.sweeps as f64;
        self.measured.push(per_sweep);
        per_sweep
    }

    /// CG from a fixed start vector: every call does the same work.
    fn sweep(&mut self) -> f64 {
        let n = self.x.len();
        for i in 0..n {
            self.x[i] = 0.0;
            self.r[i] = ((i * 7919) % 17) as f64 - 8.0;
            self.p[i] = self.r[i];
        }
        let mut rr: f64 = self.r.iter().map(|v| v * v).sum();
        for _ in 0..self.sweeps {
            for i in 0..n {
                let mut s = 0.0;
                for k in self.ptr[i]..self.ptr[i + 1] {
                    s += self.val[k] * self.p[self.col[k]];
                }
                self.q[i] = s;
            }
            let pq: f64 = self.p.iter().zip(&self.q).map(|(a, b)| a * b).sum();
            let alpha = rr / pq;
            for i in 0..n {
                self.x[i] += alpha * self.p[i];
                self.r[i] -= alpha * self.q[i];
            }
            let next: f64 = self.r.iter().map(|v| v * v).sum();
            let beta = next / rr;
            rr = next;
            for i in 0..n {
                self.p[i] = self.r[i] + beta * self.p[i];
            }
        }
        self.x[n / 2]
    }

    /// Pace `wall_s`, an operation that ran since the last measurement,
    /// by that measurement and one taken now, after it.
    pub fn pace(&mut self, wall_s: f64) -> f64 {
        let before = *self.measured.last().expect("measured at creation");
        let after = self.measure();
        wall_s * (NOMINAL_ITER_S / ((before + after) / 2.0))
    }

    /// Time `f` and pace it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Paced) {
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let paced_s = self.pace(wall_s);
        (out, Paced { wall_s, paced_s })
    }

    /// The factor from wall to paced time for a whole run: from the
    /// median of every measurement so far.
    pub fn factor(&self) -> f64 {
        NOMINAL_ITER_S / median(&self.measured)
    }

    /// One line on what paced the run, for the notes.
    pub fn describe(&self) -> String {
        format!(
            "paced: wall times × {:?} (reference sweep {:?} s nominal, median {:?} s over {} measurements)",
            self.factor(),
            NOMINAL_ITER_S,
            median(&self.measured),
            self.measured.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_repeats_the_same_work_and_paces_by_it() {
        let mut pacer = Pacer::new(2);
        assert_eq!(pacer.sweep().to_bits(), pacer.sweep().to_bits());
        let before = pacer.measured[0];
        let ((), p) = pacer.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let after = pacer.measured[1];
        assert!(before > 0.0 && after > 0.0 && p.wall_s >= 0.005);
        // An operation is paced by the reference's speed around it: a
        // slower reference means a slower host, not a slower operation.
        let expected = p.wall_s * (NOMINAL_ITER_S / ((before + after) / 2.0));
        assert_eq!(p.paced_s.to_bits(), expected.to_bits());
        // A run is paced by the median of its measurements.
        let n = NOMINAL_ITER_S;
        // One slow measurement among five does not move the factor.
        pacer.measured = vec![n, n, 4.0 * n, n, n];
        assert_eq!(pacer.factor(), 1.0);
        // A host at half speed halves it: paced times are wall times
        // at the nominal speed.
        pacer.measured = vec![2.0 * n; 4];
        assert_eq!(pacer.factor(), 0.5);
    }
}
