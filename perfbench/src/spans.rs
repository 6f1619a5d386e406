//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the crates' public functions; nothing inside the crates changes. A
//! span's parent is the span open on the same thread when it started.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        SpanGuard { rec: self, idx }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[self.idx].end_ns = end;
        }
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
    }
}

/// Totals per span name, with self time = duration minus the time its
/// direct children cover (children never overlap: they nest on one
/// thread).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean span duration in µs.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 * 1e-3
    }

    /// This name's total time as a share of `whole`'s.
    pub fn share_of(&self, whole: &Totals) -> f64 {
        self.total_ns as f64 / whole.total_ns as f64
    }

    /// Self time as a share of total time.
    pub fn self_share(&self) -> f64 {
        self.self_ns as f64 / self.total_ns as f64
    }
}

pub fn totals(spans: &[Span], name: &str) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut t = Totals::default();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("solve", None, 0, 100),
            span("matvec", Some(0), 10, 40),
            span("precond", Some(0), 50, 90),
            span("inner", Some(2), 60, 70),
        ];
        let solve = totals(&spans, "solve");
        assert_eq!(solve.count, 1);
        assert_eq!(solve.total_ns, 100);
        assert_eq!(solve.self_ns, 30);
        assert_eq!(totals(&spans, "precond").self_ns, 30);
        assert_eq!(totals(&spans, "matvec").self_ns, 30);
        assert_eq!(solve.self_share(), 0.3);
        assert_eq!(totals(&spans, "precond").share_of(&solve), 0.4);
        assert_eq!(totals(&spans, "matvec").mean_us(), 0.03);
    }

    #[test]
    fn recorder_nests_by_thread() {
        let rec = Recorder::new();
        {
            let _a = rec.span("solve");
            let _b = rec.span("matvec");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _c = rec.span("wait");
            })
            .join()
            .expect("span thread")
        });
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).expect("write to memory");
        assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 3);
    }
}
