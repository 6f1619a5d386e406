//! Chrome / Perfetto trace-event JSON exporter.
//!
//! Produces the classic `{"traceEvents": [...]}` JSON Array Format that
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Mapping:
//!
//! - one *process* (`pid` 0) represents the simulated machine;
//! - each simulated processor is a *thread* (`tid` = processor rank),
//!   named via `thread_name` metadata events;
//! - every [`Slice`] becomes a complete event
//!   (`ph: "X"`) with `ts`/`dur` in microseconds (simulated seconds ×
//!   10⁶ — the cost model's natural unit is seconds);
//! - zero-duration slices (instantaneous faults) become thread-scoped
//!   instant events (`ph: "i"`);
//! - the span path, word and flop counts ride along in `args`.
//!
//! A slice with a non-finite start or duration (a corrupted or
//! hand-edited trace) is rejected with a typed [`PerfettoError`] rather
//! than silently serialized as `null` — Perfetto refuses such
//! documents, so failing here keeps the error close to its cause.

use crate::json::{escape, json_f64};
use crate::timeline::{Slice, Timeline};

const US_PER_S: f64 = 1e6;

/// Why a timeline could not be exported.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfettoError {
    /// A slice's `start` or `dur` was NaN or infinite.
    NonFiniteTime {
        /// Index of the offending slice in `Timeline::slices`.
        slice: usize,
        /// The slice's processor rank.
        proc: usize,
        /// The slice's label (or kind when unlabeled).
        name: String,
    },
}

impl std::fmt::Display for PerfettoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfettoError::NonFiniteTime { slice, proc, name } => write!(
                f,
                "slice #{slice} ({name:?} on proc {proc}) has a non-finite start or duration"
            ),
        }
    }
}

impl std::error::Error for PerfettoError {}

/// Render a timeline as Chrome trace-event JSON (one self-contained
/// document, pretty enough to diff but compact per event).
pub fn trace_events_json(tl: &Timeline) -> Result<String, PerfettoError> {
    let mut events: Vec<String> = Vec::with_capacity(tl.slices.len() + tl.np);
    for proc in 0..tl.np {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{proc},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"proc {proc}\"}}}}"
        ));
    }
    for (i, slice) in tl.slices.iter().enumerate() {
        if !slice.start.is_finite() || !slice.dur.is_finite() {
            let name = if slice.label.is_empty() {
                slice.kind
            } else {
                &slice.label
            };
            return Err(PerfettoError::NonFiniteTime {
                slice: i,
                proc: slice.proc,
                name: name.to_string(),
            });
        }
        events.push(slice_json(slice));
    }
    Ok(format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}",
        events.join(",\n")
    ))
}

fn slice_json(s: &Slice) -> String {
    let name = if s.label.is_empty() { s.kind } else { &s.label };
    let args = format!(
        "{{\"span\":\"{}\",\"words\":{},\"flops\":{}}}",
        escape(&s.span),
        s.words,
        s.flops
    );
    if s.dur > 0.0 {
        format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{}}}",
            s.proc,
            escape(name),
            s.kind,
            json_f64(s.start * US_PER_S),
            json_f64(s.dur * US_PER_S),
            args
        )
    } else {
        format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"args\":{}}}",
            s.proc,
            escape(name),
            s.kind,
            json_f64(s.start * US_PER_S),
            args
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use hpf_machine::{CostModel, Machine, Topology};

    #[test]
    fn exported_document_is_valid_json_with_one_event_per_slice() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.set_tracing(true);
        {
            let _s = hpf_machine::span::enter("solve");
            m.compute_all(&[50, 50, 80, 50], "matvec");
            m.allreduce(1, "dot");
            m.barrier("sync");
        }
        let tl = Timeline::from_trace(m.trace());
        let doc = trace_events_json(&tl).unwrap();
        validate(&doc).expect("perfetto export must be well-formed JSON");
        // 4 thread_name metadata events + one event per slice.
        let events = doc.matches("\"ph\":").count();
        assert_eq!(events, 4 + tl.slices.len());
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("\"span\":\"solve\""));
        assert!(doc.contains("\"cat\":\"allreduce\""));
    }

    #[test]
    fn zero_duration_slices_become_instant_events() {
        let tl = Timeline {
            np: 1,
            slices: vec![crate::timeline::Slice {
                proc: 0,
                kind: "fault",
                span: "solve".to_string(),
                label: "bitflip".to_string(),
                start: 0.5,
                dur: 0.0,
                words: 0,
                flops: 0,
            }],
            total_time: 0.5,
        };
        let doc = trace_events_json(&tl).unwrap();
        validate(&doc).unwrap();
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ts\":500000"));
    }

    #[test]
    fn empty_timeline_is_still_a_valid_document() {
        let doc = trace_events_json(&Timeline::default()).unwrap();
        validate(&doc).unwrap();
        assert!(doc.contains("\"traceEvents\""));
    }

    fn slice(start: f64, dur: f64) -> crate::timeline::Slice {
        crate::timeline::Slice {
            proc: 2,
            kind: "compute",
            span: "solve/iter=1".to_string(),
            label: "saxpy".to_string(),
            start,
            dur,
            words: 0,
            flops: 10,
        }
    }

    #[test]
    fn non_finite_durations_are_a_typed_error_not_nan_in_output() {
        for (start, dur) in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            let tl = Timeline {
                np: 3,
                slices: vec![slice(start, dur)],
                total_time: 1.0,
            };
            let err = trace_events_json(&tl).unwrap_err();
            let PerfettoError::NonFiniteTime {
                slice: idx,
                proc,
                name,
            } = &err;
            assert_eq!((*idx, *proc, name.as_str()), (0, 2, "saxpy"));
            // The error is also printable for CLI use.
            assert!(err.to_string().contains("non-finite"));
        }
    }

    #[test]
    fn single_event_timeline_exports_one_slice() {
        let tl = Timeline {
            np: 1,
            slices: vec![slice(0.0, 0.25)],
            total_time: 0.25,
        };
        let doc = trace_events_json(&tl).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 1);
        assert!(doc.contains("\"span\":\"solve/iter=1\""));
    }
}
