//! Metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root names the same metrics with
//! the same units; a test keeps the two in step.

use crate::{Metrics, Outcome};

/// End-to-end metrics, printed by the untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sim_s", "sim-s"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 27] = [
    ("sparse.spmv_ns_per_nnz", "ns"),
    ("sparse.spmv_gbps_computed", "GB/s"),
    ("core.matvec_us", "us"),
    ("core.matvec_share", "ratio"),
    ("core.roundtrip_us", "us"),
    ("solvers.iters", "count"),
    ("solvers.serial_solve_s", "s"),
    ("solvers.dist_over_serial", "ratio"),
    ("solvers.loop_share", "ratio"),
    ("mg.build_s", "s"),
    ("mg.vcycle_us", "us"),
    ("mg.vcycle_share", "ratio"),
    ("machine.words_per_iter", "count"),
    ("machine.messages_per_iter", "count"),
    ("machine.flops_per_iter", "count"),
    ("machine.events_per_iter", "count"),
    ("machine.trace_overhead", "ratio"),
    ("machine.events_per_job", "count"),
    ("service.submit_us_p50", "us"),
    ("service.other_ms_p50", "ms"),
    ("service.wait_ms_p50", "ms"),
    ("service.batch_jobs_mean", "count"),
    ("service.plan_hit_ratio", "ratio"),
    ("service.solve_ms_p50", "ms"),
    ("service.attempts_per_job", "count"),
    ("partition.assign_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// The registry a run in this mode must fill exactly.
pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Check that `metrics` holds exactly the expected names with finite
/// values.
pub fn validate(metrics: &Metrics, trace: bool) -> Result<(), String> {
    let want = expected(trace);
    for (name, _) in want {
        match metrics.get(name) {
            None => return Err(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    if let Some((extra, _)) = metrics
        .0
        .iter()
        .find(|(n, _)| !want.iter().any(|(w, _)| w == n))
    {
        return Err(format!("metric {extra} is not in the registry"));
    }
    Ok(())
}

/// The one-line JSON result, metrics in registry order.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = expected(trace)
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    )
}

/// Shortest round-trip decimal form, always with a fraction or exponent
/// so it reads as a JSON number; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        for w in crate::Workload::ALL {
            assert!(valid_name(w.name()), "bad workload name {}", w.name());
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name("a/b"));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (name, unit) in &all {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\":").count(), all.len(), "metric count");
        for w in crate::Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
        assert_eq!(text.matches("\"why\":").count(), crate::Workload::ALL.len());
    }

    #[test]
    fn result_line_has_every_metric_with_all_digits() {
        let mut out = Outcome::default();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            out.metrics.set(n, 0.1234567890123 + i as f64);
        }
        out.tally.check(Ok(()));
        assert!(validate(&out.metrics, false).is_ok());
        assert!(validate(&out.metrics, true).is_err());
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}"));
        assert!(line.contains("\"rps\": {\"value\": 3.1234567890123, \"unit\": \"1/s\"}"));
        out.metrics.set("latency_p50_ms", f64::NAN);
        assert!(validate(&out.metrics, false).is_err());
    }
}
