//! `hpf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints host facts, the seed and notes, then one JSON result line as
//! the last line of standard output. Exits 1 when any answer is wrong
//! or a metric could not be measured, 2 on bad arguments.

use hpf_perfbench::{host, report, run, Run, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: hpf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut r = Run {
        workload: Workload::CgPoisson2d,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => r.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                r.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                r.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}; 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    r.workload = workload.ok_or("--workload is required")?;
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::describe());
    println!(
        "run: workload={} seed={} seconds={} trace={} (bytes in sparse.spmv_gbps_computed are computed from array sizes, not measured)",
        r.workload.name(),
        r.seed,
        r.seconds,
        u8::from(r.trace)
    );
    let mut out = run(r);
    if !r.trace {
        out.metrics.set("ok_frac", out.tally.ok_frac());
        match host::peak_rss_mib() {
            Ok(mib) => out.metrics.set("peak_rss_mb", mib),
            Err(e) => eprintln!("peak RSS unavailable: {e}"),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for why in &out.tally.reasons {
        eprintln!("miss: {why}");
    }
    if let Err(e) = report::validate(&out.metrics, r.trace) {
        eprintln!("incomplete result: {e}");
        return ExitCode::from(1);
    }
    println!("{}", report::result_line(&out, r.trace));
    if out.tally.failed > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
