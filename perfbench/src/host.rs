//! Facts about the host, printed with every run, and the process's peak
//! resident memory.

use std::fs;

/// Cache sizes of cpu0 by level, as the kernel reports them
/// (`/sys/devices/system/cpu/cpu0/cache`); unified and data caches only.
pub fn cache_sizes() -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return out;
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| fs::read_to_string(p.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        if let Ok(level) = level.parse() {
            out.push((level, size));
        }
    }
    out.sort();
    out
}

/// One line of host facts.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches: Vec<String> = cache_sizes()
        .iter()
        .filter(|(l, _)| *l >= 2)
        .map(|(l, s)| format!("L{l}={s}"))
        .collect();
    format!(
        "host: nproc={nproc} {} (no wall-clock NP-scaling metric: the simulated processors outnumber the cores)",
        if caches.is_empty() {
            "caches=unknown".to_string()
        } else {
            caches.join(" ")
        }
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib / 1024.0)
}
