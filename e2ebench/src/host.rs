//! Host provenance and process memory, recorded with every result.

use std::process::Command;

/// First line of a command's standard output, or `unknown`. The child
/// is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and how a result was measured, as `(key, value)` pairs.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        // Only a `.git` in the working directory counts: a checkout
        // without one reports `unknown` rather than an enclosing repo.
        ("commit", command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"])),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_owned()),
        ("loadavg_start", loadavg),
    ]
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
