//! What the host tells us: memory of this process and the provenance
//! written next to every result.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A `Vm*` line of `/proc/self/status` in KiB (0 where unavailable).
pub fn vm_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The benchmark's scratch and output directory, inside its own package so
/// a run never writes outside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Trimmed standard output of a command that succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn unknown() -> String {
    "unknown".into()
}

/// `(key, value)` pairs describing where a set of results came from.
pub fn provenance() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let out = out_dir();
    let _ = std::fs::create_dir_all(&out);
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        (
            "uncommitted_changes",
            command_line("git", &["status", "--porcelain", "--untracked-files=no"])
                .map_or_else(unknown, |s| s.lines().count().to_string()),
        ),
        (
            "out_dir_filesystem",
            command_line("stat", &["-f", "-c", "%T", &out.to_string_lossy()])
                .unwrap_or_else(unknown),
        ),
    ]
}
