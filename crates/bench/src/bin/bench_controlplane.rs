//! Emits the machine-readable control-plane scaling baseline
//! (`BENCH_controlplane.json`).
//!
//! ```text
//! cargo run --release -p sb-bench --bin bench-controlplane -- --out BENCH_controlplane.json
//! cargo run --release -p sb-bench --bin bench-controlplane -- --quick   # CI smoke
//! cargo run --release -p sb-bench --bin bench-controlplane -- --check-warm
//! ```
//!
//! Without `--out` the JSON goes to stdout. `--quick` uses short CI-scale
//! parameters; the default is the full checked-in 1k–10k-chain matrix.
//! See `sb_bench::controlplane` for the document schema.
//!
//! `--check-warm` skips the matrix and measures the 1k-chain update storm
//! in 7 pairs, each timing the warm prioritized-queue drain (dirty chains
//! only) and a cold full re-solve of the fleet back to back. It prints
//! every pair, and the median of the per-pair ratios must show the drain
//! at least 2x faster, exiting non-zero otherwise — the CI gate that keeps
//! the reconciliation queue actually cheaper than redeploying.

use sb_bench::controlplane::{check_warm, run, to_json, ControlPlaneConfig};

/// Minimum cold-resolve / warm-drain convergence ratio at the 1k row.
const WARM_MIN_RATIO: f64 = 2.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ControlPlaneConfig::full();
    let mut out_path: Option<String> = None;
    let mut warm_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg = ControlPlaneConfig::quick(),
            "--check-warm" => warm_only = true,
            "--out" | "-o" => {
                out_path = it.next().cloned();
                if out_path.is_none() {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-controlplane [--quick] [--check-warm] [--out <path>]"
                );
                return;
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: bench-controlplane [--quick] \
                     [--check-warm] [--out <path>]"
                );
                std::process::exit(2);
            }
        }
    }

    if warm_only {
        let runs = check_warm(&cfg);
        for (i, &(warm, cold)) in runs.pairs.iter().enumerate() {
            eprintln!(
                "[bench-controlplane: pair {}: warm drain {warm:.2} ms, cold re-solve \
                 {cold:.2} ms, ratio {:.2}]",
                i + 1,
                cold / warm
            );
        }
        eprintln!(
            "[bench-controlplane: storm convergence @1k chains: median pair ratio {:.2}]",
            runs.ratio
        );
        if runs.ratio < WARM_MIN_RATIO {
            eprintln!(
                "[bench-controlplane: FAIL: warm storm convergence must be {WARM_MIN_RATIO}x \
                 faster than a cold full re-solve]"
            );
            std::process::exit(1);
        }
        eprintln!("[bench-controlplane: warm-convergence gate passed]");
        return;
    }

    let t0 = std::time::Instant::now();
    let baseline = run(&cfg);
    let json = to_json(&baseline);
    for row in &baseline.rows {
        eprintln!(
            "[bench-controlplane: {} chains x {} sites: cold {:.0}/s, storm warm {:.1} ms vs \
             cold {:.1} ms (x{:.2}), {} wan msgs]",
            row.chains,
            row.sites,
            row.cold_deploys_per_sec,
            row.storm_warm_ms,
            row.storm_cold_ms,
            row.warm_speedup,
            row.wan_messages
        );
    }
    eprintln!(
        "[bench-controlplane: {} rows in {:.1}s]",
        baseline.rows.len(),
        t0.elapsed().as_secs_f64()
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, json).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("[bench-controlplane: wrote {path}]");
        }
        None => print!("{json}"),
    }
}
