//! Emits the machine-readable data-plane throughput baseline
//! (`BENCH_dataplane.json`).
//!
//! ```text
//! cargo run --release -p sb-bench --bin bench-dataplane -- --out BENCH_dataplane.json
//! cargo run --release -p sb-bench --bin bench-dataplane -- --quick   # CI smoke
//! cargo run --release -p sb-bench --bin bench-dataplane -- --check-overhead
//! cargo run --release -p sb-bench --bin bench-dataplane -- --quick --check-scaleout
//! ```
//!
//! Without `--out` the JSON goes to stdout. `--quick` uses short CI-scale
//! parameters; the default is the full checked-in baseline matrix. See
//! `sb_bench::dataplane_baseline` for the document schema.
//!
//! Both gates below skip the baseline matrix, run their two arms in
//! alternating windows (`OVERHEAD_PAIRS` and `GATE_PAIRS` pairs), print
//! every pair, and decide on the median of the per-pair ratios.
//!
//! `--check-overhead` measures the Affinity@2K cell with telemetry
//! sampling at its default rate versus fully disabled, exiting non-zero if
//! the instrumented run is more than 5% slower — the CI gate that keeps
//! the observability layer off the fast path.
//!
//! `--check-scaleout` measures 1 versus 2 concurrent shards, exiting
//! non-zero if 2 contending shards do not reach at least 1.5x the
//! single-shard rate — the CI gate that keeps the shared-nothing harness
//! actually scaling. On hosts with fewer than two cores (one per shard
//! thread) the check is skipped with a note and exits zero: a starved
//! host measures scheduler noise, not scaling.

use sb_bench::dataplane_baseline::{
    check_overhead, check_scaleout, run, to_json, BaselineConfig, PairedRuns, SCALEOUT_MIN_CORES,
};

/// Maximum tolerated throughput loss with default telemetry sampling.
const OVERHEAD_TOLERANCE: f64 = 0.05;

/// Minimum contended 2-shard speedup over 1 shard.
const SCALEOUT_MIN_RATIO: f64 = 1.5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BaselineConfig::full();
    let mut out_path: Option<String> = None;
    let mut overhead_only = false;
    let mut scaleout_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg = BaselineConfig::quick(),
            "--check-overhead" => overhead_only = true,
            "--check-scaleout" => scaleout_only = true,
            "--out" | "-o" => {
                out_path = it.next().cloned();
                if out_path.is_none() {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-dataplane [--quick] [--check-overhead] [--check-scaleout] \
                     [--out <path>]"
                );
                return;
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: bench-dataplane [--quick] \
                     [--check-overhead] [--check-scaleout] [--out <path>]"
                );
                std::process::exit(2);
            }
        }
    }

    if scaleout_only {
        let report = check_scaleout(&cfg);
        let Some(runs) = report.runs else {
            eprintln!(
                "[bench-dataplane: SKIP: contended scale-out needs >= {SCALEOUT_MIN_CORES} cores \
                 (one per shard thread), host has {}]",
                report.available_cores
            );
            return;
        };
        print_pairs("1 shard", "2 shards", &runs);
        eprintln!(
            "[bench-dataplane: contended scale-out: median pair ratio {:.2} ({} cores)]",
            runs.ratio, report.available_cores
        );
        if runs.ratio < SCALEOUT_MIN_RATIO {
            eprintln!(
                "[bench-dataplane: FAIL: 2 contending shards must reach {SCALEOUT_MIN_RATIO}x \
                 a single shard]"
            );
            std::process::exit(1);
        }
        eprintln!("[bench-dataplane: scale-out gate passed]");
        return;
    }

    if overhead_only {
        let runs = check_overhead(&cfg);
        print_pairs("telemetry off", "telemetry on", &runs);
        eprintln!(
            "[bench-dataplane: telemetry overhead: median pair ratio {:.4}]",
            runs.ratio
        );
        if runs.ratio < 1.0 - OVERHEAD_TOLERANCE {
            eprintln!(
                "[bench-dataplane: FAIL: telemetry costs more than {:.0}% throughput]",
                OVERHEAD_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("[bench-dataplane: overhead within tolerance]");
        return;
    }

    let t0 = std::time::Instant::now();
    let baseline = run(&cfg);
    let json = to_json(&baseline);
    let rows = baseline.single_instance.len()
        + baseline.contended_scaleout.len()
        + baseline.batch_sweep.len()
        + baseline.mixed_label.len()
        + baseline.artifact_cycle.len();
    eprintln!(
        "[bench-dataplane: {rows} rows in {:.1}s]",
        t0.elapsed().as_secs_f64()
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, json).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("[bench-dataplane: wrote {path}]");
        }
        None => print!("{json}"),
    }
}

/// Prints every pair of a ratio gate, in the order run.
fn print_pairs(reference: &str, candidate: &str, runs: &PairedRuns) {
    for (i, &(r, c)) in runs.pairs.iter().enumerate() {
        eprintln!(
            "[bench-dataplane: pair {}: {reference} {r:.3} Mpps, {candidate} {c:.3} Mpps, ratio {:.3}]",
            i + 1,
            c / r
        );
    }
}
