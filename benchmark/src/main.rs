//! The repository's benchmark: the packet path and the update path, end to
//! end and per layer. See `README.md` here and `BENCHMARK.json` at the root.
//!
//! ```text
//! sb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! sb-benchmark --all [--seed N] [--seconds S] [--reps R] [--quick] [--out FILE]
//! sb-benchmark --compare A.json B.json
//! sb-benchmark --self-check [--seed N] [--seconds S] [--quick]
//! ```

mod fleet;
mod fwd;
mod metrics;
mod spans;
mod stats;
mod suite;
mod sys;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: &[&str] = &[
    "fwd_hot",
    "fwd_cold",
    "fwd_churn",
    "fleet_deploy",
    "fleet_update",
];

pub struct Args {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes: 200 chains in the fleet (and short windows in the
    /// suite modes).
    pub quick: bool,
}

/// Everything before the measured window, done over until at least three
/// repetitions and half a second have been spent (at most 50), each after
/// dropping the previous result. Returns the last result and the median
/// duration in seconds, which is `setup_s`.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut built = None;
    while seconds.len() < 3 || (seconds.iter().sum::<f64>() < 0.5 && seconds.len() < 50) {
        drop(built.take());
        let t = std::time::Instant::now();
        built = Some(build());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (
        built.expect("at least three set-ups ran"),
        stats::median(&seconds),
    )
}

fn run_workload(name: &str, args: &Args, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "fwd_hot" => fwd::run(
            &fwd::FwdWorkload {
                flows: 4096,
                churn: 0,
            },
            args,
            tracer,
        ),
        "fwd_cold" => fwd::run(
            &fwd::FwdWorkload {
                flows: 524_288,
                churn: 0,
            },
            args,
            tracer,
        ),
        "fwd_churn" => fwd::run(
            &fwd::FwdWorkload {
                flows: 65_536,
                churn: 32,
            },
            args,
            tracer,
        ),
        "fleet_deploy" => fleet::run(&fleet::FleetWorkload { update: false }, args, tracer),
        "fleet_update" => fleet::run(&fleet::FleetWorkload { update: true }, args, tracer),
        _ => return None,
    })
}

/// One workload in this process: prints every metric by name with its unit,
/// then the result object as the last line. `Ok(false)` when a check failed.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let mut tracer = Tracer::new();
    let mut outcome = run_workload(name, args, &mut tracer)
        .ok_or_else(|| format!("unknown workload `{name}`; known: {}", WORKLOADS.join(", ")))?;
    if args.trace {
        let path = sys::out_dir().join(format!("trace-{name}.json"));
        std::fs::create_dir_all(sys::out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(name)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let table: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = String::new();
    for (name, unit) in table {
        // A layer that is not on this workload's path did no work.
        let value = outcome.get(name).unwrap_or(0.0);
        outcome.check(value.is_finite() && (args.trace || value > 0.0), || {
            format!("{name} = {value}")
        });
        println!("{name:<40} {value:>18.6} {unit}");
        let sep = if metrics.is_empty() { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    if outcome.failed > 0 {
        outcome.problems.push(format!(
            "{} of {} operations failed",
            outcome.failed, outcome.attempted
        ));
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    Ok(correct)
}

enum Mode {
    One(String),
    All,
    Compare(String, String),
    SelfCheck,
}

fn parse(argv: &[String]) -> Result<(Mode, Args, usize, PathBuf), String> {
    let mut args = Args {
        seed: 42,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let mut mode = None;
    let mut reps = 1;
    let mut out = sys::out_dir().join("results.json");
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| {
        s.parse::<f64>()
            .map_err(|_| format!("{flag}: `{s}` is not a number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => mode = Some(Mode::One(value(&mut it, a)?)),
            "--all" => mode = Some(Mode::All),
            "--self-check" => mode = Some(Mode::SelfCheck),
            "--compare" => mode = Some(Mode::Compare(value(&mut it, a)?, value(&mut it, a)?)),
            "--seed" => {
                let v = value(&mut it, a)?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => args.seconds = number(value(&mut it, a)?, a)?,
            "--reps" => reps = number(value(&mut it, a)?, a)? as usize,
            "--trace" => args.trace = number(value(&mut it, a)?, a)? != 0.0,
            "--quick" => args.quick = true,
            "--out" => out = PathBuf::from(value(&mut it, a)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds <= 0.0 {
        args.seconds = if args.quick { 2.0 } else { 15.0 };
    }
    let mode =
        mode.ok_or("one of --workload NAME, --all, --compare A B, --self-check is required")?;
    Ok((mode, args, reps.max(1), out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = parse(&argv).and_then(|(mode, args, reps, out)| match mode {
        Mode::One(name) => run_one(&name, &args),
        Mode::All => suite::run_all(&args, reps, &out),
        Mode::Compare(a, b) => suite::compare(&a, &b),
        Mode::SelfCheck => suite::self_check(&args),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
