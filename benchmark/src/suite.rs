//! Whole-suite modes: `--all` runs every workload in a fresh child process
//! (untraced repetitions plus one traced run) and writes the results with
//! their provenance; `--compare` is the noise-aware diff of two such files;
//! `--self-check` asserts the seed-only metrics repeat exactly.

use crate::metrics::{E2E, END_TO_END, EXACT, PER_LAYER};
use crate::{stats, sys, Args, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The parsed last line of one child run.
struct ChildResult {
    correct: bool,
    attempted: i128,
    failed: i128,
    metrics: BTreeMap<String, f64>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // The child's stderr (self-time table, failed checks) passes through.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let v = serde_json::from_str_value(line)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{workload}: result lacks `{k}`"))
    };
    let mut metrics = BTreeMap::new();
    if let Value::Object(entries) = field("metrics")? {
        for (name, m) in entries {
            let value = m.get("value").and_then(number);
            metrics.insert(
                name.clone(),
                value.ok_or_else(|| format!("{name}: no value"))?,
            );
        }
    }
    let int = |k: &str| match field(k)? {
        Value::Int(i) => Ok(*i),
        other => Err(format!("{workload}: `{k}` is {other:?}")),
    };
    Ok(ChildResult {
        correct: field("correct")? == &Value::Bool(true) && output.status.success(),
        attempted: int("attempted")?,
        failed: int("failed")?,
        metrics,
    })
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::Float(x)).collect())
}

/// `--all`: every workload, every metric by name with its unit, results and
/// provenance to `out`. Returns whether every run was correct.
pub fn run_all(args: &Args, reps: usize, out: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for &workload in WORKLOADS {
        let mut runs = Vec::with_capacity(reps);
        for rep in 0..reps {
            eprintln!("== {workload}: untraced run {}/{reps}", rep + 1);
            runs.push(run_child(workload, args, false)?);
        }
        eprintln!("== {workload}: traced run");
        let traced = run_child(workload, args, true)?;
        all_correct &= runs
            .iter()
            .chain([&traced])
            .all(|r| r.correct && r.failed == 0);

        println!("\n{workload}");
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            if values.len() != reps {
                return Err(format!("{workload}: {} missing from a run", m.name));
            }
            let (median, spread) = stats::median_and_spread(&values);
            println!(
                "  {:<38} {median:>16.4} {:<6} spread {:.2}% over {reps} runs",
                m.name,
                m.unit,
                spread * 100.0
            );
            end_to_end.push((
                m.name,
                obj(vec![
                    ("unit", Value::Str(m.unit.into())),
                    (
                        "better",
                        Value::Str(
                            if m.higher_is_better {
                                "higher"
                            } else {
                                "lower"
                            }
                            .into(),
                        ),
                    ),
                    ("bound", Value::Float(m.bound)),
                    ("median", Value::Float(median)),
                    ("iqr_share", Value::Float(spread)),
                    ("values", floats(&values)),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for &(name, unit) in PER_LAYER {
            let value = *traced
                .metrics
                .get(name)
                .ok_or_else(|| format!("{workload}: traced run lacks {name}"))?;
            println!("  {name:<38} {value:>16.4} {unit}");
            per_layer.push((
                name,
                obj(vec![
                    ("unit", Value::Str(unit.into())),
                    ("value", Value::Float(value)),
                ]),
            ));
        }
        results.push((
            workload,
            obj(vec![
                (
                    "correct",
                    Value::Bool(runs.iter().chain([&traced]).all(|r| r.correct)),
                ),
                (
                    "attempted",
                    Value::Array(runs.iter().map(|r| Value::Int(r.attempted)).collect()),
                ),
                (
                    "failed",
                    Value::Array(runs.iter().map(|r| Value::Int(r.failed)).collect()),
                ),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }
    let mut provenance: Vec<(&str, Value)> = sys::provenance()
        .into_iter()
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    provenance.push(("seed", Value::Int(i128::from(args.seed))));
    provenance.push(("seconds", Value::Float(args.seconds)));
    provenance.push(("repetitions", Value::Int(reps as i128)));
    provenance.push(("quick", Value::Bool(args.quick)));
    let doc = obj(vec![
        (
            "benchmark",
            Value::Str("switchboard packet path and update path".into()),
        ),
        ("claim", Value::Null),
        ("provenance", obj(provenance)),
        ("results", obj(results)),
    ]);
    let text = serde_json::to_string(&doc).map_err(|e| format!("serialize results: {e}"))?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, text + "\n").map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("results written to {}", out.display());
    Ok(all_correct)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str_value(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn values_of(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc
        .get("results")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    match m.get("values")? {
        Value::Array(items) => items.iter().map(number).collect(),
        _ => None,
    }
}

fn layer_of(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    number(
        doc.get("results")?
            .get(workload)?
            .get("per_layer")?
            .get(metric)?
            .get("value")?,
    )
}

/// How a metric of B stands against A.
fn verdict(m: &E2E, a: &[f64], b: &[f64]) -> (f64, f64, f64, f64, &'static str) {
    let (med_a, spread_a) = stats::median_and_spread(a);
    let (med_b, spread_b) = stats::median_and_spread(b);
    let change = (med_b - med_a) / med_a;
    let worse = if m.higher_is_better { -change } else { change };
    let spread = spread_a.max(spread_b);
    let word = if spread > m.bound {
        "unresolved"
    } else if worse > m.bound {
        "regressed"
    } else {
        "ok"
    };
    (med_a, med_b, change, spread, word)
}

/// `--compare A B`: one row per (workload, end-to-end metric) with both
/// medians, the relative difference, the bound and a verdict; `unresolved`
/// where the run-to-run spread is wider than the bound. The exact per-layer
/// counts must be identical. Returns whether nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<13} {:<10} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "spread", "bound"
    );
    for &workload in WORKLOADS {
        for m in END_TO_END {
            let va = values_of(&a, workload, m.name)
                .ok_or_else(|| format!("{path_a}: no {workload}/{}", m.name))?;
            let vb = values_of(&b, workload, m.name)
                .ok_or_else(|| format!("{path_b}: no {workload}/{}", m.name))?;
            let (med_a, med_b, change, spread, word) = verdict(m, &va, &vb);
            clean &= word != "regressed";
            let _ = writeln!(
                table,
                "{workload:<13} {:<10} {med_a:>14.4} {med_b:>14.4} {:>+7.2}% {:>6.2}% {:>6.2}%  {word}",
                m.name,
                change * 100.0,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        for &name in EXACT {
            let (xa, xb) = (layer_of(&a, workload, name), layer_of(&b, workload, name));
            if xa != xb {
                clean = false;
                let _ = writeln!(
                    table,
                    "{workload:<13} {name}: exact count differs: {xa:?} vs {xb:?}"
                );
            }
        }
    }
    print!("{table}");
    Ok(clean)
}

/// `--self-check`: two traced runs of one seed must report identical values
/// for every seed-only metric, on every workload.
pub fn self_check(args: &Args) -> Result<bool, String> {
    let mut same = true;
    for &workload in WORKLOADS {
        let first = run_child(workload, args, true)?;
        let second = run_child(workload, args, true)?;
        for &name in EXACT {
            let (x, y) = (first.metrics.get(name), second.metrics.get(name));
            let ok = x.is_some() && x == y;
            same &= ok && first.correct && second.correct;
            println!(
                "{workload:<13} {name:<30} {x:?} {y:?} {}",
                if ok { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(same)
}
