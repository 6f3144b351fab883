//! Runs the whole suite at smoke-test size (`--all --quick`: 2 s windows,
//! 200 chains) and holds what it reports against `BENCHMARK.json`: every
//! declared workload and metric must come out, correct, with the declared
//! unit and a finite value — and nothing undeclared. This is the hook a CI
//! job can call (`cargo test --release --manifest-path benchmark/Cargo.toml`).

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn load(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str_value(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("BENCHMARK.json `{key}` is {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is {other:?} in {v:?}"),
    }
}

fn finite(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) if f.is_finite() => Some(*f),
        _ => None,
    }
}

fn members(v: Option<&Value>) -> usize {
    match v {
        Some(Value::Object(entries)) => entries.len(),
        other => panic!("expected an object, found {other:?}"),
    }
}

#[test]
fn quick_suite_reports_every_declared_metric() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared = load(&package.join("../BENCHMARK.json"));
    let out = package.join("out").join("smoke-results.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sb-benchmark"))
        .args(["--all", "--quick", "--out"])
        .arg(&out)
        .status()
        .expect("spawn the benchmark");
    assert!(status.success(), "the quick suite failed: {status}");

    let results = load(&out);
    let results = results.get("results").expect("results object");
    let workloads = list(&declared, "workloads");
    assert_eq!(
        members(Some(results)),
        workloads.len(),
        "undeclared workloads reported"
    );
    for w in workloads {
        let name = text(w, "name");
        let r = results
            .get(name)
            .unwrap_or_else(|| panic!("workload {name} missing"));
        assert_eq!(
            r.get("correct"),
            Some(&Value::Bool(true)),
            "{name} incorrect"
        );
        let end_to_end = list(&declared, "end_to_end");
        assert_eq!(
            members(r.get("end_to_end")),
            end_to_end.len(),
            "{name}: undeclared metrics"
        );
        for m in end_to_end {
            let metric = text(m, "name");
            let got = r
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .unwrap_or_else(|| panic!("{name}/{metric} missing"));
            assert_eq!(text(got, "unit"), text(m, "unit"), "{name}/{metric} unit");
            assert_eq!(
                text(got, "better"),
                text(m, "better"),
                "{name}/{metric} direction"
            );
            assert_eq!(
                finite(got.get("bound")),
                finite(m.get("bound")),
                "{name}/{metric} bound"
            );
            let median = finite(got.get("median"));
            assert!(
                median.is_some_and(|x| x > 0.0),
                "{name}/{metric} = {median:?}"
            );
        }
        let per_layer = list(&declared, "per_layer");
        assert_eq!(
            members(r.get("per_layer")),
            per_layer.len(),
            "{name}: undeclared layer metrics"
        );
        for m in per_layer {
            let metric = text(m, "name");
            let got = r
                .get("per_layer")
                .and_then(|e| e.get(metric))
                .unwrap_or_else(|| panic!("{name}/{metric} missing"));
            assert_eq!(text(got, "unit"), text(m, "unit"), "{name}/{metric} unit");
            assert!(
                finite(got.get("value")).is_some(),
                "{name}/{metric} not finite"
            );
        }
    }
}
