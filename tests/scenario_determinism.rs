//! Integration: the daylife scenario harness is bit-for-bit
//! deterministic.
//!
//! Same seed + same scenario config ⇒ byte-identical windowed time-series
//! JSON and SLO report across repeated runs. CI runs this file as a named
//! step so a determinism regression is called out in the job log, not
//! buried in the workspace sweep.

use switchboard::scenarios::daylife::{self, DaylifeConfig};

/// The scenario variants under test, shrunk to smoke scale (every
/// composed workload dimension still fires).
fn variants(seed: u64) -> Vec<DaylifeConfig> {
    DaylifeConfig::standard_suite(seed)
        .into_iter()
        .map(DaylifeConfig::quick)
        .collect()
}

#[test]
fn repeated_runs_are_byte_identical() {
    for cfg in variants(42) {
        let a = daylife::run(&cfg);
        let b = daylife::run(&cfg);
        assert_eq!(
            a.timeseries_json, b.timeseries_json,
            "windowed JSON must be byte-identical across runs of {}",
            cfg.name
        );
        assert_eq!(
            a.slo.to_json(),
            b.slo.to_json(),
            "SLO report must be byte-identical across runs of {}",
            cfg.name
        );
        assert_eq!(a.totals, b.totals, "totals must match for {}", cfg.name);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the suite accidentally ignoring its seed (which
    // would make the test above vacuous).
    let a = daylife::run(&DaylifeConfig::steady(1).quick());
    let b = daylife::run(&DaylifeConfig::steady(2).quick());
    assert_ne!(
        a.timeseries_json, b.timeseries_json,
        "seeds must actually steer the scenario"
    );
}
