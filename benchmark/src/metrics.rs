//! The metric names and units the benchmark reports, and the result of one
//! run. `BENCHMARK.json` lists the same names; `tests/smoke.rs` holds the
//! two together.

/// An end-to-end metric: `bound` is the share of the baseline's median by
/// which it may get worse before `--compare` calls it a regression.
pub struct E2E {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> E2E {
    E2E {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system sees, on every workload. One *operation* is a
/// packet forwarded (`fwd_*`), a chain deployed (`fleet_deploy`) or a route
/// update applied at every site of the new route (`fleet_update`). Rates and
/// latencies are the quiet-host estimates of `stats::Quiet`. Tail latencies
/// (p99) spread by more than a tenth between runs of one commit here, so
/// they are layer metrics (`forwarder.pkt_ns_p99`, `controller.*_p99`).
pub const END_TO_END: &[E2E] = &[
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_us_p50", "us", false, 0.25),
    e2e("rss_mb", "MiB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers, from the traced run. A layer that is not on a workload's
/// path reports 0 calls and 0 time there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // dataplane.forwarder — should move ops_per_s / op_us_p50 on fwd_*.
    ("forwarder.calls", "count"),
    ("forwarder.busy_s", "s"),
    ("forwarder.ns_per_pkt", "ns"),
    ("forwarder.pkt_ns_p50", "ns"),
    ("forwarder.pkt_ns_p99", "ns"),
    ("forwarder.rx", "count"),
    ("forwarder.tx", "count"),
    ("forwarder.drops", "count"),
    ("forwarder.flow_hit_ratio", "ratio"),
    // dataplane.flow_table — fwd_cold (reads), fwd_churn (writes).
    ("flow_table.get_hit_ns", "ns"),
    ("flow_table.get_miss_ns", "ns"),
    ("flow_table.insert_ns", "ns"),
    ("flow_table.remove_ns", "ns"),
    ("flow_table.expire_calls", "count"),
    ("flow_table.entries", "count"),
    ("flow_table.entries_per_flow", "ratio"),
    ("flow_table.rss_bytes_per_flow", "B"),
    // dataplane.fib — fwd_hot (lookups), fleet_update (patches).
    ("fib.rows", "count"),
    ("fib.lookup_ns", "ns"),
    ("fib.rebuilds", "count"),
    ("fib.patches", "count"),
    ("fib.generations", "count"),
    // dataplane.loadbalancer — first-packet path, fwd_churn.
    ("lb.select_ns", "ns"),
    // The benchmark's own packet generator: shows the load is not the limit.
    ("gen.ns_per_pkt", "ns"),
    // controller — fleet_deploy / fleet_update.
    ("controller.ops", "count"),
    ("controller.failures", "count"),
    ("controller.busy_s", "s"),
    ("controller.deploy_ms_p50", "ms"),
    ("controller.deploy_ms_p99", "ms"),
    ("controller.deploy_ms_first100_p50", "ms"),
    ("controller.deploy_ms_last100_p50", "ms"),
    ("controller.update_ms_p50", "ms"),
    ("controller.update_ms_p99", "ms"),
    ("controller.export_us_p50", "us"),
    ("controller.participants_2pc_per_op", "count"),
    ("controller.commits_2pc", "count"),
    ("controller.aborts_2pc", "count"),
    ("controller.retries_2pc", "count"),
    ("controller.epochs_retired", "count"),
    // Virtual time of the DeploymentReport (modeled WAN latency; exact).
    ("controller.vt_total_ms_p50", "ms"),
    ("controller.vt_diff_ms", "ms"),
    ("controller.vt_2pc_ms", "ms"),
    ("controller.vt_propagate_ms", "ms"),
    ("controller.vt_install_ms", "ms"),
    ("controller.vt_shift_ms", "ms"),
    ("controller.vt_retire_ms", "ms"),
    ("controller.wan_msgs_per_op", "count"),
    // msgbus — registry counter deltas per operation (exact).
    ("msgbus.published_per_op", "count"),
    ("msgbus.wan_per_op", "count"),
    ("msgbus.local_per_op", "count"),
    ("msgbus.dropped", "count"),
    // te — the solver's share of a deploy.
    ("te.solve_us_per_chain", "us"),
    ("te.cold_solve_us_per_chain", "us"),
    ("te.cache_hit_ratio", "ratio"),
    // dataplane.artifact codec and sb-artifact files — fleet_update.
    ("codec.encode_us_p50", "us"),
    ("codec.decode_us_p50", "us"),
    ("codec.bytes_per_artifact", "B"),
    ("artifact.write_us_p50", "us"),
    ("artifact.write_share", "ratio"),
    ("artifact.poll_us_p50", "us"),
    ("artifact.read_us_p50", "us"),
    ("artifact.files_per_update", "count"),
    ("artifact.watch_missed", "count"),
    // Standalone forwarders on the update path.
    ("forwarder.apply_calls", "count"),
    ("forwarder.apply_us_p50", "us"),
    ("forwarder.apply_us_p99", "us"),
    ("forwarder.first_pkt_us_p50", "us"),
    // telemetry — the program's own trace ring.
    ("telemetry.spans_recorded", "count"),
    ("telemetry.spans_dropped", "count"),
    ("telemetry.export_ms", "ms"),
    // Validity of the traced numbers.
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// Per-layer counts that are a pure function of `--seed` (not of how many
/// operations fit in the window); `--self-check` asserts they repeat.
pub const EXACT: &[&str] = &[
    "flow_table.entries",
    "controller.vt_total_ms_p50",
    "controller.wan_msgs_per_op",
    "msgbus.wan_per_op",
    "artifact.files_per_update",
    "codec.bytes_per_artifact",
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold; empty means `correct`.
    pub problems: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The end-to-end rate and latency.
    pub fn set_quiet(&mut self, q: &crate::stats::Quiet) {
        self.set("ops_per_s", q.ops_per_s);
        self.set("op_us_p50", q.op_ns_p50 / 1e3);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}
