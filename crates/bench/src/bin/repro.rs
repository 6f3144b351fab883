//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p sb-bench --bin repro                  # all, quick scale
//! cargo run --release -p sb-bench --bin repro -- --experiment fig12a
//! cargo run --release -p sb-bench --bin repro -- --paper-scale
//! ```
//!
//! Experiment ids: fig7 fig8 fig9 fig10 table2 fig11 table3 fig12a fig12b
//! fig12c fig13a fig13b fig13c, plus the `timevarying` extension
//! (Section 7.3 future work). See `DESIGN.md` §3 for the index and
//! `EXPERIMENTS.md` for measured-vs-paper numbers.

use sb_bench::{
    fig10_dynamic_routing, fig11_e2e_routing, fig12_te, fig13_ablations,
    fig7_forwarder_overhead, fig8_dataplane_scaling, fig9_msgbus, table2_edge_addition,
    table3_cache_sharing, timevarying, Scale,
};
use sb_types::Millis;

const ALL: &[&str] = &[
    "fig7", "fig8", "fig9", "fig10", "table2", "fig11", "table3", "fig12a", "fig12b", "fig12c",
    "fig13a", "fig13b", "fig13c", "timevarying",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper-scale" => scale = Scale::Paper,
            "--experiment" | "-e" => {
                if let Some(e) = it.next() {
                    wanted.push(e.clone());
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--paper-scale] [--experiment <id>]...\nids: {}",
                    ALL.join(" ")
                );
                return;
            }
            other => wanted.push(other.trim_start_matches('-').to_string()),
        }
    }
    if wanted.is_empty() {
        wanted = ALL.iter().map(ToString::to_string).collect();
    }

    for id in &wanted {
        let t0 = std::time::Instant::now();
        match id.as_str() {
            "fig7" => {
                let rows = fig7_forwarder_overhead::run(scale.pick(150, 500));
                print!("{}", fig7_forwarder_overhead::render(&rows));
            }
            "fig8" => {
                let cells = fig8_dataplane_scaling::run(scale);
                print!("{}", fig8_dataplane_scaling::render(&cells));
            }
            "fig9" => {
                let (proxy, mesh) = fig9_msgbus::run(&fig9_msgbus::Config::default());
                print!("{}", fig9_msgbus::render(&proxy, &mesh));
            }
            "fig10" => {
                let outcome = fig10_dynamic_routing::run();
                print!("{}", fig10_dynamic_routing::render(&outcome));
            }
            "table2" => {
                let report = table2_edge_addition::run();
                print!("{}", table2_edge_addition::render(&report));
            }
            "fig11" => {
                // The paper runs the experiment on AWS (RTT 150 ms) and a
                // private cloud (RTT 80 ms).
                for (label, one_way) in [("aws, rtt 150ms", 75.0), ("private, rtt 80ms", 40.0)] {
                    let results = fig11_e2e_routing::run(Millis::new(one_way));
                    print!("{}", fig11_e2e_routing::render(label, &results));
                }
            }
            "table3" => {
                let cfg = table3_cache_sharing::Config::default();
                let (shared, siloed) = table3_cache_sharing::run(&cfg);
                print!("{}", table3_cache_sharing::render(&shared, &siloed));
            }
            "fig12a" => {
                let rows = fig12_te::coverage_sweep(scale);
                print!(
                    "{}",
                    fig12_te::render_throughput(
                        "fig12a: throughput vs VNF coverage (paper: SB ~10x anycast; SB-DP within 0-11% of SB-LP)",
                        "coverage",
                        &rows
                    )
                );
                print!("{}", fig12_te::render_runtimes(&fig12_te::scheme_runtimes()));
            }
            "fig12b" => {
                let rows = fig12_te::cpu_sweep(scale);
                print!(
                    "{}",
                    fig12_te::render_throughput(
                        "fig12b: throughput vs CPU/byte (paper: SB-DP within 11-36% of SB-LP)",
                        "cpu/byte",
                        &rows
                    )
                );
            }
            "fig12c" => {
                let rows = fig12_te::latency_vs_load(scale);
                print!("{}", fig12_te::render_latency(&rows));
            }
            "fig13a" => {
                let rows = fig13_ablations::dp_variants(scale);
                print!("{}", fig13_ablations::render_variants(&rows));
            }
            "fig13b" => {
                let points = fig13_ablations::cloud_planning(scale);
                print!("{}", fig13_ablations::render_cloud(&points));
            }
            "fig13c" => {
                let points = fig13_ablations::vnf_placement(scale);
                print!("{}", fig13_ablations::render_placement(&points));
            }
            "timevarying" => {
                let rows = timevarying::run(scale);
                print!("{}", timevarying::render(&rows));
            }
            other => {
                eprintln!("unknown experiment '{other}'; ids: {}", ALL.join(" "));
                continue;
            }
        }
        println!("[{id} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
