//! Controller memory is a function of installed state, not of how many
//! messages were ever sent: a stationary route flap on a 60-chain fleet —
//! every update retires one label pair and announces a fresh one — must
//! leave the process's resident set flat once it has warmed up. Mailboxes
//! nobody consumed, topics of retired labels left subscribed and
//! reservation keys of retired routes each grew it by kilobytes per update.
//!
//! One test in its own binary, so nothing else moves the process's
//! `VmRSS`. It reads `/proc/self/status` and is skipped where that is
//! missing; it measures the optimised allocator behaviour, so it runs
//! with `--release` (a named CI step) and is ignored in debug builds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use switchboard::prelude::*;
use switchboard::scenarios::{fleet, FleetConfig};

/// Chains under the flap, and how many stand on their alternative route at
/// any time (the shape of the benchmark's `fleet_update`).
const CHAINS: usize = 60;
const FLAP_LAG: usize = 16;
/// Site capacity as a multiple of expected load: 2PC never vetoes a flap.
const HEADROOM: f64 = 64.0;
const WARM_UP: usize = 1_000;
const MEASURED: usize = 2_000;
const MAX_BYTES_PER_UPDATE: usize = 512;

type Routes = Vec<(Vec<SiteId>, f64)>;

/// `VmRSS` in bytes, or `None` without a readable `/proc/self/status`.
fn resident_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

fn attachment(site: SiteId) -> String {
    format!("site{}", site.value())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "measures the release build; run with --release"
)]
fn resident_set_is_flat_under_a_stationary_flap() {
    if resident_bytes().is_none() {
        println!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    }
    let model = fleet(&FleetConfig {
        num_chains: CHAINS,
        capacity_headroom: HEADROOM,
        seed: 0x5b_24,
        ..FleetConfig::default()
    });
    let mut sb = Switchboard::new(
        model.with_chains(Vec::new()),
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    for site in model.sites() {
        sb.register_attachment(attachment(site), site);
    }
    let site_of = |node| {
        model
            .sites()
            .into_iter()
            .find(|&s| model.site_node(s) == node)
            .expect("chain endpoints are sites")
    };

    // Each chain's SB-DP routes and a seeded alternative: another hosting
    // site for every stage of its first route.
    let mut rng = StdRng::seed_from_u64(0x5b_24);
    let plan: Vec<(ChainId, Routes, Routes)> = model
        .chains()
        .iter()
        .map(|c| {
            let handle = sb
                .deploy_chain(ChainRequest {
                    id: c.id,
                    ingress_attachment: attachment(site_of(c.ingress)),
                    egress_attachment: attachment(site_of(c.egress)),
                    vnfs: c.vnfs.clone(),
                    forward: c.forward[0],
                    reverse: c.reverse[0],
                })
                .expect("the fleet deploys");
            let home: Routes = handle
                .routes
                .iter()
                .map(|r| (r.sites.clone(), r.fraction))
                .collect();
            let away: Vec<SiteId> = c
                .vnfs
                .iter()
                .zip(&home[0].0)
                .map(|(&vnf, &taken)| {
                    let others: Vec<SiteId> = model
                        .vnf(vnf)
                        .expect("catalog VNF")
                        .sites()
                        .into_iter()
                        .filter(|&s| s != taken)
                        .collect();
                    others[rng.gen_range(0..others.len())]
                })
                .collect();
            (c.id, home, vec![(away, 1.0)])
        })
        .collect();

    // Even updates move the chain `FLAP_LAG` ahead to its alternative, odd
    // ones move the oldest flipped chain home.
    let mut update = |i: usize| {
        let (idx, away) = if i.is_multiple_of(2) {
            ((i / 2 + FLAP_LAG) % CHAINS, true)
        } else {
            ((i / 2) % CHAINS, false)
        };
        let (chain, home, alt) = &plan[idx];
        let target = if away { alt.clone() } else { home.clone() };
        sb.update_chain(*chain, target)
            .unwrap_or_else(|e| panic!("update {i} of {chain}: {e}"));
    };
    for idx in 0..FLAP_LAG {
        update(2 * (idx + CHAINS - FLAP_LAG));
    }
    // One row per thousand updates, so a failure shows the slope.
    let mut marks = vec![resident_bytes().expect("read above")];
    for block in (0..WARM_UP + MEASURED).step_by(1_000) {
        (block..block + 1_000).for_each(&mut update);
        marks.push(resident_bytes().expect("read above"));
        let [.., before, now] = marks[..] else {
            unreachable!()
        };
        println!(
            "updates {block:>5}..{:<5} VmRSS {:>7.2} MiB ({:+.3} KiB/update)",
            block + 1_000,
            now as f64 / 1_048_576.0,
            (now as f64 - before as f64) / 1024.0 / 1_000.0,
        );
    }
    let grown = marks[(WARM_UP + MEASURED) / 1_000].saturating_sub(marks[WARM_UP / 1_000]);
    assert!(
        grown <= MEASURED * MAX_BYTES_PER_UPDATE,
        "resident set grew {grown} B over {MEASURED} updates of a stationary fleet"
    );
}
