//! A deploy allocates for the chain it installs, not for the size of the
//! network: route compute and accounting read the shared `NetworkModel` in
//! place, and every copy of the model shares one all-pairs routing table.
//! On the 400-chain fleet, copying the model — one 120-node routing table,
//! 14 400 path entries — for route compute and again for accounting cost
//! 7.1 MB in 58 695 allocations per deploy, and building the
//! `Switchboard` copied it three times for 11.1 MB; sharing it left a
//! deploy about 114 KB in 1 008 calls, and the build 0.69 MB. A route
//! announcement to the 120 subscribed sites then still built one `Vec` per
//! site and one per WAN hop; fanning out from one reused list with inline
//! arrival times leaves a deploy 86 891 B in 712 calls. Keeping each
//! route's stage forwarders once, in the chain record, and no second model
//! in the facade leaves a deploy 85 230 B in 702 calls and the build
//! 636 805 B. Streaming each bus payload's JSON without a `Value` tree
//! leaves a deploy 80 391 B in 622 calls. Reusing SB-DP's tables across
//! solves and sharing the FIB's row array with each full artifact export,
//! instead of cloning every row, leaves a deploy 54 253 B in 386 calls.
//! Dropping the FIB's label-interning table and chain-fallback index,
//! which every rule install cloned or rebuilt, leaves 53 539 B in 376.
//! Publishing shared typed values instead of JSON text, with the chain
//! record holding the announcements and stage forwarders those messages
//! carried, leaves 51 124 B in 364. Handing each verb the chain record's
//! announcements instead of deep copies leaves 51 013 B in 362. Copying
//! the solve's trial load tracker, whose (VNF, site) loads are now one
//! dense vector, into reused buffers instead of cloning a `HashMap` per
//! solve, storing each bus message once in a reused slot, and sizing
//! each artifact encode once, without index vectors for lists already
//! sorted, leaves 28 658 B in 341. A publish that names only its topic,
//! with no payload `Arc` around the instance records and the route topic
//! built once per control plane, leaves 28 469 B in 336. Storing each
//! compiled artifact and encoding its bytes on first read leaves
//! 24 177 B in 334.
//!
//! One test in its own binary: the counting global allocator sees every
//! allocation of the process, so nothing else may run beside it.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counting;
use switchboard::prelude::*;
use switchboard::scenarios::{fleet, FleetConfig};

/// The benchmark's `fleet_deploy` shape: chains per pass, and site
/// capacity as a multiple of expected load (2PC never vetoes).
const CHAINS: usize = 400;
const HEADROOM: f64 = 64.0;
/// Deploys run before counting; the rest are counted.
const WARM_UP: usize = 300;
const MAX_BUILD_BYTES: usize = 2 * 1024 * 1024;
const MAX_BYTES_PER_DEPLOY: usize = 26 * 1024;
const MAX_CALLS_PER_DEPLOY: usize = 387;

fn attachment(site: SiteId) -> String {
    format!("site{}", site.value())
}

#[test]
fn a_deploy_allocates_for_its_chain_not_for_the_network() {
    let model = fleet(&FleetConfig {
        num_chains: CHAINS,
        capacity_headroom: HEADROOM,
        ..FleetConfig::default()
    });
    let site_of = |node| {
        model
            .sites()
            .into_iter()
            .find(|&s| model.site_node(s) == node)
            .expect("chain endpoints are sites")
    };
    let requests: Vec<ChainRequest> = model
        .chains()
        .iter()
        .map(|c| ChainRequest {
            id: c.id,
            ingress_attachment: attachment(site_of(c.ingress)),
            egress_attachment: attachment(site_of(c.egress)),
            vnfs: c.vnfs.clone(),
            forward: c.forward[0],
            reverse: c.reverse[0],
        })
        .collect();

    let (mut sb, (build_bytes, build_calls)) = counting(|| {
        let mut sb = Switchboard::new(
            model.with_chains(Vec::new()),
            DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.use_passthrough_behaviors();
        for site in model.sites() {
            sb.register_attachment(attachment(site), site);
        }
        sb
    });
    let mut deploy = |req: &ChainRequest| {
        sb.deploy_chain(req.clone())
            .unwrap_or_else(|e| panic!("deploy of {}: {e}", req.id));
    };
    requests[..WARM_UP].iter().for_each(&mut deploy);
    let ((), (bytes, calls)) = counting(|| requests[WARM_UP..].iter().for_each(&mut deploy));
    let measured = CHAINS - WARM_UP;
    let (bytes, calls) = (bytes / measured, calls / measured);
    println!(
        "building the Switchboard: {build_bytes} B in {build_calls} allocations; \
         per deploy over deploys {WARM_UP}..{CHAINS}: {bytes} B in {calls} allocations"
    );
    assert!(
        build_bytes <= MAX_BUILD_BYTES,
        "building the Switchboard allocates {build_bytes} B (budget {MAX_BUILD_BYTES} B)"
    );
    assert!(
        bytes <= MAX_BYTES_PER_DEPLOY && calls <= MAX_CALLS_PER_DEPLOY,
        "a deploy allocates {bytes} B in {calls} calls \
         (budget {MAX_BYTES_PER_DEPLOY} B, {MAX_CALLS_PER_DEPLOY} calls)"
    );
}
