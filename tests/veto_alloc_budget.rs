//! A vetoed deploy costs its extra 2PC round and re-solve, not a copy of
//! the trace ring. With the control plane's ring full
//! (`DEFAULT_TRACE_CAPACITY` records) on the line testbed, a clean deploy
//! allocates 4 945 B in 127 calls. Reading the failed prepare's span back
//! out of the ring to write the report's phase note cloned all 8 192
//! records: the vetoed deploy allocated 1 311 594 B in 25 492 calls.
//! Formatting the note from the values the round gives the span leaves
//! it 19 392 B in 234 calls.
//!
//! One test in its own binary: the counting global allocator sees every
//! allocation of the process, so nothing else may run beside it.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counting;
use sb_controller::ControlPlane;
use sb_telemetry::trace::DEFAULT_TRACE_CAPACITY;
use switchboard::prelude::*;
use switchboard::scenarios::line_testbed;

/// What a vetoed deploy may allocate beyond a clean deploy on the same
/// state: the aborted round, its note and the re-solve.
const MAX_EXTRA_BYTES: usize = 20 * 1024;
const MAX_EXTRA_CALLS: usize = 160;

#[test]
fn a_veto_costs_the_same_however_full_the_trace_ring() {
    let (model, sites) = line_testbed();
    let delays = DelayModel::uniform(Millis::new(0.1), Millis::new(10.0));
    let mut cp = ControlPlane::new(model, delays, ControlPlaneConfig::default());
    cp.register_attachment("in", sites[0]);
    cp.register_attachment("out", sites[3]);
    let vnf = VnfId::new(0);
    let request = ChainRequest {
        id: ChainId::new(1),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![vnf],
        forward: 5.0,
        reverse: 1.0,
    };
    // Deploy/remove cycles fill the ring and leave the forwarders' rows
    // as few as one chain makes them.
    while cp.telemetry().tracer.len() < DEFAULT_TRACE_CAPACITY {
        cp.deploy_chain(request.clone()).expect("clean deploy");
        cp.remove_chain(request.id).expect("removal");
    }

    let (clean, (clean_bytes, clean_calls)) = counting(|| cp.deploy_chain(request.clone()));
    let site = clean.expect("clean deploy").routes[0].sites[0];
    cp.remove_chain(request.id).expect("removal");
    // The next solve picks `site` again; with no instances there its
    // controller vetoes the prepare, and the deploy re-solves elsewhere.
    cp.set_instances(vnf, site, vec![]).expect("known deployment");
    let (vetoed, (bytes, calls)) = counting(|| cp.deploy_chain(request.clone()));
    let vetoed = vetoed.expect("the re-solve places the chain");
    println!(
        "with {} trace records: clean deploy {clean_bytes} B in {clean_calls} calls; \
         vetoed deploy {bytes} B in {calls} calls",
        cp.telemetry().tracer.len()
    );
    assert_ne!(vetoed.routes[0].sites[0], site);
    let note = format!("2pc prepare phase failed at {vnf}@{site}: vetoed");
    assert_eq!(vetoed.report.partial_failures, vec![note]);
    assert!(
        bytes <= clean_bytes + MAX_EXTRA_BYTES && calls <= clean_calls + MAX_EXTRA_CALLS,
        "a vetoed deploy allocates {bytes} B in {calls} calls, a clean one \
         {clean_bytes} B in {clean_calls} (budget {MAX_EXTRA_BYTES} B, \
         {MAX_EXTRA_CALLS} calls more)"
    );
}
