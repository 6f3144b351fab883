//! An update allocates for what it changes, not for the size of the
//! network: the delta pipeline reads the shared `NetworkModel` in place.
//! Copying it — one 120-node all-pairs routing table, 14 400 path entries
//! — for tracker accounting and again for retirement cost 7.3 MB in
//! 58 502 allocations per update of the stationary 60-chain flap; reading
//! it in place leaves about 58 KB in 850, and later 49 145 B in 752.
//! Encoding a route delta once, streaming JSON without a `Value` tree,
//! exporting a patch from its own rows only and consuming only the
//! mailboxes a publish filled leaves 31 972 B in 492. Removing a row
//! without cloning the rule set nobody reads leaves 29 457 B in 480.
//! Dropping the FIB's label-interning table and chain-fallback index,
//! which every rule install cloned or rebuilt, leaves 28 394 B in 464.
//! Publishing shared typed values instead of JSON text, with the chain
//! record holding the announcements and stage forwarders those messages
//! carried, leaves 24 583 B in 439. Handing each verb the chain record's
//! announcements instead of deep copies leaves 24 471 B in 437. Storing
//! each bus message once in a reused slot instead of cloning it into
//! every mailbox, copying the solve's trial load tracker into reused
//! buffers, and sizing each artifact encode once leaves 22 570 B in 411.
//! A publish that names only its topic, with no payload built for a
//! route delta, leaves 22 405 B in 406.
//!
//! One test in its own binary: the counting global allocator sees every
//! allocation of the process, so nothing else may run beside it.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use common::FleetFlap;
use counting_alloc::counting;

/// Updates run before counting, then the updates counted.
const WARM_UP: usize = 200;
const MEASURED: usize = 1_000;
const MAX_BYTES_PER_UPDATE: usize = 26 * 1024;
const MAX_CALLS_PER_UPDATE: usize = 467;

#[test]
fn an_update_allocates_for_its_delta_not_for_the_network() {
    let mut flap = FleetFlap::deploy();
    (0..WARM_UP).for_each(|i| flap.update(i));
    let ((), (bytes, calls)) =
        counting(|| (WARM_UP..WARM_UP + MEASURED).for_each(|i| flap.update(i)));
    let (bytes, calls) = (bytes / MEASURED, calls / MEASURED);
    println!(
        "per update over updates {WARM_UP}..{}: {bytes} B in {calls} allocations",
        WARM_UP + MEASURED
    );
    assert!(
        bytes <= MAX_BYTES_PER_UPDATE && calls <= MAX_CALLS_PER_UPDATE,
        "an update allocates {bytes} B in {calls} calls \
         (budget {MAX_BYTES_PER_UPDATE} B, {MAX_CALLS_PER_UPDATE} calls)"
    );
}
