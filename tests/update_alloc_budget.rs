//! An update allocates for what it changes, not for the size of the
//! network: the delta pipeline reads the shared `NetworkModel` in place.
//! Copying it — one 120-node all-pairs routing table, 14 400 path entries
//! — for tracker accounting and again for retirement cost 7.3 MB in
//! 58 502 allocations per update of the stationary 60-chain flap; reading
//! it in place leaves about 58 KB in 850.
//!
//! One test in its own binary: a counting global allocator sees every
//! allocation of the process, so nothing else may run beside it. The
//! counts are deterministic and hold in debug and release builds alike.

mod common;

use common::FleetFlap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Updates run before counting, then the updates counted.
const WARM_UP: usize = 200;
const MEASURED: usize = 1_000;
const MAX_BYTES_PER_UPDATE: usize = 256 * 1024;
const MAX_CALLS_PER_UPDATE: usize = 4_000;

/// `System`, counting the bytes requested and the calls that request them.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    BYTES.fetch_add(bytes, Relaxed);
    CALLS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn an_update_allocates_for_its_delta_not_for_the_network() {
    let mut flap = FleetFlap::deploy();
    (0..WARM_UP).for_each(|i| flap.update(i));
    let (bytes, calls) = (BYTES.load(Relaxed), CALLS.load(Relaxed));
    (WARM_UP..WARM_UP + MEASURED).for_each(|i| flap.update(i));
    let bytes = (BYTES.load(Relaxed) - bytes) / MEASURED;
    let calls = (CALLS.load(Relaxed) - calls) / MEASURED;
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
