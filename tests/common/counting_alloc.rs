//! The allocation-budget tests' global allocator: `System`, counting the
//! bytes requested and the calls that request them. Including this module
//! installs it for the whole test binary, so a binary that includes it
//! holds one test and nothing else runs beside it. The counts are
//! deterministic and hold in debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

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

/// `(bytes, calls)` allocated by the process so far.
fn allocated() -> (usize, usize) {
    (BYTES.load(Relaxed), CALLS.load(Relaxed))
}

/// Runs `f`, returning its result and the `(bytes, calls)` it allocated.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let (bytes, calls) = allocated();
    let out = f();
    let (bytes_after, calls_after) = allocated();
    (out, (bytes_after - bytes, calls_after - calls))
}
