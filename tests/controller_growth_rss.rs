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

mod common;

use common::FleetFlap;

const WARM_UP: usize = 1_000;
const MEASURED: usize = 2_000;
const MAX_BYTES_PER_UPDATE: usize = 512;

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
    let mut flap = FleetFlap::deploy();
    // One row per thousand updates, so a failure shows the slope.
    let mut marks = vec![resident_bytes().expect("read above")];
    for block in (0..WARM_UP + MEASURED).step_by(1_000) {
        (block..block + 1_000).for_each(|i| flap.update(i));
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
