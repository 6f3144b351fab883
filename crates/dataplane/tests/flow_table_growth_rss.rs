//! The flow table doubles in place: filling one to Figure 8's 512 K
//! connections must not raise the process's resident-set high-water mark
//! above the final record array (plus slack for the allocator and the
//! harness). A second array beside the old one during the last doubling
//! would put it at 1.5× the array.
//!
//! One test in its own binary, so nothing else moves the process's
//! `VmHWM`; it reads `/proc/self/status`, so it exists on Linux only.
#![cfg(target_os = "linux")]

use sb_dataplane::{Addr, FlowContext, FlowTable, FlowTableKey};
use sb_types::{ChainLabel, FlowKey, InstanceId, IpProtocol};

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    kib * 1024
}

#[test]
fn filling_the_table_peaks_at_the_final_array() {
    const CONNECTIONS: u32 = 524_288;
    let rss_before = status_bytes("VmRSS");
    let mut table = FlowTable::with_capacity(4 * CONNECTIONS as usize + 64);
    let hop = Addr::Vnf(InstanceId::new(1));
    for i in 0..CONNECTIONS {
        let key = FlowTableKey {
            chain: ChainLabel::new(1),
            key: FlowKey::new(0x0a00_0000 + i, 1024, 0xc0a8_0001, 80, IpProtocol::Tcp),
            context: FlowContext::FromWire,
        };
        table.insert(key, hop).expect("below the capacity limit");
    }
    assert_eq!(table.len(), CONNECTIONS as usize);
    let array = table.buckets() * 64;
    let grown = status_bytes("VmHWM") - rss_before;
    assert!(
        grown * 100 <= array * 115,
        "high-water mark rose {grown} B while filling a {array} B record array"
    );
}
