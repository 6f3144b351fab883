//! The Switchboard forwarder data plane.
//!
//! Section 5 of the paper: forwarders are cloud-agnostic proxies deployed at
//! every site that chain VNF instances together with *hierarchical weighted
//! load balancing* while guaranteeing three safety properties (Section 5.3):
//!
//! - **Conformity** — traffic traverses the specified VNF sequence, driven
//!   by the two packet labels applied at the ingress edge;
//! - **Flow affinity** — all packets of a connection in one direction hit
//!   the same instances, via per-connection flow-table entries;
//! - **Symmetric return** — reverse-direction packets retrace the same
//!   instances in reverse order, via reverse flow-table entries.
//!
//! The crate provides:
//!
//! - [`Packet`]: a lean, `Copy` packet descriptor (labels + 5-tuple);
//! - [`FlowTable`]: the per-forwarder connection table (Figure 6);
//! - [`WeightedChoice`]: deterministic weighted next-hop selection;
//! - [`Forwarder`]: the proxy itself, with the three processing modes of
//!   Figure 7 ([`ForwarderMode::Bridge`] / [`Overlay`](ForwarderMode::Overlay)
//!   / [`Affinity`](ForwarderMode::Affinity));
//! - [`fib`]: the compiled FIB — the forwarder's rule rows sorted by label
//!   pair, found by one binary search, one immutable generation per rule
//!   mutation, feeding the forwarder's prefetch-pipelined batch path
//!   (DESIGN.md §14);
//! - [`pktgen::PacketGenerator`]: the MoonGen stand-in;
//! - [`shard`]: RSS-style symmetric flow sharding across per-core
//!   forwarder shards (DESIGN.md §11);
//! - [`runner`]: the one measurement harness behind Figures 7 and 8
//!   ([`runner::measure_sharded`]): N forwarder shards at once, each
//!   generating and forwarding its own RSS share of one flow population,
//!   with only the forwarder inside the timed window.
//!
//! # Examples
//!
//! ```
//! use sb_dataplane::{Addr, Forwarder, ForwarderMode, Packet, RuleSet, WeightedChoice};
//! use sb_types::{ChainLabel, EgressLabel, FlowKey, ForwarderId, InstanceId, LabelPair, SiteId};
//!
//! let labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(2));
//! let vnf = Addr::Vnf(InstanceId::new(10));
//! let next = Addr::Forwarder(ForwarderId::new(2));
//! let mut fwd = Forwarder::new(ForwarderId::new(1), SiteId::new(0), ForwarderMode::Affinity);
//! fwd.install_rules(labels, RuleSet {
//!     to_vnf: WeightedChoice::single(vnf),
//!     to_next: WeightedChoice::single(next),
//!     to_prev: WeightedChoice::single(Addr::Edge(sb_types::EdgeInstanceId::new(0))),
//! });
//!
//! let pkt = Packet::labeled(labels, FlowKey::tcp([10, 0, 0, 1], 999, [10, 0, 0, 2], 80), 500);
//! // First packet from the wire goes to the (only) VNF instance...
//! let (pkt, hop) = fwd.process(pkt, Addr::Edge(sb_types::EdgeInstanceId::new(0))).unwrap();
//! assert_eq!(hop, vnf);
//! // ...and after the VNF processes it, on to the next-hop forwarder.
//! let (_pkt, hop) = fwd.process(pkt, vnf).unwrap();
//! assert_eq!(hop, next);
//! ```

// `deny`, not `forbid`: the [`fib`] prefetch hint is the one place allowed
// to use `unsafe` (a scoped `#[allow]` with a SAFETY comment); everything
// else in the crate still refuses it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod fib;
mod flow_table;
mod forwarder;
mod loadbalancer;
mod packet;
pub mod pktgen;
pub mod runner;
pub mod shard;

pub use artifact::{ArtifactKind, ForwarderArtifact, SiteArtifact};
pub use fib::{CompiledFib, FibReader, FibRow};
pub use flow_table::{FlowContext, FlowTable, FlowTableKey};
pub use forwarder::{Forwarder, ForwarderMode, ForwarderStats, RuleSet};
pub use loadbalancer::WeightedChoice;
pub use packet::{Addr, Packet, TunnelHeader};
