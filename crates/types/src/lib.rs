//! Shared vocabulary for the Switchboard reproduction.
//!
//! This crate defines the identifiers, packet labels, flow keys and error
//! types used by every other crate in the workspace. It corresponds to the
//! common data model implied by Sections 3-5 of the paper: a packet entering
//! a chain carries two labels (one identifying the customer's service chain,
//! one identifying the egress edge site), and forwarders key their flow
//! tables by those labels plus the connection 5-tuple.
//!
//! # Examples
//!
//! ```
//! use sb_types::{ChainId, ChainLabel, EgressLabel, FlowKey, LabelPair};
//!
//! let labels = LabelPair::new(ChainLabel::new(7), EgressLabel::new(3));
//! let key = FlowKey::tcp([10, 0, 0, 1], 4321, [192, 168, 1, 9], 80);
//! assert_eq!(key.reversed().reversed(), key);
//! assert_eq!(labels.chain().value(), 7);
//! let chain: ChainId = ChainId::new(42);
//! assert_eq!(chain.to_string(), "chain-42");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flow;
mod ids;
mod labels;
mod units;

pub use error::{Error, Result};
pub use flow::{FlowKey, IpProtocol};
pub use ids::{
    ChainId, EdgeInstanceId, ForwarderId, InstanceId, LinkId, NodeId, RouteId, SiteId, VnfId,
};
pub use labels::{ChainLabel, EgressLabel, LabelPair, MAX_LABEL};
pub use units::{Bytes, LoadUnits, Millis, Mpps, Rate};
