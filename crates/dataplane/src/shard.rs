//! RSS-style flow sharding across per-core forwarder shards.
//!
//! The sharded runner (DESIGN.md §11) splits one forwarder's work across N
//! shard threads the way a multi-queue NIC splits it across cores: a hash of
//! the connection tuple picks the shard, and everything downstream of that
//! pick — flow-table entries, load-balancer pins, reverse-path state — lives
//! only in that shard. Shards share nothing and never lock.
//!
//! # The hash must be symmetric
//!
//! [`FlowKey::stable_hash`] is deliberately direction-sensitive (the load
//! balancer wants forward and reverse selections decorrelated), but the
//! *shard* pick must send both directions of a connection to the same shard:
//! reverse-direction packets are routed by flow-table entries the forward
//! direction installed, and those entries live in exactly one shard's table.
//! [`rss_hash`] therefore XORs the stable hashes of the key and its
//! reversal — a commutative combination invariant under direction — and
//! then remixes, exactly the reason real deployments configure symmetric
//! RSS (symmetric Toeplitz keys) on their NICs.
//!
//! Shard selection from the hash uses the same multiply-shift range
//! reduction as the generator and the load balancer: one widening multiply
//! instead of a hardware divide.
//!
//! # Equivalence with a single shard
//!
//! Because every shard installs identical rules and weighted choice is a
//! pure function of the (direction-sensitive) flow hash, the pin a flow
//! gets from an N-shard set is byte-identical to what a single sequential
//! forwarder would have chosen; sharding changes only *where* the entry is
//! stored. `tests/sharded_dataplane.rs` pins this property for arbitrary
//! traces, and the [`ShardSet`] type here is the single-threaded harness it
//! (and the threaded runner) builds on.

use crate::forwarder::{Forwarder, ForwarderMode, RuleSet};
use crate::packet::{Addr, Packet};
use sb_types::{FlowKey, ForwarderId, LabelPair, Result, SiteId};

/// A direction-invariant (symmetric) 64-bit hash of a connection: both
/// directions of a flow produce the same value.
///
/// # Examples
///
/// ```
/// use sb_dataplane::shard::rss_hash;
/// use sb_types::FlowKey;
/// let k = FlowKey::tcp([10, 0, 0, 1], 5000, [10, 0, 0, 2], 80);
/// assert_eq!(rss_hash(k), rss_hash(k.reversed()));
/// ```
#[inline]
#[must_use]
pub fn rss_hash(key: FlowKey) -> u64 {
    // XOR of the two direction hashes is symmetric by construction; the
    // splitmix64 finalizer restores high-bit quality for the multiply-shift
    // range reduction in `shard_of` (XOR of two FNV-1a values has weaker
    // high bits than either input).
    let mut h = key.stable_hash() ^ key.reversed().stable_hash();
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Maps a symmetric hash onto `shards` shards via multiply-shift range
/// reduction.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[inline]
#[must_use]
pub fn shard_of(hash: u64, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    #[allow(clippy::cast_possible_truncation)]
    let s = ((u128::from(hash) * shards as u128) >> 64) as usize;
    s
}

/// The shard a connection belongs to: [`shard_of`] ∘ [`rss_hash`]. Both
/// directions of the connection map to the same shard.
#[inline]
#[must_use]
pub fn shard_of_key(key: FlowKey, shards: usize) -> usize {
    shard_of(rss_hash(key), shards)
}

/// N forwarder shards with identical rule state, processed in the caller's
/// thread. The threaded runner gives each shard its own thread and its own
/// RSS share of the flows; property tests drive a `ShardSet` directly to
/// compare against a one-shard (sequential) reference.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Forwarder>,
}

impl ShardSet {
    /// Creates `num_shards` forwarder shards in `mode`, each with its own
    /// flow table bounded at `flow_capacity` entries (so the aggregate
    /// capacity is `num_shards * flow_capacity`).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    #[must_use]
    pub fn new(num_shards: usize, mode: ForwarderMode, flow_capacity: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let shards = (0..num_shards)
            .map(|i| {
                Forwarder::with_flow_capacity(
                    ForwarderId::new(i as u64),
                    SiteId::new(0),
                    mode,
                    flow_capacity,
                )
            })
            .collect();
        Self { shards }
    }

    /// Installs the same rule set on every shard. Identical rules are what
    /// make shard placement invisible to pin selection (see module docs).
    pub fn install_rules(&mut self, labels: LabelPair, rules: &RuleSet) {
        for shard in &mut self.shards {
            shard.install_rules(labels, rules.clone());
        }
    }

    /// Sets the label-unaware bridge next hop on every shard.
    pub fn set_bridge_next(&mut self, next: Addr) {
        for shard in &mut self.shards {
            shard.set_bridge_next(next);
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` maps to.
    #[must_use]
    pub fn shard_of(&self, key: FlowKey) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// Routes `pkt` to its shard and processes it there, returning the
    /// shard index along with the forwarding outcome.
    ///
    /// # Errors
    ///
    /// Propagates the owning shard's processing error (no rules installed,
    /// flow table exhausted, ...).
    pub fn process(&mut self, pkt: Packet, from: Addr) -> (usize, Result<(Packet, Addr)>) {
        let s = self.shard_of(pkt.key);
        (s, self.shards[s].process(pkt, from))
    }

    /// Total flow-table entries across all shards.
    #[must_use]
    pub fn flow_entries(&self) -> usize {
        self.shards.iter().map(Forwarder::flow_entries).sum()
    }

    /// Immutable access to the shards.
    #[must_use]
    pub fn shards(&self) -> &[Forwarder] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalancer::WeightedChoice;
    use sb_types::{ChainLabel, EdgeInstanceId, EgressLabel, InstanceId};

    fn flow(i: u32) -> FlowKey {
        FlowKey::udp(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            1024 + (i % 60_000) as u16,
            [192, 168, 0, 1],
            9000,
        )
    }

    #[test]
    fn rss_hash_is_symmetric() {
        for i in 0..1000 {
            let k = flow(i);
            assert_eq!(rss_hash(k), rss_hash(k.reversed()), "flow {i}");
        }
    }

    #[test]
    fn rss_hash_distinguishes_flows() {
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0..10_000).map(|i| rss_hash(flow(i))).collect();
        assert!(hashes.len() > 9_990, "too many collisions: {}", hashes.len());
    }

    #[test]
    fn shard_distribution_is_roughly_uniform() {
        for shards in [2usize, 3, 4, 8] {
            let mut counts = vec![0u32; shards];
            let n = 40_000u32;
            for i in 0..n {
                counts[shard_of_key(flow(i), shards)] += 1;
            }
            let expect = f64::from(n) / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                let dev = (f64::from(c) - expect).abs() / expect;
                assert!(dev < 0.05, "shard {s}/{shards} off by {dev:.3}");
            }
        }
    }

    #[test]
    fn one_shard_maps_everything_to_zero() {
        for i in 0..100 {
            assert_eq!(shard_of_key(flow(i), 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = shard_of(1, 0);
    }

    #[test]
    fn both_directions_land_in_owning_shard_and_pin_identically() {
        let labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(1));
        let rules = RuleSet {
            to_vnf: WeightedChoice::new(
                (0..4)
                    .map(|i| (Addr::Vnf(InstanceId::new(i)), 1.0))
                    .collect(),
            )
            .unwrap(),
            to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(99))),
            to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
        };
        let edge = Addr::Edge(EdgeInstanceId::new(0));

        let mut sharded = ShardSet::new(4, ForwarderMode::Affinity, 1 << 12);
        sharded.install_rules(labels, &rules);
        let mut single = ShardSet::new(1, ForwarderMode::Affinity, 1 << 14);
        single.install_rules(labels, &rules);

        for i in 0..200 {
            let k = flow(i);
            let pkt = Packet::labeled(labels, k, 64);
            let (s, r) = sharded.process(pkt, edge);
            let (_, r1) = single.process(pkt, edge);
            let (fwd_pkt, vnf) = r.unwrap();
            assert_eq!(vnf, r1.unwrap().1, "pin differs for flow {i}");
            // The VNF leg and the reverse direction stay in the same shard.
            let (s2, r2) = sharded.process(fwd_pkt, vnf);
            assert_eq!(s, s2);
            r2.unwrap();
            let rev = Packet::labeled(labels, k.reversed(), 64);
            assert_eq!(sharded.shard_of(rev.key), s, "reverse escaped shard");
        }
        assert_eq!(sharded.num_shards(), 4);
        assert!(sharded.flow_entries() > 0);
    }
}
