//! RSS-style flow sharding across per-core forwarder shards.
//!
//! The measurement harness (DESIGN.md §11) splits one flow population
//! across N shard threads the way a multi-queue NIC splits it across cores: a hash of
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
//! Weighted choice is a pure function of the (direction-sensitive) flow
//! hash, so when every shard installs identical rules the pin a flow gets
//! from N shards is byte-identical to what a single sequential forwarder
//! would have chosen; sharding changes only *where* the entry is
//! stored. `tests/sharded_dataplane.rs` pins this property for arbitrary
//! traces over N plain forwarders, each packet routed by
//! [`shard_of_key`].

use sb_types::FlowKey;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
