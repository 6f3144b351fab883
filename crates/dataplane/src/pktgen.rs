//! A deterministic packet generator (the MoonGen stand-in).
//!
//! Section 5.4: "We generate minimum sized (64B) UDP packets uniformly
//! distributed among a fixed number of flows." [`PacketGenerator`]
//! pre-builds the flow population and emits packets round-robin-free:
//! a multiplicative LCG picks flows uniformly but deterministically, so two
//! runs of an experiment see the identical packet sequence.

use crate::packet::Packet;
use sb_types::{EgressLabel, FlowKey, LabelPair};

/// The label pair carried by return-direction packets of `pair`'s chain:
/// the same chain label with the far end's egress label (`egress + 1`).
/// Reverse pairs are never installed — forwarders resolve them through the
/// chain fallback to the chain's canonical pair — so reverse traffic
/// exercises the fallback lookup exactly like the deployed system's return
/// path does.
#[must_use]
fn reverse_pair(pair: LabelPair) -> LabelPair {
    LabelPair::new(
        pair.chain(),
        EgressLabel::new(pair.egress().value().wrapping_add(1)),
    )
}

/// Minimum Ethernet frame size used by the Figure 8 experiments.
pub const MIN_PACKET_SIZE: u16 = 64;

/// A deterministic generator of labeled UDP packets over a fixed flow
/// population.
///
/// # Examples
///
/// ```
/// use sb_dataplane::pktgen::PacketGenerator;
/// use sb_types::{ChainLabel, EgressLabel, LabelPair};
///
/// let labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(2));
/// let mut gen = PacketGenerator::new(labels, 100, 64, 7);
/// let a = gen.next_packet();
/// assert_eq!(a.size, 64);
/// assert_eq!(a.labels, Some(labels));
/// ```
#[derive(Debug, Clone)]
pub struct PacketGenerator {
    labels: LabelPair,
    flows: Vec<FlowKey>,
    /// Per-flow label pairs for the mixed-label pattern; empty in the
    /// uniform single-chain mode (every packet carries `labels`).
    flow_labels: Vec<LabelPair>,
    size: u16,
    state: u64,
    emitted: u64,
}

impl PacketGenerator {
    /// Creates a generator over `num_flows` distinct UDP flows emitting
    /// `size`-byte packets. `seed` controls both the flow population's
    /// address block and the emission order.
    ///
    /// # Panics
    ///
    /// Panics if `num_flows` is zero.
    #[must_use]
    pub fn new(labels: LabelPair, num_flows: usize, size: u16, seed: u64) -> Self {
        assert!(num_flows > 0, "need at least one flow");
        // Distinct 5-tuples: walk source address/port space.
        let mut flows = Vec::with_capacity(num_flows);
        for i in 0..num_flows {
            #[allow(clippy::cast_possible_truncation)]
            let i32v = (i as u32).wrapping_add((seed as u32) << 20);
            let src = [
                10,
                (i32v >> 16) as u8,
                (i32v >> 8) as u8,
                i32v as u8,
            ];
            let sport = 1024 + (i % 60_000) as u16;
            flows.push(FlowKey::udp(src, sport, [192, 168, 0, 1], 9000));
        }
        Self {
            labels,
            flows,
            flow_labels: Vec::new(),
            size,
            state: seed | 1,
            emitted: 0,
        }
    }

    /// Splits the population by [`shard_of_key`](crate::shard::shard_of_key)
    /// into one generator per shard, as symmetric RSS assigns NIC queues.
    /// Each flow keeps its label pair. Shard `s` emits in the order of seed
    /// `2s + 1`, so one shard replays a generator built with seed 1.
    ///
    /// # Panics
    ///
    /// Panics if some shard's share is empty.
    pub(crate) fn split(self, shards: usize) -> Vec<Self> {
        let mut parts: Vec<Self> = (0..shards as u64)
            .map(|s| Self {
                flows: Vec::new(),
                flow_labels: Vec::new(),
                state: 2 * s + 1,
                emitted: 0,
                ..self
            })
            .collect();
        for (i, &k) in self.flows.iter().enumerate() {
            let part = &mut parts[crate::shard::shard_of_key(k, shards)];
            part.flows.push(k);
            if let Some(&l) = self.flow_labels.get(i) {
                part.flow_labels.push(l);
            }
        }
        assert!(
            parts.iter().all(|p| !p.flows.is_empty()),
            "need at least one flow per shard"
        );
        parts
    }

    /// Creates a *mixed-label* generator: the flow population is split
    /// into contiguous blocks, one per entry of `chains`, sized by a
    /// Zipf(`s = 1`) distribution over the chain ranks — chain `k`
    /// (1-based) receives a share proportional to `1 / k`. Every flow is
    /// pinned to its block's label pair, so a batch drawn uniformly over
    /// flows carries a realistic fleet mix of chains per batch while
    /// flow → chain affinity stays stable (a flow never changes chains).
    ///
    /// Each block gets at least one flow; `num_flows` must therefore be
    /// at least `chains.len()`.
    fn mixed(chains: &[LabelPair], num_flows: usize, size: u16, seed: u64) -> Self {
        assert!(!chains.is_empty(), "need at least one chain");
        assert!(
            num_flows >= chains.len(),
            "need at least one flow per chain"
        );
        let mut g = Self::new(chains[0], num_flows, size, seed);
        // Zipf shares: weight(k) = 1/k over 1-based chain ranks. Assign
        // contiguous flow blocks by cumulative share so the partition is
        // exact, deterministic, and independent of float summation order.
        let total: f64 = (1..=chains.len()).map(|k| 1.0 / k as f64).sum();
        let mut labels = Vec::with_capacity(num_flows);
        let mut cdf = 0.0;
        let mut start = 0usize;
        for (k, &pair) in chains.iter().enumerate() {
            cdf += 1.0 / (k + 1) as f64;
            // Last block always closes at num_flows, immune to rounding.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let mut end = if k + 1 == chains.len() {
                num_flows
            } else {
                (cdf / total * num_flows as f64).round() as usize
            };
            // Guarantee ≥ 1 flow per chain and leave room for the rest.
            end = end.clamp(start + 1, num_flows - (chains.len() - k - 1));
            labels.extend(std::iter::repeat_n(pair, end - start));
            start = end;
        }
        debug_assert_eq!(labels.len(), num_flows);
        g.flow_labels = labels;
        g
    }

    /// A *mixed-label* generator with bidirectional traffic: the flow
    /// population is split into contiguous blocks, one per entry of
    /// `chains`, sized by a Zipf(`s = 1`) distribution over the chain
    /// ranks, and within each block every second flow carries the chain's
    /// *reverse* label pair (same chain label, the far end's egress label)
    /// instead of the installed forward pair. Reverse pairs are never
    /// installed, so a batch mixes exact-match and chain-fallback rule
    /// lookups the way a bidirectional fleet workload does. Flow → label affinity stays
    /// stable, and blocks keep their Zipf sizes.
    ///
    /// # Panics
    ///
    /// Panics if `chains` is empty or `num_flows < chains.len()`.
    #[must_use]
    pub fn mixed_bidirectional(
        chains: &[LabelPair],
        num_flows: usize,
        size: u16,
        seed: u64,
    ) -> Self {
        let mut g = Self::mixed(chains, num_flows, size, seed);
        // Blocks are contiguous, so a block-local index is just a run
        // counter over equal forward pairs.
        let mut prev: Option<LabelPair> = None;
        let mut local = 0usize;
        for l in &mut g.flow_labels {
            let fwd = *l;
            local = if prev == Some(fwd) { local + 1 } else { 0 };
            prev = Some(fwd);
            if local % 2 == 1 {
                *l = reverse_pair(fwd);
            }
        }
        g
    }

    /// Number of distinct flows in the population.
    #[must_use]
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Packets emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emits the next packet, choosing its flow uniformly (deterministic
    /// xorshift over the population).
    pub fn next_packet(&mut self) -> Packet {
        // xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let mixed = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        // Multiply-shift range reduction instead of `% len`: one 64x64
        // widening multiply where a hardware divide would dominate the
        // per-packet budget at generator rates.
        #[allow(clippy::cast_possible_truncation)]
        let idx = ((u128::from(mixed) * self.flows.len() as u128) >> 64) as usize;
        self.emitted += 1;
        self.packet(idx)
    }

    /// The packet of flow `i` of the population, with the flow's label
    /// pair. Reading it emits nothing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`num_flows`](Self::num_flows).
    #[must_use]
    pub(crate) fn packet(&self, i: usize) -> Packet {
        let labels = self.flow_labels.get(i).copied().unwrap_or(self.labels);
        Packet::labeled(labels, self.flows[i], self.size)
    }

    /// The underlying flow population.
    #[must_use]
    pub fn flows(&self) -> &[FlowKey] {
        &self.flows
    }

    /// Per-flow label pairs in the mixed-label mode; empty for the
    /// uniform single-chain generator.
    #[must_use]
    pub fn flow_labels(&self) -> &[LabelPair] {
        &self.flow_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_types::{ChainLabel, EgressLabel};
    use std::collections::HashSet;

    fn labels() -> LabelPair {
        LabelPair::new(ChainLabel::new(1), EgressLabel::new(2))
    }

    #[test]
    fn flow_population_is_distinct() {
        let g = PacketGenerator::new(labels(), 10_000, 64, 3);
        let set: HashSet<_> = g.flows().iter().collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn emission_is_deterministic_per_seed() {
        let mut a = PacketGenerator::new(labels(), 50, 64, 9);
        let mut b = PacketGenerator::new(labels(), 50, 64, 9);
        for _ in 0..1000 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
        let mut c = PacketGenerator::new(labels(), 50, 64, 10);
        let same = (0..1000).filter(|_| a.next_packet() == c.next_packet()).count();
        assert!(same < 1000, "different seeds should differ somewhere");
    }

    #[test]
    fn all_flows_get_traffic() {
        let mut g = PacketGenerator::new(labels(), 32, 64, 5);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            seen.insert(g.next_packet().key);
        }
        assert_eq!(seen.len(), 32, "uniform selection must cover all flows");
        assert_eq!(g.emitted(), 10_000);
    }

    #[test]
    fn coverage_is_roughly_uniform() {
        let mut g = PacketGenerator::new(labels(), 10, 64, 11);
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(g.next_packet().key).or_insert(0u32) += 1;
        }
        for &c in counts.values() {
            let frac = f64::from(c) / f64::from(n);
            assert!((frac - 0.1).abs() < 0.02, "skewed flow share: {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_is_rejected() {
        let _ = PacketGenerator::new(labels(), 0, 64, 1);
    }

    #[test]
    fn mixed_labels_follow_zipf_blocks_and_stay_flow_stable() {
        let chains: Vec<LabelPair> = (1..=8)
            .map(|c| LabelPair::new(ChainLabel::new(c), EgressLabel::new(100 + c)))
            .collect();
        let mut g = PacketGenerator::mixed(&chains, 2000, 64, 7);
        assert_eq!(g.flow_labels().len(), 2000);
        // Zipf(1) over 8 chains: chain 1 holds share 1/H8 ≈ 0.368 of flows.
        let first = g.flow_labels().iter().filter(|&&l| l == chains[0]).count();
        let frac = first as f64 / 2000.0;
        assert!((frac - 0.368).abs() < 0.02, "chain-1 share {frac}");
        // Every chain gets at least one flow, blocks are contiguous.
        for pair in &chains {
            assert!(g.flow_labels().contains(pair), "chain {pair} has no flows");
        }
        // A flow's labels never change across emissions.
        let mut pinned = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let pkt = g.next_packet();
            let prev = pinned.insert(pkt.key, pkt.labels);
            if let Some(p) = prev {
                assert_eq!(p, pkt.labels, "flow {:?} switched chains", pkt.key);
            }
        }
        // A realistic mix: many chains appear within the emission window.
        let distinct: HashSet<_> = pinned.values().copied().collect();
        assert_eq!(distinct.len(), chains.len());
    }

    #[test]
    fn bidirectional_alternates_forward_and_reverse_within_blocks() {
        let chains: Vec<LabelPair> = (1..=8)
            .map(|c| LabelPair::new(ChainLabel::new(c), EgressLabel::new(1)))
            .collect();
        let g = PacketGenerator::mixed_bidirectional(&chains, 2000, 64, 7);
        let fwd = PacketGenerator::mixed(&chains, 2000, 64, 7);
        let mut local = 0usize;
        let mut prev = None;
        for (i, (&l, &f)) in g.flow_labels().iter().zip(fwd.flow_labels()).enumerate() {
            local = if prev == Some(f) { local + 1 } else { 0 };
            prev = Some(f);
            // Same chain either way; odd block-local flows carry egress+1.
            assert_eq!(l.chain(), f.chain(), "flow {i} switched chains");
            if local % 2 == 1 {
                assert_eq!(l.egress().value(), f.egress().value() + 1, "flow {i}");
            } else {
                assert_eq!(l, f, "flow {i} should stay forward");
            }
        }
        // Every chain with >= 2 flows contributes both directions.
        for pair in &chains {
            let rev = LabelPair::new(pair.chain(), EgressLabel::new(2));
            let n = fwd.flow_labels().iter().filter(|&&l| l == *pair).count();
            if n >= 2 {
                assert!(g.flow_labels().contains(pair), "chain {pair} lost forward");
                assert!(g.flow_labels().contains(&rev), "chain {pair} lost reverse");
            }
        }
    }

    #[test]
    fn mixed_with_one_chain_matches_uniform_generator() {
        let chains = [labels()];
        let mut m = PacketGenerator::mixed(&chains, 50, 64, 9);
        let mut u = PacketGenerator::new(labels(), 50, 64, 9);
        for _ in 0..500 {
            assert_eq!(m.next_packet(), u.next_packet());
        }
    }

    #[test]
    #[should_panic(expected = "one flow per chain")]
    fn mixed_rejects_fewer_flows_than_chains() {
        let chains: Vec<LabelPair> = (1..=4)
            .map(|c| LabelPair::new(ChainLabel::new(c), EgressLabel::new(c)))
            .collect();
        let _ = PacketGenerator::mixed(&chains, 3, 64, 1);
    }
}
