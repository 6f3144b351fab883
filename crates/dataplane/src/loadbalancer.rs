//! Deterministic weighted next-hop selection.
//!
//! Section 5.2: a forwarder's load-balancing rule is a list of next-hop
//! elements with weights, where each weight is the product of the site-level
//! traffic-engineering split (`x_czn1n2`) and the element's own published
//! weight. Selection must be deterministic in the flow key so that tests
//! and experiments reproduce exactly.
//!
//! Selection uses Vose's alias method: the distribution is preprocessed at
//! rule-install time into one slot per target (a threshold plus an alias
//! index), so `select` is O(1) — two array reads — independent of the
//! number of targets, instead of the previous O(n)/O(log n) scan over the
//! cumulative weights. Forwarders run `select` per packet on flow-table
//! misses and per packet in Overlay mode, while rules change only on
//! control-plane pushes, so moving work from selection to construction is
//! the right trade.

use crate::packet::Addr;
use sb_types::{Error, Result};

/// Avalanching finalizer (splitmix64): decorrelates the threshold draw from
/// the slot-index draw so one 64-bit flow hash can drive both.
#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A weighted set of next-hop candidates.
///
/// # Examples
///
/// ```
/// use sb_dataplane::{Addr, WeightedChoice};
/// use sb_types::InstanceId;
///
/// let a = Addr::Vnf(InstanceId::new(1));
/// let b = Addr::Vnf(InstanceId::new(2));
/// let lb = WeightedChoice::new(vec![(a, 3.0), (b, 1.0)]).unwrap();
/// // Selection is deterministic per hash...
/// assert_eq!(lb.select(42), lb.select(42));
/// // ...and respects weights over many hashes (~75% to `a`).
/// let hits = (0..10_000u64)
///     .filter(|h| lb.select(h.wrapping_mul(0x9e3779b97f4a7c15)) == a)
///     .count();
/// assert!((6_500..8_500).contains(&hits));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedChoice {
    /// `(target, cumulative_weight)`, cumulative over the normalized
    /// distribution, ending at exactly `total`; [`without`](Self::without)
    /// recovers the weights from it.
    targets: Vec<(Addr, f64)>,
    total: f64,
    /// Alias-method threshold per slot, scaled to the full `u64` range
    /// (`u64::MAX` = the slot always keeps its own target).
    thresholds: Vec<u64>,
    /// Alias-method donor index per slot.
    aliases: Vec<u32>,
}

/// Borrowed [`WeightedChoice`] internals: cumulative `(target, weight)`
/// pairs, the total, alias thresholds, and alias donors — the exact fields
/// the artifact codec serializes (see [`WeightedChoice::raw_parts`]).
pub(crate) type RawParts<'a> = (&'a [(Addr, f64)], f64, &'a [u64], &'a [u32]);

impl WeightedChoice {
    /// Builds a choice over `(target, weight)` pairs. Zero-weight targets
    /// are dropped. The alias table is built here, once per rule install.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when no target has positive
    /// weight, or any weight is negative or non-finite.
    pub fn new(weights: Vec<(Addr, f64)>) -> Result<Self> {
        let mut targets = Vec::with_capacity(weights.len());
        let mut raw = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for (addr, w) in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(Error::invalid_argument(format!(
                    "weight for {addr} must be finite and non-negative, got {w}"
                )));
            }
            if w > 0.0 {
                total += w;
                targets.push((addr, total));
                raw.push(w);
            }
        }
        if targets.is_empty() {
            return Err(Error::invalid_argument(
                "weighted choice needs at least one positive-weight target",
            ));
        }
        let (thresholds, aliases) = build_alias(&raw, total);
        Ok(Self {
            targets,
            total,
            thresholds,
            aliases,
        })
    }

    /// A choice with a single certain target.
    #[must_use]
    pub fn single(target: Addr) -> Self {
        Self {
            targets: vec![(target, 1.0)],
            total: 1.0,
            thresholds: vec![u64::MAX],
            aliases: vec![0],
        }
    }

    /// Deterministically selects a target for a 64-bit flow hash in O(1):
    /// the hash's high bits pick an alias slot, a mixed copy of the hash
    /// draws against the slot's threshold.
    #[inline]
    #[must_use]
    pub fn select(&self, hash: u64) -> Addr {
        let n = self.targets.len();
        if n == 1 {
            return self.targets[0].0;
        }
        // Multiply-shift maps the hash uniformly onto [0, n).
        #[allow(clippy::cast_possible_truncation)]
        let slot = ((u128::from(hash) * n as u128) >> 64) as usize;
        if mix(hash) <= self.thresholds[slot] {
            self.targets[slot].0
        } else {
            self.targets[self.aliases[slot] as usize].0
        }
    }

    /// Prefetches the alias-table slot that [`select`](Self::select) will
    /// probe for `hash` — for batch pipelines that know the hash ahead of
    /// the select. Purely a hint: it never changes which target is
    /// selected.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        let n = self.targets.len();
        if n > 1 {
            #[allow(clippy::cast_possible_truncation)]
            let slot = ((u128::from(hash) * n as u128) >> 64) as usize;
            crate::fib::prefetch_read(std::ptr::from_ref(&self.thresholds[slot]));
        }
    }

    /// The candidate targets (without weights).
    #[must_use]
    pub fn targets(&self) -> Vec<Addr> {
        self.targets.iter().map(|&(a, _)| a).collect()
    }

    /// Rebuilds the choice with `target` removed and the remaining weights
    /// renormalized — the load-balancer half of VNF-instance failover
    /// (DESIGN.md §8): after a crash the dead instance must win no further
    /// selections, while the survivors keep their relative weights.
    ///
    /// Removing an absent target rebuilds the same distribution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `target` is the only
    /// candidate (a choice must keep at least one target; the caller
    /// decides whether a fully-dead pool blackholes or keeps the stale
    /// rule).
    pub fn without(&self, target: Addr) -> Result<Self> {
        let mut prev = 0.0;
        let mut weights = Vec::with_capacity(self.targets.len().saturating_sub(1));
        for &(a, cum) in &self.targets {
            let w = cum - prev;
            prev = cum;
            if a != target {
                weights.push((a, w));
            }
        }
        Self::new(weights)
    }

    /// The raw internals — cumulative targets, total, alias thresholds and
    /// donors — for the artifact codec, which must round-trip the alias
    /// table bit-for-bit so a decoded choice selects identically to the
    /// encoded one (rebuilding from weights would be equivalent in
    /// distribution but not guaranteed bit-identical under f64 rounding).
    pub(crate) fn raw_parts(&self) -> RawParts<'_> {
        (&self.targets, self.total, &self.thresholds, &self.aliases)
    }

    /// Reassembles a choice from [`raw_parts`](Self::raw_parts) output.
    /// The artifact decoder validates lengths and totals before calling;
    /// this is a plain constructor.
    pub(crate) fn from_raw_parts(
        targets: Vec<(Addr, f64)>,
        total: f64,
        thresholds: Vec<u64>,
        aliases: Vec<u32>,
    ) -> Self {
        Self {
            targets,
            total,
            thresholds,
            aliases,
        }
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether there are no candidates (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Vose's alias construction over positive weights summing to `total`:
/// each slot `i` keeps its own target with probability `thresholds[i]` (as
/// a fraction of `u64::MAX`) and defers to `aliases[i]` otherwise.
fn build_alias(weights: &[f64], total: f64) -> (Vec<u64>, Vec<u32>) {
    let n = weights.len();
    #[allow(clippy::cast_precision_loss)]
    let scale = n as f64 / total;
    let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
    let mut thresholds = vec![u64::MAX; n];
    #[allow(clippy::cast_possible_truncation)]
    let mut aliases: Vec<u32> = (0..n).map(|i| i as u32).collect();

    let mut small: Vec<usize> = Vec::with_capacity(n);
    let mut large: Vec<usize> = Vec::with_capacity(n);
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        // Slot `s` keeps its own target with probability scaled[s] and
        // borrows the remainder from `l`.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let t = (scaled[s] * (u64::MAX as f64)) as u64;
        thresholds[s] = t;
        #[allow(clippy::cast_possible_truncation)]
        {
            aliases[s] = l as u32;
        }
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if scaled[l] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Leftovers are exactly-1.0 slots up to rounding: they keep their own
    // target unconditionally.
    for i in small.into_iter().chain(large) {
        thresholds[i] = u64::MAX;
    }
    (thresholds, aliases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_types::InstanceId;

    fn vnf(i: u64) -> Addr {
        Addr::Vnf(InstanceId::new(i))
    }

    /// The normalized weight of `target` in `lb` (0 when absent).
    fn weight_of(lb: &WeightedChoice, target: Addr) -> f64 {
        let (targets, total, _, _) = lb.raw_parts();
        let mut prev = 0.0;
        for &(a, cum) in targets {
            if a == target {
                return (cum - prev) / total;
            }
            prev = cum;
        }
        0.0
    }

    #[test]
    fn rejects_degenerate_weights() {
        assert!(WeightedChoice::new(vec![]).is_err());
        assert!(WeightedChoice::new(vec![(vnf(1), 0.0)]).is_err());
        assert!(WeightedChoice::new(vec![(vnf(1), -1.0)]).is_err());
        assert!(WeightedChoice::new(vec![(vnf(1), f64::NAN)]).is_err());
        assert!(WeightedChoice::new(vec![(vnf(1), f64::INFINITY)]).is_err());
    }

    #[test]
    fn zero_weight_targets_are_dropped() {
        let lb = WeightedChoice::new(vec![(vnf(1), 0.0), (vnf(2), 1.0)]).unwrap();
        assert_eq!(lb.len(), 1);
        assert_eq!(lb.targets(), vec![vnf(2)]);
        assert_eq!(weight_of(&lb, vnf(1)), 0.0);
        assert_eq!(weight_of(&lb, vnf(2)), 1.0);
    }

    #[test]
    fn single_always_selects_its_target() {
        let lb = WeightedChoice::single(vnf(7));
        for h in [0u64, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(lb.select(h), vnf(7));
        }
    }

    #[test]
    fn extreme_hashes_stay_in_range() {
        let lb = WeightedChoice::new(vec![(vnf(1), 1.0), (vnf(2), 1.0)]).unwrap();
        assert_eq!(lb.select(0), vnf(1));
        let last = lb.select(u64::MAX);
        assert!(last == vnf(1) || last == vnf(2));
    }

    #[test]
    fn empirical_distribution_tracks_weights() {
        let lb = WeightedChoice::new(vec![(vnf(1), 1.0), (vnf(2), 2.0), (vnf(3), 7.0)]).unwrap();
        let mut counts = [0u32; 3];
        let n = 100_000u64;
        for i in 0..n {
            // Spread hashes over the full u64 range.
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            match lb.select(h) {
                a if a == vnf(1) => counts[0] += 1,
                a if a == vnf(2) => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let frac: Vec<f64> = counts.iter().map(|&c| f64::from(c) / n as f64).collect();
        assert!((frac[0] - 0.1).abs() < 0.02, "{frac:?}");
        assert!((frac[1] - 0.2).abs() < 0.02, "{frac:?}");
        assert!((frac[2] - 0.7).abs() < 0.02, "{frac:?}");
    }

    /// The pre-alias implementation: map the hash onto the cumulative
    /// weight distribution and scan. Retained as the distribution oracle.
    fn cumulative_select(lb: &WeightedChoice, hash: u64) -> Addr {
        let targets: Vec<Addr> = lb.targets();
        let cum: Vec<f64> = targets.iter().map(|&a| weight_of(lb, a)).scan(
            0.0,
            |acc, w| {
                *acc += w;
                Some(*acc)
            },
        )
        .collect();
        #[allow(clippy::cast_precision_loss)]
        let point = hash as f64 / (u64::MAX as f64 + 1.0);
        let idx = cum
            .iter()
            .position(|&c| point < c)
            .unwrap_or(targets.len() - 1);
        targets[idx]
    }

    #[test]
    fn alias_matches_cumulative_scan_distribution() {
        // On a fixed hash population, the alias table's empirical
        // distribution must match the old linear cumulative scan's within
        // a small tolerance, for several weight shapes.
        let shapes: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0],
            vec![3.0, 1.0],
            vec![1.0, 2.0, 7.0],
            vec![5.0, 1.0, 1.0, 1.0, 2.0],
            vec![0.1, 0.9],
        ];
        let n = 200_000u64;
        for weights in shapes {
            let lb = WeightedChoice::new(
                weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (vnf(i as u64), w))
                    .collect(),
            )
            .unwrap();
            let mut alias_counts = std::collections::HashMap::new();
            let mut scan_counts = std::collections::HashMap::new();
            for i in 0..n {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                *alias_counts.entry(lb.select(h)).or_insert(0u64) += 1;
                *scan_counts.entry(cumulative_select(&lb, h)).or_insert(0u64) += 1;
            }
            for target in lb.targets() {
                let a = *alias_counts.get(&target).unwrap_or(&0);
                let s = *scan_counts.get(&target).unwrap_or(&0);
                #[allow(clippy::cast_precision_loss)]
                let (fa, fs) = (a as f64 / n as f64, s as f64 / n as f64);
                assert!(
                    (fa - fs).abs() < 0.01,
                    "weights {weights:?} target {target}: alias {fa:.4} vs scan {fs:.4}"
                );
            }
        }
    }

    #[test]
    fn without_removes_target_and_keeps_relative_weights() {
        let wc =
            WeightedChoice::new(vec![(vnf(1), 2.0), (vnf(2), 3.0), (vnf(3), 5.0)]).unwrap();
        let survivors = wc.without(vnf(2)).unwrap();
        assert_eq!(survivors.len(), 2);
        assert_eq!(weight_of(&survivors, vnf(2)), 0.0);
        // 2:5 renormalized.
        assert!((weight_of(&survivors, vnf(1)) - 2.0 / 7.0).abs() < 1e-12);
        assert!((weight_of(&survivors, vnf(3)) - 5.0 / 7.0).abs() < 1e-12);
        // The dead target never wins a selection.
        for i in 0..10_000u64 {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_ne!(survivors.select(h), vnf(2));
        }
        // Removing an absent target keeps the distribution.
        let same = wc.without(vnf(9)).unwrap();
        assert_eq!(weight_of(&same, vnf(2)), weight_of(&wc, vnf(2)));
        // The last target cannot be removed.
        assert!(WeightedChoice::single(vnf(1)).without(vnf(1)).is_err());
    }

    #[test]
    fn alias_table_is_deterministic_across_builds() {
        let make = || {
            WeightedChoice::new(vec![(vnf(1), 2.0), (vnf(2), 3.0), (vnf(3), 5.0)]).unwrap()
        };
        let (a, b) = (make(), make());
        for i in 0..10_000u64 {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(a.select(h), b.select(h));
        }
        assert_eq!(a, b);
    }
}
