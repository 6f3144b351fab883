//! The compiled FIB: a forwarder's rule rows, sorted by label pair, one
//! immutable generation per rule mutation (DESIGN.md §14).
//!
//! A forwarder's rules are the rows of the [`CompiledFib`] it last
//! published — nothing else holds them, and nothing is derived from them.
//! A [`CompiledFib`] is its **sorted rule rows** ([`FibRow`]): per label
//! pair, the [`RuleSet`] with its Vose alias tables already baked and the
//! epoch of the route that installed it. Make-before-break needs no second
//! epoch here: flows pinned before an update keep their flow-table
//! entries. A row is also exactly what an artifact carries.
//!
//! The one rule lookup, [`CompiledFib::lookup_index`], binary-searches
//! those rows: the exact label pair, else the chain's canonical
//! (smallest) pair, since reverse-direction packets carry the opposite
//! egress label. Only a connection's first packet pays for it in Affinity
//! mode (Section 5.3, Figure 6): a flow-table hit never touches the FIB,
//! so the flow table is the flat per-hop steering state Active Switching
//! argues for, and the FIB needs no second index beside its rows.
//!
//! # Generation lifecycle
//!
//! Compilation happens off the hot path, in the rule mutators
//! (`install_rules_epoch` / `remove_rules` / `fail_vnf_instance` / ...).
//! Each mutation builds the next [`CompiledFib`] from the current one — a
//! full rebuild over an edited row set, or a single-row splice
//! ([`CompiledFib::patch_row`]) when only one label pair changed — and
//! publishes it by replacing the forwarder's `Arc`. A batch clones that
//! `Arc` once and holds it to its end, and every mutator takes `&mut
//! self`, so no batch sees a half-applied swap. A generation stays alive
//! (and consistent) for as long as a batch, a [`FibReader`] snapshot or an
//! artifact export still holds it.

use crate::forwarder::RuleSet;
use sb_types::LabelPair;
use std::sync::Arc;

/// Issues a best-effort read prefetch for the cache line holding `p`.
///
/// A pure performance hint: on x86-64 it lowers to `prefetcht0`, elsewhere
/// it compiles to nothing. Prefetching any address — stale, unaligned, or
/// unmapped — is architecturally safe; it can never fault or alter
/// program-visible state, which is why the scoped `unsafe` below is sound.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint instruction with no architectural
    // effect beyond cache state; it is defined for arbitrary addresses.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One compiled rule row: everything the hot path needs for a label pair,
/// laid out contiguously in the row array.
#[derive(Debug, Clone, PartialEq)]
pub struct FibRow {
    /// The label pair this row serves.
    pub labels: LabelPair,
    /// The epoch of the route that installed `rules`.
    pub epoch: u64,
    /// The rule sets, alias tables pre-baked.
    pub rules: RuleSet,
}

/// An immutable compiled snapshot of a forwarder's rule state.
///
/// Built off the hot path by [`CompiledFib::build`] (full rebuild) or
/// [`CompiledFib::patch_row`] (single-row delta) and published by the one
/// forwarder that owns it. Lookups are wait-free and allocation-free.
#[derive(Debug)]
pub struct CompiledFib {
    generation: u64,
    /// Rule rows, sorted by label pair — deterministic across rebuilds.
    /// The array is immutable, so a full artifact export shares it
    /// ([`shared_rows`](Self::shared_rows)) instead of copying it.
    rows: Arc<[FibRow]>,
}

impl CompiledFib {
    /// An empty FIB at generation 0 (the state of a fresh forwarder).
    #[must_use]
    pub fn empty() -> Self {
        Self::build(0, Vec::new())
    }

    /// Compiles `rows` into a FIB tagged `generation`. Rows are sorted by
    /// label pair, so the layout (and the chain fallback's choice) is
    /// deterministic regardless of the order they are given in.
    #[must_use]
    pub fn build(generation: u64, mut rows: Vec<FibRow>) -> Self {
        rows.sort_by_key(|r| r.labels);
        Self {
            generation,
            rows: rows.into(),
        }
    }

    /// [`build`](Self::build) over a shared row array: the FIB keeps
    /// `rows` itself when it is already sorted by label pair (as every
    /// FIB's and artifact's rows are), and compiles a sorted copy
    /// otherwise.
    #[must_use]
    pub(crate) fn from_rows(generation: u64, rows: Arc<[FibRow]>) -> Self {
        if rows.is_sorted_by_key(|r| r.labels) {
            Self { generation, rows }
        } else {
            Self::build(generation, rows.to_vec())
        }
    }

    /// A copy of this FIB with one row replaced (or inserted in sorted
    /// position), tagged `generation`: row payloads are cloned into one
    /// new array and nothing is re-derived. The single-row delta path for
    /// an install that touches one label pair.
    #[must_use]
    pub fn patch_row(&self, generation: u64, row: FibRow) -> Self {
        let (at, resume) = match self.position(row.labels) {
            Ok(i) => (i, i + 1),
            Err(i) => (i, i),
        };
        Self {
            generation,
            rows: splice(&self.rows, at, row, resume),
        }
    }

    /// A copy of this FIB without `labels`' row, tagged `generation`, or
    /// `None` when the pair has no row.
    #[must_use]
    pub(crate) fn without_row(&self, generation: u64, labels: LabelPair) -> Option<Self> {
        let i = self.position(labels).ok()?;
        let (head, tail) = (&self.rows[..i], &self.rows[i + 1..]);
        Some(Self {
            generation,
            rows: head.iter().chain(tail).cloned().collect(),
        })
    }

    /// This snapshot's generation number.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of rule rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the FIB holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The compiled rows, sorted by label pair.
    #[must_use]
    pub fn rows(&self) -> &[FibRow] {
        &self.rows
    }

    /// The compiled row array itself, for a holder that keeps it beyond
    /// this snapshot (a full artifact export).
    #[must_use]
    pub(crate) fn shared_rows(&self) -> &Arc<[FibRow]> {
        &self.rows
    }

    /// The exact binary search over the sorted rows: `Ok` with the index
    /// of `labels`' row, or `Err` with the index a row for it would be
    /// inserted at.
    pub(crate) fn position(&self, labels: LabelPair) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&labels, |r| r.labels)
    }

    /// Resolves a label pair to its row index: the exact pair, else the
    /// chain's canonical (smallest) pair — reverse-direction packets carry
    /// the opposite egress label but belong to the same chain — else
    /// `None`. One binary search on the chain label finds the chain's
    /// first row, which is the answer when it is the chain's only row;
    /// only a chain with several rows searches again for the exact pair.
    #[inline]
    #[must_use]
    pub fn lookup_index(&self, labels: LabelPair) -> Option<u32> {
        let chain = labels.chain();
        let in_chain = |i: usize| self.rows.get(i).is_some_and(|r| r.labels.chain() == chain);
        let first = self.rows.partition_point(|r| r.labels.chain() < chain);
        if !in_chain(first) {
            return None;
        }
        let i = if in_chain(first + 1) {
            self.position(labels).unwrap_or(first)
        } else {
            first
        };
        #[allow(clippy::cast_possible_truncation)]
        Some(i as u32)
    }

    /// The row at `idx` (from [`lookup_index`](Self::lookup_index)).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, idx: u32) -> &FibRow {
        &self.rows[idx as usize]
    }
}

/// `rows[..at]`, then `row`, then `rows[resume..]`, cloned into one
/// allocation: an insert when `resume == at`, a replacement when
/// `resume == at + 1`. Sorted when `row` belongs at `at`.
fn splice(rows: &[FibRow], at: usize, row: FibRow, resume: usize) -> Arc<[FibRow]> {
    let (head, tail) = (&rows[..at], &rows[resume..]);
    head.iter()
        .cloned()
        .chain(std::iter::once(row))
        .chain(tail.iter().cloned())
        .collect()
}

/// A snapshot handle on one compiled generation, taken by
/// [`Forwarder::fib_reader`](crate::Forwarder::fib_reader): it holds the
/// `Arc` that was current when it was taken, so later publishes on the
/// forwarder neither move it nor free its rows.
#[derive(Debug, Clone)]
pub struct FibReader {
    pub(crate) fib: Arc<CompiledFib>,
}

impl FibReader {
    /// The generation this handle holds.
    #[inline]
    pub fn snapshot(&mut self) -> &Arc<CompiledFib> {
        &self.fib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalancer::WeightedChoice;
    use crate::packet::Addr;
    use sb_types::{ChainLabel, EgressLabel, EdgeInstanceId, ForwarderId, InstanceId};

    fn pair(chain: u32, egress: u32) -> LabelPair {
        LabelPair::new(ChainLabel::new(chain), EgressLabel::new(egress))
    }

    fn ruleset(inst: u64) -> RuleSet {
        RuleSet {
            to_vnf: WeightedChoice::single(Addr::Vnf(InstanceId::new(inst))),
            to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(9))),
            to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(0))),
        }
    }

    fn row(chain: u32, egress: u32, inst: u64) -> FibRow {
        FibRow {
            labels: pair(chain, egress),
            epoch: 0,
            rules: ruleset(inst),
        }
    }

    #[test]
    fn exact_lookup_and_miss() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10), row(3, 4, 11)]);
        assert_eq!(fib.len(), 2);
        let idx = fib.lookup_index(pair(1, 2)).unwrap();
        assert_eq!(fib.row(idx).labels, pair(1, 2));
        assert!(fib.lookup_index(pair(9, 9)).is_none());
    }

    #[test]
    fn chain_fallback_resolves_smallest_pair() {
        // Two pairs of chain 1: the canonical fallback is the smallest.
        let fib = CompiledFib::build(1, vec![row(1, 7, 20), row(1, 2, 10)]);
        let idx = fib.lookup_index(pair(1, 99)).unwrap();
        assert_eq!(fib.row(idx).labels, pair(1, 2), "fallback must be canonical");
        // Exact matches still win over the fallback.
        let idx = fib.lookup_index(pair(1, 7)).unwrap();
        assert_eq!(fib.row(idx).labels, pair(1, 7));
    }

    #[test]
    fn empty_fib_misses_everything() {
        let fib = CompiledFib::empty();
        assert!(fib.is_empty());
        assert_eq!(fib.generation(), 0);
        assert!(fib.lookup_index(pair(1, 1)).is_none());
    }

    #[test]
    fn patch_replaces_or_inserts_in_sorted_position() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10), row(2, 2, 11)]);
        // Replace: same pairs, payload swapped, generation bumped.
        let patched = fib.patch_row(2, row(1, 2, 42));
        assert_eq!(patched.generation(), 2);
        assert_eq!(patched.len(), 2);
        let idx = patched.lookup_index(pair(1, 2)).unwrap();
        assert_eq!(
            patched.row(idx).rules.to_vnf.targets(),
            ruleset(42).to_vnf.targets()
        );
        // The untouched row survives.
        let idx = patched.lookup_index(pair(2, 2)).unwrap();
        assert_eq!(patched.row(idx).labels, pair(2, 2));
        // Insert: a brand-new pair lands in sorted position and is found.
        let grown = patched.patch_row(3, row(1, 1, 50));
        assert_eq!(grown.len(), 3);
        assert!(grown.rows().is_sorted_by_key(|r| r.labels));
        let idx = grown.lookup_index(pair(1, 1)).unwrap();
        assert_eq!(grown.row(idx).labels, pair(1, 1));
        // ...and becomes the chain's new canonical fallback.
        let idx = grown.lookup_index(pair(1, 77)).unwrap();
        assert_eq!(grown.row(idx).labels, pair(1, 1));
    }

    #[test]
    fn without_row_moves_the_fallback_and_from_rows_shares_only_sorted_rows() {
        let fib = CompiledFib::build(1, vec![row(1, 1, 10), row(1, 2, 11), row(2, 2, 12)]);
        assert!(fib.without_row(2, pair(9, 9)).is_none());
        let trimmed = fib.without_row(2, pair(1, 1)).unwrap();
        assert_eq!(trimmed.generation(), 2);
        assert_eq!(trimmed.rows(), &fib.rows()[1..]);
        // The chain's fallback moves to its next-smallest pair.
        let idx = trimmed.lookup_index(pair(1, 77)).unwrap();
        assert_eq!(trimmed.row(idx).labels, pair(1, 2));
        let idx = trimmed.lookup_index(pair(2, 2)).unwrap();
        assert_eq!(trimmed.row(idx).labels, pair(2, 2));

        let shared = CompiledFib::from_rows(3, Arc::clone(fib.shared_rows()));
        assert!(Arc::ptr_eq(shared.shared_rows(), fib.shared_rows()));
        let reversed: Arc<[FibRow]> = fib.rows().iter().rev().cloned().collect();
        let sorted = CompiledFib::from_rows(3, reversed);
        assert_eq!(sorted.rows(), fib.rows());
    }

    /// The lookup's oracle: a linear scan over the rows for the exact
    /// pair, else the smallest pair with the query's chain, else `None`.
    fn lookup_by_scan(rows: &[FibRow], labels: LabelPair) -> Option<LabelPair> {
        rows.iter()
            .map(|r| r.labels)
            .find(|&l| l == labels)
            .or_else(|| {
                rows.iter()
                    .map(|r| r.labels)
                    .filter(|l| l.chain() == labels.chain())
                    .min()
            })
    }

    proptest::proptest! {
        /// Over arbitrary row sets — several egresses per chain, the
        /// empty FIB — and arbitrary queries, the lookup resolves exactly
        /// the row the linear scan names. Small label
        /// ranges make exact hits, chain fallbacks and misses all common.
        #[test]
        fn lookup_index_equals_a_linear_scan(
            pairs in proptest::collection::btree_set((1u32..8, 1u32..6), 0..24),
            queries in proptest::collection::vec((1u32..9, 1u32..7), 1..32),
        ) {
            let rows: Vec<FibRow> = pairs.iter().map(|&(c, e)| row(c, e, 0)).collect();
            let fib = CompiledFib::build(1, rows.clone());
            for (c, e) in queries {
                let q = pair(c, e);
                let got = fib.lookup_index(q).map(|i| fib.row(i).labels);
                proptest::prop_assert_eq!(got, lookup_by_scan(&rows, q), "query {}", q);
            }
        }
    }

    #[test]
    fn prefetch_is_a_safe_noop_hint() {
        let fib = CompiledFib::build(1, vec![row(1, 2, 10)]);
        prefetch_read(std::ptr::from_ref(&fib.rows()[0]));
        prefetch_read(std::ptr::null::<u64>()); // any address is fine
    }
}
