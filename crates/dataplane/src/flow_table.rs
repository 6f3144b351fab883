//! The per-forwarder flow table (Figure 6).
//!
//! Section 3, "Connection setup time": the instance selected for a flow is
//! stored in a flow-table entry keyed by the connection's labels and its
//! header 5-tuple; a second entry stores the previous-hop element so that
//! reverse-direction packets retrace the path. At one forwarder a
//! connection thus pins up to four hops, distinguished by the packet's
//! direction and arrival context:
//!
//! | key                     | context    | next hop            |
//! |-------------------------|------------|---------------------|
//! | forward 5-tuple         | `FromWire` | adjacent VNF inst.  |
//! | forward 5-tuple         | `FromVnf`  | next-hop forwarder  |
//! | reversed 5-tuple        | `FromWire` | adjacent VNF inst.  |
//! | reversed 5-tuple        | `FromVnf`  | previous forwarder  |
//!
//! # Layout
//!
//! One connection, one cache line. The table is a flat open-addressing
//! array of 64-byte, 64-byte-aligned *connection records* with a
//! power-of-two record count, linear probing and backward-shift deletion
//! (no tombstones). A record is keyed by the chain label and the 5-tuple
//! in *canonical orientation* — the endpoint with the smaller
//! `(address, port)` first — so a key and its reversed key find the same
//! record, and it holds the four hops of the table above in four sub-slots:
//!
//! | sub-slot | orientation of the key | context    |
//! |----------|------------------------|------------|
//! | 0        | canonical              | `FromWire` |
//! | 1        | canonical              | `FromVnf`  |
//! | 2        | swapped                | `FromWire` |
//! | 3        | swapped                | `FromVnf`  |
//!
//! (A self-symmetric tuple `a:p → a:p` is its own reverse; both name
//! sub-slots 0 and 1.) A [`FlowTableKey`] therefore resolves to a record
//! and a sub-slot: a lookup reads one line, the first packet of a
//! connection writes all its hops into one line with one probe
//! ([`FlowTable::pin`]), and flow completion clears one record.
//!
//! [`FlowTable::len`], [`FlowTable::capacity`] and
//! [`Error::ResourceExhausted`] count *pinned hops* (occupied sub-slots),
//! as they always have; growth is driven by the *record* count. The table
//! grows geometrically from a small initial allocation, keeping records at
//! or below 3/4 of the array, up to the size that holds `capacity`
//! single-hop records — idle forwarders stay cheap. A pin probes first and
//! doubles the array only if it is accepted and adds a record, so a pin
//! turned away at the capacity limit, or one that adds hops to a connection
//! already in the table, leaves the array as it was.
//!
//! The array doubles *in place*: the `Vec` is resized and every record is
//! re-seated inside it, so a growing table's peak memory is its final
//! array, not that plus the array it grew out of — a forwarder can double
//! its table under a flash crowd inside the memory it will end up using.
//! Re-seating is one upward pass over the lower half. Only a record that
//! had wrapped around the old end could be stranded by it, and those all
//! lie in the occupied run at the front of the array, so that run is
//! lifted out first and seated last (the argument is on `grow`). The
//! rehash is still one stop-the-world pass.
//!
//! As the live table outgrows the CPU caches every probe is one DRAM line:
//! the Figure 8 cache-decay shape, at a third of the lines.
//!
//! The record hash is pure arithmetic on the canonical 5-tuple and the
//! chain label (one widening multiply), deterministic across runs. It is
//! independent of [`FlowKey::stable_hash`], which forwarders still compute
//! once per packet for weighted selection; the batch path locates each
//! packet's record once, prefetches the line at its ideal index, and
//! carries the located probe to the lookup (see [`crate::Forwarder`]). The
//! successor line, which the probe of a displaced record also reads, is
//! not prefetched: measured, and short of the bar (ROADMAP item 4).

use crate::packet::Addr;
use sb_types::{
    ChainLabel, EdgeInstanceId, Error, FlowKey, ForwarderId, InstanceId, IpProtocol, Result,
};

/// Whether the packet arrived from the wire/tunnel side (needs delivery to
/// the adjacent VNF) or came back from the attached VNF (needs forwarding to
/// the next wide-area hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowContext {
    /// Arrived from an edge instance or another forwarder.
    FromWire,
    /// Arrived from an attached VNF instance.
    FromVnf,
}

/// A flow-table key: chain label + 5-tuple + arrival context.
///
/// The egress label is deliberately not part of the key: reverse-direction
/// packets of the same connection carry the opposite egress label, but must
/// match the entries installed by the forward direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowTableKey {
    /// The service-chain label.
    pub chain: ChainLabel,
    /// The connection 5-tuple as seen on the wire.
    pub key: FlowKey,
    /// The arrival context.
    pub context: FlowContext,
}

/// Sub-slot bit: the key is the swapped orientation of its record's.
const SWAPPED: u8 = 2;

const KIND_VNF: u8 = 1;
const KIND_FORWARDER: u8 = 2;
const KIND_EDGE: u8 = 3;

/// A connection's identity: chain label plus 5-tuple in canonical
/// orientation (lower `(address, port)` endpoint first), packed so that a
/// probe step compares, and the record hash mixes, two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnKey {
    /// Lower endpoint's address in the high half, higher's in the low.
    ips: u64,
    /// Lower endpoint's port in the high half, higher's in the low.
    ports: u32,
    chain: ChainLabel,
    protocol: IpProtocol,
}

impl ConnKey {
    /// The identity of `key`'s connection, and whether `key` is the
    /// swapped orientation of it.
    #[inline]
    fn of(chain: ChainLabel, key: FlowKey) -> (Self, bool) {
        let src = (u32::from(key.src_ip()), key.src_port());
        let dst = (u32::from(key.dst_ip()), key.dst_port());
        let swapped = src > dst;
        let (lo, hi) = if swapped { (dst, src) } else { (src, dst) };
        let conn = Self {
            ips: u64::from(lo.0) << 32 | u64::from(hi.0),
            ports: u32::from(lo.1) << 16 | u32::from(hi.1),
            chain,
            protocol: key.protocol(),
        };
        (conn, swapped)
    }

    /// The record hash: one folded 64×64→128 multiply, so the high and the
    /// low bits both mix.
    #[inline]
    fn hash(&self) -> u64 {
        let x = self.ips ^ 0x9e37_79b9_7f4a_7c15;
        let y = (u64::from(self.ports) << 32
            | u64::from(self.protocol.number()) << 24
            | u64::from(self.chain.value()))
            ^ 0xff51_afd7_ed55_8ccd;
        let m = u128::from(x) * u128::from(y);
        (m as u64) ^ ((m >> 64) as u64)
    }

    /// A self-symmetric tuple `a:p → a:p` is its own reverse.
    fn is_symmetric(&self) -> bool {
        self.ips >> 32 == self.ips & 0xffff_ffff && self.ports >> 16 == self.ports & 0xffff
    }

    /// The 5-tuple in canonical (`swapped = false`) or swapped orientation.
    fn flow_key(&self, swapped: bool) -> FlowKey {
        let key = FlowKey::new(
            (self.ips >> 32) as u32,
            (self.ports >> 16) as u16,
            self.ips as u32,
            self.ports as u16,
            self.protocol,
        );
        if swapped {
            key.reversed()
        } else {
            key
        }
    }
}

/// One connection: its identity and up to four pinned hops. Exactly one
/// cache line, so a probe step, a pin and an expiry each touch one.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Record {
    /// Raw identifier of each sub-slot's hop (meaningful where the
    /// sub-slot's kind is non-zero).
    ids: [u64; 4],
    conn: ConnKey,
    /// Two bits per sub-slot: 0 = vacant, else the hop's [`Addr`] variant.
    /// All zero marks an empty record — a record never outlives its last
    /// hop.
    kinds: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 64 && std::mem::align_of::<Record>() == 64);

impl Record {
    fn new(conn: ConnKey) -> Self {
        Self {
            ids: [0; 4],
            conn,
            kinds: 0,
        }
    }

    fn empty() -> Self {
        Self::new(ConnKey {
            ips: 0,
            ports: 0,
            chain: ChainLabel::new(0),
            protocol: IpProtocol::Udp,
        })
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.kinds == 0
    }

    #[inline]
    fn hop(&self, sub: u8) -> Option<Addr> {
        let id = self.ids[usize::from(sub)];
        match (self.kinds >> (2 * sub)) & 3 {
            KIND_VNF => Some(Addr::Vnf(InstanceId::new(id))),
            KIND_FORWARDER => Some(Addr::Forwarder(ForwarderId::new(id))),
            KIND_EDGE => Some(Addr::Edge(EdgeInstanceId::new(id))),
            _ => None,
        }
    }

    #[inline]
    fn set(&mut self, sub: u8, hop: Addr) {
        let (kind, id) = match hop {
            Addr::Vnf(i) => (KIND_VNF, i.value()),
            Addr::Forwarder(i) => (KIND_FORWARDER, i.value()),
            Addr::Edge(i) => (KIND_EDGE, i.value()),
        };
        self.ids[usize::from(sub)] = id;
        self.kinds = (self.kinds & !(3 << (2 * sub))) | (kind << (2 * sub));
    }

    #[inline]
    fn clear(&mut self, sub: u8) {
        self.kinds &= !(3 << (2 * sub));
    }

    /// Number of pinned hops.
    #[inline]
    fn hops(&self) -> usize {
        ((self.kinds | (self.kinds >> 1)) & 0b0101_0101).count_ones() as usize
    }

    /// The [`FlowTableKey`] that names sub-slot `sub`.
    fn key_of(&self, sub: u8) -> FlowTableKey {
        FlowTableKey {
            chain: self.conn.chain,
            key: self.conn.flow_key(sub & SWAPPED != 0),
            context: if sub & 1 == 0 {
                FlowContext::FromWire
            } else {
                FlowContext::FromVnf
            },
        }
    }
}

/// A [`FlowTableKey`] resolved to its connection's identity and record
/// hash plus its sub-slot: everything a probe needs, none of it dependent
/// on the table's current size (so it survives growth between locating and
/// probing).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowProbe {
    conn: ConnKey,
    hash: u64,
    sub: u8,
}

/// The connection table of one forwarder.
///
/// Maps a [`FlowTableKey`] to the pinned next-hop [`Addr`]. The table
/// enforces a capacity limit on pinned hops (a real forwarder has bounded
/// memory); pinning past the limit fails with [`Error::ResourceExhausted`].
#[derive(Debug, Clone)]
pub struct FlowTable {
    records: Vec<Record>,
    mask: usize,
    /// Pinned hops (what `len` and `capacity` count).
    len: usize,
    /// Occupied records (what growth counts).
    used: usize,
    capacity: usize,
}

/// Initial record count (kept small: idle forwarders shouldn't pay for the
/// capacity limit up front).
const MIN_BUCKETS: usize = 64;
/// Grow when occupied records would exceed 3/4 of the array.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

impl FlowTable {
    /// Creates a table bounded at `capacity` pinned hops.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            records: vec![Record::empty(); MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            len: 0,
            used: 0,
            capacity,
        }
    }

    /// The record count that holds `capacity` single-hop connections below
    /// the load threshold; growth stops here.
    fn max_buckets(capacity: usize) -> usize {
        (capacity.saturating_mul(LOAD_DEN) / LOAD_NUM + 1)
            .next_power_of_two()
            .max(MIN_BUCKETS)
    }

    /// Resolves `key` to its connection record and sub-slot: canonical
    /// orientation plus the record hash, pure arithmetic on the 5-tuple.
    #[inline]
    pub(crate) fn locate(key: &FlowTableKey) -> FlowProbe {
        let (conn, swapped) = ConnKey::of(key.chain, key.key);
        FlowProbe {
            conn,
            hash: conn.hash(),
            sub: u8::from(swapped) << 1 | u8::from(key.context == FlowContext::FromVnf),
        }
    }

    /// Prefetches the line a probe for `at` reads first. A pure
    /// performance hint used by the forwarder's pipelined batch path;
    /// growth or pins between the prefetch and the probe make the hint
    /// stale, never wrong.
    #[inline]
    pub(crate) fn prefetch(&self, at: &FlowProbe) {
        crate::fib::prefetch_read(std::ptr::from_ref(
            &self.records[at.hash as usize & self.mask],
        ));
    }

    /// Index of the record for `conn` (whose record hash is `hash`), or of
    /// the empty record that ends its probe chain (the load limit
    /// guarantees there is one).
    #[inline]
    fn find(&self, conn: &ConnKey, hash: u64) -> usize {
        let mut i = hash as usize & self.mask;
        loop {
            let r = &self.records[i];
            if r.is_empty() || r.conn == *conn {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up the pinned next hop for a key.
    #[must_use]
    pub fn get(&self, key: &FlowTableKey) -> Option<Addr> {
        self.get_at(&Self::locate(key))
    }

    /// [`get`](Self::get). The flow hash is unused — the record hash is
    /// independent of it — and kept for source compatibility.
    #[inline]
    #[must_use]
    pub fn get_hashed(&self, key: &FlowTableKey, _flow_hash: u64) -> Option<Addr> {
        self.get(key)
    }

    /// [`get`](Self::get) for an already located key.
    #[inline]
    pub(crate) fn get_at(&self, at: &FlowProbe) -> Option<Addr> {
        self.records[self.find(&at.conn, at.hash)].hop(at.sub)
    }

    /// Pins `next` for `key`. Overwrites an existing hop (rule churn never
    /// re-pins existing flows because the forwarder checks `get` first).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] when pinning a new hop would
    /// exceed the capacity limit.
    pub fn insert(&mut self, key: FlowTableKey, next: Addr) -> Result<()> {
        let mut same = [None; 2];
        same[usize::from(key.context == FlowContext::FromVnf)] = Some(next);
        self.pin(&key, same, [None; 2])
    }

    /// [`insert`](Self::insert). The flow hash is unused and kept for
    /// source compatibility.
    ///
    /// # Errors
    ///
    /// As [`insert`](Self::insert).
    #[inline]
    pub fn insert_hashed(&mut self, key: FlowTableKey, _flow_hash: u64, next: Addr) -> Result<()> {
        self.insert(key, next)
    }

    /// Pins several hops of one connection with one probe and one line
    /// written: `same[c]` for `key`'s 5-tuple arriving in context `c`
    /// (`FromWire` = 0, `FromVnf` = 1), `reversed[c]` for the reversed
    /// 5-tuple; `key.context` is ignored. Existing hops are overwritten.
    /// All or nothing: the capacity limit is checked once, before any hop
    /// is written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`], with the table unchanged, when
    /// the hops that are new would exceed the capacity limit.
    pub fn pin(
        &mut self,
        key: &FlowTableKey,
        same: [Option<Addr>; 2],
        reversed: [Option<Addr>; 2],
    ) -> Result<()> {
        self.pin_at(&Self::locate(key), same, reversed)
    }

    /// [`pin`](Self::pin) for an already located key.
    pub(crate) fn pin_at(
        &mut self,
        at: &FlowProbe,
        same: [Option<Addr>; 2],
        reversed: [Option<Addr>; 2],
    ) -> Result<()> {
        let mut i = self.find(&at.conn, at.hash);
        let old = self.records[i];
        let mut new = if old.is_empty() {
            Record::new(at.conn)
        } else {
            old
        };
        let orientation = at.sub & SWAPPED;
        let reverse = if at.conn.is_symmetric() {
            orientation
        } else {
            orientation ^ SWAPPED
        };
        for (orientation, hops) in [(orientation, same), (reverse, reversed)] {
            for (context, hop) in (0u8..).zip(hops) {
                if let Some(hop) = hop {
                    new.set(orientation | context, hop);
                }
            }
        }
        let added = new.hops() - old.hops();
        if self.len + added > self.capacity {
            return Err(Error::ResourceExhausted {
                resource: "flow table",
            });
        }
        if new.is_empty() {
            return Ok(());
        }
        if old.is_empty() {
            // Probe, then grow: only a pin that is accepted and adds a
            // record may double the array, and it probes again in the
            // grown one.
            if (self.used + 1) * LOAD_DEN > self.records.len() * LOAD_NUM
                && self.records.len() < Self::max_buckets(self.capacity)
            {
                self.grow();
                i = self.find(&at.conn, at.hash);
            }
            self.used += 1;
        }
        self.len += added;
        self.records[i] = new;
        Ok(())
    }

    /// Doubles the record array in place and re-seats every record inside
    /// it. No second array exists at any point: the `Vec` is resized (the
    /// allocator's realloc frees the old block before the upper half is
    /// first written), so the peak is the final array.
    ///
    /// Under the new mask a record's ideal index is its old one or that
    /// plus the old length, so re-seating is one upward pass over the lower
    /// half: each record is taken out and put at the first empty record of
    /// its new probe path. One that stays lands at or before the slot it
    /// left; one that moves up lands among records seated before it. Both
    /// hold only for records that had not wrapped around the old end, and
    /// those that had all sit in the occupied run at the front of the
    /// array. That run is therefore lifted out first — leaving the slots a
    /// probe path can reach across the new end empty — and seated last,
    /// when nothing is taken out any more and seating is plain insertion.
    fn grow(&mut self) {
        let old_buckets = self.records.len();
        self.records.resize(2 * old_buckets, Record::empty());
        self.mask = 2 * old_buckets - 1;
        let head: Vec<Record> = self
            .records
            .iter()
            .take_while(|r| !r.is_empty())
            .copied()
            .collect();
        for record in &mut self.records[..head.len()] {
            record.kinds = 0;
        }
        for i in head.len()..old_buckets {
            if !self.records[i].is_empty() {
                let record = self.records[i];
                self.records[i].kinds = 0;
                self.seat(record);
            }
        }
        for record in head {
            self.seat(record);
        }
    }

    /// Puts `record` at the first empty record of its probe path.
    fn seat(&mut self, record: Record) {
        let mut i = record.conn.hash() as usize & self.mask;
        while !self.records[i].is_empty() {
            i = (i + 1) & self.mask;
        }
        self.records[i] = record;
    }

    /// Removes one hop, returning it. A record is freed with its last hop.
    pub fn remove(&mut self, key: &FlowTableKey) -> Option<Addr> {
        let at = Self::locate(key);
        let i = self.find(&at.conn, at.hash);
        let removed = self.records[i].hop(at.sub)?;
        self.records[i].clear(at.sub);
        self.len -= 1;
        if self.records[i].is_empty() {
            self.free(i);
        }
        Some(removed)
    }

    /// Frees the record at `hole` by backward-shift deletion: displaced
    /// successors slide back so every remaining record stays reachable
    /// from its ideal index and the table never accumulates tombstones.
    /// The caller has already taken the record's hops out of `len`.
    fn free(&mut self, mut hole: usize) {
        self.used -= 1;
        self.records[hole].kinds = 0;
        let mut cur = (hole + 1) & self.mask;
        while !self.records[cur].is_empty() {
            let ideal = self.records[cur].conn.hash() as usize & self.mask;
            // `cur` may fill the hole iff its ideal index lies at or before
            // the hole along the cyclic probe path ending at `cur`.
            let dist_ideal = cur.wrapping_sub(ideal) & self.mask;
            let dist_hole = cur.wrapping_sub(hole) & self.mask;
            if dist_ideal >= dist_hole {
                self.records[hole] = self.records[cur];
                self.records[cur].kinds = 0;
                hole = cur;
            }
            cur = (cur + 1) & self.mask;
        }
    }

    /// Removes every hop of a connection (both directions, both contexts)
    /// by freeing its one record; returns how many hops were removed.
    /// Called on flow completion (Section 5.3: entries "remain until the
    /// completion of a flow").
    pub fn remove_connection(&mut self, chain: ChainLabel, key: FlowKey) -> usize {
        self.free_connection(&ConnKey::of(chain, key).0)
    }

    fn free_connection(&mut self, conn: &ConnKey) -> usize {
        let i = self.find(conn, conn.hash());
        let removed = self.records[i].hops();
        if removed > 0 {
            self.len -= removed;
            self.free(i);
        }
        removed
    }

    /// Removes every hop that satisfies `pred`; returns how many were
    /// removed. This is the failover primitive: when a VNF instance
    /// crashes, the forwarder evicts the hops pinned to it so affected
    /// flows re-run weighted selection over the survivors, while hops
    /// pinned elsewhere are untouched (affinity of surviving flows is
    /// preserved — see DESIGN.md §8).
    ///
    /// Cost is one full scan plus a backward-shift removal per emptied
    /// record; fine off the fast path (crashes are control-plane-rare
    /// events).
    pub fn remove_where(&mut self, mut pred: impl FnMut(&FlowTableKey, Addr) -> bool) -> usize {
        let mut removed = 0;
        // Collect first: backward-shift deletion moves records, so freeing
        // during the scan could skip or revisit some.
        let mut emptied = Vec::new();
        for record in self.records.iter_mut().filter(|r| !r.is_empty()) {
            let mut kept = *record;
            for sub in 0..4 {
                if record
                    .hop(sub)
                    .is_some_and(|next| pred(&record.key_of(sub), next))
                {
                    kept.clear(sub);
                }
            }
            if kept.is_empty() {
                emptied.push(record.conn);
            } else {
                removed += record.hops() - kept.hops();
                *record = kept;
            }
        }
        self.len -= removed;
        for conn in &emptied {
            removed += self.free_connection(conn);
        }
        removed
    }

    /// Number of pinned hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The capacity limit, in pinned hops.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current record count (grows geometrically toward the capacity
    /// limit); exposed for tests and capacity planning.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.records.len()
    }

    /// Drops every hop and releases the grown record array (a restarted
    /// forwarder starts from a cold, small table).
    pub fn clear(&mut self) {
        *self = Self::with_capacity(self.capacity);
    }
}

impl Default for FlowTable {
    fn default() -> Self {
        // Matches the per-instance flow population of Figure 8's largest
        // configuration (512K connections x up to 4 pinned hops).
        Self::with_capacity(4 << 19)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 0, 2], 80)
    }

    fn ftk(port: u16, context: FlowContext) -> FlowTableKey {
        FlowTableKey {
            chain: ChainLabel::new(1),
            key: key(port),
            context,
        }
    }

    #[test]
    fn insert_then_get() {
        let mut t = FlowTable::with_capacity(16);
        let a = Addr::Vnf(InstanceId::new(1));
        t.insert(ftk(1000, FlowContext::FromWire), a).unwrap();
        assert_eq!(t.get(&ftk(1000, FlowContext::FromWire)), Some(a));
        assert_eq!(t.get(&ftk(1000, FlowContext::FromVnf)), None);
        assert_eq!(t.get(&ftk(1001, FlowContext::FromWire)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn context_disambiguates_same_tuple() {
        let mut t = FlowTable::with_capacity(16);
        let vnf = Addr::Vnf(InstanceId::new(1));
        let nxt = Addr::Forwarder(sb_types::ForwarderId::new(9));
        t.insert(ftk(1, FlowContext::FromWire), vnf).unwrap();
        t.insert(ftk(1, FlowContext::FromVnf), nxt).unwrap();
        assert_eq!(t.get(&ftk(1, FlowContext::FromWire)), Some(vnf));
        assert_eq!(t.get(&ftk(1, FlowContext::FromVnf)), Some(nxt));
    }

    #[test]
    fn capacity_limit_is_enforced() {
        let mut t = FlowTable::with_capacity(2);
        t.insert(ftk(1, FlowContext::FromWire), Addr::Vnf(InstanceId::new(1)))
            .unwrap();
        t.insert(ftk(2, FlowContext::FromWire), Addr::Vnf(InstanceId::new(1)))
            .unwrap();
        let err = t
            .insert(ftk(3, FlowContext::FromWire), Addr::Vnf(InstanceId::new(1)))
            .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted { .. }));
        // Overwriting an existing key still works at capacity.
        t.insert(ftk(2, FlowContext::FromWire), Addr::Vnf(InstanceId::new(2)))
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_connection_clears_all_four_entries() {
        let mut t = FlowTable::with_capacity(16);
        let chain = ChainLabel::new(1);
        let k = key(5000);
        let a = Addr::Vnf(InstanceId::new(1));
        for kk in [k, k.reversed()] {
            for ctx in [FlowContext::FromWire, FlowContext::FromVnf] {
                t.insert(
                    FlowTableKey {
                        chain,
                        key: kk,
                        context: ctx,
                    },
                    a,
                )
                .unwrap();
            }
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.remove_connection(chain, k), 4);
        assert!(t.is_empty());
        // Removing again is a no-op.
        assert_eq!(t.remove_connection(chain, k), 0);
    }

    #[test]
    fn different_chains_do_not_collide() {
        let mut t = FlowTable::with_capacity(16);
        let a = Addr::Vnf(InstanceId::new(1));
        let b = Addr::Vnf(InstanceId::new(2));
        let k1 = FlowTableKey {
            chain: ChainLabel::new(1),
            key: key(1),
            context: FlowContext::FromWire,
        };
        let k2 = FlowTableKey {
            chain: ChainLabel::new(2),
            key: key(1),
            context: FlowContext::FromWire,
        };
        t.insert(k1, a).unwrap();
        t.insert(k2, b).unwrap();
        assert_eq!(t.get(&k1), Some(a));
        assert_eq!(t.get(&k2), Some(b));
    }

    #[test]
    fn clear_resets_table() {
        let mut t = FlowTable::with_capacity(8);
        t.insert(ftk(1, FlowContext::FromWire), Addr::Vnf(InstanceId::new(1)))
            .unwrap();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    fn default_capacity_fits_figure8_population() {
        let t = FlowTable::default();
        assert!(t.capacity() >= 4 * 512 * 1024);
    }

    /// Pins the three hops a wire-side first packet installs (Figure 6).
    fn pin_wire_connection(t: &mut FlowTable, port: u16, vnf: Addr, prev: Addr) -> Result<()> {
        t.pin(
            &ftk(port, FlowContext::FromWire),
            [Some(vnf), None],
            [Some(vnf), Some(prev)],
        )
    }

    fn reverse_ftk(port: u16, context: FlowContext) -> FlowTableKey {
        FlowTableKey {
            key: key(port).reversed(),
            ..ftk(port, context)
        }
    }

    #[test]
    fn table_grows_past_initial_buckets() {
        let mut t = FlowTable::with_capacity(100_000);
        let initial = t.buckets();
        let a = Addr::Vnf(InstanceId::new(7));
        for p in 0..5_000u16 {
            t.insert(ftk(p, FlowContext::FromWire), a).unwrap();
        }
        assert!(t.buckets() > initial, "table must grow beyond {initial}");
        // Growth keeps records at or below 3/4 of the array, and no looser
        // than one doubling.
        assert_eq!(t.buckets(), 8_192);
        assert_eq!(t.len(), 5_000);
        // More hops of the same connections land in the same records: the
        // hop count triples, the record array does not move.
        let prev = Addr::Forwarder(ForwarderId::new(3));
        for p in 0..5_000u16 {
            pin_wire_connection(&mut t, p, a, prev).unwrap();
        }
        assert_eq!(t.len(), 15_000);
        assert_eq!(t.used, 5_000);
        assert_eq!(t.buckets(), 8_192);
        for p in 0..5_000u16 {
            assert_eq!(t.get(&ftk(p, FlowContext::FromWire)), Some(a), "port {p}");
            assert_eq!(
                t.get(&reverse_ftk(p, FlowContext::FromVnf)),
                Some(prev),
                "port {p}"
            );
        }
    }

    #[test]
    fn backward_shift_keeps_probe_chains_reachable() {
        // Fill a small table to its load limit with whole connections to
        // force clustering, then expire them hop by hop in an interleaved
        // order and check every survivor.
        let mut t = FlowTable::with_capacity(144);
        let a = Addr::Vnf(InstanceId::new(1));
        let prev = Addr::Forwarder(ForwarderId::new(2));
        for p in 0..48u16 {
            pin_wire_connection(&mut t, p, a, prev).unwrap();
        }
        assert_eq!(t.len(), 144);
        assert_eq!(
            t.buckets(),
            64,
            "48 records sit at 3/4 of the initial array, whatever their hop count"
        );
        for p in (0..48u16).step_by(3) {
            assert_eq!(t.remove(&ftk(p, FlowContext::FromWire)), Some(a));
            assert_eq!(t.remove(&reverse_ftk(p, FlowContext::FromVnf)), Some(prev));
            assert_eq!(t.remove(&reverse_ftk(p, FlowContext::FromWire)), Some(a));
        }
        for p in 0..48u16 {
            let gone = p % 3 == 0;
            let want = |hop| if gone { None } else { Some(hop) };
            assert_eq!(t.get(&ftk(p, FlowContext::FromWire)), want(a), "port {p}");
            assert_eq!(t.get(&reverse_ftk(p, FlowContext::FromWire)), want(a));
            assert_eq!(t.get(&reverse_ftk(p, FlowContext::FromVnf)), want(prev));
            assert_eq!(t.get(&ftk(p, FlowContext::FromVnf)), None);
        }
        assert_eq!(t.len(), 96);
        assert_eq!(t.used, 32);
        // The 49th connection is the one that doubles the array.
        pin_wire_connection(&mut t, 1, a, prev).unwrap();
        for p in 100..116u16 {
            t.insert(ftk(p, FlowContext::FromWire), a).unwrap();
        }
        assert_eq!((t.used, t.buckets()), (48, 64));
        t.insert(ftk(200, FlowContext::FromWire), a).unwrap();
        assert_eq!((t.used, t.buckets()), (49, 128));
    }

    #[test]
    fn rejected_pin_leaves_the_array_alone() {
        let mut t = FlowTable::with_capacity(48);
        let a = Addr::Vnf(InstanceId::new(1));
        for p in 0..48u16 {
            t.insert(ftk(p, FlowContext::FromWire), a).unwrap();
        }
        assert_eq!((t.len(), t.used, t.buckets()), (48, 48, 64));
        // The 49th record would double the array, but the capacity limit
        // turns it away first: "with the table unchanged".
        let err = t.insert(ftk(48, FlowContext::FromWire), a).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted { .. }));
        assert_eq!((t.len(), t.used, t.buckets()), (48, 48, 64));
    }

    #[test]
    fn pin_into_an_existing_record_never_grows() {
        let mut t = FlowTable::with_capacity(4096);
        let a = Addr::Vnf(InstanceId::new(1));
        for p in 0..48u16 {
            t.insert(ftk(p, FlowContext::FromWire), a).unwrap();
        }
        assert_eq!((t.used, t.buckets()), (48, 64));
        // More hops of a connection that has its record: the record count,
        // which is what growth counts, does not move.
        t.insert(ftk(7, FlowContext::FromVnf), a).unwrap();
        assert_eq!((t.len(), t.used, t.buckets()), (49, 48, 64));
        // The next new connection is the one that doubles it.
        t.insert(ftk(48, FlowContext::FromWire), a).unwrap();
        assert_eq!((t.used, t.buckets()), (49, 128));
    }

    #[test]
    fn in_place_growth_keeps_every_record_reachable_across_the_wrap() {
        let (mut growths, mut wrapped_heads) = (0, 0);
        for seed in 0..64u32 {
            let mut t = FlowTable::with_capacity(4096);
            let mut live: Vec<(FlowTableKey, Addr)> = Vec::new();
            // Four doublings; every fourth step expires a connection.
            let mut n = 0u32;
            while t.buckets() < 1024 {
                n += 1;
                if n & 3 == 0 {
                    let (k, _) = live.swap_remove(n as usize * 7 % live.len());
                    assert_eq!(t.remove_connection(k.chain, k.key), 1);
                    continue;
                }
                // The record hash scatters consecutive addresses.
                let k = FlowTableKey {
                    chain: ChainLabel::new(1),
                    key: FlowKey::new(seed << 16 | n, 1024, 0xc0a8_0001, 80, IpProtocol::Tcp),
                    context: FlowContext::FromWire,
                };
                let before = t.buckets();
                // A record at index 0 whose ideal index is in the upper
                // half got there around the end of the array.
                let head_wrapped = !t.records[0].is_empty()
                    && t.records[0].conn.hash() as usize & t.mask >= before / 2;
                let hop = Addr::Vnf(InstanceId::new(u64::from(n)));
                t.insert(k, hop).unwrap();
                live.push((k, hop));
                if t.buckets() == before {
                    continue;
                }
                assert_eq!(t.buckets(), 2 * before);
                growths += 1;
                wrapped_heads += usize::from(head_wrapped);
                assert_eq!(t.used, live.len());
                for (k, hop) in &live {
                    assert_eq!(t.get(k), Some(*hop), "seed {seed}, {before} records: {k:?}");
                }
                // No empty record between any record's ideal index and
                // its slot.
                let occupied = t.records.iter().enumerate().filter(|(_, r)| !r.is_empty());
                for (slot, record) in occupied {
                    let mut i = record.conn.hash() as usize & t.mask;
                    while i != slot {
                        assert!(
                            !t.records[i].is_empty(),
                            "seed {seed}, {before} records: hole at {i} before slot {slot}"
                        );
                        i = (i + 1) & t.mask;
                    }
                }
            }
        }
        assert_eq!(growths, 64 * 4);
        assert!(
            wrapped_heads > 0,
            "none of {growths} growths started with a wrapped run at the head"
        );
    }

    #[test]
    fn displaced_and_wrapped_records_are_found_after_prefetch() {
        // Keys by ideal index in the initial 64-record array.
        let mut by_ideal = vec![Vec::new(); MIN_BUCKETS];
        for p in 0..2_000u16 {
            let at = FlowTable::locate(&ftk(p, FlowContext::FromWire));
            by_ideal[at.hash as usize & (MIN_BUCKETS - 1)].push(p);
        }
        let last = MIN_BUCKETS - 1;
        // Three connections ideal at slot 20 (the third sits two slots
        // out), two ideal at the last slot (the second wraps to slot 0),
        // then others up to the 3/4 load limit.
        let mut ports: Vec<u16> = by_ideal[20][..3].to_vec();
        ports.extend(&by_ideal[last][..2]);
        let fill = (0..2_000u16).filter(|p| !ports.contains(p));
        let ports: Vec<u16> = ports.iter().copied().chain(fill).take(48).collect();

        let mut t = FlowTable::with_capacity(64);
        for &p in &ports {
            let hop = Addr::Vnf(InstanceId::new(u64::from(p)));
            t.insert(ftk(p, FlowContext::FromWire), hop).unwrap();
        }
        assert_eq!((t.used, t.buckets()), (48, MIN_BUCKETS));
        let slot_of = |t: &FlowTable, p: u16| {
            let at = FlowTable::locate(&ftk(p, FlowContext::FromWire));
            (at.hash as usize & t.mask, t.find(&at.conn, at.hash))
        };
        assert_eq!(slot_of(&t, ports[2]), (20, 22), "displaced two slots");
        assert_eq!(slot_of(&t, ports[3]), (last, last));
        assert_eq!(slot_of(&t, ports[4]), (last, 0), "probe chain wraps");
        // The hint names the ideal line only; a probe still finds every
        // record, however far displaced, and no absent one.
        for p in 0..2_000u16 {
            let at = FlowTable::locate(&ftk(p, FlowContext::FromWire));
            t.prefetch(&at);
            let want = ports
                .contains(&p)
                .then(|| Addr::Vnf(InstanceId::new(u64::from(p))));
            assert_eq!(t.get_at(&at), want, "port {p}");
        }
    }

    #[test]
    fn pin_is_all_or_nothing_at_capacity() {
        let mut t = FlowTable::with_capacity(4);
        let a = Addr::Vnf(InstanceId::new(1));
        let prev = Addr::Edge(sb_types::EdgeInstanceId::new(0));
        pin_wire_connection(&mut t, 1, a, prev).unwrap();
        assert_eq!(t.len(), 3);
        // One hop of room, three wanted: nothing is written.
        let err = pin_wire_connection(&mut t, 2, a, prev).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted { .. }));
        assert_eq!((t.len(), t.used), (3, 1));
        assert_eq!(t.get(&ftk(2, FlowContext::FromWire)), None);
        // Re-pinning what is already there adds nothing, so it fits.
        let b = Addr::Vnf(InstanceId::new(2));
        pin_wire_connection(&mut t, 1, b, prev).unwrap();
        assert_eq!(t.get(&ftk(1, FlowContext::FromWire)), Some(b));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn self_symmetric_tuple_is_its_own_reverse() {
        let mut t = FlowTable::with_capacity(16);
        let k = FlowTableKey {
            chain: ChainLabel::new(1),
            key: FlowKey::udp([10, 0, 0, 1], 7, [10, 0, 0, 1], 7),
            context: FlowContext::FromWire,
        };
        let a = Addr::Vnf(InstanceId::new(1));
        let b = Addr::Vnf(InstanceId::new(2));
        // The reversed hops name the same keys as the forward ones; the
        // later write wins, as two inserts of one key would.
        t.pin(&k, [Some(a), None], [Some(b), Some(a)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&k), Some(b));
        let from_vnf = FlowTableKey {
            context: FlowContext::FromVnf,
            ..k
        };
        assert_eq!(t.get(&from_vnf), Some(a));
        assert_eq!(t.remove_connection(k.chain, k.key), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn every_addr_variant_round_trips_through_a_record() {
        let mut t = FlowTable::with_capacity(16);
        let hops = [
            Addr::Vnf(InstanceId::new(u64::MAX)),
            Addr::Forwarder(ForwarderId::new(0)),
            Addr::Edge(sb_types::EdgeInstanceId::new(1 << 40)),
        ];
        t.pin(
            &ftk(1, FlowContext::FromWire),
            [Some(hops[0]), Some(hops[1])],
            [Some(hops[2]), None],
        )
        .unwrap();
        assert_eq!(t.get(&ftk(1, FlowContext::FromWire)), Some(hops[0]));
        assert_eq!(t.get(&ftk(1, FlowContext::FromVnf)), Some(hops[1]));
        assert_eq!(t.get(&reverse_ftk(1, FlowContext::FromWire)), Some(hops[2]));
        assert_eq!(t.get(&reverse_ftk(1, FlowContext::FromVnf)), None);
    }

    #[test]
    fn hashed_and_unhashed_paths_agree() {
        let mut t = FlowTable::with_capacity(16);
        let a = Addr::Vnf(InstanceId::new(3));
        let k = ftk(9, FlowContext::FromVnf);
        let h = k.key.stable_hash();
        t.insert_hashed(k, h, a).unwrap();
        assert_eq!(t.get(&k), Some(a));
        assert_eq!(t.get_hashed(&k, h), Some(a));
    }

    #[test]
    fn remove_where_evicts_only_matching_next_hops() {
        let mut t = FlowTable::with_capacity(128);
        let dead = Addr::Vnf(InstanceId::new(7));
        let live = Addr::Vnf(InstanceId::new(8));
        for p in 0..100u16 {
            let next = if p % 3 == 0 { dead } else { live };
            t.insert(ftk(p, FlowContext::FromWire), next).unwrap();
        }
        let evicted = t.remove_where(|_, next| next == dead);
        assert_eq!(evicted, 34);
        assert_eq!(t.len(), 66);
        for p in 0..100u16 {
            let want = if p % 3 == 0 { None } else { Some(live) };
            assert_eq!(t.get(&ftk(p, FlowContext::FromWire)), want, "port {p}");
        }
        assert_eq!(t.remove_where(|_, next| next == dead), 0, "idempotent");
    }

    #[test]
    fn remove_where_leaves_a_connections_other_hops() {
        let mut t = FlowTable::with_capacity(64);
        let dead = Addr::Vnf(InstanceId::new(7));
        let prev = Addr::Forwarder(ForwarderId::new(2));
        for p in 0..8u16 {
            pin_wire_connection(&mut t, p, dead, prev).unwrap();
        }
        // The predicate sees each hop under the key that looks it up.
        let before = t.clone();
        let mut seen = 0;
        let evicted = t.remove_where(|k, next| {
            assert_eq!(before.get(k), Some(next), "{k:?}");
            seen += 1;
            next == dead
        });
        assert_eq!((seen, evicted), (24, 16));
        // Each record survives on its symmetric-return hop.
        assert_eq!((t.len(), t.used), (8, 8));
        for p in 0..8u16 {
            assert_eq!(t.get(&ftk(p, FlowContext::FromWire)), None);
            assert_eq!(t.get(&reverse_ftk(p, FlowContext::FromVnf)), Some(prev));
        }
        assert_eq!(t.remove_where(|_, next| next == prev), 8);
        assert_eq!((t.len(), t.used), (0, 0));
    }

    #[test]
    fn clear_releases_grown_buckets() {
        let mut t = FlowTable::with_capacity(100_000);
        let a = Addr::Vnf(InstanceId::new(1));
        for p in 0..5_000u16 {
            t.insert(ftk(p, FlowContext::FromWire), a).unwrap();
        }
        let grown = t.buckets();
        t.clear();
        assert!(t.buckets() < grown);
        assert_eq!(t.get(&ftk(1, FlowContext::FromWire)), None);
    }
}
