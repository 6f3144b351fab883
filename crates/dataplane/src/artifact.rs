//! Compiled route artifacts: the serialized control/data-plane boundary
//! (DESIGN.md §15).
//!
//! A [`SiteArtifact`] is the versioned, checksummed, byte-deterministic
//! binary encoding of a site's compiled forwarding state — per forwarder,
//! exactly what [`CompiledFib`](crate::CompiledFib) holds: the sorted
//! [`FibRow`]s (rule sets with their Vose alias tables bit-exact, each
//! with its route's epoch), plus the label-unaware VNF registrations a
//! forwarder needs to strip/re-affix labels. The control
//! plane emits one per participant site at 2PC install time; a data-plane
//! process — in-process or standalone, see the `sb` CLI — consumes it via
//! `Forwarder::apply_artifact` and hot-swaps it in as the forwarder's
//! next FIB generation.
//!
//! # Format (version 2)
//!
//! All integers little-endian, fixed width; `f64` as IEEE-754 bits
//! (`to_bits`). No serde, no allocator churn beyond the output buffer.
//!
//! ```text
//! magic "SBAF" | version u16 | kind u8 | reserved u8
//! site u32 | epoch u64 | n_forwarders u32
//! per forwarder (ascending by id):
//!   forwarder u64 | mode u8 | generation u64
//!   n_rows u32 | n_unaware u32 | n_removed u32
//!   per row (ascending by label pair):
//!     chain u32 | egress u32 | epoch u64
//!     to_vnf WC | to_next WC | to_prev WC
//!   per unaware (ascending by instance):
//!     instance u64 | chain u32 | egress u32
//!   per removed (ascending): chain u32 | egress u32
//! checksum u64 (FNV-1a 64 over everything above)
//! per WC: n u32 | (addr_tag u8, addr u64, cumulative f64) × n
//!         | total f64 | threshold u64 × n | alias u32 × n
//! ```
//!
//! Encoding sorts every list it emits, so two encodes of the same logical
//! state — whatever order its lists are held in — produce identical
//! bytes. Decoding validates magic, version, checksum, that canonical
//! order (forwarders and each forwarder's rows strictly ascending — a
//! receiver installs rows as carried), label ranges, and alias-table shape
//! before constructing anything. This build reads version 2 only:
//! version-1 files (rows with an epoch-tag list) are rejected like any
//! other version.
//!
//! # What is (deliberately) not serialized
//!
//! Bridge-mode static next hops and flow-table contents are runtime
//! state, not route state, and are not encoded. Flows pinned before an
//! update keep their flow-table entries, which an artifact apply never
//! touches, so a forwarder rebuilt from an artifact is behavior-identical
//! to the original.

use crate::fib::FibRow;
use crate::forwarder::ForwarderMode;
use crate::loadbalancer::WeightedChoice;
use crate::packet::Addr;
use sb_types::{
    ChainLabel, EdgeInstanceId, EgressLabel, Error, ForwarderId, InstanceId, LabelPair, Result,
    SiteId,
};
use std::sync::Arc;

/// The four magic bytes opening every artifact file.
pub const MAGIC: [u8; 4] = *b"SBAF";

/// The format version. Decoders reject every other version.
pub const VERSION: u16 = 2;

/// Whether an artifact carries a site's full forwarding state or a delta
/// against the previously installed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Complete state: applying replaces every rule on every forwarder.
    Full,
    /// Delta: applying composes row patches (and removals) onto the
    /// receiver's current state via the single-row `patch_row` path.
    Patch,
}

impl ArtifactKind {
    fn to_u8(self) -> u8 {
        match self {
            ArtifactKind::Full => 0,
            ArtifactKind::Patch => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(ArtifactKind::Full),
            1 => Ok(ArtifactKind::Patch),
            _ => Err(Error::invalid_argument(format!(
                "artifact: unknown kind tag {v}"
            ))),
        }
    }
}

/// One forwarder's share of a [`SiteArtifact`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForwarderArtifact {
    /// The forwarder this state belongs to.
    pub forwarder: ForwarderId,
    /// The forwarder's processing mode, so a standalone process can boot
    /// without out-of-band configuration.
    pub mode: ForwarderMode,
    /// The compiled-FIB generation this state was exported at (telemetry
    /// breadcrumb; the receiver publishes its own next generation).
    pub generation: u64,
    /// The compiled rule rows. A `Full` artifact lists every row (an
    /// export shares the forwarder's compiled row array); a `Patch` lists
    /// only changed rows.
    pub rows: Arc<[FibRow]>,
    /// Label-unaware VNF registrations: `(instance, labels to re-affix)`.
    pub label_unaware: Vec<(InstanceId, LabelPair)>,
    /// Label pairs removed since the previous epoch (`Patch` only; empty
    /// in `Full` artifacts, whose row set is authoritative).
    pub removed: Vec<LabelPair>,
}

/// A site's compiled forwarding state, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteArtifact {
    /// The site whose forwarders this artifact configures.
    pub site: SiteId,
    /// The route epoch the control plane compiled this state at.
    pub epoch: u64,
    /// Full snapshot or composable delta.
    pub kind: ArtifactKind,
    /// Per-forwarder state.
    pub forwarders: Vec<ForwarderArtifact>,
}

// --- encoding -------------------------------------------------------------

/// FNV-1a 64 over `bytes` — the trailer checksum. FNV is not
/// collision-resistant against adversaries, but the artifact path guards
/// against truncation and bit rot, not tampering.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_addr(buf: &mut Vec<u8>, addr: Addr) {
    match addr {
        Addr::Vnf(i) => {
            buf.push(0);
            put_u64(buf, i.value());
        }
        Addr::Forwarder(f) => {
            buf.push(1);
            put_u64(buf, f.value());
        }
        Addr::Edge(e) => {
            buf.push(2);
            put_u64(buf, e.value());
        }
    }
}

fn put_labels(buf: &mut Vec<u8>, labels: LabelPair) {
    put_u32(buf, labels.chain().value());
    put_u32(buf, labels.egress().value());
}

fn put_choice(buf: &mut Vec<u8>, wc: &WeightedChoice) {
    let (targets, total, thresholds, aliases) = wc.raw_parts();
    put_u32(buf, len_u32(targets.len()));
    for &(addr, cum) in targets {
        put_addr(buf, addr);
        put_f64(buf, cum);
    }
    put_f64(buf, total);
    for &t in thresholds {
        put_u64(buf, t);
    }
    for &a in aliases {
        put_u32(buf, a);
    }
}

fn mode_to_u8(mode: ForwarderMode) -> u8 {
    match mode {
        ForwarderMode::Bridge => 0,
        ForwarderMode::Overlay => 1,
        ForwarderMode::Affinity => 2,
    }
}

#[allow(clippy::cast_possible_truncation)]
fn len_u32(len: usize) -> u32 {
    debug_assert!(len <= u32::MAX as usize);
    len as u32
}

/// Bytes of the fixed header, up to and including `n_forwarders`.
const HEADER_LEN: usize = 4 + 2 + 1 + 1 + 4 + 8 + 4;
/// Bytes of a forwarder's fixed fields, up to and including `n_removed`.
const FORWARDER_LEN: usize = 8 + 1 + 8 + 4 + 4 + 4;
/// Bytes of a row's labels and epoch, before its three choices.
const ROW_LEN: usize = 4 + 4 + 8;
/// Bytes of one label-unaware registration.
const UNAWARE_LEN: usize = 8 + 4 + 4;
/// Bytes of one removal.
const REMOVED_LEN: usize = 4 + 4;
/// Bytes of the checksum trailer.
const CHECKSUM_LEN: usize = 8;

/// Encoded size of a weighted choice.
fn choice_len(wc: &WeightedChoice) -> usize {
    let (targets, _, thresholds, aliases) = wc.raw_parts();
    4 + targets.len() * (1 + 8 + 8) + 8 + thresholds.len() * 8 + aliases.len() * 4
}

/// Encoded size of `artifact`, checksum included.
fn encoded_len(artifact: &SiteArtifact) -> usize {
    let forwarder = |f: &ForwarderArtifact| {
        let rows: usize = f
            .rows
            .iter()
            .map(|r| {
                ROW_LEN
                    + choice_len(&r.rules.to_vnf)
                    + choice_len(&r.rules.to_next)
                    + choice_len(&r.rules.to_prev)
            })
            .sum();
        FORWARDER_LEN + rows + f.label_unaware.len() * UNAWARE_LEN + f.removed.len() * REMOVED_LEN
    };
    HEADER_LEN + artifact.forwarders.iter().map(forwarder).sum::<usize>() + CHECKSUM_LEN
}

/// Calls `emit` on each of `items` in ascending `key` order, equal keys in
/// the order held: in place when `items` is already sorted, as every
/// export's lists are, else through a sorted list of references.
fn for_each_sorted<T, K: Ord>(items: &[T], key: impl Fn(&T) -> K, emit: impl FnMut(&T)) {
    if items.is_sorted_by_key(&key) {
        items.iter().for_each(emit);
    } else {
        let mut order: Vec<&T> = items.iter().collect();
        order.sort_by_key(|&t| key(t));
        order.into_iter().for_each(emit);
    }
}

/// Serializes `artifact` into the version-2 wire format. Every list is
/// emitted in sorted order (forwarders by id, rows by label pair,
/// registrations by instance, removals ascending), so the bytes are a
/// pure function of the logical state: two compiles of the same route
/// solution produce identical files. The output is sized once, up front.
#[must_use]
pub fn encode(artifact: &SiteArtifact) -> Vec<u8> {
    let len = encoded_len(artifact);
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(&MAGIC);
    put_u16(&mut buf, VERSION);
    buf.push(artifact.kind.to_u8());
    buf.push(0); // reserved
    put_u32(&mut buf, artifact.site.value());
    put_u64(&mut buf, artifact.epoch);
    put_u32(&mut buf, len_u32(artifact.forwarders.len()));

    for_each_sorted(&artifact.forwarders, |f| f.forwarder, |f| {
        put_u64(&mut buf, f.forwarder.value());
        buf.push(mode_to_u8(f.mode));
        put_u64(&mut buf, f.generation);
        put_u32(&mut buf, len_u32(f.rows.len()));
        put_u32(&mut buf, len_u32(f.label_unaware.len()));
        put_u32(&mut buf, len_u32(f.removed.len()));
        for_each_sorted(&f.rows, |row| row.labels, |row| {
            put_labels(&mut buf, row.labels);
            put_u64(&mut buf, row.epoch);
            put_choice(&mut buf, &row.rules.to_vnf);
            put_choice(&mut buf, &row.rules.to_next);
            put_choice(&mut buf, &row.rules.to_prev);
        });
        for_each_sorted(&f.label_unaware, |&(instance, _)| instance, |&(instance, labels)| {
            put_u64(&mut buf, instance.value());
            put_labels(&mut buf, labels);
        });
        for_each_sorted(&f.removed, |&labels| labels, |&labels| put_labels(&mut buf, labels));
    });

    let checksum = fnv1a64(&buf);
    put_u64(&mut buf, checksum);
    debug_assert_eq!(buf.len(), len, "encoded_len agrees with encode");
    buf
}

// --- decoding -------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::invalid_argument("artifact: truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn addr(&mut self) -> Result<Addr> {
        let tag = self.u8()?;
        let id = self.u64()?;
        match tag {
            0 => Ok(Addr::Vnf(InstanceId::new(id))),
            1 => Ok(Addr::Forwarder(ForwarderId::new(id))),
            2 => Ok(Addr::Edge(EdgeInstanceId::new(id))),
            _ => Err(Error::invalid_argument(format!(
                "artifact: unknown address tag {tag}"
            ))),
        }
    }

    fn labels(&mut self) -> Result<LabelPair> {
        let chain = self.u32()?;
        let egress = self.u32()?;
        let chain = ChainLabel::try_new(chain).ok_or_else(|| {
            Error::invalid_argument(format!("artifact: chain label {chain} out of range"))
        })?;
        let egress = EgressLabel::try_new(egress).ok_or_else(|| {
            Error::invalid_argument(format!("artifact: egress label {egress} out of range"))
        })?;
        Ok(LabelPair::new(chain, egress))
    }

    fn choice(&mut self) -> Result<WeightedChoice> {
        let n = self.u32()? as usize;
        if n == 0 {
            return Err(Error::invalid_argument(
                "artifact: weighted choice with no targets",
            ));
        }
        // Each target takes 29 bytes (tagged address, cumulative weight,
        // threshold, alias), so a hostile count cannot size the buffers
        // past what the body can hold.
        let cap = n.min((self.buf.len() - self.pos) / 29);
        let mut targets = Vec::with_capacity(cap);
        let mut prev = 0.0f64;
        for _ in 0..n {
            let addr = self.addr()?;
            let cum = self.f64()?;
            if !cum.is_finite() || cum < prev {
                return Err(Error::invalid_argument(
                    "artifact: cumulative weights must be finite and non-decreasing",
                ));
            }
            prev = cum;
            targets.push((addr, cum));
        }
        let total = self.f64()?;
        if !total.is_finite() || total <= 0.0 {
            return Err(Error::invalid_argument(
                "artifact: weighted-choice total must be finite and positive",
            ));
        }
        let mut thresholds = Vec::with_capacity(cap);
        for _ in 0..n {
            thresholds.push(self.u64()?);
        }
        let mut aliases = Vec::with_capacity(cap);
        for _ in 0..n {
            let a = self.u32()?;
            if a as usize >= n {
                return Err(Error::invalid_argument(format!(
                    "artifact: alias index {a} out of range for {n} targets"
                )));
            }
            aliases.push(a);
        }
        Ok(WeightedChoice::from_raw_parts(
            targets, total, thresholds, aliases,
        ))
    }
}

fn mode_from_u8(v: u8) -> Result<ForwarderMode> {
    match v {
        0 => Ok(ForwarderMode::Bridge),
        1 => Ok(ForwarderMode::Overlay),
        2 => Ok(ForwarderMode::Affinity),
        _ => Err(Error::invalid_argument(format!(
            "artifact: unknown forwarder mode tag {v}"
        ))),
    }
}

/// Deserializes a version-2 artifact, validating the magic, version,
/// trailer checksum, canonical order, label ranges, and alias-table shape.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] on any structural defect: wrong
/// magic, unsupported version, checksum mismatch, truncation, trailing
/// garbage, forwarders not strictly ascending by id, a forwarder's rows
/// not strictly ascending by label pair, or out-of-range labels or alias
/// indices.
pub fn decode(bytes: &[u8]) -> Result<SiteArtifact> {
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(Error::invalid_argument("artifact: too short"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("len"));
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(Error::invalid_argument(format!(
            "artifact: checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }

    let mut d = Dec { buf: body, pos: 0 };
    if d.take(4)? != MAGIC {
        return Err(Error::invalid_argument("artifact: bad magic"));
    }
    let version = d.u16()?;
    if version != VERSION {
        return Err(Error::invalid_argument(format!(
            "artifact: unsupported version {version} (this build reads {VERSION})"
        )));
    }
    let kind = ArtifactKind::from_u8(d.u8()?)?;
    // The format's one free flag byte: must be zero until a future version
    // assigns it meaning, so old readers fail loudly instead of silently
    // ignoring a flag they don't understand.
    if d.u8()? != 0 {
        return Err(Error::invalid_argument("artifact: nonzero reserved byte"));
    }
    let site = SiteId::new(d.u32()?);
    let epoch = d.u64()?;
    let n_forwarders = d.u32()? as usize;

    let mut forwarders = Vec::with_capacity(n_forwarders.min(1024));
    for _ in 0..n_forwarders {
        let forwarder = ForwarderId::new(d.u64()?);
        let mode = mode_from_u8(d.u8()?)?;
        let generation = d.u64()?;
        let n_rows = d.u32()? as usize;
        let n_unaware = d.u32()? as usize;
        let n_removed = d.u32()? as usize;

        if forwarders
            .last()
            .is_some_and(|prev: &ForwarderArtifact| prev.forwarder >= forwarder)
        {
            return Err(Error::invalid_argument(
                "artifact: forwarders must be strictly ascending by id",
            ));
        }

        let mut rows: Vec<FibRow> = Vec::with_capacity(n_rows.min(4096));
        for _ in 0..n_rows {
            let labels = d.labels()?;
            // Rows are installed as carried: a repeated pair would enter
            // the FIB twice, so the canonical order is checked here.
            if rows.last().is_some_and(|prev| prev.labels >= labels) {
                return Err(Error::invalid_argument(
                    "artifact: rows must be strictly ascending by label pair",
                ));
            }
            let epoch = d.u64()?;
            let to_vnf = d.choice()?;
            let to_next = d.choice()?;
            let to_prev = d.choice()?;
            rows.push(FibRow {
                labels,
                epoch,
                rules: crate::forwarder::RuleSet {
                    to_vnf,
                    to_next,
                    to_prev,
                },
            });
        }

        let mut label_unaware = Vec::with_capacity(n_unaware.min(4096));
        for _ in 0..n_unaware {
            let instance = InstanceId::new(d.u64()?);
            let labels = d.labels()?;
            label_unaware.push((instance, labels));
        }

        let mut removed = Vec::with_capacity(n_removed.min(4096));
        for _ in 0..n_removed {
            removed.push(d.labels()?);
        }
        if kind == ArtifactKind::Full && !removed.is_empty() {
            return Err(Error::invalid_argument(
                "artifact: full artifacts carry no removal list",
            ));
        }

        forwarders.push(ForwarderArtifact {
            forwarder,
            mode,
            generation,
            rows: rows.into(),
            label_unaware,
            removed,
        });
    }

    if d.pos != body.len() {
        return Err(Error::invalid_argument(format!(
            "artifact: {} trailing bytes after the last forwarder",
            body.len() - d.pos
        )));
    }
    Ok(SiteArtifact {
        site,
        epoch,
        kind,
        forwarders,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarder::RuleSet;
    use sb_types::{ChainLabel, EgressLabel};

    fn pair(chain: u32, egress: u32) -> LabelPair {
        LabelPair::new(ChainLabel::new(chain), EgressLabel::new(egress))
    }

    fn ruleset(inst: u64) -> RuleSet {
        RuleSet {
            to_vnf: WeightedChoice::new(vec![
                (Addr::Vnf(InstanceId::new(inst)), 2.0),
                (Addr::Vnf(InstanceId::new(inst + 1)), 1.0),
            ])
            .unwrap(),
            to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(9))),
            to_prev: WeightedChoice::single(Addr::Edge(EdgeInstanceId::new(3))),
        }
    }

    fn row(chain: u32, egress: u32, inst: u64) -> FibRow {
        FibRow {
            labels: pair(chain, egress),
            epoch: 2,
            rules: ruleset(inst),
        }
    }

    fn sample() -> SiteArtifact {
        SiteArtifact {
            site: SiteId::new(4),
            epoch: 2,
            kind: ArtifactKind::Full,
            forwarders: vec![ForwarderArtifact {
                forwarder: ForwarderId::new(4_000_001),
                mode: ForwarderMode::Affinity,
                generation: 7,
                rows: vec![row(1, 2, 10), row(1, 7, 20), row(3, 4, 30)].into(),
                label_unaware: vec![(InstanceId::new(10), pair(1, 2))],
                removed: vec![],
            }],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let art = sample();
        let bytes = encode(&art);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, art);
    }

    #[test]
    fn encoding_is_order_independent() {
        let mut shuffled = sample();
        let reversed: Vec<FibRow> = shuffled.forwarders[0].rows.iter().rev().cloned().collect();
        shuffled.forwarders[0].rows = reversed.into();
        shuffled.forwarders.push(ForwarderArtifact {
            forwarder: ForwarderId::new(1),
            mode: ForwarderMode::Overlay,
            generation: 1,
            rows: vec![].into(),
            label_unaware: vec![],
            removed: vec![],
        });
        let mut sorted = sample();
        sorted.forwarders.insert(
            0,
            ForwarderArtifact {
                forwarder: ForwarderId::new(1),
                mode: ForwarderMode::Overlay,
                generation: 1,
                rows: vec![].into(),
                label_unaware: vec![],
                removed: vec![],
            },
        );
        assert_eq!(encode(&shuffled), encode(&sorted));
    }

    #[test]
    fn rejects_corruption() {
        let art = sample();
        let good = encode(&art);
        // Flip one byte anywhere in the body: the checksum catches it.
        for at in [0usize, 4, 10, good.len() / 2, good.len() - 9] {
            let mut bad = good.clone();
            bad[at] ^= 0xff;
            assert!(decode(&bad).is_err(), "corruption at {at} not caught");
        }
        // Truncation.
        assert!(decode(&good[..good.len() - 1]).is_err());
        assert!(decode(&[]).is_err());
    }

    /// `sample()` encoded, stamped as `version` and re-sealed, so only the
    /// version check can reject it.
    fn restamped(version: u16) -> Vec<u8> {
        let mut bytes = encode(&sample());
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let body_len = bytes.len() - 8;
        let fixed = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fixed.to_le_bytes());
        bytes
    }

    #[test]
    fn rejects_future_version() {
        let err = decode(&restamped(0x7f)).unwrap_err().to_string();
        assert!(err.contains("unsupported version 127"), "{err}");
    }

    #[test]
    fn rejects_version_1() {
        let err = decode(&restamped(1)).unwrap_err().to_string();
        assert!(err.contains("unsupported version 1 "), "{err}");
    }

    #[test]
    fn rejects_removals_in_full_artifacts() {
        let mut art = sample();
        art.forwarders[0].removed = vec![pair(9, 9)];
        let bytes = encode(&art);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn patch_kind_round_trips_removals() {
        let mut art = sample();
        art.kind = ArtifactKind::Patch;
        art.forwarders[0].removed = vec![pair(9, 9), pair(3, 4)];
        let back = decode(&encode(&art)).unwrap();
        assert_eq!(back.kind, ArtifactKind::Patch);
        // Removals come back sorted (the canonical form).
        assert_eq!(back.forwarders[0].removed, vec![pair(3, 4), pair(9, 9)]);
    }

    #[test]
    fn decoded_choice_selects_identically() {
        let art = sample();
        let back = decode(&encode(&art)).unwrap();
        let orig = &art.forwarders[0].rows[0].rules.to_vnf;
        let dec = &back.forwarders[0].rows[0].rules.to_vnf;
        for i in 0..50_000u64 {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(orig.select(h), dec.select(h));
        }
    }
}
