//! Compiled route artifacts as files: the `.sba` operator surface.
//!
//! The codec itself lives in [`sb_dataplane::artifact`] (it round-trips
//! the data plane's private alias tables, so it sits next to them); this
//! crate is the file-level surface the control plane and the `sb` CLI
//! share:
//!
//! - [`write_artifact`] / [`read_artifact`]: encode to / decode from an
//!   `.sba` file, atomically (write to a temp sibling, then rename — a
//!   watcher never observes a half-written artifact);
//! - [`inspect`]: a human-readable summary of an artifact's contents;
//! - [`ArtifactWatcher`]: the SIGHUP stand-in for the standalone
//!   forwarder — polls the file's identity + length + mtime and reports
//!   when a new artifact has landed.
//!
//! See DESIGN.md §15 for the format layout and compatibility rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sb_dataplane::artifact::{
    decode, encode, fnv1a64, ArtifactKind, ForwarderArtifact, SiteArtifact, MAGIC, VERSION,
};

use sb_types::{Error, Result};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// The conventional extension for artifact files.
pub const EXTENSION: &str = "sba";

/// Encodes `artifact` and writes it to `path` atomically: bytes land in a
/// temporary sibling (`<path>.tmp`) which is then renamed over `path`, so
/// a concurrent [`ArtifactWatcher`] either sees the old complete file or
/// the new complete file, never a torn one. Returns the encoded size.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] wrapping the I/O failure when the
/// temp file cannot be written or the rename fails.
pub fn write_artifact(path: &Path, artifact: &SiteArtifact) -> Result<usize> {
    let bytes = encode(artifact);
    let tmp: PathBuf = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        os.into()
    };
    fs::write(&tmp, &bytes)
        .map_err(|e| Error::invalid_argument(format!("write {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path)
        .map_err(|e| Error::invalid_argument(format!("rename to {}: {e}", path.display())))?;
    Ok(bytes.len())
}

/// Reads and decodes the artifact at `path`.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when the file cannot be read or
/// fails any of the codec's structural checks (magic, version, checksum…).
pub fn read_artifact(path: &Path) -> Result<SiteArtifact> {
    let bytes = fs::read(path)
        .map_err(|e| Error::invalid_argument(format!("read {}: {e}", path.display())))?;
    decode(&bytes)
}

/// A human-readable summary of an artifact: header fields, then one line
/// per forwarder with its row / registration / removal counts. This is
/// what `sb inspect` prints.
#[must_use]
pub fn inspect(artifact: &SiteArtifact, encoded_len: usize) -> String {
    use std::fmt::Write as _;
    let kind = match artifact.kind {
        ArtifactKind::Full => "full",
        ArtifactKind::Patch => "patch",
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "site {} epoch {} kind {kind} version {VERSION} ({encoded_len} bytes, {} forwarders)",
        artifact.site.value(),
        artifact.epoch,
        artifact.forwarders.len(),
    );
    for f in &artifact.forwarders {
        let chains: std::collections::BTreeSet<u32> =
            f.rows.iter().map(|r| r.labels.chain().value()).collect();
        let _ = writeln!(
            out,
            "  forwarder {} mode {} gen {}: {} rows over {} chains, {} label-unaware, {} removed",
            f.forwarder.value(),
            f.mode.as_str(),
            f.generation,
            f.rows.len(),
            chains.len(),
            f.label_unaware.len(),
            f.removed.len(),
        );
    }
    out
}

/// What a watcher poll observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// The file is unchanged since the last poll.
    Unchanged,
    /// The file changed (or appeared); the path should be re-read.
    Changed,
    /// The file is currently missing or unreadable (e.g. mid-replace on a
    /// filesystem without atomic rename); poll again.
    Missing,
}

/// Polls an artifact file for replacement — the offline build's stand-in
/// for SIGHUP-triggered reloads. Change detection uses the file identity
/// plus length + mtime, all of which [`write_artifact`]'s
/// rename-into-place publishing updates atomically.
#[derive(Debug)]
pub struct ArtifactWatcher {
    path: PathBuf,
    seen: Option<(u64, u64, SystemTime)>,
}

/// The identity of the file behind a path. [`write_artifact`] renames a
/// fresh temp file into place, so on unix every publish carries a new
/// inode even when its length and mtime tick match the previous one;
/// elsewhere length + mtime alone decide.
#[cfg(unix)]
fn file_id(meta: &fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

#[cfg(not(unix))]
fn file_id(_meta: &fs::Metadata) -> u64 {
    0
}

impl ArtifactWatcher {
    /// Watches `path`. The first poll reports [`WatchEvent::Changed`] if
    /// the file exists (boot-time load), so a run-forwarder loop can
    /// treat the initial load and later reloads uniformly.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            seen: None,
        }
    }

    /// The path being watched.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checks the file's identity, length and mtime against the last
    /// observation.
    pub fn poll(&mut self) -> WatchEvent {
        let Ok(meta) = fs::metadata(&self.path) else {
            return WatchEvent::Missing;
        };
        let Ok(mtime) = meta.modified() else {
            return WatchEvent::Missing;
        };
        let stamp = (file_id(&meta), meta.len(), mtime);
        if self.seen.as_ref() == Some(&stamp) {
            WatchEvent::Unchanged
        } else {
            self.seen = Some(stamp);
            WatchEvent::Changed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_dataplane::{Addr, ForwarderMode, RuleSet, WeightedChoice};
    use sb_types::{
        ChainLabel, EgressLabel, ForwarderId, InstanceId, LabelPair, SiteId,
    };

    fn sample() -> SiteArtifact {
        let labels = LabelPair::new(ChainLabel::new(1), EgressLabel::new(2));
        SiteArtifact {
            site: SiteId::new(1),
            epoch: 1,
            kind: ArtifactKind::Full,
            forwarders: vec![ForwarderArtifact {
                forwarder: ForwarderId::new(42),
                mode: ForwarderMode::Affinity,
                generation: 3,
                rows: vec![sb_dataplane::FibRow {
                    labels,
                    epoch: 1,
                    rules: RuleSet {
                        to_vnf: WeightedChoice::single(Addr::Vnf(InstanceId::new(7))),
                        to_next: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(9))),
                        to_prev: WeightedChoice::single(Addr::Forwarder(ForwarderId::new(8))),
                    },
                }]
                .into(),
                label_unaware: vec![(InstanceId::new(7), labels)],
                removed: vec![],
            }],
        }
    }

    #[test]
    fn file_round_trip_and_watcher() {
        let dir = std::env::temp_dir().join(format!("sba-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("site1.sba");

        let mut watcher = ArtifactWatcher::new(&path);
        assert_eq!(watcher.poll(), WatchEvent::Missing);

        let art = sample();
        let n = write_artifact(&path, &art).unwrap();
        assert!(n > 0);
        assert_eq!(watcher.poll(), WatchEvent::Changed);
        assert_eq!(watcher.poll(), WatchEvent::Unchanged);
        assert_eq!(read_artifact(&path).unwrap(), art);

        // Rewriting identical bytes can keep the mtime on coarse
        // filesystems; rewrite with a different epoch and a nudged mtime.
        let mut art2 = art.clone();
        art2.epoch = 2;
        std::thread::sleep(std::time::Duration::from_millis(20));
        write_artifact(&path, &art2).unwrap();
        assert_eq!(watcher.poll(), WatchEvent::Changed);
        assert_eq!(read_artifact(&path).unwrap().epoch, 2);

        let summary = inspect(&art, n);
        assert!(summary.contains("site 1 epoch 1 kind full"), "{summary}");
        assert!(summary.contains("forwarder 42 mode affinity"), "{summary}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two different artifacts of equal encoded length published inside
    /// one mtime tick (pinned here so the collision is certain): the second
    /// publish must still be seen.
    #[cfg(unix)]
    #[test]
    fn watcher_sees_same_length_publish_within_one_mtime_tick() {
        let dir = std::env::temp_dir().join(format!("sba-tick-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("site1.sba");
        let tick = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
        let publish = |art: &SiteArtifact| -> usize {
            let n = write_artifact(&path, art).unwrap();
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_modified(tick).unwrap();
            n
        };

        let mut watcher = ArtifactWatcher::new(&path);
        let first = sample();
        let mut second = first.clone();
        second.epoch = 2;
        let n = publish(&first);
        assert_eq!(watcher.poll(), WatchEvent::Changed);
        assert_eq!(publish(&second), n, "the two artifacts must encode to one length");
        assert_eq!(watcher.poll(), WatchEvent::Changed, "same-length publish missed");
        assert_eq!(watcher.poll(), WatchEvent::Unchanged);
        assert_eq!(read_artifact(&path).unwrap().epoch, 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_rejects_garbage_file() {
        let dir = std::env::temp_dir().join(format!("sba-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.sba");
        std::fs::write(&path, b"definitely not an artifact").unwrap();
        assert!(read_artifact(&path).is_err());
        assert!(read_artifact(&dir.join("absent.sba")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
