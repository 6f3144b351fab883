//! `sb` — the Switchboard operator CLI (DESIGN.md §15).
//!
//! The control plane and the data plane meet at the compiled forwarding
//! artifact (`.sba`): the controller's 2PC install emits one per
//! participant site, and a forwarder can boot from the file alone, with
//! no controller connection. This binary exercises that boundary
//! end-to-end:
//!
//! - `sb compile --out DIR` — deploys the built-in demo chain (the
//!   4-node line testbed) through the full facade and writes one
//!   `site<N>.sba` per participant site. The bytes are deterministic:
//!   two runs produce identical files (CI `cmp`s them).
//! - `sb inspect FILE` — prints the decoded header and per-forwarder
//!   summary after verifying the checksum.
//! - `sb deploy FILE --to DEST` — atomically publishes an artifact to
//!   the path a running `sb run-forwarder` watches (temp file + rename,
//!   so the watcher never sees a torn write).
//! - `sb run-forwarder --artifact FILE` — boots standalone forwarders
//!   from the file, drives synthetic labeled traffic through the
//!   compiled FIB, and hot-swaps (make-before-break, flow table kept)
//!   whenever the file changes. `--packets N` bounds the run for CI.
//!
//! Argument parsing is plain `std::env::args` — the workspace is
//! offline and vendors no argument-parsing crate.

use sb_artifact::{read_artifact, write_artifact, ArtifactWatcher, WatchEvent};
use sb_dataplane::{Addr, ArtifactKind, Forwarder, Packet, SiteArtifact};
use sb_types::{EdgeInstanceId, FlowKey, LabelPair, SiteId};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "inspect" => cmd_inspect(rest),
        "deploy" => cmd_deploy(rest),
        "run-forwarder" => cmd_run_forwarder(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sb: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
sb — Switchboard operator CLI

USAGE:
  sb compile --out DIR            compile the demo chain; write site<N>.sba per site
  sb inspect FILE                 verify checksum and print the artifact summary
  sb deploy FILE --to DEST        atomically publish FILE to DEST (watched path)
  sb run-forwarder --artifact F   boot forwarders from F and forward traffic
       [--packets N]              stop after N packets (default 1024; 0 = forever)
       [--poll-ms M]              file-watch poll interval (default 200)";

/// `--flag value` extraction over a raw arg slice; rejects repeats.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            if found.replace(v.clone()).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
    }
    Ok(found)
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what}: `{s}` is not a non-negative integer"))
}

/// Deploys the built-in demo chain (line testbed, two VNFs, one chain)
/// through the facade and returns the compiled per-site artifacts in
/// ascending site order. Pure function of the fixed demo model, so the
/// encoded bytes are byte-for-byte reproducible across runs.
fn compile_demo() -> Result<Vec<(SiteId, SiteArtifact, Vec<u8>)>, String> {
    use switchboard::prelude::*;
    let (model, sites) = switchboard::scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    sb.deploy_chain(ChainRequest {
        id: ChainId::new(1),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0), VnfId::new(1)],
        forward: 5.0,
        reverse: 1.0,
    })
    .map_err(|e| format!("demo deploy failed: {e}"))?;
    let mut out = Vec::new();
    for site in sb.artifact_sites() {
        let art = sb
            .site_artifact(site)
            .expect("artifact_sites listed it")
            .clone();
        let bytes = sb
            .site_artifact_bytes(site)
            .expect("artifact_sites listed it")
            .to_vec();
        out.push((site, art, bytes));
    }
    if out.is_empty() {
        return Err("demo deploy produced no artifacts".into());
    }
    Ok(out)
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let out_dir = flag_value(args, "--out")?.ok_or("compile requires --out DIR")?;
    let dir = PathBuf::from(out_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (site, art, bytes) in compile_demo()? {
        let path = dir.join(format!("site{}.sba", site.value()));
        let written = write_artifact(&path, &art).map_err(|e| format!("write: {e}"))?;
        debug_assert_eq!(written, bytes.len());
        println!(
            "wrote {} ({} bytes, epoch {}, {} forwarders)",
            path.display(),
            bytes.len(),
            art.epoch,
            art.forwarders.len()
        );
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let [file] = args else {
        return Err("inspect takes exactly one FILE".into());
    };
    let path = Path::new(file);
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let art = read_artifact(path).map_err(|e| format!("{e}"))?;
    print!("{}", sb_artifact::inspect(&art, bytes.len()));
    Ok(())
}

fn cmd_deploy(args: &[String]) -> Result<(), String> {
    let dest = flag_value(args, "--to")?.ok_or("deploy requires --to DEST")?;
    let positional: Vec<&String> = {
        let mut skip = false;
        args.iter()
            .filter(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if a.as_str() == "--to" {
                    skip = true;
                    return false;
                }
                true
            })
            .collect()
    };
    let [file] = positional[..] else {
        return Err("deploy takes exactly one FILE".into());
    };
    let art = read_artifact(Path::new(file)).map_err(|e| format!("{e}"))?;
    let written = write_artifact(Path::new(&dest), &art).map_err(|e| format!("publish: {e}"))?;
    println!(
        "published site {} epoch {} to {dest} ({written} bytes)",
        art.site.value(),
        art.epoch
    );
    Ok(())
}

/// Boots one standalone [`Forwarder`] per forwarder entry of the artifact
/// and drives synthetic labeled traffic through them, hot-swapping on
/// file change. Returns the total packets forwarded.
fn cmd_run_forwarder(args: &[String]) -> Result<(), String> {
    let file = flag_value(args, "--artifact")?.ok_or("run-forwarder requires --artifact FILE")?;
    let packets = match flag_value(args, "--packets")? {
        Some(v) => parse_u64(&v, "--packets")?,
        None => 1024,
    };
    let poll_ms = match flag_value(args, "--poll-ms")? {
        Some(v) => parse_u64(&v, "--poll-ms")?,
        None => 200,
    };

    let path = PathBuf::from(file);
    let art = read_artifact(&path).map_err(|e| format!("{e}"))?;
    let mut watcher = ArtifactWatcher::new(path.clone());
    // Swallow the initial Changed so only *subsequent* edits hot-swap.
    let _ = watcher.poll();

    let mut fleet = boot_fleet(&art);
    println!(
        "booted {} forwarder(s) from {} (site {}, epoch {})",
        fleet.len(),
        path.display(),
        art.site.value(),
        art.epoch
    );

    let edge = Addr::Edge(EdgeInstanceId::new(0));
    let mut sent: u64 = 0;
    let mut errors: u64 = 0;
    let mut swaps: u64 = 0;
    let mut last_poll = std::time::Instant::now();
    let poll_every = std::time::Duration::from_millis(poll_ms);
    while packets == 0 || sent < packets {
        for (fwd, labels) in &mut fleet {
            if labels.is_empty() {
                continue;
            }
            let batch: u64 = if packets == 0 {
                32
            } else {
                32.min(packets - sent)
            };
            if batch == 0 {
                break;
            }
            #[allow(clippy::cast_possible_truncation)]
            let mut pkts: Vec<Packet> = (0..batch)
                .map(|i| {
                    let n = sent + i;
                    let lp = labels[(n as usize) % labels.len()];
                    let key =
                        FlowKey::tcp([10, 0, 0, 1], 1000 + (n % 16) as u16, [10, 9, 9, 9], 80);
                    Packet::labeled(lp, key, 500)
                })
                .collect();
            for r in fwd.process_batch(&mut pkts, edge) {
                if r.is_err() {
                    errors += 1;
                }
            }
            sent += batch;
        }
        if last_poll.elapsed() >= poll_every {
            last_poll = std::time::Instant::now();
            match watcher.poll() {
                WatchEvent::Changed => match read_artifact(watcher.path()) {
                    Ok(new_art) => {
                        swaps += 1;
                        hot_swap(&mut fleet, &new_art);
                        println!(
                            "hot-swapped to epoch {} ({:?}, {} forwarders) — flow tables kept",
                            new_art.epoch,
                            new_art.kind,
                            new_art.forwarders.len()
                        );
                    }
                    Err(e) => eprintln!("sb: reload skipped: {e}"),
                },
                WatchEvent::Unchanged | WatchEvent::Missing => {}
            }
        }
        if packets == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    for (fwd, _) in &fleet {
        let s = fwd.stats();
        println!(
            "forwarder {} [{}]: rx {} tx {} drops {} flow_hits {} flow_misses {} fib_gen {}",
            fwd.id().value(),
            fwd.mode().as_str(),
            s.rx,
            s.tx,
            s.drops,
            s.flow_hits,
            s.flow_misses,
            fwd.fib_generation()
        );
    }
    println!("done: {sent} packets, {errors} errors, {swaps} hot-swaps");
    Ok(())
}

/// One booted forwarder plus the labels its FIB serves (traffic domain).
type Fleet = Vec<(Forwarder, Vec<LabelPair>)>;

fn boot_fleet(art: &SiteArtifact) -> Fleet {
    art.forwarders
        .iter()
        .map(|fa| {
            let labels: Vec<LabelPair> = fa.rows.iter().map(|r| r.labels).collect();
            (Forwarder::from_artifact(art.site, fa), labels)
        })
        .collect()
}

/// Applies a new artifact to a running fleet: existing forwarders are
/// patched in place (flow tables survive — make-before-break), unknown
/// forwarder ids are booted fresh.
fn hot_swap(fleet: &mut Fleet, art: &SiteArtifact) {
    for fa in &art.forwarders {
        let labels: Vec<LabelPair> = fa.rows.iter().map(|r| r.labels).collect();
        if let Some((fwd, lbls)) = fleet.iter_mut().find(|(f, _)| f.id() == fa.forwarder) {
            fwd.apply_artifact(fa, art.kind);
            match art.kind {
                ArtifactKind::Full => *lbls = labels,
                ArtifactKind::Patch => {
                    lbls.extend(labels);
                    lbls.sort_unstable();
                    lbls.dedup();
                    lbls.retain(|l| !fa.removed.contains(l));
                }
            }
        } else {
            fleet.push((Forwarder::from_artifact(art.site, fa), labels));
        }
    }
}
