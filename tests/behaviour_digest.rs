//! Behaviour digest: one output per input, in every process.
//!
//! A fixed sequence of control-plane verbs runs on four fleets and on the
//! line testbed, followed by one cloud-capacity plan. One fleet runs under
//! a seeded fault plan (lost, duplicated and delayed messages, prepare and
//! commit timeouts, and one site down while chains are rerouted), so the
//! retry, rollback and dead-site paths are pinned too. After
//! each verb one line records its result, the WAN messages and 2PC
//! participants it cost, an FNV-1a digest of its report's steps and
//! partial-failure notes, the retired-epoch and commit counters, the
//! copies the bus delivered, lost to faults, duplicated by faults and
//! suppressed by crashes during the verb, and FNV-1a digests of every stored artifact's bytes and of every in-process
//! forwarder's rows. The lines must equal `behaviour_digest.golden`, and
//! two child processes of this test must print the same lines: a `HashMap`
//! whose per-process hash keys reach an output makes the processes
//! disagree.
//!
//! A change that alters behaviour on purpose regenerates the golden file:
//! `BEHAVIOUR_DIGEST_OUT=tests/behaviour_digest.golden cargo test --test
//! behaviour_digest` writes the lines there instead of checking them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use switchboard::controller::ChainHandle;
use switchboard::dataplane::CompiledFib;
use switchboard::faults::CrashWindow;
use switchboard::netsim::SimTime;
use switchboard::prelude::*;
use switchboard::scenarios::{self, FleetConfig, Tier1Config};
use switchboard::te::capacity;
use switchboard::types::{ForwarderId, Result};

/// Where a run writes its lines instead of checking them.
const OUT_VAR: &str = "BEHAVIOUR_DIGEST_OUT";
const GOLDEN: &str = include_str!("behaviour_digest.golden");

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

/// The bus counters a digest line gives per verb.
const BUS_COUNTERS: [&str; 4] = [
    "bus.delivered",
    "bus.fault_dropped",
    "bus.fault_duplicated",
    "bus.crash_suppressed",
];

/// The digest lines of one run. The last hash of each stored artifact and
/// of each forwarder's published FIB is kept with what it hashed, so a
/// verb re-hashes only what it changed; the bus counters are kept as the
/// last verb left them, so a line gives what its verb added.
#[derive(Default)]
struct Digest {
    lines: String,
    artifacts: BTreeMap<SiteId, (Vec<u8>, u64)>,
    fibs: BTreeMap<ForwarderId, (Arc<CompiledFib>, u64)>,
    bus: [u64; 4],
}

impl Digest {
    /// The bus counters of `sb`.
    fn bus_counters(sb: &Switchboard) -> [u64; 4] {
        let counters = sb.telemetry().registry.snapshot();
        BUS_COUNTERS.map(|name| counters.counter(name))
    }

    /// Starts the verbs on a new `sb`: later lines give its bus counters'
    /// growth.
    fn start(&mut self, sb: &Switchboard) {
        self.bus = Self::bus_counters(sb);
    }

    /// One line for `verb` on `chain`, read from `sb` after the verb.
    fn record(
        &mut self,
        sb: &Switchboard,
        verb: &str,
        chain: ChainId,
        res: Result<DeploymentReport>,
    ) {
        let result = match &res {
            Ok(r) => {
                let mut steps = Fnv::new();
                for (name, latency) in &r.steps {
                    steps
                        .write(name.as_bytes())
                        .write(&latency.value().to_bits().to_le_bytes());
                }
                for note in &r.partial_failures {
                    steps.write(note.as_bytes());
                }
                format!(
                    "ok wan={} p2pc={} steps={:016x}",
                    r.wan_messages, r.participants_2pc, steps.0
                )
            }
            Err(e) => format!("err {e}"),
        };
        let counters = sb.telemetry().registry.snapshot();
        let bus = Self::bus_counters(sb);
        let [delivered, dropped, duplicated, suppressed] =
            std::array::from_fn(|i| bus[i] - self.bus[i]);
        self.bus = bus;
        let mut artifacts = Fnv::new();
        for site in sb.artifact_sites() {
            let bytes = sb.site_artifact_bytes(site).expect("listed site");
            let (kept, hash) = self.artifacts.entry(site).or_default();
            if kept.as_slice() != bytes {
                *kept = bytes.to_vec();
                *hash = Fnv::new().write(bytes).0;
            }
            artifacts
                .write(&site.value().to_le_bytes())
                .write(&hash.to_le_bytes());
        }
        let cp = sb.control_plane();
        let mut forwarders = Fnv::new();
        for site in cp.sites() {
            let local = cp.local(site).expect("listed site");
            for id in local.forwarder_ids() {
                let fib = Arc::clone(local.forwarder(id).expect("listed").fib_reader().snapshot());
                let hash = match self.fibs.get(&id) {
                    Some((kept, hash)) if Arc::ptr_eq(kept, &fib) => *hash,
                    _ => {
                        let hash = Fnv::new().write(format!("{:?}", fib.rows()).as_bytes()).0;
                        self.fibs.insert(id, (fib, hash));
                        hash
                    }
                };
                forwarders
                    .write(&id.value().to_le_bytes())
                    .write(&hash.to_le_bytes());
            }
        }
        self.lines += &format!(
            "{verb} {chain}: {result} retired={} commits={} \
             delivered={delivered} lost={dropped} dup={duplicated} crashed={suppressed} art={:016x} fwd={:016x}\n",
            counters.counter("cp.epochs.retired"),
            counters.counter("cp.2pc.commits"),
            artifacts.0,
            forwarders.0,
        );
    }
}

fn report(res: Result<ChainHandle>) -> Result<DeploymentReport> {
    res.map(|h| h.report)
}

fn attachment(site: SiteId) -> String {
    format!("site{}", site.value())
}

/// On a `scenarios::fleet`: deploy every chain, update every 2nd deployed
/// chain to an alternative route and back, reroute every 3rd, add the
/// alternative route to every 4th, add an edge site to every 5th, and
/// remove them all, under `faults` when given.
fn fleet_verbs(
    digest: &mut Digest,
    seed: u64,
    num_chains: usize,
    capacity_headroom: f64,
    faults: Option<FaultSpec>,
) {
    let model = scenarios::fleet(&FleetConfig {
        num_chains,
        capacity_headroom,
        seed,
        ..FleetConfig::default()
    });
    let mut sb = Switchboard::new(
        model.with_chains(Vec::new()),
        DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
        SwitchboardConfig {
            faults,
            ..SwitchboardConfig::default()
        },
    );
    digest.start(&sb);
    let sites = model.sites();
    for &site in &sites {
        sb.register_attachment(attachment(site), site);
    }
    let site_at = |node: NodeId| {
        *sites
            .iter()
            .find(|&&s| model.site_node(s) == node)
            .expect("every fleet node hosts a site")
    };

    let mut deployed = Vec::new();
    for c in model.chains() {
        let res = sb.deploy_chain(ChainRequest {
            id: c.id,
            ingress_attachment: attachment(site_at(c.ingress)),
            egress_attachment: attachment(site_at(c.egress)),
            vnfs: c.vnfs.clone(),
            forward: c.forward[0],
            reverse: c.reverse[0],
        });
        if res.is_ok() {
            deployed.push(c.id);
        }
        digest.record(&sb, "deploy", c.id, report(res));
    }

    // The chain's first route with every stage moved to the next site
    // hosting its VNF.
    let alternative = |sb: &Switchboard, chain: ChainId| -> Vec<SiteId> {
        let route = &sb.routes_of(chain)[0];
        route
            .vnfs
            .iter()
            .zip(&route.sites)
            .map(|(&vnf, site)| {
                let hosts = model.vnf(vnf).expect("catalog VNF").sites();
                let at = hosts
                    .iter()
                    .position(|h| h == site)
                    .expect("route site hosts its VNF");
                hosts[(at + 1) % hosts.len()]
            })
            .collect()
    };
    for &c in deployed.iter().step_by(2) {
        let back: Vec<(Vec<SiteId>, f64)> = sb
            .routes_of(c)
            .iter()
            .map(|r| (r.sites.clone(), r.fraction))
            .collect();
        let alt = alternative(&sb, c);
        let res = sb.update_chain(c, vec![(alt, 1.0)]);
        digest.record(&sb, "update", c, report(res));
        let res = sb.update_chain(c, back);
        digest.record(&sb, "update-back", c, report(res));
    }
    for &c in deployed.iter().step_by(3) {
        let res = sb.reroute_chain(c);
        digest.record(&sb, "reroute", c, report(res));
    }
    for &c in deployed.iter().step_by(4) {
        let alt = alternative(&sb, c);
        let res = sb.add_route_via(c, alt);
        digest.record(&sb, "add-route", c, res.map(|(_, r)| r));
    }
    for &c in deployed.iter().step_by(5) {
        let ingress = sb.routes_of(c)[0].ingress_site;
        let site = sites[(ingress.index() + sites.len() / 2) % sites.len()];
        let res = sb.add_edge_site(c, attachment(site), site);
        digest.record(&sb, "add-edge-site", c, res);
    }
    for &c in &deployed {
        let res = sb.remove_chain(c);
        digest.record(&sb, "remove", c, res);
    }
}

/// The verbs of `chain_lifecycle`'s artifact-replay test on the line
/// testbed.
fn lifecycle_verbs(digest: &mut Digest) {
    let (model, sites) = scenarios::line_testbed();
    let mut sb = Switchboard::new(
        model,
        DelayModel::uniform(Millis::new(0.1), Millis::new(20.0)),
        SwitchboardConfig::default(),
    );
    digest.start(&sb);
    sb.register_attachment("in", sites[0]);
    sb.register_attachment("out", sites[3]);
    let request = |id: u64| ChainRequest {
        id: ChainId::new(id),
        ingress_attachment: "in".into(),
        egress_attachment: "out".into(),
        vnfs: vec![VnfId::new(0), VnfId::new(1)],
        forward: 5.0,
        reverse: 1.0,
    };
    let (one, two) = (ChainId::new(1), ChainId::new(2));
    let (a, b) = (sites[1], sites[2]);

    let res = sb.deploy_chain(request(1));
    digest.record(&sb, "deploy", one, report(res));
    let res = sb.deploy_chain_via(request(2), vec![(vec![a, b], 1.0)]);
    digest.record(&sb, "deploy-via", two, report(res));
    let other = if sb.routes_of(one)[0].sites[0] == a {
        b
    } else {
        a
    };
    let res = sb.add_route_via(one, vec![other, other]);
    digest.record(&sb, "add-route", one, res.map(|(_, r)| r));
    let res = sb.add_edge_site(one, "mobile", sites[3]);
    digest.record(&sb, "add-edge-site", one, res);
    let res = sb.update_chain(two, vec![(vec![a, b], 0.25), (vec![b, a], 0.75)]);
    digest.record(&sb, "update", two, report(res));
    let res = sb.reroute_chain(two);
    digest.record(&sb, "reroute", two, report(res));
    for c in [one, two] {
        let res = sb.remove_chain(c);
        digest.record(&sb, "remove", c, res);
    }
}

/// A cloud plan on a smaller `capacity_planning` example model (its
/// optimum is degenerate): the extra units each site gets.
fn capacity_plan(digest: &mut Digest) {
    let cfg = Tier1Config {
        num_chains: 4,
        num_vnfs: 4,
        coverage: 0.4,
        cpu_per_byte: 3.0,
        site_capacity: 150.0,
        background_ratio: 0.1,
        ..Tier1Config::default()
    };
    let planned = capacity::plan_cloud_capacity(&scenarios::tier1(&cfg), 1_000.0)
        .expect("the example's plan solves");
    let gains: Vec<String> = planned
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c - cfg.site_capacity > 1e-6)
        .map(|(i, &c)| format!("{i}+{:.3}", c - cfg.site_capacity))
        .collect();
    digest.lines += &format!("plan-cloud-capacity: {}\n", gains.join(" "));
}

fn behaviour() -> String {
    let mut digest = Digest::default();
    for (seed, chains, headroom) in [(7, 120, 64.0), (19, 120, 4.0), (42, 150, 64.0)] {
        digest.lines += &format!("fleet seed={seed} chains={chains} headroom={headroom}\n");
        fleet_verbs(&mut digest, seed, chains, headroom, None);
    }
    // `chaos_control_plane`'s message and RPC fault mix, plus site 70
    // down from 105.28 s to 110 s of virtual time: from the second
    // reroute (chain-3, whose every VNF sits at site 70, so the solve's
    // dead-site exclusion moves it) until after the first add-route, so
    // copies to the site are suppressed.
    let crash = CrashWindow::recovering(
        SiteId::new(70),
        SimTime::from_secs(105.28),
        SimTime::from_secs(110.0),
    );
    let faults = FaultSpec::new(7)
        .with_drop_probability(0.2)
        .with_duplicate_probability(0.1)
        .with_delay(0.3, Millis::new(40.0))
        .with_prepare_timeouts(0.25)
        .with_commit_timeouts(0.2)
        .with_crash(crash);
    digest.lines += "fleet seed=7 chains=40 headroom=64 faults=7\n";
    fleet_verbs(&mut digest, 7, 40, 64.0, Some(faults));
    digest.lines += "line testbed\n";
    lifecycle_verbs(&mut digest);
    capacity_plan(&mut digest);
    digest.lines
}

/// `None` when `a == b`, else the first line where they differ.
fn first_divergence(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return Some(format!(
                    "line {n}:\n  {}\n  {}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                ))
            }
        }
    }
    unreachable!("two different strings differ at some line")
}

#[test]
fn behaviour_is_one_function_of_the_inputs() {
    if let Some(path) = std::env::var_os(OUT_VAR) {
        std::fs::write(path, behaviour()).expect("write the digest lines");
        return;
    }
    // Two children of this test binary, each with its own hash keys, run
    // while this process computes its own lines.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let children: Vec<_> = (0..2)
        .map(|i| {
            let path = dir.join(format!("behaviour_digest.{}.{i}", std::process::id()));
            let child = Command::new(std::env::current_exe().expect("test binary path"))
                .args([
                    "--exact",
                    "behaviour_is_one_function_of_the_inputs",
                    "--quiet",
                ])
                .env(OUT_VAR, &path)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn a child run");
            (path, child)
        })
        .collect();
    let own = behaviour();
    let others: Vec<String> = children
        .into_iter()
        .map(|(path, mut child)| {
            assert!(
                child.wait().expect("child run").success(),
                "a child run failed"
            );
            let lines = std::fs::read_to_string(&path).expect("child digest lines");
            let _ = std::fs::remove_file(&path);
            lines
        })
        .collect();

    if let Some(at) = first_divergence(GOLDEN, &own) {
        panic!("behaviour differs from behaviour_digest.golden (golden, then this run) at {at}");
    }
    for (i, other) in others.iter().enumerate() {
        if let Some(at) = first_divergence(&own, other) {
            panic!("child process {i} behaved differently (this run, then the child) at {at}");
        }
    }
}
