//! The update path: `scenarios::fleet` (120 sites, 180 chords, 12 VNFs)
//! driven through the `Switchboard` facade from one closed-loop client.
//!
//! - `fleet_deploy` — a pass is a fresh `Switchboard` deploying the
//!   generated chains in seeded order: SB-DP, full 2PC on every stage and a
//!   `Full` artifact export per participant, cost growing with installed
//!   state.
//! - `fleet_update` — a pass is a freshly deployed fleet with standalone
//!   forwarders booted from the `Full` artifact files, then a stationary
//!   route flap, one update at a time through the whole path:
//!   `update_chain` → `Patch` artifacts published atomically → watched →
//!   read and decoded → applied on the standalone forwarders → first packet
//!   forwarded on the new epoch at every site of the new routes.
//!
//! Both repeat the same pass for as long as the window lasts. The program's
//! cost per operation grows with the state it has accumulated (installed
//! chains; updates applied so far), so only operations at the same position
//! of a pass are comparable — which is what `stats::best_of_passes` uses.
//!
//! WAN latency is the control plane's virtual time (`DeploymentReport`),
//! not wall time; wall time is what this host spends computing.

use crate::metrics::Outcome;
use crate::spans::{Tracer, ROOT};
use crate::{repeat_setup, stats, sys, Args};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sb_artifact::{read_artifact, write_artifact, ArtifactWatcher, WatchEvent};
use sb_controller::{ChainHandle, ChainRequest, DeploymentReport};
use sb_dataplane::artifact::{decode, encode};
use sb_dataplane::{Addr, ArtifactKind, Forwarder, Packet, SiteArtifact};
use sb_msgbus::DelayModel;
use sb_te::batch::SubproblemCache;
use sb_te::dp::{route_chains, DpConfig};
use sb_te::{route_chains_batched, NetworkModel};
use sb_types::{ChainId, EdgeInstanceId, FlowKey, ForwarderId, LabelPair, Millis, SiteId};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use switchboard::scenarios::{fleet, FleetConfig};
use switchboard::{Switchboard, SwitchboardConfig};

pub struct FleetWorkload {
    pub update: bool,
}

/// Problem sizes `(chains per deploy pass, chains under the flap, updates
/// per flap pass)`. The driver's time cap — set-up is repeated in every
/// run, and a window must hold several passes — is what keeps them below
/// the 1 000 chains of `BENCH_controlplane.json`.
const SIZES: (usize, usize, usize) = (400, 60, 64);
const QUICK_SIZES: (usize, usize, usize) = (200, 40, 32);
/// Site capacity as a multiple of expected load: high enough that 2PC
/// never vetoes a flap, so no operation fails at the baseline.
const HEADROOM: f64 = 64.0;
/// Chains standing on their alternative route at any time: an update to the
/// alternative is followed by one back to the SB-DP route of the chain
/// flipped `FLAP_LAG` updates earlier, so the two directions alternate.
const FLAP_LAG: usize = 16;

fn sub_seed(seed: u64, stream: u64) -> u64 {
    (seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

fn wire() -> Addr {
    Addr::Edge(EdgeInstanceId::new(0))
}

fn attachment(site: SiteId) -> String {
    format!("site{}", site.value())
}

/// The generated inputs: the model (chains included, for the TE probes) and
/// one deploy request per chain in seeded order.
struct Inputs {
    model: NetworkModel,
    requests: Vec<ChainRequest>,
    ingress: HashMap<ChainId, SiteId>,
}

impl Inputs {
    fn generate(seed: u64, chains: usize) -> Self {
        let model = fleet(&FleetConfig {
            num_chains: chains,
            capacity_headroom: HEADROOM,
            seed,
            ..FleetConfig::default()
        });
        let site_of: HashMap<_, _> = model
            .sites()
            .into_iter()
            .map(|s| (model.site_node(s), s))
            .collect();
        let mut ingress = HashMap::new();
        let mut requests: Vec<ChainRequest> = model
            .chains()
            .iter()
            .map(|c| {
                ingress.insert(c.id, site_of[&c.ingress]);
                ChainRequest {
                    id: c.id,
                    ingress_attachment: attachment(site_of[&c.ingress]),
                    egress_attachment: attachment(site_of[&c.egress]),
                    vnfs: c.vnfs.clone(),
                    forward: c.forward[0],
                    reverse: c.reverse[0],
                }
            })
            .collect();
        requests.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 1)));
        Self {
            model,
            requests,
            ingress,
        }
    }

    fn boot(&self) -> Switchboard {
        let mut sb = Switchboard::new(
            self.model.with_chains(Vec::new()),
            DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.use_passthrough_behaviors();
        for site in self.model.sites() {
            sb.register_attachment(attachment(site), site);
        }
        sb
    }
}

// ------------------------------------------------- counts at the boundary

/// Counters the control plane and bus keep in the deployment's registry.
#[derive(Clone, Copy, Default, PartialEq)]
struct Registry {
    commits: u64,
    aborts: u64,
    retries: u64,
    epochs_retired: u64,
    published: u64,
    wan: u64,
    local: u64,
    dropped: u64,
}

impl Registry {
    fn read(sb: &Switchboard) -> Self {
        let s = sb.telemetry().registry.snapshot();
        Self {
            commits: s.counter("cp.2pc.commits"),
            aborts: s.counter("cp.2pc.aborts"),
            retries: s.counter("cp.2pc.retries"),
            epochs_retired: s.counter("cp.epochs.retired"),
            published: s.counter("bus.published"),
            wan: s.counter("bus.wan_messages"),
            local: s.counter("bus.local_messages"),
            dropped: s.counter("bus.dropped"),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            commits: self.commits - before.commits,
            aborts: self.aborts - before.aborts,
            retries: self.retries - before.retries,
            epochs_retired: self.epochs_retired - before.epochs_retired,
            published: self.published - before.published,
            wan: self.wan - before.wan,
            local: self.local - before.local,
            dropped: self.dropped - before.dropped,
        }
    }
}

/// What one pass counted: the operations' `DeploymentReport`s and the
/// registry's counter deltas. A pure function of the seed, so every pass of
/// a run must count the same.
#[derive(Default, PartialEq)]
struct Ledger {
    ops: usize,
    failed: u64,
    total_ms: Vec<f64>,
    steps_ms: BTreeMap<&'static str, f64>,
    wan_messages: usize,
    participants: usize,
    registry: Registry,
}

impl Ledger {
    fn add(&mut self, r: &DeploymentReport) {
        self.ops += 1;
        self.total_ms.push(r.total().value());
        for (name, d) in &r.steps {
            let step = if name.contains("two-phase") {
                "controller.vt_2pc_ms"
            } else if name.contains("propagate") || name.contains("publish") {
                "controller.vt_propagate_ms"
            } else if name.contains("install") {
                "controller.vt_install_ms"
            } else if name.contains("shift") {
                "controller.vt_shift_ms"
            } else if name.contains("retire") {
                "controller.vt_retire_ms"
            } else {
                // resolve / compute / diff: deciding what to change.
                "controller.vt_diff_ms"
            };
            *self.steps_ms.entry(step).or_default() += d.value();
        }
        self.wan_messages += r.wan_messages;
        self.participants += r.participants_2pc;
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.ops.max(1) as f64;
        out.set("controller.vt_total_ms_p50", stats::median(&self.total_ms));
        for (&name, &sum) in &self.steps_ms {
            out.set(name, sum / n);
        }
        out.set("controller.wan_msgs_per_op", self.wan_messages as f64 / n);
        out.set(
            "controller.participants_2pc_per_op",
            self.participants as f64 / n,
        );
        let r = &self.registry;
        out.set("msgbus.published_per_op", r.published as f64 / n);
        out.set("msgbus.wan_per_op", r.wan as f64 / n);
        out.set("msgbus.local_per_op", r.local as f64 / n);
        out.set("msgbus.dropped", r.dropped as f64);
        out.set("controller.commits_2pc", r.commits as f64);
        out.set("controller.aborts_2pc", r.aborts as f64);
        out.set("controller.retries_2pc", r.retries as f64);
        out.set("controller.epochs_retired", r.epochs_retired as f64);
    }
}

fn report_telemetry(sb: &Switchboard, out: &mut Outcome) {
    let hub = sb.telemetry();
    let dropped = hub.tracer.dropped();
    out.set(
        "telemetry.spans_recorded",
        hub.tracer.len() as f64 + dropped as f64,
    );
    out.set("telemetry.spans_dropped", dropped as f64);
    let t = Instant::now();
    black_box(hub.export_json());
    out.set("telemetry.export_ms", t.elapsed().as_secs_f64() * 1e3);
}

// ------------------------------------------------------------ correctness

/// Checks on a deployment's final state: every stored artifact decodes to
/// itself, and one packet per chain is delivered through every VNF stage.
fn verify_deployment(sb: &mut Switchboard, inputs: &Inputs, out: &mut Outcome) {
    for site in sb.artifact_sites() {
        let art = sb.site_artifact(site).expect("listed site");
        let bytes = sb.site_artifact_bytes(site).expect("listed site");
        let round_trip = decode(bytes).ok().as_ref() == Some(art);
        out.check(round_trip, || format!("{site}: decode(bytes) != artifact"));
    }
    for (i, req) in inputs.requests.iter().enumerate() {
        let key = FlowKey::udp(
            [172, 16, (i >> 8) as u8, i as u8],
            7000,
            [192, 168, 0, 1],
            9000,
        );
        let transit = sb.send(req.id, inputs.ingress[&req.id], Packet::unlabeled(key, 64));
        let through = transit.as_ref().map_or(0, |t| {
            if t.delivered {
                t.vnf_instances().len()
            } else {
                0
            }
        });
        out.check(through == req.vnfs.len() && transit.is_ok(), || {
            format!(
                "{}: packet crossed {through} of {} VNFs: {transit:?}",
                req.id,
                req.vnfs.len()
            )
        });
    }
}

// ------------------------------------------------------------------ probes

/// Quantile, in microseconds, of the tracer's spans named `name`.
fn span_us(tracer: &Tracer, name: &str, q: f64) -> f64 {
    let mut d = tracer.durations(name);
    stats::sort(&mut d);
    stats::quantile(&d, q) / 1e3
}

/// Times `f` on every item, returning the median in microseconds.
fn probe_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = items
        .iter()
        .map(|item| {
            let t = Instant::now();
            f(item);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Export, encode and decode of the deployment's stored artifacts of
/// `kind`, timed from outside (traced run only). A full export must also
/// reproduce the artifact the controller stored for the site.
fn probe_artifacts(sb: &Switchboard, kind: ArtifactKind, out: &mut Outcome) {
    let cp = sb.control_plane();
    let arts: Vec<(SiteId, &SiteArtifact)> = sb
        .artifact_sites()
        .into_iter()
        .filter_map(|s| {
            sb.site_artifact(s)
                .filter(|a| a.kind == kind)
                .map(|a| (s, a))
        })
        .collect();
    let mut stale = 0usize;
    let export_us = probe_us(&arts, |&(site, art)| {
        let local = cp
            .local(site)
            .expect("artifact site has a local switchboard");
        let again = match kind {
            ArtifactKind::Full => local.export_site_artifact(art.epoch),
            ArtifactKind::Patch => {
                let mut labels: Vec<LabelPair> = art
                    .forwarders
                    .iter()
                    .flat_map(|f| {
                        f.rows
                            .iter()
                            .map(|r| r.labels)
                            .chain(f.removed.iter().copied())
                    })
                    .collect();
                labels.sort_unstable();
                labels.dedup();
                local.export_patch_artifact(&labels, art.epoch)
            }
        };
        stale += usize::from(&again != art);
    });
    // A patch is a snapshot of its labels at its epoch and later updates of
    // the site move on, so only full exports must match.
    out.check(kind == ArtifactKind::Patch || stale == 0, || {
        format!("{stale} sites re-export differently from their stored artifact")
    });
    out.set("controller.export_us_p50", export_us);
    out.set(
        "codec.encode_us_p50",
        probe_us(&arts, |&(_, a)| drop(black_box(encode(a)))),
    );
    let encoded: Vec<Vec<u8>> = arts.iter().map(|&(_, a)| encode(a)).collect();
    out.set(
        "codec.decode_us_p50",
        probe_us(&encoded, |b| drop(black_box(decode(b)))),
    );
}

// ------------------------------------------------------------------ passes

/// One pass: the times of its operations in order, its wall time, whether
/// it was traced, and what it counted.
struct Pass<C> {
    op_ns: Vec<f64>,
    wall_ns: u64,
    traced: bool,
    counted: C,
}

/// Repeats `pass` on a fresh state until the window has elapsed (whole
/// passes only). A traced run traces every second pass and runs at least
/// two, so the tracing overhead is measured on identical work. Returns the
/// passes and the last state; earlier states are dropped as soon as the
/// next one exists.
fn run_passes<S, C>(
    args: &Args,
    tracer: &mut Tracer,
    first: S,
    mut fresh: impl FnMut() -> S,
    mut pass: impl FnMut(&mut S, &mut Tracer, u32) -> (Vec<f64>, C),
) -> (Vec<Pass<C>>, S) {
    let limit = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut state = first;
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_on(traced);
        let started = Instant::now();
        let (op_ns, counted) = pass(&mut state, tracer, passes.len() as u32);
        passes.push(Pass {
            op_ns,
            wall_ns: started.elapsed().as_nanos() as u64,
            traced,
            counted,
        });
        if t0.elapsed() >= limit && !(args.trace && passes.len() < 2) {
            tracer.set_on(false);
            return (passes, state);
        }
        drop(state);
        state = fresh();
    }
}

/// The end-to-end rate and latency, the pooled per-operation times (ms,
/// sorted) and — on a traced run — the tracing overhead.
fn report_passes<C: PartialEq>(passes: &[Pass<C>], trace: bool, out: &mut Outcome) -> Vec<f64> {
    let of = |traced: bool| -> Vec<&[f64]> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.op_ns.as_slice())
            .collect()
    };
    let all: Vec<&[f64]> = passes.iter().map(|p| p.op_ns.as_slice()).collect();
    out.set_quiet(&stats::best_of_passes(&all));
    out.attempted = all.iter().map(|p| p.len() as u64).sum();
    out.check(
        passes.iter().all(|p| p.counted == passes[0].counted),
        || "passes of one seed counted differently".into(),
    );
    if trace {
        let rate = |traced| stats::best_of_passes(&of(traced)).ops_per_s;
        out.set("trace.overhead_share", 1.0 - rate(true) / rate(false));
    }
    let mut ms: Vec<f64> = all
        .iter()
        .flat_map(|p| p.iter().map(|ns| ns / 1e6))
        .collect();
    stats::sort(&mut ms);
    ms
}

// ------------------------------------------------------------------ deploy

fn deploy_pass(
    inputs: &Inputs,
    sb: &mut Switchboard,
    tracer: &mut Tracer,
    pass: u32,
) -> (Vec<f64>, Ledger) {
    let before = Registry::read(sb);
    let mut ledger = Ledger::default();
    let mut op_ns = Vec::with_capacity(inputs.requests.len());
    for (i, req) in inputs.requests.iter().enumerate() {
        let req = req.clone();
        let op = pass * inputs.requests.len() as u32 + i as u32;
        let (res, ns) = tracer.call("controller", ROOT, op, || sb.deploy_chain(req));
        op_ns.push(ns as f64);
        match res {
            Ok(handle) => ledger.add(&handle.report),
            Err(_) => ledger.failed += 1,
        }
    }
    ledger.registry = Registry::read(sb).since(before);
    (op_ns, ledger)
}

fn run_deploy(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let chains = if args.quick { QUICK_SIZES.0 } else { SIZES.0 };
    let (inputs, setup_s) = repeat_setup(|| Inputs::generate(args.seed, chains));

    let (passes, mut sb) = run_passes(
        args,
        tracer,
        inputs.boot(),
        || inputs.boot(),
        |sb, tracer, pass| deploy_pass(&inputs, sb, tracer, pass),
    );
    out.set("rss_mb", sys::vm_kib("VmHWM") / 1024.0);
    out.set("setup_s", setup_s);
    let deploy_ms = report_passes(&passes, args.trace, &mut out);
    out.failed = passes.iter().map(|p| p.counted.failed).sum();
    verify_deployment(&mut sb, &inputs, &mut out);
    if !args.trace {
        return out;
    }

    out.set("controller.ops", deploy_ms.len() as f64);
    out.set("controller.failures", out.failed as f64);
    out.set("controller.busy_s", deploy_ms.iter().sum::<f64>() / 1e3);
    out.set("controller.deploy_ms_p50", stats::quantile(&deploy_ms, 0.5));
    out.set(
        "controller.deploy_ms_p99",
        stats::quantile(&deploy_ms, 0.99),
    );
    // Growth with installed state: the same positions of every pass.
    let edge = 100.min(chains);
    let at = |range: std::ops::Range<usize>| -> f64 {
        let ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.op_ns[range.clone()].iter().map(|ns| ns / 1e6))
            .collect();
        stats::median(&ms)
    };
    out.set("controller.deploy_ms_first100_p50", at(0..edge));
    out.set(
        "controller.deploy_ms_last100_p50",
        at(chains - edge..chains),
    );
    passes[0].counted.report(&mut out);
    report_telemetry(&sb, &mut out);
    probe_artifacts(&sb, ArtifactKind::Full, &mut out);
    let sizes: Vec<f64> = sb
        .artifact_sites()
        .iter()
        .filter_map(|&s| sb.site_artifact_bytes(s))
        .map(|b| b.len() as f64)
        .collect();
    out.set(
        "codec.bytes_per_artifact",
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
    );

    // te: the solver alone on the same chains — batched with the shared
    // subproblem cache, and cold.
    let dp = DpConfig::default();
    let mut cache = SubproblemCache::new();
    let t = Instant::now();
    black_box(route_chains_batched(&inputs.model, &dp, &mut cache));
    out.set(
        "te.solve_us_per_chain",
        t.elapsed().as_secs_f64() * 1e6 / chains as f64,
    );
    out.set("te.cache_hit_ratio", cache.stats().hit_rate());
    let t = Instant::now();
    black_box(route_chains(&inputs.model, &dp));
    out.set(
        "te.cold_solve_us_per_chain",
        t.elapsed().as_secs_f64() * 1e6 / chains as f64,
    );

    out.set("trace.spans", tracer.len() as f64);
    // Share of the traced passes' wall time inside named spans.
    let in_spans: u64 = tracer.totals().values().map(|t| t.self_ns).sum();
    let traced_ns: u64 = passes.iter().filter(|p| p.traced).map(|p| p.wall_ns).sum();
    out.set(
        "trace.attributed_share",
        in_spans as f64 / traced_ns.max(1) as f64,
    );
    eprint!("{}", tracer.table(traced_ns));
    out
}

// ------------------------------------------------------------------ update

type Routes = Vec<(Vec<SiteId>, f64)>;

fn routes_of(handle: &ChainHandle) -> Routes {
    handle
        .routes
        .iter()
        .map(|r| (r.sites.clone(), r.fraction))
        .collect()
}

/// The standalone data plane of one site: forwarders booted from and
/// patched by the artifact file the control plane publishes.
struct StandaloneSite {
    path: PathBuf,
    watcher: ArtifactWatcher,
    forwarders: Vec<Forwarder>,
}

/// What one flap pass counted beyond its [`Ledger`].
#[derive(Default, PartialEq)]
struct FlapCount {
    ledger: Ledger,
    /// `(files, bytes)` published per update.
    published: Vec<(usize, usize)>,
    /// `(rebuilds, patches, generations)` of the standalone forwarders.
    fib: [u64; 3],
}

/// A deployed fleet with its standalone data plane and flap plan.
struct Flap {
    sb: Switchboard,
    sites: HashMap<SiteId, StandaloneSite>,
    dir: PathBuf,
    /// Chains in flap order with their SB-DP routes and alternative.
    plan: Vec<(ChainId, Routes, Routes)>,
    count: FlapCount,
    times: FlapTimes,
}

/// What a flap measured that depends on timing, so is not part of its
/// [`FlapCount`].
#[derive(Default)]
struct FlapTimes {
    /// The `update_chain` calls alone.
    controller_ns: Vec<f64>,
    /// Time inside `write_artifact`, and of whole updates including it.
    publish_ns: u64,
    total_ns: u64,
    /// Publishes the watcher did not report as a change (it goes by
    /// length and mtime).
    watch_missed: u64,
}

impl Flap {
    /// Deploys the fleet, publishes every site's `Full` artifact, boots the
    /// standalone data plane from the files as `sb run-forwarder` does, and
    /// flaps the first `FLAP_LAG` chains to reach the stationary state.
    fn new(inputs: &Inputs, seed: u64, problems: &mut Vec<String>) -> Self {
        let mut sb = inputs.boot();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        let mut plan = Vec::with_capacity(inputs.requests.len());
        for req in &inputs.requests {
            match sb.deploy_chain(req.clone()) {
                Ok(handle) => {
                    let a = routes_of(&handle);
                    // B: another hosting site for every stage of A's first route.
                    let b: Vec<SiteId> = req
                        .vnfs
                        .iter()
                        .zip(&a[0].0)
                        .map(|(&vnf, &taken)| {
                            let hosts = inputs.model.vnf(vnf).expect("catalog VNF").sites();
                            let others: Vec<SiteId> =
                                hosts.into_iter().filter(|&s| s != taken).collect();
                            others[rng.gen_range(0..others.len())]
                        })
                        .collect();
                    plan.push((req.id, a, vec![(b, 1.0)]));
                }
                Err(e) => problems.push(format!("set-up deploy of {}: {e}", req.id)),
            }
        }
        plan.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 3)));

        let dir = sys::out_dir().join(format!("sites-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create artifact directory");
        let mut sites = HashMap::new();
        for site in inputs.model.sites() {
            let path = dir.join(format!("site{}.{}", site.value(), sb_artifact::EXTENSION));
            let mut watcher = ArtifactWatcher::new(&path);
            let mut forwarders = Vec::new();
            if let Some(art) = sb.site_artifact(site) {
                write_artifact(&path, art).expect("publish full artifact");
                let read = read_artifact(&path).expect("read back full artifact");
                if &read != art || art.kind != ArtifactKind::Full {
                    problems.push(format!("{site}: boot artifact did not survive the file"));
                }
                forwarders = read
                    .forwarders
                    .iter()
                    .map(|fa| Forwarder::from_artifact(site, fa))
                    .collect();
                let _ = watcher.poll();
            }
            sites.insert(
                site,
                StandaloneSite {
                    path,
                    watcher,
                    forwarders,
                },
            );
        }
        let mut flap = Self {
            sb,
            sites,
            dir,
            plan,
            count: FlapCount::default(),
            times: FlapTimes::default(),
        };
        let mut untraced = Tracer::new();
        for i in 0..FLAP_LAG.min(flap.plan.len()) {
            flap.update(i, true, &mut untraced, 0);
        }
        let warm = std::mem::take(&mut flap.count);
        if warm.ledger.failed > 0 {
            problems.push(format!("{} set-up flaps failed", warm.ledger.failed));
        }
        flap.times = FlapTimes::default();
        flap
    }

    /// One pass of `updates` operations: even ones move the chain
    /// `FLAP_LAG` ahead to its alternative, odd ones move the oldest flipped
    /// chain back.
    fn pass(&mut self, updates: usize, tracer: &mut Tracer, pass: u32) -> (Vec<f64>, FlapCount) {
        let before = Registry::read(&self.sb);
        let fib_before = self.fib_counters();
        let n = self.plan.len();
        let op_ns = (0..updates)
            .map(|i| {
                let op = pass * updates as u32 + i as u32;
                if i % 2 == 0 {
                    self.update((i / 2 + FLAP_LAG) % n, true, tracer, op)
                } else {
                    self.update((i / 2) % n, false, tracer, op)
                }
            })
            .collect();
        let fib = self.fib_counters();
        let mut count = std::mem::take(&mut self.count);
        count.ledger.registry = Registry::read(&self.sb).since(before);
        count.fib = [
            fib[0] - fib_before[0],
            fib[1] - fib_before[1],
            fib[2] - fib_before[2],
        ];
        (op_ns, count)
    }

    /// One route update through the whole path, timed from the
    /// `update_chain` call to the first packet forwarded on the new epoch
    /// at every site of the new routes. Returns that time in nanoseconds,
    /// less the time inside `write_artifact`: on the sandbox's disk the
    /// rename-replace publish is a synchronous flush that takes a quarter
    /// to a half of the path and differs fourfold from run to run, which
    /// no estimate within a run can remove. The publish still happens and
    /// is a layer metric (`artifact.write_us_p50`, `artifact.write_share`).
    fn update(&mut self, idx: usize, to_b: bool, tracer: &mut Tracer, op: u32) -> f64 {
        let (chain, a, b) = &self.plan[idx];
        let chain = *chain;
        let target = if to_b { b.clone() } else { a.clone() };
        let mut affected: Vec<SiteId> = a
            .iter()
            .chain(b)
            .flat_map(|(sites, _)| sites.iter().copied())
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let key = FlowKey::udp(
            [172, 17, (op >> 8) as u8, op as u8],
            (op >> 16) as u16,
            [192, 168, 0, 1],
            9000,
        );
        let mut firsts: Vec<(SiteId, ForwarderId, Packet, Addr)> = Vec::new();
        let mut ok = true;
        let mut published = (0usize, 0usize);
        let mut publish_ns = 0u64;

        let start = Instant::now();
        let span = tracer.begin("update", op, start);
        let (res, controller_ns) = tracer.call("controller", span, op, || {
            self.sb.update_chain(chain, target)
        });
        if let Ok(handle) = &res {
            let epoch = handle.routes.iter().map(|r| r.epoch).max().unwrap_or(0);
            // Control-plane side: every participant's patch is published
            // atomically to the file its site watches.
            for &site in &affected {
                let art = self
                    .sb
                    .site_artifact(site)
                    .filter(|a| a.epoch == epoch && a.kind == ArtifactKind::Patch);
                let Some(art) = art else {
                    ok = false;
                    continue;
                };
                let path = &self.sites[&site].path;
                let (written, write_ns) =
                    tracer.call("artifact.write", span, op, || write_artifact(path, art));
                publish_ns += write_ns;
                published.0 += 1;
                published.1 += written.unwrap_or(0);
            }
            // Data-plane side: notice, read + decode, hot-swap.
            for &site in &affected {
                let s = self.sites.get_mut(&site).expect("every site has a slot");
                let (event, _) = tracer.call("artifact.poll", span, op, || s.watcher.poll());
                self.times.watch_missed += u64::from(event != WatchEvent::Changed);
                let (read, _) = tracer.call("artifact.read", span, op, || read_artifact(&s.path));
                let Some(read) = read.ok().filter(|a| a.epoch == epoch) else {
                    ok = false;
                    continue;
                };
                for fa in &read.forwarders {
                    tracer.call("dataplane.forwarder.apply", span, op, || {
                        match s.forwarders.iter_mut().find(|f| f.id() == fa.forwarder) {
                            Some(f) => f.apply_artifact(fa, read.kind),
                            None => s.forwarders.push(Forwarder::from_artifact(site, fa)),
                        }
                    });
                }
            }
            for route in &handle.routes {
                let pkt = Packet::labeled(route.labels, key, 64);
                for &site in &route.sites {
                    let s = self.sites.get_mut(&site).expect("every site has a slot");
                    let mut served = false;
                    for f in &mut s.forwarders {
                        if f.active_epoch(route.labels) != Some(route.epoch) {
                            continue;
                        }
                        let (hop, _) =
                            tracer.call("dataplane.forwarder.first_pkt", span, op, || {
                                f.process(pkt, wire())
                            });
                        match hop {
                            Ok((_, hop)) => {
                                served = true;
                                firsts.push((site, f.id(), pkt, hop));
                            }
                            Err(_) => ok = false,
                        }
                    }
                    ok &= served;
                }
            }
        }
        let end = Instant::now();
        tracer.end(span, end);

        // Outside the timed path: the in-process forwarder must pick the
        // same next hop; then the probe flow is forgotten on both sides.
        for (site, fid, pkt, hop) in firsts {
            let labels = pkt.labels.expect("probe packets are labeled");
            let s = self.sites.get_mut(&site).expect("every site has a slot");
            if let Some(f) = s.forwarders.iter_mut().find(|f| f.id() == fid) {
                f.expire_connection(labels, pkt.key);
            }
            let inproc = self
                .sb
                .control_plane_mut()
                .local_mut(site)
                .and_then(|l| l.forwarder_mut(fid));
            match inproc {
                Some(f) => {
                    ok &= f.process(pkt, wire()).ok().map(|(_, h)| h) == Some(hop);
                    f.expire_connection(labels, pkt.key);
                }
                None => ok = false,
            }
        }
        match &res {
            Ok(handle) => self.count.ledger.add(&handle.report),
            Err(_) => ok = false,
        }
        self.count.ledger.failed += u64::from(!ok);
        self.count.published.push(published);
        self.times.controller_ns.push(controller_ns as f64);
        let total_ns = end.duration_since(start).as_nanos() as u64;
        self.times.publish_ns += publish_ns;
        self.times.total_ns += total_ns;
        (total_ns - publish_ns) as f64
    }

    /// `(rebuilds, patches, generations)` summed over the standalone
    /// forwarders.
    fn fib_counters(&self) -> [u64; 3] {
        let mut sum = [0; 3];
        for f in self.sites.values().flat_map(|s| &s.forwarders) {
            let (rebuilds, patches) = f.fib_recompilations();
            sum[0] += rebuilds;
            sum[1] += patches;
            sum[2] += f.fib_generation();
        }
        sum
    }
}

impl Drop for Flap {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run_update(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (_, chains, updates) = if args.quick { QUICK_SIZES } else { SIZES };
    let mut problems = Vec::new();
    let ((inputs, first), setup_s) = repeat_setup(|| {
        let inputs = Inputs::generate(args.seed, chains);
        let flap = Flap::new(&inputs, args.seed, &mut problems);
        (inputs, flap)
    });

    let mut times: Vec<FlapTimes> = Vec::new();
    let (passes, mut flap) = run_passes(
        args,
        tracer,
        first,
        || Flap::new(&inputs, args.seed, &mut problems),
        |flap, tracer, pass| {
            let done = flap.pass(updates, tracer, pass);
            times.push(std::mem::take(&mut flap.times));
            done
        },
    );
    out.problems.append(&mut problems);
    out.set("rss_mb", sys::vm_kib("VmHWM") / 1024.0);
    out.set("setup_s", setup_s);
    report_passes(&passes, args.trace, &mut out);
    out.failed = passes.iter().map(|p| p.counted.ledger.failed).sum();
    verify_deployment(&mut flap.sb, &inputs, &mut out);
    if !args.trace {
        return out;
    }

    let mut controller_ms: Vec<f64> = times
        .iter()
        .flat_map(|t| t.controller_ns.iter().map(|ns| ns / 1e6))
        .collect();
    stats::sort(&mut controller_ms);
    out.set("controller.ops", controller_ms.len() as f64);
    out.set("controller.failures", out.failed as f64);
    out.set("controller.busy_s", controller_ms.iter().sum::<f64>() / 1e3);
    out.set(
        "controller.update_ms_p50",
        stats::quantile(&controller_ms, 0.5),
    );
    out.set(
        "controller.update_ms_p99",
        stats::quantile(&controller_ms, 0.99),
    );
    let count = &passes[0].counted;
    count.ledger.report(&mut out);
    report_telemetry(&flap.sb, &mut out);
    probe_artifacts(&flap.sb, ArtifactKind::Patch, &mut out);

    let files: usize = count.published.iter().map(|p| p.0).sum();
    let bytes: usize = count.published.iter().map(|p| p.1).sum();
    out.set("artifact.files_per_update", files as f64 / updates as f64);
    out.set(
        "codec.bytes_per_artifact",
        bytes as f64 / files.max(1) as f64,
    );
    let watch_missed: u64 = times.iter().map(|t| t.watch_missed).sum();
    out.set("artifact.watch_missed", watch_missed as f64);
    out.set(
        "artifact.write_us_p50",
        span_us(tracer, "artifact.write", 0.5),
    );
    let publish_ns: u64 = times.iter().map(|t| t.publish_ns).sum();
    let total_ns: u64 = times.iter().map(|t| t.total_ns).sum();
    out.set(
        "artifact.write_share",
        publish_ns as f64 / total_ns.max(1) as f64,
    );
    out.set(
        "artifact.poll_us_p50",
        span_us(tracer, "artifact.poll", 0.5),
    );
    out.set(
        "artifact.read_us_p50",
        span_us(tracer, "artifact.read", 0.5),
    );
    let totals = tracer.totals();
    let apply = totals
        .get("dataplane.forwarder.apply")
        .copied()
        .unwrap_or_default();
    out.set("forwarder.apply_calls", apply.calls as f64);
    out.set(
        "forwarder.apply_us_p50",
        span_us(tracer, "dataplane.forwarder.apply", 0.5),
    );
    out.set(
        "forwarder.apply_us_p99",
        span_us(tracer, "dataplane.forwarder.apply", 0.99),
    );
    out.set(
        "forwarder.first_pkt_us_p50",
        span_us(tracer, "dataplane.forwarder.first_pkt", 0.5),
    );
    out.set("fib.rebuilds", count.fib[0] as f64);
    out.set("fib.patches", count.fib[1] as f64);
    out.set("fib.generations", count.fib[2] as f64);
    out.set(
        "fib.rows",
        flap.sites
            .values()
            .flat_map(|s| &s.forwarders)
            .map(|f| f.fib_reader().snapshot().len())
            .sum::<usize>() as f64,
    );

    out.set("trace.spans", tracer.len() as f64);
    // Share of the traced updates' time inside named layer spans.
    let update = totals.get("update").copied().unwrap_or_default();
    out.set(
        "trace.attributed_share",
        1.0 - update.self_ns as f64 / update.total_ns.max(1) as f64,
    );
    eprint!("{}", tracer.table(update.total_ns));
    out
}

pub fn run(w: &FleetWorkload, args: &Args, tracer: &mut Tracer) -> Outcome {
    if w.update {
        run_update(args, tracer)
    } else {
        run_deploy(args, tracer)
    }
}
