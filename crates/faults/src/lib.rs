//! Deterministic, seedable fault injection for the Switchboard reproduction.
//!
//! The paper's control plane (Section 5) must stay correct when the wide
//! area misbehaves: messages are lost or reordered, sites crash mid-deploy,
//! and two-phase-commit participants time out. This crate supplies the
//! simulated adversary: a [`FaultPlan`] built from a declarative
//! [`FaultSpec`] that decides, per event, whether to drop, duplicate, or
//! delay a bus message, whether a site is down at a simulated instant, and
//! whether a 2PC prepare/commit RPC times out.
//!
//! # Determinism contract
//!
//! A plan is driven by a seeded RNG and **no wall clock**: given the same
//! seed and the same sequence of calls (same order, same arguments on the
//! calls that consume randomness), a plan produces the same outcomes. Crash
//! windows are pure functions of simulated time and consume no randomness,
//! so they may be queried freely without perturbing the stream. This is
//! what makes chaos tests reproducible from a single `u64` seed.
//!
//! # Examples
//!
//! ```
//! use sb_faults::{FaultPlan, FaultSpec, MessageFate};
//! use sb_netsim::SimTime;
//! use sb_types::SiteId;
//!
//! let spec = FaultSpec::new(42).with_drop_probability(1.0);
//! let mut plan = FaultPlan::new(spec);
//! let fate = plan.message_fate(SimTime::ZERO, SiteId::new(0), SiteId::new(1));
//! assert_eq!(fate, MessageFate::Drop);
//! assert_eq!(plan.stats().dropped, 1);
//! ```

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_netsim::SimTime;
use sb_telemetry::{Counter, Telemetry};
use sb_types::{InstanceId, Millis, SiteId};

/// Probabilistic fault rates for one direction of a site pair.
#[derive(Debug, Clone)]
pub struct PairFaults {
    /// Source site of the wide-area hop.
    pub from: SiteId,
    /// Destination site of the wide-area hop.
    pub to: SiteId,
    /// Probability that a message on this hop is dropped.
    pub drop_probability: f64,
    /// Probability that a message on this hop is duplicated.
    pub duplicate_probability: f64,
    /// Probability that a message on this hop is delayed.
    pub delay_probability: f64,
}

impl PairFaults {
    /// A pair override that drops every message from `from` to `to`.
    #[must_use]
    pub fn blackhole(from: SiteId, to: SiteId) -> Self {
        Self {
            from,
            to,
            drop_probability: 1.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
        }
    }
}

/// A site outage over simulated time: down from `from` (inclusive) until
/// `until` (exclusive), or forever when `until` is `None`.
#[derive(Debug, Clone)]
pub struct CrashWindow {
    /// The crashed site.
    pub site: SiteId,
    /// Crash instant.
    pub from: SimTime,
    /// Recovery instant, or `None` if permanent.
    pub until: Option<SimTime>,
}

impl CrashWindow {
    /// A permanent crash starting at `from`.
    #[must_use]
    pub fn permanent(site: SiteId, from: SimTime) -> Self {
        Self {
            site,
            from,
            until: None,
        }
    }

    /// A crash at `from` with recovery at `until`.
    #[must_use]
    pub fn recovering(site: SiteId, from: SimTime, until: SimTime) -> Self {
        Self {
            site,
            from,
            until: Some(until),
        }
    }

    /// Whether the site is down at `at`.
    #[must_use]
    pub fn covers(&self, at: SimTime) -> bool {
        at >= self.from && self.until.is_none_or(|u| at < u)
    }
}

/// A scheduled forwarder restart: at `at`, every forwarder at `site` loses
/// its volatile flow-table state (pinned flows) while its installed rules —
/// pushed from the controller's persistent store — survive. Surviving flows
/// re-pin deterministically on their next packet (Section 5.3's flow
/// affinity is soft state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwarderRestart {
    /// The site whose forwarders restart.
    pub site: SiteId,
    /// When the restart (and state loss) takes effect.
    pub at: SimTime,
}

impl ForwarderRestart {
    /// A restart of `site`'s forwarders at `at`.
    #[must_use]
    pub fn new(site: SiteId, at: SimTime) -> Self {
        Self { site, at }
    }
}

/// A scheduled VNF instance crash: at `at`, `instance` dies permanently.
/// Forwarders that load-balance over it must fail remaining flows over to
/// the surviving instances while leaving unaffected flows pinned where they
/// are (Section 5.3's affinity guarantee under churn). Like
/// [`ForwarderRestart`], crashes are scheduled events, not probabilistic
/// ones: they consume no randomness and fire exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VnfCrash {
    /// The VNF instance that dies.
    pub instance: InstanceId,
    /// When the crash takes effect.
    pub at: SimTime,
}

impl VnfCrash {
    /// A crash of `instance` at `at`.
    #[must_use]
    pub fn new(instance: InstanceId, at: SimTime) -> Self {
        Self { instance, at }
    }
}

/// Which control-plane RPC a timeout decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcPhase {
    /// Two-phase-commit prepare.
    Prepare,
    /// Two-phase-commit commit.
    Commit,
}

impl RpcPhase {
    /// Stable lowercase name, used in trace attributes and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RpcPhase::Prepare => "prepare",
            RpcPhase::Commit => "commit",
        }
    }
}

impl std::fmt::Display for RpcPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Declarative description of the faults to inject. Feed it to
/// [`FaultPlan::new`].
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// RNG seed. Identical specs with identical seeds replay identically.
    pub seed: u64,
    /// Default per-message drop probability on wide-area hops.
    pub drop_probability: f64,
    /// Default per-message duplication probability on wide-area hops.
    pub duplicate_probability: f64,
    /// Default per-message extra-delay probability on wide-area hops.
    pub delay_probability: f64,
    /// Upper bound on injected extra delay (uniform in `(0, max]`).
    pub max_extra_delay: Millis,
    /// Per-site-pair overrides; first match wins.
    pub pair_overrides: Vec<PairFaults>,
    /// Site outages over simulated time.
    pub crashes: Vec<CrashWindow>,
    /// Probability that a 2PC prepare RPC times out.
    pub prepare_timeout_probability: f64,
    /// Probability that a 2PC commit RPC times out.
    pub commit_timeout_probability: f64,
    /// Scheduled forwarder restarts (flow-table state loss).
    pub restarts: Vec<ForwarderRestart>,
    /// Per-packet loss probability on the label-switched data path. Drawn
    /// from a dedicated RNG stream (see [`FaultPlan::packet_is_lost`]), so
    /// data-plane volume never perturbs control-plane fates.
    pub packet_loss_probability: f64,
    /// Scheduled VNF instance crashes.
    pub vnf_crashes: Vec<VnfCrash>,
}

impl FaultSpec {
    /// A fault-free spec with the given seed. Compose with the `with_*`
    /// builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            max_extra_delay: Millis::new(50.0),
            pair_overrides: Vec::new(),
            crashes: Vec::new(),
            prepare_timeout_probability: 0.0,
            commit_timeout_probability: 0.0,
            restarts: Vec::new(),
            packet_loss_probability: 0.0,
            vnf_crashes: Vec::new(),
        }
    }

    /// Sets the default drop probability.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the default duplication probability.
    #[must_use]
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate_probability = p;
        self
    }

    /// Sets the default extra-delay probability and bound.
    #[must_use]
    pub fn with_delay(mut self, p: f64, max: Millis) -> Self {
        self.delay_probability = p;
        self.max_extra_delay = max;
        self
    }

    /// Adds a per-pair override.
    #[must_use]
    pub fn with_pair(mut self, pair: PairFaults) -> Self {
        self.pair_overrides.push(pair);
        self
    }

    /// Adds a crash window.
    #[must_use]
    pub fn with_crash(mut self, crash: CrashWindow) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Adds a recovering crash window for every site of a region at once —
    /// the regional-outage shorthand the daylife scenario driver uses to
    /// take a whole geographic neighbourhood down between `from` and
    /// `until`.
    #[must_use]
    pub fn with_regional_outage(mut self, sites: &[SiteId], from: SimTime, until: SimTime) -> Self {
        for &site in sites {
            self.crashes.push(CrashWindow::recovering(site, from, until));
        }
        self
    }

    /// Sets the 2PC prepare-timeout probability.
    #[must_use]
    pub fn with_prepare_timeouts(mut self, p: f64) -> Self {
        self.prepare_timeout_probability = p;
        self
    }

    /// Sets the 2PC commit-timeout probability.
    #[must_use]
    pub fn with_commit_timeouts(mut self, p: f64) -> Self {
        self.commit_timeout_probability = p;
        self
    }

    /// Schedules a forwarder restart at `site` taking effect at `at`.
    #[must_use]
    pub fn with_forwarder_restart(mut self, site: SiteId, at: SimTime) -> Self {
        self.restarts.push(ForwarderRestart::new(site, at));
        self
    }

    /// Sets the per-packet data-plane loss probability.
    #[must_use]
    pub fn with_packet_loss(mut self, p: f64) -> Self {
        self.packet_loss_probability = p;
        self
    }

    /// Schedules a permanent crash of VNF `instance` at `at`.
    #[must_use]
    pub fn with_vnf_crash(mut self, instance: InstanceId, at: SimTime) -> Self {
        self.vnf_crashes.push(VnfCrash::new(instance, at));
        self
    }
}

/// What the plan decided for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Deliver once, `0` extra delay excluded.
    Delay(Millis),
}

/// Counters for every fault the plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by probability or pair override.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages given extra delay.
    pub delayed: u64,
    /// Messages suppressed because an endpoint site was crashed.
    pub suppressed_by_crash: u64,
    /// Injected 2PC prepare timeouts.
    pub prepare_timeouts: u64,
    /// Injected 2PC commit timeouts.
    pub commit_timeouts: u64,
    /// Forwarder restarts fired (flow-table state wiped).
    pub forwarder_restarts: u64,
    /// Data-plane packets lost on the label-switched path.
    pub packets_lost: u64,
    /// VNF instance crashes fired.
    pub vnf_crashes: u64,
}

impl FaultStats {
    /// Total injected faults of all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.delayed
            + self.suppressed_by_crash
            + self.prepare_timeouts
            + self.commit_timeouts
            + self.forwarder_restarts
            + self.packets_lost
            + self.vnf_crashes
    }
}

/// Telemetry handles held by an instrumented plan. Kept as one optional
/// bundle so an un-instrumented plan pays a single branch per decision.
#[derive(Debug, Clone)]
struct FaultTelemetry {
    hub: Telemetry,
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    suppressed_by_crash: Counter,
    prepare_timeouts: Counter,
    commit_timeouts: Counter,
    forwarder_restarts: Counter,
    packets_lost: Counter,
    vnf_crashes: Counter,
}

impl FaultTelemetry {
    fn new(hub: &Telemetry) -> Self {
        let reg = &hub.registry;
        Self {
            hub: hub.clone(),
            dropped: reg.counter("faults.dropped"),
            duplicated: reg.counter("faults.duplicated"),
            delayed: reg.counter("faults.delayed"),
            suppressed_by_crash: reg.counter("faults.crash_suppressed"),
            prepare_timeouts: reg.counter("faults.prepare_timeouts"),
            commit_timeouts: reg.counter("faults.commit_timeouts"),
            forwarder_restarts: reg.counter("faults.forwarder_restarts"),
            packets_lost: reg.counter("faults.packets_lost"),
            vnf_crashes: reg.counter("faults.vnf_crashes"),
        }
    }
}

/// An instantiated fault plan: the seeded RNG plus the spec, consumed one
/// decision at a time. See the crate docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: StdRng,
    /// Dedicated stream for per-packet loss draws. Data-plane packet volume
    /// is orders of magnitude above control-plane message volume, so giving
    /// packets their own stream keeps control-plane fates byte-identical
    /// whether or not the data path is exercised.
    pkt_rng: StdRng,
    stats: FaultStats,
    telemetry: Option<FaultTelemetry>,
    /// Fired flags for `spec.restarts`, parallel by index.
    restarts_fired: Vec<bool>,
    /// Fired flags for `spec.vnf_crashes`, parallel by index.
    vnf_crashes_fired: Vec<bool>,
}

/// XOR'd into the seed for the packet-loss stream so it never replays the
/// control-plane stream (splitmix64's golden-gamma constant).
const PACKET_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

impl FaultPlan {
    /// Instantiates `spec` with its embedded seed.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        let pkt_rng = StdRng::seed_from_u64(spec.seed ^ PACKET_STREAM_SALT);
        let restarts_fired = vec![false; spec.restarts.len()];
        let vnf_crashes_fired = vec![false; spec.vnf_crashes.len()];
        Self {
            spec,
            rng,
            pkt_rng,
            stats: FaultStats::default(),
            telemetry: None,
            restarts_fired,
            vnf_crashes_fired,
        }
    }

    /// Attaches a telemetry hub: from now on every injected fault also
    /// bumps a `faults.*` registry counter and records a `fault.*` trace
    /// event, so chaos tests can correlate an injection at site X with its
    /// downstream effect (a bus drop, a 2PC retry). Telemetry consumes no
    /// randomness, so attaching it does not perturb the decision stream.
    pub fn attach_telemetry(&mut self, hub: &Telemetry) {
        self.telemetry = Some(FaultTelemetry::new(hub));
    }

    /// The spec this plan was built from.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Counters of injected faults so far.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether `site` is crashed at simulated time `at`. Pure — consumes no
    /// randomness, so callers may poll it without perturbing the stream.
    #[must_use]
    pub fn site_is_down(&self, at: SimTime, site: SiteId) -> bool {
        self.spec
            .crashes
            .iter()
            .any(|c| c.site == site && c.covers(at))
    }

    /// Every site down at `at`, sorted and deduplicated — the health set a
    /// controller's failure detector would report after its detection
    /// delay. Pure — consumes no randomness.
    #[must_use]
    pub fn sites_down_at(&self, at: SimTime) -> Vec<SiteId> {
        let mut down: Vec<SiteId> = self
            .spec
            .crashes
            .iter()
            .filter(|c| c.covers(at))
            .map(|c| c.site)
            .collect();
        down.sort_unstable();
        down.dedup();
        down
    }

    /// Drains the forwarder restarts due by simulated time `now`, in spec
    /// order: each scheduled restart fires exactly once, so callers can
    /// poll every batch without double-wiping state. Consumes no
    /// randomness — restarts are scheduled events, not probabilistic ones,
    /// so identical specs replay identical restart sequences regardless of
    /// how often this is polled.
    pub fn take_due_restarts(&mut self, now: SimTime) -> Vec<SiteId> {
        let mut due = Vec::new();
        for (i, r) in self.spec.restarts.iter().enumerate() {
            if !self.restarts_fired[i] && r.at <= now {
                self.restarts_fired[i] = true;
                due.push(r.site);
            }
        }
        self.stats.forwarder_restarts += due.len() as u64;
        if let Some(t) = &self.telemetry {
            for _ in &due {
                t.forwarder_restarts.inc();
                t.hub
                    .tracer
                    .event("fault.forwarder_restart", None, t.hub.clock.now_ns(), &[]);
            }
        }
        due
    }

    /// Drains the VNF crashes due by simulated time `now`, in spec order:
    /// each crash fires exactly once. Consumes no randomness (same contract
    /// as [`Self::take_due_restarts`]). The caller is expected to fail the
    /// instance over on every forwarder that load-balances across it.
    pub fn take_due_vnf_crashes(&mut self, now: SimTime) -> Vec<InstanceId> {
        let mut due = Vec::new();
        for (i, c) in self.spec.vnf_crashes.iter().enumerate() {
            if !self.vnf_crashes_fired[i] && c.at <= now {
                self.vnf_crashes_fired[i] = true;
                due.push(c.instance);
            }
        }
        self.stats.vnf_crashes += due.len() as u64;
        if let Some(t) = &self.telemetry {
            for inst in &due {
                t.vnf_crashes.inc();
                let inst_s = inst.to_string();
                t.hub.tracer.event(
                    "fault.vnf_crash",
                    None,
                    t.hub.clock.now_ns(),
                    &[("instance", &inst_s)],
                );
            }
        }
        due
    }

    /// Decides whether one data-plane packet on a label-switched wide-area
    /// hop is lost. Draws exactly one value from the dedicated packet
    /// stream per call regardless of the configured probability, so the
    /// stream position depends only on how many packets crossed the wide
    /// area — never on the loss rate — and control-plane fates (which use
    /// the main stream) are untouched entirely.
    pub fn packet_is_lost(&mut self) -> bool {
        let lost = self.pkt_rng.gen_bool(clamp(self.spec.packet_loss_probability));
        if lost {
            self.stats.packets_lost += 1;
            if let Some(t) = &self.telemetry {
                t.packets_lost.inc();
            }
        }
        lost
    }

    /// Records that a message was suppressed because of a crash window.
    /// The bus calls this when [`Self::site_is_down`] made it drop traffic.
    pub fn note_crash_suppression(&mut self) {
        self.stats.suppressed_by_crash += 1;
        if let Some(t) = &self.telemetry {
            t.suppressed_by_crash.inc();
            t.hub
                .tracer
                .event("fault.crash_suppressed", None, t.hub.clock.now_ns(), &[]);
        }
    }

    /// Decides the fate of one wide-area message from `from` to `to` at
    /// simulated time `at`. Draws randomness; call order matters.
    ///
    /// Crash windows are the bus's concern (it checks [`Self::site_is_down`]
    /// for both endpoints); this method only applies the probabilistic
    /// faults. Local (same-site) hops are never faulted: `from == to`
    /// returns [`MessageFate::Deliver`] without consuming randomness, since
    /// the paper's failure model is about the wide area.
    pub fn message_fate(&mut self, at: SimTime, from: SiteId, to: SiteId) -> MessageFate {
        if from == to {
            return MessageFate::Deliver;
        }
        let (p_drop, p_dup, p_delay) = match self
            .spec
            .pair_overrides
            .iter()
            .find(|p| p.from == from && p.to == to)
        {
            Some(p) => (p.drop_probability, p.duplicate_probability, p.delay_probability),
            None => (
                self.spec.drop_probability,
                self.spec.duplicate_probability,
                self.spec.delay_probability,
            ),
        };
        // Always three decision draws per wide-area message, so the stream
        // position depends only on the call sequence, not on the rates.
        let drop = self.rng.gen_bool(clamp(p_drop));
        let dup = self.rng.gen_bool(clamp(p_dup));
        let delay = self.rng.gen_bool(clamp(p_delay));
        if drop {
            self.stats.dropped += 1;
            self.trace_fate("fault.drop", at, from, to, None);
            MessageFate::Drop
        } else if dup {
            self.stats.duplicated += 1;
            self.trace_fate("fault.duplicate", at, from, to, None);
            MessageFate::Duplicate
        } else if delay {
            self.stats.delayed += 1;
            let extra = self.rng.gen_range(0.0..self.spec.max_extra_delay.value());
            let extra = Millis::new(extra.max(f64::EPSILON));
            self.trace_fate("fault.delay", at, from, to, Some(extra));
            MessageFate::Delay(extra)
        } else {
            MessageFate::Deliver
        }
    }

    fn trace_fate(&self, name: &str, at: SimTime, from: SiteId, to: SiteId, extra: Option<Millis>) {
        let Some(t) = &self.telemetry else { return };
        match name {
            "fault.drop" => t.dropped.inc(),
            "fault.duplicate" => t.duplicated.inc(),
            _ => t.delayed.inc(),
        }
        let from_s = from.to_string();
        let to_s = to.to_string();
        let mut attrs: Vec<(&str, &str)> = vec![("from", &from_s), ("to", &to_s)];
        let extra_s = extra.map(|d| format!("{:.3}", d.value()));
        if let Some(e) = &extra_s {
            attrs.push(("extra_ms", e));
        }
        t.hub.tracer.event(name, None, at.as_nanos(), &attrs);
    }

    /// Decides whether one 2PC RPC against `site` times out. Draws
    /// randomness; call order matters.
    pub fn rpc_times_out(&mut self, phase: RpcPhase, site: SiteId) -> bool {
        let p = match phase {
            RpcPhase::Prepare => self.spec.prepare_timeout_probability,
            RpcPhase::Commit => self.spec.commit_timeout_probability,
        };
        let timed_out = self.rng.gen_bool(clamp(p));
        if timed_out {
            match phase {
                RpcPhase::Prepare => self.stats.prepare_timeouts += 1,
                RpcPhase::Commit => self.stats.commit_timeouts += 1,
            }
            if let Some(t) = &self.telemetry {
                match phase {
                    RpcPhase::Prepare => t.prepare_timeouts.inc(),
                    RpcPhase::Commit => t.commit_timeouts.inc(),
                }
                let site_s = site.to_string();
                t.hub.tracer.event(
                    "fault.rpc_timeout",
                    None,
                    t.hub.clock.now_ns(),
                    &[("phase", phase.as_str()), ("site", &site_s)],
                );
            }
        }
        timed_out
    }
}

fn clamp(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

/// A fault plan shared between the bus and the control plane. Both sides
/// consume the same stream, so the combined call order is what determinism
/// is defined over.
pub type SharedFaultPlan = Arc<Mutex<FaultPlan>>;

/// Wraps a plan for sharing.
#[must_use]
pub fn shared(plan: FaultPlan) -> SharedFaultPlan {
    Arc::new(Mutex::new(plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fate_seq(seed: u64, n: usize) -> Vec<MessageFate> {
        let spec = FaultSpec::new(seed)
            .with_drop_probability(0.2)
            .with_duplicate_probability(0.2)
            .with_delay(0.2, Millis::new(10.0));
        let mut plan = FaultPlan::new(spec);
        (0..n)
            .map(|i| {
                plan.message_fate(
                    SimTime::from_millis(i as f64),
                    SiteId::new(0),
                    SiteId::new(1 + (i as u32 % 3)),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_fates() {
        assert_eq!(fate_seq(7, 200), fate_seq(7, 200));
        assert_ne!(fate_seq(7, 200), fate_seq(8, 200));
    }

    #[test]
    fn regional_outage_reports_its_sites_while_covered() {
        let region = [SiteId::new(3), SiteId::new(1), SiteId::new(3)];
        let spec = FaultSpec::new(1).with_regional_outage(
            &region,
            SimTime::from_millis(10.0),
            SimTime::from_millis(20.0),
        );
        let plan = FaultPlan::new(spec);
        assert!(plan.sites_down_at(SimTime::from_millis(5.0)).is_empty());
        // Sorted and deduplicated during the window.
        assert_eq!(
            plan.sites_down_at(SimTime::from_millis(15.0)),
            vec![SiteId::new(1), SiteId::new(3)]
        );
        assert!(plan.site_is_down(SimTime::from_millis(15.0), SiteId::new(1)));
        assert!(plan.sites_down_at(SimTime::from_millis(20.0)).is_empty());
    }

    #[test]
    fn local_hops_are_never_faulted() {
        let spec = FaultSpec::new(1).with_drop_probability(1.0);
        let mut plan = FaultPlan::new(spec);
        for i in 0..50 {
            let fate = plan.message_fate(
                SimTime::from_millis(f64::from(i)),
                SiteId::new(3),
                SiteId::new(3),
            );
            assert_eq!(fate, MessageFate::Deliver);
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn pair_override_beats_default() {
        let spec = FaultSpec::new(1)
            .with_pair(PairFaults::blackhole(SiteId::new(0), SiteId::new(1)));
        let mut plan = FaultPlan::new(spec);
        for _ in 0..20 {
            assert_eq!(
                plan.message_fate(SimTime::ZERO, SiteId::new(0), SiteId::new(1)),
                MessageFate::Drop
            );
            // The reverse direction is not matched by the override.
            assert_eq!(
                plan.message_fate(SimTime::ZERO, SiteId::new(1), SiteId::new(0)),
                MessageFate::Deliver
            );
        }
        assert_eq!(plan.stats().dropped, 20);
    }

    #[test]
    fn crash_windows_cover_expected_interval() {
        let spec = FaultSpec::new(1)
            .with_crash(CrashWindow::recovering(
                SiteId::new(2),
                SimTime::from_millis(10.0),
                SimTime::from_millis(20.0),
            ))
            .with_crash(CrashWindow::permanent(
                SiteId::new(3),
                SimTime::from_millis(5.0),
            ));
        let plan = FaultPlan::new(spec);
        let s2 = SiteId::new(2);
        assert!(!plan.site_is_down(SimTime::from_millis(9.9), s2));
        assert!(plan.site_is_down(SimTime::from_millis(10.0), s2));
        assert!(plan.site_is_down(SimTime::from_millis(19.9), s2));
        assert!(!plan.site_is_down(SimTime::from_millis(20.0), s2));
        let s3 = SiteId::new(3);
        assert!(plan.site_is_down(SimTime::from_millis(1e9), s3));
        assert!(!plan.site_is_down(SimTime::ZERO, s3));
    }

    #[test]
    fn rpc_timeouts_follow_probability_and_count() {
        let spec = FaultSpec::new(9)
            .with_prepare_timeouts(1.0)
            .with_commit_timeouts(0.0);
        let mut plan = FaultPlan::new(spec);
        for _ in 0..10 {
            assert!(plan.rpc_times_out(RpcPhase::Prepare, SiteId::new(1)));
            assert!(!plan.rpc_times_out(RpcPhase::Commit, SiteId::new(1)));
        }
        assert_eq!(plan.stats().prepare_timeouts, 10);
        assert_eq!(plan.stats().commit_timeouts, 0);
    }

    #[test]
    fn delay_fate_is_bounded_and_positive() {
        let spec = FaultSpec::new(4).with_delay(1.0, Millis::new(7.5));
        let mut plan = FaultPlan::new(spec);
        for _ in 0..100 {
            match plan.message_fate(SimTime::ZERO, SiteId::new(0), SiteId::new(1)) {
                MessageFate::Delay(d) => {
                    assert!(d.value() > 0.0 && d.value() <= 7.5, "{d:?}")
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn telemetry_sees_injections_without_perturbing_the_stream() {
        let spec = FaultSpec::new(7)
            .with_drop_probability(0.5)
            .with_prepare_timeouts(1.0);
        let mut bare = FaultPlan::new(spec.clone());
        let mut instrumented = FaultPlan::new(spec);
        let hub = sb_telemetry::Telemetry::new();
        instrumented.attach_telemetry(&hub);
        for i in 0..50 {
            let at = SimTime::from_millis(f64::from(i));
            assert_eq!(
                bare.message_fate(at, SiteId::new(0), SiteId::new(1)),
                instrumented.message_fate(at, SiteId::new(0), SiteId::new(1))
            );
        }
        assert!(instrumented.rpc_times_out(RpcPhase::Prepare, SiteId::new(2)));
        let snap = hub.registry.snapshot();
        assert_eq!(snap.counter("faults.dropped"), instrumented.stats().dropped);
        assert_eq!(snap.counter("faults.prepare_timeouts"), 1);
        let recs = hub.tracer.snapshot();
        assert!(recs.iter().any(|r| r.name == "fault.drop"
            && r.attr("from") == Some("site-0")
            && r.attr("to") == Some("site-1")));
        assert!(recs
            .iter()
            .any(|r| r.name == "fault.rpc_timeout" && r.attr("phase") == Some("prepare")));
    }

    #[test]
    fn builders_record_overrides_and_crashes() {
        let spec = FaultSpec::new(11)
            .with_drop_probability(0.1)
            .with_pair(PairFaults::blackhole(SiteId::new(0), SiteId::new(2)))
            .with_crash(CrashWindow::permanent(SiteId::new(1), SimTime::ZERO));
        assert_eq!(spec.seed, 11);
        assert_eq!(spec.drop_probability, 0.1);
        assert_eq!(spec.pair_overrides.len(), 1);
        assert_eq!(spec.crashes.len(), 1);
        assert_eq!(spec.crashes[0].from, SimTime::ZERO);
        assert_eq!(spec.crashes[0].until, None);
    }

    #[test]
    fn restarts_are_recorded_and_default_to_empty() {
        let spec = FaultSpec::new(3).with_forwarder_restart(
            SiteId::new(2),
            SimTime::from_millis(40.0),
        );
        assert_eq!(
            spec.restarts,
            vec![ForwarderRestart::new(SiteId::new(2), SimTime::from_millis(40.0))]
        );
        assert!(FaultSpec::new(3).restarts.is_empty());
    }

    #[test]
    fn packet_loss_uses_its_own_stream() {
        // A plan that never consults packet loss and one that consults it
        // heavily must produce identical control-plane fates.
        let spec = FaultSpec::new(21)
            .with_drop_probability(0.3)
            .with_packet_loss(0.5);
        let mut quiet = FaultPlan::new(spec.clone());
        let mut busy = FaultPlan::new(spec);
        for i in 0..64 {
            for _ in 0..100 {
                busy.packet_is_lost();
            }
            let at = SimTime::from_millis(f64::from(i));
            assert_eq!(
                quiet.message_fate(at, SiteId::new(0), SiteId::new(1)),
                busy.message_fate(at, SiteId::new(0), SiteId::new(1)),
            );
        }
        assert!(busy.stats().packets_lost > 0);
        // And the packet stream itself replays from the seed alone.
        let draw = |seed: u64| {
            let mut p = FaultPlan::new(FaultSpec::new(seed).with_packet_loss(0.5));
            (0..256).map(|_| p.packet_is_lost()).collect::<Vec<_>>()
        };
        assert_eq!(draw(21), draw(21));
        assert_ne!(draw(21), draw(22));
    }

    #[test]
    fn packet_loss_rates_are_honored_at_the_extremes() {
        let mut never = FaultPlan::new(FaultSpec::new(5));
        let mut always = FaultPlan::new(FaultSpec::new(5).with_packet_loss(1.0));
        for _ in 0..100 {
            assert!(!never.packet_is_lost());
            assert!(always.packet_is_lost());
        }
        assert_eq!(never.stats().packets_lost, 0);
        assert_eq!(always.stats().packets_lost, 100);
    }

    #[test]
    fn due_vnf_crashes_fire_exactly_once_without_randomness() {
        let spec = FaultSpec::new(13)
            .with_drop_probability(0.5)
            .with_vnf_crash(InstanceId::new(4), SimTime::from_millis(10.0))
            .with_vnf_crash(InstanceId::new(5), SimTime::from_millis(30.0));
        let mut plan = FaultPlan::new(spec);
        assert!(plan.take_due_vnf_crashes(SimTime::from_millis(5.0)).is_empty());
        assert_eq!(
            plan.take_due_vnf_crashes(SimTime::from_millis(10.0)),
            vec![InstanceId::new(4)]
        );
        assert!(plan.take_due_vnf_crashes(SimTime::from_millis(20.0)).is_empty());
        assert_eq!(
            plan.take_due_vnf_crashes(SimTime::from_millis(99.0)),
            vec![InstanceId::new(5)]
        );
        assert_eq!(plan.stats().vnf_crashes, 2);
        // Draining crashes left the fate stream where a fresh plan starts.
        let mut twin = FaultPlan::new(FaultSpec::new(13).with_drop_probability(0.5));
        for i in 0..32 {
            let at = SimTime::from_millis(f64::from(i));
            assert_eq!(
                twin.message_fate(at, SiteId::new(0), SiteId::new(1)),
                plan.message_fate(at, SiteId::new(0), SiteId::new(1)),
            );
        }
    }

    #[test]
    fn dataplane_fault_fields_default_to_none() {
        let spec = FaultSpec::new(3);
        assert_eq!(spec.packet_loss_probability, 0.0);
        assert!(spec.vnf_crashes.is_empty());
        let spec = FaultSpec::new(8)
            .with_packet_loss(0.25)
            .with_vnf_crash(InstanceId::new(7), SimTime::from_millis(15.0));
        assert_eq!(spec.packet_loss_probability, 0.25);
        assert_eq!(
            spec.vnf_crashes,
            vec![VnfCrash::new(InstanceId::new(7), SimTime::from_millis(15.0))]
        );
    }

    #[test]
    fn due_restarts_fire_exactly_once_in_spec_order() {
        let spec = FaultSpec::new(9)
            .with_forwarder_restart(SiteId::new(1), SimTime::from_millis(10.0))
            .with_forwarder_restart(SiteId::new(2), SimTime::from_millis(10.0))
            .with_forwarder_restart(SiteId::new(3), SimTime::from_millis(99.0));
        let mut plan = FaultPlan::new(spec);
        assert!(plan.take_due_restarts(SimTime::from_millis(5.0)).is_empty());
        assert_eq!(
            plan.take_due_restarts(SimTime::from_millis(20.0)),
            vec![SiteId::new(1), SiteId::new(2)]
        );
        // Already-fired restarts never fire again.
        assert_eq!(
            plan.take_due_restarts(SimTime::from_millis(100.0)),
            vec![SiteId::new(3)]
        );
        assert!(plan.take_due_restarts(SimTime::from_millis(200.0)).is_empty());
        assert_eq!(plan.stats().forwarder_restarts, 3);
        // Polling consumed no randomness: the fate stream matches a fresh
        // plan with the same seed.
        let mut twin = FaultPlan::new(FaultSpec::new(9).with_drop_probability(0.5));
        let mut polled = FaultPlan::new(
            FaultSpec::new(9)
                .with_drop_probability(0.5)
                .with_forwarder_restart(SiteId::new(1), SimTime::ZERO),
        );
        polled.take_due_restarts(SimTime::from_millis(1.0));
        for i in 0..32 {
            let at = SimTime::from_millis(f64::from(i));
            assert_eq!(
                twin.message_fate(at, SiteId::new(0), SiteId::new(1)),
                polled.message_fate(at, SiteId::new(0), SiteId::new(1)),
            );
        }
    }
}
