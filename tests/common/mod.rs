//! The stationary route flap of the controller-growth tests: a 60-chain
//! `fleet` deployed through SB-DP, each chain given a seeded alternative
//! route, and updates that move one chain to its alternative and another
//! one home — the shape of the benchmark's `fleet_update`. Every update
//! retires one label pair and announces a fresh one, while the installed
//! state stays the same size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use switchboard::prelude::*;
use switchboard::scenarios::{fleet, FleetConfig};

/// Chains under the flap, and how many stand on their alternative route at
/// any time.
const CHAINS: usize = 60;
const FLAP_LAG: usize = 16;
/// Site capacity as a multiple of expected load: 2PC never vetoes a flap.
const HEADROOM: f64 = 64.0;
const SEED: u64 = 0x5b_24;

type Routes = Vec<(Vec<SiteId>, f64)>;

fn attachment(site: SiteId) -> String {
    format!("site{}", site.value())
}

/// A deployed fleet in the flap's stationary state.
pub struct FleetFlap {
    sb: Switchboard,
    /// Each chain with its SB-DP routes and its alternative.
    plan: Vec<(ChainId, Routes, Routes)>,
}

impl FleetFlap {
    /// Deploys the fleet and moves the first `FLAP_LAG` chains to their
    /// alternative, so update 0 already runs in the stationary state.
    pub fn deploy() -> Self {
        let model = fleet(&FleetConfig {
            num_chains: CHAINS,
            capacity_headroom: HEADROOM,
            seed: SEED,
            ..FleetConfig::default()
        });
        let mut sb = Switchboard::new(
            model.with_chains(Vec::new()),
            DelayModel::uniform(Millis::new(0.1), Millis::new(10.0)),
            SwitchboardConfig::default(),
        );
        sb.use_passthrough_behaviors();
        for site in model.sites() {
            sb.register_attachment(attachment(site), site);
        }
        let site_of = |node| {
            model
                .sites()
                .into_iter()
                .find(|&s| model.site_node(s) == node)
                .expect("chain endpoints are sites")
        };

        // The alternative: another hosting site for every stage of the
        // chain's first route.
        let mut rng = StdRng::seed_from_u64(SEED);
        let plan = model
            .chains()
            .iter()
            .map(|c| {
                let handle = sb
                    .deploy_chain(ChainRequest {
                        id: c.id,
                        ingress_attachment: attachment(site_of(c.ingress)),
                        egress_attachment: attachment(site_of(c.egress)),
                        vnfs: c.vnfs.clone(),
                        forward: c.forward[0],
                        reverse: c.reverse[0],
                    })
                    .expect("the fleet deploys");
                let home: Routes = handle
                    .routes
                    .iter()
                    .map(|r| (r.sites.clone(), r.fraction))
                    .collect();
                let away: Vec<SiteId> = c
                    .vnfs
                    .iter()
                    .zip(&home[0].0)
                    .map(|(&vnf, &taken)| {
                        let others: Vec<SiteId> = model
                            .vnf(vnf)
                            .expect("catalog VNF")
                            .sites()
                            .into_iter()
                            .filter(|&s| s != taken)
                            .collect();
                        others[rng.gen_range(0..others.len())]
                    })
                    .collect();
                (c.id, home, vec![(away, 1.0)])
            })
            .collect();
        let mut flap = Self { sb, plan };
        for idx in 0..FLAP_LAG {
            flap.update(2 * (idx + CHAINS - FLAP_LAG));
        }
        flap
    }

    /// Update `i` of the flap: even updates move the chain `FLAP_LAG`
    /// ahead to its alternative, odd ones move the oldest flipped chain
    /// home.
    pub fn update(&mut self, i: usize) {
        let (idx, away) = if i.is_multiple_of(2) {
            ((i / 2 + FLAP_LAG) % CHAINS, true)
        } else {
            ((i / 2) % CHAINS, false)
        };
        let (chain, home, alt) = &self.plan[idx];
        let target = if away { alt.clone() } else { home.clone() };
        self.sb
            .update_chain(*chain, target)
            .unwrap_or_else(|e| panic!("update {i} of {chain}: {e}"));
    }
}
