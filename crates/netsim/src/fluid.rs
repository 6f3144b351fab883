//! Flow-level max-min fair rate allocation.
//!
//! Long-lived TCP flows sharing a network converge (to first order) to
//! max-min fair rates over the resources they cross. The paper's end-to-end
//! throughput comparisons (Figures 10-11) measure exactly this steady state,
//! with VNF instances acting as additional capacitated resources alongside
//! wide-area links. [`FluidNetwork`] implements weighted progressive
//! filling with optional per-flow demand caps.

use std::fmt;

/// A handle to a capacitated resource (a link or a VNF instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res-{}", self.0)
    }
}

/// A handle to a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(usize);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow-{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Flow {
    resources: Vec<usize>,
    demand: Option<f64>,
    weight: f64,
}

/// A fluid network: capacitated resources shared by weighted flows.
///
/// # Examples
///
/// Two flows sharing a 10-unit bottleneck split it evenly; a third flow on a
/// disjoint resource is unaffected:
///
/// ```
/// use sb_netsim::FluidNetwork;
///
/// let mut net = FluidNetwork::new();
/// let shared = net.add_resource(10.0);
/// let private = net.add_resource(4.0);
/// let a = net.add_flow([shared], None);
/// let b = net.add_flow([shared], None);
/// let c = net.add_flow([private], None);
/// let rates = net.max_min_rates();
/// assert!((rates[a.index()] - 5.0).abs() < 1e-9);
/// assert!((rates[b.index()] - 5.0).abs() < 1e-9);
/// assert!((rates[c.index()] - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FluidNetwork {
    capacities: Vec<f64>,
    flows: Vec<Flow>,
}

impl FlowId {
    /// Dense index of this flow (its position in the rate vector).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl ResourceId {
    /// Dense index of this resource (its position in utilization vectors).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl FluidNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative or NaN.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(capacity >= 0.0, "capacity must be non-negative");
        let id = ResourceId(self.capacities.len());
        self.capacities.push(capacity);
        id
    }

    /// Adds a unit-weight flow crossing `resources`, optionally capped at
    /// `demand`.
    pub fn add_flow(
        &mut self,
        resources: impl IntoIterator<Item = ResourceId>,
        demand: Option<f64>,
    ) -> FlowId {
        self.add_weighted_flow(resources, demand, 1.0)
    }

    /// Adds a flow with an explicit fairness weight (a flow with weight 2
    /// receives twice the share of a weight-1 flow at a shared bottleneck —
    /// used to model a route carrying the aggregate of several connections).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not strictly positive, if `demand` is negative,
    /// or if a resource handle is unknown.
    pub fn add_weighted_flow(
        &mut self,
        resources: impl IntoIterator<Item = ResourceId>,
        demand: Option<f64>,
        weight: f64,
    ) -> FlowId {
        assert!(weight > 0.0, "weight must be positive");
        if let Some(d) = demand {
            assert!(d >= 0.0, "demand must be non-negative");
        }
        let resources: Vec<usize> = resources
            .into_iter()
            .map(|r| {
                assert!(r.0 < self.capacities.len(), "unknown resource {r}");
                r.0
            })
            .collect();
        let id = FlowId(self.flows.len());
        self.flows.push(Flow {
            resources,
            demand,
            weight,
        });
        id
    }

    /// Number of flows.
    #[must_use]
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Computes weighted max-min fair rates by progressive filling: all
    /// unfrozen flows rise together in proportion to their weights until a
    /// resource saturates (freezing every flow crossing it) or a flow hits
    /// its demand cap; repeat until every flow is frozen.
    ///
    /// Returns one rate per flow, indexed by [`FlowId::index`].
    #[must_use]
    pub fn max_min_rates(&self) -> Vec<f64> {
        const EPS: f64 = 1e-12;
        let n = self.flows.len();
        let mut rates = vec![0.0; n];
        let mut active: Vec<bool> = (0..n)
            .map(|f| {
                // Flows with zero demand or crossing a zero-capacity
                // resource are frozen at 0 immediately.
                self.flows[f].demand != Some(0.0)
                    && self.flows[f]
                        .resources
                        .iter()
                        .all(|&r| self.capacities[r] > EPS)
            })
            .collect();
        let mut cap_rem = self.capacities.clone();

        loop {
            // Weighted count of active flows per resource.
            let mut act_weight = vec![0.0; cap_rem.len()];
            let mut any_active = false;
            for (f, flow) in self.flows.iter().enumerate() {
                if active[f] {
                    any_active = true;
                    for &r in &flow.resources {
                        act_weight[r] += flow.weight;
                    }
                }
            }
            if !any_active {
                break;
            }

            // The smallest per-weight increment before something freezes.
            let mut delta = f64::INFINITY;
            for r in 0..cap_rem.len() {
                if act_weight[r] > EPS {
                    delta = delta.min(cap_rem[r] / act_weight[r]);
                }
            }
            for (f, flow) in self.flows.iter().enumerate() {
                if active[f] {
                    if let Some(d) = flow.demand {
                        delta = delta.min((d - rates[f]) / flow.weight);
                    }
                }
            }
            if !delta.is_finite() {
                // No active flow crosses any resource and none has a demand
                // cap: rates are unbounded; freeze at current values.
                break;
            }
            let delta = delta.max(0.0);

            // Apply the increment.
            for (f, flow) in self.flows.iter().enumerate() {
                if active[f] {
                    rates[f] += flow.weight * delta;
                }
            }
            for r in 0..cap_rem.len() {
                cap_rem[r] -= act_weight[r] * delta;
                if cap_rem[r] < EPS {
                    cap_rem[r] = 0.0;
                }
            }

            // Freeze flows on saturated resources or at their demand caps.
            let mut froze = false;
            for (f, flow) in self.flows.iter().enumerate() {
                if !active[f] {
                    continue;
                }
                let capped = flow.demand.is_some_and(|d| rates[f] >= d - EPS);
                let bottlenecked = flow.resources.iter().any(|&r| cap_rem[r] <= EPS);
                if capped || bottlenecked {
                    active[f] = false;
                    froze = true;
                }
            }
            if !froze {
                break; // defensive: delta should always freeze something
            }
        }
        rates
    }

    /// Per-resource utilization (`used / capacity`, 0 for zero-capacity
    /// resources) under the given rate vector.
    ///
    /// # Panics
    ///
    /// Panics if `rates` does not have one entry per flow.
    #[must_use]
    pub fn utilizations(&self, rates: &[f64]) -> Vec<f64> {
        assert_eq!(rates.len(), self.flows.len(), "rate vector arity mismatch");
        let mut used = vec![0.0; self.capacities.len()];
        for (f, flow) in self.flows.iter().enumerate() {
            for &r in &flow.resources {
                used[r] += rates[f];
            }
        }
        used.iter()
            .zip(&self.capacities)
            .map(|(&u, &c)| if c > 0.0 { u / c } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_takes_full_capacity() {
        let mut net = FluidNetwork::new();
        let r = net.add_resource(8.0);
        let f = net.add_flow([r], None);
        assert!((net.max_min_rates()[f.index()] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn demand_caps_are_honored() {
        let mut net = FluidNetwork::new();
        let r = net.add_resource(10.0);
        let a = net.add_flow([r], Some(2.0));
        let b = net.add_flow([r], None);
        let rates = net.max_min_rates();
        assert!((rates[a.index()] - 2.0).abs() < 1e-9);
        assert!((rates[b.index()] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn classic_line_network() {
        // Three resources in a line, capacity 1 each. One long flow over
        // all three, one short flow per resource. Max-min: every flow 0.5.
        let mut net = FluidNetwork::new();
        let r: Vec<_> = (0..3).map(|_| net.add_resource(1.0)).collect();
        let long = net.add_flow(r.clone(), None);
        let shorts: Vec<_> = r.iter().map(|&ri| net.add_flow([ri], None)).collect();
        let rates = net.max_min_rates();
        assert!((rates[long.index()] - 0.5).abs() < 1e-9);
        for s in shorts {
            assert!((rates[s.index()] - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_flows_split_proportionally() {
        let mut net = FluidNetwork::new();
        let r = net.add_resource(9.0);
        let a = net.add_weighted_flow([r], None, 1.0);
        let b = net.add_weighted_flow([r], None, 2.0);
        let rates = net.max_min_rates();
        assert!((rates[a.index()] - 3.0).abs() < 1e-9);
        assert!((rates[b.index()] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn second_bottleneck_fills_after_first() {
        // Flow A over r1 (cap 2) and r2 (cap 10); flow B over r2 only.
        // A freezes at 2 (r1), then B rises to 8.
        let mut net = FluidNetwork::new();
        let r1 = net.add_resource(2.0);
        let r2 = net.add_resource(10.0);
        let a = net.add_flow([r1, r2], None);
        let b = net.add_flow([r2], None);
        let rates = net.max_min_rates();
        assert!((rates[a.index()] - 2.0).abs() < 1e-9);
        assert!((rates[b.index()] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_resource_starves_its_flows() {
        let mut net = FluidNetwork::new();
        let dead = net.add_resource(0.0);
        let live = net.add_resource(5.0);
        let a = net.add_flow([dead, live], None);
        let b = net.add_flow([live], None);
        let rates = net.max_min_rates();
        assert_eq!(rates[a.index()], 0.0);
        assert!((rates[b.index()] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn flow_without_resources_needs_demand_cap() {
        let mut net = FluidNetwork::new();
        let f = net.add_flow([], Some(3.0));
        assert!((net.max_min_rates()[f.index()] - 3.0).abs() < 1e-9);
        // Without a cap the rate is unbounded; the solver freezes it rather
        // than looping.
        let mut net2 = FluidNetwork::new();
        let g = net2.add_flow([], None);
        let r = net2.max_min_rates();
        assert!(r[g.index()].is_finite());
    }

    #[test]
    fn utilizations_report_saturation() {
        let mut net = FluidNetwork::new();
        let r1 = net.add_resource(4.0);
        let r2 = net.add_resource(100.0);
        net.add_flow([r1, r2], None);
        let rates = net.max_min_rates();
        let util = net.utilizations(&rates);
        assert!((util[r1.index()] - 1.0).abs() < 1e-9);
        assert!((util[r2.index()] - 0.04).abs() < 1e-9);
    }

    #[test]
    fn rates_never_exceed_capacity() {
        let mut net = FluidNetwork::new();
        let r: Vec<_> = (0..4).map(|i| net.add_resource(1.0 + f64::from(i))).collect();
        for i in 0..8 {
            let rs: Vec<_> = r.iter().copied().skip(i % 3).collect();
            net.add_flow(rs, if i % 2 == 0 { Some(0.7) } else { None });
        }
        let rates = net.max_min_rates();
        for u in net.utilizations(&rates) {
            assert!(u <= 1.0 + 1e-9, "overloaded resource: {u}");
        }
    }
}
