//! Shortest-path routing with ECMP splitting.
//!
//! This module produces the two routing inputs of the paper's network model
//! (Table 1): the latency matrix `d_{n1n2}` and the routing fractions
//! `r_{n1n2e}` — "the fraction of traffic between nodes `n1` and `n2` that
//! crosses link `e`". Routing follows latency-shortest paths; when several
//! outgoing links lie on shortest paths (ECMP), traffic splits equally at
//! each hop, which is how backbone IGPs behave.
//!
//! The fractions are stored once, as one flat table in an order the
//! topology fixes: pair by pair, and within a pair by ascending link id.
//! Every sum over a pair's links (an SB-DP edge cost, a link load) thus
//! adds the same terms in the same order in every process.

use crate::graph::Topology;
use sb_types::{LinkId, Millis, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const EPS: f64 = 1e-9;

/// Min-heap entry for Dijkstra.
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

/// Precomputed all-pairs routing over a [`Topology`].
#[derive(Debug, Clone)]
pub struct Routing {
    n: usize,
    /// `dist[t*n + s]`: the latency `s → t` in milliseconds, infinite
    /// when unreachable. Held by target, so the latencies from every node
    /// to one target are one contiguous row ([`latencies_to`](Self::latencies_to)).
    dist: Vec<f64>,
    /// ECMP fractions of every `(s, t)` pair concatenated in pair order
    /// `s*n + t`, each pair's `(link, fraction of the demand)` entries
    /// ascending by link.
    fractions: Vec<(LinkId, f64)>,
    /// `fractions[starts[s*n + t]..starts[s*n + t + 1]]` is the pair's
    /// slice (`n*n + 1` entries).
    starts: Vec<usize>,
    /// One canonical shortest path (first ECMP branch) per `(s, t)`.
    paths: Vec<Vec<LinkId>>,
}

impl Routing {
    /// Computes all-pairs shortest-path routing with equal-cost multipath
    /// splitting over `topology`.
    #[must_use]
    pub fn shortest_paths(topology: &Topology) -> Self {
        let n = topology.num_nodes();
        // dist_to[t][u]: distance from u to t — computed by Dijkstra on the
        // reverse graph from each target t.
        let mut rev_adj: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n]; // to -> (from, link, lat)
        for l in topology.links() {
            rev_adj[l.to().index()].push((l.from().index(), l.id().index(), l.latency().value()));
        }

        let mut dist = vec![f64::INFINITY; n * n];
        let mut pair_fractions: Vec<Vec<(LinkId, f64)>> = vec![Vec::new(); n * n];
        let mut paths = vec![Vec::new(); n * n];

        for t in 0..n {
            // Reverse Dijkstra: dist_t[u] = distance u -> t.
            let mut d = vec![f64::INFINITY; n];
            d[t] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry { dist: 0.0, node: t });
            while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
                if du > d[u] + EPS {
                    continue;
                }
                for &(v, _link, lat) in &rev_adj[u] {
                    let nd = du + lat;
                    if nd + EPS < d[v] {
                        d[v] = nd;
                        heap.push(HeapEntry { dist: nd, node: v });
                    }
                }
            }
            dist[t * n..(t + 1) * n].copy_from_slice(&d);

            // Shortest-path DAG toward t: link (u -> v) is on a shortest
            // path iff d[u] = lat + d[v]. ECMP fractions: process nodes in
            // decreasing d[u]; each node splits its incoming share equally
            // among its DAG successors.
            let mut next_hops: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); n];
            for l in topology.links() {
                let (u, v) = (l.from().index(), l.to().index());
                if d[u].is_finite()
                    && d[v].is_finite()
                    && (d[u] - (l.latency().value() + d[v])).abs() <= EPS
                {
                    next_hops[u].push((v, l.id()));
                }
            }
            let mut order: Vec<usize> = (0..n).filter(|&u| d[u].is_finite()).collect();
            order.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).unwrap_or(Ordering::Equal));

            for s in 0..n {
                if !d[s].is_finite() || s == t {
                    continue;
                }
                let mut share = vec![0.0; n];
                share[s] = 1.0;
                let frac = &mut pair_fractions[s * n + t];
                for &u in &order {
                    if share[u] <= 0.0 || u == t {
                        continue;
                    }
                    let hops = &next_hops[u];
                    debug_assert!(!hops.is_empty(), "non-target node on DAG has successor");
                    #[allow(clippy::cast_precision_loss)]
                    let per = share[u] / hops.len() as f64;
                    for &(v, link) in hops {
                        share[v] += per;
                        frac.push((link, per));
                    }
                    share[u] = 0.0;
                }
                // Every node splits its share once, so every link is
                // listed once.
                frac.sort_unstable_by_key(|&(link, _)| link);
                // Canonical path: first ECMP branch at each hop.
                let mut path = Vec::new();
                let mut u = s;
                while u != t {
                    let Some(&(v, link)) = next_hops[u].first() else {
                        break;
                    };
                    path.push(link);
                    u = v;
                }
                paths[s * n + t] = path;
            }
        }

        let mut fractions = Vec::with_capacity(pair_fractions.iter().map(Vec::len).sum());
        let mut starts = Vec::with_capacity(n * n + 1);
        starts.push(0);
        for pair in pair_fractions {
            fractions.extend(pair);
            starts.push(fractions.len());
        }
        Self {
            n,
            dist,
            fractions,
            starts,
            paths,
        }
    }

    /// The shortest-path latency `d_{n1n2}` from `a` to `b`; zero when
    /// `a == b`, infinite when unreachable.
    #[must_use]
    pub fn latency(&self, a: NodeId, b: NodeId) -> Millis {
        Millis::new(self.dist[b.index() * self.n + a.index()])
    }

    /// The latency in milliseconds from every node to `b`, indexed by the
    /// source node: `latencies_to(b)[a.index()]` is
    /// [`latency(a, b)`](Self::latency).
    #[must_use]
    pub fn latencies_to(&self, b: NodeId) -> &[f64] {
        &self.dist[b.index() * self.n..(b.index() + 1) * self.n]
    }

    /// Whether `b` is reachable from `a`.
    #[must_use]
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.latency(a, b).value().is_finite()
    }

    /// The fraction `r_{n1n2e}` of traffic from `a` to `b` crossing `link`
    /// under ECMP shortest-path routing; zero when the link is off every
    /// shortest path.
    #[must_use]
    pub fn fraction(&self, a: NodeId, b: NodeId, link: LinkId) -> f64 {
        let pair = self.fractions_between(a, b);
        pair.binary_search_by_key(&link, |&(l, _)| l)
            .map_or(0.0, |i| pair[i].1)
    }

    /// All links carrying a positive fraction of the `a → b` demand, with
    /// their fractions, ascending by link.
    #[must_use]
    pub fn fractions_between(&self, a: NodeId, b: NodeId) -> &[(LinkId, f64)] {
        let pair = a.index() * self.n + b.index();
        &self.fractions[self.starts[pair]..self.starts[pair + 1]]
    }

    /// One canonical shortest path from `a` to `b` as a link sequence;
    /// empty when `a == b` or unreachable.
    #[must_use]
    pub fn path(&self, a: NodeId, b: NodeId) -> &[LinkId] {
        &self.paths[a.index() * self.n + b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    /// a --1-- b --1-- d, a --1-- c --1-- d: two equal-cost paths a->d.
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a", (0.0, 0.0), 1.0);
        let n1 = b.add_node("b", (0.0, 0.0), 1.0);
        let n2 = b.add_node("c", (0.0, 0.0), 1.0);
        let d = b.add_node("d", (0.0, 0.0), 1.0);
        b.add_duplex_link(a, n1, 10.0, Millis::new(1.0));
        b.add_duplex_link(a, n2, 10.0, Millis::new(1.0));
        b.add_duplex_link(n1, d, 10.0, Millis::new(1.0));
        b.add_duplex_link(n2, d, 10.0, Millis::new(1.0));
        b.build()
    }

    /// The `scenarios::fleet` shape: `n` nodes on a circle joined by a
    /// ring plus chords, latency by chord length, so its symmetry gives
    /// equal-cost paths.
    fn circle(n: usize) -> Topology {
        let pos = |i: usize| {
            #[allow(clippy::cast_precision_loss)]
            let theta = std::f64::consts::TAU * i as f64 / n as f64;
            (30.0 * theta.sin(), 30.0 * theta.cos())
        };
        let latency = |a: usize, c: usize| {
            let ((ax, ay), (cx, cy)) = (pos(a), pos(c));
            Millis::new(0.5 + 0.4 * ((ax - cx).powi(2) + (ay - cy).powi(2)).sqrt())
        };
        let mut b = TopologyBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(format!("s{i}"), pos(i), 1.0))
            .collect();
        for i in 0..n {
            for j in [(i + 1) % n, (i + n / 3) % n] {
                b.add_duplex_link(ids[i], ids[j], 10.0, latency(i, j));
            }
        }
        b.build()
    }

    #[test]
    fn fractions_are_ascending_by_link_and_probed_exactly() {
        for t in [diamond(), circle(60)] {
            let r = Routing::shortest_paths(&t);
            let mut split = false;
            for a in t.node_ids() {
                for b in t.node_ids() {
                    let pair = r.fractions_between(a, b);
                    assert!(
                        pair.windows(2).all(|w| w[0].0 < w[1].0),
                        "{a}->{b} not ascending by link: {pair:?}"
                    );
                    for l in t.links() {
                        let listed = pair
                            .iter()
                            .find(|&&(id, _)| id == l.id())
                            .map_or(0.0, |&(_, f)| f);
                        assert_eq!(r.fraction(a, b, l.id()).to_bits(), listed.to_bits());
                    }
                    split |= pair.iter().any(|&(_, f)| f < 1.0);
                }
            }
            assert!(split, "no ECMP split exercised");
        }
    }

    #[test]
    fn latencies_match_shortest_paths() {
        let t = diamond();
        let r = Routing::shortest_paths(&t);
        let (a, d) = (NodeId::new(0), NodeId::new(3));
        assert_eq!(r.latency(a, d), Millis::new(2.0));
        assert_eq!(r.latency(a, a), Millis::new(0.0));
        assert_eq!(r.latency(d, a), Millis::new(2.0));
    }

    #[test]
    fn ecmp_splits_equally_across_diamond() {
        let t = diamond();
        let r = Routing::shortest_paths(&t);
        let (a, d) = (NodeId::new(0), NodeId::new(3));
        let ab = t.link_between(a, NodeId::new(1)).unwrap().id();
        let ac = t.link_between(a, NodeId::new(2)).unwrap().id();
        assert!((r.fraction(a, d, ab) - 0.5).abs() < 1e-9);
        assert!((r.fraction(a, d, ac) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fractions_conserve_demand_at_every_node() {
        let t = crate::tier1::backbone();
        let r = Routing::shortest_paths(&t);
        let ids = t.node_ids();
        for &s in &ids {
            for &d in &ids {
                if s == d {
                    continue;
                }
                // Net flow out of s equals 1; into d equals 1; conserved
                // elsewhere.
                for &u in &ids {
                    let outflow: f64 = t.links_from(u).map(|l| r.fraction(s, d, l.id())).sum();
                    let inflow: f64 = t
                        .links()
                        .iter()
                        .filter(|l| l.to() == u)
                        .map(|l| r.fraction(s, d, l.id()))
                        .sum();
                    let net = outflow - inflow;
                    let expect = if u == s {
                        1.0
                    } else if u == d {
                        -1.0
                    } else {
                        0.0
                    };
                    assert!(
                        (net - expect).abs() < 1e-6,
                        "flow not conserved at {u} for {s}->{d}: {net} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_path_connects_endpoints() {
        let t = diamond();
        let r = Routing::shortest_paths(&t);
        let (a, d) = (NodeId::new(0), NodeId::new(3));
        let path = r.path(a, d);
        assert_eq!(path.len(), 2);
        assert_eq!(t.link(path[0]).unwrap().from(), a);
        assert_eq!(t.link(path[1]).unwrap().to(), d);
        assert_eq!(
            t.link(path[0]).unwrap().to(),
            t.link(path[1]).unwrap().from()
        );
    }

    #[test]
    fn unreachable_nodes_report_infinite_latency() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a", (0.0, 0.0), 1.0);
        let c = b.add_node("island", (0.0, 0.0), 1.0);
        let t = b.build();
        let r = Routing::shortest_paths(&t);
        assert!(!r.reachable(a, c));
        assert!(r.latency(a, c).value().is_infinite());
        assert!(r.path(a, c).is_empty());
    }

    #[test]
    fn asymmetric_latency_graphs_are_supported() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a", (0.0, 0.0), 1.0);
        let c = b.add_node("b", (0.0, 0.0), 1.0);
        b.add_link(a, c, 10.0, Millis::new(3.0));
        b.add_link(c, a, 10.0, Millis::new(7.0));
        let t = b.build();
        let r = Routing::shortest_paths(&t);
        assert_eq!(r.latency(a, c), Millis::new(3.0));
        assert_eq!(r.latency(c, a), Millis::new(7.0));
        assert_eq!(r.latencies_to(c), [3.0, 0.0], "indexed by source");
        assert_eq!(r.latencies_to(a), [0.0, 7.0]);
    }
}
