//! Global Routing (paper §4.3): the two-step heuristic.
//!
//! Step 1: abstract link weights (Eq. 2–3) and find the K = 3 shortest
//! paths between every pair of routable nodes with Yen's KSP.
//!
//! Step 2: filter out paths that violate the constraints — longer than
//! 3 hops, or containing overloaded (≥ 80%) links or nodes.
//!
//! When every computed path for a pair is filtered out, the Path Decision
//! module falls back to last-resort paths (producer → last-resort relay →
//! consumer), built here as well.

use crate::ksp::{yen_ksp, WeightedGraph};
use crate::pib::OverlayPath;
use crate::weight::{link_weight, WeightParams};
use livenet_types::{NodeId, SimTime};
use livenet_topology::{Topology, OVERLOAD_TARGET};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Global Routing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingConfig {
    /// Number of candidate paths per pair (paper: K = 3).
    pub k: usize,
    /// Maximum overlay hops per path (paper: 3).
    pub max_hops: usize,
    /// Overload threshold for nodes and links (paper: 0.80).
    pub overload_target: f64,
    /// Weight-function hyper-parameters.
    pub weight: WeightParams,
    /// Recompute period (paper: 10 minutes). Stored for drivers.
    pub period_secs: u64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            k: 3,
            max_hops: 3,
            overload_target: OVERLOAD_TARGET,
            weight: WeightParams::default(),
            period_secs: 600,
        }
    }
}

/// The Global Routing module.
#[derive(Debug, Clone)]
pub struct GlobalRouting {
    config: RoutingConfig,
}

impl GlobalRouting {
    /// New module with the given config.
    pub fn new(config: RoutingConfig) -> Self {
        GlobalRouting { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// Build the abstracted weighted graph from the current topology view.
    ///
    /// `u_AB` is the max of link utilization and both endpoint loads
    /// (paper Eq. 2 text); last-resort nodes are excluded — they are
    /// reserved for last-resort paths only.
    pub fn build_graph(&self, topology: &Topology) -> WeightedGraph {
        let ids: Vec<NodeId> = topology.routable_node_ids().collect();
        let mut edges = Vec::new();
        for (from, to, m) in topology.links() {
            let (Some(nf), Some(nt)) = (topology.node(from), topology.node(to)) else {
                continue;
            };
            if nf.last_resort || nt.last_resort {
                continue;
            }
            // Failed links and links touching failed nodes are invisible to
            // routing; their metrics survive for when they come back up.
            if !topology.link_is_up(from, to) {
                continue;
            }
            let u = m.utilization.max(nf.utilization).max(nt.utilization);
            let w = link_weight(m.rtt, m.loss, u, self.config.weight);
            edges.push((from, to, w));
        }
        WeightedGraph::new(ids, edges)
    }

    /// Step 1 + step 2 for one pair: K shortest paths, then constraint
    /// filtering. `now` stamps the resulting paths.
    pub fn compute_pair(
        &self,
        topology: &Topology,
        graph: &WeightedGraph,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> Vec<OverlayPath> {
        let (Some(&si), Some(&di)) = (graph.index.get(&src), graph.index.get(&dst)) else {
            return Vec::new();
        };
        let raw = yen_ksp(graph, si, di, self.config.k, self.config.max_hops);
        raw.into_iter()
            .map(|(weight, idx_path)| OverlayPath {
                nodes: idx_path.into_iter().map(|i| graph.ids[i]).collect(),
                weight,
                computed_at: now,
                last_resort: false,
            })
            .filter(|p| self.satisfies_constraints(topology, p))
            .collect()
    }

    /// Step 2's predicate: hop bound and overload checks.
    pub fn satisfies_constraints(&self, topology: &Topology, path: &OverlayPath) -> bool {
        if path.hops() > self.config.max_hops {
            return false;
        }
        for &n in &path.nodes {
            if let Some(info) = topology.node(n) {
                if info.utilization >= self.config.overload_target {
                    return false;
                }
            }
        }
        for w in path.nodes.windows(2) {
            if !topology.link_is_up(w[0], w[1]) {
                return false; // link (or an endpoint) is down
            }
            if let Some(l) = topology.link(w[0], w[1]) {
                if l.utilization >= self.config.overload_target {
                    return false;
                }
            } else {
                return false; // link disappeared from the view
            }
        }
        true
    }

    /// Full recomputation over all routable pairs (the 10-minute job).
    /// Returns the new PIB contents.
    ///
    /// Uses the direct-enumeration fast path when the hop limit is ≤ 3
    /// (LiveNet's production constraint); falls back to Yen's KSP per pair
    /// for larger hop limits.
    pub fn compute_all(
        &self,
        topology: &Topology,
        now: SimTime,
    ) -> HashMap<(NodeId, NodeId), Vec<OverlayPath>> {
        if self.config.max_hops <= 3 {
            return self.compute_all_mesh(topology, now);
        }
        let graph = self.build_graph(topology);
        let mut out = HashMap::new();
        let ids = graph.ids.clone();
        for &src in &ids {
            for &dst in &ids {
                if src == dst {
                    continue;
                }
                let paths = self.compute_pair(topology, &graph, src, dst, now);
                out.insert((src, dst), paths);
            }
        }
        out
    }

    /// All-pairs K-shortest-paths specialized for hop limit ≤ 3 over a
    /// dense overlay: enumerate direct, 2-hop and 3-hop paths directly.
    ///
    /// Works in index space (positions in the sorted routable-node list).
    /// One pass over `topology.links()` fills dense n×n arrays — the
    /// Eq. 2–3 weight (infinity = no usable link) and whether the link's
    /// own utilization is at or over the overload target — plus the same
    /// flag per node; these replace [`Self::build_graph`] and its
    /// [`WeightedGraph`] here. Each pair keeps a running top-k under the
    /// total order (weight, then lexicographic index path), and step 2
    /// then runs on indices: every mesh edge is up, so a path survives
    /// when none of its nodes and links is overloaded. As in the general
    /// path, the filter runs after the top-k, so a pair may end with fewer
    /// than k paths.
    ///
    /// For n nodes this is O(n³) — milliseconds for a CDN-sized overlay —
    /// versus Yen's per-pair Dijkstras, and produces exactly the same
    /// answer (asserted by tests).
    pub fn compute_all_mesh(
        &self,
        topology: &Topology,
        now: SimTime,
    ) -> HashMap<(NodeId, NodeId), Vec<OverlayPath>> {
        let target = self.config.overload_target;
        let ids: Vec<NodeId> = topology.routable_node_ids().collect();
        let n = ids.len();
        // Routable nodes are up and not last-resort, so these are exactly
        // the endpoints `build_graph` keeps.
        let node_util: Vec<f64> = ids
            .iter()
            .map(|&id| topology.node(id).map_or(0.0, |info| info.utilization))
            .collect();
        let node_over: Vec<bool> = node_util.iter().map(|&u| u >= target).collect();
        let mut w = vec![f64::INFINITY; n * n];
        let mut link_over = vec![false; n * n];
        for (from, to, m) in topology.links() {
            let (Ok(fi), Ok(ti)) = (ids.binary_search(&from), ids.binary_search(&to)) else {
                continue;
            };
            let u = m.utilization.max(node_util[fi]).max(node_util[ti]);
            let weight = link_weight(m.rtt, m.loss, u, self.config.weight);
            debug_assert!(weight.is_finite() && weight >= 0.0, "bad edge weight {weight}");
            w[fi * n + ti] = weight;
            link_over[fi * n + ti] = m.utilization >= target;
        }
        // Failed links are invisible to routing; their metrics survive for
        // when they come back up.
        for (from, to) in topology.down_link_ids() {
            if let (Ok(fi), Ok(ti)) = (ids.binary_search(&from), ids.binary_search(&to)) {
                w[fi * n + ti] = f64::INFINITY;
            }
        }
        // Transposed weights, wt[d * n + r] = w[r * n + d], so the inner
        // loops below walk contiguous rows.
        let mut wt = vec![f64::INFINITY; n * n];
        for r in 0..n {
            for d in 0..n {
                wt[d * n + r] = w[r * n + d];
            }
        }
        let k = self.config.k;
        let max_hops = self.config.max_hops;
        // There are no self-loop links, so the diagonal stays infinite and
        // every would-be path that repeats a node costs infinity: the loops
        // below need no `r == s` / `r == d` guards.
        debug_assert!((0..n).all(|i| w[i * n + i].is_infinite()));
        // For 3-hop paths s→r1→r2→d we need, per (s, r2), the two best r1
        // choices (second-best covers the r1 == d exclusion). r1 runs in
        // ascending order and only a strictly better cost displaces, so
        // ties keep the lowest r1.
        let none = [(f64::INFINITY, usize::MAX); 2];
        let mut best2: Vec<[(f64, usize); 2]> = vec![none; n * n];
        if max_hops >= 3 {
            for s in 0..n {
                let row = &mut best2[s * n..(s + 1) * n];
                for r1 in 0..n {
                    let head = w[s * n + r1];
                    // An infinite cost never displaces anything.
                    if !head.is_finite() {
                        continue;
                    }
                    let via = &w[r1 * n..(r1 + 1) * n];
                    for (top, &tail) in row.iter_mut().zip(via) {
                        let c = head + tail;
                        if c < top[0].0 {
                            top[1] = top[0];
                            top[0] = (c, r1);
                        } else if c < top[1].0 {
                            top[1] = (c, r1);
                        }
                    }
                }
                // s→r1→s is a cycle, not a prefix.
                row[s] = none;
            }
        }

        // Candidates are fixed-size (weight, node-index buffer, length), so
        // the inner loops allocate nothing.
        type Cand = (f64, [usize; 4], u8);
        let cmp = |a: &Cand, b: &Cand| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1[..a.2 as usize].cmp(&b.1[..b.2 as usize]))
        };
        // Running top-k, best first. Returns the weight a later candidate
        // must not exceed to stand a chance (`f64::MAX` while the top-k has
        // room, which still rejects infinite costs), so the loops below drop
        // most candidates after one float comparison.
        let offer = |top: &mut Vec<Cand>, c: Cand| -> f64 {
            if top.len() == k {
                match top.last() {
                    Some(worst) if cmp(&c, worst) == Ordering::Less => {
                        top.pop();
                    }
                    _ => return top.last().map_or(f64::NEG_INFINITY, |t| t.0),
                }
            }
            let at = top
                .iter()
                .position(|t| cmp(&c, t) == Ordering::Less)
                .unwrap_or(top.len());
            top.insert(at, c);
            if top.len() < k {
                f64::MAX
            } else {
                top[k - 1].0
            }
        };
        // Step 2 on indices.
        let admissible = |c: &Cand| {
            let path = &c.1[..c.2 as usize];
            path.len() - 1 <= max_hops
                && !path.iter().any(|&i| node_over[i])
                && !path.windows(2).any(|e| link_over[e[0] * n + e[1]])
        };

        let mut out = HashMap::with_capacity(n * n.saturating_sub(1));
        let mut top: Vec<Cand> = Vec::with_capacity(k + 1);
        for s in 0..n {
            let from_s = &w[s * n..(s + 1) * n];
            let best_s = &best2[s * n..(s + 1) * n];
            for d in 0..n {
                if s == d {
                    continue;
                }
                let into_d = &wt[d * n..(d + 1) * n];
                top.clear();
                let mut bound = if k == 0 { f64::NEG_INFINITY } else { f64::MAX };
                let direct = from_s[d];
                if direct <= bound {
                    bound = offer(&mut top, (direct, [s, d, 0, 0], 2));
                }
                if max_hops >= 2 {
                    for (r, (&head, &tail)) in from_s.iter().zip(into_d).enumerate() {
                        let c = head + tail;
                        if c <= bound {
                            bound = offer(&mut top, (c, [s, r, d, 0], 3));
                        }
                    }
                }
                if max_hops >= 3 {
                    for (r2, (&[(c0, r1a), (c1, r1b)], &tail)) in
                        best_s.iter().zip(into_d).enumerate()
                    {
                        // The best r1 that is not d; an unset slot costs
                        // infinity.
                        let (c, r1) = if r1a != d { (c0, r1a) } else { (c1, r1b) };
                        let c = c + tail;
                        if c <= bound {
                            bound = offer(&mut top, (c, [s, r1, r2, d], 4));
                        }
                    }
                }
                let paths: Vec<OverlayPath> = top
                    .iter()
                    .filter(|c| admissible(c))
                    .map(|&(weight, idx_path, len)| OverlayPath {
                        nodes: idx_path[..len as usize].iter().map(|&i| ids[i]).collect(),
                        weight,
                        computed_at: now,
                        last_resort: false,
                    })
                    .collect();
                out.insert((ids[s], ids[d]), paths);
            }
        }
        out
    }

    /// Build last-resort paths for a pair: producer → LR relay → consumer,
    /// best (lowest RTT sum) first (§4.3 "Last-Resort Paths").
    pub fn last_resort_paths(
        &self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> Vec<OverlayPath> {
        let mut out: Vec<OverlayPath> = topology
            .last_resort_ids()
            .filter_map(|lr| {
                if !topology.link_is_up(src, lr) || !topology.link_is_up(lr, dst) {
                    return None;
                }
                let up = topology.link(src, lr)?;
                let down = topology.link(lr, dst)?;
                Some(OverlayPath {
                    nodes: vec![src, lr, dst],
                    weight: link_weight(up.rtt, up.loss, 0.0, self.config.weight)
                        + link_weight(down.rtt, down.loss, 0.0, self.config.weight),
                    computed_at: now,
                    last_resort: true,
                })
            })
            .collect();
        out.sort_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap_or(std::cmp::Ordering::Equal));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::{GeoConfig, GeoTopology};

    fn topo(seed: u64) -> Topology {
        GeoTopology::generate(&GeoConfig::tiny(seed)).topology
    }

    #[test]
    fn compute_all_covers_all_routable_pairs() {
        let t = topo(1);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let pib = gr.compute_all(&t, SimTime::ZERO);
        let n = t.routable_node_ids().count();
        assert_eq!(pib.len(), n * (n - 1));
        // Every pair in a healthy full mesh has at least one path.
        assert!(pib.values().all(|v| !v.is_empty()));
    }

    #[test]
    fn paths_respect_hop_limit() {
        let t = topo(2);
        let gr = GlobalRouting::new(RoutingConfig::default());
        for paths in gr.compute_all(&t, SimTime::ZERO).values() {
            for p in paths {
                assert!(p.hops() <= 3);
                assert!(p.hops() >= 1);
            }
        }
    }

    #[test]
    fn paths_sorted_by_weight_and_start_end_correct() {
        let t = topo(3);
        let gr = GlobalRouting::new(RoutingConfig::default());
        for ((src, dst), paths) in gr.compute_all(&t, SimTime::ZERO) {
            for w in paths.windows(2) {
                assert!(w[0].weight <= w[1].weight);
            }
            for p in &paths {
                assert_eq!(p.producer(), src);
                assert_eq!(p.consumer(), dst);
            }
        }
    }

    #[test]
    fn overloaded_node_is_avoided() {
        let mut t = topo(4);
        let gr = GlobalRouting::new(RoutingConfig::default());
        // Overload one node; recompute; no path may traverse it (except as
        // endpoint... the paper invalidates those too, so endpoints count).
        let victim = t.routable_node_ids().nth(2).unwrap();
        t.node_mut(victim).unwrap().utilization = 0.95;
        let pib = gr.compute_all(&t, SimTime::ZERO);
        for ((src, dst), paths) in &pib {
            if *src == victim || *dst == victim {
                // Paths from/to an overloaded node are filtered entirely.
                assert!(paths.is_empty(), "pair ({src},{dst}) kept {paths:?}");
            } else {
                for p in paths {
                    assert!(!p.contains_node(victim));
                }
            }
        }
    }

    #[test]
    fn overloaded_link_is_avoided() {
        let mut t = topo(5);
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        let (a, b) = (ids[0], ids[1]);
        t.link_mut(a, b).unwrap().utilization = 0.9;
        let gr = GlobalRouting::new(RoutingConfig::default());
        let pib = gr.compute_all(&t, SimTime::ZERO);
        for paths in pib.values() {
            for p in paths {
                assert!(!p.contains_link(a, b));
            }
        }
        // The reverse direction is unaffected: paths still exist, and none
        // of them needs to dodge the (directed) overloaded link a→b.
        assert!(!pib[&(b, a)].is_empty());
        for p in &pib[&(b, a)] {
            assert!(!p.contains_link(a, b));
        }
    }

    #[test]
    fn loaded_links_get_heavier_and_lose_preference() {
        let mut t = topo(6);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        let (a, b) = (ids[0], ids[1]);
        let before = gr.compute_all(&t, SimTime::ZERO);
        let best_before = before[&(a, b)][0].clone();
        // Load every link on the previously-best path to just under target.
        for w in best_before.nodes.windows(2) {
            t.link_mut(w[0], w[1]).unwrap().utilization = 0.79;
        }
        let after = gr.compute_all(&t, SimTime::ZERO);
        let best_after = &after[&(a, b)][0];
        // Weight of the same path must have grown; best path may change.
        assert!(best_after.weight <= best_before.weight * 1.6);
        let same_path_after = after[&(a, b)]
            .iter()
            .find(|p| p.nodes == best_before.nodes);
        if let Some(p) = same_path_after {
            assert!(p.weight > best_before.weight);
        }
    }

    #[test]
    fn mesh_fast_path_matches_yen_best_paths() {
        for seed in 1..6 {
            let t = topo(seed);
            let gr = GlobalRouting::new(RoutingConfig::default());
            let graph = gr.build_graph(&t);
            let mesh = gr.compute_all_mesh(&t, SimTime::ZERO);
            let ids: Vec<NodeId> = t.routable_node_ids().collect();
            for &src in &ids {
                for &dst in &ids {
                    if src == dst {
                        continue;
                    }
                    let yen = gr.compute_pair(&t, &graph, src, dst, SimTime::ZERO);
                    let fast = &mesh[&(src, dst)];
                    assert_eq!(
                        yen.first().map(|p| &p.nodes),
                        fast.first().map(|p| &p.nodes),
                        "seed {seed} pair ({src},{dst}): best path differs"
                    );
                    if let (Some(a), Some(b)) = (yen.first(), fast.first()) {
                        assert!((a.weight - b.weight).abs() < 1e-9);
                    }
                    // All fast paths are valid, sorted and within bounds.
                    for w in fast.windows(2) {
                        assert!(w[0].weight <= w[1].weight);
                    }
                    for p in fast {
                        assert!(p.hops() <= 3);
                        assert_eq!(p.producer(), src);
                        assert_eq!(p.consumer(), dst);
                    }
                }
            }
        }
    }

    #[test]
    fn last_resort_paths_are_two_hops_via_reserved_nodes() {
        let t = topo(7);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        let lrs: Vec<NodeId> = t.last_resort_ids().collect();
        let paths = gr.last_resort_paths(&t, ids[0], ids[3], SimTime::ZERO);
        assert_eq!(paths.len(), lrs.len());
        for p in &paths {
            assert_eq!(p.hops(), 2);
            assert!(p.last_resort);
            assert!(lrs.contains(&p.nodes[1]));
        }
    }

    #[test]
    fn normal_routing_never_uses_last_resort_nodes() {
        let t = topo(8);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let lrs: Vec<NodeId> = t.last_resort_ids().collect();
        for paths in gr.compute_all(&t, SimTime::ZERO).values() {
            for p in paths {
                for lr in &lrs {
                    assert!(!p.contains_node(*lr));
                }
            }
        }
    }
}
