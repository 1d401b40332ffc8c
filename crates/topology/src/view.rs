//! The Brain's global view and the node reports that build it.
//!
//! CDN nodes report link latency (RTT), packet loss rate, link utilization
//! and node load on a 1-minute time scale (paper §4.2). The Global Discovery
//! module folds these into a [`GlobalView`] — the input to Global Routing —
//! and raises overload alarms when a node or link crosses the 80% target.

use crate::graph::{LinkMetrics, Topology};
use livenet_types::{NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The pre-defined overload target (80%, paper §4.2 / §4.3 constraint ii).
pub const OVERLOAD_TARGET: f64 = 0.80;

/// One link measurement inside a node report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Far end of the measured link.
    pub to: NodeId,
    /// Measured round-trip time.
    pub rtt: SimDuration,
    /// Measured loss rate in [0, 1].
    pub loss: f64,
    /// Link utilization in [0, 1].
    pub utilization: f64,
    /// True when the node had recent traffic on the link and read these from
    /// the transport layer; false when it fell back to UDP-ping probing
    /// (paper §4.2).
    pub from_transport: bool,
}

/// A periodic report from one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Reporting node.
    pub node: NodeId,
    /// When the report was generated.
    pub at: SimTime,
    /// Combined node load in [0, 1].
    pub utilization: f64,
    /// Per-link measurements.
    pub links: Vec<LinkReport>,
}

/// The assembled global view: freshest known state per node and link.
///
/// Backed by hash maps: every read/write is point access, and the only
/// iteration ([`GlobalView::apply_to`]) writes disjoint keys, so the
/// result never depends on iteration order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalView {
    node_util: HashMap<NodeId, (SimTime, f64)>,
    link_state: HashMap<(NodeId, NodeId), (SimTime, LinkReport)>,
}

impl GlobalView {
    /// Empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one node report into the view (newest-wins per key) and write
    /// the stored value of every key the report names through to
    /// `topology`, the Brain's working graph: one map entry per key.
    ///
    /// `on_update` runs, in report order, for each key the report actually
    /// updated: `None` for the node's own utilization, `Some(link)` for a
    /// link. A key whose stored entry is newer than `report.at` keeps its
    /// value and is not passed.
    ///
    /// Writing only the named keys is equivalent to a full
    /// [`GlobalView::apply_to`] provided the topology's measured fields
    /// change only through this method: every other key already holds the
    /// view's freshest value from an earlier write-through. That makes the
    /// per-report cost O(report) rather than O(view).
    pub fn absorb(
        &mut self,
        report: &NodeReport,
        topology: &mut Topology,
        mut on_update: impl FnMut(Option<&LinkReport>),
    ) {
        let entry = self.node_util.entry(report.node).or_insert((report.at, 0.0));
        if report.at >= entry.0 {
            *entry = (report.at, report.utilization);
            on_update(None);
        }
        if let Some(n) = topology.node_mut(report.node) {
            n.utilization = entry.1;
        }
        // Reports list their links in ascending order (as
        // `report_from_topology` builds them), so the write-through walks
        // the node's sorted out-links once instead of looking each one up.
        // A link out of order, or repeated, restarts the walk.
        let mut out = topology.out_links_mut(report.node).peekable();
        let mut prev = None;
        for lr in &report.links {
            let entry = self
                .link_state
                .entry((report.node, lr.to))
                .or_insert((report.at, *lr));
            if report.at >= entry.0 {
                *entry = (report.at, *lr);
                on_update(Some(lr));
            }
            if prev.is_some_and(|p| lr.to <= p) {
                drop(out);
                out = topology.out_links_mut(report.node).peekable();
            }
            prev = Some(lr.to);
            while out.next_if(|(to, _)| *to < lr.to).is_some() {}
            if let Some((_, l)) = out.next_if(|(to, _)| *to == lr.to) {
                write_link(l, &entry.1);
            }
        }
    }

    /// Last reported utilization of a node (None if never reported).
    pub fn node_utilization(&self, node: NodeId) -> Option<f64> {
        self.node_util.get(&node).map(|&(_, u)| u)
    }

    /// Last reported state of a directed link.
    pub fn link_report(&self, from: NodeId, to: NodeId) -> Option<&LinkReport> {
        self.link_state.get(&(from, to)).map(|(_, r)| r)
    }

    /// True when the node is at or beyond the overload target.
    pub fn node_overloaded(&self, node: NodeId) -> bool {
        self.node_utilization(node)
            .is_some_and(|u| u >= OVERLOAD_TARGET)
    }

    /// True when the link is at or beyond the overload target.
    pub fn link_overloaded(&self, from: NodeId, to: NodeId) -> bool {
        self.link_report(from, to)
            .is_some_and(|r| r.utilization >= OVERLOAD_TARGET)
    }

    /// Write the view's freshest measurements back into a [`Topology`]
    /// (the Brain's working graph for route computation).
    pub fn apply_to(&self, topology: &mut Topology) {
        for (&node, &(_, util)) in &self.node_util {
            if let Some(n) = topology.node_mut(node) {
                n.utilization = util;
            }
        }
        for (&(from, to), &(_, report)) in &self.link_state {
            if let Some(l) = topology.link_mut(from, to) {
                write_link(l, &report);
            }
        }
    }

    /// Number of nodes with at least one report.
    pub fn reported_nodes(&self) -> usize {
        self.node_util.len()
    }

    /// Drop state older than `horizon` (stale nodes that stopped reporting).
    pub fn expire_before(&mut self, horizon: SimTime) {
        self.node_util.retain(|_, (t, _)| *t >= horizon);
        self.link_state.retain(|_, (t, _)| *t >= horizon);
    }
}

/// Copy a link's measured fields from a report.
fn write_link(l: &mut LinkMetrics, from: &LinkReport) {
    l.rtt = from.rtt;
    l.loss = from.loss;
    l.utilization = from.utilization;
}

/// Build the report a node would send given the true topology state —
/// used by simulations to produce 1-minute report streams.
pub fn report_from_topology(topology: &Topology, node: NodeId, at: SimTime) -> Option<NodeReport> {
    let info = topology.node(node)?;
    let links = topology
        .neighbors(node)
        .map(|(to, m)| LinkReport {
            to,
            rtt: m.rtt,
            loss: m.loss,
            utilization: m.utilization,
            from_transport: m.utilization > 0.0,
        })
        .collect();
    Some(NodeReport {
        node,
        at,
        utilization: info.utilization,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{GeoConfig, GeoTopology};

    fn report(node: u64, at_ms: u64, util: f64, link_to: u64, link_util: f64) -> NodeReport {
        NodeReport {
            node: NodeId::new(node),
            at: SimTime::from_millis(at_ms),
            utilization: util,
            links: vec![LinkReport {
                to: NodeId::new(link_to),
                rtt: SimDuration::from_millis(20),
                loss: 0.001,
                utilization: link_util,
                from_transport: true,
            }],
        }
    }

    /// Absorb into the view alone (no working topology to write through).
    fn absorb(v: &mut GlobalView, r: &NodeReport) {
        v.absorb(r, &mut Topology::new(), |_| {});
    }

    #[test]
    fn absorb_keeps_newest() {
        let mut v = GlobalView::new();
        absorb(&mut v, &report(1, 100, 0.5, 2, 0.1));
        absorb(&mut v, &report(1, 50, 0.9, 2, 0.9)); // stale, ignored
        assert_eq!(v.node_utilization(NodeId::new(1)), Some(0.5));
        assert_eq!(
            v.link_report(NodeId::new(1), NodeId::new(2)).unwrap().utilization,
            0.1
        );
        absorb(&mut v, &report(1, 200, 0.7, 2, 0.85));
        assert_eq!(v.node_utilization(NodeId::new(1)), Some(0.7));
    }

    #[test]
    fn overload_thresholds() {
        let mut v = GlobalView::new();
        absorb(&mut v, &report(1, 1, 0.79, 2, 0.85));
        assert!(!v.node_overloaded(NodeId::new(1)));
        assert!(v.link_overloaded(NodeId::new(1), NodeId::new(2)));
        absorb(&mut v, &report(1, 2, 0.80, 2, 0.2));
        assert!(v.node_overloaded(NodeId::new(1)));
        assert!(!v.link_overloaded(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn unreported_is_not_overloaded() {
        let v = GlobalView::new();
        assert!(!v.node_overloaded(NodeId::new(9)));
        assert!(!v.link_overloaded(NodeId::new(9), NodeId::new(10)));
    }

    #[test]
    fn apply_to_updates_topology() {
        let g = GeoTopology::generate(&GeoConfig::tiny(1));
        let mut topo = g.topology.clone();
        let a = g.node_ids[0];
        let b = g.node_ids[1];
        let mut v = GlobalView::new();
        absorb(&mut v, &NodeReport {
            node: a,
            at: SimTime::from_secs(60),
            utilization: 0.42,
            links: vec![LinkReport {
                to: b,
                rtt: SimDuration::from_millis(99),
                loss: 0.01,
                utilization: 0.33,
                from_transport: true,
            }],
        });
        v.apply_to(&mut topo);
        assert_eq!(topo.node(a).unwrap().utilization, 0.42);
        let l = topo.link(a, b).unwrap();
        assert_eq!(l.rtt, SimDuration::from_millis(99));
        assert_eq!(l.loss, 0.01);
        assert_eq!(l.utilization, 0.33);
    }

    #[test]
    fn absorb_writes_through_stored_values_and_names_updated_keys() {
        let g = GeoTopology::generate(&GeoConfig::tiny(1));
        let mut topo = g.topology.clone();
        let (a, b) = (g.node_ids[0], g.node_ids[1]);
        let report = |at_secs: u64, util: f64| NodeReport {
            node: a,
            at: SimTime::from_secs(at_secs),
            utilization: util,
            links: vec![LinkReport {
                to: b,
                rtt: SimDuration::from_millis(99),
                loss: 0.01,
                utilization: util,
                from_transport: true,
            }],
        };
        let mut v = GlobalView::new();
        let mut updated = Vec::new();
        v.absorb(&report(120, 0.42), &mut topo, |k| updated.push(k.map(|l| l.to)));
        assert_eq!(updated, vec![None, Some(b)]);
        assert_eq!(topo.node(a).unwrap().utilization, 0.42);
        assert_eq!(topo.link(a, b).unwrap().utilization, 0.42);
        assert_eq!(topo.link(a, b).unwrap().rtt, SimDuration::from_millis(99));
        // A late report updates nothing, and the topology keeps (is
        // rewritten with) the newer stored values.
        topo.node_mut(a).unwrap().utilization = 0.0;
        updated.clear();
        v.absorb(&report(60, 0.9), &mut topo, |k| updated.push(k.map(|l| l.to)));
        assert!(updated.is_empty());
        assert_eq!(topo.node(a).unwrap().utilization, 0.42);
        assert_eq!(topo.link(a, b).unwrap().utilization, 0.42);
        // The fused write-through agrees with a full replay.
        let mut replay = g.topology.clone();
        v.apply_to(&mut replay);
        assert_eq!(replay.node(a), topo.node(a));
        assert_eq!(replay.link(a, b), topo.link(a, b));
    }

    #[test]
    fn absorb_write_through_handles_any_link_order() {
        let g = GeoTopology::generate(&GeoConfig::tiny(3));
        let a = g.node_ids[0];
        let mut sorted = report_from_topology(&g.topology, a, SimTime::from_secs(60)).unwrap();
        for (i, l) in sorted.links.iter_mut().enumerate() {
            l.utilization = 0.1 * i as f64;
            l.rtt = SimDuration::from_millis(10 + i as u64);
        }
        let mut reversed = sorted.clone();
        reversed.links.reverse();
        // A duplicate key: the later entry wins, as with any equal stamp.
        reversed.links.push(LinkReport {
            utilization: 0.77,
            ..reversed.links[0]
        });
        for report in [sorted, reversed] {
            let mut fused = g.topology.clone();
            let mut v = GlobalView::new();
            v.absorb(&report, &mut fused, |_| {});
            let mut replay = g.topology.clone();
            v.apply_to(&mut replay);
            for (to, _) in g.topology.neighbors(a) {
                assert_eq!(fused.link(a, to), replay.link(a, to));
                assert_eq!(
                    fused.link(a, to).unwrap().utilization,
                    v.link_report(a, to).unwrap().utilization
                );
            }
        }
    }

    #[test]
    fn report_from_topology_roundtrips() {
        let g = GeoTopology::generate(&GeoConfig::tiny(2));
        let a = g.node_ids[0];
        let rep = report_from_topology(&g.topology, a, SimTime::from_secs(60)).unwrap();
        assert_eq!(rep.node, a);
        assert_eq!(rep.links.len(), g.topology.neighbors(a).count());
        let mut v = GlobalView::new();
        absorb(&mut v, &rep);
        assert_eq!(v.reported_nodes(), 1);
    }

    #[test]
    fn expire_drops_stale_state() {
        let mut v = GlobalView::new();
        absorb(&mut v, &report(1, 100, 0.5, 2, 0.1));
        absorb(&mut v, &report(3, 5000, 0.5, 4, 0.1));
        v.expire_before(SimTime::from_millis(1000));
        assert_eq!(v.node_utilization(NodeId::new(1)), None);
        assert!(v.node_utilization(NodeId::new(3)).is_some());
    }
}
