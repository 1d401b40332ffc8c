//! Global Discovery (paper §4.2).
//!
//! Collects 1-minute reports from overlay nodes into the [`GlobalView`],
//! and handles *real-time overload alarms*: when a node reports itself or
//! one of its links at ≥ 80% utilization, the corresponding PIB entries are
//! invalidated immediately (without waiting for the 10-minute recompute).

use crate::pib::Pib;
use livenet_topology::{GlobalView, NodeReport, Topology, OVERLOAD_TARGET};
use livenet_types::NodeId;
use serde::{Deserialize, Serialize};

/// An overload alarm raised by a node outside the periodic report cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverloadAlarm {
    /// The node itself crossed the target.
    Node(NodeId),
    /// A directed link crossed the target.
    Link(NodeId, NodeId),
}

/// The Global Discovery module.
#[derive(Debug, Default)]
pub struct GlobalDiscovery {
    view: GlobalView,
    /// Alarms processed (telemetry).
    pub alarms_handled: u64,
    /// Paths invalidated by alarms (telemetry).
    pub paths_invalidated: u64,
}

impl GlobalDiscovery {
    /// Empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled global view.
    pub fn view(&self) -> &GlobalView {
        &self.view
    }

    /// Absorb a periodic node report into the view and write it through
    /// to the working `topology`. Returns any overload alarms implied by
    /// the report itself (≥ target utilization triggers the same path
    /// invalidation as an explicit alarm).
    ///
    /// Only keys the report actually updated can raise an alarm: a late
    /// report that newest-wins rejects says nothing about the current
    /// state, so it must not invalidate paths that newer state says are
    /// fine.
    pub fn absorb_report(
        &mut self,
        report: &NodeReport,
        pib: &mut Pib,
        topology: &mut Topology,
    ) -> Vec<OverloadAlarm> {
        let mut alarms = Vec::new();
        self.view.absorb(report, topology, |updated| match updated {
            None if report.utilization >= OVERLOAD_TARGET => {
                alarms.push(OverloadAlarm::Node(report.node));
            }
            Some(l) if l.utilization >= OVERLOAD_TARGET => {
                alarms.push(OverloadAlarm::Link(report.node, l.to));
            }
            _ => {}
        });
        for &alarm in &alarms {
            self.handle_alarm(alarm, pib);
        }
        alarms
    }

    /// Handle an explicit real-time overload alarm: invalidate PIB paths.
    pub fn handle_alarm(&mut self, alarm: OverloadAlarm, pib: &mut Pib) -> usize {
        self.alarms_handled += 1;
        let removed = match alarm {
            OverloadAlarm::Node(n) => pib.invalidate_node(n),
            OverloadAlarm::Link(a, b) => pib.invalidate_link(a, b),
        };
        self.paths_invalidated += removed as u64;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pib::OverlayPath;
    use livenet_topology::LinkReport;
    use livenet_types::{SimDuration, SimTime};

    fn pib_with_paths() -> Pib {
        let mut pib = Pib::new();
        pib.insert(
            NodeId::new(1),
            NodeId::new(3),
            vec![
                OverlayPath {
                    nodes: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
                    weight: 10.0,
                    computed_at: SimTime::ZERO,
                    last_resort: false,
                },
                OverlayPath {
                    nodes: vec![NodeId::new(1), NodeId::new(4), NodeId::new(3)],
                    weight: 12.0,
                    computed_at: SimTime::ZERO,
                    last_resort: false,
                },
            ],
        );
        pib
    }

    fn report(node: u64, util: f64, link_util: f64) -> NodeReport {
        NodeReport {
            node: NodeId::new(node),
            at: SimTime::from_secs(60),
            utilization: util,
            links: vec![LinkReport {
                to: NodeId::new(3),
                rtt: SimDuration::from_millis(20),
                loss: 0.0,
                utilization: link_util,
                from_transport: true,
            }],
        }
    }

    #[test]
    fn healthy_report_raises_no_alarm() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        let alarms = d.absorb_report(&report(2, 0.4, 0.3), &mut pib, &mut Topology::new());
        assert!(alarms.is_empty());
        assert_eq!(pib.total_paths(), 2);
        assert_eq!(d.view().node_utilization(NodeId::new(2)), Some(0.4));
    }

    #[test]
    fn node_overload_invalidates_traversing_paths() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        let alarms = d.absorb_report(&report(2, 0.85, 0.3), &mut pib, &mut Topology::new());
        assert_eq!(alarms, vec![OverloadAlarm::Node(NodeId::new(2))]);
        // Path via node 2 removed; via node 4 kept.
        let remaining = pib.lookup(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(remaining.len(), 1);
        assert!(remaining[0].contains_node(NodeId::new(4)));
        assert_eq!(d.paths_invalidated, 1);
    }

    #[test]
    fn link_overload_invalidates_directed_link_paths() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        // Node 2 reports link 2→3 overloaded.
        let alarms = d.absorb_report(&report(2, 0.1, 0.9), &mut pib, &mut Topology::new());
        assert_eq!(
            alarms,
            vec![OverloadAlarm::Link(NodeId::new(2), NodeId::new(3))]
        );
        let remaining = pib.lookup(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(remaining.len(), 1);
    }

    #[test]
    fn explicit_alarm_counts() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        let removed = d.handle_alarm(OverloadAlarm::Node(NodeId::new(4)), &mut pib);
        assert_eq!(removed, 1);
        assert_eq!(d.alarms_handled, 1);
    }

    #[test]
    fn repeated_alarm_removes_nothing_but_still_counts() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        let alarm = OverloadAlarm::Node(NodeId::new(2));
        assert_eq!(d.handle_alarm(alarm, &mut pib), 1);
        assert_eq!(d.handle_alarm(alarm, &mut pib), 0);
        assert_eq!(d.alarms_handled, 2);
        assert_eq!(d.paths_invalidated, 1);
    }

    #[test]
    fn stale_overloaded_report_raises_no_alarm() {
        let mut d = GlobalDiscovery::new();
        let mut pib = pib_with_paths();
        let mut topology = Topology::new();
        let fresh = report(2, 0.1, 0.1);
        d.absorb_report(&fresh, &mut pib, &mut topology);
        // A report generated before the one already absorbed arrives late
        // with node 2 and link 2→3 overloaded: newest-wins rejects it, so
        // it must not invalidate anything.
        let late = NodeReport {
            at: SimTime::from_secs(30),
            ..report(2, 0.95, 0.95)
        };
        assert!(d.absorb_report(&late, &mut pib, &mut topology).is_empty());
        assert_eq!(pib.total_paths(), 2);
        assert_eq!(d.alarms_handled, 0);
        assert_eq!(d.view().node_utilization(NodeId::new(2)), Some(0.1));
        // The same report on time does raise both alarms.
        let on_time = NodeReport {
            at: SimTime::from_secs(120),
            ..report(2, 0.95, 0.95)
        };
        assert_eq!(
            d.absorb_report(&on_time, &mut pib, &mut topology),
            vec![
                OverloadAlarm::Node(NodeId::new(2)),
                OverloadAlarm::Link(NodeId::new(2), NodeId::new(3)),
            ]
        );
    }
}
