//! The Path Information Base (PIB) and Stream Information Base (SIB).
//!
//! Both are hash tables (paper §4.4): the SIB maps stream ID → producer
//! node; the PIB maps (producer, consumer) → candidate paths ordered by
//! preference. "As both information bases are built on hash tables, the
//! path lookup takes only a few milliseconds."

use livenet_types::{NodeId, SimTime, StreamId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One computed overlay path: the node sequence from producer to consumer
/// (inclusive), with its abstracted weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlayPath {
    /// Nodes from producer (first) to consumer (last).
    pub nodes: Vec<NodeId>,
    /// Abstracted weight (Eq. 2 sum) at computation time, in ms.
    pub weight: f64,
    /// When Global Routing computed the path.
    pub computed_at: SimTime,
    /// True when this is a reserved last-resort path (§4.3).
    pub last_resort: bool,
}

impl OverlayPath {
    /// Number of overlay hops (links). 0 when producer == consumer.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Producer end.
    pub fn producer(&self) -> NodeId {
        *self.nodes.first().expect("non-empty path")
    }

    /// Consumer end.
    pub fn consumer(&self) -> NodeId {
        *self.nodes.last().expect("non-empty path")
    }

    /// True when the path traverses `node`.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// True when the path traverses the directed link `from → to`.
    pub fn contains_link(&self, from: NodeId, to: NodeId) -> bool {
        self.nodes.windows(2).any(|w| w[0] == from && w[1] == to)
    }
}

/// The Path Information Base.
///
/// Remembers the nodes and directed links it has invalidated since the
/// last [`Pib::replace_all`] or [`Pib::insert`]: no stored path can cross
/// them until one of those installs new paths, so a repeated overload
/// alarm returns 0 without scanning the table.
#[derive(Debug, Clone, Default)]
pub struct Pib {
    paths: HashMap<(NodeId, NodeId), Vec<OverlayPath>>,
    invalidated_nodes: HashSet<NodeId>,
    invalidated_links: HashSet<(NodeId, NodeId)>,
}

impl Pib {
    /// Empty PIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace all entries with a fresh Global Routing output.
    pub fn replace_all(&mut self, entries: HashMap<(NodeId, NodeId), Vec<OverlayPath>>) {
        self.paths = entries;
        self.forget_invalidations();
    }

    /// Install/replace the candidate list for one pair.
    pub fn insert(&mut self, src: NodeId, dst: NodeId, paths: Vec<OverlayPath>) {
        self.paths.insert((src, dst), paths);
        self.forget_invalidations();
    }

    /// New paths may cross anything invalidated before.
    fn forget_invalidations(&mut self) {
        self.invalidated_nodes.clear();
        self.invalidated_links.clear();
    }

    /// Candidate paths for a pair, best first.
    pub fn lookup(&self, src: NodeId, dst: NodeId) -> Option<&[OverlayPath]> {
        self.paths.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Number of pairs with entries.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when the PIB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Total number of stored paths.
    pub fn total_paths(&self) -> usize {
        self.paths.values().map(Vec::len).sum()
    }

    /// Invalidate (remove) every path traversing `node` (overload alarm).
    /// Returns the number of paths removed.
    pub fn invalidate_node(&mut self, node: NodeId) -> usize {
        if !self.invalidated_nodes.insert(node) {
            return 0;
        }
        let mut removed = 0;
        for paths in self.paths.values_mut() {
            let before = paths.len();
            paths.retain(|p| !p.contains_node(node));
            removed += before - paths.len();
        }
        removed
    }

    /// Invalidate every path traversing the directed link `from → to`.
    /// A path crossing the link crosses both endpoints, so nothing is left
    /// to remove once either endpoint was invalidated.
    pub fn invalidate_link(&mut self, from: NodeId, to: NodeId) -> usize {
        if self.invalidated_nodes.contains(&from)
            || self.invalidated_nodes.contains(&to)
            || !self.invalidated_links.insert((from, to))
        {
            return 0;
        }
        let mut removed = 0;
        for paths in self.paths.values_mut() {
            let before = paths.len();
            paths.retain(|p| !p.contains_link(from, to));
            removed += before - paths.len();
        }
        removed
    }

    /// Iterate all (pair, paths).
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &Vec<OverlayPath>)> {
        self.paths.iter()
    }
}

/// The Stream Information Base: stream ID → producer node.
#[derive(Debug, Clone, Default)]
pub struct Sib {
    streams: HashMap<StreamId, NodeId>,
}

impl Sib {
    /// Empty SIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new stream at its producer (stream upload request, §4.1).
    pub fn register(&mut self, stream: StreamId, producer: NodeId) {
        self.streams.insert(stream, producer);
    }

    /// Remove a finished stream.
    pub fn unregister(&mut self, stream: StreamId) -> Option<NodeId> {
        self.streams.remove(&stream)
    }

    /// Producer of a stream.
    pub fn producer_of(&self, stream: StreamId) -> Option<NodeId> {
        self.streams.get(&stream).copied()
    }

    /// Number of active streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no streams are registered.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// All active streams.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, NodeId)> + '_ {
        self.streams.iter().map(|(&s, &n)| (s, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[u64], weight: f64) -> OverlayPath {
        OverlayPath {
            nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            weight,
            computed_at: SimTime::ZERO,
            last_resort: false,
        }
    }

    #[test]
    fn hops_counts_links() {
        assert_eq!(path(&[1], 0.0).hops(), 0);
        assert_eq!(path(&[1, 2], 1.0).hops(), 1);
        assert_eq!(path(&[1, 2, 3], 2.0).hops(), 2);
    }

    #[test]
    fn contains_link_is_directed() {
        let p = path(&[1, 2, 3], 2.0);
        assert!(p.contains_link(NodeId::new(1), NodeId::new(2)));
        assert!(!p.contains_link(NodeId::new(2), NodeId::new(1)));
        assert!(!p.contains_link(NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    fn pib_lookup_and_replace() {
        let mut pib = Pib::new();
        let a = NodeId::new(1);
        let b = NodeId::new(3);
        pib.insert(a, b, vec![path(&[1, 2, 3], 10.0), path(&[1, 3], 20.0)]);
        assert_eq!(pib.lookup(a, b).unwrap().len(), 2);
        assert!(pib.lookup(b, a).is_none());
        assert_eq!(pib.total_paths(), 2);
    }

    #[test]
    fn invalidate_node_removes_traversing_paths() {
        let mut pib = Pib::new();
        pib.insert(
            NodeId::new(1),
            NodeId::new(3),
            vec![path(&[1, 2, 3], 10.0), path(&[1, 3], 20.0)],
        );
        pib.insert(
            NodeId::new(1),
            NodeId::new(4),
            vec![path(&[1, 2, 4], 12.0)],
        );
        let removed = pib.invalidate_node(NodeId::new(2));
        assert_eq!(removed, 2);
        assert_eq!(pib.lookup(NodeId::new(1), NodeId::new(3)).unwrap().len(), 1);
        assert!(pib.lookup(NodeId::new(1), NodeId::new(4)).unwrap().is_empty());
    }

    #[test]
    fn invalidate_link_is_directed() {
        let mut pib = Pib::new();
        pib.insert(
            NodeId::new(1),
            NodeId::new(3),
            vec![path(&[1, 2, 3], 10.0)],
        );
        assert_eq!(pib.invalidate_link(NodeId::new(2), NodeId::new(1)), 0);
        assert_eq!(pib.invalidate_link(NodeId::new(1), NodeId::new(2)), 1);
    }

    #[test]
    fn repeated_invalidation_is_remembered_until_new_paths_arrive() {
        let (a, b, c) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let mut pib = Pib::new();
        pib.insert(a, c, vec![path(&[1, 2, 3], 10.0)]);
        assert_eq!(pib.invalidate_node(b), 1);
        assert_eq!(pib.invalidate_node(b), 0);
        // The node memo covers every link touching it.
        assert_eq!(pib.invalidate_link(a, b), 0);
        // `insert` re-arms the memo.
        pib.insert(a, c, vec![path(&[1, 2, 3], 10.0)]);
        assert_eq!(pib.invalidate_link(a, b), 1);
        assert_eq!(pib.invalidate_link(a, b), 0);
        // So does `replace_all`.
        let mut fresh = HashMap::new();
        fresh.insert((a, c), vec![path(&[1, 2, 3], 10.0)]);
        pib.replace_all(fresh.clone());
        assert_eq!(pib.invalidate_link(a, b), 1);
        pib.replace_all(fresh);
        assert_eq!(pib.invalidate_node(b), 1);
    }

    #[test]
    fn link_memo_is_directed() {
        let mut pib = Pib::new();
        pib.insert(
            NodeId::new(1),
            NodeId::new(3),
            vec![path(&[1, 2, 3], 10.0), path(&[2, 1, 3], 11.0)],
        );
        assert_eq!(pib.invalidate_link(NodeId::new(1), NodeId::new(2)), 1);
        // The reverse direction is not covered by the memo.
        assert_eq!(pib.invalidate_link(NodeId::new(2), NodeId::new(1)), 1);
        assert_eq!(pib.total_paths(), 0);
    }

    #[test]
    fn sib_register_lookup_unregister() {
        let mut sib = Sib::new();
        let s = StreamId::new(7);
        assert!(sib.producer_of(s).is_none());
        sib.register(s, NodeId::new(2));
        assert_eq!(sib.producer_of(s), Some(NodeId::new(2)));
        assert_eq!(sib.unregister(s), Some(NodeId::new(2)));
        assert!(sib.is_empty());
    }

    #[test]
    fn sib_reregister_moves_producer() {
        // Broadcaster mobility: the stream may re-home (§7.1).
        let mut sib = Sib::new();
        let s = StreamId::new(7);
        sib.register(s, NodeId::new(2));
        sib.register(s, NodeId::new(5));
        assert_eq!(sib.producer_of(s), Some(NodeId::new(5)));
        assert_eq!(sib.len(), 1);
    }
}
