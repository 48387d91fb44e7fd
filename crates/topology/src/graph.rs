//! Core interconnect-graph representation shared by every NoI/NoC generator.
//!
//! A [`Topology`] is an undirected multigraph of routers ("nodes"), each
//! attached to exactly one chiplet (2.5D) or processing element (3D). Links
//! carry a *physical length* expressed in grid-hop units; a "one-hop" link
//! spans adjacent grid positions, while e.g. Kite skip links span two.

use std::collections::VecDeque;
use std::fmt;

use serde::Serialize;

/// Identifier of a router/chiplet node inside a [`Topology`].
///
/// Node ids are dense: they always range over `0..topology.node_count()`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of a link inside a [`Topology`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Integer grid coordinate of a router. `z` is the tier for 3D stacks and is
/// zero for 2.5D interposer systems.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize)]
pub struct Coord {
    /// Column (x position on the interposer / tier).
    pub x: u16,
    /// Row (y position on the interposer / tier).
    pub y: u16,
    /// Tier (0 = closest to the interposer; for 3D stacks, tier 0 is the
    /// one nearest the heat sink unless stated otherwise by the generator).
    pub z: u16,
}

impl Coord {
    /// Creates a planar (2.5D) coordinate with `z = 0`.
    pub fn new2(x: u16, y: u16) -> Self {
        Coord { x, y, z: 0 }
    }

    /// Creates a full 3D coordinate.
    pub fn new3(x: u16, y: u16, z: u16) -> Self {
        Coord { x, y, z }
    }

    /// Manhattan distance between two coordinates, counting the tier
    /// dimension with the same unit weight as the planar dimensions.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        let dz = (i32::from(self.z) - i32::from(other.z)).unsigned_abs();
        dx + dy + dz
    }

    /// Planar (x/y only) Manhattan distance.
    pub fn manhattan2(self, other: Coord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.z == 0 {
            write!(f, "({},{})", self.x, self.y)
        } else {
            write!(f, "({},{},{})", self.x, self.y, self.z)
        }
    }
}

/// A router node and the chiplet/PE attached to it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Node {
    /// Dense identifier of this node.
    pub id: NodeId,
    /// Grid position of the router.
    pub coord: Coord,
}

/// An undirected link between two routers.
#[derive(Copy, Clone, PartialEq, Debug, Serialize)]
pub struct Link {
    /// Dense identifier of this link.
    pub id: LinkId,
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Physical length in grid-hop units (adjacent chiplets are 1 apart).
    pub length_hops: u32,
}

impl Link {
    /// Returns the endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this link.
    pub fn opposite(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of link {:?}", self.id)
        }
    }
}

/// The family a generated topology belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
#[non_exhaustive]
pub enum TopologyKind {
    /// SIAM-style 2D mesh network-on-interposer.
    Mesh2d,
    /// Plain torus.
    Torus,
    /// Kite-family interposer topology (folded-torus-like, skip links).
    Kite,
    /// SWAP small-world, application-specific NoI.
    Swap,
    /// Floret space-filling-curve NoI.
    Floret,
    /// 3D mesh NoC.
    Mesh3d,
    /// Floret-inspired 3D SFC NoC.
    Sfc3d,
    /// Anything built manually through [`TopologyBuilder`].
    Custom,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Mesh2d => "mesh2d",
            TopologyKind::Torus => "torus",
            TopologyKind::Kite => "kite",
            TopologyKind::Swap => "swap",
            TopologyKind::Floret => "floret",
            TopologyKind::Mesh3d => "mesh3d",
            TopologyKind::Sfc3d => "sfc3d",
            TopologyKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// Error produced while building or querying a [`Topology`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum TopologyError {
    /// A link referenced a node id outside `0..node_count`.
    UnknownNode(NodeId),
    /// A link connected a node to itself.
    SelfLoop(NodeId),
    /// The same unordered node pair was linked twice.
    DuplicateLink(NodeId, NodeId),
    /// The generator was asked for an empty or degenerate configuration.
    InvalidDimensions(String),
    /// The topology is not connected (every NoI/NoC must be).
    Disconnected {
        /// Nodes reachable from node 0.
        reachable: usize,
        /// Total node count.
        total: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "link references unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopologyError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between {a} and {b}")
            }
            TopologyError::InvalidDimensions(msg) => {
                write!(f, "invalid topology dimensions: {msg}")
            }
            TopologyError::Disconnected { reachable, total } => write!(
                f,
                "topology is disconnected: only {reachable} of {total} nodes reachable"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental builder for [`Topology`] (see `C-BUILDER`).
///
/// # Examples
///
/// ```
/// use topology::{Coord, TopologyBuilder, TopologyKind};
///
/// let mut b = TopologyBuilder::new(TopologyKind::Custom, "line3");
/// let n0 = b.add_node(Coord::new2(0, 0));
/// let n1 = b.add_node(Coord::new2(1, 0));
/// let n2 = b.add_node(Coord::new2(2, 0));
/// b.add_link(n0, n1)?;
/// b.add_link(n1, n2)?;
/// let topo = b.build()?;
/// assert_eq!(topo.node_count(), 3);
/// assert_eq!(topo.link_count(), 2);
/// # Ok::<(), topology::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    kind: TopologyKind,
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder for a topology of the given kind and name.
    pub fn new(kind: TopologyKind, name: impl Into<String>) -> Self {
        TopologyBuilder {
            kind,
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a router node at `coord` and returns its id.
    pub fn add_node(&mut self, coord: Coord) -> NodeId {
        let id = NodeId(crate::narrow::u32_idx(self.nodes.len()));
        self.nodes.push(Node { id, coord });
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds an undirected link whose length is the Manhattan distance
    /// between the endpoint coordinates (minimum 1).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`], [`TopologyError::SelfLoop`] or
    /// [`TopologyError::DuplicateLink`] on invalid input.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> Result<LinkId, TopologyError> {
        let la = self
            .nodes
            .get(a.index())
            .ok_or(TopologyError::UnknownNode(a))?
            .coord;
        let lb = self
            .nodes
            .get(b.index())
            .ok_or(TopologyError::UnknownNode(b))?
            .coord;
        self.add_link_with_length(a, b, la.manhattan(lb).max(1))
    }

    /// Adds an undirected link with an explicit physical length in hop units.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TopologyBuilder::add_link`].
    pub fn add_link_with_length(
        &mut self,
        a: NodeId,
        b: NodeId,
        length_hops: u32,
    ) -> Result<LinkId, TopologyError> {
        if a.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if self.has_link(a, b) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let id = LinkId(crate::narrow::u32_idx(self.links.len()));
        self.links.push(Link {
            id,
            a,
            b,
            length_hops: length_hops.max(1),
        });
        Ok(id)
    }

    /// Whether an undirected link between `a` and `b` already exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.links
            .iter()
            .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Current degree (number of incident links) of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.links.iter().filter(|l| l.a == n || l.b == n).count()
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if the link set does not
    /// connect every node, and [`TopologyError::InvalidDimensions`] if the
    /// builder holds no nodes.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.nodes.is_empty() {
            return Err(TopologyError::InvalidDimensions(
                "topology must contain at least one node".into(),
            ));
        }
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for l in &self.links {
            adj[l.a.index()].push((l.b, l.id));
            adj[l.b.index()].push((l.a, l.id));
        }
        let topo = Topology {
            kind: self.kind,
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            adj,
        };
        if topo.node_count() > 1 {
            let hops = topo.bfs_hops(NodeId(0));
            let reachable = hops.iter().filter(|h| h.is_some()).count();
            if reachable != topo.node_count() {
                return Err(TopologyError::Disconnected {
                    reachable,
                    total: topo.node_count(),
                });
            }
        }
        Ok(topo)
    }
}

/// An immutable interconnect topology: routers, links and adjacency.
///
/// Construct via [`TopologyBuilder`] or one of the generator functions in
/// this crate ([`crate::mesh2d`], [`crate::kite`], [`crate::swap`],
/// [`crate::floret`], ...).
#[derive(Clone, Debug, Serialize)]
pub struct Topology {
    kind: TopologyKind,
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// The topology family this instance belongs to.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Human-readable name (e.g. `"floret-10x10-l6"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of router nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All nodes, indexable by `NodeId::index`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexable by `LinkId::index`.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.index()]
    }

    /// Network degree of `n` (local/NI port excluded).
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// Number of router ports of `n`: its network degree. The local port
    /// that attaches the chiplet/PE network interface is *not* counted,
    /// matching the convention of Fig. 2(a) in the paper where SFC-interior
    /// Floret routers are described as two-port.
    pub fn ports(&self, n: NodeId) -> usize {
        self.degree(n)
    }

    /// Finds the node id at `coord`, if any.
    pub fn node_at(&self, coord: Coord) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.coord == coord).map(|n| n.id)
    }

    /// Breadth-first hop distances (number of links traversed) from `src`.
    /// Unreachable nodes map to `None`.
    pub fn bfs_hops(&self, src: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.nodes.len()];
        let mut q = VecDeque::new();
        dist[src.index()] = Some(0);
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()].expect("queued node has distance");
            for &(v, _) in &self.adj[u.index()] {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest hop distance between two nodes, in links traversed.
    ///
    /// Returns `None` when `dst` is unreachable from `src` (cannot happen
    /// for topologies built through [`TopologyBuilder::build`], which
    /// enforces connectivity).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.bfs_hops(src)[dst.index()]
    }

    /// All-pairs shortest hop distances. `O(V * (V + E))`.
    pub fn all_pairs_hops(&self) -> Vec<Vec<u32>> {
        self.nodes
            .iter()
            .map(|n| {
                self.bfs_hops(n.id)
                    .into_iter()
                    .map(|d| d.expect("connected topology"))
                    .collect()
            })
            .collect()
    }

    /// Dijkstra over links with a caller-supplied cost function, returning
    /// `(cost, parent_link)` per node. Used to build routing tables with
    /// latency-aware costs (long links are more expensive than short ones).
    pub fn dijkstra<F>(&self, src: NodeId, mut link_cost: F) -> Vec<(f64, Option<LinkId>)>
    where
        F: FnMut(&Link) -> f64,
    {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Entry(f64, NodeId);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap on cost; tie-break on node id for determinism.
                other
                    .0
                    .partial_cmp(&self.0)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.1.cmp(&self.1))
            }
        }

        let mut out: Vec<(f64, Option<LinkId>)> = vec![(f64::INFINITY, None); self.nodes.len()];
        out[src.index()].0 = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Entry(0.0, src));
        while let Some(Entry(cost, u)) = heap.pop() {
            if cost > out[u.index()].0 {
                continue;
            }
            for &(v, lid) in &self.adj[u.index()] {
                let w = link_cost(&self.links[lid.index()]);
                debug_assert!(w >= 0.0, "link costs must be non-negative");
                let next = cost + w;
                if next < out[v.index()].0 {
                    out[v.index()] = (next, Some(lid));
                    heap.push(Entry(next, v));
                }
            }
        }
        out
    }

    /// Shortest path between two nodes as a node sequence (inclusive of the
    /// endpoints), minimizing the supplied link cost.
    pub fn shortest_path<F>(&self, src: NodeId, dst: NodeId, link_cost: F) -> Vec<NodeId>
    where
        F: FnMut(&Link) -> f64,
    {
        let res = self.dijkstra(src, link_cost);
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let Some(lid) = res[cur.index()].1 else {
                return Vec::new(); // unreachable
            };
            cur = self.links[lid.index()].opposite(cur);
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Mean shortest-path hop distance over all ordered node pairs.
    pub fn avg_hops(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            return 0.0;
        }
        let apsp = self.all_pairs_hops();
        let total: u64 = apsp
            .iter()
            .flat_map(|row| row.iter().map(|&h| h as u64))
            .sum();
        total as f64 / (n as f64 * (n as f64 - 1.0))
    }

    /// Network diameter (maximum shortest-path hop distance).
    pub fn diameter(&self) -> u32 {
        self.all_pairs_hops()
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Total physical wire length over all links, in hop units.
    pub fn total_link_length(&self) -> u64 {
        self.links.iter().map(|l| l.length_hops as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u32) -> Topology {
        let mut b = TopologyBuilder::new(TopologyKind::Custom, format!("line{n}"));
        for i in 0..n {
            b.add_node(Coord::new2(crate::narrow::u16_idx(i as usize), 0));
        }
        for i in 1..n {
            b.add_link(NodeId(i - 1), NodeId(i)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = TopologyBuilder::new(TopologyKind::Custom, "t");
        let n = b.add_node(Coord::new2(0, 0));
        assert_eq!(b.add_link(n, n), Err(TopologyError::SelfLoop(n)));
    }

    #[test]
    fn builder_rejects_duplicate_links_both_orders() {
        let mut b = TopologyBuilder::new(TopologyKind::Custom, "t");
        let a = b.add_node(Coord::new2(0, 0));
        let c = b.add_node(Coord::new2(1, 0));
        b.add_link(a, c).unwrap();
        assert_eq!(b.add_link(c, a), Err(TopologyError::DuplicateLink(c, a)));
    }

    #[test]
    fn builder_rejects_unknown_node() {
        let mut b = TopologyBuilder::new(TopologyKind::Custom, "t");
        let a = b.add_node(Coord::new2(0, 0));
        assert_eq!(
            b.add_link(a, NodeId(7)),
            Err(TopologyError::UnknownNode(NodeId(7)))
        );
    }

    #[test]
    fn builder_rejects_disconnected_graph() {
        let mut b = TopologyBuilder::new(TopologyKind::Custom, "t");
        b.add_node(Coord::new2(0, 0));
        b.add_node(Coord::new2(5, 5));
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            TopologyError::Disconnected {
                reachable: 1,
                total: 2
            }
        ));
    }

    #[test]
    fn builder_rejects_empty() {
        let b = TopologyBuilder::new(TopologyKind::Custom, "t");
        assert!(matches!(
            b.build(),
            Err(TopologyError::InvalidDimensions(_))
        ));
    }

    #[test]
    fn line_distances() {
        let t = line(5);
        assert_eq!(t.hops(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
    }

    #[test]
    fn line_avg_hops_matches_closed_form() {
        // For a path of n nodes, sum over ordered pairs of |i-j| is
        // 2 * sum_{d=1}^{n-1} d*(n-d).
        let n = 6u32;
        let t = line(n);
        let expect: u64 = (1..n as u64).map(|d| 2 * d * (n as u64 - d)).sum::<u64>();
        let avg = expect as f64 / (n as f64 * (n as f64 - 1.0));
        assert!((t.avg_hops() - avg).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_prefers_short_links() {
        // Triangle where a-c direct link is longer than a-b-c.
        let mut b = TopologyBuilder::new(TopologyKind::Custom, "tri");
        let a = b.add_node(Coord::new2(0, 0));
        let m = b.add_node(Coord::new2(1, 0));
        let c = b.add_node(Coord::new2(2, 0));
        b.add_link(a, m).unwrap();
        b.add_link(m, c).unwrap();
        b.add_link_with_length(a, c, 10).unwrap();
        let t = b.build().unwrap();
        let path = t.shortest_path(a, c, |l| l.length_hops as f64);
        assert_eq!(path, vec![a, m, c]);
    }

    #[test]
    fn link_opposite_endpoints() {
        let t = line(2);
        let l = t.link(LinkId(0));
        assert_eq!(l.opposite(NodeId(0)), NodeId(1));
        assert_eq!(l.opposite(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_opposite_panics_for_foreign_node() {
        let t = line(3);
        let l = t.link(LinkId(0));
        let _ = l.opposite(NodeId(2));
    }

    #[test]
    fn node_at_finds_coordinates() {
        let t = line(3);
        assert_eq!(t.node_at(Coord::new2(1, 0)), Some(NodeId(1)));
        assert_eq!(t.node_at(Coord::new2(9, 9)), None);
    }

    #[test]
    fn coord_manhattan() {
        let a = Coord::new3(1, 2, 3);
        let b = Coord::new3(4, 0, 3);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(a.manhattan2(b), 5);
        let c = Coord::new3(1, 2, 0);
        assert_eq!(a.manhattan(c), 3);
        assert_eq!(a.manhattan2(c), 0);
    }
}
