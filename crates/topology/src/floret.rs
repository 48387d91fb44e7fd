//! Floret: the space-filling-curve (SFC) network-on-interposer of the paper
//! (Sharma et al., ACM TECS 2023 / DATE 2024), plus the Floret-inspired 3D
//! SFC NoC of Section III.
//!
//! The interposer grid is partitioned into `lambda` contiguous blocks
//! ("petals"). Inside each petal the chiplets are stitched along a
//! Hamiltonian loop whose two endpoints — the petal *head* and *tail* — sit
//! on the corner of the petal closest to the grid centre. This realizes the
//! paper's construction ("starting at the center of the NoI and radiating
//! outwards iteratively"): all heads and tails cluster around the centre, so
//! the Eq. (1) mean tail-to-head distance is small. A star-like top-level
//! network then connects the tail of each SFC to the heads of the other
//! SFCs whenever they are at most three hops apart.

use serde::Serialize;

use crate::graph::{Coord, NodeId, Topology, TopologyBuilder, TopologyError, TopologyKind};

/// Maximum Manhattan distance bridged by a top-level (tail-to-head) link,
/// per Section II: "we allow the tail of one SFC to communicate with the
/// heads of other SFCs separated by at most three hops".
pub const MAX_INTER_SFC_HOPS: u32 = 3;

/// One petal of the Floret curve: a contiguous single-hop path of chiplets.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Petal {
    /// Node ids along the SFC path; `nodes[0]` is the head, the last entry
    /// is the tail.
    pub nodes: Vec<NodeId>,
}

impl Petal {
    /// The head (entry point) of this SFC.
    pub fn head(&self) -> NodeId {
        self.nodes[0]
    }

    /// The tail (exit point) of this SFC.
    pub fn tail(&self) -> NodeId {
        *self.nodes.last().expect("petal is never empty")
    }

    /// Number of chiplets on this petal.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the petal is empty (never true for generated layouts).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The SFC decomposition accompanying a Floret topology: the petal paths
/// and the derived global chiplet ordering used by the dataflow-aware
/// mapper.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FloretLayout {
    petals: Vec<Petal>,
}

impl FloretLayout {
    /// The petals in global-order sequence.
    pub fn petals(&self) -> &[Petal] {
        &self.petals
    }

    /// Number of SFCs (lambda in the paper).
    pub fn lambda(&self) -> usize {
        self.petals.len()
    }

    /// Global SFC order: petal 0 head→tail, then petal 1 head→tail, etc.
    /// Dataflow-aware mapping assigns consecutive neural layers along this
    /// sequence.
    pub fn global_order(&self) -> Vec<NodeId> {
        self.petals.iter().flat_map(|p| p.nodes.clone()).collect()
    }

    /// Mean Manhattan distance from the tail of each SFC to the heads of
    /// the *other* SFCs — the quantity `d` minimized by Eq. (1) of the
    /// paper. Returns 0 for a single petal.
    pub fn eq1_distance(&self, topo: &Topology) -> f64 {
        let l = self.petals.len();
        if l < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut pairs = 0u64;
        for (i, pi) in self.petals.iter().enumerate() {
            let tail = topo.node(pi.tail()).coord;
            for (j, pj) in self.petals.iter().enumerate() {
                if i == j {
                    continue;
                }
                let head = topo.node(pj.head()).coord;
                total += tail.manhattan2(head) as u64;
                pairs += 1;
            }
        }
        total as f64 / pairs as f64
    }
}

/// A rectangular block of the interposer grid assigned to one petal.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Block {
    x0: u16,
    y0: u16,
    w: u16,
    h: u16,
}

/// Splits `total` into `parts` positive integers that sum to `total`,
/// making every part even when `force_even` is set (the final part absorbs
/// any odd remainder).
fn split_lengths(total: u16, parts: u16, force_even: bool) -> Vec<u16> {
    debug_assert!(parts >= 1 && total >= parts);
    let mut out = Vec::with_capacity(parts as usize);
    let mut remaining = total;
    for i in 0..parts {
        let left = parts - i;
        if left == 1 {
            out.push(remaining);
            break;
        }
        // pim-lint: allow(truncating-cast) -- f64::round of a ratio of u16 petal counts; <= `remaining` <= u16::MAX by construction
        let mut share = (remaining as f64 / left as f64).round() as u16;
        share = share.clamp(1, remaining - (left - 1));
        if force_even && share % 2 == 1 {
            if share < remaining - (left - 1) {
                share += 1;
            } else if share > 1 {
                share -= 1;
            }
        }
        out.push(share);
        remaining -= share;
    }
    out
}

/// Partitions a `w` x `h` grid into `lambda` rectangular petal blocks.
/// Uses one horizontal band for `lambda == 1` or small grids, otherwise two
/// bands with even heights where possible so that every block admits a
/// Hamiltonian loop.
fn partition_grid(w: u16, h: u16, lambda: u16) -> Vec<Block> {
    if lambda == 1 {
        return vec![Block { x0: 0, y0: 0, w, h }];
    }
    if lambda <= 3 || h < 4 {
        // Single band of vertical strips.
        let force_even = h % 2 == 1;
        let widths = split_lengths(w, lambda, force_even && w % 2 == 0);
        let mut blocks = Vec::new();
        let mut x0 = 0;
        for bw in widths {
            blocks.push(Block {
                x0,
                y0: 0,
                w: bw,
                h,
            });
            x0 += bw;
        }
        return blocks;
    }
    // Two bands. Prefer even band heights so every block has an even
    // dimension regardless of width.
    let top = lambda / 2;
    let bottom = lambda - top;
    let mut h_top = h / 2;
    if h_top % 2 == 1 && h_top + 1 < h {
        h_top += 1;
    }
    let h_bottom = h - h_top;
    let mut blocks = Vec::new();
    for (band_y0, band_h, count) in [(0, h_top, top), (h_top, h_bottom, bottom)] {
        let force_even = band_h % 2 == 1 && w % 2 == 0;
        let widths = split_lengths(w, count, force_even);
        let mut x0 = 0;
        for bw in widths {
            blocks.push(Block {
                x0,
                y0: band_y0,
                w: bw,
                h: band_h,
            });
            x0 += bw;
        }
    }
    blocks
}

/// Hamiltonian near-loop over a `bw` x `bh` grid in block-local
/// coordinates. When the cell count is even the returned path is a
/// Hamiltonian cycle minus one edge: the last cell is grid-adjacent to the
/// first. For odd-by-odd blocks no such cycle exists (bipartite parity), so
/// a serpentine path is returned and the tail ends away from the head.
fn ham_loop(bw: u16, bh: u16) -> Vec<(u16, u16)> {
    assert!(bw >= 1 && bh >= 1);
    if bw == 1 {
        return (0..bh).map(|y| (0, y)).collect();
    }
    if bh == 1 {
        return (0..bw).map(|x| (x, 0)).collect();
    }
    if bh % 2 == 0 {
        ham_loop_even_h(bw, bh)
    } else if bw % 2 == 0 {
        // Transpose the even-height construction.
        ham_loop_even_h(bh, bw)
            .into_iter()
            .map(|(x, y)| (y, x))
            .collect()
    } else {
        // Odd x odd: no Hamiltonian cycle exists; fall back to a serpentine.
        let mut path = Vec::with_capacity(bw as usize * bh as usize);
        for y in 0..bh {
            if y % 2 == 0 {
                for x in 0..bw {
                    path.push((x, y));
                }
            } else {
                for x in (0..bw).rev() {
                    path.push((x, y));
                }
            }
        }
        path
    }
}

/// Classic Hamiltonian cycle construction for even `bh`, opened at the
/// (0,1)-(0,0) edge: across row 0, serpentine through rows 1..bh-1 over
/// columns 1..bw-1, then return up column 0.
fn ham_loop_even_h(bw: u16, bh: u16) -> Vec<(u16, u16)> {
    debug_assert!(bh % 2 == 0 && bw >= 2);
    let mut path = Vec::with_capacity(bw as usize * bh as usize);
    for x in 0..bw {
        path.push((x, 0));
    }
    for row_idx in 0..(bh - 1) {
        let y = 1 + row_idx;
        if row_idx % 2 == 0 {
            for x in (1..bw).rev() {
                path.push((x, y));
            }
        } else {
            for x in 1..bw {
                path.push((x, y));
            }
        }
    }
    for y in (1..bh).rev() {
        path.push((0, y));
    }
    path
}

/// Generates the Floret NoI for a `w` x `h` chiplet grid with `lambda`
/// petals, returning the topology together with its SFC layout.
///
/// All intra-petal links are single-hop. Top-level links connect the tail
/// of every SFC to the heads of other SFCs at Manhattan distance at most
/// [`MAX_INTER_SFC_HOPS`]; the link from each tail to the head of the
/// *next* petal in global order is always added (whatever its length) so
/// that spill-over mapping can continue along the global order.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidDimensions`] when the grid is smaller
/// than 2x2, `lambda == 0`, or `lambda` exceeds what the grid can hold
/// (each petal needs at least two chiplets).
///
/// # Examples
///
/// ```
/// let (topo, layout) = topology::floret(10, 10, 6)?;
/// assert_eq!(topo.node_count(), 100);
/// assert_eq!(layout.lambda(), 6);
/// // Most routers on the SFC paths have exactly two network ports.
/// let two_port = topo.nodes().iter()
///     .filter(|n| topo.ports(n.id) <= 2)
///     .count();
/// assert!(two_port >= 85);
/// # Ok::<(), topology::TopologyError>(())
/// ```
pub fn floret(w: u16, h: u16, lambda: u16) -> Result<(Topology, FloretLayout), TopologyError> {
    if w < 2 || h < 2 {
        return Err(TopologyError::InvalidDimensions(format!(
            "floret grid must be at least 2x2, got {w}x{h}"
        )));
    }
    if lambda == 0 {
        return Err(TopologyError::InvalidDimensions(
            "lambda must be at least 1".into(),
        ));
    }
    if u32::from(lambda) * 2 > u32::from(w) * u32::from(h) {
        return Err(TopologyError::InvalidDimensions(format!(
            "lambda={lambda} too large for a {w}x{h} grid"
        )));
    }
    let mut b = TopologyBuilder::new(TopologyKind::Floret, format!("floret-{w}x{h}-l{lambda}"));
    // Dense node ids in row-major grid order so NodeId <-> Coord is stable.
    let mut grid_ids = vec![vec![NodeId(0); w as usize]; h as usize];
    for y in 0..h {
        for x in 0..w {
            grid_ids[y as usize][x as usize] = b.add_node(Coord::new2(x, y));
        }
    }

    let blocks = partition_grid(w, h, lambda);
    debug_assert_eq!(
        blocks
            .iter()
            .map(|bl| u32::from(bl.w) * u32::from(bl.h))
            .sum::<u32>(),
        u32::from(w) * u32::from(h),
        "partition must cover the grid exactly"
    );

    // Grid centre (in half-units to avoid ties).
    let cx2 = i32::from(w) - 1; // 2*cx
    let cy2 = i32::from(h) - 1; // 2*cy

    let mut petals = Vec::with_capacity(blocks.len());
    for bl in &blocks {
        let local = ham_loop(bl.w, bl.h);
        // Flip the local path so that its head lands on the block corner
        // nearest the grid centre ("radiating outward from the centre").
        let flip_x = 2 * i32::from(bl.x0) + i32::from(bl.w) - 1 > cx2;
        let flip_y = 2 * i32::from(bl.y0) + i32::from(bl.h) - 1 > cy2;
        let nodes: Vec<NodeId> = local
            .into_iter()
            .map(|(lx, ly)| {
                let x = bl.x0 + if flip_x { lx } else { bl.w - 1 - lx };
                let y = bl.y0 + if flip_y { ly } else { bl.h - 1 - ly };
                grid_ids[y as usize][x as usize]
            })
            .collect();
        petals.push(Petal { nodes });
    }

    // Intra-petal single-hop links.
    for p in &petals {
        for pair in p.nodes.windows(2) {
            b.add_link(pair[0], pair[1])?;
        }
    }

    // Top-level star: tail_i -> head_j for i != j within the hop budget.
    let coord_of = |id: NodeId, b: &TopologyBuilder| -> Coord {
        let _ = b;
        let w32 = u32::from(w);
        Coord::new2(
            crate::narrow::u16_idx((id.0 % w32) as usize),
            crate::narrow::u16_idx((id.0 / w32) as usize),
        )
    };
    let l = petals.len();
    for i in 0..l {
        for j in 0..l {
            if i == j {
                continue;
            }
            let t = petals[i].tail();
            let hd = petals[j].head();
            if t == hd || b.has_link(t, hd) {
                continue;
            }
            let d = coord_of(t, &b).manhattan2(coord_of(hd, &b));
            let is_next = j == (i + 1) % l;
            if d <= MAX_INTER_SFC_HOPS || is_next {
                b.add_link_with_length(t, hd, d.max(1))?;
            }
        }
    }

    let topo = b.build()?;
    Ok((topo, FloretLayout { petals }))
}

/// Floret-inspired 3D SFC NoC (Section III): one space-filling curve that
/// serpentines through each tier and crosses tiers with a single vertical
/// hop, so consecutive PEs along the curve are always physically adjacent.
/// Returns the topology and a single-petal layout whose global order is
/// the 3D SFC.
///
/// Tier 0 is the tier closest to the heat sink; tier `tiers-1` is the
/// bottom tier of Fig. 7 (farthest from the sink). The SFC *starts* at the
/// bottom tier — input activations arrive from the interposer side — so a
/// purely performance-driven mapping places the power-hungry early neural
/// layers farthest from the heat sink, which is exactly the thermal
/// pathology the joint optimization of Section III corrects.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidDimensions`] when the planar grid is
/// smaller than 2x2 or `tiers == 0`.
pub fn sfc3d(w: u16, h: u16, tiers: u16) -> Result<(Topology, FloretLayout), TopologyError> {
    if w < 2 || h < 2 {
        return Err(TopologyError::InvalidDimensions(format!(
            "sfc3d grid must be at least 2x2, got {w}x{h}"
        )));
    }
    if tiers == 0 {
        return Err(TopologyError::InvalidDimensions(
            "tiers must be at least 1".into(),
        ));
    }
    let mut b = TopologyBuilder::new(TopologyKind::Sfc3d, format!("sfc3d-{w}x{h}x{tiers}"));
    let mut ids = vec![vec![vec![NodeId(0); w as usize]; h as usize]; tiers as usize];
    for z in 0..tiers {
        for y in 0..h {
            for x in 0..w {
                ids[z as usize][y as usize][x as usize] = b.add_node(Coord::new3(x, y, z));
            }
        }
    }
    // Serpentine within each tier; reverse every other visited tier so the
    // curve continues directly above its endpoint. Tiers are visited from
    // the bottom (farthest from the sink) upward.
    let mut order: Vec<NodeId> = Vec::with_capacity((w as usize) * (h as usize) * tiers as usize);
    for (zi, z) in (0..tiers as usize).rev().enumerate() {
        let mut tier_order = Vec::with_capacity((w as usize) * (h as usize));
        for (y, row) in ids[z].iter().enumerate() {
            if y % 2 == 0 {
                tier_order.extend(row.iter().copied());
            } else {
                tier_order.extend(row.iter().rev().copied());
            }
        }
        if zi % 2 == 1 {
            tier_order.reverse();
        }
        order.extend(tier_order);
    }
    for pair in order.windows(2) {
        b.add_link(pair[0], pair[1])?;
    }
    let topo = b.build()?;
    let layout = FloretLayout {
        petals: vec![Petal { nodes: order }],
    };
    Ok((topo, layout))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_petal_paths(topo: &Topology, layout: &FloretLayout, n: usize) {
        // Every node appears exactly once across all petals.
        let mut seen = vec![false; n];
        for p in layout.petals() {
            for &node in &p.nodes {
                assert!(!seen[node.index()], "node {node} appears twice");
                seen[node.index()] = true;
            }
            // Consecutive petal nodes are grid-adjacent (single-hop SFC).
            for pair in p.nodes.windows(2) {
                let a = topo.node(pair[0]).coord;
                let c = topo.node(pair[1]).coord;
                assert_eq!(a.manhattan(c), 1, "SFC must be contiguous");
            }
        }
        assert!(seen.iter().all(|&s| s), "SFC must cover all chiplets");
    }

    #[test]
    fn ham_loop_even_blocks_close() {
        for (w, h) in [(4, 4), (5, 4), (4, 5), (2, 6), (6, 2), (10, 4), (3, 4)] {
            let path = ham_loop(w, h);
            assert_eq!(path.len(), (w as usize) * (h as usize));
            for pair in path.windows(2) {
                let d = (i32::from(pair[0].0) - i32::from(pair[1].0)).abs()
                    + (i32::from(pair[0].1) - i32::from(pair[1].1)).abs();
                assert_eq!(d, 1, "path must be contiguous for {w}x{h}");
            }
            let first = path[0];
            let last = *path.last().unwrap();
            let d = (i32::from(first.0) - i32::from(last.0)).abs()
                + (i32::from(first.1) - i32::from(last.1)).abs();
            assert_eq!(d, 1, "even blocks must form a near-loop ({w}x{h})");
        }
    }

    #[test]
    fn ham_loop_odd_odd_is_still_a_path() {
        let path = ham_loop(5, 5);
        assert_eq!(path.len(), 25);
        for pair in path.windows(2) {
            let d = (i32::from(pair[0].0) - i32::from(pair[1].0)).abs()
                + (i32::from(pair[0].1) - i32::from(pair[1].1)).abs();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn partition_covers_grid() {
        for lambda in 1..=10u16 {
            let blocks = partition_grid(10, 10, lambda);
            assert_eq!(blocks.len(), lambda as usize);
            let mut cells = vec![vec![false; 10]; 10];
            for bl in &blocks {
                for y in bl.y0..bl.y0 + bl.h {
                    for x in bl.x0..bl.x0 + bl.w {
                        assert!(!cells[y as usize][x as usize], "overlap at ({x},{y})");
                        cells[y as usize][x as usize] = true;
                    }
                }
            }
            assert!(
                cells.iter().flatten().all(|&c| c),
                "gap for lambda={lambda}"
            );
        }
    }

    #[test]
    fn floret_100_chiplets_6_petals() {
        let (topo, layout) = floret(10, 10, 6).unwrap();
        assert_eq!(topo.node_count(), 100);
        assert_eq!(layout.lambda(), 6);
        assert_valid_petal_paths(&topo, &layout, 100);
        // Global order covers every chiplet once.
        let order = layout.global_order();
        assert_eq!(order.len(), 100);
    }

    #[test]
    fn floret_mostly_two_port_routers() {
        let (topo, layout) = floret(10, 10, 6).unwrap();
        let heads_tails: Vec<NodeId> = layout
            .petals()
            .iter()
            .flat_map(|p| [p.head(), p.tail()])
            .collect();
        for n in topo.nodes() {
            if heads_tails.contains(&n.id) {
                continue;
            }
            assert!(
                topo.ports(n.id) <= 2,
                "interior SFC router {} must have <=2 ports, has {}",
                n.id,
                topo.ports(n.id)
            );
        }
    }

    #[test]
    fn floret_fewer_links_than_mesh() {
        let (topo, _) = floret(10, 10, 6).unwrap();
        let mesh = crate::generators::mesh2d(10, 10).unwrap();
        assert!(topo.link_count() < mesh.link_count());
    }

    #[test]
    fn floret_eq1_distance_small() {
        let (topo, layout) = floret(10, 10, 6).unwrap();
        let d = layout.eq1_distance(&topo);
        assert!(
            d <= 6.0,
            "heads/tails radiate from centre; mean tail->head distance {d} too large"
        );
        // A naive layout with heads at block origin corners would be much
        // worse; sanity-check we beat half the grid diameter.
        assert!(d < 9.0);
    }

    #[test]
    fn floret_lambda_sweep_valid() {
        for lambda in [1u16, 2, 4, 6, 8, 10] {
            let (topo, layout) = floret(10, 10, lambda).unwrap();
            assert_valid_petal_paths(&topo, &layout, 100);
            assert_eq!(layout.lambda(), lambda as usize);
        }
    }

    #[test]
    fn floret_rejects_bad_inputs() {
        assert!(floret(1, 10, 2).is_err());
        assert!(floret(10, 10, 0).is_err());
        assert!(floret(4, 4, 9).is_err());
    }

    #[test]
    fn floret_next_petal_always_reachable() {
        let (topo, layout) = floret(10, 10, 6).unwrap();
        let l = layout.lambda();
        for i in 0..l {
            let t = layout.petals()[i].tail();
            let hd = layout.petals()[(i + 1) % l].head();
            let neighbors: Vec<NodeId> = topo.neighbors(t).iter().map(|&(n, _)| n).collect();
            assert!(
                neighbors.contains(&hd) || t == hd,
                "tail of petal {i} must link to head of petal {}",
                (i + 1) % l
            );
        }
    }

    #[test]
    fn sfc3d_is_contiguous_3d_curve() {
        let (topo, layout) = sfc3d(5, 5, 4).unwrap();
        assert_eq!(topo.node_count(), 100);
        assert_eq!(layout.lambda(), 1);
        let order = layout.global_order();
        assert_eq!(order.len(), 100);
        for pair in order.windows(2) {
            let a = topo.node(pair[0]).coord;
            let c = topo.node(pair[1]).coord;
            assert_eq!(a.manhattan(c), 1, "3D SFC must be physically contiguous");
        }
    }

    #[test]
    fn sfc3d_two_port_interior() {
        let (topo, _) = sfc3d(5, 5, 4).unwrap();
        let over_two = topo.nodes().iter().filter(|n| topo.ports(n.id) > 2).count();
        assert_eq!(over_two, 0, "a pure SFC NoC is a path: max two ports");
    }

    #[test]
    fn sfc3d_starts_at_bottom_tier() {
        let (topo, layout) = sfc3d(5, 5, 4).unwrap();
        let order = layout.global_order();
        assert_eq!(
            topo.node(order[0]).coord.z,
            3,
            "curve starts farthest from sink"
        );
        assert_eq!(topo.node(*order.last().unwrap()).coord.z, 0);
    }

    #[test]
    fn sfc3d_rejects_bad_dims() {
        assert!(sfc3d(1, 5, 2).is_err());
        assert!(sfc3d(5, 5, 0).is_err());
    }
}
