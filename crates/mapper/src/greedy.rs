//! Greedy nearest-hop baseline mapping used for the mesh (SIAM), Kite and
//! SWAP NoIs: consecutive DNN layers go to the free chiplets separated by
//! the least number of hops. On multi-hop topologies this fragments the
//! free space and strands unmapped chiplets (Fig. 4).

use dnn::SegmentGraph;
use serde::Serialize;
use topology::{NodeId, Topology};

use crate::placement::{
    CapacityLedger, MapError, NodeShare, SegmentPlacement, TaskId, TaskPlacement,
};

/// Configuration of the greedy baseline.
#[derive(Copy, Clone, Debug, PartialEq, Serialize)]
pub struct GreedyConfig {
    /// Maximum hop distance from the previous layer's chiplets within
    /// which the next layer's chiplets must be found.
    ///
    /// * [`GreedyConfig::contiguous`] uses a small radius — an admission
    ///   model where a DNN *requires* near-contiguous chiplets; tasks that
    ///   cannot find them are not admitted and distant chiplets stay
    ///   unmapped (the Fig. 4 resource-utilization comparison).
    /// * [`GreedyConfig::soft`] uses an unbounded radius — the plain
    ///   "least number of hops" greedy of Section II, which always admits
    ///   but accepts scattered multi-hop placements under fragmentation
    ///   (the Fig. 3/5 latency/energy comparison).
    pub radius: u32,
}

impl GreedyConfig {
    /// Hard-contiguity admission model with the given radius.
    pub fn contiguous(radius: u32) -> Self {
        GreedyConfig { radius }
    }

    /// Unconstrained nearest-hop greedy (always admits given capacity).
    pub fn soft() -> Self {
        GreedyConfig { radius: u32::MAX }
    }
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig { radius: 2 }
    }
}

/// Maps one task with the greedy nearest-hop strategy.
///
/// The first chiplet is the lowest-id untouched chiplet (deterministic
/// corner packing); every subsequent allocation picks the free chiplet
/// with the smallest hop distance to the *previous* segment's chiplets
/// (continuing on the current chiplet counts as distance zero), subject
/// to [`GreedyConfig::radius`].
///
/// # Errors
///
/// Returns [`MapError::InsufficientCapacity`] when total capacity is
/// short, or [`MapError::NoNearbyChiplet`] when the locality constraint
/// cannot be met (the Fig. 4 fragmentation case).
pub fn map_task_greedy(
    ledger: &mut CapacityLedger,
    topo: &Topology,
    apsp: &[Vec<u32>],
    task: TaskId,
    sg: &SegmentGraph,
    cfg: &GreedyConfig,
) -> Result<TaskPlacement, MapError> {
    let needed: u64 = sg.segments().iter().map(|s| s.params).sum();
    let available = ledger.total_available_to(task);
    if needed > available {
        return Err(MapError::InsufficientCapacity { needed, available });
    }

    // Snapshot to roll back on locality failure so a failed task does not
    // strand half-allocated chiplets.
    let snapshot = ledger.clone();

    let mut segments: Vec<SegmentPlacement> = Vec::with_capacity(sg.segment_count());
    let mut prev_nodes: Vec<NodeId> = Vec::new();
    for seg in sg.segments() {
        let mut shares: Vec<NodeShare> = Vec::new();
        let mut remaining = seg.params;
        let mut cur_nodes: Vec<NodeId> = Vec::new();
        while remaining > 0 {
            let anchor: &[NodeId] = if !cur_nodes.is_empty() {
                &cur_nodes
            } else {
                &prev_nodes
            };
            let pick = pick_nearest(ledger, topo, apsp, task, anchor, cfg.radius);
            let Some(node) = pick else {
                *ledger = snapshot;
                return Err(MapError::NoNearbyChiplet {
                    segment: seg.id,
                    radius: cfg.radius,
                });
            };
            let got = ledger.take(node, task, remaining);
            debug_assert!(got > 0);
            remaining -= got;
            if !cur_nodes.contains(&node) {
                cur_nodes.push(node);
            }
            shares.push(NodeShare { node, weights: got });
        }
        if !cur_nodes.is_empty() {
            prev_nodes = cur_nodes;
        }
        segments.push(SegmentPlacement {
            segment: seg.id,
            shares,
        });
    }
    Ok(TaskPlacement {
        task,
        model: sg.name().to_string(),
        segments,
    })
}

/// Picks the free chiplet nearest to `anchor` (hop distance to the
/// closest anchor node, tie-broken by id). With an empty anchor (task
/// start) the radius does not apply and the chiplet with the most free
/// chiplets in its 2-hop neighborhood is chosen — the load-balancing
/// admission heuristic of multi-tenant systems, which gives each task
/// room to grow but scatters concurrent tasks across the grid (the
/// scattered-region picture of Fig. 4).
fn pick_nearest(
    ledger: &CapacityLedger,
    topo: &Topology,
    apsp: &[Vec<u32>],
    task: TaskId,
    anchor: &[NodeId],
    radius: u32,
) -> Option<NodeId> {
    if anchor.is_empty() {
        // Task start: maximize free capacity in the 2-hop neighborhood.
        let mut best: Option<(usize, NodeId)> = None;
        for (i, apsp_row) in apsp.iter().enumerate().take(topo.node_count()) {
            let n = NodeId(topology::narrow::u32_idx(i));
            if !ledger.available_to(n, task) {
                continue;
            }
            let free_near = (0..topo.node_count())
                .filter(|&j| {
                    apsp_row[j] <= 2
                        && ledger.available_to(NodeId(topology::narrow::u32_idx(j)), task)
                })
                .count();
            match best {
                None => best = Some((free_near, n)),
                Some((bf, bn)) => {
                    if free_near > bf || (free_near == bf && n < bn) {
                        best = Some((free_near, n));
                    }
                }
            }
        }
        return best.map(|(_, n)| n);
    }
    let mut best: Option<(u32, NodeId)> = None;
    // `i` is a *column* of `apsp` here (distance from each anchor row), so
    // the range loop stays.
    #[allow(clippy::needless_range_loop)]
    for i in 0..topo.node_count() {
        let n = NodeId(topology::narrow::u32_idx(i));
        if !ledger.available_to(n, task) {
            continue;
        }
        let d = anchor
            .iter()
            .map(|a| apsp[a.index()][i])
            .min()
            .expect("anchor non-empty");
        if d > radius {
            continue;
        }
        match best {
            None => best = Some((d, n)),
            Some((bd, bn)) => {
                if d < bd || (d == bd && n < bn) {
                    best = Some((d, n));
                }
            }
        }
    }
    best.map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{build_model, Dataset, ModelKind};
    use topology::{mesh2d, swap, SwapConfig};

    fn resnet18() -> SegmentGraph {
        SegmentGraph::from_layer_graph(
            &build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap(),
        )
    }

    #[test]
    fn greedy_maps_on_mesh() {
        let topo = mesh2d(10, 10).unwrap();
        let apsp = topo.all_pairs_hops();
        let mut led = CapacityLedger::new(100, 2_000_000);
        let tp = map_task_greedy(
            &mut led,
            &topo,
            &apsp,
            TaskId(0),
            &resnet18(),
            &GreedyConfig::default(),
        )
        .unwrap();
        assert!(tp.used_nodes().len() >= 6);
        for (seg, sp) in resnet18().segments().iter().zip(&tp.segments) {
            assert_eq!(sp.total_weights(), seg.params);
        }
    }

    #[test]
    fn greedy_keeps_consecutive_segments_close() {
        let topo = mesh2d(10, 10).unwrap();
        let apsp = topo.all_pairs_hops();
        let mut led = CapacityLedger::new(100, 2_000_000);
        let cfg = GreedyConfig { radius: 2 };
        let tp = map_task_greedy(&mut led, &topo, &apsp, TaskId(0), &resnet18(), &cfg).unwrap();
        for pair in tp.segments.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (Some(la), Some(fb)) = (a.shares.last(), b.shares.first()) else {
                continue;
            };
            let d = apsp[la.node.index()][fb.node.index()];
            assert!(d <= cfg.radius, "consecutive layers {d} hops apart");
        }
    }

    #[test]
    fn greedy_failure_rolls_back() {
        // A radius of zero forces every layer onto the same chiplet, which
        // cannot hold the model -> locality failure, and the ledger must be
        // unchanged afterwards.
        let topo = mesh2d(10, 10).unwrap();
        let apsp = topo.all_pairs_hops();
        let mut led = CapacityLedger::new(100, 2_000_000);
        let cfg = GreedyConfig { radius: 0 };
        let err =
            map_task_greedy(&mut led, &topo, &apsp, TaskId(0), &resnet18(), &cfg).unwrap_err();
        assert!(matches!(err, MapError::NoNearbyChiplet { .. }));
        assert_eq!(led.used_nodes(), 0, "failed mapping must roll back");
    }

    #[test]
    fn swap_fragments_more_than_mesh() {
        // Map tasks until failure on both topologies with the same radius;
        // the sparse small-world SWAP strands more chiplets (Fig. 4).
        let mesh = mesh2d(10, 10).unwrap();
        let sw = swap(10, 10, &SwapConfig::default()).unwrap();
        let sg = resnet18();
        let cfg = GreedyConfig { radius: 2 };
        let mut counts = Vec::new();
        for topo in [&mesh, &sw] {
            let apsp = topo.all_pairs_hops();
            let mut led = CapacityLedger::new(topo.node_count(), 1_000_000);
            let mut mapped = 0u32;
            for t in 0..20 {
                if map_task_greedy(&mut led, topo, &apsp, TaskId(t), &sg, &cfg).is_err() {
                    break;
                }
                mapped += 1;
            }
            counts.push((mapped, led.utilization()));
        }
        let (mesh_mapped, mesh_util) = counts[0];
        let (swap_mapped, swap_util) = counts[1];
        assert!(
            swap_mapped <= mesh_mapped,
            "SWAP should admit no more tasks than mesh ({swap_mapped} vs {mesh_mapped})"
        );
        assert!(
            swap_util <= mesh_util + 1e-9,
            "SWAP utilization {swap_util} should not beat mesh {mesh_util}"
        );
    }

    #[test]
    fn insufficient_capacity_detected_before_allocation() {
        let topo = mesh2d(4, 4).unwrap();
        let apsp = topo.all_pairs_hops();
        let mut led = CapacityLedger::new(16, 1000);
        let err = map_task_greedy(
            &mut led,
            &topo,
            &apsp,
            TaskId(0),
            &resnet18(),
            &GreedyConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::InsufficientCapacity { .. }));
        assert_eq!(led.used_nodes(), 0);
    }
}
