//! Conversion of placements into inter-chiplet transfer descriptors — the
//! traffic that the network simulator replays.
//!
//! The shape of that traffic depends on the mapping's outermost-level
//! tiles: which operand stays resident in the PIM banks — its
//! [`NoiPolicy`] — decides whether activation slices, staged weight
//! tiles, or only fused-pipeline halo bands cross the NoI.
//! [`transfers_for_batch_mapped`] expands a per-segment
//! [`ModelMapping`]; the [`Dataflow`] entry points ([`transfers_for`])
//! are façades that apply the mode's uniform preset policy;
//! [`placement_transfers`] is the weight-stationary (seed) baseline.

use std::collections::BTreeMap;

use dnn::{Dataflow, ModelMapping, NoiPolicy, SegmentEdge, SegmentGraph};
use serde::Serialize;
use topology::NodeId;

use crate::placement::{TaskId, TaskPlacement};
use crate::scheduler::Wave;

/// One aggregated point-to-point transfer per inference pass.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Transfer {
    /// Source chiplet.
    pub src: NodeId,
    /// Destination chiplet.
    pub dst: NodeId,
    /// Payload bytes over the expanded window: one inference for
    /// [`transfers_for`]/[`placement_transfers`], the whole batch for
    /// [`transfers_for_batch`].
    pub bytes: u64,
    /// Owning task (for per-task accounting).
    pub task: TaskId,
}

/// Walks the aligned spatial slices of one segment edge.
///
/// The activation tensor is treated as spatially partitioned across the
/// chiplet shares of each side in share order (standard tiled PIM
/// inference): source share `k` owns the slice `[a_k, b_k)` of the tensor
/// (proportional to its weight fraction). `f` is invoked once per
/// `(source node, destination node, overlap fraction)` with overlap > 0,
/// including same-node pairs — callers decide what a pair costs.
fn for_each_aligned_pair<F: FnMut(NodeId, NodeId, f64)>(
    src_place: &crate::placement::SegmentPlacement,
    dst_place: &crate::placement::SegmentPlacement,
    mut f: F,
) {
    let src_total: u64 = src_place.total_weights();
    let dst_total: u64 = dst_place.total_weights();
    if src_total == 0 || dst_total == 0 {
        return;
    }
    // Cumulative slice boundaries over [0, 1).
    let mut a0 = 0.0f64;
    let mut dst_iter = dst_place.shares.iter();
    let mut dst_cur = dst_iter.next().expect("non-empty dst");
    let mut c0 = 0.0f64;
    let mut c1 = dst_cur.weights as f64 / dst_total as f64;
    for a in &src_place.shares {
        let a1 = a0 + a.weights as f64 / src_total as f64;
        // Advance destination slices overlapping [a0, a1).
        loop {
            let overlap = (a1.min(c1) - a0.max(c0)).max(0.0);
            if overlap > 0.0 {
                f(a.node, dst_cur.node, overlap);
            }
            if c1 < a1 {
                match dst_iter.next() {
                    Some(next) => {
                        dst_cur = next;
                        c0 = c1;
                        c1 += dst_cur.weights as f64 / dst_total as f64;
                    }
                    None => break,
                }
            } else {
                break;
            }
        }
        a0 = a1;
    }
}

/// Where an expansion takes each edge's NoI policy from: one uniform
/// policy (the [`Dataflow`] façade) or the consumer segment's resolved
/// mapping.
enum Policies<'a> {
    /// Every edge uses the same policy.
    Uniform(NoiPolicy),
    /// `per_segment[dst.index()]` decides each edge (the consumer's
    /// mapping owns the edge: its residency is what gets staged).
    PerSegment(&'a [NoiPolicy]),
}

impl Policies<'_> {
    fn for_dst(&self, dst_index: usize) -> NoiPolicy {
        match self {
            Policies::Uniform(p) => *p,
            Policies::PerSegment(ps) => ps[dst_index],
        }
    }

    fn any_fused(&self) -> bool {
        match self {
            Policies::Uniform(p) => *p == NoiPolicy::FusedHalo,
            Policies::PerSegment(ps) => ps.contains(&NoiPolicy::FusedHalo),
        }
    }
}

/// One transfer expansion in progress: the placement/graph pair being
/// expanded and the per-edge NoI policies, element width and batch it
/// is costed under.
struct Expansion<'a> {
    tp: &'a TaskPlacement,
    sg: &'a SegmentGraph,
    bytes_per_element: u64,
    policies: Policies<'a>,
    batch: u64,
}

impl Expansion<'_> {
    /// Accumulates one edge's cross-chiplet traffic into the
    /// `(src, dst) -> bytes` map, for the expansion's batch of frames.
    /// `fusible` states whether a fused-layer pipeline may elide this
    /// edge.
    ///
    /// Re-stationing ([`NoiPolicy::StageOncePerBatch`] /
    /// [`NoiPolicy::StagePerFrame`]) moves the consumer's computation to
    /// the producer's chiplets: the consumer's weight tile crosses
    /// dst → src and the produced output slice always streams back
    /// src → dst, so every tensor ends the edge where downstream edges
    /// expect it. Psum residency (OS) stages the weight tile *once per
    /// batch*; without it (IS) the tile re-stages every frame — which is
    /// exactly why re-stationing decisions are made on batch totals, not
    /// per frame.
    fn accumulate_edge(
        &self,
        acc: &mut BTreeMap<(NodeId, NodeId), u64>,
        e: &SegmentEdge,
        fusible: bool,
    ) {
        let Expansion {
            tp,
            sg,
            bytes_per_element,
            ref policies,
            batch,
        } = *self;
        let src_place = &tp.segments[e.src.index()];
        let dst_place = &tp.segments[e.dst.index()];
        if src_place.shares.is_empty() || dst_place.shares.is_empty() {
            return;
        }
        let vol = (e.volume * bytes_per_element) as f64;
        let dst_seg = sg.segment(e.dst);
        let weight_bytes = (dst_seg.params * bytes_per_element) as f64;
        let out_bytes = (dst_seg.out_activations * bytes_per_element) as f64;
        let policy = policies.for_dst(e.dst.index());
        let mut add = |from: NodeId, to: NodeId, bytes: u64| {
            if bytes > 0 {
                *acc.entry((from, to)).or_insert(0) += bytes;
            }
        };
        for_each_aligned_pair(src_place, dst_place, |sn, dn, overlap| {
            if sn == dn {
                // Same-chiplet pairs cost nothing on the NoI in every mode.
                return;
            }
            // Per-frame slice sizes; `act` is what the tiled path moves.
            let act = (vol * overlap).round() as u64;
            let reload = (weight_bytes * overlap).round() as u64;
            let writeback = (out_bytes * overlap).round() as u64;
            match policy {
                // Weights never move: the activation slice crosses per frame
                // (seed scheme; WS).
                NoiPolicy::Tiled => add(sn, dn, act * batch),
                // Psums accumulate in the borrowed crossbars: one weight-tile
                // stage for the whole batch, one output slice back per frame
                // — where that beats the tiled path (OS).
                NoiPolicy::StageOncePerBatch => {
                    if reload + writeback * batch < act * batch {
                        add(dn, sn, reload);
                        add(sn, dn, writeback * batch);
                    } else {
                        add(sn, dn, act * batch);
                    }
                }
                // Only the input slice is resident: no psum residency means
                // the weight tile re-stages every frame alongside the output
                // write-back (IS).
                NoiPolicy::StagePerFrame => {
                    if (reload + writeback) * batch < act * batch {
                        add(dn, sn, reload * batch);
                        add(sn, dn, writeback * batch);
                    } else {
                        add(sn, dn, act * batch);
                    }
                }
                // Fusible edges keep the intermediate tensor inside the tile
                // pipeline; only the halo band crosses. Everything else falls
                // back to the tiled path (FL).
                NoiPolicy::FusedHalo => {
                    if fusible {
                        let halo = (vol * overlap * Dataflow::FUSED_HALO_FRACTION).round() as u64;
                        add(sn, dn, halo * batch);
                    } else {
                        add(sn, dn, act * batch);
                    }
                }
            }
        });
    }
}

/// Expands a task placement into the inter-chiplet transfers of one
/// inference under `dataflow` — [`transfers_for_batch`] with a batch of
/// one.
pub fn transfers_for(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    dataflow: Dataflow,
) -> Vec<Transfer> {
    transfers_for_batch(tp, sg, bytes_per_element, dataflow, 1)
}

/// Expands a task placement into the inter-chiplet transfers implied by
/// `dataflow` for `batch` back-to-back inference frames (see
/// [`Dataflow`] for the per-mode movement accounting).
///
/// Batching matters to the dataflow: output-stationary stages a weight
/// tile *once* for the whole batch, so re-stationing can win at batch
/// granularity where it loses per frame. Re-stationing applies per
/// aligned share pair and only where the staged tensors are strictly
/// smaller than the batch's activation slices, so for every mode and
/// every batch the total bytes never exceed the weight-stationary
/// baseline (the seed tiled scheme of [`placement_transfers`] scaled by
/// `batch`).
///
/// Same-chiplet transfers cost nothing on the NoI and are dropped, as are
/// edges from the parameter-free input segment (input frames stream from
/// off-chip I/O, not across the NoI). Same `(src, dst)` pairs are merged
/// through a [`BTreeMap`], so the emitted order is sorted by
/// `(src, dst)` and independent of the edge iteration order.
pub fn transfers_for_batch(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    dataflow: Dataflow,
    batch: u64,
) -> Vec<Transfer> {
    let mut out = Vec::new();
    transfers_for_batch_into(tp, sg, bytes_per_element, dataflow, batch, &mut out);
    out
}

/// [`transfers_for_batch`] into a caller-owned buffer (cleared first),
/// so sweep scratch reuse skips the per-task output allocation.
pub fn transfers_for_batch_into(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    dataflow: Dataflow,
    batch: u64,
    out: &mut Vec<Transfer>,
) {
    expand_into(
        tp,
        sg,
        bytes_per_element,
        Policies::Uniform(dataflow.noi_policy()),
        batch,
        out,
    );
}

/// Expands a task placement under a resolved per-segment
/// [`ModelMapping`] for one inference frame —
/// [`transfers_for_batch_mapped`] with a batch of one.
pub fn transfers_for_mapped(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    mapping: &ModelMapping,
) -> Vec<Transfer> {
    transfers_for_batch_mapped(tp, sg, bytes_per_element, mapping, 1)
}

/// Expands a task placement into the inter-chiplet transfers implied by
/// a resolved per-segment [`ModelMapping`] for `batch` back-to-back
/// frames.
///
/// Each edge follows the NoI policy of its *consumer* segment's mapping
/// ([`dnn::Mapping::noi_policy`]) — the consumer's operand residency is
/// what decides which tensor gets staged across the edge. A uniform
/// preset mapping is therefore byte-identical to [`transfers_for_batch`]
/// on the matching [`Dataflow`]. Ordering and merge semantics are the
/// same as [`transfers_for_batch`].
///
/// # Panics
///
/// Panics when `mapping` was built for a different segment count.
pub fn transfers_for_batch_mapped(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    mapping: &ModelMapping,
    batch: u64,
) -> Vec<Transfer> {
    let mut out = Vec::new();
    transfers_for_batch_mapped_into(tp, sg, bytes_per_element, mapping, batch, &mut out);
    out
}

/// [`transfers_for_batch_mapped`] into a caller-owned buffer (cleared
/// first).
///
/// # Panics
///
/// Panics when `mapping` was built for a different segment count.
pub fn transfers_for_batch_mapped_into(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    mapping: &ModelMapping,
    batch: u64,
    out: &mut Vec<Transfer>,
) {
    assert_eq!(
        mapping.mappings().len(),
        sg.segment_count(),
        "mapping/segment count mismatch for {}",
        sg.name()
    );
    let policies: Vec<NoiPolicy> = mapping.mappings().iter().map(|m| m.noi_policy()).collect();
    expand_into(
        tp,
        sg,
        bytes_per_element,
        Policies::PerSegment(&policies),
        batch,
        out,
    );
}

/// The shared expansion loop behind the enum and mapping entry points,
/// writing into a caller-owned buffer (cleared first). The `(src, dst)`
/// merge map still accumulates per call; only the emitted transfer list
/// reuses capacity.
fn expand_into(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
    policies: Policies<'_>,
    batch: u64,
    out: &mut Vec<Transfer>,
) {
    let fusible = if policies.any_fused() {
        sg.fusible_edges()
    } else {
        Vec::new()
    };
    let exp = Expansion {
        tp,
        sg,
        bytes_per_element,
        policies,
        batch,
    };
    let mut acc: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for (ei, e) in sg.edges().iter().enumerate() {
        let f = fusible.get(ei).copied().unwrap_or(false);
        exp.accumulate_edge(&mut acc, e, f);
    }
    out.clear();
    out.extend(acc.into_iter().map(|((src, dst), bytes)| Transfer {
        src,
        dst,
        bytes,
        task: tp.task,
    }));
}

/// Expands a task placement under the weight-stationary (seed) scheme:
/// every segment edge becomes one fixed spatially-tiled activation split
/// between the aligned chiplet shares of each side.
///
/// Equivalent to [`transfers_for`] with
/// [`Dataflow::WeightStationary`] — pinned byte-identical to the
/// pre-dataflow behaviour by the `dataflow_props` suite.
pub fn placement_transfers(
    tp: &TaskPlacement,
    sg: &SegmentGraph,
    bytes_per_element: u64,
) -> Vec<Transfer> {
    transfers_for(tp, sg, bytes_per_element, Dataflow::WeightStationary)
}

/// Expands every placement of a wave under `dataflow`;
/// `graphs[task.index()]` must be the segment graph the task was mapped
/// from.
pub fn wave_transfers_for(
    wave: &Wave,
    graphs: &[SegmentGraph],
    bytes_per_element: u64,
    dataflow: Dataflow,
) -> Vec<Transfer> {
    wave.placements
        .iter()
        .flat_map(|tp| transfers_for(tp, &graphs[tp.task.index()], bytes_per_element, dataflow))
        .collect()
}

/// [`wave_transfers_for`] under the weight-stationary baseline.
pub fn wave_transfers(
    wave: &Wave,
    graphs: &[SegmentGraph],
    bytes_per_element: u64,
) -> Vec<Transfer> {
    wave_transfers_for(wave, graphs, bytes_per_element, Dataflow::WeightStationary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CapacityLedger;
    use crate::sfc::map_task_sfc;
    use dnn::{build_model, Dataset, ModelKind};
    use topology::floret;

    fn mapped_resnet18(capacity: u64) -> (TaskPlacement, SegmentGraph) {
        let g = build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let (_, layout) = floret(10, 10, 6).unwrap();
        let order = layout.global_order();
        let mut led = CapacityLedger::new(100, capacity);
        let tp = map_task_sfc(&mut led, &order, TaskId(0), &sg).unwrap();
        (tp, sg)
    }

    fn mapped_vgg11(capacity: u64) -> (TaskPlacement, SegmentGraph) {
        let g = build_model(ModelKind::Vgg11, Dataset::Cifar10).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let (_, layout) = floret(10, 10, 6).unwrap();
        let order = layout.global_order();
        let mut led = CapacityLedger::new(100, capacity);
        let tp = map_task_sfc(&mut led, &order, TaskId(0), &sg).unwrap();
        (tp, sg)
    }

    fn total(ts: &[Transfer]) -> u64 {
        ts.iter().map(|t| t.bytes).sum()
    }

    #[test]
    fn transfers_exist_for_multi_chiplet_tasks() {
        let (tp, sg) = mapped_resnet18(1_000_000);
        let ts = placement_transfers(&tp, &sg, 1);
        assert!(!ts.is_empty());
        assert!(ts.iter().all(|t| t.src != t.dst));
        assert!(ts.iter().all(|t| t.bytes > 0));
    }

    #[test]
    fn single_chiplet_task_has_no_noi_traffic() {
        // Capacity large enough for the whole model on one chiplet.
        let (tp, sg) = mapped_resnet18(20_000_000);
        assert_eq!(tp.used_nodes().len(), 1);
        for df in Dataflow::all() {
            assert!(transfers_for(&tp, &sg, 1, df).is_empty(), "{df}");
        }
    }

    #[test]
    fn transfer_volume_scales_with_bytes_per_element() {
        let (tp, sg) = mapped_resnet18(1_000_000);
        let t1: u64 = total(&placement_transfers(&tp, &sg, 1));
        let t2: u64 = total(&placement_transfers(&tp, &sg, 2));
        let ratio = t2 as f64 / t1 as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn transfer_volume_bounded_by_edge_volume() {
        let (tp, sg) = mapped_resnet18(1_000_000);
        let total: u64 = total(&placement_transfers(&tp, &sg, 1));
        let upper: u64 = sg.edges().iter().map(|e| e.volume).sum();
        assert!(
            total <= upper + sg.edges().len() as u64,
            "{total} > {upper}"
        );
    }

    #[test]
    fn transfers_are_deduplicated() {
        let (tp, sg) = mapped_resnet18(1_000_000);
        for df in Dataflow::all() {
            let ts = transfers_for(&tp, &sg, 1, df);
            let mut pairs: Vec<(NodeId, NodeId)> = ts.iter().map(|t| (t.src, t.dst)).collect();
            let len = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), len, "{df}");
        }
    }

    #[test]
    fn emitted_order_is_independent_of_edge_iteration_order() {
        // Regression for the deterministic-merge contract: accumulating
        // the edges forward and reversed must produce the same transfer
        // list, because same (src, dst, task) pairs merge through the
        // BTreeMap and the output is its sorted iteration.
        let (tp, sg) = mapped_resnet18(1_000_000);
        for df in Dataflow::all() {
            let fusible = sg.fusible_edges();
            let exp = Expansion {
                tp: &tp,
                sg: &sg,
                bytes_per_element: 2,
                policies: Policies::Uniform(df.noi_policy()),
                batch: 3,
            };
            let mut fwd: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            let mut rev: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            for (ei, e) in sg.edges().iter().enumerate() {
                exp.accumulate_edge(&mut fwd, e, fusible[ei]);
            }
            for (ei, e) in sg.edges().iter().enumerate().rev() {
                exp.accumulate_edge(&mut rev, e, fusible[ei]);
            }
            let fwd: Vec<_> = fwd.into_iter().collect();
            let rev: Vec<_> = rev.into_iter().collect();
            assert_eq!(fwd, rev, "{df}");
        }
        // And the public API emits strictly sorted (src, dst) pairs.
        let ts = placement_transfers(&tp, &sg, 2);
        for w in ts.windows(2) {
            assert!((w[0].src, w[0].dst) < (w[1].src, w[1].dst));
        }
    }

    #[test]
    fn every_mode_is_bounded_by_weight_stationary() {
        let (tp, sg) = mapped_resnet18(1_000_000);
        for batch in [1, 8] {
            let ws = total(&transfers_for_batch(
                &tp,
                &sg,
                1,
                Dataflow::WeightStationary,
                batch,
            ));
            for df in Dataflow::all() {
                let t = total(&transfers_for_batch(&tp, &sg, 1, df, batch));
                assert!(t <= ws, "{df} batch {batch}: {t} > WS {ws}");
            }
        }
    }

    #[test]
    fn weight_stationary_batch_scales_linearly() {
        // The WS batch expansion must stay byte-identical to the seed
        // per-inference scheme times the batch (what the platform
        // multiplied by before batching moved into the expansion).
        let (tp, sg) = mapped_resnet18(1_000_000);
        let per_frame = placement_transfers(&tp, &sg, 4);
        let batched = transfers_for_batch(&tp, &sg, 4, Dataflow::WeightStationary, 8);
        assert_eq!(per_frame.len(), batched.len());
        for (f, b) in per_frame.iter().zip(&batched) {
            assert_eq!((f.src, f.dst, f.bytes * 8), (b.src, b.dst, b.bytes));
        }
    }

    #[test]
    fn uniform_preset_mappings_expand_byte_identically_to_the_enum() {
        // The policy-based expansion subsumes the enum match: a uniform
        // preset ModelMapping must reproduce the mode's transfer list
        // exactly — same pairs, same order, same rounding.
        for (tp, sg) in [mapped_resnet18(1_000_000), mapped_vgg11(1_000_000)] {
            for df in Dataflow::all() {
                let mm = dnn::ModelMapping::preset(df, &sg);
                for batch in [1, 8] {
                    assert_eq!(
                        transfers_for_batch(&tp, &sg, 2, df, batch),
                        transfers_for_batch_mapped(&tp, &sg, 2, &mm, batch),
                        "{} {df} batch {batch}",
                        sg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn per_segment_policies_mix_modes_along_the_graph() {
        // A mixed mapping (fused chain except one re-stationed segment)
        // is a point neither enum mode can express, and stays bounded by
        // the WS baseline like every policy arm.
        let (tp, sg) = mapped_vgg11(1_000_000);
        let mut per_seg: Vec<dnn::Mapping> = sg
            .segments()
            .iter()
            .map(dnn::Mapping::fused_layer)
            .collect();
        let mid = sg.segment_count() / 2;
        per_seg[mid] = dnn::Mapping::output_stationary(&sg.segments()[mid]);
        let mixed = dnn::ModelMapping::from_mappings(&sg, "mixed", per_seg);
        let got = total(&transfers_for_batch_mapped(&tp, &sg, 1, &mixed, 8));
        let ws = total(&transfers_for_batch(
            &tp,
            &sg,
            1,
            Dataflow::WeightStationary,
            8,
        ));
        let fl = total(&transfers_for_batch(&tp, &sg, 1, Dataflow::FusedLayer, 8));
        assert!(got <= ws, "mixed {got} > WS {ws}");
        assert_ne!(got, fl, "re-stationing one segment must show up");
    }

    #[test]
    fn fused_layer_elides_chain_traffic() {
        // VGG's segment graph is a pure fusible chain: fused-layer keeps
        // only the halo bands, cutting the traffic by ~8x.
        let (tp, sg) = mapped_vgg11(1_000_000);
        let ws = total(&placement_transfers(&tp, &sg, 1));
        let fl = total(&transfers_for(&tp, &sg, 1, Dataflow::FusedLayer));
        assert!(fl > 0);
        assert!(
            (fl as f64) < 0.2 * ws as f64,
            "fused {fl} vs weight-stationary {ws}"
        );
    }

    #[test]
    fn output_stationary_restations_downsampling_edges() {
        // Re-stationing pays one weight tile (per batch for OS, per
        // frame for IS) plus the output write-back, so it wins exactly
        // where the consumer shrinks the tensor — downsampling edges
        // whose weights are smaller than the saved activation volume.
        // Placed one-segment-per-chiplet (every edge crosses),
        // ResNet-18's stride-2 stage transitions give OS a strict win at
        // batch granularity.
        let g = build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let segments = sg
            .segments()
            .iter()
            .map(|seg| crate::placement::SegmentPlacement {
                segment: seg.id,
                shares: vec![crate::placement::NodeShare {
                    node: NodeId(seg.id.0),
                    weights: seg.params.max(1),
                }],
            })
            .collect();
        let tp = TaskPlacement {
            task: TaskId(0),
            model: sg.name().to_string(),
            segments,
        };
        let batch = 8;
        let ws = total(&transfers_for_batch(
            &tp,
            &sg,
            1,
            Dataflow::WeightStationary,
            batch,
        ));
        let os = total(&transfers_for_batch(
            &tp,
            &sg,
            1,
            Dataflow::OutputStationary,
            batch,
        ));
        let is = total(&transfers_for_batch(
            &tp,
            &sg,
            1,
            Dataflow::InputStationary,
            batch,
        ));
        assert!(os < ws, "OS {os} must beat WS {ws} on stride-2 edges");
        // IS re-stages the weight tile every frame, so it never beats OS.
        assert!(os <= is, "OS {os} vs IS {is}");
        assert!(is <= ws, "IS {is} vs WS {ws}");
    }
}
