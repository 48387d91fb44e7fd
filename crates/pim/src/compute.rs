//! Per-segment PIM compute cost model: chiplet requirements, latency,
//! energy and power for the weighted layers of a segment graph.
//!
//! The core is mapping-based ([`segment_cost_mapped`]): a
//! [`dnn::mapping::Mapping`] folds its per-level access counts × level
//! energies into per-MAC energy and latency multipliers, and the cost
//! model applies them. The [`Dataflow`] entry points are thin façades
//! that cost the mode's preset mapping — byte-identical to the legacy
//! enum factors because the presets snap to the same literals.

use dnn::{Dataflow, Mapping, ModelMapping, Segment, SegmentGraph};
use serde::Serialize;

use crate::config::PimConfig;

/// Compute-side cost of running one segment on its allocated chiplets.
#[derive(Copy, Clone, Debug, PartialEq, Serialize)]
pub struct SegmentCost {
    /// Chiplets/PEs the segment's weights occupy.
    pub nodes: u64,
    /// Crossbars occupied.
    pub crossbars: u64,
    /// Latency of one inference pass through this segment, ns.
    pub latency_ns: f64,
    /// Compute energy of one inference pass, pJ.
    pub energy_pj: f64,
    /// Fraction of allocated crossbar cells actually holding weights.
    pub utilization: f64,
}

/// Evaluates the PIM compute cost of a segment under `cfg` and the
/// weight-stationary baseline dataflow.
///
/// Equivalent to [`segment_cost_with`] with
/// [`Dataflow::WeightStationary`], whose unit energy/latency factors
/// leave this bit-identical to the pre-dataflow cost model.
pub fn segment_cost(seg: &Segment, cfg: &PimConfig) -> SegmentCost {
    segment_cost_with(seg, cfg, Dataflow::WeightStationary)
}

/// Evaluates the PIM compute cost of a segment under `cfg` and `dataflow`.
///
/// Latency model: the `out_spatial = macs / params` input vectors of a
/// conv (1 for fc) are streamed bit-serially; row tiles of the weight
/// matrix operate in parallel, column tiles in parallel, so one input
/// vector costs `activation_bits * read_ns`. Vectors are pipelined but the
/// crossbar is occupied for each, so latency scales with the MVM count.
/// The dataflow's [`Dataflow::latency_factor`] scales the result
/// (input-stationary stalls the crossbar while weight tiles re-stage).
///
/// Energy model: `e_mac_pj` per MAC — scaled by the dataflow's buffer
/// residency through [`Dataflow::mac_energy_factor`], since which operand
/// stays in the bank registers changes the buffer reads/writes behind
/// each MAC — plus static power over the latency.
///
/// # Panics
///
/// Panics on [`Dataflow::Searched`] (no fixed factors) — resolve it to
/// a [`Mapping`] and use [`segment_cost_mapped`].
pub fn segment_cost_with(seg: &Segment, cfg: &PimConfig, dataflow: Dataflow) -> SegmentCost {
    segment_cost_factors(
        seg,
        cfg,
        dataflow.mac_energy_factor(),
        dataflow.latency_factor(),
    )
}

/// Evaluates the PIM compute cost of a segment under `cfg` and a
/// resolved loop-nest `mapping`.
///
/// The mapping's folded per-level access-count × access-energy product
/// ([`Mapping::energy_factor`]) scales the per-MAC energy; its weight
/// re-staging stall ([`Mapping::latency_factor`]) scales the latency.
/// For the four preset mappings this is byte-identical to
/// [`segment_cost_with`] on the matching [`Dataflow`].
pub fn segment_cost_mapped(seg: &Segment, cfg: &PimConfig, mapping: &Mapping) -> SegmentCost {
    segment_cost_factors(seg, cfg, mapping.energy_factor(), mapping.latency_factor())
}

/// The shared cost core: per-MAC energy and latency multipliers applied
/// to the crossbar occupancy model.
fn segment_cost_factors(
    seg: &Segment,
    cfg: &PimConfig,
    energy_factor: f64,
    latency_factor: f64,
) -> SegmentCost {
    if seg.params == 0 || seg.macs == 0 {
        return SegmentCost {
            nodes: 0,
            crossbars: 0,
            latency_ns: 0.0,
            energy_pj: 0.0,
            utilization: 0.0,
        };
    }
    let crossbars = cfg.crossbars_for_matrix(seg.weight_rows, seg.weight_cols);
    let nodes = crossbars.div_ceil(cfg.crossbars_per_node as u64).max(1);
    let weight_count = seg.weight_rows as u64 * seg.weight_cols as u64;
    let mvm_count = seg.macs.checked_div(weight_count).map_or(1, |v| v.max(1));
    let latency_ns = mvm_count as f64 * cfg.activation_bits as f64 * cfg.read_ns * latency_factor;
    // static_power_w [W] x latency [ns] = nJ; x1e3 converts to pJ.
    let energy_pj = seg.macs as f64 * cfg.e_mac_pj * energy_factor
        + cfg.static_power_w * nodes as f64 * latency_ns * 1e3;
    let capacity = nodes * cfg.weights_per_node();
    let utilization = weight_count as f64 / capacity as f64;
    SegmentCost {
        nodes,
        crossbars,
        latency_ns,
        energy_pj,
        utilization,
    }
}

/// Cost of programming a segment's weights into its crossbars (done once
/// per mapping, relevant for dynamic remapping overheads).
pub fn segment_program_cost(seg: &Segment, cfg: &PimConfig) -> (f64, f64) {
    let cells = seg.weight_rows as u64 * seg.weight_cols as u64 * cfg.cells_per_weight() as u64;
    let energy_pj = cells as f64 * cfg.write_energy_pj;
    // Row-parallel programming: one row of cells per pulse.
    let pulses = seg.weight_rows.max(1) as f64 * cfg.cells_per_weight() as f64;
    let latency_ns = pulses * cfg.write_ns;
    (latency_ns, energy_pj)
}

/// Whole-model compute summary.
#[derive(Copy, Clone, Debug, PartialEq, Serialize)]
pub struct ModelComputeCost {
    /// Total chiplets/PEs needed to hold every weighted segment.
    pub total_nodes: u64,
    /// Sum of per-segment pipeline-stage latencies (sequential bound), ns.
    pub latency_ns: f64,
    /// Total compute energy per inference, pJ.
    pub energy_pj: f64,
}

/// Aggregates [`segment_cost`] over an entire segment graph
/// (weight-stationary baseline).
pub fn model_cost(sg: &SegmentGraph, cfg: &PimConfig) -> ModelComputeCost {
    model_cost_with(sg, cfg, Dataflow::WeightStationary)
}

/// Aggregates [`segment_cost_with`] over an entire segment graph.
///
/// # Panics
///
/// Panics on [`Dataflow::Searched`] — use [`model_cost_mapped`] with a
/// resolved [`ModelMapping`] instead.
pub fn model_cost_with(sg: &SegmentGraph, cfg: &PimConfig, dataflow: Dataflow) -> ModelComputeCost {
    let mut total_nodes = 0;
    let mut latency_ns = 0.0;
    let mut energy_pj = 0.0;
    for seg in sg.segments() {
        let c = segment_cost_with(seg, cfg, dataflow);
        total_nodes += c.nodes;
        latency_ns += c.latency_ns;
        energy_pj += c.energy_pj;
    }
    ModelComputeCost {
        total_nodes,
        latency_ns,
        energy_pj,
    }
}

/// Aggregates [`segment_cost_mapped`] over an entire segment graph under
/// a per-segment [`ModelMapping`].
///
/// # Panics
///
/// Panics when `mapping` was built for a different segment count.
pub fn model_cost_mapped(
    sg: &SegmentGraph,
    cfg: &PimConfig,
    mapping: &ModelMapping,
) -> ModelComputeCost {
    assert_eq!(
        mapping.mappings().len(),
        sg.segment_count(),
        "mapping/segment count mismatch for {}",
        sg.name()
    );
    let mut total_nodes = 0;
    let mut latency_ns = 0.0;
    let mut energy_pj = 0.0;
    for (idx, seg) in sg.segments().iter().enumerate() {
        let c = segment_cost_mapped(seg, cfg, mapping.segment(idx));
        total_nodes += c.nodes;
        latency_ns += c.latency_ns;
        energy_pj += c.energy_pj;
    }
    ModelComputeCost {
        total_nodes,
        latency_ns,
        energy_pj,
    }
}

/// Average power drawn by a segment's chiplets when inferences stream at
/// `throughput_hz`, in watts. Drives the thermal power maps of Section III.
pub fn segment_power_w(seg: &Segment, cfg: &PimConfig, throughput_hz: f64) -> f64 {
    let c = segment_cost(seg, cfg);
    if c.nodes == 0 {
        return 0.0;
    }
    let dynamic_w = c.energy_pj * 1e-12 * throughput_hz;
    dynamic_w + cfg.static_power_w * c.nodes as f64
}

/// Average power drawn *per chiplet/PE* by a segment at `throughput_hz`.
///
/// Early neural layers process far more activations per chiplet than late
/// ones (whose many chiplets sit mostly idle), which is why Section III
/// warns against stacking initial-layer PEs in one vertical column.
pub fn segment_power_per_node_w(seg: &Segment, cfg: &PimConfig, throughput_hz: f64) -> f64 {
    let c = segment_cost(seg, cfg);
    if c.nodes == 0 {
        return 0.0;
    }
    segment_power_w(seg, cfg, throughput_hz) / c.nodes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{build_model, Dataset, ModelKind, SegmentGraph};

    fn resnet18_segments() -> SegmentGraph {
        let g = build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap();
        SegmentGraph::from_layer_graph(&g)
    }

    #[test]
    fn input_segment_is_free() {
        let sg = resnet18_segments();
        let c = segment_cost(&sg.segments()[0], &PimConfig::default());
        assert_eq!(c.nodes, 0);
        assert_eq!(c.latency_ns, 0.0);
    }

    #[test]
    fn weighted_segments_cost_something() {
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        for seg in sg.segments().iter().skip(1) {
            let c = segment_cost(seg, &cfg);
            assert!(c.nodes >= 1, "{} needs at least one chiplet", seg.name);
            assert!(c.latency_ns > 0.0);
            assert!(c.energy_pj > 0.0);
            assert!(c.utilization > 0.0 && c.utilization <= 1.0);
        }
    }

    #[test]
    fn resnet18_fits_dozens_of_chiplets() {
        // 11.7M weights over ~390k weights/chiplet -> tens of chiplets.
        let sg = resnet18_segments();
        let mc = model_cost(&sg, &PimConfig::default());
        assert!(
            (20..=80).contains(&mc.total_nodes),
            "resnet18 nodes = {}",
            mc.total_nodes
        );
    }

    #[test]
    fn early_layers_draw_more_power_per_node() {
        // Section III: PEs executing initial layers process more
        // activations and consume more power (per PE; late layers spread
        // their weights over many mostly-idle chiplets).
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        let rate = 1000.0;
        let early = segment_power_per_node_w(&sg.segments()[1], &cfg, rate);
        let late = segment_power_per_node_w(&sg.segments()[sg.segment_count() - 2], &cfg, rate);
        assert!(
            early > late,
            "early layer per-PE power {early} W should exceed late {late} W"
        );
    }

    #[test]
    fn programming_cost_scales_with_weights() {
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        let small = &sg.segments()[1];
        let (_, e_small) = segment_program_cost(small, &cfg);
        let biggest = sg.segments().iter().max_by_key(|s| s.params).unwrap();
        let (_, e_big) = segment_program_cost(biggest, &cfg);
        assert!(e_big > e_small);
    }

    #[test]
    fn weight_stationary_matches_the_seed_cost() {
        // The baseline mode multiplies by exactly 1.0, so the dataflow
        // refactor cannot perturb any pre-existing number.
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        for seg in sg.segments() {
            assert_eq!(
                segment_cost(seg, &cfg),
                segment_cost_with(seg, &cfg, Dataflow::WeightStationary),
                "{}",
                seg.name
            );
        }
        assert_eq!(
            model_cost(&sg, &cfg),
            model_cost_with(&sg, &cfg, Dataflow::WeightStationary)
        );
    }

    #[test]
    fn stationary_modes_trade_energy_and_latency() {
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        let ws = model_cost(&sg, &cfg);
        for df in Dataflow::all() {
            let c = model_cost_with(&sg, &cfg, df);
            assert_eq!(
                c.total_nodes, ws.total_nodes,
                "{df}: nodes are placement-bound"
            );
            if df == Dataflow::WeightStationary {
                continue;
            }
            // Buffer residency only ever removes buffer traffic from the
            // MAC path; IS pays for it in re-staging latency instead.
            assert!(c.energy_pj < ws.energy_pj, "{df} energy");
            assert!(c.latency_ns >= ws.latency_ns, "{df} latency");
        }
        let is = model_cost_with(&sg, &cfg, Dataflow::InputStationary);
        assert!(
            is.latency_ns > ws.latency_ns,
            "IS pays the weight-staging stall"
        );
        let fl = model_cost_with(&sg, &cfg, Dataflow::FusedLayer);
        let os = model_cost_with(&sg, &cfg, Dataflow::OutputStationary);
        assert!(fl.energy_pj < os.energy_pj, "fused pipelines save the most");
    }

    #[test]
    fn preset_mappings_cost_byte_identically_to_the_enum_on_the_whole_zoo() {
        // The mapping engine subsumes the enum: for every Table I model
        // and every hand mode, costing the preset mapping is the same
        // doubles as costing the enum — WS therefore stays byte-identical
        // to the seed cost model through the refactor.
        let cfg = PimConfig::default();
        for entry in dnn::table1() {
            let g = build_model(entry.kind, entry.dataset).unwrap();
            let sg = SegmentGraph::from_layer_graph(&g);
            for df in Dataflow::all() {
                let mm = dnn::ModelMapping::preset(df, &sg);
                assert_eq!(
                    model_cost_with(&sg, &cfg, df),
                    model_cost_mapped(&sg, &cfg, &mm),
                    "{} {df}",
                    sg.name()
                );
                for (idx, seg) in sg.segments().iter().enumerate() {
                    assert_eq!(
                        segment_cost_with(seg, &cfg, df),
                        segment_cost_mapped(seg, &cfg, mm.segment(idx)),
                        "{} {df} {}",
                        sg.name(),
                        seg.name
                    );
                }
            }
        }
    }

    #[test]
    fn derived_mappings_open_cost_points_the_enum_cannot_reach() {
        // A deeper reduction tile than the OS preset's t=4 keeps psums
        // resident longer and lands strictly below every hand mode that
        // shares its unit latency.
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        let seg = &sg.segments()[1];
        let deep = dnn::Mapping::derived(dnn::mapping::Loop::K, 16, false, seg);
        let c = segment_cost_mapped(seg, &cfg, &deep);
        let os = segment_cost_with(seg, &cfg, Dataflow::OutputStationary);
        assert!(c.energy_pj < os.energy_pj);
        assert_eq!(c.latency_ns, os.latency_ns);
    }

    #[test]
    fn latency_tracks_spatial_extent() {
        // Early conv layers have far more output pixels -> more MVMs ->
        // higher latency than the final fc.
        let sg = resnet18_segments();
        let cfg = PimConfig::default();
        let first_conv = segment_cost(&sg.segments()[1], &cfg);
        let fc = segment_cost(sg.segments().last().unwrap(), &cfg);
        assert!(first_conv.latency_ns > fc.latency_ns * 10.0);
    }
}
