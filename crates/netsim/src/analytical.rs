//! Closed-form NoI/NoC performance and energy model.
//!
//! Fast enough for optimization inner loops (the MOO placement search of
//! Section III evaluates thousands of candidate mappings); the
//! discrete-event simulator in [`crate::simulate`] validates its trends.

use serde::Serialize;
use topology::{HwParams, Topology};

use crate::flow::Flow;
use crate::routing::RouteTable;

/// Analytical performance/energy report for one traffic pattern.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AnalyticalReport {
    /// Mean zero-load packet latency over flows (header path delay plus
    /// serialization), cycles.
    pub mean_flow_latency_cycles: f64,
    /// Communication makespan lower bound: max of the busiest-link
    /// occupancy and the slowest single flow, cycles.
    pub makespan_cycles: u64,
    /// Total interconnect energy, pJ.
    pub total_energy_pj: f64,
    /// Total flit-hop events (traffic-volume proxy).
    pub flit_hops: u64,
    /// Flits crossing the single busiest directed link channel.
    pub max_link_flits: u64,
    /// Mean hop count over flows, weighted by bytes.
    pub mean_weighted_hops: f64,
}

/// Evaluates `flows` on `topo` analytically.
///
/// Per flow: the header traverses each hop in `router_pipeline +
/// wire_cycles * length` cycles and the payload pipelines behind it at one
/// flit per cycle (wormhole/cut-through). Link occupancies bound the
/// makespan from below; energy charges every flit for each router it
/// crosses (scaled by the router's radix) and each millimetre of wire.
pub fn analyze(topo: &Topology, hw: &HwParams, flows: &[Flow]) -> AnalyticalReport {
    let rt = RouteTable::build(topo, hw);
    analyze_with_table(topo, hw, flows, &rt)
}

/// [`analyze`] with a prebuilt routing table (for optimization loops that
/// evaluate many traffic patterns on one topology).
pub fn analyze_with_table(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    rt: &RouteTable,
) -> AnalyticalReport {
    // Directed channel loads (full-duplex links), matching the DES.
    let mut link_flits = vec![0u64; 2 * topo.link_count()];
    let mut total_latency = 0.0f64;
    let mut slowest_flow = 0u64;
    let mut energy_pj = 0.0f64;
    let mut flit_hops = 0u64;
    let mut weighted_hops = 0.0f64;
    let mut total_bytes = 0u64;

    // Reused scratch: routing allocates nothing per flow (see
    // `RouteTable::path_into`).
    let mut path = Vec::new();
    for f in flows {
        if f.src == f.dst || f.bytes == 0 {
            continue;
        }
        rt.path_into(topo, f.src, f.dst, &mut path);
        let flits = f.bytes.div_ceil(hw.flit_bytes as u64).max(1);
        let bits = f.bytes * 8;
        let mut header_cycles = 0u64;
        let mut at = f.src;
        for lid in &path {
            let link = topo.link(*lid);
            header_cycles += hw.hop_cycles(link.length_hops);
            let ch = if link.a == at {
                lid.index()
            } else {
                lid.index() + topo.link_count()
            };
            link_flits[ch] += flits;
            flit_hops += flits;
            // Energy: traverse the upstream router, then the wire.
            let ports = topo.ports(at);
            energy_pj += hw.hop_energy_pj(bits, ports, link.length_hops);
            at = link.opposite(at);
        }
        // Final ejection through the destination router.
        energy_pj += bits as f64 * hw.router_energy_pj_per_bit(topo.ports(f.dst));
        let finish = header_cycles + flits;
        total_latency += finish as f64;
        slowest_flow = slowest_flow.max(finish);
        weighted_hops += path.len() as f64 * f.bytes as f64;
        total_bytes += f.bytes;
    }

    let n_flows = flows
        .iter()
        .filter(|f| f.src != f.dst && f.bytes > 0)
        .count()
        .max(1);
    let max_link_flits = link_flits.iter().copied().max().unwrap_or(0);
    AnalyticalReport {
        mean_flow_latency_cycles: total_latency / n_flows as f64,
        makespan_cycles: slowest_flow.max(max_link_flits),
        total_energy_pj: energy_pj,
        flit_hops,
        max_link_flits,
        mean_weighted_hops: if total_bytes == 0 {
            0.0
        } else {
            weighted_hops / total_bytes as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{mesh2d, Coord, NodeId};

    fn mesh5() -> Topology {
        mesh2d(5, 5).unwrap()
    }

    #[test]
    fn single_flow_zero_load() {
        let topo = mesh5();
        let hw = HwParams::default();
        let src = topo.node_at(Coord::new2(0, 0)).unwrap();
        let dst = topo.node_at(Coord::new2(3, 0)).unwrap();
        let flows = [Flow::new(src, dst, 64)];
        let rep = analyze(&topo, &hw, &flows);
        // 3 hops x (4 + 1) cycles header + 2 flits payload.
        assert_eq!(rep.makespan_cycles, 3 * 5 + 2);
        assert!((rep.mean_flow_latency_cycles - 17.0).abs() < 1e-9);
        assert_eq!(rep.flit_hops, 6);
        assert!((rep.mean_weighted_hops - 3.0).abs() < 1e-9);
    }

    #[test]
    fn self_flows_are_free() {
        let topo = mesh5();
        let hw = HwParams::default();
        let flows = [Flow::new(NodeId(0), NodeId(0), 1_000_000)];
        let rep = analyze(&topo, &hw, &flows);
        assert_eq!(rep.total_energy_pj, 0.0);
        assert_eq!(rep.makespan_cycles, 0);
    }

    #[test]
    fn bottleneck_bound_kicks_in() {
        // Many flows over the same link: makespan is bounded by the link
        // occupancy, not the single-flow latency.
        let topo = mesh5();
        let hw = HwParams::default();
        let a = topo.node_at(Coord::new2(0, 0)).unwrap();
        let b = topo.node_at(Coord::new2(1, 0)).unwrap();
        let flows: Vec<Flow> = (0..10).map(|_| Flow::new(a, b, 3200)).collect();
        let rep = analyze(&topo, &hw, &flows);
        let flits_each = 3200 / 32;
        assert_eq!(rep.max_link_flits, 10 * flits_each);
        assert_eq!(rep.makespan_cycles, 10 * flits_each);
    }

    #[test]
    fn energy_scales_with_bytes() {
        let topo = mesh5();
        let hw = HwParams::default();
        let a = NodeId(0);
        let b = NodeId(24);
        let e1 = analyze(&topo, &hw, &[Flow::new(a, b, 1000)]).total_energy_pj;
        let e2 = analyze(&topo, &hw, &[Flow::new(a, b, 2000)]).total_energy_pj;
        assert!((e2 / e1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn longer_paths_cost_more_energy() {
        let topo = mesh5();
        let hw = HwParams::default();
        let near = analyze(&topo, &hw, &[Flow::new(NodeId(0), NodeId(1), 1000)]);
        let far = analyze(&topo, &hw, &[Flow::new(NodeId(0), NodeId(24), 1000)]);
        assert!(far.total_energy_pj > 2.0 * near.total_energy_pj);
    }

    #[test]
    fn empty_traffic() {
        let topo = mesh5();
        let rep = analyze(&topo, &HwParams::default(), &[]);
        assert_eq!(rep.makespan_cycles, 0);
        assert_eq!(rep.total_energy_pj, 0.0);
    }
}
