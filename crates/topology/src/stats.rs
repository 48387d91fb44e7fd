//! Structural statistics over topologies: the router-port and link-length
//! histograms of Fig. 2 plus bisection and wiring summaries.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::graph::Topology;
use crate::hw::HwParams;

/// Histogram of router network-port counts: `ports -> number of routers`.
///
/// # Examples
///
/// ```
/// let mesh = topology::mesh2d(4, 4)?;
/// let hist = topology::port_histogram(&mesh);
/// assert_eq!(hist[&2], 4);  // corners
/// assert_eq!(hist[&3], 8);  // edges
/// assert_eq!(hist[&4], 4);  // interior
/// # Ok::<(), topology::TopologyError>(())
/// ```
pub fn port_histogram(topo: &Topology) -> BTreeMap<usize, usize> {
    let mut hist = BTreeMap::new();
    for n in topo.nodes() {
        *hist.entry(topo.ports(n.id)).or_insert(0) += 1;
    }
    hist
}

/// Histogram of link physical lengths in hop units: `length -> link count`.
pub fn link_length_histogram(topo: &Topology) -> BTreeMap<u32, usize> {
    let mut hist = BTreeMap::new();
    for l in topo.links() {
        *hist.entry(l.length_hops).or_insert(0) += 1;
    }
    hist
}

/// Number of links crossing the vertical mid-cut of the floorplan — a
/// simple bisection-bandwidth proxy (in links, multiply by link bandwidth
/// for bits/s).
pub fn bisection_links(topo: &Topology) -> usize {
    let max_x = topo.nodes().iter().map(|n| n.coord.x).max().unwrap_or(0);
    let cut = (max_x as f64 + 1.0) / 2.0;
    topo.links()
        .iter()
        .filter(|l| {
            let xa = topo.node(l.a).coord.x as f64;
            let xb = topo.node(l.b).coord.x as f64;
            (xa < cut) != (xb < cut)
        })
        .count()
}

/// Aggregate structural summary of one NoI/NoC architecture — one row of
/// the Fig. 2 comparison.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TopologySummary {
    /// Architecture name.
    pub name: String,
    /// Router count.
    pub routers: usize,
    /// Link count (Fig. 2(b)).
    pub links: usize,
    /// `ports -> router count` (Fig. 2(a)).
    pub port_histogram: BTreeMap<usize, usize>,
    /// `length_hops -> link count`.
    pub link_length_histogram: BTreeMap<u32, usize>,
    /// Total wire length in hop units.
    pub total_wire_hops: u64,
    /// Mean shortest-path hop count over all pairs.
    pub avg_hops: f64,
    /// Network diameter in hops.
    pub diameter: u32,
    /// Links crossing the vertical mid-cut.
    pub bisection_links: usize,
    /// Total NoI silicon area under the given hardware model, mm².
    pub noi_area_mm2: f64,
}

/// Computes the full structural summary of a topology under `hw`.
pub fn summarize(topo: &Topology, hw: &HwParams) -> TopologySummary {
    TopologySummary {
        name: topo.name().to_string(),
        routers: topo.node_count(),
        links: topo.link_count(),
        port_histogram: port_histogram(topo),
        link_length_histogram: link_length_histogram(topo),
        total_wire_hops: topo.total_link_length(),
        avg_hops: topo.avg_hops(),
        diameter: topo.diameter(),
        bisection_links: bisection_links(topo),
        noi_area_mm2: hw.noi_area_mm2(topo),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floret::floret;
    use crate::generators::{kite, mesh2d, swap, SwapConfig};

    #[test]
    fn port_histogram_totals_match_node_count() {
        for topo in [
            mesh2d(10, 10).unwrap(),
            kite(10, 10).unwrap(),
            swap(10, 10, &SwapConfig::default()).unwrap(),
            floret(10, 10, 6).unwrap().0,
        ] {
            let hist = port_histogram(&topo);
            let total: usize = hist.values().sum();
            assert_eq!(total, topo.node_count(), "{}", topo.name());
        }
    }

    #[test]
    fn fig2a_shape_holds() {
        // Kite: 4-port dominated. SIAM: 3 and 4 ports. SWAP: 2-3 ports.
        // Floret: overwhelmingly 2 ports.
        let kite_hist = port_histogram(&kite(10, 10).unwrap());
        assert!(kite_hist[&4] == 100);

        let mesh_hist = port_histogram(&mesh2d(10, 10).unwrap());
        assert!(mesh_hist[&3] + mesh_hist[&4] > 90);

        let swap_hist = port_histogram(&swap(10, 10, &SwapConfig::default()).unwrap());
        let low: usize = swap_hist
            .iter()
            .filter(|(&p, _)| p <= 3)
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(low, 100);

        let (fl, _) = floret(10, 10, 6).unwrap();
        let fl_hist = port_histogram(&fl);
        let two: usize = fl_hist
            .iter()
            .filter(|(&p, _)| p <= 2)
            .map(|(_, &c)| c)
            .sum();
        assert!(
            two >= 85,
            "floret must be 2-port dominated, hist={fl_hist:?}"
        );
    }

    #[test]
    fn fig2b_link_count_ordering() {
        // Kite >= SIAM > SWAP > Floret in total link count for 100 chiplets.
        let kite_l = kite(10, 10).unwrap().link_count();
        let mesh_l = mesh2d(10, 10).unwrap().link_count();
        let swap_l = swap(10, 10, &SwapConfig::default()).unwrap().link_count();
        let floret_l = floret(10, 10, 6).unwrap().0.link_count();
        assert!(kite_l >= mesh_l, "kite {kite_l} vs mesh {mesh_l}");
        assert!(mesh_l > swap_l, "mesh {mesh_l} vs swap {swap_l}");
        assert!(swap_l > floret_l, "swap {swap_l} vs floret {floret_l}");
    }

    #[test]
    fn noi_area_ordering_matches_cost_claims() {
        // Floret has the smallest NoI area; Kite the largest.
        let hw = HwParams::default();
        let a_kite = hw.noi_area_mm2(&kite(10, 10).unwrap());
        let a_mesh = hw.noi_area_mm2(&mesh2d(10, 10).unwrap());
        let a_swap = hw.noi_area_mm2(&swap(10, 10, &SwapConfig::default()).unwrap());
        let a_floret = hw.noi_area_mm2(&floret(10, 10, 6).unwrap().0);
        assert!(a_floret < a_swap);
        assert!(a_swap < a_mesh);
        assert!(a_mesh < a_kite);
    }

    #[test]
    fn bisection_mesh() {
        // 10x10 mesh: 10 horizontal links cross the mid-cut.
        assert_eq!(bisection_links(&mesh2d(10, 10).unwrap()), 10);
    }

    #[test]
    fn summary_is_consistent() {
        let topo = mesh2d(6, 6).unwrap();
        let s = summarize(&topo, &HwParams::default());
        assert_eq!(s.routers, 36);
        assert_eq!(s.links, 60);
        assert_eq!(s.diameter, 10);
        assert!(s.noi_area_mm2 > 0.0);
        let total_links: usize = s.link_length_histogram.values().sum();
        assert_eq!(total_links, s.links);
    }
}
