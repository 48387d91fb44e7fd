//! Router/link hardware model: timing, energy and area coefficients.
//!
//! The constants follow the ISAAC/SIAM class of interposer NoI models used
//! by the paper's evaluation: a 1 GHz network clock, 32-byte flits, a
//! four-stage router pipeline and per-bit router/link energies. Router area
//! and energy scale with the port count because the crossbar grows
//! quadratically and the buffering linearly with the number of ports.
//!
//! Every figure in the paper compares architectures *relative to Floret*,
//! so the absolute calibration of these constants matters less than the
//! scaling behaviour, which is standard (Dally & Towles).

use serde::Serialize;

use crate::graph::Topology;

/// Hardware parameters of the interconnect fabric.
///
/// # Examples
///
/// ```
/// use topology::HwParams;
///
/// let hw = HwParams::default();
/// assert!(hw.router_area_mm2(4) > hw.router_area_mm2(2));
/// assert!(hw.router_energy_pj_per_bit(8) > hw.router_energy_pj_per_bit(3));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct HwParams {
    /// Network clock frequency in GHz.
    pub clock_ghz: f64,
    /// Flit width in bytes.
    pub flit_bytes: u32,
    /// Router pipeline depth in cycles (route compute, VC alloc, switch
    /// alloc, switch traversal).
    pub router_pipeline_cycles: u32,
    /// Cycles needed to traverse one hop-unit of wire (retimed interposer
    /// links: one cycle per chiplet pitch).
    pub wire_cycles_per_hop: u32,
    /// Energy per bit for one traversal of a 4-port reference router, pJ.
    pub e_router_pj_per_bit: f64,
    /// Energy per bit per millimetre of interposer wire, pJ.
    pub e_link_pj_per_bit_mm: f64,
    /// Physical chiplet pitch in millimetres (one hop unit of wire).
    pub pitch_mm: f64,
    /// Area of a minimal 2-port router in mm² (buffers + control).
    pub router_area_base_mm2: f64,
    /// Incremental area per port in mm² (input buffer + link controller).
    pub router_area_per_port_mm2: f64,
    /// Incremental area per port-pair in mm² (crossbar quadratic term).
    pub router_area_per_port2_mm2: f64,
    /// Wiring area per millimetre of link (flit-wide parallel bus plus
    /// repeaters), mm²/mm.
    pub link_area_mm2_per_mm: f64,
    /// Static (clock + leakage) power density of the active NoI fabric,
    /// W/mm². Idle routers and links keep burning this for as long as the
    /// workload runs, so a smaller NoI (Floret) pays proportionally less.
    pub static_w_per_mm2: f64,
}

impl Default for HwParams {
    fn default() -> Self {
        HwParams {
            clock_ghz: 1.0,
            flit_bytes: 32,
            router_pipeline_cycles: 4,
            wire_cycles_per_hop: 1,
            e_router_pj_per_bit: 0.63,
            e_link_pj_per_bit_mm: 0.8,
            pitch_mm: 2.5,
            router_area_base_mm2: 0.05,
            router_area_per_port_mm2: 0.03,
            router_area_per_port2_mm2: 0.018,
            link_area_mm2_per_mm: 0.10,
            static_w_per_mm2: 0.25,
        }
    }
}

impl HwParams {
    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Area of a router with `ports` network ports, mm².
    ///
    /// `area = base + per_port * p + per_port² * p²`; the quadratic term
    /// models the crossbar. The local/NI port is accounted for by adding one
    /// to the network port count.
    pub fn router_area_mm2(&self, ports: usize) -> f64 {
        let p = (ports + 1) as f64; // +1 local port
        self.router_area_base_mm2
            + self.router_area_per_port_mm2 * p
            + self.router_area_per_port2_mm2 * p * p
    }

    /// Per-bit energy of one traversal of a router with `ports` network
    /// ports, pJ. Scales linearly with the crossbar radix, normalized to a
    /// 4-port reference router.
    pub fn router_energy_pj_per_bit(&self, ports: usize) -> f64 {
        let p = (ports + 1) as f64;
        self.e_router_pj_per_bit * (0.4 + 0.12 * p)
    }

    /// Latency in cycles for one flit to cross a single router plus a link
    /// of `length_hops` hop-units.
    pub fn hop_cycles(&self, length_hops: u32) -> u64 {
        self.router_pipeline_cycles as u64 + (self.wire_cycles_per_hop * length_hops) as u64
    }

    /// Energy in pJ to move `bits` bits across one router with `ports`
    /// ports and one link of `length_hops` hop-units.
    pub fn hop_energy_pj(&self, bits: u64, ports: usize, length_hops: u32) -> f64 {
        let link_mm = length_hops as f64 * self.pitch_mm;
        bits as f64 * (self.router_energy_pj_per_bit(ports) + self.e_link_pj_per_bit_mm * link_mm)
    }

    /// Total NoI/NoC silicon area of a topology in mm²: all routers (sized
    /// by their port counts) plus all link wiring.
    pub fn noi_area_mm2(&self, topo: &Topology) -> f64 {
        let routers: f64 = topo
            .nodes()
            .iter()
            .map(|n| self.router_area_mm2(topo.ports(n.id)))
            .sum();
        let links: f64 = topo
            .links()
            .iter()
            .map(|l| l.length_hops as f64 * self.pitch_mm * self.link_area_mm2_per_mm)
            .sum();
        routers + links
    }

    /// Static NoI energy in pJ burned over `duration_ns` by a fabric of
    /// `area_mm2` (W x ns = nJ; x1e3 converts to pJ).
    pub fn static_energy_pj(&self, area_mm2: f64, duration_ns: f64) -> f64 {
        self.static_w_per_mm2 * area_mm2 * duration_ns * 1e3
    }

    /// Serialization latency in cycles for a message of `bytes` bytes
    /// (number of flits; header flit included in the count, minimum 1).
    pub fn serialization_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.flit_bytes as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::mesh2d;

    #[test]
    fn router_area_monotonic_in_ports() {
        let hw = HwParams::default();
        let mut last = 0.0;
        for p in 1..10 {
            let a = hw.router_area_mm2(p);
            assert!(a > last, "area must grow with ports");
            last = a;
        }
    }

    #[test]
    fn router_energy_reference_at_four_ports() {
        let hw = HwParams::default();
        // 4 network ports + local = radix 5 => 0.4 + 0.6 = 1.0x reference.
        let e = hw.router_energy_pj_per_bit(4);
        assert!((e - hw.e_router_pj_per_bit).abs() < 1e-12);
    }

    #[test]
    fn hop_cycles_accounts_for_long_links() {
        let hw = HwParams::default();
        assert_eq!(hw.hop_cycles(1), 5);
        assert_eq!(hw.hop_cycles(3), 7);
    }

    #[test]
    fn serialization_rounds_up() {
        let hw = HwParams::default();
        assert_eq!(hw.serialization_cycles(1), 1);
        assert_eq!(hw.serialization_cycles(32), 1);
        assert_eq!(hw.serialization_cycles(33), 2);
        assert_eq!(hw.serialization_cycles(0), 1);
    }

    #[test]
    fn mesh_area_positive_and_scales() {
        let hw = HwParams::default();
        let small = hw.noi_area_mm2(&mesh2d(4, 4).unwrap());
        let big = hw.noi_area_mm2(&mesh2d(10, 10).unwrap());
        assert!(small > 0.0);
        assert!(big > 4.0 * small * 0.8, "area should scale ~ with nodes");
    }

    #[test]
    fn hop_energy_grows_with_bits_and_length() {
        let hw = HwParams::default();
        let e1 = hw.hop_energy_pj(256, 4, 1);
        let e2 = hw.hop_energy_pj(512, 4, 1);
        let e3 = hw.hop_energy_pj(256, 4, 4);
        assert!(e2 > e1);
        assert!(e3 > e1);
    }
}
