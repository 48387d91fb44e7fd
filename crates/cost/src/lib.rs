//! Wafer-yield and NoI fabrication cost model — Eqs. (2)-(5) of the paper.
//!
//! The normalized fabrication cost of an NoI is
//! `C_NoI = (n_ref / n) * exp(-D0 * (A_ref - A_NoI))`, where `n` is the
//! number of systems per wafer, `D0` the wafer defect density and `A` the
//! NoI silicon area. The reference system is the AMD 864 mm² interposer
//! with 64 chiplets (Eq. (2)). The ratio between two NoIs (Eq. (5)) then
//! reduces to `exp(D0 * (A_1 - A_2))` scaled by their systems-per-wafer
//! ratio.
//!
//! # Examples
//!
//! ```
//! use cost::CostModel;
//! use topology::{floret, kite, HwParams};
//!
//! let hw = HwParams::default();
//! let model = CostModel::default();
//! let a_kite = hw.noi_area_mm2(&kite(10, 10)?);
//! let a_floret = hw.noi_area_mm2(&floret(10, 10, 6)?.0);
//! // Floret's smaller NoI is cheaper to fabricate (paper: ~2.8x vs Kite).
//! assert!(model.cost_ratio(a_kite, a_floret) > 2.0);
//! # Ok::<(), topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde::Serialize;

/// Fabrication cost model parameters.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CostModel {
    /// Wafer defect density `D0`, defects per mm².
    pub defect_density_per_mm2: f64,
    /// NoI area of the reference system (`A_ref`), mm². The paper's
    /// reference is the AMD 864 mm² interposer 2.5D system with 64
    /// chiplets; its NoI share is ~85% of the interposer.
    pub reference_noi_area_mm2: f64,
    /// Usable wafer area, mm² (300 mm wafer).
    pub wafer_area_mm2: f64,
    /// Non-NoI system area (chiplets + margins) added to the NoI area
    /// when counting systems per wafer, mm².
    pub base_system_area_mm2: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            defect_density_per_mm2: 0.007, // 0.7 defects/cm²
            reference_noi_area_mm2: 864.0 * 0.85,
            wafer_area_mm2: std::f64::consts::PI * 150.0 * 150.0,
            base_system_area_mm2: 400.0,
        }
    }
}

impl CostModel {
    /// Poisson wafer yield for a die of `area_mm2`.
    pub fn yield_factor(&self, area_mm2: f64) -> f64 {
        (-self.defect_density_per_mm2 * area_mm2).exp()
    }

    /// Systems per wafer for a given NoI area (`n` in Eq. (2)).
    pub fn systems_per_wafer(&self, noi_area_mm2: f64) -> f64 {
        self.wafer_area_mm2 / (self.base_system_area_mm2 + noi_area_mm2)
    }

    /// Normalized NoI fabrication cost per Eq. (2): the reference system
    /// costs exactly 1.
    pub fn relative_cost(&self, noi_area_mm2: f64) -> f64 {
        let n_ref = self.systems_per_wafer(self.reference_noi_area_mm2);
        let n = self.systems_per_wafer(noi_area_mm2);
        let d0 = self.defect_density_per_mm2;
        (n_ref / n) * (d0 * (noi_area_mm2 - self.reference_noi_area_mm2)).exp()
    }

    /// Cost ratio of NoI `a` over NoI `b` per Eq. (5), both areas in mm².
    pub fn cost_ratio(&self, area_a_mm2: f64, area_b_mm2: f64) -> f64 {
        self.relative_cost(area_a_mm2) / self.relative_cost(area_b_mm2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{floret, kite, mesh2d, swap, HwParams, SwapConfig};

    #[test]
    fn reference_costs_one() {
        let m = CostModel::default();
        let c = m.relative_cost(m.reference_noi_area_mm2);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn yield_decreases_with_area() {
        let m = CostModel::default();
        assert!(m.yield_factor(100.0) > m.yield_factor(500.0));
        assert!((m.yield_factor(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_is_transitive() {
        let m = CostModel::default();
        let (a, b, c) = (120.0, 240.0, 410.0);
        let direct = m.cost_ratio(c, a);
        let chained = m.cost_ratio(c, b) * m.cost_ratio(b, a);
        assert!((direct - chained).abs() / direct < 1e-12);
    }

    #[test]
    fn bigger_noi_costs_more() {
        let m = CostModel::default();
        assert!(m.relative_cost(300.0) > m.relative_cost(150.0));
    }

    #[test]
    fn paper_cost_ordering_holds() {
        // Floret < SWAP < SIAM < Kite in fabrication cost, with the
        // Kite/Floret gap in the paper's ~2.8x regime.
        let hw = HwParams::default();
        let m = CostModel::default();
        let a_kite = hw.noi_area_mm2(&kite(10, 10).unwrap());
        let a_mesh = hw.noi_area_mm2(&mesh2d(10, 10).unwrap());
        let a_swap = hw.noi_area_mm2(&swap(10, 10, &SwapConfig::default()).unwrap());
        let a_floret = hw.noi_area_mm2(&floret(10, 10, 6).unwrap().0);

        let r_kite = m.cost_ratio(a_kite, a_floret);
        let r_mesh = m.cost_ratio(a_mesh, a_floret);
        let r_swap = m.cost_ratio(a_swap, a_floret);
        assert!(r_kite > r_mesh, "kite {r_kite} vs mesh {r_mesh}");
        assert!(r_mesh > r_swap, "mesh {r_mesh} vs swap {r_swap}");
        assert!(r_swap > 1.0);
        assert!(
            (1.8..=4.0).contains(&r_kite),
            "kite/floret cost ratio {r_kite} out of the paper's regime (2.8)"
        );
    }
}
