//! ReRAM crossbar and chiplet/PE configuration.
//!
//! Constants follow the ISAAC/SIAM class of ReRAM in-memory-compute
//! models: 128x128 crossbars, 2-bit cells, 8-bit weights/activations with
//! bit-serial input streaming, and microsecond-scale per-layer latencies
//! dominated by ADC conversion.

use serde::Serialize;

/// Parameters of a ReRAM PIM chiplet (2.5D) or PE (3D).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct PimConfig {
    /// Crossbar rows (wordlines).
    pub crossbar_rows: u32,
    /// Crossbar columns (bitlines).
    pub crossbar_cols: u32,
    /// Bits stored per ReRAM cell.
    pub bits_per_cell: u32,
    /// Weight precision in bits.
    pub weight_bits: u32,
    /// Activation precision in bits (streamed bit-serially).
    pub activation_bits: u32,
    /// Crossbars per chiplet/PE.
    pub crossbars_per_node: u32,
    /// One crossbar read (all wordlines, one input bit) in nanoseconds,
    /// ADC conversion included.
    pub read_ns: f64,
    /// Energy of an 8-bit-equivalent MAC performed in the crossbar, pJ
    /// (ADC/DAC and peripheral share amortized in).
    pub e_mac_pj: f64,
    /// Energy to program one cell, pJ.
    pub write_energy_pj: f64,
    /// Time to program one cell, ns (SET/RESET pulse train).
    pub write_ns: f64,
    /// Cell write endurance in program cycles.
    pub endurance: u64,
    /// Static (leakage + peripheral idle) power per chiplet, W.
    pub static_power_w: f64,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig {
            crossbar_rows: 128,
            crossbar_cols: 128,
            bits_per_cell: 2,
            weight_bits: 8,
            activation_bits: 8,
            crossbars_per_node: 96,
            read_ns: 10.0,
            e_mac_pj: 0.8,
            write_energy_pj: 10.0,
            write_ns: 50.0,
            endurance: 1_000_000,
            static_power_w: 0.05,
        }
    }
}

impl PimConfig {
    /// Cells needed per weight (bit slicing across columns).
    pub fn cells_per_weight(&self) -> u32 {
        self.weight_bits.div_ceil(self.bits_per_cell)
    }

    /// Weight-matrix storage capacity of one crossbar, in weights.
    pub fn weights_per_crossbar(&self) -> u64 {
        let usable_cols = self.crossbar_cols / self.cells_per_weight();
        self.crossbar_rows as u64 * usable_cols as u64
    }

    /// Weight storage capacity of one chiplet/PE, in weights.
    pub fn weights_per_node(&self) -> u64 {
        self.weights_per_crossbar() * self.crossbars_per_node as u64
    }

    /// Crossbars needed for an `rows x cols` weight matrix, tiling both
    /// dimensions (rows over wordlines, bit-sliced weights over bitlines).
    pub fn crossbars_for_matrix(&self, rows: u32, cols: u32) -> u64 {
        if rows == 0 || cols == 0 {
            return 0;
        }
        let row_tiles = rows.div_ceil(self.crossbar_rows) as u64;
        let col_cells = cols as u64 * self.cells_per_weight() as u64;
        let col_tiles = col_cells.div_ceil(self.crossbar_cols as u64);
        row_tiles * col_tiles
    }

    /// Chiplets/PEs needed to hold an `rows x cols` weight matrix.
    pub fn nodes_for_matrix(&self, rows: u32, cols: u32) -> u64 {
        self.crossbars_for_matrix(rows, cols)
            .div_ceil(self.crossbars_per_node as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_per_weight_default() {
        assert_eq!(PimConfig::default().cells_per_weight(), 4);
    }

    #[test]
    fn crossbar_capacity() {
        let cfg = PimConfig::default();
        // 128 rows x (128/4 = 32 weight columns).
        assert_eq!(cfg.weights_per_crossbar(), 128 * 32);
        assert_eq!(cfg.weights_per_node(), 128 * 32 * 96);
    }

    #[test]
    fn matrix_tiling() {
        let cfg = PimConfig::default();
        // A 128x32 weight matrix fits exactly one crossbar.
        assert_eq!(cfg.crossbars_for_matrix(128, 32), 1);
        // One more row doubles the row tiles.
        assert_eq!(cfg.crossbars_for_matrix(129, 32), 2);
        // One more column spills a column tile.
        assert_eq!(cfg.crossbars_for_matrix(128, 33), 2);
        assert_eq!(cfg.crossbars_for_matrix(0, 10), 0);
    }

    #[test]
    fn nodes_round_up() {
        let cfg = PimConfig::default();
        // 97 crossbars -> 2 nodes of 96.
        let rows = 128 * 97;
        assert_eq!(cfg.crossbars_for_matrix(rows, 32), 97);
        assert_eq!(cfg.nodes_for_matrix(rows, 32), 2);
    }
}
