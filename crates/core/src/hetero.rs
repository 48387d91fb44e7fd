//! Section IV: heterogeneous chiplet integration for end-to-end
//! Transformers.
//!
//! Self-attention recomputes its operand matrices for every input, which
//! an NVM crossbar would have to absorb as cell *writes* — millions per
//! inference against a 10⁶-cycle endurance. The feed-forward and
//! projection kernels, in contrast, are static and map perfectly onto the
//! SFC-connected PIM chiplets. This module quantifies the three design
//! points the paper discusses:
//!
//! * **all-PIM** — everything in ReRAM: best static-kernel efficiency but
//!   attention write traffic destroys the device in hours;
//! * **all-digital** — SRAM/MAC chiplets everywhere: no endurance limit
//!   but each static MAC costs several times the crossbar MAC;
//! * **heterogeneous** — static kernels on a PIM SFC macro, attention on
//!   digital chiplets spliced into the curve next to their encoder block.

use dnn::BertConfig;
use pim::PimConfig;
use serde::Serialize;
use topology::HwParams;

/// Configuration of the heterogeneous transformer platform study.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct HeteroConfig {
    /// The transformer under study.
    pub bert: BertConfig,
    /// Sequence length per inference.
    pub seq: u32,
    /// PIM chiplet model (static kernels).
    pub pim: PimConfig,
    /// Interconnect model for the PIM-digital transfers.
    pub hw: HwParams,
    /// Energy of one 8-bit MAC on a digital chiplet (systolic array +
    /// SRAM operand fetch), pJ. Several times the crossbar MAC.
    pub digital_mac_pj: f64,
    /// MACs one digital chiplet retires per cycle (e.g. a 64x64 array).
    pub digital_macs_per_cycle: u64,
    /// Digital chiplet clock, GHz.
    pub digital_clock_ghz: f64,
    /// Bytes per activation element on the NoI.
    pub activation_bytes: u64,
}

impl Default for HeteroConfig {
    fn default() -> Self {
        HeteroConfig {
            bert: BertConfig::base(),
            seq: 512,
            pim: PimConfig::default(),
            hw: HwParams::default(),
            digital_mac_pj: 3.2,
            digital_macs_per_cycle: 4096,
            digital_clock_ghz: 1.0,
            activation_bytes: 1,
        }
    }
}

/// Which platform organization is evaluated.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub enum TransformerPlatform {
    /// Everything on ReRAM crossbars (including attention intermediates).
    AllPim,
    /// Everything on digital SRAM/MAC chiplets.
    AllDigital,
    /// Static kernels on PIM, attention on digital chiplets (Section IV).
    Heterogeneous,
}

impl std::fmt::Display for TransformerPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TransformerPlatform::AllPim => "all-PIM",
            TransformerPlatform::AllDigital => "all-digital",
            TransformerPlatform::Heterogeneous => "heterogeneous",
        };
        f.write_str(s)
    }
}

/// Evaluation of one platform organization on one transformer inference.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TransformerEval {
    /// Platform organization.
    pub platform: TransformerPlatform,
    /// Latency of one inference, ns.
    pub latency_ns: f64,
    /// Energy of one inference, pJ.
    pub energy_pj: f64,
    /// PIM chiplets needed (weight storage).
    pub pim_chiplets: u64,
    /// Digital chiplets needed (attention throughput).
    pub digital_chiplets: u64,
    /// ReRAM cell writes per inference.
    pub crossbar_writes: u64,
    /// Inferences until endurance exhaustion (`u64::MAX` if no NVM
    /// writes occur).
    pub lifetime_inferences: u64,
    /// Inter-chiplet traffic per inference, bytes.
    pub noi_bytes: u64,
}

impl TransformerEval {
    /// Whether the platform can serve a datacenter lifetime (arbitrarily:
    /// at least one billion inferences before wear-out).
    pub fn sustainable(&self) -> bool {
        self.lifetime_inferences >= 1_000_000_000
    }
}

/// Static-kernel MACs per layer: QKV + output projections and the two FF
/// matrices, for a sequence of `seq` tokens.
fn static_macs_per_layer(bert: &BertConfig, seq: u32) -> u64 {
    let s = seq as u64;
    let h = bert.hidden as u64;
    let f = bert.ff as u64;
    s * (4 * h * h + 2 * h * f)
}

/// Dynamic (attention) MACs per layer: QK^T scores and scores x V.
fn dynamic_macs_per_layer(bert: &BertConfig, seq: u32) -> u64 {
    let s = seq as u64;
    let h = bert.hidden as u64;
    2 * s * s * h
}

/// Latency of `macs` on PIM crossbars holding an `rows x cols` matrix:
/// bit-serial input streaming, row/column tiles in parallel.
fn pim_latency_ns(macs: u64, rows: u32, cols: u32, pim: &PimConfig) -> f64 {
    let weights = rows as u64 * cols as u64;
    if weights == 0 {
        return 0.0;
    }
    let mvms = (macs / weights).max(1);
    mvms as f64 * pim.activation_bits as f64 * pim.read_ns
}

/// Latency of `macs` on `chiplets` digital chiplets, ns.
fn digital_latency_ns(macs: u64, chiplets: u64, cfg: &HeteroConfig) -> f64 {
    let rate = chiplets.max(1) as f64 * cfg.digital_macs_per_cycle as f64 * cfg.digital_clock_ghz;
    macs as f64 / rate
}

/// Evaluates one platform organization.
pub fn evaluate_transformer(platform: TransformerPlatform, cfg: &HeteroConfig) -> TransformerEval {
    let bert = &cfg.bert;
    let layers = bert.layers as u64;
    let s = cfg.seq as u64;
    let h = bert.hidden as u64;
    let static_macs = layers * static_macs_per_layer(bert, cfg.seq);
    let dynamic_macs = layers * dynamic_macs_per_layer(bert, cfg.seq);

    // PIM chiplets to hold the static weights.
    let static_weights = layers * (bert.weights_per_layer());
    let pim_chiplets_needed = static_weights.div_ceil(cfg.pim.weights_per_node());

    // Per-layer static latency: the widest matrix (FF1: H x F) dominates;
    // layers pipeline, so one inference pass costs the sum over kernels.
    let per_layer_static_ns = pim_latency_ns(
        static_macs_per_layer(bert, cfg.seq),
        bert.hidden,
        bert.hidden + bert.ff,
        &cfg.pim,
    );

    match platform {
        TransformerPlatform::AllPim => {
            // Attention operands must be programmed into crossbars: every
            // intermediate element is a cell write (bit-sliced).
            let writes =
                layers * bert.intermediates_per_layer(cfg.seq) * cfg.pim.cells_per_weight() as u64;
            let write_ns = writes as f64 / (bert.heads as f64) * cfg.pim.write_ns
                / cfg.pim.crossbars_per_node as f64; // head-/array-parallel programming
            let dyn_ns = pim_latency_ns(
                dynamic_macs_per_layer(bert, cfg.seq),
                cfg.seq,
                cfg.seq,
                &cfg.pim,
            );
            let latency_ns = layers as f64 * (per_layer_static_ns + dyn_ns) + write_ns;
            let energy_pj = (static_macs + dynamic_macs) as f64 * cfg.pim.e_mac_pj
                + writes as f64 * cfg.pim.write_energy_pj;
            let lifetime = dnn::lifetime_inferences(
                writes,
                pim_chiplets_needed
                    * cfg.pim.weights_per_node()
                    * cfg.pim.cells_per_weight() as u64,
                cfg.pim.endurance,
            );
            TransformerEval {
                platform,
                latency_ns,
                energy_pj,
                pim_chiplets: pim_chiplets_needed,
                digital_chiplets: 0,
                crossbar_writes: writes,
                lifetime_inferences: lifetime,
                noi_bytes: 0,
            }
        }
        TransformerPlatform::AllDigital => {
            // Match the hetero platform's digital provisioning per layer,
            // plus enough chiplets to stream the static kernels.
            let digital = layers * 2;
            let latency_ns = digital_latency_ns(static_macs + dynamic_macs, digital, cfg);
            let energy_pj = (static_macs + dynamic_macs) as f64 * cfg.digital_mac_pj;
            TransformerEval {
                platform,
                latency_ns,
                energy_pj,
                pim_chiplets: 0,
                digital_chiplets: digital,
                crossbar_writes: 0,
                lifetime_inferences: u64::MAX,
                noi_bytes: 0,
            }
        }
        TransformerPlatform::Heterogeneous => {
            // Static kernels on the PIM SFC macro; one digital chiplet per
            // encoder block handles its attention.
            let digital = layers;
            let dyn_ns = digital_latency_ns(dynamic_macs_per_layer(bert, cfg.seq), 1, cfg);
            // NoI: Q,K,V cross from PIM to the digital chiplet; context
            // comes back — 4*S*H elements per layer, single-hop (the
            // digital chiplet is spliced into the curve next to its block).
            let per_layer_bytes = 4 * s * h * cfg.activation_bytes;
            let noi_bytes = layers * per_layer_bytes;
            let hop_ns = cfg.hw.hop_cycles(1) as f64 * cfg.hw.cycle_ns();
            let per_layer_xfer_ns =
                hop_ns + cfg.hw.serialization_cycles(per_layer_bytes) as f64 * cfg.hw.cycle_ns();
            let latency_ns = layers as f64 * (per_layer_static_ns + dyn_ns + per_layer_xfer_ns);
            let xfer_bits = noi_bytes * 8;
            let energy_pj = static_macs as f64 * cfg.pim.e_mac_pj
                + dynamic_macs as f64 * cfg.digital_mac_pj
                + cfg.hw.hop_energy_pj(xfer_bits, 2, 1);
            TransformerEval {
                platform,
                latency_ns,
                energy_pj,
                pim_chiplets: pim_chiplets_needed,
                digital_chiplets: digital,
                crossbar_writes: 0,
                lifetime_inferences: u64::MAX,
                noi_bytes,
            }
        }
    }
}

/// Evaluates all three organizations.
pub fn transformer_design_points(cfg: &HeteroConfig) -> Vec<TransformerEval> {
    vec![
        evaluate_transformer(TransformerPlatform::AllPim, cfg),
        evaluate_transformer(TransformerPlatform::AllDigital, cfg),
        evaluate_transformer(TransformerPlatform::Heterogeneous, cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HeteroConfig {
        HeteroConfig::default()
    }

    #[test]
    fn all_pim_is_unsustainable() {
        let eval = evaluate_transformer(TransformerPlatform::AllPim, &cfg());
        assert!(eval.crossbar_writes > 0);
        assert!(!eval.sustainable(), "attention writes must wear ReRAM out");
    }

    #[test]
    fn hetero_and_digital_have_no_wearout() {
        for p in [
            TransformerPlatform::AllDigital,
            TransformerPlatform::Heterogeneous,
        ] {
            let eval = evaluate_transformer(p, &cfg());
            assert_eq!(eval.crossbar_writes, 0);
            assert!(eval.sustainable());
        }
    }

    #[test]
    fn hetero_beats_all_digital_on_energy() {
        // Crossbar MACs are cheaper than digital MACs, and static kernels
        // dominate the MAC count at 512 tokens.
        let d = evaluate_transformer(TransformerPlatform::AllDigital, &cfg());
        let het = evaluate_transformer(TransformerPlatform::Heterogeneous, &cfg());
        assert!(
            het.energy_pj < d.energy_pj,
            "hetero {} pJ must beat digital {} pJ",
            het.energy_pj,
            d.energy_pj
        );
    }

    #[test]
    fn hetero_beats_all_pim_on_latency_and_lifetime() {
        let p = evaluate_transformer(TransformerPlatform::AllPim, &cfg());
        let het = evaluate_transformer(TransformerPlatform::Heterogeneous, &cfg());
        assert!(
            het.latency_ns < p.latency_ns,
            "write stalls must hurt all-PIM"
        );
        assert!(het.lifetime_inferences > p.lifetime_inferences);
    }

    #[test]
    fn hetero_noi_traffic_is_accounted() {
        let het = evaluate_transformer(TransformerPlatform::Heterogeneous, &cfg());
        // 12 layers x 4 x 512 x 768 bytes.
        assert_eq!(het.noi_bytes, 12 * 4 * 512 * 768);
        assert_eq!(het.digital_chiplets, 12);
        assert!(het.pim_chiplets > 0);
    }

    #[test]
    fn tiny_needs_fewer_chiplets_than_base() {
        let tiny = HeteroConfig {
            bert: dnn::BertConfig::tiny(),
            seq: 128,
            ..cfg()
        };
        let t = evaluate_transformer(TransformerPlatform::Heterogeneous, &tiny);
        let b = evaluate_transformer(TransformerPlatform::Heterogeneous, &cfg());
        assert!(t.pim_chiplets < b.pim_chiplets);
        assert!(t.digital_chiplets < b.digital_chiplets);
    }

    #[test]
    fn design_points_cover_all_three() {
        let points = transformer_design_points(&cfg());
        assert_eq!(points.len(), 3);
        let platforms: Vec<_> = points.iter().map(|p| p.platform).collect();
        assert!(platforms.contains(&TransformerPlatform::AllPim));
        assert!(platforms.contains(&TransformerPlatform::AllDigital));
        assert!(platforms.contains(&TransformerPlatform::Heterogeneous));
    }
}
