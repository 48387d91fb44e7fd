//! Dataflow styles for PIM inference: which operand stays resident in
//! the memory banks, and therefore which tensors must cross the NoI.
//!
//! The platform's placement assigns each segment's *weights* to chiplets.
//! What travels between chiplets per inference then depends on the
//! [`Dataflow`]:
//!
//! * [`Dataflow::WeightStationary`] — PIM's native mode and the seed
//!   behaviour: weights sit in their ReRAM crossbars and every activation
//!   tensor is spatially sliced and shipped from producer shares to the
//!   aligned consumer shares.
//! * [`Dataflow::OutputStationary`] — the consumer's output accumulators
//!   are pinned next to the producer's data: per aligned share pair the
//!   consumer's weight tile is staged across the NoI *once per batch*
//!   (psums accumulate in the borrowed crossbars) and only the finished
//!   output slice streams back to the consumer's home bank each frame,
//!   so every tensor still ends up where downstream edges expect it.
//!   Re-stationing is applied per pair and only where it beats the tiled
//!   activation path — which is what makes the platform *dataflow-aware*.
//! * [`Dataflow::InputStationary`] — like OS the input slice stays
//!   resident, but *only* the input: with no psum residency in the
//!   borrowed crossbars the weight tile must re-stage every frame,
//!   alongside the per-frame output write-back.
//! * [`Dataflow::FusedLayer`] — in the spirit of PIMfused: consecutive
//!   weighted segments on a single-producer/single-consumer sequential
//!   edge execute as a fused tile pipeline; the intermediate activation
//!   is consumed inside the pipeline and only a halo band
//!   ([`Dataflow::FUSED_HALO_FRACTION`]) crosses the NoI. Edges that are
//!   not fusible ([`SegmentGraph::fusible_edges`]) fall back to the
//!   weight-stationary tiled path.
//!
//! * [`Dataflow::Searched`] — not a fixed mode but a request: resolve a
//!   per-segment loop-nest mapping ([`crate::mapping::Mapping`]) by
//!   deterministic search and use whatever dominates. The hand modes
//!   above are constrained points of that space (see [`crate::mapping`]).
//!
//! The bank-side picture is captured by [`BufferProfile`]: per-MAC buffer
//! reads/writes relative to the weight-stationary baseline, which the
//! `pim` crate folds into per-segment energy.
//!
//! # Examples
//!
//! ```
//! use dnn::Dataflow;
//!
//! // The hand modes: all four, weight-stationary first.
//! let modes = Dataflow::all();
//! assert_eq!(modes[0], Dataflow::WeightStationary);
//! assert_eq!(modes.len(), 4);
//! // The full sweep axis appends the searched-optimal pseudo-mode.
//! let axis = Dataflow::all_with_searched();
//! assert_eq!(axis.len(), 5);
//! assert_eq!(axis[4], Dataflow::Searched);
//!
//! // Weight-stationary is the baseline: unit energy factor.
//! assert_eq!(Dataflow::WeightStationary.mac_energy_factor(), 1.0);
//! // Stationing an operand in the banks only ever saves buffer energy.
//! for df in Dataflow::all() {
//!     assert!(df.mac_energy_factor() <= 1.0 + 1e-12);
//! }
//! assert_eq!("FL".parse::<Dataflow>(), Ok(Dataflow::FusedLayer));
//! assert_eq!("searched".parse::<Dataflow>(), Ok(Dataflow::Searched));
//! ```

use std::fmt;
use std::str::FromStr;

use serde::Serialize;

use crate::segment::SegmentGraph;

/// Which operand stays resident in the PIM banks during inference.
///
/// See the [module documentation](self) for the movement accounting each
/// mode implies.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
pub enum Dataflow {
    /// Weights resident in their crossbars; activations cross the NoI
    /// (the seed tiled scheme — PIM's native mode).
    WeightStationary,
    /// Output accumulators pinned by the producer's data; weight tiles
    /// staged over once per batch, finished output slices streamed back
    /// per frame — where that is cheaper than moving activations.
    OutputStationary,
    /// Input slices pinned at the producer; with no psum residency the
    /// weight tile re-stages and the output streams back every frame.
    InputStationary,
    /// Adjacent fusible segments pipeline their tiles; intermediate
    /// activations stay on-bank and only halo bands cross the NoI.
    FusedLayer,
    /// Searched-optimal: resolve a per-segment loop-nest mapping
    /// ([`crate::mapping::Mapping`]) by deterministic search instead of
    /// fixing one residency policy. Carries no factors of its own — the
    /// platform resolves it to a concrete mapping before costing.
    Searched,
}

/// Relative per-MAC buffer traffic of a dataflow, normalized so the
/// weight-stationary baseline is `(1, 1, 1)`.
///
/// The three components scale the input-register reads, partial-sum
/// writes and weight-feed traffic of the bank peripherals; they combine
/// into an energy multiplier through the fixed per-MAC energy split of
/// [`BufferProfile::energy_factor`].
#[derive(Copy, Clone, PartialEq, Debug, Serialize)]
pub struct BufferProfile {
    /// Input-activation buffer reads per MAC, relative to WS.
    pub input_reads_per_mac: f64,
    /// Partial-sum buffer writes per MAC, relative to WS.
    pub psum_writes_per_mac: f64,
    /// Weight-feed (crossbar staging) operations per MAC, relative to WS.
    pub weight_feeds_per_mac: f64,
}

/// Share of the per-MAC energy spent in the analog MAC array itself
/// (crossbar + ADC); unaffected by the dataflow.
pub const MAC_ARRAY_SHARE: f64 = 0.6;
/// Share of the per-MAC energy spent reading input activations.
pub const INPUT_READ_SHARE: f64 = 0.15;
/// Share of the per-MAC energy spent writing partial sums.
pub const PSUM_WRITE_SHARE: f64 = 0.15;
/// Share of the per-MAC energy spent feeding/staging weights.
pub const WEIGHT_FEED_SHARE: f64 = 0.1;

impl BufferProfile {
    /// Folds the profile into a single per-MAC energy multiplier using
    /// the fixed energy split: the MAC-array share is dataflow-invariant,
    /// the three buffer shares scale with their per-MAC traffic.
    pub fn energy_factor(&self) -> f64 {
        MAC_ARRAY_SHARE
            + INPUT_READ_SHARE * self.input_reads_per_mac
            + PSUM_WRITE_SHARE * self.psum_writes_per_mac
            + WEIGHT_FEED_SHARE * self.weight_feeds_per_mac
    }
}

impl Dataflow {
    /// Fraction of a fused edge's tiled activation bytes that still
    /// crosses the NoI as halo exchange: a two-row halo of a 3×3 kernel
    /// over ~16-row line-buffer tiles.
    pub const FUSED_HALO_FRACTION: f64 = 0.125;

    /// Every hand mode, in sweep order (weight-stationary baseline
    /// first). [`Dataflow::Searched`] is deliberately excluded — it is a
    /// resolution request, not a fixed mode; use
    /// [`Dataflow::all_with_searched`] for the full sweep axis.
    pub fn all() -> [Dataflow; 4] {
        [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
            Dataflow::FusedLayer,
        ]
    }

    /// The full sweep axis: the four hand modes plus the
    /// searched-optimal pseudo-mode.
    pub fn all_with_searched() -> [Dataflow; 5] {
        [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
            Dataflow::FusedLayer,
            Dataflow::Searched,
        ]
    }

    /// Short name used in report rows and figure columns.
    pub fn name(self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
            Dataflow::InputStationary => "IS",
            Dataflow::FusedLayer => "FL",
            Dataflow::Searched => "SRCH",
        }
    }

    /// Human-readable name.
    pub fn long_name(self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "weight-stationary",
            Dataflow::OutputStationary => "output-stationary",
            Dataflow::InputStationary => "input-stationary",
            Dataflow::FusedLayer => "fused-layer",
            Dataflow::Searched => "searched",
        }
    }

    /// Relative per-MAC buffer traffic (see [`BufferProfile`]).
    ///
    /// * WS: the baseline — every MAC reads an input bit-slice, writes a
    ///   partial sum, and amortizes the in-situ weight feed.
    /// * OS: psums accumulate in bank-local registers, quartering the
    ///   psum write-backs that reach the buffer.
    /// * IS: input slices are read once into bank registers and reused
    ///   (quartered reads), but the staged weight tiles add half a feed.
    /// * FL: the intermediate tensor of a fused pair is produced and
    ///   consumed inside the pipeline, halving both the producer's output
    ///   writes and the consumer's input reads.
    ///
    /// # Panics
    ///
    /// Panics on [`Dataflow::Searched`], which has no fixed profile —
    /// the platform resolves it to a [`crate::mapping::Mapping`] (via
    /// `mapper::search`) before any costing.
    pub fn buffer_profile(self) -> BufferProfile {
        match self {
            Dataflow::WeightStationary => BufferProfile {
                input_reads_per_mac: 1.0,
                psum_writes_per_mac: 1.0,
                weight_feeds_per_mac: 1.0,
            },
            Dataflow::OutputStationary => BufferProfile {
                input_reads_per_mac: 1.0,
                psum_writes_per_mac: 0.25,
                weight_feeds_per_mac: 1.0,
            },
            Dataflow::InputStationary => BufferProfile {
                input_reads_per_mac: 0.25,
                psum_writes_per_mac: 1.0,
                weight_feeds_per_mac: 1.5,
            },
            Dataflow::FusedLayer => BufferProfile {
                input_reads_per_mac: 0.5,
                psum_writes_per_mac: 0.5,
                weight_feeds_per_mac: 1.0,
            },
            Dataflow::Searched => panic!(
                "Dataflow::Searched has no fixed buffer profile; resolve it to a \
                 dnn::mapping::Mapping via mapper::search before costing"
            ),
        }
    }

    /// Per-MAC compute-energy multiplier relative to the WS baseline.
    ///
    /// These are the [`BufferProfile::energy_factor`] values written out
    /// as exact literals so the weight-stationary baseline multiplies by
    /// exactly `1.0` (bit-identical to the pre-dataflow cost model);
    /// `profile_factors_match_literals` pins the correspondence.
    ///
    /// # Panics
    ///
    /// Panics on [`Dataflow::Searched`] — see
    /// [`Dataflow::buffer_profile`].
    pub fn mac_energy_factor(self) -> f64 {
        match self {
            // 0.6 + 0.15*1 + 0.15*1 + 0.1*1
            Dataflow::WeightStationary => 1.0,
            // 0.6 + 0.15*1 + 0.15*0.25 + 0.1*1
            Dataflow::OutputStationary => 0.8875,
            // 0.6 + 0.15*0.25 + 0.15*1 + 0.1*1.5
            Dataflow::InputStationary => 0.9375,
            // 0.6 + 0.15*0.5 + 0.15*0.5 + 0.1*1
            Dataflow::FusedLayer => 0.85,
            Dataflow::Searched => panic!(
                "Dataflow::Searched has no fixed energy factor; resolve it to a \
                 dnn::mapping::Mapping via mapper::search before costing"
            ),
        }
    }

    /// Per-segment latency multiplier relative to the WS baseline.
    ///
    /// Only input-stationary pays a penalty: staging the consumer's
    /// weight tiles through the peripheral bus stalls the crossbar
    /// between output tiles. OS accumulates in place and FL overlaps the
    /// halo exchange with compute.
    ///
    /// # Panics
    ///
    /// Panics on [`Dataflow::Searched`] — see
    /// [`Dataflow::buffer_profile`].
    pub fn latency_factor(self) -> f64 {
        match self {
            Dataflow::InputStationary => 1.1,
            Dataflow::Searched => panic!(
                "Dataflow::Searched has no fixed latency factor; resolve it to a \
                 dnn::mapping::Mapping via mapper::search before costing"
            ),
            _ => 1.0,
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a dataflow name cannot be parsed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ParseDataflowError;

impl fmt::Display for ParseDataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown dataflow (expected WS, OS, IS, FL or searched)")
    }
}

impl std::error::Error for ParseDataflowError {}

impl FromStr for Dataflow {
    type Err = ParseDataflowError;

    /// Parses a short (`"WS"`, `"SRCH"`) or long (`"weight-stationary"`,
    /// `"searched"`) name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dataflow::all_with_searched()
            .into_iter()
            .find(|d| s.eq_ignore_ascii_case(d.name()) || s.eq_ignore_ascii_case(d.long_name()))
            .ok_or(ParseDataflowError)
    }
}

impl SegmentGraph {
    /// Which edges a [`Dataflow::FusedLayer`] pipeline can elide, aligned
    /// with [`SegmentGraph::edges`].
    ///
    /// An edge is fusible when it is the *only* connection between two
    /// adjacent weighted segments: a sequential edge whose producer has
    /// no other consumer and whose consumer has no other producer, with
    /// both sides weight-bearing. Skip and dense edges, fan-out (the
    /// producer's tensor is also needed elsewhere) and fan-in (the
    /// consumer joins tensors) all force the intermediate activation to
    /// materialize and travel.
    pub fn fusible_edges(&self) -> Vec<bool> {
        let n = self.segment_count();
        let mut out_degree = vec![0u32; n];
        let mut in_degree = vec![0u32; n];
        for e in self.edges() {
            out_degree[e.src.index()] += 1;
            in_degree[e.dst.index()] += 1;
        }
        self.edges()
            .iter()
            .map(|e| {
                e.kind == crate::graph::EdgeKind::Sequential
                    && self.segment(e.src).params > 0
                    && self.segment(e.dst).params > 0
                    && out_degree[e.src.index()] == 1
                    && in_degree[e.dst.index()] == 1
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{resnet18, vgg11};
    use crate::shapes::Dataset;
    use crate::zoo::{build_model, ModelKind};

    #[test]
    fn profile_factors_match_literals() {
        for df in Dataflow::all() {
            let derived = df.buffer_profile().energy_factor();
            assert!(
                (derived - df.mac_energy_factor()).abs() < 1e-12,
                "{df}: literal {} vs derived {derived}",
                df.mac_energy_factor()
            );
        }
        assert_eq!(Dataflow::WeightStationary.mac_energy_factor(), 1.0);
        assert_eq!(Dataflow::WeightStationary.latency_factor(), 1.0);
    }

    #[test]
    fn names_round_trip() {
        for df in Dataflow::all_with_searched() {
            assert_eq!(df.name().parse::<Dataflow>(), Ok(df));
            assert_eq!(df.long_name().parse::<Dataflow>(), Ok(df));
            assert_eq!(df.name().to_lowercase().parse::<Dataflow>(), Ok(df));
        }
        assert!("systolic".parse::<Dataflow>().is_err());
    }

    #[test]
    fn the_searched_axis_appends_to_the_hand_modes() {
        let hand = Dataflow::all();
        let full = Dataflow::all_with_searched();
        assert_eq!(&full[..4], &hand[..]);
        assert_eq!(full[4], Dataflow::Searched);
        assert_eq!(Dataflow::Searched.name(), "SRCH");
        assert_eq!(Dataflow::Searched.long_name(), "searched");
    }

    #[test]
    #[should_panic(expected = "no fixed energy factor")]
    fn searched_has_no_fixed_factors() {
        let _ = Dataflow::Searched.mac_energy_factor();
    }

    #[test]
    fn vgg_chain_is_fully_fusible_after_the_input() {
        // VGG compresses to a pure conv/fc chain: every edge except the
        // parameter-free input's is fusible.
        let g = vgg11(Dataset::Cifar10).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let fusible = sg.fusible_edges();
        assert_eq!(fusible.len(), sg.edges().len());
        for (e, f) in sg.edges().iter().zip(&fusible) {
            let expect = sg.segment(e.src).params > 0;
            assert_eq!(*f, expect, "edge {:?}->{:?}", e.src, e.dst);
        }
        assert!(fusible.iter().filter(|&&f| f).count() >= 8);
    }

    #[test]
    fn resnet_skip_paths_block_fusion() {
        let g = resnet18(Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let fusible = sg.fusible_edges();
        for (e, f) in sg.edges().iter().zip(&fusible) {
            if e.kind != crate::graph::EdgeKind::Sequential {
                assert!(!f, "non-sequential edge {:?}->{:?} fused", e.src, e.dst);
            }
        }
        // Residual fan-out/fan-in leaves strictly fewer fusible edges
        // than total, but the stem and non-branching links still fuse.
        let count = fusible.iter().filter(|&&f| f).count();
        assert!(count > 0, "resnet18 has some fusible links");
        assert!(count < sg.edges().len());
    }

    #[test]
    fn dense_blocks_do_not_fuse_into_their_concatenations() {
        let g = build_model(ModelKind::DenseNet169, Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let fusible = sg.fusible_edges();
        for (e, f) in sg.edges().iter().zip(&fusible) {
            if *f {
                assert_eq!(e.kind, crate::graph::EdgeKind::Sequential);
            }
        }
    }
}
