//! Per-segment loop-nest mappings: the representation behind the
//! [`Dataflow`] façade.
//!
//! A segment's anchoring weighted layer is a GEMM `O[M,N] = W[M,K] ×
//! I[K,N]` with `M = weight_cols` (output channels), `K = weight_rows`
//! (unrolled input patch) and `N` the MVM count (output pixels × frames).
//! A [`Mapping`] tiles those three loops across the platform's four
//! memory levels — ReRAM crossbar registers, bank buffer, chiplet SRAM,
//! NoI — and fixes a loop order per level. Which loop runs *innermost*
//! at the register level decides which operand stays resident:
//!
//! * `N` innermost — weights stationary: the crossbar reuses its weight
//!   tile across input vectors (the WS preset, PIM's native mode);
//! * `K` innermost — outputs stationary: partial sums accumulate in the
//!   bank registers across `t_K` reduction steps, so only every `t_K`-th
//!   psum reaches the buffer (the OS preset at `t_K = 4`);
//! * `M` innermost — inputs stationary: an input slice is reused across
//!   `t_M` output columns (quartered reads at `t_M = 4`), but with no
//!   psum residency the weight tile must re-stage per frame (the IS
//!   preset's extra half weight-feed and its crossbar stall).
//!
//! The fused flag models a PIMfused-style pipeline over a fusible edge:
//! the intermediate tensor is produced and consumed inside the pipeline,
//! halving the producer's psum write-backs and the consumer's input
//! reads (the FL preset).
//!
//! Per-level access energies come from the existing [`BufferProfile`]
//! energy split ([`MAC_ARRAY_SHARE`] and friends): folding per-MAC
//! access counts × level shares yields the mapping's energy factor. The
//! four preset constructors *snap* their factors to the legacy
//! [`Dataflow`] literals so the enum path stays byte-identical; derived
//! mappings (what [`Dataflow::Searched`] resolves to) compute the fold
//! directly, which is how register tiles beyond the presets' `t = 4`
//! buy extra energy at the same latency.
//!
//! # Examples
//!
//! ```
//! use dnn::mapping::{Loop, Mapping, NoiPolicy};
//! use dnn::{build_model, Dataset, Dataflow, ModelKind, SegmentGraph};
//!
//! let g = build_model(ModelKind::ResNet18, Dataset::ImageNet)?;
//! let sg = SegmentGraph::from_layer_graph(&g);
//! let seg = &sg.segments()[1];
//!
//! // The WS preset is the legacy enum, byte for byte.
//! let ws = Mapping::weight_stationary(seg);
//! assert_eq!(ws.energy_factor(), Dataflow::WeightStationary.mac_energy_factor());
//! assert_eq!(ws.noi_policy(), NoiPolicy::Tiled);
//!
//! // A derived mapping with a deeper reduction tile beats the OS preset.
//! let deep = Mapping::derived(Loop::K, 16, false, seg);
//! assert!(deep.energy_factor() < Mapping::output_stationary(seg).energy_factor());
//! # Ok::<(), dnn::GraphError>(())
//! ```

use std::fmt;

use serde::Serialize;

use crate::dataflow::{
    BufferProfile, Dataflow, INPUT_READ_SHARE, MAC_ARRAY_SHARE, PSUM_WRITE_SHARE, WEIGHT_FEED_SHARE,
};
use crate::segment::{Segment, SegmentGraph};

/// One of the three GEMM loops of a segment.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
pub enum Loop {
    /// Output channels / features (`weight_cols`).
    M,
    /// Unrolled input patch — the reduction loop (`weight_rows`).
    K,
    /// MVM count: output pixels × frames.
    N,
}

impl Loop {
    /// All loops, in canonical order.
    pub const ALL: [Loop; 3] = [Loop::M, Loop::K, Loop::N];
}

impl fmt::Display for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Loop::M => "M",
            Loop::K => "K",
            Loop::N => "N",
        })
    }
}

/// A memory level of the platform, innermost first.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
pub enum MemLevel {
    /// ReRAM crossbar + its peripheral registers (the register tile).
    Crossbar,
    /// Per-bank activation/psum buffer.
    BankBuffer,
    /// Chiplet-shared SRAM.
    ChipletSram,
    /// The network-on-interposer: tiles at this level cross chiplets.
    Noi,
}

impl MemLevel {
    /// All levels, innermost first.
    pub const ALL: [MemLevel; 4] = [
        MemLevel::Crossbar,
        MemLevel::BankBuffer,
        MemLevel::ChipletSram,
        MemLevel::Noi,
    ];
}

/// Tiling factors and loop order of one memory level.
///
/// The per-level factors multiply across levels to (at least) cover the
/// segment's loop extents; the order lists loops outermost first.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct LevelTiling {
    /// Which level this tiling describes.
    pub level: MemLevel,
    /// Tile factor over the `M` loop.
    pub m: u64,
    /// Tile factor over the `K` loop.
    pub k: u64,
    /// Tile factor over the `N` loop.
    pub n: u64,
    /// Loop order at this level, outermost first.
    pub order: [Loop; 3],
}

impl LevelTiling {
    fn unit(level: MemLevel, order: [Loop; 3]) -> LevelTiling {
        LevelTiling {
            level,
            m: 1,
            k: 1,
            n: 1,
            order,
        }
    }

    /// The factor assigned to `l` at this level.
    pub fn factor(&self, l: Loop) -> u64 {
        match l {
            Loop::M => self.m,
            Loop::K => self.k,
            Loop::N => self.n,
        }
    }
}

/// How a mapping's outermost (NoI) level moves tensors between chiplets —
/// the discrete policy [`crate::Dataflow`] used to select by enum match.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum NoiPolicy {
    /// Spatially-tiled activation shipping (the seed scheme; WS).
    Tiled,
    /// Stage the consumer's weight tile once per batch, stream finished
    /// output slices back per frame where that is cheaper (OS).
    StageOncePerBatch,
    /// Re-stage the weight tile and write the output back every frame
    /// (IS — no psum residency in the borrowed crossbars).
    StagePerFrame,
    /// Fused tile pipeline over fusible edges: only halo bands cross
    /// the NoI; non-fusible edges fall back to [`NoiPolicy::Tiled`] (FL).
    FusedHalo,
}

/// Per-MAC energy contribution of each memory level, derived from the
/// [`BufferProfile`] energy split. Summing the four contributions gives
/// [`Mapping::energy_factor`] for derived mappings.
#[derive(Copy, Clone, PartialEq, Debug, Serialize)]
pub struct LevelEnergy {
    /// The level.
    pub level: MemLevel,
    /// Accesses per MAC charged to this level.
    pub accesses_per_mac: f64,
    /// Energy share per access (the level's slice of the per-MAC split).
    pub energy_share: f64,
}

/// The GEMM loop extents of a segment: `O[M,N] = W[M,K] × I[K,N]`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct LoopExtents {
    /// Output channels (`weight_cols`), at least 1.
    pub m: u64,
    /// Unrolled input patch (`weight_rows`), at least 1.
    pub k: u64,
    /// MVM count (`macs / (m·k)`), at least 1.
    pub n: u64,
}

impl LoopExtents {
    /// Extents of `seg`'s anchoring GEMM (all-1 for the parameter-free
    /// input pseudo-segment).
    pub fn of(seg: &Segment) -> LoopExtents {
        let m = u64::from(seg.weight_cols).max(1);
        let k = u64::from(seg.weight_rows).max(1);
        let n = seg.macs.checked_div(m * k).map_or(1, |v| v.max(1));
        LoopExtents { m, k, n }
    }

    /// The extent of `l`.
    pub fn extent(&self, l: Loop) -> u64 {
        match l {
            Loop::M => self.m,
            Loop::K => self.k,
            Loop::N => self.n,
        }
    }
}

/// Loop order (outermost first) whose innermost loop is `inner`,
/// following the FactorFlow convention: WS = `[M,K,N]`, OS = `[M,N,K]`,
/// IS = `[K,N,M]`.
fn order_for_innermost(inner: Loop) -> [Loop; 3] {
    match inner {
        Loop::N => [Loop::M, Loop::K, Loop::N],
        Loop::K => [Loop::M, Loop::N, Loop::K],
        Loop::M => [Loop::K, Loop::N, Loop::M],
    }
}

/// A per-segment loop-nest mapping: tiling factors and loop order per
/// memory level, the fused-pipeline flag, and the folded per-MAC energy
/// and latency factors the `pim` cost model consumes.
///
/// Construct via the four presets ([`Mapping::weight_stationary`] etc.,
/// byte-identical to the legacy [`Dataflow`] enum factors) or
/// [`Mapping::derived`] (the searchable space).
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct Mapping {
    /// Per-level tilings, innermost ([`MemLevel::Crossbar`]) first.
    pub levels: [LevelTiling; 4],
    /// Whether this segment runs inside a fused tile pipeline.
    pub fused: bool,
    profile: BufferProfile,
    energy_factor: f64,
    latency_factor: f64,
    label: MappingLabel,
}

/// How a mapping was constructed — preset tag or derived parameters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
enum MappingLabel {
    Preset(Dataflow),
    Derived {
        innermost: Loop,
        reg_tile: u64,
        fused: bool,
    },
}

impl Mapping {
    /// Register-tile depth used by the hand presets.
    pub const PRESET_REG_TILE: u64 = 4;

    /// The weight-stationary preset: `N` innermost, unit buffer traffic.
    /// Reproduces the seed tiled scheme byte-for-byte.
    pub fn weight_stationary(seg: &Segment) -> Mapping {
        Mapping::preset(Dataflow::WeightStationary, seg)
    }

    /// The output-stationary preset: `K` innermost, psums accumulate in
    /// bank registers across a 4-deep reduction tile.
    pub fn output_stationary(seg: &Segment) -> Mapping {
        Mapping::preset(Dataflow::OutputStationary, seg)
    }

    /// The input-stationary preset: `M` innermost, input slices reused
    /// across a 4-wide column tile at the cost of per-frame weight
    /// re-staging.
    pub fn input_stationary(seg: &Segment) -> Mapping {
        Mapping::preset(Dataflow::InputStationary, seg)
    }

    /// The fused-layer preset: WS loop nest inside a fused tile pipeline.
    pub fn fused_layer(seg: &Segment) -> Mapping {
        Mapping::preset(Dataflow::FusedLayer, seg)
    }

    /// The preset mapping for a hand dataflow mode.
    ///
    /// The structural loop nest follows the derivation rules of
    /// [`Mapping::derived`], but the energy/latency factors are snapped
    /// to the legacy [`Dataflow::mac_energy_factor`] /
    /// [`Dataflow::latency_factor`] literals so every pre-existing
    /// number stays byte-identical (`Mapping::derived` reproduces them
    /// within 1e-12; the literals are the pinned truth).
    ///
    /// # Panics
    ///
    /// Panics on [`Dataflow::Searched`], which has no preset — resolve
    /// it through `mapper::search` first.
    pub fn preset(df: Dataflow, seg: &Segment) -> Mapping {
        let (innermost, fused) = match df {
            Dataflow::WeightStationary => (Loop::N, false),
            Dataflow::OutputStationary => (Loop::K, false),
            Dataflow::InputStationary => (Loop::M, false),
            Dataflow::FusedLayer => (Loop::N, true),
            Dataflow::Searched => {
                panic!("Dataflow::Searched has no preset mapping; resolve it via mapper::search")
            }
        };
        let mut m = Mapping::derived(innermost, Mapping::PRESET_REG_TILE, fused, seg);
        m.profile = df.buffer_profile();
        m.energy_factor = df.mac_energy_factor();
        m.latency_factor = df.latency_factor();
        m.label = MappingLabel::Preset(df);
        m
    }

    /// A derived mapping: `innermost` loop at the register level with a
    /// `reg_tile`-deep register tile (clamped to the loop extent), inside
    /// a fused pipeline when `fused`.
    ///
    /// Buffer traffic follows from residency:
    ///
    /// * inputs stationary (`M` innermost): input reads drop to
    ///   `1/t_M`, but weight tiles re-stage per frame (+0.5 feeds) and
    ///   the re-staging stalls the crossbar
    ///   (latency `1 + 0.2·(feeds − 1)`);
    /// * outputs stationary (`K` innermost): psum write-backs drop to
    ///   `1/t_K`;
    /// * weights stationary (`N` innermost): the baseline — the tile
    ///   only widens weight reuse the crossbar already has;
    /// * `fused` halves input reads and psum writes (the intermediate
    ///   tensor lives inside the pipeline).
    ///
    /// Energy is the [`BufferProfile::energy_factor`] fold of the
    /// resulting per-MAC access counts.
    pub fn derived(innermost: Loop, reg_tile: u64, fused: bool, seg: &Segment) -> Mapping {
        let ext = LoopExtents::of(seg);
        let order = order_for_innermost(innermost);
        let t = reg_tile.clamp(1, ext.extent(innermost).max(1));

        let mut crossbar = LevelTiling::unit(MemLevel::Crossbar, order);
        match innermost {
            Loop::M => crossbar.m = t,
            Loop::K => crossbar.k = t,
            Loop::N => crossbar.n = t,
        }
        let noi = LevelTiling {
            level: MemLevel::Noi,
            m: ext.m.div_ceil(crossbar.m),
            k: ext.k.div_ceil(crossbar.k),
            n: ext.n.div_ceil(crossbar.n),
            order,
        };
        let levels = [
            crossbar,
            LevelTiling::unit(MemLevel::BankBuffer, order),
            LevelTiling::unit(MemLevel::ChipletSram, order),
            noi,
        ];

        let mut input_reads = if innermost == Loop::M {
            1.0 / t as f64
        } else {
            1.0
        };
        let mut psum_writes = if innermost == Loop::K {
            1.0 / t as f64
        } else {
            1.0
        };
        let weight_feeds = if innermost == Loop::M { 1.5 } else { 1.0 };
        if fused {
            input_reads *= 0.5;
            psum_writes *= 0.5;
        }
        let profile = BufferProfile {
            input_reads_per_mac: input_reads,
            psum_writes_per_mac: psum_writes,
            weight_feeds_per_mac: weight_feeds,
        };
        Mapping {
            levels,
            fused,
            profile,
            energy_factor: profile.energy_factor(),
            latency_factor: 1.0 + 0.2 * (weight_feeds - 1.0),
            label: MappingLabel::Derived {
                innermost,
                reg_tile: t,
                fused,
            },
        }
    }

    /// The innermost (register-level) loop.
    pub fn innermost(&self) -> Loop {
        self.levels[0].order[2]
    }

    /// Per-MAC buffer traffic implied by the loop nest.
    pub fn buffer_profile(&self) -> BufferProfile {
        self.profile
    }

    /// Per-MAC compute-energy multiplier (the per-level fold; legacy
    /// literal for presets).
    pub fn energy_factor(&self) -> f64 {
        self.energy_factor
    }

    /// Per-segment latency multiplier (weight re-staging stalls).
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Per-level access-energy breakdown: accesses/MAC × energy share
    /// per level. The crossbar carries the dataflow-invariant MAC-array
    /// share; buffer and SRAM levels scale with the profile. The four
    /// contributions sum to [`BufferProfile::energy_factor`] of this
    /// mapping's profile.
    pub fn level_energies(&self) -> [LevelEnergy; 4] {
        [
            LevelEnergy {
                level: MemLevel::Crossbar,
                accesses_per_mac: 1.0,
                energy_share: MAC_ARRAY_SHARE,
            },
            LevelEnergy {
                level: MemLevel::BankBuffer,
                accesses_per_mac: self.profile.input_reads_per_mac,
                energy_share: INPUT_READ_SHARE,
            },
            LevelEnergy {
                level: MemLevel::BankBuffer,
                accesses_per_mac: self.profile.psum_writes_per_mac,
                energy_share: PSUM_WRITE_SHARE,
            },
            LevelEnergy {
                level: MemLevel::ChipletSram,
                accesses_per_mac: self.profile.weight_feeds_per_mac,
                energy_share: WEIGHT_FEED_SHARE,
            },
        ]
    }

    /// The NoI movement policy implied by the outermost level: fused
    /// pipelines exchange halos; otherwise the innermost residency
    /// decides what is staged across chiplets.
    pub fn noi_policy(&self) -> NoiPolicy {
        if self.fused {
            NoiPolicy::FusedHalo
        } else {
            match self.innermost() {
                Loop::N => NoiPolicy::Tiled,
                Loop::K => NoiPolicy::StageOncePerBatch,
                Loop::M => NoiPolicy::StagePerFrame,
            }
        }
    }

    /// Short human-readable descriptor, e.g. `WS` or `K8` / `K8+f`.
    pub fn describe(&self) -> String {
        match self.label {
            MappingLabel::Preset(df) => df.name().to_string(),
            MappingLabel::Derived {
                innermost,
                reg_tile,
                fused,
            } => {
                if fused {
                    format!("{innermost}{reg_tile}+f")
                } else {
                    format!("{innermost}{reg_tile}")
                }
            }
        }
    }
}

impl Dataflow {
    /// The NoI movement policy of this mode's preset mapping — what the
    /// transfer expansion used to select by matching on the enum.
    ///
    /// # Panics
    ///
    /// Panics on [`Dataflow::Searched`]: the policy then depends on the
    /// resolved per-segment mapping ([`Mapping::noi_policy`]).
    pub fn noi_policy(self) -> NoiPolicy {
        match self {
            Dataflow::WeightStationary => NoiPolicy::Tiled,
            Dataflow::OutputStationary => NoiPolicy::StageOncePerBatch,
            Dataflow::InputStationary => NoiPolicy::StagePerFrame,
            Dataflow::FusedLayer => NoiPolicy::FusedHalo,
            Dataflow::Searched => panic!(
                "Dataflow::Searched has no single NoI policy; resolve it to a \
                 dnn::mapping::ModelMapping via mapper::search first"
            ),
        }
    }
}

/// A whole-model mapping: one [`Mapping`] per segment, in segment order.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct ModelMapping {
    model: String,
    label: String,
    per_segment: Vec<Mapping>,
}

impl ModelMapping {
    /// Wraps explicit per-segment mappings (one per segment of `sg`, in
    /// segment order) under a display label.
    ///
    /// # Panics
    ///
    /// Panics when `per_segment.len()` does not match the segment count.
    pub fn from_mappings(
        sg: &SegmentGraph,
        label: &str,
        per_segment: Vec<Mapping>,
    ) -> ModelMapping {
        assert_eq!(
            per_segment.len(),
            sg.segment_count(),
            "one mapping per segment"
        );
        ModelMapping {
            model: sg.name().to_string(),
            label: label.to_string(),
            per_segment,
        }
    }

    /// The uniform preset mapping for a hand dataflow mode.
    ///
    /// # Panics
    ///
    /// Panics on [`Dataflow::Searched`] (see [`Mapping::preset`]).
    pub fn preset(df: Dataflow, sg: &SegmentGraph) -> ModelMapping {
        ModelMapping {
            model: sg.name().to_string(),
            label: df.name().to_string(),
            per_segment: sg
                .segments()
                .iter()
                .map(|seg| Mapping::preset(df, seg))
                .collect(),
        }
    }

    /// Model name this mapping was built for.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Display label (`WS`…`FL` for presets, search descriptor otherwise).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Per-segment mappings, in segment order.
    pub fn mappings(&self) -> &[Mapping] {
        &self.per_segment
    }

    /// The mapping of segment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn segment(&self, idx: usize) -> &Mapping {
        &self.per_segment[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::resnet18;
    use crate::shapes::Dataset;

    fn segments() -> SegmentGraph {
        SegmentGraph::from_layer_graph(&resnet18(Dataset::ImageNet).unwrap())
    }

    #[test]
    fn presets_snap_to_the_legacy_literals() {
        let sg = segments();
        for df in Dataflow::all() {
            for seg in sg.segments() {
                let m = Mapping::preset(df, seg);
                // Bit-exact: the enum façade and the mapping engine must
                // produce the same doubles.
                assert_eq!(m.energy_factor(), df.mac_energy_factor(), "{df}");
                assert_eq!(m.latency_factor(), df.latency_factor(), "{df}");
                assert_eq!(m.buffer_profile(), df.buffer_profile(), "{df}");
                assert_eq!(m.describe(), df.name());
            }
        }
    }

    #[test]
    fn derived_rules_reproduce_the_presets() {
        let sg = segments();
        let seg = &sg.segments()[1];
        for (df, inner, fused) in [
            (Dataflow::WeightStationary, Loop::N, false),
            (Dataflow::OutputStationary, Loop::K, false),
            (Dataflow::InputStationary, Loop::M, false),
            (Dataflow::FusedLayer, Loop::N, true),
        ] {
            let d = Mapping::derived(inner, Mapping::PRESET_REG_TILE, fused, seg);
            assert!(
                (d.energy_factor() - df.mac_energy_factor()).abs() < 1e-12,
                "{df}: derived {} vs literal {}",
                d.energy_factor(),
                df.mac_energy_factor()
            );
            // The latency rule lands exactly on the IS literal.
            assert_eq!(d.latency_factor(), df.latency_factor(), "{df}");
        }
    }

    #[test]
    fn noi_policy_follows_residency() {
        let sg = segments();
        let seg = &sg.segments()[1];
        assert_eq!(
            Mapping::weight_stationary(seg).noi_policy(),
            NoiPolicy::Tiled
        );
        assert_eq!(
            Mapping::output_stationary(seg).noi_policy(),
            NoiPolicy::StageOncePerBatch
        );
        assert_eq!(
            Mapping::input_stationary(seg).noi_policy(),
            NoiPolicy::StagePerFrame
        );
        assert_eq!(Mapping::fused_layer(seg).noi_policy(), NoiPolicy::FusedHalo);
        assert_eq!(
            Mapping::derived(Loop::K, 8, false, seg).noi_policy(),
            NoiPolicy::StageOncePerBatch
        );
    }

    #[test]
    fn level_energies_sum_to_the_profile_fold() {
        let sg = segments();
        let seg = &sg.segments()[1];
        for m in [
            Mapping::weight_stationary(seg),
            Mapping::derived(Loop::K, 16, false, seg),
            Mapping::derived(Loop::M, 8, true, seg),
        ] {
            let sum: f64 = m
                .level_energies()
                .iter()
                .map(|le| le.accesses_per_mac * le.energy_share)
                .sum();
            assert!(
                (sum - m.buffer_profile().energy_factor()).abs() < 1e-12,
                "{}: {sum}",
                m.describe()
            );
        }
    }

    #[test]
    fn tiles_cover_the_loop_extents() {
        let sg = segments();
        for seg in sg.segments() {
            let ext = LoopExtents::of(seg);
            for m in [
                Mapping::weight_stationary(seg),
                Mapping::derived(Loop::K, 16, false, seg),
                Mapping::derived(Loop::M, 32, false, seg),
            ] {
                for l in Loop::ALL {
                    let product: u64 = m.levels.iter().map(|lt| lt.factor(l)).product();
                    assert!(
                        product >= ext.extent(l),
                        "{}: loop {l} product {product} < extent {}",
                        m.describe(),
                        ext.extent(l)
                    );
                }
            }
        }
    }

    #[test]
    fn deeper_register_tiles_monotonically_cut_energy() {
        let sg = segments();
        let seg = &sg.segments()[1];
        let mut last = f64::INFINITY;
        for t in [2u64, 4, 8, 16] {
            let e = Mapping::derived(Loop::K, t, false, seg).energy_factor();
            assert!(e < last, "t={t}: {e} vs {last}");
            last = e;
        }
        // And never below the dataflow-invariant floor.
        assert!(last > MAC_ARRAY_SHARE);
    }

    #[test]
    fn register_tile_clamps_to_the_extent() {
        let sg = segments();
        let seg = &sg.segments()[1];
        let huge = Mapping::derived(Loop::K, 1 << 40, false, seg);
        let ext = LoopExtents::of(seg);
        assert_eq!(huge.levels[0].k, ext.k);
        assert_eq!(huge.levels[3].k, 1);
    }
}
