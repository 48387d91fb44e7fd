//! Deterministic per-layer mapping search over the loop-nest space of
//! [`dnn::mapping`].
//!
//! For every segment the search enumerates divisor-based register-tile
//! factors × innermost-loop choices × the fused-pipeline flag, prunes
//! candidates that are Pareto-dominated on (energy, latency) — the model
//! objective `(Σ energy)·(Σ latency)` is strictly increasing in both
//! partial sums, so a dominated candidate can never appear in an optimal
//! assignment — and then runs a fixed-width beam over the segment
//! sequence to minimize whole-model compute energy×latency
//! ([`search_model`]).
//!
//! Everything is deterministic: candidate order is fixed, ties break on
//! the lower candidate index, and no randomness is consumed. The same
//! space is also exposed to the stochastic `opt` solvers (NSGA-II / SA)
//! through [`MappingProblem`], an [`opt::Problem`] whose solutions are
//! per-segment candidate indices.

use dnn::mapping::Loop;
use dnn::{Mapping, ModelMapping, Segment, SegmentGraph};
use opt::Problem;
use pim::{segment_cost_mapped, PimConfig};
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Tuning knobs of the deterministic search.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SearchOptions {
    /// Deepest register tile considered (candidate tiles are the
    /// divisor-friendly factors `1, 2, 4, …` up to this cap, clamped to
    /// each loop extent).
    pub max_reg_tile: u64,
    /// Beam width of the whole-model pass: partial assignments kept per
    /// segment step.
    pub beam_width: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_reg_tile: 16,
            beam_width: 8,
        }
    }
}

/// Result of [`search_model`]: the winning mapping plus a search-effort
/// counter (candidates costed, the same on every run).
#[derive(Clone, Debug, PartialEq)]
pub struct SearchOutcome {
    /// The searched per-segment mapping.
    pub mapping: ModelMapping,
    /// Candidate mappings costed across all segments (pre-pruning).
    pub candidates_costed: u64,
    /// Model compute energy under the winning mapping, pJ.
    pub energy_pj: f64,
    /// Model compute latency under the winning mapping, ns.
    pub latency_ns: f64,
}

/// One per-segment candidate: the mapping and its segment cost.
#[derive(Clone, Debug)]
struct Candidate {
    mapping: Mapping,
    energy_pj: f64,
    latency_ns: f64,
}

/// Divisor-based register-tile candidates for `extent`: every
/// power-of-two step up to `cap` plus every exact divisor of the extent
/// in range, sorted and deduplicated. Always contains 1.
fn tile_candidates(extent: u64, cap: u64) -> Vec<u64> {
    let cap = cap.min(extent).max(1);
    let mut out: Vec<u64> = Vec::new();
    let mut t = 1u64;
    while t <= cap {
        out.push(t);
        t *= 2;
    }
    for d in 2..=cap {
        if extent % d == 0 {
            out.push(d);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Enumerates, costs and Pareto-prunes the candidate mappings of one
/// segment. `fusible` states whether the segment sits on a fusible edge
/// (only then are fused-pipeline variants legal). The four hand presets
/// are always in the pool, so the searched optimum can never lose to a
/// hand mode on segment compute cost. Returns the surviving candidates
/// in deterministic enumeration order plus the number costed.
fn segment_candidates(
    seg: &Segment,
    cfg: &PimConfig,
    opts: &SearchOptions,
    fusible: bool,
) -> (Vec<Candidate>, u64) {
    let ext = dnn::mapping::LoopExtents::of(seg);
    let mut pool: Vec<Mapping> = Vec::new();
    // Hand presets first: they anchor the space (and the tie-break, so
    // a searched mapping only replaces a preset when strictly better).
    pool.push(Mapping::weight_stationary(seg));
    pool.push(Mapping::output_stationary(seg));
    pool.push(Mapping::input_stationary(seg));
    if fusible {
        pool.push(Mapping::fused_layer(seg));
    }
    // The open space: innermost loop × register tile × fused flag.
    for inner in [Loop::N, Loop::K, Loop::M] {
        for &t in &tile_candidates(ext.extent(inner), opts.max_reg_tile) {
            for fused in [false, true] {
                if fused && !fusible {
                    continue;
                }
                pool.push(Mapping::derived(inner, t, fused, seg));
            }
        }
    }

    let costed = pool.len() as u64;
    let mut cands: Vec<Candidate> = pool
        .into_iter()
        .map(|mapping| {
            let c = segment_cost_mapped(seg, cfg, &mapping);
            Candidate {
                mapping,
                energy_pj: c.energy_pj,
                latency_ns: c.latency_ns,
            }
        })
        .collect();

    // Branch-and-bound style pruning: drop candidates Pareto-dominated
    // on (energy, latency) — they cannot participate in any optimal
    // whole-model assignment — and exact duplicates (first wins, which
    // keeps the preset on ties).
    let mut keep: Vec<Candidate> = Vec::new();
    'outer: for (i, c) in cands.iter().enumerate() {
        for (j, o) in cands.iter().enumerate() {
            let dominated =
                opt::dominates(&[o.energy_pj, o.latency_ns], &[c.energy_pj, c.latency_ns]);
            let duplicate = j < i && o.energy_pj == c.energy_pj && o.latency_ns == c.latency_ns;
            if dominated || duplicate {
                continue 'outer;
            }
        }
        keep.push(c.clone());
    }
    cands = keep;
    (cands, costed)
}

/// One beam state: per-segment candidate indices chosen so far and the
/// running cost sums.
#[derive(Clone, Debug)]
struct BeamState {
    choice: Vec<usize>,
    energy_pj: f64,
    latency_ns: f64,
}

/// Searches a whole-model mapping minimizing compute energy×latency:
/// deterministic beam over the segment sequence with Pareto-pruned
/// per-segment candidates (see the module docs).
///
/// The search never consumes randomness; equal scores resolve to the
/// earlier enumeration index, so repeated calls — from any thread —
/// return bit-identical mappings.
pub fn search_model(sg: &SegmentGraph, cfg: &PimConfig, opts: &SearchOptions) -> SearchOutcome {
    let (per_segment, costed) = candidate_table(sg, cfg, opts);
    let beam_width = opts.beam_width.max(1);

    let mut beam = vec![BeamState {
        choice: Vec::with_capacity(sg.segment_count()),
        energy_pj: 0.0,
        latency_ns: 0.0,
    }];
    for cands in &per_segment {
        let mut next: Vec<BeamState> = Vec::with_capacity(beam.len() * cands.len());
        for state in &beam {
            for (ci, c) in cands.iter().enumerate() {
                let mut choice = state.choice.clone();
                choice.push(ci);
                next.push(BeamState {
                    choice,
                    energy_pj: state.energy_pj + c.energy_pj,
                    latency_ns: state.latency_ns + c.latency_ns,
                });
            }
        }
        // Keep the `beam_width` best partial products. The sort is
        // total: EDP first, then the choice vector (unique per state),
        // so equal-scoring states order deterministically.
        next.sort_by(|a, b| {
            let ea = a.energy_pj * a.latency_ns;
            let eb = b.energy_pj * b.latency_ns;
            ea.partial_cmp(&eb)
                .expect("finite costs")
                .then_with(|| a.choice.cmp(&b.choice))
        });
        next.truncate(beam_width);
        beam = next;
    }

    let best = beam.into_iter().next().expect("non-empty beam");
    let mapping = ModelMapping::from_mappings(
        sg,
        "searched",
        best.choice
            .iter()
            .zip(&per_segment)
            .map(|(&ci, cands)| cands[ci].mapping.clone())
            .collect(),
    );
    let mut out = SearchOutcome {
        mapping,
        candidates_costed: costed,
        energy_pj: best.energy_pj,
        latency_ns: best.latency_ns,
    };

    // Anchor against the four uniform hand presets at the model level.
    // The per-segment pools restrict fused variants to genuinely fusible
    // segments, while the legacy FL mode discounts every segment — so
    // the presets are whole-model candidates too, which is also what
    // guarantees searched ≤ best hand mode by construction. The beam
    // result wins ties (strict inequality), keeping the preference for
    // structurally legal mappings.
    for df in dnn::Dataflow::all() {
        let preset = ModelMapping::preset(df, sg);
        let c = pim::model_cost_mapped(sg, cfg, &preset);
        out.candidates_costed += sg.segment_count() as u64;
        if c.energy_pj * c.latency_ns < out.energy_pj * out.latency_ns {
            out = SearchOutcome {
                mapping: ModelMapping::from_mappings(sg, "searched", preset.mappings().to_vec()),
                candidates_costed: out.candidates_costed,
                energy_pj: c.energy_pj,
                latency_ns: c.latency_ns,
            };
        }
    }
    out
}

/// Builds the Pareto-pruned candidate table for every segment. A segment
/// may use fused variants when any incident edge is fusible.
fn candidate_table(
    sg: &SegmentGraph,
    cfg: &PimConfig,
    opts: &SearchOptions,
) -> (Vec<Vec<Candidate>>, u64) {
    let fusible_edges = sg.fusible_edges();
    let mut fusible_seg = vec![false; sg.segment_count()];
    for (e, f) in sg.edges().iter().zip(&fusible_edges) {
        if *f {
            fusible_seg[e.src.index()] = true;
            fusible_seg[e.dst.index()] = true;
        }
    }
    let mut costed = 0u64;
    let table = sg
        .segments()
        .iter()
        .map(|seg| {
            let (cands, n) = segment_candidates(seg, cfg, opts, fusible_seg[seg.id.index()]);
            costed += n;
            cands
        })
        .collect();
    (table, costed)
}

/// The mapping space as a multi-objective [`opt::Problem`], so NSGA-II
/// and simulated annealing can drive the same per-segment candidate
/// sets the deterministic beam searches. Solutions are per-segment
/// candidate indices; objectives are whole-model compute
/// `[energy_pj, latency_ns]`.
#[derive(Debug)]
pub struct MappingProblem<'a> {
    sg: &'a SegmentGraph,
    candidates: Vec<Vec<Candidate>>,
}

impl<'a> MappingProblem<'a> {
    /// Builds the problem over `sg`'s Pareto-pruned candidate table.
    pub fn new(sg: &'a SegmentGraph, cfg: &PimConfig, opts: &SearchOptions) -> MappingProblem<'a> {
        let (candidates, _) = candidate_table(sg, cfg, opts);
        MappingProblem { sg, candidates }
    }

    /// Materializes a solution into a [`ModelMapping`].
    ///
    /// # Panics
    ///
    /// Panics when `s` has the wrong arity or an index out of range.
    pub fn mapping_for(&self, s: &[usize]) -> ModelMapping {
        assert_eq!(s.len(), self.candidates.len(), "one choice per segment");
        ModelMapping::from_mappings(
            self.sg,
            "searched",
            s.iter()
                .zip(&self.candidates)
                .map(|(&ci, cands)| cands[ci].mapping.clone())
                .collect(),
        )
    }
}

impl Problem for MappingProblem<'_> {
    type Solution = Vec<usize>;

    fn random_solution(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
        self.candidates
            .iter()
            .map(|cands| rng.random_range(0..cands.len()))
            .collect()
    }

    fn neighbor(&self, s: &Vec<usize>, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let mut out = s.clone();
        let i = rng.random_range(0..out.len());
        out[i] = rng.random_range(0..self.candidates[i].len());
        out
    }

    fn objectives(&self, s: &Vec<usize>) -> Vec<f64> {
        let (mut e, mut l) = (0.0, 0.0);
        for (&ci, cands) in s.iter().zip(&self.candidates) {
            e += cands[ci].energy_pj;
            l += cands[ci].latency_ns;
        }
        vec![e, l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{build_model, Dataflow, Dataset, ModelKind};
    use rand::SeedableRng;

    fn graph(kind: ModelKind, ds: Dataset) -> SegmentGraph {
        SegmentGraph::from_layer_graph(&build_model(kind, ds).unwrap())
    }

    #[test]
    fn searched_never_loses_to_any_hand_mode_on_compute_edp() {
        let cfg = PimConfig::default();
        let opts = SearchOptions::default();
        for (kind, ds) in [
            (ModelKind::ResNet18, Dataset::ImageNet),
            (ModelKind::Vgg11, Dataset::Cifar10),
            (ModelKind::DenseNet169, Dataset::ImageNet),
        ] {
            let sg = graph(kind, ds);
            let out = search_model(&sg, &cfg, &opts);
            let searched = out.energy_pj * out.latency_ns;
            for df in Dataflow::all() {
                let c = pim::model_cost_with(&sg, &cfg, df);
                let hand = c.energy_pj * c.latency_ns;
                assert!(
                    searched <= hand,
                    "{}: searched {searched} > {df} {hand}",
                    sg.name()
                );
            }
            assert!(out.candidates_costed > 0);
        }
    }

    #[test]
    fn search_is_deterministic_and_consistent() {
        let cfg = PimConfig::default();
        let opts = SearchOptions::default();
        let sg = graph(ModelKind::ResNet18, Dataset::ImageNet);
        let a = search_model(&sg, &cfg, &opts);
        let b = search_model(&sg, &cfg, &opts);
        assert_eq!(a, b);
        assert_eq!(a.mapping.fingerprint(), b.mapping.fingerprint());
        // The reported sums match re-costing the returned mapping.
        let c = pim::model_cost_mapped(&sg, &cfg, &a.mapping);
        assert_eq!(c.energy_pj, a.energy_pj);
        assert_eq!(c.latency_ns, a.latency_ns);
    }

    #[test]
    fn beam_width_one_is_greedy_but_still_bounded_by_presets() {
        let cfg = PimConfig::default();
        let sg = graph(ModelKind::Vgg11, Dataset::Cifar10);
        let narrow = search_model(
            &sg,
            &cfg,
            &SearchOptions {
                beam_width: 1,
                ..SearchOptions::default()
            },
        );
        let wide = search_model(&sg, &cfg, &SearchOptions::default());
        let n = narrow.energy_pj * narrow.latency_ns;
        let w = wide.energy_pj * wide.latency_ns;
        assert!(
            w <= n + n * 1e-12,
            "wide beam {w} must not lose to greedy {n}"
        );
    }

    #[test]
    fn tile_candidates_are_divisor_based_and_capped() {
        assert_eq!(tile_candidates(12, 16), vec![1, 2, 3, 4, 6, 8, 12]);
        assert_eq!(tile_candidates(7, 16), vec![1, 2, 4, 7]);
        assert_eq!(tile_candidates(64, 16), vec![1, 2, 4, 8, 16]);
        assert_eq!(tile_candidates(1, 16), vec![1]);
    }

    #[test]
    fn problem_adapter_exposes_the_same_space() {
        let cfg = PimConfig::default();
        let opts = SearchOptions::default();
        let sg = graph(ModelKind::ResNet18, Dataset::ImageNet);
        let problem = MappingProblem::new(&sg, &cfg, &opts);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let beam = search_model(&sg, &cfg, &opts);
        let beam_edp = beam.energy_pj * beam.latency_ns;
        for _ in 0..32 {
            let s = problem.random_solution(&mut rng);
            let o = problem.objectives(&s);
            // Objectives agree with the pim cost of the materialized
            // mapping, and no random point beats the deterministic beam.
            let mm = problem.mapping_for(&s);
            let c = pim::model_cost_mapped(&sg, &cfg, &mm);
            assert_eq!(o, vec![c.energy_pj, c.latency_ns]);
            assert!(beam_edp <= o[0] * o[1] * (1.0 + 1e-12));
            let n = problem.neighbor(&s, &mut rng);
            assert_eq!(n.len(), s.len());
        }
    }
}
