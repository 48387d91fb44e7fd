//! The 3D PIM platform of Section III: a Floret-inspired SFC NoC over a
//! stacked PE grid, with performance-only and joint performance-thermal
//! layer placement.

use dnn::SegmentGraph;
use mapper::{map_task_sfc, CapacityLedger, MapError, TaskId, TaskPlacement};
use netsim::{analyze_with_table, Flow, RouteTable};
use opt::{simulated_annealing, Problem, SaConfig};
use pim::{segment_cost, ThermalNoiseModel};
use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use thermal::{PowerMap, ThermalMap, ThermalSolver};
use topology::{FloretLayout, NodeId, Topology};

use crate::config::SystemConfig;
use crate::scenario::ScenarioError;

/// A 3D-stacked PIM system with an SFC NoC.
#[derive(Debug)]
pub struct Platform3D {
    cfg: SystemConfig,
    topo: Topology,
    layout: FloretLayout,
    route: RouteTable,
    /// The stack's conductance matrix, factored once: every evaluation
    /// solves its power map by two substitutions.
    thermal: ThermalSolver,
    noise: ThermalNoiseModel,
}

/// Evaluation of one layer-to-PE placement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlacementEval {
    /// Communication makespan (analytical), cycles.
    pub comm_cycles: u64,
    /// NoC energy per inference, pJ.
    pub comm_energy_pj: f64,
    /// Compute latency of one inference pass (sum of stage latencies), ns.
    pub compute_ns: f64,
    /// Compute energy per inference, pJ.
    pub compute_energy_pj: f64,
    /// End-to-end delay per inference, ns.
    pub delay_ns: f64,
    /// Total energy per inference, pJ.
    pub energy_pj: f64,
    /// Energy-delay product, joule-seconds (Fig. 6(a) metric).
    pub edp_js: f64,
    /// Peak steady-state temperature, K (Fig. 6(b) metric).
    pub peak_k: f64,
    /// Mean temperature, K.
    pub mean_k: f64,
    /// Cells at or above 330 K (conductance-collapse onset).
    pub hotspots: usize,
    /// Top-1 accuracy drop induced by thermal noise (Fig. 6(c) metric).
    pub accuracy_drop: f64,
}

impl Platform3D {
    /// Builds the 3D platform: the SFC NoC, its route table and the
    /// factored thermal grid.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Topology`] from the SFC NoC generator, and
    /// [`ScenarioError::Thermal`] when `cfg.thermal` is non-physical or
    /// cannot be factored (see [`ThermalSolver::new`]).
    pub fn new(cfg: &SystemConfig) -> Result<Self, ScenarioError> {
        let (topo, layout) = topology::sfc3d(cfg.width, cfg.height, cfg.tiers)?;
        let thermal = ThermalSolver::new(cfg.width, cfg.height, cfg.tiers, &cfg.thermal)?;
        let route = RouteTable::build(&topo, &cfg.hw);
        Ok(Platform3D {
            cfg: cfg.clone(),
            topo,
            layout,
            route,
            thermal,
            noise: ThermalNoiseModel::default(),
        })
    }

    /// The underlying NoC topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Performance-only placement order: the 3D SFC itself (Floret-enabled
    /// NoC of Figs. 6-7).
    pub fn sfc_order(&self) -> Vec<NodeId> {
        self.layout.global_order()
    }

    /// Places one DNN along the given PE order (capacity-packed, layers in
    /// topological order).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InsufficientCapacity`] when the model does not
    /// fit the system.
    pub fn place(&self, sg: &SegmentGraph, order: &[NodeId]) -> Result<TaskPlacement, MapError> {
        let mut ledger = CapacityLedger::new(self.cfg.node_count(), self.cfg.node_capacity());
        map_task_sfc(&mut ledger, order, TaskId(0), sg)
    }

    /// Pipeline inference rate (inferences/s), bounded by the slowest
    /// pipeline stage. Batched streams interleave through the same
    /// bottleneck crossbars, so the rate is stage-limited regardless of
    /// batch size.
    pub fn pipeline_rate_hz(&self, sg: &SegmentGraph) -> f64 {
        let bottleneck_ns = sg
            .segments()
            .iter()
            .map(|s| segment_cost(s, &self.cfg.pim).latency_ns)
            .fold(0.0f64, f64::max);
        if bottleneck_ns <= 0.0 {
            return 0.0;
        }
        1e9 / bottleneck_ns
    }

    /// Builds the PE power map for a placement under streaming inference.
    /// Every PE pays its static power; each segment's dynamic power is
    /// split across its PE shares by weight fraction. When
    /// [`SystemConfig::dynamic_power_budget_w`] is set, the streaming rate
    /// is throttled (DVFS-style) so the aggregate dynamic power matches
    /// the budget — every workload then runs in the same thermal envelope
    /// and the temperature differences of Figs. 6-7 isolate placement
    /// quality.
    pub fn power_map(&self, sg: &SegmentGraph, placement: &TaskPlacement) -> PowerMap {
        let mut map = PowerMap::new(self.cfg.width, self.cfg.height, self.cfg.tiers)
            .expect("validated dimensions");
        // Baseline static power on every PE.
        for n in self.topo.nodes() {
            let c = n.coord;
            map.add(c.x, c.y, c.z, self.cfg.pim.static_power_w)
                .expect("in-bounds");
        }
        let rate = self.pipeline_rate_hz(sg);
        let raw_dynamic_w: f64 = sg
            .segments()
            .iter()
            .map(|seg| segment_cost(seg, &self.cfg.pim).energy_pj * 1e-12 * rate)
            .sum();
        let scale = if self.cfg.dynamic_power_budget_w > 0.0 && raw_dynamic_w > 0.0 {
            self.cfg.dynamic_power_budget_w / raw_dynamic_w
        } else {
            1.0
        };
        for (seg, sp) in sg.segments().iter().zip(&placement.segments) {
            let cost = segment_cost(seg, &self.cfg.pim);
            if cost.nodes == 0 || sp.shares.is_empty() {
                continue;
            }
            let dynamic_w = cost.energy_pj * 1e-12 * rate * scale;
            let total: u64 = sp.total_weights();
            for share in &sp.shares {
                let frac = share.weights as f64 / total as f64;
                let c = self.topo.node(share.node).coord;
                map.add(c.x, c.y, c.z, dynamic_w * frac).expect("in-bounds");
            }
        }
        map
    }

    /// Inter-PE activation flows of a placement (per inference).
    pub fn flows(&self, sg: &SegmentGraph, placement: &TaskPlacement) -> Vec<Flow> {
        mapper::placement_transfers(placement, sg, self.cfg.activation_bytes)
            .into_iter()
            .map(|t| Flow::new(t.src, t.dst, t.bytes))
            .collect()
    }

    /// Solves the thermal field for a placement with the platform's
    /// factored grid.
    pub fn thermal_map(&self, sg: &SegmentGraph, placement: &TaskPlacement) -> ThermalMap {
        self.thermal.solve(&self.power_map(sg, placement))
    }

    /// Full evaluation of a placement order: performance, energy, EDP,
    /// temperature and accuracy impact.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InsufficientCapacity`] when the model does not
    /// fit the system.
    pub fn evaluate(&self, sg: &SegmentGraph, order: &[NodeId]) -> Result<PlacementEval, MapError> {
        let placement = self.place(sg, order)?;
        let flows = self.flows(sg, &placement);
        let ana = analyze_with_table(&self.topo, &self.cfg.hw, &flows, &self.route);

        let mut compute_ns = 0.0;
        let mut compute_energy = 0.0;
        for seg in sg.segments() {
            let c = segment_cost(seg, &self.cfg.pim);
            compute_ns += c.latency_ns;
            compute_energy += c.energy_pj;
        }
        let comm_ns = ana.makespan_cycles as f64 * self.cfg.hw.cycle_ns();
        let delay_ns = compute_ns + comm_ns;
        let energy_pj = compute_energy + ana.total_energy_pj;
        let edp_js = energy_pj * 1e-12 * delay_ns * 1e-9;

        let tmap = self.thermal_map(sg, &placement);
        let peak_k = tmap.peak_k();
        Ok(PlacementEval {
            comm_cycles: ana.makespan_cycles,
            comm_energy_pj: ana.total_energy_pj,
            compute_ns,
            compute_energy_pj: compute_energy,
            delay_ns,
            energy_pj,
            edp_js,
            peak_k,
            mean_k: tmap.mean_k(),
            hotspots: tmap.hotspot_count(330.0),
            accuracy_drop: self.noise.accuracy_drop(peak_k),
        })
    }

    /// Jointly optimizes performance and temperature by simulated
    /// annealing over PE orders, starting from the SFC order. Objectives
    /// are `[edp / edp_sfc, (peak_k - ambient) / 10]`, scalarized by
    /// `sa.weights` (use `[1.0, w_thermal]`).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InsufficientCapacity`] when the model does not
    /// fit the system.
    ///
    /// # Panics
    ///
    /// Panics if `sa.weights.len() != 2`.
    pub fn optimize(
        &self,
        sg: &SegmentGraph,
        sa: &SaConfig,
    ) -> Result<(Vec<NodeId>, PlacementEval), MapError> {
        let sfc = self.sfc_order();
        let base = self.evaluate(sg, &sfc)?;
        let problem = PlacementProblem {
            platform: self,
            sg,
            base_order: &sfc,
            edp_ref: base.edp_js.max(1e-30),
        };
        let result = simulated_annealing(&problem, sa);
        let order: Vec<NodeId> = result.solution.iter().map(|&i| sfc[i]).collect();
        let eval = self.evaluate(sg, &order)?;
        Ok((order, eval))
    }
}

/// One point of the EDP-vs-temperature Pareto front.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Normalized EDP (1.0 = the SFC order's EDP).
    pub edp_norm: f64,
    /// Peak temperature, K.
    pub peak_k: f64,
    /// Full evaluation of the placement.
    pub eval: PlacementEval,
}

impl Platform3D {
    /// Explores the EDP-vs-peak-temperature Pareto front of layer
    /// placements with NSGA-II (the design-space view behind the single
    /// "joint" point of Figs. 6-7).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InsufficientCapacity`] when the model does not
    /// fit the system.
    pub fn pareto_front(
        &self,
        sg: &SegmentGraph,
        cfg: &opt::NsgaConfig,
    ) -> Result<Vec<ParetoPoint>, MapError> {
        let sfc = self.sfc_order();
        let base = self.evaluate(sg, &sfc)?;
        let problem = PlacementProblem {
            platform: self,
            sg,
            base_order: &sfc,
            edp_ref: base.edp_js.max(1e-30),
        };
        let front = opt::nsga2(&problem, cfg);
        let mut points = Vec::with_capacity(front.len());
        for fp in front {
            let order: Vec<NodeId> = fp.solution.iter().map(|&i| sfc[i]).collect();
            let eval = self.evaluate(sg, &order)?;
            points.push(ParetoPoint {
                edp_norm: eval.edp_js / base.edp_js,
                peak_k: eval.peak_k,
                eval,
            });
        }
        points.sort_by(|a, b| {
            a.edp_norm
                .partial_cmp(&b.edp_norm)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(points)
    }
}

/// SA problem over permutations of the SFC order (indices into it).
struct PlacementProblem<'a> {
    platform: &'a Platform3D,
    sg: &'a SegmentGraph,
    base_order: &'a [NodeId],
    edp_ref: f64,
}

impl PlacementProblem<'_> {
    fn eval_indices(&self, idx: &[usize]) -> Vec<f64> {
        let order: Vec<NodeId> = idx.iter().map(|&i| self.base_order[i]).collect();
        match self.platform.evaluate(self.sg, &order) {
            // Thermal objective: excess over the 330 K conductance-collapse
            // onset, scaled so ~10 K of excess weighs like the whole EDP
            // baseline — the regime where the accuracy loss of Fig. 6(c)
            // starts to bite.
            Ok(e) => vec![
                e.edp_js / self.edp_ref,
                ((e.peak_k - 330.0).max(0.0)) / 10.0,
            ],
            Err(_) => vec![f64::INFINITY, f64::INFINITY],
        }
    }
}

impl Problem for PlacementProblem<'_> {
    type Solution = Vec<usize>;

    fn random_solution(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
        // Start near the SFC order: a lightly perturbed identity keeps the
        // annealer in the performance-competitive region.
        let mut idx: Vec<usize> = (0..self.base_order.len()).collect();
        for _ in 0..4 {
            idx = opt::permutation::reverse_mutate(&idx, rng);
        }
        idx
    }

    fn neighbor(&self, s: &Vec<usize>, rng: &mut ChaCha8Rng) -> Vec<usize> {
        if rng.random::<f64>() < 0.5 {
            opt::permutation::swap_mutate(s, rng)
        } else {
            opt::permutation::reverse_mutate(s, rng)
        }
    }

    fn objectives(&self, s: &Vec<usize>) -> Vec<f64> {
        self.eval_indices(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{build_model, Dataset, ModelKind};

    fn resnet34_cifar() -> SegmentGraph {
        // CIFAR ResNet-34 (Table I M10) fits the 100-PE 3D system.
        let g = build_model(ModelKind::ResNet34, Dataset::Cifar10).unwrap();
        SegmentGraph::from_layer_graph(&g)
    }

    #[test]
    fn sfc_placement_evaluates() {
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let sg = resnet34_cifar();
        let eval = p.evaluate(&sg, &p.sfc_order()).unwrap();
        assert!(eval.comm_cycles > 0);
        assert!(eval.edp_js > 0.0);
        assert!(eval.peak_k > cfg.thermal.ambient_k);
        assert!(eval.delay_ns > eval.compute_ns);
    }

    #[test]
    fn early_layers_heat_the_bottom_tier() {
        // The SFC starts at the bottom tier, so the power-hungry early
        // layers heat the tier farthest from the sink (Fig. 7 pathology).
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let sg = resnet34_cifar();
        let placement = p.place(&sg, &p.sfc_order()).unwrap();
        let tmap = p.thermal_map(&sg, &placement);
        let (_, _, z) = tmap.argmax();
        assert_eq!(z, cfg.tiers - 1, "hotspot must sit in the bottom tier");
    }

    #[test]
    fn model_too_big_is_rejected() {
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let g = build_model(ModelKind::Vgg19, Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g); // 143M >> 52M capacity
        assert!(matches!(
            p.evaluate(&sg, &p.sfc_order()),
            Err(MapError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn joint_optimization_cools_the_stack() {
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let sg = resnet34_cifar();
        let base = p.evaluate(&sg, &p.sfc_order()).unwrap();
        let sa = SaConfig {
            iterations: 120, // small for test speed; benches use more
            t_start: 0.5,
            t_end: 1e-3,
            weights: vec![1.0, 1.0],
            seed: 42,
        };
        let (_, joint) = p.optimize(&sg, &sa).unwrap();
        assert!(
            joint.peak_k < base.peak_k,
            "joint {} K must beat SFC {} K",
            joint.peak_k,
            base.peak_k
        );
        assert!(
            joint.accuracy_drop <= base.accuracy_drop,
            "cooler stack cannot degrade accuracy more"
        );
    }

    #[test]
    fn pareto_front_spans_the_tradeoff() {
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let sg = resnet34_cifar();
        let nsga = opt::NsgaConfig {
            population: 12,
            generations: 8,
            seed: 5,
        };
        let front = p.pareto_front(&sg, &nsga).unwrap();
        assert!(!front.is_empty());
        // Mutually non-dominated: sorted by EDP, temperatures descend.
        for pair in front.windows(2) {
            assert!(pair[0].edp_norm <= pair[1].edp_norm);
            assert!(
                pair[0].peak_k >= pair[1].peak_k - 1e-9,
                "front must trade EDP for temperature"
            );
        }
    }

    #[test]
    fn pipeline_rate_positive() {
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let rate = p.pipeline_rate_hz(&resnet34_cifar());
        assert!(rate > 0.0);
    }

    #[test]
    fn power_map_conserves_power() {
        let cfg = SystemConfig::stacked_3d();
        let p = Platform3D::new(&cfg).unwrap();
        let sg = resnet34_cifar();
        let placement = p.place(&sg, &p.sfc_order()).unwrap();
        let map = p.power_map(&sg, &placement);
        let static_total = cfg.pim.static_power_w * cfg.node_count() as f64;
        assert!(map.total_w() > static_total, "dynamic power must appear");
        assert!(
            map.total_w() < static_total + 200.0,
            "power must be bounded"
        );
    }

    #[test]
    fn non_physical_thermal_configs_are_typed_errors() {
        use thermal::{ThermalConfig, ThermalError};
        let cases = [
            (
                ThermalConfig {
                    g_sink: 0.0,
                    ..ThermalConfig::m3d()
                },
                "g_sink",
            ),
            (
                ThermalConfig {
                    g_lateral: f64::NAN,
                    ..ThermalConfig::m3d()
                },
                "g_lateral",
            ),
        ];
        for (thermal, field) in cases {
            let cfg = SystemConfig {
                thermal,
                ..SystemConfig::stacked_3d()
            };
            assert_eq!(
                Platform3D::new(&cfg).unwrap_err(),
                ScenarioError::Thermal(ThermalError::NonPhysical(field))
            );
        }
    }
}
