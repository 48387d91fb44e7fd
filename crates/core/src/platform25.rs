//! The 2.5D chiplet platform: one NoI architecture + mapping strategy +
//! network simulation, evaluated on concurrent-DNN workloads (Section II).

use std::collections::BTreeMap;

use dnn::{build_model, Dataflow, ModelMapping, SegmentGraph, Workload};
use mapper::{
    placement_transfers, run_churn, run_queue, search_model, transfers_for_batch_into,
    transfers_for_batch_mapped_into, ChurnOutcome, QueueOutcome, SearchOptions, Strategy,
    StrategyKind,
};
use netsim::{
    analyze_with_table, link_free_totals, sample_flows_into, simulate_with_scratch,
    split_components_into, DesTotals, Flow, RouteTable, SimConfig, SimScratch,
};
use serde::Serialize;
use topology::{FloretLayout, Topology, TopologyError, TopologySummary};

use crate::arch::NoiArch;
use crate::config::SystemConfig;
use crate::scenario::ScenarioError;
use crate::scratch::{SweepScratch, NO_SLOT};
use crate::sweep::EvalCache;

/// A 2.5D PIM chiplet system with a fixed NoI architecture.
///
/// # Examples
///
/// ```
/// use pim_core::{NoiArch, Platform25D, SystemConfig};
///
/// let cfg = SystemConfig::datacenter_25d();
/// let floret = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg)?;
/// let wl = dnn::table2_workload("WL1").expect("table workload");
/// let report = floret.run_workload(&wl);
/// assert_eq!(report.mapped_tasks, wl.task_count());
/// # Ok::<(), topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct Platform25D {
    arch: NoiArch,
    cfg: SystemConfig,
    topo: Topology,
    layout: Option<FloretLayout>,
    route: RouteTable,
}

/// Aggregate result of executing one Table II workload mix under the
/// dynamic-churn service model (tasks arrive as a queue, the oldest
/// resident completes when space is needed).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct WorkloadReport {
    /// Architecture name.
    pub arch: String,
    /// Workload name.
    pub workload: String,
    /// Dataflow short name ([`Dataflow::name`]; `"WS"` for the baseline).
    pub dataflow: String,
    /// Forced departures during admission (churn-pressure diagnostic).
    pub departures: usize,
    /// Mean chiplet utilization sampled at each admission (Fig. 4 metric).
    pub mean_utilization: f64,
    /// Tasks successfully mapped.
    pub mapped_tasks: usize,
    /// Tasks that could not be mapped at all.
    pub failed_tasks: usize,
    /// Total NoI latency summed over tasks from the discrete-event
    /// simulator on sampled traffic, cycles (Fig. 3 metric).
    pub sim_latency_cycles: u64,
    /// Packet-count-weighted mean packet latency, cycles.
    pub mean_packet_latency_cycles: f64,
    /// Analytical makespan bound summed over tasks on the full traffic,
    /// cycles.
    pub analytical_latency_cycles: u64,
    /// Total NoI energy on the full traffic: dynamic (per-flit switching)
    /// plus static (area-proportional idle power over the execution
    /// time), pJ (Fig. 5 metric).
    pub noi_energy_pj: f64,
    /// Dynamic share of [`WorkloadReport::noi_energy_pj`], pJ.
    pub noi_dynamic_energy_pj: f64,
    /// Mean hop count weighted by traffic bytes (mapping-quality
    /// diagnostic).
    pub mean_weighted_hops: f64,
    /// Total inter-chiplet traffic, bytes.
    pub total_traffic_bytes: u64,
    /// One-time crossbar programming energy paid at each task admission
    /// (dynamic mapping is not free: every placement writes its weights
    /// into ReRAM), pJ.
    pub program_energy_pj: f64,
    /// Total crossbar programming time across admissions, ns.
    pub program_latency_ns: f64,
    /// PIM compute energy across all mapped tasks, pJ — scaled by the
    /// dataflow's buffer residency ([`pim::model_cost_with`]).
    pub compute_energy_pj: f64,
    /// Sequential-bound PIM compute latency across all mapped tasks, ns
    /// (input-stationary pays a weight re-staging stall).
    pub compute_latency_ns: f64,
}

/// How a churned placement is costed: a fixed hand dataflow mode, or
/// per-task resolved loop-nest mappings (the `searched` pseudo-mode).
enum CostModel<'a> {
    Mode(Dataflow),
    Mapped(&'a [ModelMapping]),
}

impl CostModel<'_> {
    fn tag(&self) -> &'static str {
        match self {
            CostModel::Mode(df) => df.name(),
            CostModel::Mapped(_) => Dataflow::Searched.name(),
        }
    }
}

impl Platform25D {
    /// Builds the platform for one architecture.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] from the topology generators.
    pub fn new(arch: NoiArch, cfg: &SystemConfig) -> Result<Self, TopologyError> {
        let (topo, layout) = arch.build(cfg.width, cfg.height)?;
        let route = RouteTable::build(&topo, &cfg.hw);
        Ok(Platform25D {
            arch,
            cfg: cfg.clone(),
            topo,
            layout,
            route,
        })
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The SFC layout (Floret only).
    pub fn layout(&self) -> Option<&FloretLayout> {
        self.layout.as_ref()
    }

    /// Architecture name.
    pub fn arch_name(&self) -> &'static str {
        self.arch.name()
    }

    /// The architecture selector this platform was built from.
    pub fn arch(&self) -> &NoiArch {
        &self.arch
    }

    /// The cached routing table (shared by every simulation on this
    /// platform).
    pub fn route_table(&self) -> &netsim::RouteTable {
        &self.route
    }

    /// Structural summary (Fig. 2 row).
    pub fn structure(&self) -> TopologySummary {
        topology::summarize(&self.topo, &self.cfg.hw)
    }

    /// NoI silicon area under the hardware model, mm² (cost input).
    pub fn noi_area_mm2(&self) -> f64 {
        self.cfg.hw.noi_area_mm2(&self.topo)
    }

    /// Builds the per-task segment graphs of a workload (cached per
    /// model/dataset pair).
    pub fn task_graphs(wl: &Workload) -> Vec<SegmentGraph> {
        let mut cache: BTreeMap<(String, String), SegmentGraph> = BTreeMap::new();
        wl.tasks()
            .into_iter()
            .map(|(kind, dataset)| {
                cache
                    .entry((kind.to_string(), dataset.to_string()))
                    .or_insert_with(|| {
                        let g = build_model(kind, dataset).expect("table models build");
                        SegmentGraph::from_layer_graph(&g)
                    })
                    .clone()
            })
            .collect()
    }

    /// Mapping strategy: SFC along the Floret curve, or greedy for the
    /// baselines. `soft` lifts the baseline contiguity constraint (the
    /// plain "least hops" greedy used for the latency/energy figures);
    /// the hard variant is the admission model of the Fig. 4 comparison.
    fn strategy(&self, soft: bool) -> Strategy<'_> {
        match &self.layout {
            Some(layout) => Strategy::sfc(layout),
            None => {
                let cfg = if soft {
                    mapper::GreedyConfig::soft()
                } else {
                    self.arch.greedy_config()
                };
                Strategy::greedy(&self.topo, cfg)
            }
        }
    }

    /// Resolves a scenario's mapping-strategy selection against this
    /// platform: `None` keeps the per-architecture paper default (SFC
    /// where a chiplet layout exists, greedy otherwise); an explicit
    /// [`StrategyKind`] forces that strategy. `soft` selects the relaxed
    /// greedy contiguity config (see [`Platform25D::map_workload_churn`]).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Strategy`] when `sfc` is forced on an
    /// architecture without a chiplet layout.
    pub fn strategy_for(
        &self,
        kind: Option<StrategyKind>,
        soft: bool,
    ) -> Result<Strategy<'_>, ScenarioError> {
        match kind {
            None => Ok(self.strategy(soft)),
            Some(StrategyKind::Sfc) => match &self.layout {
                Some(layout) => Ok(Strategy::sfc(layout)),
                None => Err(ScenarioError::Strategy(format!(
                    "strategy `sfc` needs a chiplet layout, but {} has none (use `greedy`)",
                    self.arch_name()
                ))),
            },
            Some(StrategyKind::Greedy) => {
                let cfg = if soft {
                    mapper::GreedyConfig::soft()
                } else {
                    self.arch.greedy_config()
                };
                Ok(Strategy::greedy(&self.topo, cfg))
            }
        }
    }

    /// Maps the workload queue wave-by-wave (all resident tasks complete
    /// together) under the hard-contiguity admission model. Used by the
    /// Fig. 4 utilization comparison.
    pub fn map_workload(&self, wl: &Workload) -> QueueOutcome {
        let graphs = Self::task_graphs(wl);
        run_queue(
            &graphs,
            self.cfg.node_count(),
            self.cfg.node_capacity(),
            &self.strategy(false),
        )
    }

    /// Maps the workload queue under dynamic churn (FIFO task
    /// completions), producing the fragmented placements that drive the
    /// Fig. 3/5 comparison.
    pub fn map_workload_churn(&self, wl: &Workload) -> ChurnOutcome {
        let graphs = Self::task_graphs(wl);
        run_churn(
            &graphs,
            self.cfg.node_count(),
            self.cfg.node_capacity(),
            &self.strategy(true),
        )
    }

    /// [`Platform25D::map_workload_churn`] with injected chiplet faults:
    /// the listed chiplets are dead before any task arrives, and the
    /// mapper must work around them (the SFC re-stitches over dead
    /// chiplets at the cost of extra hops).
    pub fn map_workload_churn_with_faults(
        &self,
        wl: &Workload,
        failed: &[topology::NodeId],
    ) -> ChurnOutcome {
        let graphs = Self::task_graphs(wl);
        let mut ledger =
            mapper::CapacityLedger::new(self.cfg.node_count(), self.cfg.node_capacity());
        for &n in failed {
            ledger.mark_failed(n);
        }
        mapper::run_churn_with_ledger(&graphs, ledger, &self.strategy(true))
    }

    /// Fault-tolerance study: re-runs the workload with the given dead
    /// chiplets and reports the byte-weighted mean hop count and total
    /// traffic of the degraded placements (the NoI metrics of the
    /// fault-injection ablation).
    pub fn degraded_hops(&self, wl: &Workload, failed: &[topology::NodeId]) -> (f64, u64) {
        let graphs = Self::task_graphs(wl);
        let outcome = self.map_workload_churn_with_faults(wl, failed);
        let mut hops_weighted = 0.0;
        let mut traffic = 0u64;
        for tp in &outcome.placements {
            let transfers =
                placement_transfers(tp, &graphs[tp.task.index()], self.cfg.activation_bytes);
            let flows: Vec<Flow> = transfers
                .iter()
                .map(|t| Flow::new(t.src, t.dst, t.bytes))
                .collect();
            if flows.is_empty() {
                continue;
            }
            let bytes = netsim::total_bytes(&flows);
            let ana = analyze_with_table(&self.topo, &self.cfg.hw, &flows, &self.route);
            hops_weighted += ana.mean_weighted_hops * bytes as f64;
            traffic += bytes;
        }
        (
            if traffic == 0 {
                0.0
            } else {
                hops_weighted / traffic as f64
            },
            traffic,
        )
    }

    /// Maps (under churn) and simulates a workload under the
    /// weight-stationary baseline dataflow (the seed behaviour).
    pub fn run_workload(&self, wl: &Workload) -> WorkloadReport {
        self.run_workload_with(wl, Dataflow::WeightStationary)
    }

    /// Maps (under churn) and simulates a workload under `dataflow`. The
    /// NoI carries the traffic of all *co-resident* tasks simultaneously
    /// (`batch` inference frames each): snapshots of the resident set are
    /// taken along the admission sequence and replayed together, so both
    /// the placement quality under fragmentation and the cross-task link
    /// contention differ across architectures.
    ///
    /// The placement itself is dataflow-independent (weights live where
    /// the mapper put them); the dataflow decides which tensors cross the
    /// NoI per segment edge ([`mapper::transfers_for_batch`]) and what
    /// each MAC costs in buffer traffic ([`pim::model_cost_with`]).
    pub fn run_workload_with(&self, wl: &Workload, dataflow: Dataflow) -> WorkloadReport {
        self.run_workload_dataflows(
            wl,
            std::slice::from_ref(&dataflow),
            &mut SweepScratch::new(),
        )
        .pop()
        .expect("one dataflow in, one report out")
    }

    /// Runs one workload under every mode in `dataflows`, in order. The
    /// churned placement is dataflow-independent, so it is computed once
    /// and only the transfer expansion, network replay and compute
    /// costing repeat per mode — each report is bit-identical to the one
    /// [`Platform25D::run_workload_with`] would produce. `scratch` holds
    /// the per-mode buffers (see [`SweepScratch`]); a caller without a
    /// pool passes `&mut SweepScratch::new()`.
    pub fn run_workload_dataflows(
        &self,
        wl: &Workload,
        dataflows: &[Dataflow],
        scratch: &mut SweepScratch,
    ) -> Vec<WorkloadReport> {
        let graphs = Self::task_graphs(wl);
        let outcome = self.churn_outcome_from_graphs(&graphs);
        dataflows
            .iter()
            .map(|&df| self.cost_churn_outcome_scratch(wl, &graphs, &outcome, df, scratch))
            .collect()
    }

    /// The dynamic-churn mapping for pre-built task graphs (the
    /// expensive, dataflow-independent half of a workload run). The
    /// `pim_core::sweep::EvalCache` memoizes this so consecutive
    /// experiments cost new dataflows from the same placement.
    pub fn churn_outcome_from_graphs(&self, graphs: &[SegmentGraph]) -> ChurnOutcome {
        run_churn(
            graphs,
            self.cfg.node_count(),
            self.cfg.node_capacity(),
            &self.strategy(true),
        )
    }

    /// Costs one pre-computed churn outcome under one dataflow — the
    /// exact per-mode step of [`Platform25D::run_workload_dataflows`],
    /// exposed so the evaluation cache can replay a memoized mapping
    /// without redoing it. `graphs` and `outcome` must have been produced
    /// for `wl` on this platform.
    ///
    /// [`Dataflow::Searched`] is resolved here: the mapping search picks
    /// per-task loop nests and the report carries the `"SRCH"` tag.
    ///
    /// This scratch-free form and [`Platform25D::cost_churn_outcome_scratch`]
    /// are the one such pair left: `perfbench/src/compose.rs` checks its
    /// layer-by-layer rebuild against this form, and the allocation test
    /// pins the scratch one. The pair folds into one signature when the
    /// harness traces the production pipeline instead and that rebuild
    /// goes (the stage-probe item of `ROADMAP.md`).
    pub fn cost_churn_outcome(
        &self,
        wl: &Workload,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
        dataflow: Dataflow,
    ) -> WorkloadReport {
        self.cost_churn_outcome_scratch(wl, graphs, outcome, dataflow, &mut SweepScratch::new())
    }

    /// [`Platform25D::cost_churn_outcome`] against caller-owned scratch:
    /// the DES-free stage, then the snapshot DES over the flows it left
    /// in `scratch`.
    pub fn cost_churn_outcome_scratch(
        &self,
        wl: &Workload,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
        dataflow: Dataflow,
        scratch: &mut SweepScratch,
    ) -> WorkloadReport {
        let mut rep = self.report_without_des(wl, graphs, outcome, dataflow, scratch);
        self.simulate_snapshots(outcome, scratch, &mut rep, None);
        rep
    }

    /// The DES-free stage of a report under `dataflow` (see
    /// [`Platform25D::cost_without_des`]); [`Dataflow::Searched`] is
    /// resolved by [`Platform25D::resolve_searched`]. The DES fields stay
    /// zero, and `scratch` holds the costed mapping's flows for
    /// [`Platform25D::simulate_snapshots`].
    pub(crate) fn report_without_des(
        &self,
        wl: &Workload,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
        dataflow: Dataflow,
        scratch: &mut SweepScratch,
    ) -> WorkloadReport {
        match dataflow {
            Dataflow::Searched => self.resolve_searched(wl, graphs, outcome, scratch).1,
            df => self.cost_without_des(wl, graphs, outcome, &CostModel::Mode(df), scratch),
        }
    }

    /// Resolves [`Dataflow::Searched`] on one (architecture, workload)
    /// cell: returns the winning per-task mappings (aligned with
    /// [`Platform25D::task_graphs`]) and their DES-free report, and
    /// leaves the winner's flows in `scratch`.
    ///
    /// Candidates are the deterministic beam search result
    /// ([`mapper::search_model`], compute-optimal per task) plus the four
    /// uniform hand presets. Each is ranked on the DES-free stage of the
    /// report pipeline (transfer expansion, analytical NoI, static,
    /// programming and compute costs), which is everything
    /// [`Platform25D::report_edp`] reads; only the winner goes on through
    /// the snapshot DES, so the cell pays one DES pass, not five. The
    /// winner minimizes whole-report energy×delay; the searched candidate
    /// wins ties, so `searched` never loses to any hand mode by
    /// construction. Resolution is a pure function of (config,
    /// architecture, workload) — no RNG, no thread-count dependence.
    fn resolve_searched(
        &self,
        wl: &Workload,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
        scratch: &mut SweepScratch,
    ) -> (Vec<ModelMapping>, WorkloadReport) {
        let mut candidates: Vec<Vec<ModelMapping>> = Vec::with_capacity(5);
        candidates.push(self.searched_task_mappings(graphs));
        for df in Dataflow::all() {
            candidates.push(graphs.iter().map(|g| ModelMapping::preset(df, g)).collect());
        }
        let mut best: Option<(usize, WorkloadReport, f64)> = None;
        for (i, maps) in candidates.iter().enumerate() {
            let rep = self.cost_without_des(wl, graphs, outcome, &CostModel::Mapped(maps), scratch);
            let edp = self.report_edp(&rep);
            // Strict `<`: the searched candidate comes first and keeps
            // ties, making the resolution deterministic.
            if best.as_ref().is_none_or(|(_, _, b)| edp < *b) {
                best = Some((i, rep, edp));
            }
        }
        let (win, rep, _) = best.expect("at least the searched candidate was costed");
        let last = candidates.len() - 1;
        let maps = candidates.swap_remove(win);
        // The scratch holds the flows of the last candidate costed; the
        // DES must replay the winner's.
        if win != last {
            self.expand_task_flows(graphs, outcome, &CostModel::Mapped(&maps), scratch);
        }
        (maps, rep)
    }

    /// The ranking metric of the mapping search at the report level:
    /// total (NoI + compute) energy times total (NoI analytical +
    /// compute) time. Exposed so experiments can tabulate the same
    /// quantity the resolver minimized.
    ///
    /// Reads no DES field (`sim_latency_cycles`,
    /// `mean_packet_latency_cycles`): the `searched` resolver ranks its
    /// candidates before any of them is simulated.
    pub fn report_edp(&self, r: &WorkloadReport) -> f64 {
        let energy_pj = r.noi_energy_pj + r.compute_energy_pj;
        let time_ns =
            r.analytical_latency_cycles as f64 * self.cfg.hw.cycle_ns() + r.compute_latency_ns;
        energy_pj * time_ns
    }

    /// Per-task compute-optimal loop-nest mappings from the deterministic
    /// beam search, memoized per distinct model within the workload.
    fn searched_task_mappings(&self, graphs: &[SegmentGraph]) -> Vec<ModelMapping> {
        let opts = SearchOptions::default();
        let mut memo: BTreeMap<(String, u64, u64), ModelMapping> = BTreeMap::new();
        graphs
            .iter()
            .map(|g| {
                let macs: u64 = g.segments().iter().map(|s| s.macs).sum();
                memo.entry((g.name().to_string(), g.total_params(), macs))
                    .or_insert_with(|| search_model(g, &self.cfg.pim, &opts).mapping)
                    .clone()
            })
            .collect()
    }

    /// Expands every placed task's transfers under `model` into
    /// `scratch.task_flows` and indexes them by task id in
    /// `scratch.placement_slot`.
    fn expand_task_flows(
        &self,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
        model: &CostModel<'_>,
        scratch: &mut SweepScratch,
    ) {
        // Per-task flows, built once into the scratch lists (inner
        // vectors are recycled for their capacity). Batching happens
        // inside the expansion: the mapping's NoI policy decides what is
        // staged once per batch (OS weight tiles) vs once per frame.
        let n_tasks = outcome.placements.len();
        while scratch.task_flows.len() > n_tasks {
            let spare = scratch.task_flows.pop().expect("len checked");
            scratch.spare_flows.push(spare);
        }
        while scratch.task_flows.len() < n_tasks {
            scratch
                .task_flows
                .push(scratch.spare_flows.pop().unwrap_or_default());
        }
        for (i, tp) in outcome.placements.iter().enumerate() {
            match model {
                CostModel::Mode(df) => transfers_for_batch_into(
                    tp,
                    &graphs[tp.task.index()],
                    self.cfg.activation_bytes,
                    *df,
                    self.cfg.batch as u64,
                    &mut scratch.transfers,
                ),
                CostModel::Mapped(maps) => transfers_for_batch_mapped_into(
                    tp,
                    &graphs[tp.task.index()],
                    self.cfg.activation_bytes,
                    &maps[tp.task.index()],
                    self.cfg.batch as u64,
                    &mut scratch.transfers,
                ),
            };
            let tf = &mut scratch.task_flows[i];
            tf.clear();
            tf.extend(
                scratch
                    .transfers
                    .iter()
                    .map(|t| Flow::new(t.src, t.dst, t.bytes)),
            );
        }
        // Task id -> task_flows index, as a flat slot table.
        let slots = outcome
            .placements
            .iter()
            .map(|tp| tp.task.0 as usize + 1)
            .max()
            .unwrap_or(0);
        scratch.placement_slot.clear();
        scratch.placement_slot.resize(slots, NO_SLOT);
        for (i, tp) in outcome.placements.iter().enumerate() {
            scratch.placement_slot[tp.task.0 as usize] = topology::narrow::u32_idx(i);
        }
    }

    /// The DES-free stage of a report under one cost model: transfer
    /// expansion (left in `scratch` for
    /// [`Platform25D::simulate_snapshots`]), per-task analytical NoI,
    /// static, programming and compute costs — every field
    /// [`Platform25D::report_edp`] reads. The DES fields stay zero.
    fn cost_without_des(
        &self,
        wl: &Workload,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
        model: &CostModel<'_>,
        scratch: &mut SweepScratch,
    ) -> WorkloadReport {
        self.expand_task_flows(graphs, outcome, model, scratch);

        // Per-task analytical accounting: every task's traffic is paid
        // exactly once (energy and zero-load latency depend only on the
        // placement, not on co-residency).
        let mut analytical_latency = 0u64;
        let mut energy_pj = 0.0;
        let mut traffic = 0u64;
        let mut hops_weighted = 0.0;
        for flows in &scratch.task_flows {
            if flows.is_empty() {
                continue;
            }
            let bytes = netsim::total_bytes(flows);
            traffic += bytes;
            let ana = analyze_with_table(&self.topo, &self.cfg.hw, flows, &self.route);
            analytical_latency += ana.makespan_cycles;
            energy_pj += ana.total_energy_pj;
            hops_weighted += ana.mean_weighted_hops * bytes as f64;
        }

        // Static NoI energy: the whole fabric idles for the serialized
        // communication time of the workload.
        let exec_ns = analytical_latency as f64 * self.cfg.hw.cycle_ns();
        let static_pj = self.cfg.hw.static_energy_pj(self.noi_area_mm2(), exec_ns);

        // Crossbar programming: every admission writes the task's weights
        // into its chiplets once.
        let mut program_energy_pj = 0.0;
        let mut program_latency_ns = 0.0;
        for tp in &outcome.placements {
            for seg in graphs[tp.task.index()].segments() {
                let (lat, e) = pim::segment_program_cost(seg, &self.cfg.pim);
                program_energy_pj += e;
                program_latency_ns += lat;
            }
        }

        // PIM compute side: the mapping's buffer residency scales the
        // per-MAC energy and (for weight re-staging) the per-segment
        // latency.
        let mut compute_energy_pj = 0.0;
        let mut compute_latency_ns = 0.0;
        for tp in &outcome.placements {
            let mc = match model {
                CostModel::Mode(df) => {
                    pim::model_cost_with(&graphs[tp.task.index()], &self.cfg.pim, *df)
                }
                CostModel::Mapped(maps) => pim::model_cost_mapped(
                    &graphs[tp.task.index()],
                    &self.cfg.pim,
                    &maps[tp.task.index()],
                ),
            };
            compute_energy_pj += mc.energy_pj;
            compute_latency_ns += mc.latency_ns;
        }

        WorkloadReport {
            arch: self.arch.name().to_string(),
            workload: wl.name.clone(),
            dataflow: model.tag().to_string(),
            departures: outcome.departures,
            mean_utilization: outcome.mean_utilization,
            mapped_tasks: outcome.placements.len(),
            failed_tasks: outcome.failed.len(),
            sim_latency_cycles: 0,
            mean_packet_latency_cycles: 0.0,
            analytical_latency_cycles: analytical_latency,
            noi_energy_pj: energy_pj + static_pj,
            noi_dynamic_energy_pj: energy_pj,
            mean_weighted_hops: if traffic == 0 {
                0.0
            } else {
                hops_weighted / traffic as f64
            },
            total_traffic_bytes: traffic,
            program_energy_pj,
            program_latency_ns,
            compute_energy_pj,
            compute_latency_ns,
        }
    }

    /// The snapshot-DES stage of a report: co-resident tasks share the
    /// NoI, so contention is measured on resident-set snapshots along
    /// the admission sequence, replaying the flows that
    /// [`Platform25D::expand_task_flows`] left in `scratch` for
    /// `outcome`. Fills the report's DES fields.
    ///
    /// Each simulated snapshot's sampled flows are split into
    /// channel-disjoint components ([`netsim::split_components_into`]),
    /// and each component is costed on its own. Components share no
    /// channel, so every packet is delivered at the cycle a run over the
    /// whole snapshot delivers it: the snapshot's makespan is the
    /// components' maximum, and its packets and integer latency sum are
    /// their sums, which makes the snapshot's mean bit-identical. A
    /// link-free component (no link channel carries two of its flows)
    /// never queues a header, so its totals come in closed form
    /// ([`netsim::link_free_totals`]). Any other component runs through
    /// the DES; it recurs for as long as its tasks stay resident, so with
    /// `memo` (the runner's enabled [`EvalCache`]) a component already
    /// simulated on this architecture is replayed instead of re-run.
    pub(crate) fn simulate_snapshots(
        &self,
        outcome: &ChurnOutcome,
        scratch: &mut SweepScratch,
        rep: &mut WorkloadReport,
        memo: Option<&EvalCache>,
    ) {
        let mut sim_latency = 0u64;
        let mut packet_lat_weighted = 0.0;
        let mut packets = 0u64;
        self.for_each_split_snapshot(outcome, scratch, |scratch| {
            let mut whole = DesTotals::default();
            let mut start = 0;
            for &(end, link_free) in &scratch.component_ends {
                let flows = &scratch.component_flows[start..end];
                start = end;
                whole.merge(self.component_totals(flows, link_free, &mut scratch.sim, memo));
            }
            sim_latency += whole.makespan_cycles;
            let mean = if whole.packets == 0 {
                0.0
            } else {
                whole.total_packet_latency_cycles as f64 / whole.packets as f64
            };
            packet_lat_weighted += mean * whole.packets as f64;
            packets += whole.packets;
        });
        rep.sim_latency_cycles = sim_latency;
        rep.mean_packet_latency_cycles = if packets == 0 {
            0.0
        } else {
            packet_lat_weighted / packets as f64
        };
    }

    /// Gathers the sampled flows of every snapshot the snapshot DES
    /// costs (every `snapshot_every`-th and the last), splits them into
    /// channel-disjoint components in `scratch.component_flows` and
    /// `scratch.component_ends`, and hands `scratch` to `each`.
    fn for_each_split_snapshot(
        &self,
        outcome: &ChurnOutcome,
        scratch: &mut SweepScratch,
        mut each: impl FnMut(&mut SweepScratch),
    ) {
        let every = self.cfg.snapshot_every.max(1) as usize;
        let n_snaps = outcome.snapshots.len();
        for (si, snap) in outcome.snapshots.iter().enumerate() {
            if si % every != 0 && si + 1 != n_snaps {
                continue;
            }
            scratch.snapshot_flows.clear();
            for t in snap {
                match scratch.placement_slot.get(t.0 as usize) {
                    Some(&slot) if slot != NO_SLOT => scratch
                        .snapshot_flows
                        .extend(scratch.task_flows[slot as usize].iter().copied()),
                    _ => {}
                }
            }
            if scratch.snapshot_flows.is_empty() {
                continue;
            }
            sample_flows_into(
                &scratch.snapshot_flows,
                self.cfg.sim_sampling,
                &mut scratch.sampled_flows,
            );
            split_components_into(
                &self.topo,
                &scratch.sampled_flows,
                &self.route,
                &mut scratch.sim,
                &mut scratch.component_flows,
                &mut scratch.component_ends,
            );
            each(scratch);
        }
    }

    /// The DES totals of one snapshot component: in closed form when it
    /// is link-free, else from `memo` or a DES run.
    fn component_totals(
        &self,
        flows: &[Flow],
        link_free: bool,
        sim: &mut SimScratch,
        memo: Option<&EvalCache>,
    ) -> DesTotals {
        let hw = &self.cfg.hw;
        if link_free {
            if let Some(cache) = memo {
                cache.count_closed_form();
            }
            return link_free_totals(&self.topo, hw, flows, &SNAPSHOT_SIM, &self.route, sim);
        }
        let mut run = || {
            simulate_with_scratch(&self.topo, hw, flows, &SNAPSHOT_SIM, &self.route, sim).totals()
        };
        match memo {
            Some(cache) => cache.des_component(self.arch_name(), flows, run),
            None => run(),
        }
    }
}

/// The packet size of the snapshot DES.
const SNAPSHOT_SIM: SimConfig = SimConfig { packet_bytes: 256 };

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> Workload {
        // A reduced WL1-style mix that still oversubscribes 100 chiplets.
        dnn::table2_workload("WL1").unwrap()
    }

    #[test]
    fn floret_runs_wl1() {
        let cfg = SystemConfig::datacenter_25d();
        let p = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg).unwrap();
        let rep = p.run_workload(&small_workload());
        assert_eq!(rep.failed_tasks, 0);
        assert_eq!(rep.mapped_tasks, 28);
        assert!(rep.departures > 0, "WL1 must oversubscribe the system");
        assert!(rep.sim_latency_cycles > 0);
        assert!(rep.noi_energy_pj > 0.0);
        assert!(rep.mean_utilization > 0.6);
    }

    #[test]
    fn all_archs_complete_wl1() {
        let cfg = SystemConfig::datacenter_25d();
        let wl = small_workload();
        for arch in NoiArch::all() {
            let p = Platform25D::new(arch, &cfg).unwrap();
            let rep = p.run_workload(&wl);
            assert_eq!(rep.failed_tasks, 0, "{} failed tasks", rep.arch);
            assert_eq!(rep.mapped_tasks, 28, "{}", rep.arch);
        }
    }

    #[test]
    fn floret_beats_kite_on_latency_and_energy() {
        // The headline Fig. 3/5 directions on the concurrency-heavy WL1.
        let cfg = SystemConfig::datacenter_25d();
        let wl = small_workload();
        let floret = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg)
            .unwrap()
            .run_workload(&wl);
        let kite = Platform25D::new(NoiArch::Kite, &cfg)
            .unwrap()
            .run_workload(&wl);
        assert!(
            kite.sim_latency_cycles > floret.sim_latency_cycles,
            "kite {} vs floret {}",
            kite.sim_latency_cycles,
            floret.sim_latency_cycles
        );
        assert!(
            kite.noi_energy_pj > 1.5 * floret.noi_energy_pj,
            "kite {} vs floret {} energy (paper: ~2.8x)",
            kite.noi_energy_pj,
            floret.noi_energy_pj
        );
        assert!(
            kite.mean_weighted_hops > floret.mean_weighted_hops,
            "floret keeps consecutive layers closer"
        );
    }

    #[test]
    fn dataflow_axis_never_inflates_traffic() {
        let cfg = SystemConfig::datacenter_25d();
        let p = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg).unwrap();
        let wl = small_workload();
        let ws = p.run_workload(&wl);
        assert_eq!(ws.dataflow, "WS");
        assert_eq!(ws, p.run_workload_with(&wl, Dataflow::WeightStationary));
        for df in Dataflow::all() {
            let r = p.run_workload_with(&wl, df);
            assert_eq!(r.dataflow, df.name());
            // Re-stationing falls back to the tiled path where it does
            // not pay, so no mode moves more bytes than the baseline.
            assert!(
                r.total_traffic_bytes <= ws.total_traffic_bytes,
                "{df}: {} > WS {}",
                r.total_traffic_bytes,
                ws.total_traffic_bytes
            );
        }
        // WL1's chains give fused-layer pipelines real elision headroom.
        let fl = p.run_workload_with(&wl, Dataflow::FusedLayer);
        assert!(fl.total_traffic_bytes < ws.total_traffic_bytes);
    }

    #[test]
    fn searched_resolves_deterministically_and_never_loses_to_a_hand_mode() {
        let cfg = SystemConfig::datacenter_25d();
        let p = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg).unwrap();
        let wl = small_workload();
        let mut reports = p.run_workload_dataflows(
            &wl,
            &Dataflow::all_with_searched(),
            &mut SweepScratch::new(),
        );
        let srch = reports.pop().expect("searched rides last on the axis");
        assert_eq!(srch.dataflow, "SRCH");
        for hand in &reports {
            assert!(
                p.report_edp(&srch) <= p.report_edp(hand),
                "searched EDP {} > {} EDP {}",
                p.report_edp(&srch),
                hand.dataflow,
                p.report_edp(hand)
            );
        }
        // Resolution is a pure function of the cell: a fresh run
        // reproduces the same report bit-for-bit.
        let again = p.run_workload_with(&wl, Dataflow::Searched);
        assert_eq!(srch, again);
    }

    /// The `searched` resolver rebuilt the slow way: every candidate
    /// costed through the full pipeline, DES included, and the
    /// `report_edp` argmin taken with the searched candidate keeping
    /// ties. Returns the winner's index (0 = searched, then the presets
    /// in [`Dataflow::all`] order), its mappings and its report.
    fn reference_resolve(
        p: &Platform25D,
        wl: &Workload,
        graphs: &[SegmentGraph],
        outcome: &ChurnOutcome,
    ) -> (usize, Vec<ModelMapping>, WorkloadReport) {
        let mut candidates: Vec<Vec<ModelMapping>> = vec![graphs
            .iter()
            .map(|g| search_model(g, &p.cfg.pim, &SearchOptions::default()).mapping)
            .collect()];
        for df in Dataflow::all() {
            candidates.push(graphs.iter().map(|g| ModelMapping::preset(df, g)).collect());
        }
        let mut best: Option<(usize, Vec<ModelMapping>, WorkloadReport, f64)> = None;
        for (i, maps) in candidates.into_iter().enumerate() {
            let mut scratch = SweepScratch::new();
            let model = CostModel::Mapped(&maps);
            let mut rep = p.cost_without_des(wl, graphs, outcome, &model, &mut scratch);
            p.simulate_snapshots(outcome, &mut scratch, &mut rep, None);
            let edp = p.report_edp(&rep);
            if best.as_ref().is_none_or(|(.., b)| edp < *b) {
                best = Some((i, maps, rep, edp));
            }
        }
        let (i, maps, rep, _) = best.expect("five candidates costed");
        (i, maps, rep)
    }

    #[test]
    fn searched_resolver_matches_the_full_pipeline_reference() {
        // The resolver ranks its five candidates on the DES-free stage and
        // simulates the winner only; it must pick the reference's mappings
        // and reproduce its whole report, DES fields included, on fresh
        // and on dirty scratch. On WL1 the searched candidate wins, so the
        // DES replays the flows of the first candidate costed; on WL2 the
        // OS preset wins, which is not the last candidate costed, so the
        // resolver must re-expand its flows before the DES.
        let cfg = SystemConfig::datacenter_25d();
        for (wl_name, winner) in [("WL1", 0), ("WL2", 2)] {
            let wl = dnn::table2_workload(wl_name).unwrap();
            let other = dnn::table2_workload(if wl_name == "WL1" { "WL2" } else { "WL1" }).unwrap();
            let graphs = Platform25D::task_graphs(&wl);
            for arch in [NoiArch::Floret { lambda: 6 }, NoiArch::Kite] {
                let p = Platform25D::new(arch, &cfg).unwrap();
                let outcome = p.churn_outcome_from_graphs(&graphs);
                let (win, ref_maps, ref_rep) = reference_resolve(&p, &wl, &graphs, &outcome);
                let cell = format!("{wl_name} x {}", p.arch_name());
                assert_eq!(win, winner, "{cell}: winning candidate");
                assert!(ref_rep.sim_latency_cycles > 0 && ref_rep.mean_packet_latency_cycles > 0.0);

                // Dirty scratch: another workload's searched cell and a
                // hand mode ran on it first.
                let mut dirty = SweepScratch::new();
                p.run_workload_dataflows(
                    &other,
                    &[Dataflow::Searched, Dataflow::FusedLayer],
                    &mut dirty,
                );
                for (state, mut scratch) in [("fresh", SweepScratch::new()), ("dirty", dirty)] {
                    let (maps, mut rep) = p.resolve_searched(&wl, &graphs, &outcome, &mut scratch);
                    p.simulate_snapshots(&outcome, &mut scratch, &mut rep, None);
                    assert!(
                        maps == ref_maps,
                        "{cell}, {state} scratch: resolved mappings"
                    );
                    assert_eq!(rep, ref_rep, "{cell}, {state} scratch: report");
                }
            }
        }
    }

    #[test]
    fn report_edp_reads_no_des_field() {
        // The searched resolver ranks candidates before simulating them,
        // so the ranking metric must not see the DES fields.
        let cfg = SystemConfig::datacenter_25d();
        let p = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg).unwrap();
        let rep = p.run_workload(&small_workload());
        assert!(rep.sim_latency_cycles > 0 && rep.mean_packet_latency_cycles > 0.0);
        let zeroed = WorkloadReport {
            sim_latency_cycles: 0,
            mean_packet_latency_cycles: 0.0,
            ..rep.clone()
        };
        assert_eq!(
            p.report_edp(&zeroed).to_bits(),
            p.report_edp(&rep).to_bits()
        );
    }

    #[test]
    fn programming_costs_are_accounted() {
        let cfg = SystemConfig::datacenter_25d();
        let p = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg).unwrap();
        let rep = p.run_workload(&small_workload());
        assert!(rep.program_energy_pj > 0.0);
        assert!(rep.program_latency_ns > 0.0);
        // Programming is a one-time cost per admission; for a streaming
        // batch it must not dwarf the NoI energy entirely.
        assert!(rep.program_energy_pj < 1e3 * rep.noi_energy_pj);
    }

    #[test]
    fn workload_graphs_cache_consistency() {
        let graphs = Platform25D::task_graphs(&small_workload());
        assert_eq!(graphs.len(), 28);
        // The 16 leading ResNet18 tasks share a structure.
        assert_eq!(graphs[0].segment_count(), graphs[15].segment_count());
    }

    #[test]
    fn closed_form_matches_the_des_on_every_link_free_fig3_component() {
        // The Fig. 3 grid (the Table II mixes on every NoI, weight
        // stationary, default sampling), split as the snapshot DES splits
        // it: every link-free component's closed form must equal its DES
        // run.
        let cfg = SystemConfig::datacenter_25d();
        let mut scratch = SweepScratch::new();
        let (mut link_free, mut contended) = (0, 0);
        for arch in NoiArch::all() {
            let p = Platform25D::new(arch, &cfg).unwrap();
            for wl in dnn::table2() {
                let graphs = Platform25D::task_graphs(&wl);
                let outcome = p.churn_outcome_from_graphs(&graphs);
                let ws = Dataflow::WeightStationary;
                p.report_without_des(&wl, &graphs, &outcome, ws, &mut scratch);
                p.for_each_split_snapshot(&outcome, &mut scratch, |s| {
                    let mut start = 0;
                    for &(end, free) in &s.component_ends {
                        let flows = &s.component_flows[start..end];
                        start = end;
                        if !free {
                            contended += 1;
                            continue;
                        }
                        let (topo, rt) = (&p.topo, &p.route);
                        let des = simulate_with_scratch(
                            topo,
                            &cfg.hw,
                            flows,
                            &SNAPSHOT_SIM,
                            rt,
                            &mut s.sim,
                        );
                        let closed =
                            link_free_totals(topo, &cfg.hw, flows, &SNAPSHOT_SIM, rt, &mut s.sim);
                        assert_eq!(
                            closed,
                            des.totals(),
                            "{} on {}: {flows:?}",
                            wl.name,
                            p.arch_name()
                        );
                        link_free += 1;
                    }
                });
            }
        }
        // 2,900 of the grid's 3,732 components are link-free.
        assert_eq!((link_free, contended), (2_900, 832));
    }
}
