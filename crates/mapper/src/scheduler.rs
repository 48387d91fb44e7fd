//! Queue-based multi-wave scheduling of a concurrent DNN workload onto a
//! fixed chiplet system ("the mapping algorithm treats the list of tasks W
//! as a queue, assigning one DNN task at a time").
//!
//! Tasks are admitted from the queue front until one fails to map; that
//! closes the wave — the wave executes, every task completes and releases
//! its chiplets, and the next wave starts with the failed task. The
//! per-wave chiplet utilization at close time is the Fig. 4 metric.

use dnn::SegmentGraph;
use serde::Serialize;
use topology::{NodeId, Topology};

use crate::greedy::{map_task_greedy, GreedyConfig};
use crate::placement::{CapacityLedger, MapError, TaskId, TaskPlacement};
use crate::sfc::{map_task_sfc, map_task_sfc_from};

/// Named mapping-strategy axis: which [`Strategy`] family to build,
/// independent of the borrowed layout/topology it runs over.
///
/// This is the value that travels through scenario specs and the
/// `pim-bench --strategy` flag (mirroring `NoiArch::from_name`); the
/// platform layer turns it into a concrete [`Strategy`] instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum StrategyKind {
    /// Dataflow-aware SFC mapping along a Floret global order.
    Sfc,
    /// Greedy nearest-hop baseline over an arbitrary topology.
    Greedy,
}

impl StrategyKind {
    /// Every strategy kind, in canonical order.
    pub fn all() -> [StrategyKind; 2] {
        [StrategyKind::Sfc, StrategyKind::Greedy]
    }

    /// Canonical lowercase name (the inverse of [`StrategyKind::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Sfc => "sfc",
            StrategyKind::Greedy => "greedy",
        }
    }

    /// Parses a case-insensitive strategy name (`sfc`, `greedy`).
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        let canonical = name.to_ascii_lowercase();
        StrategyKind::all()
            .into_iter()
            .find(|k| k.name() == canonical)
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StrategyKind::from_name(s)
            .ok_or_else(|| format!("unknown strategy `{s}` (expected sfc or greedy)"))
    }
}

/// Mapping strategy for the scheduler.
#[derive(Clone, Debug)]
pub enum Strategy<'a> {
    /// Dataflow-aware SFC mapping along a Floret global order.
    Sfc {
        /// The SFC order ([`topology::FloretLayout::global_order`]).
        order: Vec<NodeId>,
    },
    /// Greedy nearest-hop baseline over an arbitrary topology.
    Greedy {
        /// The NoI to map onto.
        topo: &'a Topology,
        /// All-pairs hop distances of `topo`.
        apsp: Vec<Vec<u32>>,
        /// Locality constraint.
        cfg: GreedyConfig,
    },
}

impl<'a> Strategy<'a> {
    /// Builds the SFC strategy from a Floret layout.
    pub fn sfc(layout: &topology::FloretLayout) -> Strategy<'a> {
        Strategy::Sfc {
            order: layout.global_order(),
        }
    }

    /// Builds the greedy strategy for a topology.
    pub fn greedy(topo: &'a Topology, cfg: GreedyConfig) -> Strategy<'a> {
        Strategy::Greedy {
            topo,
            apsp: topo.all_pairs_hops(),
            cfg,
        }
    }

    /// The named kind of this strategy instance.
    pub fn kind(&self) -> StrategyKind {
        match self {
            Strategy::Sfc { .. } => StrategyKind::Sfc,
            Strategy::Greedy { .. } => StrategyKind::Greedy,
        }
    }

    /// Maps one task: the SFC resumes its scan at `cursor` (and
    /// advances it past the placement), the greedy searches under its
    /// locality constraint.
    pub(crate) fn map_task(
        &self,
        ledger: &mut CapacityLedger,
        cursor: &mut usize,
        task: TaskId,
        sg: &SegmentGraph,
    ) -> Result<TaskPlacement, MapError> {
        match self {
            Strategy::Sfc { order } => {
                let (tp, next) = map_task_sfc_from(ledger, order, *cursor, task, sg)?;
                *cursor = next;
                Ok(tp)
            }
            Strategy::Greedy { topo, apsp, cfg } => {
                map_task_greedy(ledger, topo, apsp, task, sg, cfg)
            }
        }
    }

    /// The last attempt for a task that failed on an empty system: the
    /// SFC scans its whole order from the start, the greedy lifts its
    /// locality constraint (radius = diameter). The cursor is left
    /// alone.
    fn map_task_relaxed(
        &self,
        ledger: &mut CapacityLedger,
        task: TaskId,
        sg: &SegmentGraph,
    ) -> Result<TaskPlacement, MapError> {
        match self {
            Strategy::Sfc { order } => map_task_sfc(ledger, order, task, sg),
            Strategy::Greedy { topo, apsp, .. } => {
                let cfg = GreedyConfig {
                    radius: topo.diameter(),
                };
                map_task_greedy(ledger, topo, apsp, task, sg, &cfg)
            }
        }
    }
}

/// One execution wave: the tasks resident together on the system.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Wave {
    /// Placements of the admitted tasks.
    pub placements: Vec<TaskPlacement>,
    /// Chiplets owned by any task when the wave closed.
    pub used_nodes: usize,
    /// Fraction of chiplets in use when the wave closed (Fig. 4 metric).
    pub utilization: f64,
}

/// Outcome of scheduling a whole workload queue.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct QueueOutcome {
    /// Execution waves in order.
    pub waves: Vec<Wave>,
    /// Tasks that could not be mapped even on an empty system.
    pub failed: Vec<TaskId>,
}

impl QueueOutcome {
    /// Total tasks successfully placed.
    pub fn mapped_tasks(&self) -> usize {
        self.waves.iter().map(|w| w.placements.len()).sum()
    }

    /// Mean per-wave utilization (resource-usage comparison of Fig. 4).
    pub fn mean_utilization(&self) -> f64 {
        if self.waves.is_empty() {
            return 0.0;
        }
        self.waves.iter().map(|w| w.utilization).sum::<f64>() / self.waves.len() as f64
    }
}

/// Schedules `tasks` (a queue, front first) onto `node_count` chiplets of
/// `capacity` weights each using `strategy`.
///
/// A task that fails on an *empty* system is retried once with the greedy
/// locality constraint lifted (radius = diameter); if it still fails it is
/// recorded in [`QueueOutcome::failed`] and skipped — otherwise the queue
/// would deadlock, mirroring the paper's sequential-queue deadlock-freedom
/// argument.
pub fn run_queue(
    tasks: &[SegmentGraph],
    node_count: usize,
    capacity: u64,
    strategy: &Strategy<'_>,
) -> QueueOutcome {
    let mut ledger = CapacityLedger::new(node_count, capacity);
    let mut waves = Vec::new();
    let mut failed = Vec::new();
    let mut current = Wave {
        placements: Vec::new(),
        used_nodes: 0,
        utilization: 0.0,
    };
    let mut cursor = 0usize;
    let mut idx = 0usize;
    while idx < tasks.len() {
        let task = TaskId(topology::narrow::u32_idx(idx));
        let sg = &tasks[idx];
        match strategy.map_task(&mut ledger, &mut cursor, task, sg) {
            Ok(tp) => {
                current.placements.push(tp);
                idx += 1;
            }
            Err(_) if current.placements.is_empty() => {
                // Empty system and still unmappable: retry unconstrained,
                // then give up on this task.
                match strategy.map_task_relaxed(&mut ledger, task, sg) {
                    Ok(tp) => {
                        current.placements.push(tp);
                        idx += 1;
                    }
                    Err(_) => {
                        failed.push(task);
                        idx += 1;
                    }
                }
            }
            Err(_) => {
                // Close the wave; all resident tasks complete and release.
                current.used_nodes = ledger.used_nodes();
                current.utilization = ledger.utilization();
                for tp in &current.placements {
                    ledger.release_task(tp.task);
                }
                waves.push(std::mem::replace(
                    &mut current,
                    Wave {
                        placements: Vec::new(),
                        used_nodes: 0,
                        utilization: 0.0,
                    },
                ));
                cursor = 0; // wave close empties the system
            }
        }
    }
    if !current.placements.is_empty() {
        current.used_nodes = ledger.used_nodes();
        current.utilization = ledger.utilization();
        waves.push(current);
    }
    QueueOutcome { waves, failed }
}

/// Outcome of the dynamic-churn scheduler.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChurnOutcome {
    /// Placement of every successfully mapped task, in admission order.
    /// Each placement reflects the fragmented system state at its
    /// admission time.
    pub placements: Vec<TaskPlacement>,
    /// Tasks that could not be mapped even on an empty system.
    pub failed: Vec<TaskId>,
    /// Mean chiplet utilization sampled right after each admission.
    pub mean_utilization: f64,
    /// Total number of forced task completions (departures) that were
    /// needed to admit the queue — a churn-pressure diagnostic.
    pub departures: usize,
    /// Resident task sets sampled right after each admission, in
    /// admission order (the co-running DNNs whose traffic shares the NoI
    /// at that instant).
    pub snapshots: Vec<Vec<TaskId>>,
}

/// Schedules `tasks` under dynamic churn: tasks are admitted from the
/// queue front; when the head does not fit, the *oldest* resident task
/// completes (FIFO service) and releases its chiplets, and admission is
/// retried. This reproduces the paper's dynamic setting where "as the
/// different DNN tasks complete, the chiplets used for that task need to
/// be reassigned to newer tasks" — the free space fragments, and the
/// quality of each strategy's placements under fragmentation drives the
/// Fig. 3/5 latency and energy gaps.
pub fn run_churn(
    tasks: &[SegmentGraph],
    node_count: usize,
    capacity: u64,
    strategy: &Strategy<'_>,
) -> ChurnOutcome {
    run_churn_with_ledger(tasks, CapacityLedger::new(node_count, capacity), strategy)
}

/// [`run_churn`] with a caller-prepared ledger — use
/// [`CapacityLedger::mark_failed`] beforehand to inject chiplet faults
/// and study graceful degradation (the SFC re-stitches around dead
/// chiplets).
pub fn run_churn_with_ledger(
    tasks: &[SegmentGraph],
    mut ledger: CapacityLedger,
    strategy: &Strategy<'_>,
) -> ChurnOutcome {
    let mut resident: std::collections::VecDeque<TaskId> = std::collections::VecDeque::new();
    let mut placements = Vec::new();
    let mut failed = Vec::new();
    let mut utils = Vec::new();
    let mut departures = 0usize;
    let mut snapshots: Vec<Vec<TaskId>> = Vec::new();
    let mut cursor = 0usize;

    for (idx, sg) in tasks.iter().enumerate() {
        let task = TaskId(topology::narrow::u32_idx(idx));
        loop {
            match strategy.map_task(&mut ledger, &mut cursor, task, sg) {
                Ok(tp) => {
                    resident.push_back(task);
                    placements.push(tp);
                    utils.push(ledger.utilization());
                    snapshots.push(resident.iter().copied().collect());
                    break;
                }
                Err(_) => {
                    if let Some(oldest) = resident.pop_front() {
                        ledger.release_task(oldest);
                        departures += 1;
                    } else {
                        // Empty system: retry unconstrained, else skip.
                        match strategy.map_task_relaxed(&mut ledger, task, sg) {
                            Ok(tp) => {
                                resident.push_back(task);
                                placements.push(tp);
                                utils.push(ledger.utilization());
                                snapshots.push(resident.iter().copied().collect());
                            }
                            Err(_) => failed.push(task),
                        }
                        break;
                    }
                }
            }
        }
    }

    ChurnOutcome {
        placements,
        failed,
        mean_utilization: if utils.is_empty() {
            0.0
        } else {
            utils.iter().sum::<f64>() / utils.len() as f64
        },
        departures,
        snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{build_model, Dataset, ModelKind};
    use topology::{floret, mesh2d, swap, SwapConfig};

    fn tasks(n: usize) -> Vec<SegmentGraph> {
        let g = build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        vec![sg; n]
    }

    #[test]
    fn sfc_queue_fills_then_waves() {
        let (_, layout) = floret(10, 10, 6).unwrap();
        let strategy = Strategy::sfc(&layout);
        // ResNet18 = 11.7M weights; capacity 1M/chiplet -> ~12 chiplets per
        // task -> 8 tasks per 100-chiplet wave.
        let out = run_queue(&tasks(20), 100, 1_000_000, &strategy);
        assert_eq!(out.mapped_tasks(), 20);
        assert!(out.failed.is_empty());
        assert!(out.waves.len() >= 2, "20 tasks must not fit one wave");
        // Every wave except possibly the last is nearly full.
        for w in &out.waves[..out.waves.len() - 1] {
            assert!(w.utilization > 0.85, "wave util {}", w.utilization);
        }
    }

    #[test]
    fn greedy_mesh_queue_completes() {
        let topo = mesh2d(10, 10).unwrap();
        let strategy = Strategy::greedy(&topo, GreedyConfig { radius: 2 });
        let out = run_queue(&tasks(12), 100, 1_000_000, &strategy);
        assert_eq!(out.mapped_tasks(), 12);
        assert!(out.failed.is_empty());
    }

    #[test]
    fn swap_wastes_resources_vs_floret() {
        // Fig. 4: the application-specific SWAP NoI leaves chiplets
        // unmapped under the greedy strategy, while Floret's SFC mapping
        // utilizes nearly all of them.
        let sw = swap(10, 10, &SwapConfig::default()).unwrap();
        let greedy = Strategy::greedy(&sw, GreedyConfig { radius: 2 });
        let out_swap = run_queue(&tasks(16), 100, 1_000_000, &greedy);

        let (_, layout) = floret(10, 10, 6).unwrap();
        let sfc = Strategy::sfc(&layout);
        let out_floret = run_queue(&tasks(16), 100, 1_000_000, &sfc);

        assert!(
            out_floret.mean_utilization() > out_swap.mean_utilization(),
            "floret util {} must beat swap {}",
            out_floret.mean_utilization(),
            out_swap.mean_utilization()
        );
        assert!(
            out_floret.waves.len() <= out_swap.waves.len(),
            "floret needs no more waves than swap"
        );
    }

    #[test]
    fn impossible_task_is_skipped_not_deadlocked() {
        let (_, layout) = floret(4, 4, 2).unwrap();
        let strategy = Strategy::sfc(&layout);
        // Capacity 1000 weights/chiplet, 16 chiplets: ResNet18 never fits.
        let out = run_queue(&tasks(3), 16, 1000, &strategy);
        assert_eq!(out.mapped_tasks(), 0);
        assert_eq!(out.failed.len(), 3);
    }

    #[test]
    fn churn_admits_everything_eventually() {
        let (_, layout) = floret(10, 10, 6).unwrap();
        let strategy = Strategy::sfc(&layout);
        let out = run_churn(&tasks(30), 100, 1_000_000, &strategy);
        assert_eq!(out.placements.len(), 30);
        assert!(out.failed.is_empty());
        assert!(out.departures > 0, "30 tasks must force departures");
        assert!(out.mean_utilization > 0.5);
    }

    #[test]
    fn churn_floret_stays_contiguous() {
        // FIFO departures + first-fit along the curve act like a ring
        // buffer: every placement stays contiguous along the SFC.
        let (_, layout) = floret(10, 10, 6).unwrap();
        let order = layout.global_order();
        let strategy = Strategy::sfc(&layout);
        let out = run_churn(&tasks(25), 100, 1_000_000, &strategy);
        let late = &out.placements[20]; // placed on a well-churned system
        let score = crate::sfc::contiguity_score(late, &order);
        assert!(
            score < 20.0,
            "late placements should stay near-contiguous, score {score}"
        );
    }

    #[test]
    fn strategy_kind_round_trips_and_rejects() {
        for kind in StrategyKind::all() {
            assert_eq!(StrategyKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<StrategyKind>(), Ok(kind));
            assert_eq!(
                kind.name().to_ascii_uppercase().parse::<StrategyKind>(),
                Ok(kind)
            );
        }
        assert!(StrategyKind::from_name("random").is_none());
        let err = "random".parse::<StrategyKind>().unwrap_err();
        assert!(err.contains("random"), "{err}");
    }

    #[test]
    fn strategy_reports_its_kind() {
        let (_, layout) = floret(4, 4, 2).unwrap();
        assert_eq!(Strategy::sfc(&layout).kind(), StrategyKind::Sfc);
        let topo = mesh2d(4, 4).unwrap();
        assert_eq!(
            Strategy::greedy(&topo, GreedyConfig { radius: 2 }).kind(),
            StrategyKind::Greedy
        );
    }

    #[test]
    fn empty_queue_is_empty_outcome() {
        let (_, layout) = floret(4, 4, 2).unwrap();
        let out = run_queue(&[], 16, 1000, &Strategy::sfc(&layout));
        assert!(out.waves.is_empty());
        assert!(out.failed.is_empty());
        assert_eq!(out.mean_utilization(), 0.0);
    }
}
