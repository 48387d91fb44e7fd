//! The traced `noi_hifi` cell: one (mix, architecture) cell rebuilt from
//! the public layer calls that `Platform25D::cost_churn_outcome` makes,
//! each inside a span, so the per-layer split of a cell is measured where
//! the work happens.
//!
//! The composition must reproduce the cell's `sim_latency_cycles` and
//! `analytical_latency_cycles` exactly; the benchmark checks that against
//! the untraced run, and a test checks it against `cost_churn_outcome`.

use dnn::{Dataflow, SegmentGraph};
use mapper::{transfers_for_batch_into, Transfer};
use netsim::{
    analyze_with_table, sample_flows_into, simulate_with_scratch, Flow, SimConfig, SimScratch,
};
use pim_core::{Platform25D, SweepRunner, SystemConfig, WorkloadReport};

use crate::trace::Tracer;
use crate::workloads::{Ops, SimOutcome};

/// The two cycle counts a composed cell must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCycles {
    /// DES makespans summed over the sampled resident-set snapshots.
    pub sim_latency_cycles: u64,
    /// Analytical makespans summed over tasks.
    pub analytical_latency_cycles: u64,
}

/// Reusable buffers of the composition.
#[derive(Debug, Default)]
pub struct ComposeScratch {
    transfers: Vec<Transfer>,
    task_flows: Vec<Vec<Flow>>,
    slot: Vec<Option<usize>>,
    snapshot_flows: Vec<Flow>,
    sampled: Vec<Flow>,
    sim: SimScratch,
}

/// Costs one weight-stationary cell from its layer calls: `churn`
/// (`churn_outcome_from_graphs`), `transfers` (`transfers_for_batch_into`),
/// `analytical` (`analyze_with_table`), `des` (`sample_flows_into` +
/// `simulate_with_scratch`) and `compute` (`segment_program_cost` +
/// `model_cost_with`), all under one `cell` span.
pub fn compose_cell(
    platform: &Platform25D,
    cfg: &SystemConfig,
    graphs: &[SegmentGraph],
    cell: u32,
    tracer: &mut Tracer,
    scratch: &mut ComposeScratch,
) -> CellCycles {
    let topo = platform.topology();
    let route = platform.route_table();
    let cell_span = tracer.enter("cell", cell);

    let outcome = tracer.time("churn", cell, || platform.churn_outcome_from_graphs(graphs));
    tracer.count("churn.cells", 1.0);

    let ComposeScratch {
        transfers,
        task_flows,
        slot,
        snapshot_flows,
        sampled,
        sim,
    } = scratch;
    task_flows.resize_with(outcome.placements.len(), Vec::new);
    task_flows.truncate(outcome.placements.len());
    slot.clear();
    for (i, tp) in outcome.placements.iter().enumerate() {
        tracer.time("transfers", cell, || {
            transfers_for_batch_into(
                tp,
                &graphs[tp.task.index()],
                cfg.activation_bytes,
                Dataflow::WeightStationary,
                u64::from(cfg.batch),
                transfers,
            );
        });
        tracer.count("transfers.count", transfers.len() as f64);
        let flows = &mut task_flows[i];
        flows.clear();
        flows.extend(transfers.iter().map(|t| Flow::new(t.src, t.dst, t.bytes)));
        if slot.len() <= tp.task.index() {
            slot.resize(tp.task.index() + 1, None);
        }
        slot[tp.task.index()] = Some(i);
    }

    let mut analytical_latency_cycles = 0u64;
    for flows in task_flows.iter().filter(|f| !f.is_empty()) {
        let ana = tracer.time("analytical", cell, || {
            analyze_with_table(topo, &cfg.hw, flows, route)
        });
        tracer.count("analytical.flows", flows.len() as f64);
        analytical_latency_cycles += ana.makespan_cycles;
    }

    let sim_cfg = SimConfig { packet_bytes: 256 };
    let every = cfg.snapshot_every.max(1) as usize;
    let n_snaps = outcome.snapshots.len();
    let mut sim_latency_cycles = 0u64;
    for (si, snap) in outcome.snapshots.iter().enumerate() {
        if si % every != 0 && si + 1 != n_snaps {
            continue;
        }
        snapshot_flows.clear();
        for t in snap {
            if let Some(Some(i)) = slot.get(t.index()) {
                snapshot_flows.extend_from_slice(&task_flows[*i]);
            }
        }
        if snapshot_flows.is_empty() {
            continue;
        }
        let report = tracer.time("des", cell, || {
            sample_flows_into(snapshot_flows, cfg.sim_sampling, sampled);
            simulate_with_scratch(topo, &cfg.hw, sampled, &sim_cfg, route, sim)
        });
        tracer.count("des.calls", 1.0);
        tracer.count("des.packets", report.packets as f64);
        tracer.count("des.heap_events", report.heap_events as f64);
        tracer.count("des.wait_cycles", report.total_channel_wait_cycles as f64);
        sim_latency_cycles += report.makespan_cycles;
    }

    for tp in &outcome.placements {
        let g = &graphs[tp.task.index()];
        tracer.time("compute", cell, || {
            for seg in g.segments() {
                std::hint::black_box(pim::segment_program_cost(seg, &cfg.pim));
            }
            std::hint::black_box(pim::model_cost_with(
                g,
                &cfg.pim,
                Dataflow::WeightStationary,
            ));
        });
        tracer.count("compute.segments", g.segment_count() as f64);
    }

    tracer.exit(cell_span);
    CellCycles {
        sim_latency_cycles,
        analytical_latency_cycles,
    }
}

/// The traced `noi_hifi` body: every (mix, architecture) cell of the grid
/// composed from its layer calls, one operation per cell, failed unless
/// it reproduces `reference` (the untraced cells, in grid order) exactly.
pub fn compose_grid(
    runner: &SweepRunner,
    graphs: &[Vec<SegmentGraph>],
    reference: &[WorkloadReport],
    tracer: &mut Tracer,
    scratch: &mut ComposeScratch,
) -> (Ops, SimOutcome) {
    let mut ops = Ops::default();
    let mut cycles = 0u64;
    let cells = graphs
        .iter()
        .flat_map(|g| runner.platforms().iter().map(move |p| (g, p)));
    for (i, ((g, platform), want)) in cells.zip(reference).enumerate() {
        let cell = u32::try_from(i).expect("cell index fits u32");
        let got = compose_cell(platform, runner.config(), g, cell, tracer, scratch);
        cycles += got.sim_latency_cycles;
        let same = got.sim_latency_cycles == want.sim_latency_cycles
            && got.analytical_latency_cycles == want.analytical_latency_cycles;
        ops.record((!same).then(|| {
            format!(
                "{} x {}: composed {got:?}, untraced sim {} / analytical {}",
                want.workload, want.arch, want.sim_latency_cycles, want.analytical_latency_cycles
            )
        }));
    }
    let sim = SimOutcome {
        noi_mcycles: Some(cycles as f64 / 1e6),
        ..SimOutcome::default()
    };
    (ops, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::NoiArch;

    #[test]
    fn composed_wl1_floret_matches_cost_churn_outcome() {
        let cfg = SystemConfig::datacenter_25d();
        let platform =
            Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg).expect("floret builds");
        let wl = dnn::table2_workload("WL1").expect("WL1");
        let graphs = Platform25D::task_graphs(&wl);
        let outcome = platform.churn_outcome_from_graphs(&graphs);
        let report =
            platform.cost_churn_outcome(&wl, &graphs, &outcome, Dataflow::WeightStationary);

        let mut tracer = Tracer::new();
        let mut scratch = ComposeScratch::default();
        // Twice through the same scratch: warm buffers must not leak state.
        for _ in 0..2 {
            let got = compose_cell(&platform, &cfg, &graphs, 0, &mut tracer, &mut scratch);
            assert_eq!(got.sim_latency_cycles, report.sim_latency_cycles);
            assert_eq!(
                got.analytical_latency_cycles,
                report.analytical_latency_cycles
            );
        }
        assert_eq!(tracer.counter("churn.cells"), 2.0);
        assert!(tracer.counter("des.packets") > 0.0);
        let self_times = tracer.self_times();
        for layer in ["churn", "transfers", "analytical", "des", "compute"] {
            assert!(self_times.contains_key(layer), "{layer} span missing");
        }
    }
}
