//! The four workloads: their set-up, their body, and the checks every
//! body outcome must pass.
//!
//! Each workload runs through the public entry points a user calls
//! (`experiments::registry`, `SweepRunner`, `simulate_serving`,
//! `simulate_resilient_serving`) with `threads = 1`. Set-up and body are
//! separate functions so the harness can time fresh set-ups on their own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

use dnn::{build_model, Dataflow, SegmentGraph, Workload};
use pim_core::experiments::registry;
use pim_core::{
    simulate_resilient_serving, simulate_serving, CellValue, ExperimentOutput, FaultPlan,
    FaultSpec, LoadPointOutcome, NoiArch, ResilienceOutcome, ResilienceParams,
    ResiliencePointOutcome, RunContext, Scenario, ScenarioError, ServingOutcome, ServingSpec,
    SystemConfig, Table, WorkloadReport,
};

use crate::clock::Calibration;
use crate::trace::Tracer;

/// The paper-pinned serving arrival seed.
pub const SERVING_SEED: u64 = 0x5E41;
/// Mixed into the serving seed to seed the fault plan, as the
/// `resilience` experiment does.
pub const FAULT_SEED_MIX: u64 = 0xFA17;
/// Simulated horizon of the `serving` and `resilience` workloads, ms.
pub const SERVING_HORIZON_MS: f64 = 5_000.0;
/// Re-mapping stall charged to surviving chips per chip loss, ns (the
/// `resilience` experiment's per-task remap cost).
pub const REMAP_PENALTY_NS: u64 = 50_000;
/// Traffic sampling of the `noi_hifi` workload (the default is 64).
pub const NOI_HIFI_SAMPLING: u64 = 8;
/// Calibration-kernel runs after each public call of a body made of many
/// (an experiment of `paper_all`, a mix of `noi_hifi`). A lap of those
/// bodies lasts seconds, and kernel runs only at its ends tracked the
/// host's speed during it poorly.
pub const INTRA_REPS: usize = 2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run all` over the default scenario.
    PaperAll,
    /// The Fig. 3 grid at `sim_sampling = 8`.
    NoiHifi,
    /// A healthy 8-chip serving fleet.
    Serving,
    /// The same fleet under the default fault spec.
    Resilience,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperAll,
        Kind::NoiHifi,
        Kind::Serving,
        Kind::Resilience,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperAll => "paper_all",
            Kind::NoiHifi => "noi_hifi",
            Kind::Serving => "serving",
            Kind::Resilience => "resilience",
        }
    }

    /// The simulated end-to-end metrics the workload produces. A run that
    /// lacks one of them fails; every other simulated metric prints the
    /// placeholder.
    pub fn simulated(self) -> &'static [&'static str] {
        match self {
            Kind::PaperAll => &["noi_mcycles", "srch_edp_ratio"],
            Kind::NoiHifi => &["noi_mcycles"],
            Kind::Serving | Kind::Resilience => &["slo_attainment", "p99_ms"],
        }
    }
}

impl FromStr for Kind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// The seeds one run feeds the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// `Scenario.seed`; `None` keeps every experiment's paper seed.
    pub scenario: Option<u64>,
    /// Serving arrival-stream seed.
    pub serving: u64,
    /// Fault-plan seed.
    pub faults: u64,
}

impl Seeds {
    /// The paper seeds: 0x5E41 for serving, 0x5E41 ^ 0xFA17 for faults,
    /// and each experiment's own (0x3D0C for the joint SA).
    pub fn paper() -> Seeds {
        Seeds {
            scenario: None,
            serving: SERVING_SEED,
            faults: SERVING_SEED ^ FAULT_SEED_MIX,
        }
    }

    /// One benchmark seed fed to every stochastic input.
    pub fn from_seed(seed: u64) -> Seeds {
        Seeds {
            scenario: Some(seed),
            serving: seed,
            faults: seed ^ FAULT_SEED_MIX,
        }
    }
}

/// Simulated results of one body run. They repeat exactly for a given
/// seed; `None` where the workload does not simulate that quantity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimOutcome {
    /// Sum of DES `sim_latency_cycles` over the Fig. 3 cells, Mcycles.
    pub noi_mcycles: Option<f64>,
    /// Geometric mean over `mapping_search` cells of searched EDP over
    /// the best hand-mode EDP.
    pub srch_edp_ratio: Option<f64>,
    /// Share of offered requests served within the SLO, all load points.
    pub slo_attainment: Option<f64>,
    /// p99 end-to-end latency at the lower load point, simulated ms.
    pub p99_ms: Option<f64>,
}

impl SimOutcome {
    /// Every simulated end-to-end metric as `(name, value, unit)`, in
    /// `BENCHMARK.json` order.
    pub fn metrics(&self) -> [(&'static str, Option<f64>, &'static str); 4] {
        [
            ("noi_mcycles", self.noi_mcycles, "Mcycle"),
            ("srch_edp_ratio", self.srch_edp_ratio, "ratio"),
            ("slo_attainment", self.slo_attainment, "fraction"),
            ("p99_ms", self.p99_ms, "sim_ms"),
        ]
    }

    /// The metrics `kind` simulates that this outcome lacks.
    pub fn missing(&self, kind: Kind) -> Vec<&'static str> {
        self.metrics()
            .into_iter()
            .filter(|(name, value, _)| value.is_none() && kind.simulated().contains(name))
            .map(|(name, ..)| name)
            .collect()
    }
}

/// Operations of one body run and the ones that failed, with reasons.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    /// Operations run.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation, failed when `failure` is set.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// One operation per item, failed where the item is set.
    pub fn from_failures(failures: impl Iterator<Item = Option<String>>) -> Ops {
        let mut ops = Ops::default();
        failures.for_each(|f| ops.record(f));
        ops
    }
}

/// What a workload's set-up produced.
pub enum Setup {
    /// `paper_all` and `noi_hifi`: the scenario's context with its engine
    /// built, plus (`noi_hifi`) the task graphs of every mix.
    Noi {
        /// Run context with the `SweepRunner` built (boxed: it dwarfs
        /// the other variant).
        ctx: Box<RunContext>,
        /// The scenario's mixes, in order.
        workloads: Vec<Workload>,
        /// Task graphs per mix (`noi_hifi` only; empty otherwise).
        graphs: Vec<Vec<SegmentGraph>>,
    },
    /// `serving` and `resilience`: the spec, the tenant service
    /// latencies, and (`resilience`) the fault parameters.
    Serving {
        /// The serving spec.
        spec: ServingSpec,
        /// Per-tenant single-request service latency, ns.
        service_ns: Vec<u64>,
        /// Fault parameters (`resilience` only).
        faults: Option<ResilienceParams>,
    },
}

/// The serving spec of the `serving` and `resilience` workloads: 8 chips,
/// the default three-tenant mix at 4x its rates, load points 0.9 and 1.5,
/// queue depth 64, default batching window, batch size and SLO.
pub fn serving_spec() -> ServingSpec {
    let mut spec = ServingSpec {
        fleet: 8,
        horizon_ms: SERVING_HORIZON_MS,
        queue_depth: 64,
        loads: vec![0.9, 1.5],
        ..ServingSpec::default()
    };
    for t in &mut spec.tenants {
        t.rate_rps *= 4.0;
    }
    spec
}

/// The scenario of a NoI workload.
pub fn noi_scenario(kind: Kind, seeds: Seeds) -> Scenario {
    let mut s = match kind {
        Kind::NoiHifi => {
            let mut s = Scenario::new("fig3");
            s.overrides
                .push(("sim_sampling".into(), NOI_HIFI_SAMPLING.to_string()));
            s
        }
        _ => Scenario::new("all"),
    };
    s.threads = Some(1);
    s.seed = seeds.scenario;
    s
}

/// Runs `f` as a call into layer `name`, inside a span when tracing.
pub fn in_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    cell: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(name, cell, f),
        None => f(),
    }
}

/// One fresh set-up of `kind`.
///
/// NoI workloads resolve the scenario and build the four `Platform25D`s
/// (topology and route tables); `noi_hifi` adds the task graphs of the
/// five mixes. `serving` derives the tenant service latencies;
/// `resilience` adds the fault plan over the Floret fabric.
///
/// # Errors
///
/// Scenario resolution or platform construction errors.
pub fn setup(
    kind: Kind,
    seeds: Seeds,
    mut tracer: Option<&mut Tracer>,
) -> Result<Setup, ScenarioError> {
    match kind {
        Kind::PaperAll | Kind::NoiHifi => {
            let ctx = RunContext::new_with_cache(noi_scenario(kind, seeds).resolve()?, true);
            in_span(&mut tracer, "platforms", 0, || ctx.runner().map(|_| ()))?;
            let workloads = ctx.scenario().workload_set();
            let graphs = if kind == Kind::NoiHifi {
                in_span(&mut tracer, "graphs", 0, || {
                    workloads
                        .iter()
                        .map(pim_core::Platform25D::task_graphs)
                        .collect()
                })
            } else {
                Vec::new()
            };
            Ok(Setup::Noi {
                ctx: Box::new(ctx),
                workloads,
                graphs,
            })
        }
        Kind::Serving | Kind::Resilience => {
            let spec = serving_spec();
            spec.validate()?;
            let cfg = SystemConfig::datacenter_25d();
            let service_ns = tenant_service_ns(&spec, &cfg, &mut tracer);
            let faults = if kind == Kind::Resilience {
                let fspec = FaultSpec::default();
                fspec.validate()?;
                let (topo, _) = in_span(&mut tracer, "platforms", 0, || {
                    NoiArch::Floret { lambda: 6 }.build(cfg.width, cfg.height)
                })?;
                let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;
                let plan = in_span(&mut tracer, "faults", 0, || {
                    FaultPlan::generate(
                        &fspec,
                        spec.fleet,
                        topo.link_count(),
                        horizon_ns,
                        seeds.faults,
                    )
                });
                Some(ResilienceParams::from_spec(&fspec, plan, REMAP_PENALTY_NS))
            } else {
                None
            };
            Ok(Setup::Serving {
                spec,
                service_ns,
                faults,
            })
        }
    }
}

/// Per-tenant single-request service latency from the PIM compute cost
/// model under weight-stationary dataflow — the derivation the `serving`
/// and `resilience` experiments use.
fn tenant_service_ns(
    spec: &ServingSpec,
    cfg: &SystemConfig,
    tracer: &mut Option<&mut Tracer>,
) -> Vec<u64> {
    spec.tenants
        .iter()
        .map(|t| {
            let e = dnn::table1_entry(&t.model).expect("validated tenant model");
            let sg = in_span(tracer, "graphs", 0, || {
                let g = build_model(e.kind, e.dataset).expect("table models build");
                SegmentGraph::from_layer_graph(&g)
            });
            let cost = in_span(tracer, "compute", 0, || {
                pim::model_cost_with(&sg, &cfg.pim, Dataflow::WeightStationary)
            });
            if let Some(t) = tracer {
                t.count("compute.segments", sg.segment_count() as f64);
            }
            (cost.latency_ns.round() as u64).max(1)
        })
        .collect()
}

/// Runs one experiment, turning a panic into an error.
pub fn run_experiment(ctx: &RunContext, name: &str) -> Result<ExperimentOutput, String> {
    catch_unwind(AssertUnwindSafe(|| registry().run(ctx, name)))
        .map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            format!("panicked: {msg}")
        })?
        .map_err(|e| e.to_string())
}

/// The span a traced `paper_all` run times an experiment under.
pub fn experiment_span(name: &str) -> &'static str {
    match name {
        "fig3" => "exp.fig3",
        "fig4" => "exp.fig4",
        "dataflows" => "exp.dataflows",
        "mapping_search" => "exp.mapping_search",
        "fig6" => "exp.fig6",
        "fig7" => "exp.fig7",
        "pareto" => "exp.pareto",
        _ => "exp.rest",
    }
}

/// The `paper_all` body: every registered experiment in registry order
/// against one context, one operation each, with [`INTRA_REPS`]
/// calibration samples after each. With a tracer, each experiment gets a
/// span (cell id = its registry index) and its evaluation-cache hits and
/// misses are counted.
pub fn paper_all_body(
    ctx: &RunContext,
    mut tracer: Option<&mut Tracer>,
    calib: &mut Calibration,
) -> (Ops, SimOutcome) {
    let mut ops = Ops::default();
    let mut sim = SimOutcome::default();
    for (i, name) in registry().names().into_iter().enumerate() {
        let out = match tracer.as_deref_mut() {
            Some(t) => {
                let before = ctx.cache_stats().unwrap_or_default();
                let cell = u32::try_from(i).expect("experiment index fits u32");
                let out = t.time(experiment_span(name), cell, || run_experiment(ctx, name));
                let delta = ctx.cache_stats().unwrap_or_default().since(before);
                t.count("cache.hits", delta.hits as f64);
                t.count("cache.misses", delta.misses as f64);
                out
            }
            None => run_experiment(ctx, name),
        };
        ops.record(check_experiment(name, &out, &mut sim));
        calib.sample(INTRA_REPS);
    }
    (ops, sim)
}

fn num(c: &CellValue) -> Option<f64> {
    match c {
        CellValue::Float(v) | CellValue::Duration(v) => Some(*v),
        CellValue::UInt(v) => Some(*v as f64),
        CellValue::Int(v) => Some(*v as f64),
        CellValue::Str(_) => None,
    }
}

fn column_values(t: &Table, name: &str) -> Option<Vec<f64>> {
    let i = t.columns.iter().position(|c| c.name == name)?;
    t.rows.iter().map(|r| r.get(i).and_then(num)).collect()
}

fn fig3_mcycles(table: &Table) -> Option<f64> {
    let cycles = column_values(table, "latency(cyc)")?;
    (!cycles.is_empty()).then(|| cycles.iter().sum::<f64>() / 1e6)
}

fn srch_edp_geomean(table: &Table) -> Option<f64> {
    let ratios = column_values(table, "srch/best")?;
    if ratios.is_empty() || ratios.iter().any(|&r| r <= 0.0) {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// Checks one `paper_all` experiment and takes its simulated metric, if it
/// has one, into `sim`. Returns why the operation failed, if it did: an
/// error or panic, a failed [`ExperimentOutput::validate`], a `fig3` or
/// `mapping_search` output the metric cannot be read from, or a
/// `mapping_search` cell whose searched EDP exceeds the best hand mode.
pub fn check_experiment(
    name: &str,
    out: &Result<ExperimentOutput, String>,
    sim: &mut SimOutcome,
) -> Option<String> {
    let out = match out {
        Ok(out) => out,
        Err(e) => return Some(format!("{name}: {e}")),
    };
    if let Err(e) = out.validate() {
        return Some(format!("{name}: invalid output: {e}"));
    }
    if name != "fig3" && name != "mapping_search" {
        return None;
    }
    let Some(table) = out.tables.first() else {
        return Some(format!("{name}: no table"));
    };
    if name == "fig3" {
        sim.noi_mcycles = fig3_mcycles(table);
        return sim
            .noi_mcycles
            .is_none()
            .then(|| "fig3: no `latency(cyc)` cycles to sum".to_string());
    }
    let (Some(best), Some(srch)) = (
        column_values(table, "best hand"),
        column_values(table, "SRCH"),
    ) else {
        return Some("mapping_search: missing `best hand`/`SRCH` columns".to_string());
    };
    if let Some(row) = best.iter().zip(&srch).position(|(b, s)| s > b) {
        return Some(format!(
            "mapping_search: row {row} searched EDP {} > best hand {}",
            srch[row], best[row]
        ));
    }
    sim.srch_edp_ratio = srch_edp_geomean(table);
    sim.srch_edp_ratio
        .is_none()
        .then(|| "mapping_search: no positive `srch/best` ratios".to_string())
}

/// The `noi_hifi` body: the (mix x architecture) weight-stationary grid
/// through the scenario's engine, one `run_workloads` call per mix with
/// [`INTRA_REPS`] calibration samples after each, one operation per cell.
///
/// # Errors
///
/// Engine construction errors (the set-up already built it).
pub fn noi_hifi_body(
    ctx: &RunContext,
    workloads: &[Workload],
    graphs: &[Vec<SegmentGraph>],
    calib: &mut Calibration,
) -> Result<(Ops, SimOutcome, Vec<WorkloadReport>), ScenarioError> {
    let runner = ctx.runner()?;
    let mut ops = Ops::default();
    let mut reports = Vec::new();
    for (w, g) in workloads.iter().zip(graphs) {
        let cells = runner.run_workloads(std::slice::from_ref(w));
        calib.sample(INTRA_REPS);
        for r in &cells {
            ops.record(cell_failure(r, g.len()));
        }
        reports.extend(cells);
    }
    let cycles: u64 = reports.iter().map(|r| r.sim_latency_cycles).sum();
    let sim = SimOutcome {
        noi_mcycles: Some(cycles as f64 / 1e6),
        ..SimOutcome::default()
    };
    Ok((ops, sim, reports))
}

/// Why one `noi_hifi` cell failed, if it did: every task must map and the
/// DES must have delivered packets.
pub fn cell_failure(r: &WorkloadReport, tasks: usize) -> Option<String> {
    if r.failed_tasks != 0 || r.mapped_tasks != tasks {
        return Some(format!(
            "{} x {}: mapped {} of {tasks} tasks ({} failed)",
            r.workload, r.arch, r.mapped_tasks, r.failed_tasks
        ));
    }
    if r.sim_latency_cycles == 0 || r.mean_packet_latency_cycles <= 0.0 {
        return Some(format!(
            "{} x {}: the DES delivered no packets",
            r.workload, r.arch
        ));
    }
    None
}

/// The `serving` body: the healthy per-chip loop over both load points,
/// one operation per load point.
pub fn serving_body(
    spec: &ServingSpec,
    service_ns: &[u64],
    seeds: Seeds,
) -> (Ops, SimOutcome, ServingOutcome) {
    let out = simulate_serving(spec, service_ns, seeds.serving, 1);
    let points = out.per_load.iter();
    let ops = Ops::from_failures(points.clone().map(serving_point_failure));
    let sim = serving_sim(points.map(|lp| (lp.offered, lp.slo_attainment, lp.p99_ns)));
    (ops, sim, out)
}

/// The `resilience` body: the fault-aware fleet loop over both load
/// points, one operation per load point.
pub fn resilience_body(
    spec: &ServingSpec,
    params: &ResilienceParams,
    service_ns: &[u64],
    seeds: Seeds,
) -> (Ops, SimOutcome, ResilienceOutcome) {
    let out = simulate_resilient_serving(spec, params, service_ns, seeds.serving, 1);
    let points = out.per_load.iter();
    let ops = Ops::from_failures(points.clone().map(resilience_point_failure));
    let sim = serving_sim(points.map(|lp| (lp.offered, lp.slo_attainment, lp.p99_ns)));
    (ops, sim, out)
}

/// The simulated metrics of a serving sweep from each load point's
/// `(offered, slo_attainment, p99_ns)`: SLO attainment weighted by the
/// offered requests, and the p99 of the first (lower) load point.
fn serving_sim(points: impl Iterator<Item = (u64, f64, u64)>) -> SimOutcome {
    let (mut offered, mut met, mut p99_ns) = (0u64, 0.0, None);
    for (n, attainment, p99) in points {
        offered += n;
        met += attainment * n as f64;
        p99_ns.get_or_insert(p99);
    }
    SimOutcome {
        slo_attainment: (offered > 0).then(|| met / offered as f64),
        p99_ms: p99_ns.map(|ns| ns as f64 / 1e6),
        ..SimOutcome::default()
    }
}

/// Why one healthy serving load point failed, if it did: offered must
/// equal completed + rejected.
pub fn serving_point_failure(lp: &LoadPointOutcome) -> Option<String> {
    (lp.offered != lp.completed + lp.rejected).then(|| {
        format!(
            "load {}: offered {} != completed {} + rejected {}",
            lp.load, lp.offered, lp.completed, lp.rejected
        )
    })
}

/// Why one resilient serving load point failed, if it did: offered must
/// equal completed + rejected + timed out.
pub fn resilience_point_failure(lp: &ResiliencePointOutcome) -> Option<String> {
    (lp.offered != lp.completed + lp.rejected + lp.timed_out).then(|| {
        format!(
            "load {}: offered {} != completed {} + rejected {} + timed out {}",
            lp.load, lp.offered, lp.completed, lp.rejected, lp.timed_out
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::{Column, ResilienceParams};

    fn short_spec() -> ServingSpec {
        ServingSpec {
            horizon_ms: 200.0,
            ..serving_spec()
        }
    }

    fn service_ns(spec: &ServingSpec) -> Vec<u64> {
        tenant_service_ns(spec, &SystemConfig::datacenter_25d(), &mut None)
    }

    fn search_output(best: f64, srch: f64) -> ExperimentOutput {
        let mut out = ExperimentOutput::new("mapping_search", "");
        let mut t = Table::new(
            "mapping search",
            vec![
                Column::float("best hand", 3),
                Column::float("SRCH", 3),
                Column::ratio("srch/best"),
            ],
        );
        t.push(vec![
            CellValue::Float(best),
            CellValue::Float(srch),
            CellValue::Float(srch / best),
        ]);
        out.tables.push(t);
        out
    }

    fn cell(failed: usize, sim_cycles: u64) -> WorkloadReport {
        WorkloadReport {
            arch: "Floret".into(),
            workload: "WL1".into(),
            dataflow: "WS".into(),
            departures: 3,
            mean_utilization: 0.8,
            mapped_tasks: 28 - failed,
            failed_tasks: failed,
            sim_latency_cycles: sim_cycles,
            mean_packet_latency_cycles: if sim_cycles == 0 { 0.0 } else { 12.5 },
            analytical_latency_cycles: 900,
            noi_energy_pj: 1.0,
            noi_dynamic_energy_pj: 0.5,
            mean_weighted_hops: 2.0,
            total_traffic_bytes: 4096,
            program_energy_pj: 1.0,
            program_latency_ns: 1.0,
            compute_energy_pj: 1.0,
            compute_latency_ns: 1.0,
        }
    }

    fn fig3_output(column: &str) -> ExperimentOutput {
        let mut out = ExperimentOutput::new("fig3", "");
        let mut t = Table::new("fig3", vec![Column::uint(column)]);
        t.push(vec![CellValue::UInt(1_500_000)]);
        t.push(vec![CellValue::UInt(500_000)]);
        out.tables.push(t);
        out
    }

    fn check(name: &str, out: Result<ExperimentOutput, String>) -> (Option<String>, SimOutcome) {
        let mut sim = SimOutcome::default();
        (check_experiment(name, &out, &mut sim), sim)
    }

    #[test]
    fn experiment_check_fires_on_errors_invalid_tables_and_lost_searches() {
        let (failure, sim) = check("mapping_search", Ok(search_output(2.0, 1.0)));
        assert_eq!((failure, sim.srch_edp_ratio), (None, Some(0.5)));
        assert!(check("fig3", Err("panicked: boom".into())).0.is_some());

        let mut invalid = ExperimentOutput::new("fig3", "");
        let mut t = Table::new("t", vec![Column::uint("n")]);
        t.rows.push(vec![CellValue::Str("not a number".into())]);
        invalid.tables.push(t);
        assert!(check("fig3", Ok(invalid))
            .0
            .is_some_and(|f| f.contains("invalid output")));

        let lost = check("mapping_search", Ok(search_output(2.0, 2.5))).0;
        assert!(lost.is_some_and(|f| f.contains("searched EDP")));
    }

    #[test]
    fn experiment_check_fires_when_a_simulated_metric_cannot_be_read() {
        let (failure, sim) = check("fig3", Ok(fig3_output("latency(cyc)")));
        assert_eq!((failure, sim.noi_mcycles), (None, Some(2.0)));

        // Each doctored output still validates, so only the metric check
        // can catch it.
        let no_column = fig3_output("cycles");
        assert!(no_column.validate().is_ok());
        assert!(check("fig3", Ok(no_column)).0.is_some());
        for name in ["fig3", "mapping_search"] {
            let empty = ExperimentOutput::new(name, "");
            assert!(empty.validate().is_ok());
            assert!(check(name, Ok(empty))
                .0
                .is_some_and(|f| f.contains("no table")));
        }
        let mut no_ratio = search_output(2.0, 1.0);
        no_ratio.tables[0].rows[0][2] = CellValue::Float(0.0);
        assert!(check("mapping_search", Ok(no_ratio)).0.is_some());
    }

    #[test]
    fn a_run_without_its_simulated_metrics_is_caught() {
        for kind in Kind::ALL {
            assert_eq!(
                SimOutcome::default().missing(kind),
                kind.simulated().to_vec()
            );
        }
        let serving = serving_sim([(100, 0.5, 2_000_000), (300, 0.25, 9_000_000)].into_iter());
        assert_eq!(serving.slo_attainment, Some(0.3125));
        assert_eq!(serving.p99_ms, Some(2.0));
        assert!(serving.missing(Kind::Serving).is_empty());
        assert_eq!(
            serving_sim(std::iter::empty()).missing(Kind::Resilience),
            ["slo_attainment", "p99_ms"]
        );
    }

    #[test]
    fn cell_check_fires_on_unmapped_tasks_and_silent_des() {
        assert_eq!(cell_failure(&cell(0, 1_000), 28), None);
        assert!(cell_failure(&cell(1, 1_000), 28).is_some());
        assert!(cell_failure(&cell(0, 1_000), 29).is_some());
        assert!(cell_failure(&cell(0, 0), 28).is_some());
    }

    #[test]
    fn conservation_checks_fire_on_doctored_load_points() {
        let spec = short_spec();
        let svc = service_ns(&spec);
        let (ops, _, out) = serving_body(&spec, &svc, Seeds::paper());
        assert_eq!((ops.attempted, ops.failures.len()), (2, 0));
        let mut lp = out.per_load[1].clone();
        assert_eq!(serving_point_failure(&lp), None);
        lp.completed += 1;
        assert!(serving_point_failure(&lp).is_some());

        let plan = FaultPlan::generate(&FaultSpec::default(), spec.fleet, 64, 200_000_000, 7);
        let params = ResilienceParams::from_spec(&FaultSpec::default(), plan, REMAP_PENALTY_NS);
        let (ops, _, out) = resilience_body(&spec, &params, &svc, Seeds::paper());
        assert_eq!((ops.attempted, ops.failures.len()), (2, 0));
        let mut lp = out.per_load[0].clone();
        assert_eq!(resilience_point_failure(&lp), None);
        lp.timed_out += 1;
        assert!(resilience_point_failure(&lp).is_some());
    }

    #[test]
    fn serving_runs_repeat_their_simulated_metrics_exactly() {
        let spec = short_spec();
        let svc = service_ns(&spec);
        let seeds = Seeds::from_seed(3);
        let (_, a, out_a) = serving_body(&spec, &svc, seeds);
        let (_, b, out_b) = serving_body(&spec, &svc, seeds);
        assert_eq!(a, b);
        assert_eq!(out_a.events, out_b.events);
        assert!(a.slo_attainment.is_some_and(|s| s > 0.0 && s <= 1.0));
        assert!(a.p99_ms.is_some_and(|p| p > 0.0));
        let (_, other, _) = serving_body(&spec, &svc, Seeds::from_seed(4));
        assert_ne!(a, other, "the seed reaches the arrival streams");
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(k.name().parse::<Kind>(), Ok(k));
        }
        assert!("fig3".parse::<Kind>().is_err());
        assert_eq!(Seeds::from_seed(5).faults, 5 ^ FAULT_SEED_MIX);
    }
}
