//! One entry point per paper artifact (tables, figures, analyses), plus
//! the standard [`ExperimentRegistry`] ([`registry`]) where every
//! artifact is registered once — name, description, run function — and
//! returns a uniform [`ExperimentOutput`]. The `pim-bench` CLI resolves
//! [`crate::Scenario`] specs against it; the integration tests assert
//! the entry points' shape against the paper's claims.

use std::sync::OnceLock;

use cost::CostModel;
use dnn::{
    build_model, lifetime_inferences, storage_sweep, table1, table2, BertConfig, Dataset,
    ModelKind, SegmentGraph, StorageRow, Table1Entry, Workload,
};
use mapper::{run_poisson, ArrivalConfig};
use netsim::{
    analyze, analyze_with_table, generate_pattern, generate_pipeline, simulate_faulty_with_scratch,
    simulate_with_table, LinkFaults, RouteTable, SimConfig, SimScratch, TrafficPattern,
};
use opt::{NsgaConfig, SaConfig};
use serde::{Deserialize, Serialize};
use thermal::ThermalConfig;
use topology::{kite, kite_with_skips, NodeId};

use crate::arch::NoiArch;
use crate::config::SystemConfig;
use crate::faults::FaultPlan;
use crate::hetero::{transformer_design_points, HeteroConfig};
use crate::platform25::{Platform25D, WorkloadReport};
use crate::platform3d::{PlacementEval, Platform3D};
use crate::scenario::{
    CellValue, Column, ExperimentOutput, ExperimentRegistry, ExperimentSpec, Histogram,
    ResolvedScenario, RunContext, ScenarioError, Table,
};
use crate::serving::{simulate_resilient_serving, simulate_serving, ResilienceParams, ServingSpec};
use crate::sweep::{parallel_map, SweepRunner};

/// Table I row: paper's printed parameter count next to ours.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Workload id (`M1`..`M13`).
    pub id: String,
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Paper's printed parameter count, millions.
    pub paper_params_m: f64,
    /// Our computed parameter count, millions.
    pub computed_params_m: f64,
}

/// Regenerates Table I.
pub fn table1_rows() -> Vec<Table1Row> {
    table1()
        .into_iter()
        .map(|e: Table1Entry| {
            let g = build_model(e.kind, e.dataset).expect("table models build");
            Table1Row {
                id: e.id.to_string(),
                model: e.kind.to_string(),
                dataset: e.dataset.to_string(),
                paper_params_m: e.paper_params_m,
                computed_params_m: g.total_params() as f64 / 1e6,
            }
        })
        .collect()
}

/// Table II row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Mix name (`WL1`..`WL5`).
    pub name: String,
    /// Task instances in the mix.
    pub tasks: usize,
    /// Paper's printed total parameters, billions.
    pub paper_total_b: f64,
    /// Our computed total, billions.
    pub computed_total_b: f64,
}

/// Regenerates Table II.
pub fn table2_rows() -> Vec<Table2Row> {
    table2()
        .into_iter()
        .map(|wl| {
            let computed = wl.computed_total_params() as f64 / 1e9;
            Table2Row {
                tasks: wl.task_count(),
                paper_total_b: wl.paper_total_params_b,
                computed_total_b: computed,
                name: wl.name,
            }
        })
        .collect()
}

/// Cost-comparison row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostRow {
    /// Architecture name.
    pub arch: String,
    /// NoI silicon area, mm².
    pub noi_area_mm2: f64,
    /// Fabrication cost normalized to the AMD reference (Eq. 2).
    pub relative_cost: f64,
    /// Cost ratio over Floret (Eq. 5).
    pub ratio_vs_floret: f64,
}

/// Regenerates the Section II fabrication-cost comparison on the
/// engine's platforms. Ratios are normalized to Floret, or to the
/// engine's first architecture when a scenario's subset excludes Floret.
pub fn cost_rows(runner: &SweepRunner) -> Vec<CostRow> {
    let model = CostModel::default();
    let areas: Vec<(String, f64)> = runner
        .platforms()
        .iter()
        .map(|p| (p.arch_name().to_string(), p.noi_area_mm2()))
        .collect();
    let floret_area = areas
        .iter()
        .find(|(n, _)| n == "Floret")
        .unwrap_or(&areas[0])
        .1;
    areas
        .into_iter()
        .map(|(arch, area)| CostRow {
            arch,
            noi_area_mm2: area,
            relative_cost: model.relative_cost(area),
            ratio_vs_floret: model.cost_ratio(area, floret_area),
        })
        .collect()
}

/// Fig. 6 row: one DNN on the 100-PE 3D system, Floret-enabled
/// (performance-only) vs joint performance-thermal optimized NoC.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Workload id (Table I).
    pub id: String,
    /// Model name.
    pub model: String,
    /// Performance-only (SFC order) evaluation.
    pub floret: PlacementEval,
    /// Joint performance-thermal evaluation.
    pub joint: PlacementEval,
}

/// The five DNNs of Figs. 6 (`W1..W5` = Table I `M9, M10, M11, M12, M13`,
/// the CIFAR-10 rows, which fit the 52M-weight 100-PE stack; the paper's
/// ImageNet M1-M5 need the 2.5D datacenter capacity).
pub fn fig6_models() -> Vec<Table1Entry> {
    table1()
        .into_iter()
        .filter(|e| ["M9", "M10", "M11", "M12", "M13"].contains(&e.id))
        .collect()
}

/// The default annealing schedule for the joint design point.
pub fn joint_sa_config() -> SaConfig {
    SaConfig {
        iterations: 400,
        t_start: 0.5,
        t_end: 1e-3,
        weights: vec![1.0, 0.5],
        seed: 0x3D_0C,
    }
}

/// Regenerates Fig. 6 (EDP, peak temperature, accuracy impact). The 3D
/// platform is built once and the per-model optimization runs (each a
/// pure function of its seeded annealing schedule) fan across `threads`
/// scoped workers; output order and values match the sequential loop
/// exactly, for any worker count.
///
/// # Errors
///
/// [`ScenarioError::Topology`] when `cfg` builds no 3D NoC,
/// [`ScenarioError::Thermal`] when its thermal grid cannot be factored and
/// [`ScenarioError::Placement`] when a model does not fit the stack
/// (the first such model in [`fig6_models`] order).
pub fn fig6_rows(
    cfg: &SystemConfig,
    sa: &SaConfig,
    threads: usize,
) -> Result<Vec<Fig6Row>, ScenarioError> {
    let platform = Platform3D::new(cfg)?;
    let models = fig6_models();
    parallel_map(&models, threads, |e| {
        let g = build_model(e.kind, e.dataset).expect("table models build");
        let sg = SegmentGraph::from_layer_graph(&g);
        let floret = platform.evaluate(&sg, &platform.sfc_order())?;
        let (_, joint) = platform.optimize(&sg, sa)?;
        Ok(Fig6Row {
            id: e.id.to_string(),
            model: e.kind.to_string(),
            floret,
            joint,
        })
    })
    .into_iter()
    .collect()
}

/// Fig. 7 output: bottom-tier temperature maps for both mappings plus
/// their peaks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fig7Maps {
    /// Bottom-tier temperatures under the Floret (performance-only) NoC.
    pub floret_bottom_tier: Vec<Vec<f64>>,
    /// Bottom-tier temperatures under the joint optimization.
    pub joint_bottom_tier: Vec<Vec<f64>>,
    /// Peak temperature, Floret NoC, K.
    pub floret_peak_k: f64,
    /// Peak temperature, joint NoC, K.
    pub joint_peak_k: f64,
    /// Hotspot cells (>= 330 K), Floret NoC.
    pub floret_hotspots: usize,
    /// Hotspot cells (>= 330 K), joint NoC.
    pub joint_hotspots: usize,
}

/// Regenerates Fig. 7 (ResNet-34 thermal maps on the 100-PE system).
///
/// # Errors
///
/// [`ScenarioError::Topology`] when `cfg` builds no 3D NoC,
/// [`ScenarioError::Thermal`] when its thermal grid cannot be factored and
/// [`ScenarioError::Placement`] when ResNet-34 does not fit the stack.
pub fn fig7_maps(cfg: &SystemConfig, sa: &SaConfig) -> Result<Fig7Maps, ScenarioError> {
    let platform = Platform3D::new(cfg)?;
    let g = build_model(dnn::ModelKind::ResNet34, dnn::Dataset::Cifar10).expect("resnet34 builds");
    let sg = SegmentGraph::from_layer_graph(&g);
    let bottom = cfg.tiers - 1;

    let sfc_placement = platform.place(&sg, &platform.sfc_order())?;
    let sfc_map = platform.thermal_map(&sg, &sfc_placement);

    let (joint_order, _) = platform.optimize(&sg, sa)?;
    let joint_placement = platform.place(&sg, &joint_order)?;
    let joint_map = platform.thermal_map(&sg, &joint_placement);

    Ok(Fig7Maps {
        floret_bottom_tier: sfc_map.tier_slice(bottom),
        joint_bottom_tier: joint_map.tier_slice(bottom),
        floret_peak_k: sfc_map.peak_k(),
        joint_peak_k: joint_map.peak_k(),
        floret_hotspots: sfc_map.hotspot_count(330.0),
        joint_hotspots: joint_map.hotspot_count(330.0),
    })
}

/// Section IV: Transformer intermediate-storage sweep for BERT-Tiny and
/// BERT-Base.
pub fn transformer_rows() -> Vec<(String, Vec<StorageRow>)> {
    let seqs = [64, 128, 256, 384, 512, 1024];
    vec![
        (
            "BERT-Tiny".to_string(),
            storage_sweep(&BertConfig::tiny(), &seqs),
        ),
        (
            "BERT-Base".to_string(),
            storage_sweep(&BertConfig::base(), &seqs),
        ),
    ]
}

/// Section II activation analysis: ResNet-34 linear-vs-skip traffic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ActivationRow {
    /// Model name.
    pub model: String,
    /// Linear (sequential) activation volume, elements.
    pub sequential: u64,
    /// Skip activation volume, elements.
    pub skip: u64,
    /// linear / skip ratio (paper: ~4.5x for ResNet-34).
    pub linear_over_skip: f64,
    /// Skip share of all propagated activations (paper: ~19%).
    pub skip_fraction: f64,
}

/// Regenerates the ResNet-34 activation-split claim.
pub fn activation_rows() -> Vec<ActivationRow> {
    [
        dnn::ModelKind::ResNet18,
        dnn::ModelKind::ResNet34,
        dnn::ModelKind::ResNet50,
    ]
    .into_iter()
    .map(|kind| {
        let g = build_model(kind, dnn::Dataset::ImageNet).expect("models build");
        let split = g.activation_split();
        ActivationRow {
            model: kind.to_string(),
            sequential: split.sequential,
            skip: split.skip,
            linear_over_skip: split.sequential as f64 / split.skip.max(1) as f64,
            skip_fraction: split.skip_fraction(),
        }
    })
    .collect()
}

/// Normalizes a metric across workload reports to the Floret row and
/// returns `(arch, value, normalized)` triples in the input order.
/// When a scenario's architecture subset excludes Floret, the first row
/// anchors the ratios instead (so the column stays a ratio, never a raw
/// value masquerading as one).
pub fn normalize_to_floret<F>(rows: &[WorkloadReport], metric: F) -> Vec<(String, f64, f64)>
where
    F: Fn(&WorkloadReport) -> f64,
{
    let floret = rows
        .iter()
        .find(|r| r.arch == "Floret")
        .or_else(|| rows.first())
        .map(&metric)
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    rows.iter()
        .map(|r| {
            let v = metric(r);
            (r.arch.clone(), v, v / floret)
        })
        .collect()
}

/// Renders a tier temperature slice as an ASCII heat map (one char per
/// PE, `.:oO#@` buckets relative to the given range).
///
/// # Examples
///
/// ```
/// let map = pim_core::experiments::ascii_heatmap(&[vec![300.0, 399.0]], 300.0, 400.0);
/// assert_eq!(map, ". @ \n");
/// ```
pub fn ascii_heatmap(slice: &[Vec<f64>], lo: f64, hi: f64) -> String {
    let chars = ['.', ':', 'o', 'O', '#', '@'];
    let mut out = String::new();
    for row in slice {
        for &t in row {
            let f = ((t - lo) / (hi - lo)).clamp(0.0, 0.999);
            let idx = (f * chars.len() as f64) as usize;
            out.push(chars[idx]);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

// ====================================================================
// The standard experiment registry: every paper artifact registered
// once, each run function a pure map from RunContext to the uniform
// ExperimentOutput shape. The `pim-bench` CLI is the only printer.
// ====================================================================

macro_rules! cells {
    ($($v:expr),* $(,)?) => {
        vec![$(crate::scenario::CellValue::from($v)),*]
    };
}

/// The standard registry: every table, figure and ablation of the paper
/// registered once. Built on first use and shared for the process
/// lifetime.
pub fn registry() -> &'static ExperimentRegistry {
    static REGISTRY: OnceLock<ExperimentRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = ExperimentRegistry::new();
        let specs: [(&'static str, &'static str, crate::scenario::RunFn); 22] = [
            (
                "table1",
                "Table I: the thirteen DNN workloads, paper-printed vs computed parameters",
                run_table1,
            ),
            (
                "table2",
                "Table II: the five concurrent-DNN mixes and their total parameters",
                run_table2,
            ),
            (
                "fig2",
                "Fig. 2: router-port histograms, link counts and wiring per NoI",
                run_fig2,
            ),
            (
                "fig3",
                "Fig. 3: NoI latency per (mix, architecture) through the DES, normalized to Floret",
                run_fig3,
            ),
            (
                "fig4",
                "Fig. 4: chiplet utilization under the hard-contiguity admission model",
                run_fig4,
            ),
            (
                "fig5",
                "Fig. 5: NoI energy per (mix, architecture), normalized to Floret",
                run_fig5,
            ),
            (
                "fig6",
                "Fig. 6: EDP, peak temperature and accuracy, Floret vs joint 3D NoC",
                run_fig6,
            ),
            (
                "fig7",
                "Fig. 7: ResNet-34 bottom-tier thermal maps, Floret vs thermal-aware NoC",
                run_fig7,
            ),
            (
                "dataflows",
                "Dataflow sweep: (mix x dataflow x arch) NoI traffic, latency, compute energy",
                run_dataflows,
            ),
            (
                "mapping_search",
                "Mapping search: searched per-layer loop nests vs the four hand dataflows \
                 on report-level EDP",
                run_mapping_search,
            ),
            (
                "cost",
                "Section II: Eq. (2)-(5) fabrication-cost comparison",
                run_cost,
            ),
            (
                "activations",
                "Section II: linear-vs-skip activation traffic in residual networks",
                run_activations,
            ),
            (
                "transformer",
                "Section IV: BERT intermediate-storage pressure and ReRAM endurance",
                run_transformer,
            ),
            (
                "hetero",
                "Section IV: all-PIM vs all-digital vs heterogeneous BERT platforms",
                run_hetero,
            ),
            (
                "patterns",
                "NoC ablation: synthetic traffic patterns and pipeline traffic per NoI",
                run_patterns,
            ),
            (
                "poisson",
                "Service-model ablation: Poisson arrivals over an offered-load sweep",
                run_poisson_experiment,
            ),
            (
                "faults",
                "Fault-injection ablation: SFC re-stitching over dead chiplets",
                run_faults,
            ),
            (
                "serving",
                "Datacenter serving: multi-tenant request streams over a chip fleet, \
                 latency percentiles and SLO attainment vs offered load",
                run_serving_experiment,
            ),
            (
                "resilience",
                "Resilience: serving under a seeded fault plan (chip outages, link \
                 blackouts, throttling) with retry/backoff, failover and load shedding",
                run_resilience,
            ),
            (
                "pareto",
                "Ablation: EDP vs peak-temperature placement Pareto front (NSGA-II)",
                run_pareto,
            ),
            (
                "ablation_kite",
                "Ablation: Kite skip-link family structure, area and uniform-traffic latency",
                run_ablation_kite,
            ),
            (
                "ablation_thermal",
                "Ablation: M3D vs TSV vertical conduction and spreading sensitivity",
                run_ablation_thermal,
            ),
        ];
        for (name, description, run) in specs {
            reg.register(ExperimentSpec {
                name,
                description,
                run,
            });
        }
        reg
    })
}

/// The paper-pinned SA seed for the Fig. 6/7 joint design point.
const JOINT_SA_SEED: u64 = 0x3D_0C;

/// The architecture the normalized columns anchor to: Floret when the
/// scenario includes it, otherwise the subset's first architecture (and
/// the rendered titles/headers say which).
fn norm_anchor(runner: &SweepRunner) -> &str {
    runner
        .platforms()
        .iter()
        .find(|p| p.arch_name() == "Floret")
        .unwrap_or(&runner.platforms()[0])
        .arch_name()
}

fn scenario_sa_config(ctx: &RunContext) -> SaConfig {
    SaConfig {
        seed: ctx.scenario().seed_or(JOINT_SA_SEED),
        ..joint_sa_config()
    }
}

fn run_table1(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let mut out = ExperimentOutput::new("table1", "");
    let mut t = Table::new(
        "Table I: DNN inference workloads, trainable parameters",
        vec![
            Column::str("id"),
            Column::str("model"),
            Column::str("dataset"),
            Column::float("paper (M)", 2),
            Column::float("computed (M)", 2),
        ],
    );
    for r in table1_rows() {
        t.push(cells![
            r.id,
            r.model,
            r.dataset,
            r.paper_params_m,
            r.computed_params_m
        ]);
    }
    out.tables.push(t);
    out.notes.push(
        "Note: several printed values are inconsistent with the standard architectures \
         (see EXPERIMENTS.md); the CIFAR-10 rows match within 6%."
            .to_string(),
    );
    Ok(out)
}

fn run_table2(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let mut out = ExperimentOutput::new("table2", "");
    let mut t = Table::new(
        "Table II: concurrent DNN task mixes (100-chiplet system)",
        vec![
            Column::str("mix"),
            Column::uint("tasks"),
            Column::float("paper (B)", 1),
            Column::float("computed (B)", 2),
        ],
    );
    for r in table2_rows() {
        t.push(cells![r.name, r.tasks, r.paper_total_b, r.computed_total_b]);
    }
    out.tables.push(t);
    Ok(out)
}

fn run_fig2(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let rows = ctx.runner()?.fig2_summaries();
    let mut out = ExperimentOutput::new("fig2", "");

    let mut ports = Table::new(
        "Fig. 2(a): router-port histogram (ports -> routers)",
        vec![Column::str("arch"), Column::str("histogram")],
    );
    for r in &rows {
        let hist: Vec<String> = r
            .port_histogram
            .iter()
            .map(|(p, c)| format!("{p}p:{c}"))
            .collect();
        ports.push(cells![r.name.clone(), hist.join("  ")]);
    }
    out.tables.push(ports);

    let mut links = Table::new(
        "Fig. 2(b): links and wiring",
        vec![
            Column::str("arch"),
            Column::uint("links"),
            Column::uint("wire(hops)"),
            Column::float("area(mm2)", 1),
            Column::float("avg hops", 2),
            Column::uint("bisection"),
        ],
    );
    for r in &rows {
        links.push(cells![
            r.name.clone(),
            r.links,
            r.total_wire_hops,
            r.noi_area_mm2,
            r.avg_hops,
            r.bisection_links
        ]);
    }
    out.tables.push(links);

    let mut lengths = Table::new(
        "link-length histogram (hops -> links)",
        vec![Column::str("arch"), Column::str("histogram")],
    );
    for r in &rows {
        let hist: Vec<String> = r
            .link_length_histogram
            .iter()
            .map(|(l, c)| format!("{l}h:{c}"))
            .collect();
        lengths.push(cells![r.name.clone(), hist.join("  ")]);
    }
    out.tables.push(lengths);
    Ok(out)
}

fn run_fig3(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let runner = ctx.runner()?;
    let reports = runner.run_workloads(&ctx.scenario().workload_set());
    let mut out = ExperimentOutput::new("fig3", "");
    let mut t = Table::new(
        &format!(
            "Fig. 3: NoI latency (DES on co-resident traffic), normalized to {}",
            norm_anchor(runner)
        ),
        vec![
            Column::str("mix"),
            Column::str("arch"),
            Column::float("latency(cyc)", 0),
            Column::ratio("norm"),
            Column::float("hops", 2),
        ],
    );
    for rows in reports.chunks(runner.platforms().len()) {
        let norm = normalize_to_floret(rows, |r| r.sim_latency_cycles as f64);
        for (r, (_, v, n)) in rows.iter().zip(norm) {
            t.push(cells![
                r.workload.clone(),
                r.arch.clone(),
                v,
                n,
                r.mean_weighted_hops
            ]);
        }
    }
    out.tables.push(t);
    out.notes.push(
        "Paper: Kite/SIAM up to 2.24x worse than Floret; we reproduce the ordering with \
         milder ratios (see EXPERIMENTS.md)."
            .to_string(),
    );
    Ok(out)
}

fn run_fig4(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let runner = ctx.runner()?;
    let workloads = ctx.scenario().workload_set();
    let cells_in: Vec<(&Workload, &Platform25D)> = workloads
        .iter()
        .flat_map(|wl| runner.platforms().iter().map(move |p| (wl, p)))
        .collect();
    let outcomes = parallel_map(&cells_in, runner.threads(), |&(wl, p)| p.map_workload(wl));
    let mut out = ExperimentOutput::new("fig4", "");
    let mut t = Table::new(
        "Fig. 4: chiplet utilization (wave admission, radius-2 contiguity)",
        vec![
            Column::str("mix"),
            Column::str("arch"),
            Column::uint("waves"),
            Column::float("mean util", 2),
            Column::uint("failed"),
        ],
    );
    for ((wl, p), o) in cells_in.iter().zip(&outcomes) {
        t.push(cells![
            wl.name.clone(),
            p.arch_name(),
            o.waves.len(),
            o.mean_utilization(),
            o.failed.len()
        ]);
    }
    out.tables.push(t);
    out.notes.push(
        "Paper: greedy mapping on SWAP leaves many unmapped (NM) chiplets; Floret's SFC \
         mapping keeps utilization high."
            .to_string(),
    );
    Ok(out)
}

fn run_fig5(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let runner = ctx.runner()?;
    let reports = runner.run_workloads(&ctx.scenario().workload_set());
    let mut out = ExperimentOutput::new("fig5", "");
    let mut t = Table::new(
        &format!(
            "Fig. 5: NoI energy (dynamic + static), normalized to {}",
            norm_anchor(runner)
        ),
        vec![
            Column::str("mix"),
            Column::str("arch"),
            Column::sci("energy(pJ)", 3),
            Column::ratio("norm"),
        ],
    );
    let mut sums: std::collections::BTreeMap<String, (f64, u32)> = Default::default();
    for rows in reports.chunks(runner.platforms().len()) {
        let norm = normalize_to_floret(rows, |r| r.noi_energy_pj);
        for (r, (arch, v, n)) in rows.iter().zip(norm) {
            t.push(cells![r.workload.clone(), arch.clone(), v, n]);
            let e = sums.entry(arch).or_insert((0.0, 0));
            e.0 += n;
            e.1 += 1;
        }
    }
    out.tables.push(t);
    let mut avg = Table::new(
        "average normalized energy (paper: SIAM 1.65x, Kite 2.8x)",
        vec![Column::str("arch"), Column::ratio("avg norm")],
    );
    for (arch, (sum, count)) in sums {
        avg.push(cells![arch, sum / f64::from(count)]);
    }
    out.tables.push(avg);
    Ok(out)
}

fn run_fig6(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let sa = scenario_sa_config(ctx);
    let rows = fig6_rows(&s.cfg3d, &sa, s.threads)?;
    let mut out = ExperimentOutput::new("fig6", "");

    let mut edp = Table::new(
        "Fig. 6(a): EDP (J*s); Floret-NoC is performance-only",
        vec![
            Column::str("id"),
            Column::str("model"),
            Column::sci("Floret", 3),
            Column::sci("Joint", 3),
            Column::float("Floret better %", 1),
        ],
    );
    for r in &rows {
        edp.push(cells![
            r.id.clone(),
            r.model.clone(),
            r.floret.edp_js,
            r.joint.edp_js,
            (r.joint.edp_js / r.floret.edp_js - 1.0) * 100.0
        ]);
    }
    out.tables.push(edp);

    let mut temp = Table::new(
        "Fig. 6(b): peak temperature (K)",
        vec![
            Column::str("id"),
            Column::str("model"),
            Column::float("Floret", 1),
            Column::float("Joint", 1),
            Column::float("delta", 1),
        ],
    );
    for r in &rows {
        temp.push(cells![
            r.id.clone(),
            r.model.clone(),
            r.floret.peak_k,
            r.joint.peak_k,
            r.floret.peak_k - r.joint.peak_k
        ]);
    }
    out.tables.push(temp);

    let mut acc = Table::new(
        "Fig. 6(c): top-1 accuracy under thermal noise",
        vec![
            Column::str("id"),
            Column::str("model"),
            Column::float("baseline", 3),
            Column::float("Floret", 3),
            Column::float("Joint", 3),
            Column::float("drop(F) %", 1),
        ],
    );
    for r in &rows {
        let entry = dnn::table1_entry(&r.id).expect("table entry");
        let base = pim::baseline_top1(entry.kind, entry.dataset);
        acc.push(cells![
            r.id.clone(),
            r.model.clone(),
            base,
            base - r.floret.accuracy_drop,
            base - r.joint.accuracy_drop,
            r.floret.accuracy_drop * 100.0
        ]);
    }
    out.tables.push(acc);
    out.notes
        .push("Paper: Floret-NoC ~9% lower EDP, ~13K hotter, up to 11% accuracy loss.".to_string());
    Ok(out)
}

fn run_fig7(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let sa = scenario_sa_config(ctx);
    let maps = fig7_maps(&s.cfg3d, &sa)?;
    let lo = 300.0;
    let hi = maps.floret_peak_k.max(maps.joint_peak_k);
    let mut out = ExperimentOutput::new("fig7", "");

    let mut summary = Table::new(
        "Fig. 7: bottom-tier hotspots, ResNet-34 on the 100-PE 3D system",
        vec![
            Column::str("NoC"),
            Column::float("peak(K)", 1),
            Column::uint("hotspots(>=330K)"),
        ],
    );
    summary.push(cells![
        "Floret (performance-only)",
        maps.floret_peak_k,
        maps.floret_hotspots
    ]);
    summary.push(cells![
        "Joint (thermal-aware)",
        maps.joint_peak_k,
        maps.joint_hotspots
    ]);
    out.tables.push(summary);

    for (title, slice) in [
        (
            "Fig. 7(a): raw bottom-tier temperatures (K), Floret NoC",
            &maps.floret_bottom_tier,
        ),
        (
            "Fig. 7(b): raw bottom-tier temperatures (K), joint NoC",
            &maps.joint_bottom_tier,
        ),
    ] {
        let width = slice.first().map_or(0, Vec::len);
        let cols = (0..width)
            .map(|x| Column::float(&format!("x{x}"), 1))
            .collect();
        let mut t = Table::new(title, cols);
        for row in slice {
            t.push(row.iter().map(|&v| v.into()).collect());
        }
        out.tables.push(t);
    }

    out.notes.push(format!(
        "Floret NoC heat map (. cold -> @ hot):\n{}",
        ascii_heatmap(&maps.floret_bottom_tier, lo, hi)
    ));
    out.notes.push(format!(
        "Joint NoC heat map:\n{}",
        ascii_heatmap(&maps.joint_bottom_tier, lo, hi)
    ));
    out.notes.push(format!(
        "peak delta = {:.1} K (paper: 17 K for ResNet-34)",
        maps.floret_peak_k - maps.joint_peak_k
    ));
    Ok(out)
}

fn run_dataflows(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let runner = ctx.runner()?;
    let reports = runner.run_workloads_dataflows(&s.workload_set(), &s.dataflows);
    let n_arch = runner.platforms().len();
    let n_df = s.dataflows.len();
    let base_name = s.dataflows[0].name();
    let last_name = s.dataflows[n_df - 1].name();

    let mut out = ExperimentOutput::new("dataflows", "");
    let mut t = Table::new(
        "Dataflow sweep: NoI traffic, DES latency and compute energy vs the baseline mode",
        vec![
            Column::str("mix"),
            Column::str("df"),
            Column::str("arch"),
            Column::float("traffic(MB)", 2),
            Column::ratio("traffic norm"),
            Column::float("latency(cyc)", 0),
            Column::ratio("latency norm"),
            Column::float("compute(mJ)", 2),
            Column::ratio("compute norm"),
        ],
    );
    let mut last_wins = 0usize;
    let mut grid_cells = 0usize;
    for wl_rows in reports.chunks(n_df * n_arch) {
        let base_rows = &wl_rows[..n_arch]; // first dataflow of the set
        for (di, df_rows) in wl_rows.chunks(n_arch).enumerate() {
            for (r, base) in df_rows.iter().zip(base_rows) {
                let tr = r.total_traffic_bytes as f64;
                let tr_base = (base.total_traffic_bytes as f64).max(1.0);
                let l = r.sim_latency_cycles as f64;
                let l_base = (base.sim_latency_cycles as f64).max(1.0);
                let e = r.compute_energy_pj;
                let e_base = base.compute_energy_pj.max(f64::MIN_POSITIVE);
                t.push(cells![
                    r.workload.clone(),
                    r.dataflow.clone(),
                    r.arch.clone(),
                    tr / 1e6,
                    tr / tr_base,
                    l,
                    l / l_base,
                    e / 1e9,
                    e / e_base
                ]);
                grid_cells += 1;
                if di == n_df - 1 && r.total_traffic_bytes < base.total_traffic_bytes {
                    last_wins += 1;
                }
            }
        }
    }
    out.tables.push(t);
    if n_df > 1 {
        out.notes.push(format!(
            "{grid_cells} grid cells; {last_name} moved strictly fewer inter-chiplet bytes \
             than {base_name} in {last_wins}/{} (mix, arch) cells.",
            grid_cells / n_df
        ));
    }
    if s.dataflows[0] == dnn::Dataflow::WeightStationary {
        // The no-mode-exceeds-WS claim only holds against the WS
        // baseline; a scenario that normalizes to another mode would
        // contradict it.
        out.notes.push(
            "Re-stationing only ever replaces a larger activation slice, so no mode exceeds \
             the WS baseline; OS/IS trade activation slices for staged weight tiles, FL \
             elides fusible chain edges to halo bands."
                .to_string(),
        );
    }
    Ok(out)
}

fn run_mapping_search(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let runner = ctx.runner()?;
    // The axis is the experiment: the four hand modes plus the searched
    // pseudo-mode, regardless of the scenario's dataflow filter.
    let axis = dnn::Dataflow::all_with_searched();
    let reports = runner.run_workloads_dataflows(&s.workload_set(), &axis);
    let n_arch = runner.platforms().len();
    let n_df = axis.len();
    // Same cycle time on every platform of a runner, so any one prices
    // the EDP; scale pJ*ns down to mJ*ms for the table.
    let edp = |r: &WorkloadReport| runner.platforms()[0].report_edp(r) / 1e15;

    let mut out = ExperimentOutput::new("mapping_search", "");
    let mut t = Table::new(
        "Mapping search: report-level EDP (mJ*ms, NoI+compute) per hand dataflow vs the \
         searched per-layer loop nests",
        vec![
            Column::str("mix"),
            Column::str("arch"),
            Column::float("WS", 3),
            Column::float("OS", 3),
            Column::float("IS", 3),
            Column::float("FL", 3),
            Column::float("best hand", 3),
            Column::float("SRCH", 3),
            Column::ratio("srch/best"),
        ],
    );
    let mut cells_total = 0usize;
    let mut bounded = 0usize;
    let mut strict = 0usize;
    for wl_rows in reports.chunks(n_df * n_arch) {
        for a in 0..n_arch {
            let per_mode: Vec<&WorkloadReport> =
                (0..n_df).map(|d| &wl_rows[d * n_arch + a]).collect();
            let hand: Vec<f64> = per_mode[..n_df - 1].iter().map(|r| edp(r)).collect();
            let srch = edp(per_mode[n_df - 1]);
            let best = hand.iter().copied().fold(f64::INFINITY, f64::min);
            cells_total += 1;
            if srch <= best {
                bounded += 1;
            }
            if srch < best {
                strict += 1;
            }
            t.push(cells![
                per_mode[0].workload.clone(),
                per_mode[0].arch.clone(),
                hand[0],
                hand[1],
                hand[2],
                hand[3],
                best,
                srch,
                srch / best.max(f64::MIN_POSITIVE)
            ]);
        }
    }
    out.tables.push(t);
    out.notes.push(format!(
        "searched EDP <= best hand mode in {bounded}/{cells_total} cells ({strict} strict \
         wins); the resolver anchors on the uniform presets, so the bound holds by \
         construction."
    ));
    out.notes.push(
        "Resolution is a deterministic per-cell function (beam search + preset anchoring) \
         and is memoized in the eval cache under the resolved-mapping fingerprint."
            .to_string(),
    );
    Ok(out)
}

fn run_cost(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let runner = ctx.runner()?;
    let rows = cost_rows(runner);
    let mut out = ExperimentOutput::new("cost", "");
    let mut t = Table::new(
        "Section II cost analysis (Eq. 2-5, AMD 864mm2/64-chiplet reference)",
        vec![
            Column::str("arch"),
            Column::float("area(mm2)", 1),
            Column::float("rel. cost", 3),
            Column::ratio(&format!("ratio vs {}", norm_anchor(runner))),
        ],
    );
    for r in rows {
        t.push(cells![
            r.arch,
            r.noi_area_mm2,
            r.relative_cost,
            r.ratio_vs_floret
        ]);
    }
    out.tables.push(t);
    Ok(out)
}

fn run_activations(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let mut out = ExperimentOutput::new("activations", "");
    let mut t = Table::new(
        "Section II: linear vs skip activation traffic (ImageNet)",
        vec![
            Column::str("model"),
            Column::uint("linear(elems)"),
            Column::uint("skip(elems)"),
            Column::float("linear/skip", 2),
            Column::float("skip share %", 1),
        ],
    );
    for r in activation_rows() {
        t.push(cells![
            r.model,
            r.sequential,
            r.skip,
            r.linear_over_skip,
            r.skip_fraction * 100.0
        ]);
    }
    out.tables.push(t);
    out.notes.push(
        "Paper (ResNet-34): linear 4.5x skip; skips ~19% of propagated activations.".to_string(),
    );
    Ok(out)
}

fn run_transformer(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let mut out = ExperimentOutput::new("transformer", "");
    for (name, rows) in transformer_rows() {
        let mut t = Table::new(
            &format!("Section IV: intermediate-matrix storage vs weights, {name}"),
            vec![
                Column::uint("seq"),
                Column::uint("inter/layer"),
                Column::float("vs attn W (fp16/int8)", 2),
                Column::float("vs layer W (same prec)", 2),
            ],
        );
        for r in rows {
            t.push(cells![
                u64::from(r.seq),
                r.intermediates_per_layer,
                r.ratio_attention_fp16_int8,
                r.ratio_layer_same_precision
            ]);
        }
        out.tables.push(t);
    }
    let mut life = Table::new(
        "write-endurance lifetime if intermediates lived in ReRAM",
        vec![
            Column::str("model"),
            Column::uint("cell-writes/inference"),
            Column::uint("lifetime (inferences)"),
        ],
    );
    for (name, cfg) in [
        ("BERT-Tiny", BertConfig::tiny()),
        ("BERT-Base", BertConfig::base()),
    ] {
        let writes = cfg.writes_per_inference(512);
        life.push(cells![
            name,
            writes,
            lifetime_inferences(writes, 100_000_000, 1_000_000)
        ]);
    }
    out.tables.push(life);
    out.notes.push(
        "Paper: BERT-Base 8.98x, BERT-Tiny 2.06x. Our fp16/int8 attention-weight accounting \
         reproduces the BERT-Base regime at seq=512 (~9.3x)."
            .to_string(),
    );
    out.notes.push(
        "A datacenter accelerator serves billions of inferences: NVM-PIM is unsuitable for \
         attention intermediates, motivating heterogeneous integration."
            .to_string(),
    );
    Ok(out)
}

fn run_hetero(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let mut out = ExperimentOutput::new("hetero", "");
    for (name, bert, seq) in [
        ("BERT-Tiny", BertConfig::tiny(), 128u32),
        ("BERT-Base", BertConfig::base(), 512u32),
    ] {
        let cfg = HeteroConfig {
            bert,
            seq,
            ..HeteroConfig::default()
        };
        let mut t = Table::new(
            &format!("{name} @ seq={seq}: platform design points"),
            vec![
                Column::str("platform"),
                Column::sci("latency(ns)", 3),
                Column::sci("energy(pJ)", 3),
                Column::uint("PIM"),
                Column::uint("dig"),
                Column::uint("writes/inf"),
                Column::str("lifetime(inf)"),
            ],
        );
        for eval in transformer_design_points(&cfg) {
            let lifetime = if eval.lifetime_inferences == u64::MAX {
                "unlimited".to_string()
            } else {
                format!("{:.1e}", eval.lifetime_inferences as f64)
            };
            t.push(cells![
                eval.platform.to_string(),
                eval.latency_ns,
                eval.energy_pj,
                eval.pim_chiplets,
                eval.digital_chiplets,
                eval.crossbar_writes,
                lifetime
            ]);
        }
        out.tables.push(t);
    }
    out.notes.push(
        "All-PIM dies on ReRAM endurance within ~1e6 inferences; all-digital pays 3-4x the \
         energy on the static kernels. The heterogeneous platform keeps the SFC PIM macro \
         for FF/projections and splices digital chiplets in for attention — the Section IV \
         proposal, quantified."
            .to_string(),
    );
    Ok(out)
}

fn run_patterns(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let runner = ctx.runner()?;
    let hw = &s.cfg25.hw;
    let seed = s.seed_or(7);
    let mut out = ExperimentOutput::new("patterns", "");

    let mut synth = Table::new(
        "synthetic traffic characterization (4 KB/flow)",
        vec![
            Column::str("pattern"),
            Column::str("arch"),
            Column::float("avg hops", 2),
            Column::uint("makespan"),
            Column::sci("energy(pJ)", 3),
        ],
    );
    for pattern in netsim::all_patterns() {
        for p in runner.platforms() {
            let flows = generate_pattern(p.topology(), pattern, 4096, seed);
            let ana = analyze_with_table(p.topology(), hw, &flows, p.route_table());
            let des = simulate_with_table(
                p.topology(),
                hw,
                &flows,
                &SimConfig::default(),
                p.route_table(),
            );
            synth.push(cells![
                pattern.to_string(),
                p.arch_name(),
                ana.mean_weighted_hops,
                des.makespan_cycles,
                ana.total_energy_pj
            ]);
        }
    }
    out.tables.push(synth);

    let mut pipe = Table::new(
        "pipeline traffic along each architecture's own mapping order",
        vec![
            Column::str("arch"),
            Column::float("avg hops", 2),
            Column::uint("makespan"),
            Column::sci("energy(pJ)", 3),
        ],
    );
    for p in runner.platforms() {
        // Floret streams along its curve; the others along id (row-major)
        // order — each architecture's natural dataflow mapping.
        let order: Vec<NodeId> = match p.layout() {
            Some(layout) => layout.global_order(),
            None => (0..topology::narrow::u32_idx(p.topology().node_count()))
                .map(NodeId)
                .collect(),
        };
        let flows = generate_pipeline(&order, 4096);
        let ana = analyze_with_table(p.topology(), hw, &flows, p.route_table());
        let des = simulate_with_table(
            p.topology(),
            hw,
            &flows,
            &SimConfig::default(),
            p.route_table(),
        );
        pipe.push(cells![
            p.arch_name(),
            ana.mean_weighted_hops,
            des.makespan_cycles,
            ana.total_energy_pj
        ]);
    }
    out.tables.push(pipe);
    out.notes.push(
        "Mapped along its own curve, Floret's pipeline is pure single-hop — the \
         dataflow-aware premise. Random/complement traffic is where low-bisection chains \
         pay, which is why Floret is a co-design of topology AND mapping."
            .to_string(),
    );
    Ok(out)
}

fn run_poisson_experiment(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let runner = ctx.runner()?;
    // WL3 (the largest mix) is the paper-pinned population; honor a
    // scenario's workload subset when it excludes WL3.
    let wl_name = if s.workloads.iter().any(|n| n == "WL3") {
        "WL3".to_string()
    } else {
        s.workloads[0].clone()
    };
    let wl = dnn::table2_workload(&wl_name).expect("resolved workload");
    let graphs = Platform25D::task_graphs(&wl);

    let mut out = ExperimentOutput::new("poisson", "");
    let mut t = Table::new(
        &format!(
            "Poisson arrivals, {wl_name} task population ({} DNNs)",
            graphs.len()
        ),
        vec![
            Column::str("arch"),
            Column::float("load", 1),
            Column::float("utilization", 2),
            Column::float("mean wait", 2),
            Column::float("mean tasks", 1),
            Column::uint("failed"),
        ],
    );
    for mean_interarrival in [2.0, 1.0, 0.5] {
        let arr = ArrivalConfig {
            mean_interarrival,
            mean_service: 8.0,
            seed: s.seed_or(0xA221),
        };
        for platform in runner.platforms() {
            // The strategy axis: paper default per architecture, or the
            // scenario's forced `--strategy` selection.
            let strategy = platform.strategy_for(s.strategy, true)?;
            let o = run_poisson(
                &graphs,
                s.cfg25.node_count(),
                s.cfg25.node_capacity(),
                &strategy,
                &arr,
            );
            t.push(cells![
                platform.arch_name(),
                8.0 / mean_interarrival,
                o.utilization,
                o.mean_wait,
                o.mean_resident,
                o.failed.len()
            ]);
        }
    }
    out.tables.push(t);
    out.notes.push(
        "Higher offered load raises utilization and admission waits; the SFC mapping \
         sustains the same load with contiguous placements throughout."
            .to_string(),
    );
    Ok(out)
}

/// Per-tenant single-request service latency from the PIM compute cost
/// model under the scenario's first dataflow. Shared by the `serving`
/// and `resilience` experiments, so the resilience golden's zero-fault
/// row stays cell-identical to `serving`.
fn tenant_service_ns(s: &ResolvedScenario, spec: &ServingSpec) -> Vec<u64> {
    let dataflow = s.dataflows[0];
    spec.tenants
        .iter()
        .map(|t| {
            let e = dnn::table1_entry(&t.model).expect("resolve() validated tenant models");
            let g = build_model(e.kind, e.dataset).expect("table models build");
            let sg = SegmentGraph::from_layer_graph(&g);
            let cost = pim::model_cost_with(&sg, &s.cfg25.pim, dataflow);
            (cost.latency_ns.round() as u64).max(1)
        })
        .collect()
}

/// The paper-pinned serving/resilience seed (shared so the two
/// experiments generate identical request streams).
const SERVING_SEED: u64 = 0x5E41;

fn run_serving_experiment(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let spec = s.serving.clone().unwrap_or_default();
    // `resolve()` validates an explicit block; the default is validated
    // here so a future default regression cannot slip through.
    spec.validate().map_err(ScenarioError::Serving)?;

    let service_ns = tenant_service_ns(s, &spec);
    let outcome = simulate_serving(&spec, &service_ns, s.seed_or(SERVING_SEED), s.threads);

    let mut out = ExperimentOutput::new("serving", "");
    let mut lat = Table::new(
        &format!(
            "Serving latency vs offered load ({} chips, {} tenants, {} ms horizon)",
            spec.fleet,
            spec.tenants.len(),
            spec.horizon_ms
        ),
        vec![
            Column::float("load", 2),
            Column::float("offered rps", 0),
            Column::uint("requests"),
            Column::uint("completed"),
            Column::uint("rejected"),
            Column::percentile("p50"),
            Column::percentile("p95"),
            Column::percentile("p99"),
            Column::float("slo attain", 4),
            Column::float("mean batch", 2),
        ],
    );
    let mut util = Table::new(
        "Per-chip utilization over time (busy fraction per horizon quarter)",
        vec![
            Column::float("load", 2),
            Column::uint("chip"),
            Column::float("q1", 3),
            Column::float("q2", 3),
            Column::float("q3", 3),
            Column::float("q4", 3),
        ],
    );
    let slo_ns = spec.slo_ms * 1e6;
    for lp in &outcome.per_load {
        lat.push(vec![
            CellValue::Float(lp.load),
            CellValue::Float(lp.offered_rps),
            CellValue::UInt(lp.offered),
            CellValue::UInt(lp.completed),
            CellValue::UInt(lp.rejected),
            CellValue::Duration(lp.p50_ns as f64),
            CellValue::Duration(lp.p95_ns as f64),
            CellValue::Duration(lp.p99_ns as f64),
            CellValue::Float(lp.slo_attainment),
            CellValue::Float(lp.mean_batch),
        ]);
        for (chip, slices) in lp.chip_util.iter().enumerate() {
            let mut row = vec![CellValue::Float(lp.load), CellValue::UInt(chip as u64)];
            row.extend(slices.iter().map(|&u| CellValue::Float(u)));
            util.push(row);
        }
        let mut h = Histogram::new(
            &format!("End-to-end latency distribution at load {:.2}", lp.load),
            "ns",
            vec![
                0.0,
                slo_ns / 4.0,
                slo_ns / 2.0,
                slo_ns,
                2.0 * slo_ns,
                4.0 * slo_ns,
                8.0 * slo_ns,
            ],
        );
        for &l in &lp.latencies_ns {
            h.record(l as f64);
        }
        out.histograms.push(h);
    }
    out.tables.push(lat);
    out.tables.push(util);
    out.notes.push(format!(
        "{} requests, {} calendar-queue events across the fleet; SLO {} ms; rejections \
         count against attainment.",
        outcome.requests, outcome.events, spec.slo_ms
    ));
    out.notes.push(
        "Deterministic at any thread count: streams are seeded per (tenant, load), chips \
         simulate disjoint shards, and results merge in (load, chip) order."
            .to_string(),
    );
    Ok(out)
}

/// Nanoseconds of re-mapping stall charged to every surviving chip per
/// task the mapper had to move off a lost chip.
const REMAP_NS_PER_TASK: u64 = 50_000;

fn run_resilience(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let runner = ctx.runner()?;
    let spec = s.serving.clone().unwrap_or_default();
    spec.validate().map_err(ScenarioError::Serving)?;
    let fspec = s.faults.clone().unwrap_or_default();
    fspec.validate().map_err(ScenarioError::Faults)?;
    let service_ns = tenant_service_ns(s, &spec);
    let seed = s.seed_or(SERVING_SEED);

    // The mapping/DES side runs on Floret when the scenario includes
    // it (the paper's architecture), like the `faults` experiment.
    let floret = NoiArch::Floret { lambda: 6 };
    let platform = if s.archs.contains(&floret) {
        runner.platform(&floret)
    } else {
        &runner.platforms()[0]
    };
    let wl_name = if s.workloads.iter().any(|n| n == "WL1") {
        "WL1".to_string()
    } else {
        s.workloads[0].clone()
    };
    let wl = dnn::table2_workload(&wl_name).expect("resolved workload");
    let topo = platform.topology();
    let hw = &s.cfg25.hw;
    let node_count = s.cfg25.node_count();
    let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;

    let mut out = ExperimentOutput::new("resilience", "");
    let mut lat = Table::new(
        &format!(
            "resilience vs fault scale ({} chips, {} tenants, {} ms horizon)",
            spec.fleet,
            spec.tenants.len(),
            spec.horizon_ms
        ),
        vec![
            Column::float("scale", 2),
            Column::float("load", 2),
            Column::uint("requests"),
            Column::uint("completed"),
            Column::uint("rejected"),
            Column::uint("timed out"),
            Column::uint("retries"),
            Column::uint("failovers"),
            Column::percentile("p50"),
            Column::percentile("p99"),
            Column::float("slo attain", 4),
            Column::float("mean batch", 2),
        ],
    );
    let mut acct = Table::new(
        &format!(
            "fault-plan accounting on {} ({wl_name}): remapping and NoI detours",
            platform.arch_name()
        ),
        vec![
            Column::float("scale", 2),
            Column::uint("chip downs"),
            Column::uint("link faults"),
            Column::uint("remapped tasks"),
            Column::duration("remap penalty"),
            Column::uint("fault wait cyc"),
            Column::uint("faulted hops"),
            Column::float("mean hop lat", 2),
        ],
    );

    let mut des_scratch = SimScratch::new();
    // One fault-free replay fixes the DES cycle budget; every scale's
    // blackout onsets then map proportionally onto it so the windows
    // land inside the replay rather than past its makespan.
    let flows = generate_pattern(topo, TrafficPattern::UniformRandom, 4096, seed);
    let base_makespan = simulate_with_table(
        topo,
        hw,
        &flows,
        &SimConfig::default(),
        platform.route_table(),
    )
    .makespan_cycles;
    for &scale in &[0.0, 0.5, 1.0, 2.0] {
        let scaled = fspec.scaled(scale);
        let plan = FaultPlan::generate(
            &scaled,
            spec.fleet,
            topo.link_count(),
            horizon_ns,
            seed ^ 0xFA17,
        );

        // Permanent chip loss re-maps the lost chips' share of the
        // workload; the churn departures price the serving-side stall.
        let downs = plan.distinct_down_chips();
        let departures = if downs.is_empty() {
            0
        } else {
            // Each fleet chip owns a deterministic slab of chiplets;
            // losing it takes those chiplets out of the mapping.
            let failed: Vec<NodeId> = (0..downs.len() * 3)
                .map(|i| NodeId(topology::narrow::u32_idx((i * 37 + 13) % node_count)))
                .collect();
            platform
                .map_workload_churn_with_faults(&wl, &failed)
                .departures
        };
        let remap_penalty_ns = departures as u64 * REMAP_NS_PER_TASK;

        let params = ResilienceParams::from_spec(&scaled, plan.clone(), remap_penalty_ns);
        let outcome = simulate_resilient_serving(&spec, &params, &service_ns, seed, s.threads);
        for lp in &outcome.per_load {
            lat.push(vec![
                CellValue::Float(scale),
                CellValue::Float(lp.load),
                CellValue::UInt(lp.offered),
                CellValue::UInt(lp.completed),
                CellValue::UInt(lp.rejected),
                CellValue::UInt(lp.timed_out),
                CellValue::UInt(lp.retries),
                CellValue::UInt(lp.failovers),
                CellValue::Duration(lp.p50_ns as f64),
                CellValue::Duration(lp.p99_ns as f64),
                CellValue::Float(lp.slo_attainment),
                CellValue::Float(lp.mean_batch),
            ]);
        }

        // The same plan's link blackouts replay in the packet DES:
        // each onset maps proportionally from the serving horizon onto
        // the baseline makespan, and the blackout lasts its wall-clock
        // duration at the 1 us = 1 cycle compression. Uniform
        // background traffic then measures the per-hop stall.
        let windows: Vec<(topology::LinkId, u64, u64)> = plan
            .link_windows()
            .iter()
            .map(|&(l, s0, e0)| {
                let start =
                    ((s0 as u128 * base_makespan as u128) / horizon_ns.max(1) as u128) as u64;
                (l, start, start + ((e0 - s0) / 1000).max(1))
            })
            .collect();
        let faults = LinkFaults::from_link_windows(topo, &windows);
        let report = simulate_faulty_with_scratch(
            topo,
            hw,
            &flows,
            &SimConfig::default(),
            platform.route_table(),
            &faults,
            &mut des_scratch,
        );
        acct.push(vec![
            CellValue::Float(scale),
            CellValue::UInt(plan.chip_faults.len() as u64),
            CellValue::UInt(plan.link_faults.len() as u64),
            CellValue::UInt(departures as u64),
            CellValue::Duration(remap_penalty_ns as f64),
            CellValue::UInt(report.total_fault_wait_cycles),
            CellValue::UInt(report.faulted_traversals),
            CellValue::Float(report.mean_hop_header_latency_cycles),
        ]);
    }
    out.tables.push(lat);
    out.tables.push(acct);
    out.notes.push(format!(
        "Fault plan: seeded per-chip MTBF/MTTR renewal + fabric link blackouts, scaled \
         0/0.5/1/2x; retry backoff {}us base capped {}us, {} retries, {} ms timeout.",
        fspec.retry.backoff_base_us,
        fspec.retry.backoff_cap_us,
        fspec.retry.max_retries,
        fspec.retry.timeout_ms
    ));
    out.notes.push(
        "Deterministic at any thread count; request conservation (injected = completed + \
         rejected + timed out) holds at every point; the 0.00-scale row replays the \
         `serving` experiment exactly."
            .to_string(),
    );
    Ok(out)
}

fn run_faults(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let runner = ctx.runner()?;
    let floret = NoiArch::Floret { lambda: 6 };
    let platform = if s.archs.contains(&floret) {
        runner.platform(&floret)
    } else {
        &runner.platforms()[0]
    };
    let wl_name = if s.workloads.iter().any(|n| n == "WL1") {
        "WL1".to_string()
    } else {
        s.workloads[0].clone()
    };
    let wl = dnn::table2_workload(&wl_name).expect("resolved workload");
    let node_count = s.cfg25.node_count();
    let topo = platform.topology();
    let hw = &s.cfg25.hw;
    let seed = s.seed_or(7);

    let mut out = ExperimentOutput::new("faults", "");
    let mut t = Table::new(
        &format!(
            "fault injection on {} ({wl_name}): SFC re-stitching",
            platform.arch_name()
        ),
        vec![
            Column::uint("faults"),
            Column::uint("mapped"),
            Column::uint("failed"),
            Column::float("mean hops", 2),
            Column::uint("departures"),
            Column::uint("live flows"),
            Column::float("des hop lat", 2),
        ],
    );
    let fault_counts = [0usize, 2, 5, 10, 15, 20, 30];
    let rows = parallel_map(&fault_counts, runner.threads(), |&n_faults| {
        // Deterministic fault pattern: every k-th chiplet of the grid.
        let failed: Vec<NodeId> = (0..n_faults)
            .map(|i| NodeId(topology::narrow::u32_idx((i * 37 + 13) % node_count)))
            .collect();
        let outcome = platform.map_workload_churn_with_faults(&wl, &failed);
        let (hops, _) = platform.degraded_hops(&wl, &failed);
        // Replay uniform background traffic through the packet DES on a
        // detour table that prices every link touching a dead chiplet
        // at infinity: the post-fault per-hop header latency.
        let dead: Vec<topology::LinkId> = topo
            .links()
            .iter()
            .filter(|l| failed.contains(&l.a) || failed.contains(&l.b))
            .map(|l| l.id)
            .collect();
        let detour = RouteTable::build_excluding(topo, hw, &dead);
        let flows: Vec<netsim::Flow> =
            generate_pattern(topo, TrafficPattern::UniformRandom, 4096, seed)
                .into_iter()
                .filter(|f| f.src != f.dst && detour.next_link(f.src, f.dst).is_some())
                .collect();
        let des = simulate_with_table(topo, hw, &flows, &SimConfig::default(), &detour);
        (
            n_faults,
            outcome.placements.len(),
            outcome.failed.len(),
            hops,
            outcome.departures,
            flows.len(),
            des.mean_hop_header_latency_cycles,
        )
    });
    for (n_faults, mapped, failed, hops, departures, live, hop_lat) in rows {
        t.push(cells![
            n_faults, mapped, failed, hops, departures, live, hop_lat
        ]);
    }
    out.tables.push(t);
    out.notes.push(
        "The curve re-stitches over dead chiplets: hop counts grow gracefully with the \
         fault count and every task still completes (no task loss until capacity itself \
         is exhausted)."
            .to_string(),
    );
    out.notes.push(
        "`des hop lat` replays uniform traffic through the packet DES on a detour table \
         that avoids every link touching a dead chiplet; flows with an unreachable \
         endpoint are dropped from the replay (`live flows`)."
            .to_string(),
    );
    Ok(out)
}

fn run_pareto(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let platform = Platform3D::new(&s.cfg3d)?;
    let net = build_model(ModelKind::ResNet34, Dataset::Cifar10).expect("resnet34 builds");
    let sg = SegmentGraph::from_layer_graph(&net);
    let nsga = NsgaConfig {
        population: 32,
        generations: 30,
        seed: s.seed_or(0xFACE),
    };
    let front = platform.pareto_front(&sg, &nsga)?;

    let mut out = ExperimentOutput::new("pareto", "");
    let mut t = Table::new(
        "ResNet-34 placement Pareto front (EDP vs peak temperature)",
        vec![
            Column::float("EDP(norm)", 3),
            Column::float("peak(K)", 1),
            Column::uint("hotspots"),
            Column::float("acc drop %", 1),
        ],
    );
    for p in &front {
        t.push(cells![
            p.edp_norm,
            p.peak_k,
            p.eval.hotspots,
            p.eval.accuracy_drop * 100.0
        ]);
    }
    out.tables.push(t);
    out.notes.push(
        "The SFC order anchors EDP = 1.0; the paper's joint design point sits on the knee \
         of this front."
            .to_string(),
    );
    Ok(out)
}

fn run_ablation_kite(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let (w, h) = (s.cfg25.width, s.cfg25.height);
    let hw = &s.cfg25.hw;
    let seed = s.seed_or(11);
    let base = kite(w, h).map_err(ScenarioError::Topology)?;

    let mut out = ExperimentOutput::new("ablation_kite", "");
    let mut t = Table::new(
        &format!("Kite skip-link sweep ({w}x{h}): structure, area, uniform traffic"),
        vec![
            Column::uint("skips"),
            Column::uint("links"),
            Column::uint("max ports"),
            Column::float("area(mm2)", 1),
            Column::float("avg hops", 2),
            Column::sci("energy(pJ)", 3),
        ],
    );
    for skips in [0usize, 4, 8, 16, 32] {
        let topo = if skips == 0 {
            base.clone()
        } else {
            kite_with_skips(w, h, skips, 7).map_err(ScenarioError::Topology)?
        };
        let max_ports = topo
            .nodes()
            .iter()
            .map(|n| topo.ports(n.id))
            .max()
            .unwrap_or(0);
        let flows = generate_pattern(&topo, TrafficPattern::UniformRandom, 4096, seed);
        let ana = analyze(&topo, hw, &flows);
        t.push(cells![
            skips,
            topo.link_count(),
            max_ports,
            hw.noi_area_mm2(&topo),
            ana.mean_weighted_hops,
            ana.total_energy_pj
        ]);
    }
    out.tables.push(t);
    out.notes.push(
        "Skips trade area (bigger routers, more wire) for shorter random-traffic paths — \
         the Kite family's design space. For DNN pipeline traffic the skips are dead \
         weight, which is the paper's core argument against them."
            .to_string(),
    );
    Ok(out)
}

fn run_ablation_thermal(ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
    let s = ctx.scenario();
    let net = build_model(ModelKind::ResNet34, Dataset::Cifar10).expect("resnet34 builds");
    let sg = SegmentGraph::from_layer_graph(&net);
    let mut out = ExperimentOutput::new("ablation_thermal", "");

    let mut stacks = Table::new(
        "M3D vs TSV: same workload, same SFC placement",
        vec![
            Column::str("stack"),
            Column::float("peak(K)", 1),
            Column::float("mean(K)", 1),
            Column::uint("hotspots"),
            Column::float("acc drop %", 1),
        ],
    );
    for (name, thermal) in [("M3D", ThermalConfig::m3d()), ("TSV", ThermalConfig::tsv())] {
        let cfg = SystemConfig {
            thermal,
            ..s.cfg3d.clone()
        };
        let platform = Platform3D::new(&cfg)?;
        let eval = platform.evaluate(&sg, &platform.sfc_order())?;
        stacks.push(cells![
            name,
            eval.peak_k,
            eval.mean_k,
            eval.hotspots,
            eval.accuracy_drop * 100.0
        ]);
    }
    out.tables.push(stacks);

    let mut sweep = Table::new(
        "vertical-conductance sweep (W/K) on the SFC placement",
        vec![
            Column::float("g_vert", 1),
            Column::float("peak(K)", 1),
            Column::float("acc drop %", 1),
        ],
    );
    for g in [0.3, 0.6, 1.0, 2.0, 4.0] {
        let cfg = SystemConfig {
            thermal: ThermalConfig {
                g_vertical: g,
                ..ThermalConfig::m3d()
            },
            ..s.cfg3d.clone()
        };
        let platform = Platform3D::new(&cfg)?;
        let eval = platform.evaluate(&sg, &platform.sfc_order())?;
        sweep.push(cells![g, eval.peak_k, eval.accuracy_drop * 100.0]);
    }
    out.tables.push(sweep);
    out.notes.push(
        "M3D's thin inter-layer dielectric conducts heat to the sink far better than TSV \
         bonding layers (Section I), so the same mapping runs cooler."
            .to_string(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_complete() {
        assert_eq!(table1_rows().len(), 13);
        assert_eq!(table2_rows().len(), 5);
    }

    #[test]
    fn fig2_has_four_architectures() {
        let runner = SweepRunner::new(&SystemConfig::datacenter_25d()).unwrap();
        let rows = runner.fig2_summaries();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.routers, 100);
        }
    }

    #[test]
    fn cost_rows_normalized_to_floret() {
        let rows = cost_rows(&SweepRunner::new(&SystemConfig::datacenter_25d()).unwrap());
        let floret = rows.iter().find(|r| r.arch == "Floret").unwrap();
        assert!((floret.ratio_vs_floret - 1.0).abs() < 1e-12);
        for r in &rows {
            if r.arch != "Floret" {
                assert!(r.ratio_vs_floret > 1.0, "{} must cost more", r.arch);
            }
        }
    }

    #[test]
    fn fig6_models_fit_the_3d_system() {
        let cfg = SystemConfig::stacked_3d();
        let capacity = cfg.node_capacity() * cfg.node_count() as u64;
        for e in fig6_models() {
            let g = build_model(e.kind, e.dataset).unwrap();
            assert!(
                g.total_params() < capacity,
                "{} does not fit the 3D stack",
                e.id
            );
        }
    }

    #[test]
    fn transformer_rows_cover_both_models() {
        let rows = transformer_rows();
        assert_eq!(rows.len(), 2);
        for (_, sweep) in &rows {
            assert_eq!(sweep.len(), 6);
        }
    }

    #[test]
    fn fig345_single_run_is_complete() {
        let cfg = SystemConfig::datacenter_25d();
        let r = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg)
            .unwrap()
            .run_workload(&dnn::table2_workload("WL1").unwrap());
        assert_eq!(r.arch, "Floret");
        assert_eq!(r.workload, "WL1");
        assert!(r.total_traffic_bytes > 0);
        assert!(
            r.noi_energy_pj > r.noi_dynamic_energy_pj,
            "static share present"
        );
    }

    #[test]
    fn heatmap_shape() {
        let slice = vec![vec![300.0, 350.0], vec![400.0, 325.0]];
        let map = ascii_heatmap(&slice, 300.0, 400.0);
        assert_eq!(map.lines().count(), 2);
        assert!(map.starts_with(". "));
        assert!(map.contains('@'));
    }

    #[test]
    fn activation_rows_cover_resnets() {
        let rows = activation_rows();
        assert_eq!(rows.len(), 3);
        let r34 = &rows[1];
        assert!(r34.skip_fraction > 0.05 && r34.skip_fraction < 0.3);
    }

    #[test]
    fn registry_covers_every_paper_artifact() {
        let names = registry().names();
        assert_eq!(names.len(), 22);
        for expected in [
            "table1",
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "dataflows",
            "mapping_search",
            "cost",
            "activations",
            "transformer",
            "hetero",
            "patterns",
            "poisson",
            "faults",
            "serving",
            "resilience",
            "pareto",
            "ablation_kite",
            "ablation_thermal",
        ] {
            assert!(names.contains(&expected), "missing experiment `{expected}`");
        }
        for spec in registry().specs() {
            assert!(!spec.description.is_empty(), "{} undescribed", spec.name);
        }
    }

    #[test]
    fn mapping_search_never_loses_a_cell_to_the_hand_modes() {
        use crate::scenario::{CellValue, Scenario};
        let mut s = Scenario::new("mapping_search");
        s.archs = vec![NoiArch::Floret { lambda: 6 }, NoiArch::Kite];
        s.workloads = vec!["WL3".to_string()];
        let out = registry().run_scenario(&s).unwrap();
        out.validate().unwrap();
        let t = &out.tables[0];
        assert_eq!(t.rows.len(), 2, "one row per (mix, arch) cell");
        for row in &t.rows {
            let (best, srch, ratio) = match (&row[6], &row[7], &row[8]) {
                (CellValue::Float(b), CellValue::Float(s), CellValue::Float(r)) => (*b, *s, *r),
                other => panic!("unexpected cell types {other:?}"),
            };
            assert!(
                srch <= best,
                "searched EDP {srch} must not exceed the best hand mode {best}"
            );
            assert!(ratio <= 1.0, "srch/best ratio {ratio} > 1");
        }
        assert!(out.notes.iter().any(|n| n.contains("by construction")));
    }

    #[test]
    fn cheap_experiments_produce_schema_valid_output() {
        use crate::scenario::Scenario;
        for name in [
            "table1",
            "table2",
            "cost",
            "activations",
            "transformer",
            "hetero",
            "fig2",
        ] {
            let out = registry()
                .run_scenario(&Scenario::new(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.experiment, name);
            assert!(!out.tables.is_empty(), "{name} produced no tables");
            out.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            for table in &out.tables {
                assert!(
                    !table.rows.is_empty(),
                    "{name}: empty table `{}`",
                    table.title
                );
            }
        }
    }

    #[test]
    fn serving_experiment_reports_percentiles_and_slo() {
        use crate::scenario::Scenario;
        let out = registry().run_scenario(&Scenario::new("serving")).unwrap();
        out.validate().unwrap();
        assert_eq!(out.tables.len(), 2);
        // Two offered-load points on the default 2-chip fleet.
        assert_eq!(out.tables[0].rows.len(), 2);
        assert_eq!(out.tables[1].rows.len(), 4);
        assert_eq!(out.histograms.len(), 2);
        for h in &out.histograms {
            assert!(h.total() > 0, "histogram `{}` is empty", h.title);
        }
    }

    #[test]
    fn resilience_experiment_replays_serving_at_zero_fault_scale() {
        use crate::scenario::Scenario;
        let reg = registry();
        let res = reg.run_scenario(&Scenario::new("resilience")).unwrap();
        res.validate().unwrap();
        assert_eq!(res.tables.len(), 2);
        // Four fault scales x two offered-load points.
        assert_eq!(res.tables[0].rows.len(), 8);
        assert_eq!(res.tables[1].rows.len(), 4);

        let srv = reg.run_scenario(&Scenario::new("serving")).unwrap();
        // The 0.00-scale rows are cell-identical to the serving
        // experiment on every shared column, with no fault activity.
        // lat columns: scale, load, requests, completed, rejected,
        // timed out, retries, failovers, p50, p99, slo attain, mean batch.
        for (row, srow) in res.tables[0].rows[..2].iter().zip(&srv.tables[0].rows) {
            assert_eq!(row[0], CellValue::Float(0.0));
            assert_eq!(row[1], srow[0], "load");
            assert_eq!(row[2], srow[2], "requests");
            assert_eq!(row[3], srow[3], "completed");
            assert_eq!(row[4], srow[4], "rejected");
            assert_eq!(row[5], CellValue::UInt(0), "timed out");
            assert_eq!(row[6], CellValue::UInt(0), "retries");
            assert_eq!(row[7], CellValue::UInt(0), "failovers");
            assert_eq!(row[8], srow[5], "p50");
            assert_eq!(row[9], srow[7], "p99");
            assert_eq!(row[10], srow[8], "slo attain");
            assert_eq!(row[11], srow[9], "mean batch");
        }
        // At full fault scale the plan is non-empty and the fleet
        // actually degrades: some fault activity must be visible.
        let active: u64 = res.tables[0].rows[4..]
            .iter()
            .map(|r| {
                let mut sum = 0;
                for cell in &r[5..8] {
                    if let CellValue::UInt(v) = cell {
                        sum += v;
                    }
                }
                sum
            })
            .sum();
        assert!(active > 0, "no retries/timeouts/failovers at scale >= 1");
    }

    #[test]
    fn scenario_arch_subset_narrows_the_grid() {
        use crate::scenario::Scenario;
        let mut s = Scenario::new("fig3");
        s.archs = vec![NoiArch::Floret { lambda: 6 }, NoiArch::Kite];
        s.workloads = vec!["WL1".to_string()];
        let out = registry().run_scenario(&s).unwrap();
        // One workload x two architectures.
        assert_eq!(out.tables[0].rows.len(), 2);
        out.validate().unwrap();
    }

    #[test]
    fn registry_rejects_unknown_experiments() {
        use crate::scenario::{Scenario, ScenarioError};
        assert_eq!(
            registry()
                .run_scenario(&Scenario::new("fig99"))
                .unwrap_err(),
            ScenarioError::UnknownExperiment("fig99".to_string())
        );
    }
}
