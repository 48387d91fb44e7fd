//! The declarative Scenario API: experiment specs as *data*, resolved
//! against a central [`ExperimentRegistry`], producing a uniform
//! [`ExperimentOutput`].
//!
//! Historically every paper artifact was a hand-rolled binary owning its
//! own config construction, sweep loop and `println!` format — adding a
//! scenario axis meant touching twenty `main` functions. This module
//! inverts that: a [`Scenario`] names an experiment plus the axes to
//! sweep (architecture set × workload set × dataflow set ×
//! [`SystemConfig`] overrides × thread count × seed), the registry maps
//! the experiment name to a run function, and every run function returns
//! the same structured shape — a typed column schema with rows and
//! notes — that the `pim-bench` CLI renders as a table, JSON or CSV.
//!
//! ```text
//!  Scenario ──resolve()──▶ ResolvedScenario ──RunContext──▶ run fn
//!  (data: name, axes,      (validated configs,  (lazy shared   │
//!   overrides, threads)     concrete axis sets)   SweepRunner)  ▼
//!                                                       ExperimentOutput
//!                                                  (tables + notes, format-free)
//! ```
//!
//! # Examples
//!
//! ```
//! use pim_core::{experiments, Scenario};
//!
//! let registry = experiments::registry();
//! assert!(registry.get("table1").is_some());
//!
//! let out = registry.run_scenario(&Scenario::new("table1"))?;
//! assert_eq!(out.experiment, "table1");
//! assert_eq!(out.tables[0].rows.len(), 13);
//! for table in &out.tables {
//!     table.validate().expect("typed rows match the column schema");
//! }
//! # Ok::<(), pim_core::ScenarioError>(())
//! ```

use std::cell::OnceCell;
use std::fmt;

use dnn::{Dataflow, Workload};
use mapper::{MapError, StrategyKind};
use serde::{Deserialize, Serialize};
use thermal::ThermalError;
use topology::TopologyError;

use crate::arch::NoiArch;
use crate::config::{ConfigError, SystemConfig};
use crate::faults::{FaultError, FaultSpec};
use crate::serving::{ServingError, ServingSpec};
use crate::sweep::{default_threads, CacheStats, SweepRunner};

/// A declarative experiment specification: *which* artifact to
/// regenerate and along *which* axes, with no imperative wiring.
///
/// Empty axis vectors mean "the paper default set" (all four
/// architectures, all five Table II mixes, all four dataflow modes).
/// `overrides` are `(key, value)` pairs applied through the validating
/// [`SystemConfig::builder`] to **both** base configs (2.5D and 3D), so
/// a degenerate spec fails fast with a typed [`ConfigError`]; `tiers`
/// alone reaches only the 3D config, since 2.5D systems are single-tier.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Registry name of the experiment (`"table1"`, `"fig3"`, ... or
    /// `"all"` at the CLI layer).
    pub experiment: String,
    /// Architecture subset; empty = [`NoiArch::all`].
    pub archs: Vec<NoiArch>,
    /// Table II workload-mix subset by name; empty = all five mixes.
    pub workloads: Vec<String>,
    /// Dataflow subset; empty = [`Dataflow::all`].
    pub dataflows: Vec<Dataflow>,
    /// `(key, value)` [`SystemConfig`] overrides (the `--set` surface).
    pub overrides: Vec<(String, String)>,
    /// Worker-thread count; `None` = one per hardware thread. Results
    /// are bit-identical for any value (the engine's determinism
    /// contract) — this only changes wall-clock time.
    pub threads: Option<usize>,
    /// Override for the stochastic components' seeds (synthetic traffic,
    /// Poisson arrivals, annealing, NSGA-II); `None` = the paper-pinned
    /// defaults.
    pub seed: Option<u64>,
    /// Mapping-strategy override for experiments that place tasks;
    /// `None` = each experiment's paper default (SFC where a chiplet
    /// layout exists, greedy otherwise).
    pub strategy: Option<StrategyKind>,
    /// Typed serving-scenario block for the `serving` experiment;
    /// `None` = [`ServingSpec::default`]. Validated by
    /// [`Scenario::resolve`].
    pub serving: Option<ServingSpec>,
    /// Typed fault-model block for the `resilience` experiment; `None` =
    /// [`FaultSpec::default`]. `--set faults.<key>` overrides apply on
    /// top (starting from this block or the default), validated by
    /// [`Scenario::resolve`].
    pub faults: Option<FaultSpec>,
}

impl Scenario {
    /// The default scenario for one experiment: paper axis sets, paper
    /// configs, paper seeds.
    pub fn new(experiment: impl Into<String>) -> Self {
        Scenario {
            experiment: experiment.into(),
            archs: Vec::new(),
            workloads: Vec::new(),
            dataflows: Vec::new(),
            overrides: Vec::new(),
            threads: None,
            seed: None,
            strategy: None,
            serving: None,
            faults: None,
        }
    }

    /// Validates the spec and materializes every axis: defaults filled
    /// in, workload names checked against Table II, overrides applied
    /// through the validating builder to both base configs (`tiers` to
    /// the 3D one only).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownWorkload`] for a name outside Table II,
    /// [`ScenarioError::Config`] when an override is unknown, fails to
    /// parse, or produces a degenerate config,
    /// [`ScenarioError::Serving`] when the serving block is structurally
    /// invalid, [`ScenarioError::Faults`] when the fault block or a
    /// `faults.*` override is.
    pub fn resolve(&self) -> Result<ResolvedScenario, ScenarioError> {
        if let Some(spec) = &self.serving {
            spec.validate()?;
        }
        let archs = if self.archs.is_empty() {
            NoiArch::all()
        } else {
            self.archs.clone()
        };
        let workloads = if self.workloads.is_empty() {
            dnn::table2().into_iter().map(|wl| wl.name).collect()
        } else {
            for name in &self.workloads {
                if dnn::table2_workload(name).is_none() {
                    return Err(ScenarioError::UnknownWorkload(name.clone()));
                }
            }
            self.workloads.clone()
        };
        let dataflows = if self.dataflows.is_empty() {
            Dataflow::all().to_vec()
        } else {
            self.dataflows.clone()
        };
        // `faults.*` overrides route to the fault spec, everything else
        // through the validating config builder.
        let mut cfg_overrides: Vec<(&str, &str)> = Vec::new();
        let mut fault_overrides: Vec<(&str, &str)> = Vec::new();
        for (k, v) in &self.overrides {
            match k.strip_prefix("faults.") {
                Some(fk) => fault_overrides.push((fk, v.as_str())),
                None => cfg_overrides.push((k.as_str(), v.as_str())),
            }
        }
        let faults = if self.faults.is_some() || !fault_overrides.is_empty() {
            let mut spec = self.faults.clone().unwrap_or_default();
            for (fk, v) in &fault_overrides {
                spec.set(fk, v)?;
            }
            spec.validate()?;
            Some(spec)
        } else {
            None
        };
        // 2.5D systems are single-tier: `tiers` shapes the 3D stack only.
        let apply = |base: SystemConfig, stacked: bool| -> Result<SystemConfig, ConfigError> {
            let overrides = cfg_overrides.iter().copied();
            let overrides = overrides.filter(|&(k, _)| stacked || k != "tiers");
            base.builder().apply(overrides)?.build()
        };
        Ok(ResolvedScenario {
            experiment: self.experiment.clone(),
            archs,
            workloads,
            dataflows,
            cfg25: apply(SystemConfig::datacenter_25d(), false)?,
            cfg3d: apply(SystemConfig::stacked_3d(), true)?,
            threads: self.threads.unwrap_or_else(default_threads).max(1),
            seed: self.seed,
            strategy: self.strategy,
            serving: self.serving.clone(),
            faults,
        })
    }
}

/// A fully materialized [`Scenario`]: every axis concrete, both configs
/// validated. This is what run functions and [`SweepRunner::from_scenario`]
/// consume.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ResolvedScenario {
    /// Registry name of the experiment.
    pub experiment: String,
    /// Concrete architecture set (never empty).
    pub archs: Vec<NoiArch>,
    /// Concrete Table II mix names (never empty, all valid).
    pub workloads: Vec<String>,
    /// Concrete dataflow set (never empty).
    pub dataflows: Vec<Dataflow>,
    /// Validated 2.5D datacenter config with overrides applied.
    pub cfg25: SystemConfig,
    /// Validated 3D stacked config with overrides applied.
    pub cfg3d: SystemConfig,
    /// Effective worker-thread count (≥ 1).
    pub threads: usize,
    /// Seed override for stochastic components; `None` = paper defaults.
    pub seed: Option<u64>,
    /// Mapping-strategy override; `None` = per-experiment paper default.
    pub strategy: Option<StrategyKind>,
    /// Validated serving block; `None` = [`ServingSpec::default`] for
    /// the `serving` experiment, unused elsewhere.
    pub serving: Option<ServingSpec>,
    /// Validated fault block (`faults.*` overrides applied); `None` =
    /// [`FaultSpec::default`] for the `resilience` experiment, unused
    /// elsewhere.
    pub faults: Option<FaultSpec>,
}

impl ResolvedScenario {
    /// The resolved Table II workloads, in scenario order.
    pub fn workload_set(&self) -> Vec<Workload> {
        self.workloads
            .iter()
            .map(|n| dnn::table2_workload(n).expect("resolve() validated the names"))
            .collect()
    }

    /// The scenario's seed, or `default` (the paper-pinned value) when
    /// no override was given.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

/// Why a scenario could not be resolved or run.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The experiment name is not in the registry.
    UnknownExperiment(String),
    /// A workload name is not a Table II mix.
    UnknownWorkload(String),
    /// A config override was rejected.
    Config(ConfigError),
    /// The overridden config produced an unbuildable topology.
    Topology(TopologyError),
    /// The serving block is structurally invalid (bad fleet, loads,
    /// tenant model, ...).
    Serving(ServingError),
    /// The fault block or a `faults.*` override is structurally invalid.
    Faults(FaultError),
    /// A forced mapping strategy cannot apply to the selected
    /// architecture.
    Strategy(String),
    /// The experiment's model does not fit the configured system (a
    /// valid config too small for it, e.g. `--set tiers=1` under fig6).
    Placement(MapError),
    /// The 3D stack's thermal config is non-physical (a conductance that
    /// is not finite and positive, or a non-finite ambient) or too
    /// ill-conditioned to factor.
    Thermal(ThermalError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownExperiment(name) => {
                write!(f, "unknown experiment `{name}` (see `pim-bench list`)")
            }
            ScenarioError::UnknownWorkload(name) => {
                write!(f, "unknown workload `{name}` (Table II: WL1..WL5)")
            }
            ScenarioError::Config(e) => write!(f, "invalid config: {e}"),
            ScenarioError::Topology(e) => write!(f, "topology build failed: {e}"),
            ScenarioError::Serving(e) => write!(f, "invalid serving spec: {e}"),
            ScenarioError::Faults(e) => write!(f, "invalid fault spec: {e}"),
            ScenarioError::Strategy(msg) => write!(f, "invalid strategy: {msg}"),
            ScenarioError::Placement(e) => write!(f, "model does not fit the system: {e}"),
            ScenarioError::Thermal(e) => write!(f, "invalid thermal model: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

impl From<TopologyError> for ScenarioError {
    fn from(e: TopologyError) -> Self {
        ScenarioError::Topology(e)
    }
}

impl From<ServingError> for ScenarioError {
    fn from(e: ServingError) -> Self {
        ScenarioError::Serving(e)
    }
}

impl From<FaultError> for ScenarioError {
    fn from(e: FaultError) -> Self {
        ScenarioError::Faults(e)
    }
}

impl From<MapError> for ScenarioError {
    fn from(e: MapError) -> Self {
        ScenarioError::Placement(e)
    }
}

impl From<ThermalError> for ScenarioError {
    fn from(e: ThermalError) -> Self {
        ScenarioError::Thermal(e)
    }
}

/// One cell of an experiment table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CellValue {
    /// A label (workload, architecture, model, ...).
    Str(String),
    /// An unsigned count.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A measurement (also used by ratio columns).
    Float(f64),
    /// A time span in nanoseconds; tables render it humanized
    /// (`ns`/`µs`/`ms`/`s`), JSON and CSV keep the raw nanosecond value.
    Duration(f64),
}

impl From<&str> for CellValue {
    fn from(v: &str) -> Self {
        CellValue::Str(v.to_string())
    }
}
impl From<String> for CellValue {
    fn from(v: String) -> Self {
        CellValue::Str(v)
    }
}
impl From<u64> for CellValue {
    fn from(v: u64) -> Self {
        CellValue::UInt(v)
    }
}
impl From<usize> for CellValue {
    fn from(v: usize) -> Self {
        CellValue::UInt(v as u64)
    }
}
impl From<u32> for CellValue {
    fn from(v: u32) -> Self {
        CellValue::UInt(u64::from(v))
    }
}
impl From<i64> for CellValue {
    fn from(v: i64) -> Self {
        CellValue::Int(v)
    }
}
impl From<f64> for CellValue {
    fn from(v: f64) -> Self {
        CellValue::Float(v)
    }
}

impl CellValue {
    /// True when the cell's variant matches the column type.
    pub fn matches(&self, ty: &ColumnType) -> bool {
        matches!(
            (self, ty),
            (CellValue::Str(_), ColumnType::Str)
                | (CellValue::UInt(_), ColumnType::UInt)
                | (CellValue::Int(_), ColumnType::Int)
                | (CellValue::Float(_), ColumnType::Float { .. })
                | (CellValue::Float(_), ColumnType::Ratio)
                | (CellValue::Duration(_), ColumnType::Duration)
        )
    }
}

/// The type (and table-rendering hint) of one experiment column.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Label column, left-aligned.
    Str,
    /// Unsigned count, right-aligned.
    UInt,
    /// Signed integer, right-aligned.
    Int,
    /// Floating-point measurement.
    Float {
        /// Digits after the decimal point in table rendering.
        precision: u8,
        /// Render as `{:e}` scientific notation.
        scientific: bool,
    },
    /// A ratio rendered `x.xx×`-style (`"1.32x"`) in tables, raw `f64`
    /// in JSON/CSV.
    Ratio,
    /// A nanosecond time span, humanized in tables (`1.234 ms`), raw
    /// nanoseconds in JSON/CSV.
    Duration,
}

/// One column of an experiment table: name plus [`ColumnType`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Header label.
    pub name: String,
    /// Cell type and rendering hint.
    pub ty: ColumnType,
}

impl Column {
    /// A label column.
    pub fn str(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::Str,
        }
    }

    /// An unsigned-count column.
    pub fn uint(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::UInt,
        }
    }

    /// A signed-integer column.
    pub fn int(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::Int,
        }
    }

    /// A fixed-precision float column.
    pub fn float(name: &str, precision: u8) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::Float {
                precision,
                scientific: false,
            },
        }
    }

    /// A scientific-notation float column.
    pub fn sci(name: &str, precision: u8) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::Float {
                precision,
                scientific: true,
            },
        }
    }

    /// A ratio column (`"1.32x"` in tables).
    pub fn ratio(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::Ratio,
        }
    }

    /// A duration column (nanoseconds, humanized in tables).
    pub fn duration(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: ColumnType::Duration,
        }
    }

    /// A latency-percentile column: a [`ColumnType::Duration`] column
    /// conventionally named `p50`/`p95`/`p99`.
    pub fn percentile(name: &str) -> Column {
        Column::duration(name)
    }
}

/// One titled table of an [`ExperimentOutput`]: a typed column schema
/// plus rows of [`CellValue`]s.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Section title (what the old binaries printed as `=== ... ===`).
    pub title: String,
    /// Typed column schema.
    pub columns: Vec<Column>,
    /// Data rows; every row has one cell per column, variant matching
    /// the column type ([`Table::validate`]).
    pub rows: Vec<Vec<CellValue>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(title: &str, columns: Vec<Column>) -> Table {
        Table {
            title: title.to_string(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the column count (a
    /// programming error in a run function, caught in tests).
    pub fn push(&mut self, cells: Vec<CellValue>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity mismatch in table `{}`",
            self.title
        );
        self.rows.push(cells);
    }

    /// Checks every row against the column schema (arity and variant).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn validate(&self) -> Result<(), String> {
        for (ri, row) in self.rows.iter().enumerate() {
            if row.len() != self.columns.len() {
                return Err(format!(
                    "table `{}` row {ri}: {} cells for {} columns",
                    self.title,
                    row.len(),
                    self.columns.len()
                ));
            }
            for (cell, col) in row.iter().zip(&self.columns) {
                if !cell.matches(&col.ty) {
                    return Err(format!(
                        "table `{}` row {ri} column `{}`: {cell:?} does not match {:?}",
                        self.title, col.name, col.ty
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A titled distribution section of an [`ExperimentOutput`]: fixed bin
/// edges plus counts. All three `pim_bench::output` formats render it —
/// ASCII bars in tables, structured arrays in JSON, bin rows in CSV.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Section title.
    pub title: String,
    /// Unit label of the binned quantity (e.g. `"ns"`).
    pub unit: String,
    /// Ascending bin edges; `edges.len() == counts.len() + 1`. Samples
    /// outside the range clamp into the first/last bin.
    pub edges: Vec<f64>,
    /// Sample count per bin.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over the given ascending bin edges.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two edges or non-ascending edges.
    pub fn new(title: &str, unit: &str, edges: Vec<f64>) -> Histogram {
        assert!(edges.len() >= 2, "histogram `{title}` needs ≥ 2 edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram `{title}` edges must be strictly ascending"
        );
        let bins = edges.len() - 1;
        Histogram {
            title: title.to_string(),
            unit: unit.to_string(),
            edges,
            counts: vec![0; bins],
        }
    }

    /// Records one sample, clamping out-of-range values into the
    /// first/last bin.
    pub fn record(&mut self, value: f64) {
        let bins = self.counts.len();
        // First edge ≤ value < next edge; partition_point gives the
        // count of edges ≤ value.
        let idx = self.edges.partition_point(|&e| e <= value);
        self.counts[idx.saturating_sub(1).min(bins - 1)] += 1;
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Checks the edge/count arity invariant.
    ///
    /// # Errors
    ///
    /// A human-readable description of the mismatch.
    pub fn validate(&self) -> Result<(), String> {
        if self.edges.len() != self.counts.len() + 1 {
            return Err(format!(
                "histogram `{}`: {} edges for {} bins",
                self.title,
                self.edges.len(),
                self.counts.len()
            ));
        }
        Ok(())
    }
}

/// The uniform result of running one experiment: tables, optional
/// distribution histograms, plus free-form notes (the commentary the
/// old binaries printed after their tables). Rendering to
/// table/JSON/CSV lives in `pim_bench::output`; this type is
/// format-free.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutput {
    /// Registry name of the experiment that produced this.
    pub experiment: String,
    /// The experiment's registry description.
    pub description: String,
    /// Result tables, in presentation order.
    pub tables: Vec<Table>,
    /// Distribution sections, rendered after the tables.
    pub histograms: Vec<Histogram>,
    /// Commentary and context lines.
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// An empty output shell for `experiment`.
    pub fn new(experiment: &str, description: &str) -> Self {
        ExperimentOutput {
            experiment: experiment.to_string(),
            description: description.to_string(),
            tables: Vec::new(),
            histograms: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Validates every table against its schema and every histogram's
    /// arity invariant.
    ///
    /// # Errors
    ///
    /// The first schema mismatch, as text.
    pub fn validate(&self) -> Result<(), String> {
        self.tables.iter().try_for_each(Table::validate)?;
        self.histograms.iter().try_for_each(Histogram::validate)
    }
}

/// The signature every registered experiment implements.
pub type RunFn = fn(&RunContext) -> Result<ExperimentOutput, ScenarioError>;

/// One registered experiment: name, description, run function.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Registry key (the `pim-bench run <name>` argument).
    pub name: &'static str,
    /// One-line description shown by `pim-bench list`/`describe`.
    pub description: &'static str,
    /// The run function.
    pub run: RunFn,
}

impl fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

/// The central experiment registry: every paper artifact registered
/// once, by name. The standard instance ([`crate::experiments::registry`])
/// covers every table, figure and ablation; the type is public so tests
/// and downstream tools can assemble their own.
#[derive(Debug, Default)]
pub struct ExperimentRegistry {
    specs: Vec<ExperimentSpec>,
}

impl ExperimentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one experiment.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — every artifact is registered once.
    pub fn register(&mut self, spec: ExperimentSpec) {
        assert!(
            self.get(spec.name).is_none(),
            "experiment `{}` registered twice",
            spec.name
        );
        self.specs.push(spec);
    }

    /// All specs, in registration (presentation) order.
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// All experiment names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Looks up one experiment by name.
    pub fn get(&self, name: &str) -> Option<&ExperimentSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Runs one registered experiment against an existing context (so
    /// `run all` shares one lazily-built [`SweepRunner`] across every
    /// 2.5D experiment).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownExperiment`] for an unregistered name;
    /// otherwise whatever the run function reports.
    pub fn run(&self, ctx: &RunContext, name: &str) -> Result<ExperimentOutput, ScenarioError> {
        let spec = self
            .get(name)
            .ok_or_else(|| ScenarioError::UnknownExperiment(name.to_string()))?;
        let before = ctx.cache_stats().unwrap_or_default();
        let mut out = (spec.run)(ctx)?;
        out.experiment = spec.name.to_string();
        out.description = spec.description.to_string();
        // Surface this experiment's evaluation-cache traffic when asked.
        // Opt-in (PIM_BENCH_CACHE_STATS=1) so default renderings — and
        // the byte-pinned goldens — are unchanged; `pim-bench perf`
        // reads the counters directly instead.
        if crate::envknobs::flag("PIM_BENCH_CACHE_STATS") {
            if let Some(stats) = ctx.cache_stats() {
                let delta = stats.since(before);
                out.notes.push(format!(
                    "eval cache: {} hits, {} misses; DES components: {} runs, {} hits, \
                     {} packets simulated (config fingerprint {:016x})",
                    delta.hits,
                    delta.misses,
                    delta.component_runs,
                    delta.component_hits,
                    delta.packets_simulated,
                    ctx.cache_fingerprint().unwrap_or(0),
                ));
            }
        }
        Ok(out)
    }

    /// Resolves `scenario` and runs its experiment.
    ///
    /// # Errors
    ///
    /// Resolution errors ([`Scenario::resolve`]) or run errors
    /// ([`ExperimentRegistry::run`]).
    pub fn run_scenario(&self, scenario: &Scenario) -> Result<ExperimentOutput, ScenarioError> {
        let ctx = RunContext::new(scenario.resolve()?);
        self.run(&ctx, &scenario.experiment)
    }
}

/// Everything a run function needs: the resolved scenario plus a shared,
/// lazily-constructed [`SweepRunner`] so consecutive 2.5D experiments
/// (`pim-bench run all`) build the four platforms exactly once.
#[derive(Debug)]
pub struct RunContext {
    scenario: ResolvedScenario,
    runner: OnceCell<SweepRunner>,
    cache_override: Option<bool>,
}

impl RunContext {
    /// Wraps a resolved scenario; the engine is built on first use.
    pub fn new(scenario: ResolvedScenario) -> Self {
        RunContext {
            scenario,
            runner: OnceCell::new(),
            cache_override: None,
        }
    }

    /// [`RunContext::new`] with the evaluation cache explicitly forced on
    /// or off, overriding `PIM_BENCH_NO_CACHE` — the `pim-bench perf`
    /// harness measures the cached and uncached paths of the same
    /// process this way.
    pub fn new_with_cache(scenario: ResolvedScenario, cache_enabled: bool) -> Self {
        RunContext {
            scenario,
            runner: OnceCell::new(),
            cache_override: Some(cache_enabled),
        }
    }

    /// The resolved scenario.
    pub fn scenario(&self) -> &ResolvedScenario {
        &self.scenario
    }

    /// The shared 2.5D engine for this scenario, built once on first
    /// call ([`SweepRunner::from_scenario`]).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Topology`] when the (possibly overridden) config
    /// cannot build the scenario's architectures.
    pub fn runner(&self) -> Result<&SweepRunner, ScenarioError> {
        if self.runner.get().is_none() {
            let mut built = SweepRunner::from_scenario(&self.scenario)?;
            if let Some(enabled) = self.cache_override {
                built = built.with_cache_enabled(enabled);
            }
            // A concurrent set is impossible (&self, single thread);
            // ignore the Err(built) case the API forces us to cover.
            let _ = self.runner.set(built);
        }
        Ok(self.runner.get().expect("just initialized"))
    }

    /// Evaluation-cache counters of the shared engine, or `None` while no
    /// engine has been built (3D-only experiments never build one).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.runner.get().map(|r| r.cache().stats())
    }

    /// The shared engine's config fingerprint (the cache key prefix), if
    /// an engine has been built.
    pub fn cache_fingerprint(&self) -> Option<u64> {
        self.runner.get().map(|r| r.cache().fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_resolves_to_paper_axes() {
        let s = Scenario::new("fig3").resolve().unwrap();
        assert_eq!(s.archs, NoiArch::all());
        assert_eq!(s.workloads, vec!["WL1", "WL2", "WL3", "WL4", "WL5"]);
        assert_eq!(s.dataflows, Dataflow::all());
        assert_eq!(s.cfg25, SystemConfig::datacenter_25d());
        assert_eq!(s.cfg3d, SystemConfig::stacked_3d());
        assert!(s.threads >= 1);
        assert_eq!(s.seed, None);
        assert_eq!(s.seed_or(0xFACE), 0xFACE);
    }

    #[test]
    fn overrides_flow_through_the_validating_builder() {
        let mut s = Scenario::new("fig3");
        s.overrides.push(("batch".into(), "4".into()));
        s.overrides.push(("sim_sampling".into(), "32".into()));
        let r = s.resolve().unwrap();
        assert_eq!(r.cfg25.batch, 4);
        assert_eq!(r.cfg3d.batch, 4);
        assert_eq!(r.cfg25.sim_sampling, 32);

        s.overrides.push(("snapshot_every".into(), "0".into()));
        assert_eq!(
            s.resolve().unwrap_err(),
            ScenarioError::Config(ConfigError::ZeroField("snapshot_every"))
        );
    }

    #[test]
    fn tiers_reach_only_the_stacked_config() {
        let mut s = Scenario::new("fig4");
        s.overrides.push(("tiers".into(), "4".into()));
        let r = s.resolve().unwrap();
        assert_eq!(r.cfg25.tiers, 1);
        assert_eq!(r.cfg3d.tiers, 4);
        assert_eq!(r.cfg25, SystemConfig::datacenter_25d());
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        let mut s = Scenario::new("fig3");
        s.workloads = vec!["WL1".into(), "WL9".into()];
        assert_eq!(
            s.resolve().unwrap_err(),
            ScenarioError::UnknownWorkload("WL9".to_string())
        );
    }

    #[test]
    fn table_schema_validation_catches_mismatches() {
        let mut t = Table::new("t", vec![Column::str("a"), Column::float("b", 2)]);
        t.push(vec!["x".into(), 1.5.into()]);
        assert!(t.validate().is_ok());
        t.rows.push(vec!["y".into(), CellValue::UInt(3)]);
        let err = t.validate().unwrap_err();
        assert!(err.contains("column `b`"), "{err}");
        t.rows.pop();
        t.rows.push(vec!["z".into()]);
        assert!(t.validate().unwrap_err().contains("1 cells"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_push_asserts_arity() {
        let mut t = Table::new("t", vec![Column::str("a")]);
        t.push(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn registry_rejects_unknown_and_runs_registered() {
        let mut reg = ExperimentRegistry::new();
        fn ok(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
            Ok(ExperimentOutput::new("", ""))
        }
        reg.register(ExperimentSpec {
            name: "demo",
            description: "a demo",
            run: ok,
        });
        let ctx = RunContext::new(Scenario::new("demo").resolve().unwrap());
        let out = reg.run(&ctx, "demo").unwrap();
        assert_eq!(out.experiment, "demo");
        assert_eq!(out.description, "a demo");
        assert_eq!(
            reg.run(&ctx, "nope").unwrap_err(),
            ScenarioError::UnknownExperiment("nope".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicate_names() {
        let mut reg = ExperimentRegistry::new();
        fn ok(_ctx: &RunContext) -> Result<ExperimentOutput, ScenarioError> {
            Ok(ExperimentOutput::new("", ""))
        }
        let spec = ExperimentSpec {
            name: "demo",
            description: "",
            run: ok,
        };
        reg.register(spec.clone());
        reg.register(spec);
    }

    #[test]
    fn scenario_serializes_to_json() {
        let mut s = Scenario::new("dataflows");
        s.archs = vec![NoiArch::Floret { lambda: 6 }];
        s.overrides.push(("batch".into(), "2".into()));
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"experiment\":\"dataflows\""), "{json}");
        assert!(json.contains("Floret"), "{json}");
        // The spec is valid JSON end to end.
        serde_json::from_str(&json).unwrap();
    }

    #[test]
    fn serving_scenario_round_trips_through_json() {
        let mut s = Scenario::new("serving");
        s.serving = Some(ServingSpec::default());
        s.strategy = Some(StrategyKind::Greedy);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"experiment\":\"serving\""), "{json}");
        assert!(json.contains("\"fleet\":2"), "{json}");
        assert!(json.contains("Bursty"), "{json}");
        assert!(json.contains("Diurnal"), "{json}");
        assert!(json.contains("Greedy"), "{json}");
        // Valid JSON end to end, with the typed block nested intact.
        serde_json::from_str(&json).unwrap();
    }

    #[test]
    fn invalid_serving_blocks_are_rejected_at_resolve() {
        let mut s = Scenario::new("serving");
        let mut spec = ServingSpec::default();
        spec.tenants[0].model = "M42".into();
        s.serving = Some(spec);
        assert_eq!(
            s.resolve().unwrap_err(),
            ScenarioError::Serving(crate::serving::ServingError::UnknownModel(
                "M42".to_string()
            ))
        );
        let mut s = Scenario::new("serving");
        s.serving = Some(ServingSpec {
            loads: Vec::new(),
            ..ServingSpec::default()
        });
        assert!(matches!(
            s.resolve().unwrap_err(),
            ScenarioError::Serving(_)
        ));
        // The resolved scenario carries the block and strategy through.
        let mut s = Scenario::new("serving");
        s.serving = Some(ServingSpec::default());
        s.strategy = Some(StrategyKind::Sfc);
        let r = s.resolve().unwrap();
        assert_eq!(r.serving, Some(ServingSpec::default()));
        assert_eq!(r.strategy, Some(StrategyKind::Sfc));
    }

    #[test]
    fn fault_overrides_route_to_the_fault_spec() {
        // No block, no overrides: resolves to no fault spec at all.
        assert_eq!(Scenario::new("resilience").resolve().unwrap().faults, None);
        // A `faults.*` override alone materializes the default block
        // with the override applied; config overrides still flow to the
        // builder alongside it.
        let mut s = Scenario::new("resilience");
        s.overrides
            .push(("faults.chip_mtbf_ms".into(), "10".into()));
        s.overrides.push(("batch".into(), "4".into()));
        let r = s.resolve().unwrap();
        let f = r.faults.expect("override materializes the block");
        assert_eq!(f.chip_mtbf_ms, 10.0);
        assert_eq!(f.chip_mttr_ms, FaultSpec::default().chip_mttr_ms);
        assert_eq!(r.cfg25.batch, 4);
        // Unknown and unparseable fault keys are typed errors.
        let mut s = Scenario::new("resilience");
        s.overrides.push(("faults.bogus".into(), "1".into()));
        assert_eq!(
            s.resolve().unwrap_err(),
            ScenarioError::Faults(FaultError::UnknownKey("faults.bogus".to_string()))
        );
        let mut s = Scenario::new("resilience");
        s.overrides
            .push(("faults.throttle_duty".into(), "1.5".into()));
        assert!(matches!(
            s.resolve().unwrap_err(),
            ScenarioError::Faults(FaultError::FractionField { .. })
        ));
        // An explicit block resolves through and round-trips as JSON.
        let mut s = Scenario::new("resilience");
        s.faults = Some(FaultSpec::default());
        assert_eq!(s.resolve().unwrap().faults, Some(FaultSpec::default()));
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"chip_mtbf_ms\""), "{json}");
        assert!(json.contains("\"backoff_base_us\""), "{json}");
        assert_eq!(serde_json::round_trip(&json).unwrap(), json);
    }

    #[test]
    fn duration_cells_match_only_duration_columns() {
        assert!(CellValue::Duration(5.0).matches(&ColumnType::Duration));
        assert!(!CellValue::Duration(5.0).matches(&ColumnType::Float {
            precision: 2,
            scientific: false
        }));
        assert!(!CellValue::Float(5.0).matches(&ColumnType::Duration));
        let mut t = Table::new(
            "lat",
            vec![Column::percentile("p50"), Column::duration("p99")],
        );
        t.push(vec![
            CellValue::Duration(1_000.0),
            CellValue::Duration(2_000.0),
        ]);
        assert!(t.validate().is_ok());
        t.rows
            .push(vec![CellValue::Float(1.0), CellValue::Duration(2.0)]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn histogram_records_with_edge_clamping() {
        let mut h = Histogram::new("lat", "ns", vec![0.0, 10.0, 20.0, 40.0]);
        h.record(-5.0); // clamps into the first bin
        h.record(0.0);
        h.record(9.9);
        h.record(10.0);
        h.record(39.9);
        h.record(40.0); // clamps into the last bin
        h.record(1e9); // clamps into the last bin
        assert_eq!(h.counts, vec![3, 1, 3]);
        assert_eq!(h.total(), 7);
        assert!(h.validate().is_ok());
        h.counts.pop();
        assert!(h.validate().unwrap_err().contains("edges"));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::new("bad", "ns", vec![0.0, 5.0, 5.0]);
    }
}
