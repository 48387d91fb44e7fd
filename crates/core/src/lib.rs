//! Platform façade for the dataflow-aware PIM-enabled manycore
//! architecture (DATE 2024 reproduction).
//!
//! Combines the substrate crates into the two systems the paper
//! evaluates:
//!
//! * [`Platform25D`] — a 100-chiplet 2.5D interposer system with a choice
//!   of NoI architecture ([`NoiArch`]: Floret, SIAM mesh, Kite, SWAP),
//!   dataflow-aware SFC or greedy mapping, and full workload execution
//!   (Figs. 2-5, Table II, cost analysis);
//! * [`Platform3D`] — a 100-PE 3D-stacked system with an SFC NoC,
//!   streaming power model, thermal solver and joint performance-thermal
//!   placement optimization (Figs. 6-7).
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper and registers each one in the central [`ExperimentRegistry`]
//! ([`experiments::registry`]); a declarative [`Scenario`] spec
//! ([`scenario`]) selects an experiment plus its axes (architectures ×
//! workloads × dataflows × config overrides × threads × seed) and every
//! run returns a uniform [`ExperimentOutput`] that the `pim-bench` CLI
//! renders as a table, JSON or CSV. The figure grids run on the
//! [`SweepRunner`] experiment engine ([`sweep`]), which builds each
//! platform once and fans independent cells across scoped threads with a
//! bit-deterministic, order-stable merge.
//!
//! # Examples
//!
//! ```no_run
//! use pim_core::{NoiArch, Platform25D, SystemConfig};
//!
//! let cfg = SystemConfig::datacenter_25d();
//! let wl = dnn::table2_workload("WL1").expect("table workload");
//! for arch in NoiArch::all() {
//!     let platform = Platform25D::new(arch, &cfg)?;
//!     let report = platform.run_workload(&wl);
//!     println!("{}: {} cycles", report.arch, report.sim_latency_cycles);
//! }
//! # Ok::<(), topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod config;
pub mod experiments;
pub mod faults;
pub mod hetero;
mod platform25;
mod platform3d;
pub mod scenario;
mod scratch;
pub mod serving;
pub mod sweep;

pub use arch::NoiArch;
pub use config::{ConfigError, SystemConfig, SystemConfigBuilder};
pub use faults::{
    ChipFault, FaultError, FaultPlan, FaultSpec, LinkFaultWindow, RetryPolicy, ThrottleWindow,
};
pub use platform25::{Platform25D, WorkloadReport};
pub use platform3d::{ParetoPoint, PlacementEval, Platform3D};
pub use scenario::{
    CellValue, Column, ColumnType, ExperimentOutput, ExperimentRegistry, ExperimentSpec, Histogram,
    ResolvedScenario, RunContext, Scenario, ScenarioError, Table,
};
pub use scratch::SweepScratch;
pub use serving::{
    simulate_resilient_serving, simulate_serving, LoadPointOutcome, ResilienceOutcome,
    ResilienceParams, ResiliencePointOutcome, ServingError, ServingOutcome, ServingSpec,
    TenantSpec, UTIL_SLICES,
};
pub use sweep::{default_threads, parallel_map, CacheStats, EvalCache, SweepRunner};
pub use topology::envknobs;
