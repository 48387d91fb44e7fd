//! Benchmark harness for the dataflow-pim workspace: four workloads run
//! through the workspace's public entry points, end-to-end host and
//! simulated metrics, and a traced mode that times each layer's public
//! calls from the harness itself. See `README.md` beside this crate.

pub mod clock;
pub mod compose;
pub mod run;
pub mod trace;
pub mod workloads;
