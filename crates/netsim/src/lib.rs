//! Flit-level NoI/NoC simulation and analytical performance models.
//!
//! Replays inter-chiplet traffic on any [`topology::Topology`]:
//!
//! * [`analyze`] — closed-form wormhole model (zero-load latency +
//!   bottleneck-link makespan bound + per-hop energy), fast enough for
//!   optimization inner loops;
//! * [`simulate`] — packet-level discrete-event simulation with virtual
//!   cut-through switching, FIFO channel contention and deterministic
//!   event ordering;
//! * [`RouteTable`] — latency-aware deterministic shortest-path routing
//!   shared by both.
//!
//! # Examples
//!
//! ```
//! use netsim::{analyze, simulate, Flow, SimConfig};
//! use topology::{mesh2d, HwParams, NodeId};
//!
//! let topo = mesh2d(5, 5)?;
//! let hw = HwParams::default();
//! let flows = vec![Flow::new(NodeId(0), NodeId(24), 4096)];
//! let ana = analyze(&topo, &hw, &flows);
//! let des = simulate(&topo, &hw, &flows, &SimConfig::default());
//! // The DES can never beat the analytical lower bound.
//! assert!(des.makespan_cycles >= ana.makespan_cycles);
//! # Ok::<(), topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytical;
mod calendar;
mod des;
mod flow;
mod patterns;
mod routing;

pub use analytical::{analyze, analyze_with_table, AnalyticalReport};
pub use calendar::CalendarQueue;
pub use des::{
    simulate, simulate_faulty_with_scratch, simulate_with_scratch, simulate_with_table,
    split_components_into, LinkFaults, SimConfig, SimReport, SimScratch,
};
pub use flow::{sample_flows, sample_flows_into, total_bytes, Flow};
pub use patterns::{all_patterns, generate_pattern, generate_pipeline, TrafficPattern};
pub use routing::RouteTable;
