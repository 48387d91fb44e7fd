//! Per-cell evaluation scratch, pooled across sweep cells.
//!
//! Every (architecture, workload, dataflow) cell evaluation needs the
//! same family of working buffers: per-task transfer lists, the flow
//! concatenation of a resident-set snapshot, the sampled traffic and its
//! channel-disjoint components fed to the DES, and the simulator's own
//! arena ([`netsim::SimScratch`]).
//! Allocating them per cell made the fig3/dataflows/mapping_search
//! sweeps pay the same alloc/free churn 80–160×. A [`SweepScratch`]
//! owns all of them; [`ScratchPool`] (owned by
//! [`crate::sweep::SweepRunner`]) hands scratches to whichever worker
//! thread asks next.
//!
//! # Keying rules
//!
//! The pool is deliberately unkeyed: a scratch carries **capacity only**,
//! never results. Every buffer is cleared (or fully overwritten) by the
//! next evaluation before it is read, so a scratch that last ran a
//! different architecture, workload, or dataflow — or the serving
//! simulator's traffic — produces bit-identical reports to a fresh one.
//! That invariant is pinned by the dirty-scratch equivalence tests in
//! `crates/core/tests/scratch_reuse.rs`; anything added to
//! [`SweepScratch`] must keep it.

use std::sync::Mutex;

use mapper::Transfer;
use netsim::{Flow, SimScratch};

/// Sentinel in [`SweepScratch::placement_slot`] for "task not placed".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Reusable buffers for one cell evaluation (see the module docs).
pub struct SweepScratch {
    /// DES arena: packet SoA, wait queues, event heap, report buffers.
    pub(crate) sim: SimScratch,
    /// Transfer expansion output of one task.
    pub(crate) transfers: Vec<Transfer>,
    /// Per-task flow lists of the cell under evaluation.
    pub(crate) task_flows: Vec<Vec<Flow>>,
    /// Retired inner vectors of `task_flows`, kept for their capacity.
    pub(crate) spare_flows: Vec<Vec<Flow>>,
    /// Task id → index into `task_flows` ([`NO_SLOT`] when unmapped).
    pub(crate) placement_slot: Vec<u32>,
    /// Concatenated flows of one resident-set snapshot.
    pub(crate) snapshot_flows: Vec<Flow>,
    /// Sampled traffic of one snapshot.
    pub(crate) sampled_flows: Vec<Flow>,
    /// The sampled traffic grouped into channel-disjoint components, as
    /// [`netsim::split_components_into`] leaves it; each component is
    /// handed to the DES on its own.
    pub(crate) component_flows: Vec<Flow>,
    /// End of each component in `component_flows`.
    pub(crate) component_ends: Vec<usize>,
}

impl SweepScratch {
    /// An empty scratch; buffers grow on first use and stay warm.
    pub fn new() -> Self {
        SweepScratch {
            sim: SimScratch::new(),
            transfers: Vec::new(),
            task_flows: Vec::new(),
            spare_flows: Vec::new(),
            placement_slot: Vec::new(),
            snapshot_flows: Vec::new(),
            sampled_flows: Vec::new(),
            component_flows: Vec::new(),
            component_ends: Vec::new(),
        }
    }

    /// Clears every buffer while keeping capacity. The pool deliberately
    /// does **not** call this on `put` — the dirty-scratch equivalence
    /// tests pin that a *dirty* scratch already behaves like a fresh one
    /// — but the `scratch-reset` lint requires the full-coverage reset
    /// to exist so any new field must be added here, where the
    /// clear-before-read obligation is stated.
    pub fn reset(&mut self) {
        self.sim.reset();
        self.transfers.clear();
        self.spare_flows
            .extend(self.task_flows.drain(..).map(|mut v| {
                v.clear();
                v
            }));
        self.placement_slot.clear();
        self.snapshot_flows.clear();
        self.sampled_flows.clear();
        self.component_flows.clear();
        self.component_ends.clear();
    }
}

impl Default for SweepScratch {
    fn default() -> Self {
        SweepScratch::new()
    }
}

impl std::fmt::Debug for SweepScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepScratch").finish_non_exhaustive()
    }
}

/// A LIFO pool of [`SweepScratch`]es shared by the sweep workers. LIFO
/// keeps the warmest (largest-capacity) scratch in circulation, so a
/// steady-state sweep stops allocating after the first few cells.
#[derive(Default)]
pub(crate) struct ScratchPool {
    pool: Mutex<Vec<SweepScratch>>,
}

impl ScratchPool {
    /// Checks a scratch out (a fresh one when the pool is empty).
    pub(crate) fn take(&self) -> SweepScratch {
        self.pool
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch for the next worker.
    pub(crate) fn put(&self, scratch: SweepScratch) {
        self.pool.lock().expect("scratch pool lock").push(scratch);
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.pool.lock().map(|p| p.len()).unwrap_or(0);
        f.debug_struct("ScratchPool").field("pooled", &n).finish()
    }
}
