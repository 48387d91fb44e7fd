//! Allocator-traffic regression pin for a warm `SweepScratch` re-run of
//! a fig3 cell (one architecture × one Table II workload at the
//! weight-stationary mode — the unit the fig3/fig5 sweeps evaluate
//! 80–160×).
//!
//! The DES inner loop itself is pinned at literally zero steady-state
//! allocations in `netsim/tests/path_alloc.rs`; at the cell level the
//! mapping layer still allocates per call (`BTreeMap` transfer merging,
//! analytical-model link tables, report strings), so here we pin the
//! properties scratch reuse actually guarantees: warm re-runs reach a
//! deterministic steady state (no creeping growth), that steady state
//! stays below a fresh-scratch evaluation of the same cell, and it stays
//! within [`WARM_ALLOCS_MAX`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dnn::{table2_workload, Dataflow};
use pim_core::{NoiArch, Platform25D, SweepScratch, SystemConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations of one warm re-run of the cell. It is pinned on its own,
/// not as a share of the fresh run: the fresh count (319) moves with how
/// the DES sizes its event queue, the warm count does not. A scratch
/// buffer that stops being reused pushes it up toward the fresh count.
const WARM_ALLOCS_MAX: u64 = 175;

#[test]
fn warm_fig3_cell_rerun_reaches_a_bounded_alloc_steady_state() {
    let cfg = SystemConfig::datacenter_25d();
    let platform = Platform25D::new(NoiArch::Kite, &cfg).expect("paper architectures build");
    let wl = table2_workload("WL1").unwrap();
    let modes = [Dataflow::WeightStationary];
    // Hoist what the sweep hoists: graphs and the churn mapping are
    // computed once per cell, re-used across dataflow modes.
    let graphs = Platform25D::task_graphs(&wl);
    let outcome = platform.churn_outcome_from_graphs(&graphs);
    let cost = |scratch: &mut SweepScratch| {
        platform.cost_churn_outcome_scratch(&wl, &graphs, &outcome, modes[0], scratch)
    };

    // Fresh-scratch cost of the cell (the pre-pool behavior).
    let mut fresh_scratch = SweepScratch::new();
    let before = alloc_count();
    let fresh_rep = cost(&mut fresh_scratch);
    let fresh = alloc_count() - before;

    // Warm re-runs on the now-hot scratch. Two passes to settle buffer
    // capacities (see path_alloc.rs), then two measured passes.
    cost(&mut fresh_scratch);
    cost(&mut fresh_scratch);
    let before = alloc_count();
    let warm_rep = cost(&mut fresh_scratch);
    let warm_a = alloc_count() - before;
    let before = alloc_count();
    assert_eq!(cost(&mut fresh_scratch), warm_rep);
    let warm_b = alloc_count() - before;

    assert_eq!(warm_rep, fresh_rep, "reuse must not change the report");
    assert_eq!(
        warm_a, warm_b,
        "warm re-runs must hit a deterministic allocation steady state"
    );
    assert!(
        warm_a < fresh,
        "a warm scratch must allocate less than a fresh one \
         (warm {warm_a} vs fresh {fresh})"
    );
    assert!(
        warm_a <= WARM_ALLOCS_MAX,
        "a warm re-run made {warm_a} allocations, over the pinned \
         {WARM_ALLOCS_MAX} (fresh run: {fresh})"
    );
}
