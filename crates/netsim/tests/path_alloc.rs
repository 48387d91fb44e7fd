//! Pins the allocation-free contracts of the netsim hot path: routing
//! via [`netsim::RouteTable::path_into`] allocates nothing once its
//! scratch buffer has grown to the longest path, and an entire
//! simulation through a warm [`netsim::SimScratch`] — packet build,
//! event loop, report assembly — allocates nothing at all, and neither
//! does splitting a flow set into channel-disjoint components
//! ([`netsim::split_components_into`]) and simulating each. The
//! buffer-reuse rework also changes no observable simulation output
//! (packet counts, report equality).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::{
    simulate_with_scratch, simulate_with_table, split_components_into, Flow, RouteTable, SimConfig,
    SimReport, SimScratch,
};
use topology::{kite, mesh2d, HwParams, NodeId};

/// System allocator wrapped with a per-thread allocation counter. The
/// code under test runs on the test's own thread, so counting per thread
/// keeps allocations of other threads (the test harness spawning the
/// next test) out of every counting window.
struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free: the allocator can update it
    // without allocating or registering a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn path_into_is_allocation_free_after_warmup() {
    let topo = mesh2d(8, 8).unwrap();
    let rt = RouteTable::build(&topo, &HwParams::default());
    let n = topo.node_count() as u32;
    let mut buf = Vec::new();
    // Warm the scratch to the longest path once.
    rt.path_into(&topo, NodeId(0), NodeId(n - 1), &mut buf);

    let before = alloc_count();
    let mut total_hops = 0usize;
    for s in 0..n {
        for d in 0..n {
            rt.path_into(&topo, NodeId(s), NodeId(d), &mut buf);
            total_hops += buf.len();
        }
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "path_into must not allocate with a warmed scratch buffer"
    );
    assert!(total_hops > 0, "paths were actually walked");
}

/// The whole DES — packet segmentation, the wait-queue event loop under
/// real contention (parks, Free events, node recycling), and report
/// assembly — must run without a single heap allocation once the
/// scratch is warm. The event heap, the arena and the wait-node pool
/// keep their capacity across `clear()`, so a steady-state sweep pays
/// zero allocator traffic per cell.
#[test]
fn warm_simulate_with_scratch_is_allocation_free() {
    let topo = mesh2d(6, 6).unwrap();
    let hw = HwParams::default();
    let rt = RouteTable::build(&topo, &hw);
    let cfg = SimConfig { packet_bytes: 512 };
    // Funnel plus background crossings: heavy FIFO contention, so the
    // loop exercises park/pop and the Free re-arm path.
    let mut flows: Vec<Flow> = (0..24)
        .map(|i| Flow::new(NodeId(i), NodeId(35), 4096))
        .collect();
    flows.extend((0..12).map(|i| Flow::new(NodeId(35 - i), NodeId(i * 3 % 36), 2048)));

    // Two warm-up runs: the first grows every buffer to the run's peak.
    // The second keeps the counting window honest for any buffer whose
    // capacity settles only on a later pass, as the per-bucket arenas of
    // a calendar queue do after a mid-run `grow()`.
    let mut scratch = SimScratch::new();
    let warm = simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);
    assert!(warm.total_channel_wait_cycles > 0, "pattern must contend");
    simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);

    let before = alloc_count();
    let rerun = simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "a warm scratch re-run must not touch the allocator"
    );
    assert_eq!(rerun, warm, "and must stay bit-identical");
}

/// The split's union-find buffers live in the [`SimScratch`] and its
/// output in caller-owned vectors, so once all of them are warm, a split
/// plus one DES run per component allocates nothing.
#[test]
fn warm_component_split_is_allocation_free() {
    let topo = kite(6, 6).unwrap();
    let hw = HwParams::default();
    let rt = RouteTable::build(&topo, &hw);
    let cfg = SimConfig { packet_bytes: 256 };
    // Disjoint row-local pairs plus a shared-source fan-out: several
    // components of different sizes.
    let mut flows: Vec<Flow> = (0..6)
        .map(|r| Flow::new(NodeId(6 * r), NodeId(6 * r + 1), 1024))
        .collect();
    flows.extend((2..6).map(|c| Flow::new(NodeId(8), NodeId(6 * c + 4), 3000)));
    let mut scratch = SimScratch::new();
    let (mut out, mut ends) = (Vec::new(), Vec::new());
    let mut reports: Vec<SimReport> = Vec::with_capacity(flows.len());
    let mut split_and_run = |scratch: &mut SimScratch, reports: &mut Vec<SimReport>| {
        split_components_into(&topo, &flows, &rt, scratch, &mut out, &mut ends);
        reports.clear();
        let mut start = 0;
        for &end in &ends {
            let part = &out[start..end];
            reports.push(simulate_with_scratch(&topo, &hw, part, &cfg, &rt, scratch));
            start = end;
        }
    };

    split_and_run(&mut scratch, &mut reports);
    assert!(reports.len() > 1, "the pattern must split");
    let warm = reports.clone();
    split_and_run(&mut scratch, &mut reports);
    let before = alloc_count();
    split_and_run(&mut scratch, &mut reports);
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "a warm split must not touch the allocator"
    );
    assert_eq!(reports, warm, "and must stay bit-identical");
}

#[test]
fn path_into_matches_path_everywhere() {
    for topo in [mesh2d(6, 6).unwrap(), kite(6, 6).unwrap()] {
        let rt = RouteTable::build(&topo, &HwParams::default());
        let mut buf = Vec::new();
        for s in 0..topo.node_count() as u32 {
            for d in 0..topo.node_count() as u32 {
                rt.path_into(&topo, NodeId(s), NodeId(d), &mut buf);
                assert_eq!(buf, rt.path(&topo, NodeId(s), NodeId(d)));
                assert_eq!(buf.len(), rt.hops(&topo, NodeId(s), NodeId(d)));
            }
        }
    }
}

#[test]
fn buffer_reuse_preserves_packet_counts() {
    // The DES setup now routes through the shared scratch; its observable
    // output must be exactly what per-flow path vectors produced: one
    // packet per `packet_bytes` segment, identical full reports.
    let topo = mesh2d(5, 5).unwrap();
    let hw = HwParams::default();
    let rt = RouteTable::build(&topo, &hw);
    let flows: Vec<Flow> = (0..20)
        .map(|i| {
            Flow::new(
                NodeId(i % 25),
                NodeId((i * 7 + 3) % 25),
                1500 + 100 * i as u64,
            )
        })
        .collect();
    let cfg = SimConfig { packet_bytes: 1024 };
    let expected_packets: u64 = flows
        .iter()
        .filter(|f| f.src != f.dst && f.bytes > 0)
        .map(|f| f.bytes.div_ceil(u64::from(cfg.packet_bytes)))
        .sum();
    let a = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);
    assert_eq!(a.packets, expected_packets);
    // Deterministic: a second run is bit-identical.
    let b = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);
    assert_eq!(a, b);
}
