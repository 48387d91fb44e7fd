//! Pins the packet DES at benchmark scale.
//!
//! `des_equivalence.rs` cross-checks the engine against a reference loop,
//! but only on small fabrics (≤ 30 flows on 6×6 grids) and without a
//! fault model. The cases below run the `noi_hifi` regime instead:
//! 300 flows of 2–64 KiB on a 10×10 Floret at 256-byte packets, so the
//! scheduler holds hundreds of live events and moves ~41k packets. Every
//! [`SimReport`] field is pinned bit for bit (floats through `to_bits`),
//! for
//!
//! * (a) the default hardware (a 4-cycle NI delay);
//! * (b) `router_pipeline_cycles: 0`, where each source's first
//!   first-link header lands at cycle 0, the instant of the injection
//!   burst;
//! * (c) case (a) under link blackouts: overlapping and touching windows,
//!   windows that open mid-run, and one that reaches far past the healthy
//!   makespan, so fault deferrals push events deep into the future.
//!
//! The values were recorded with the calendar-queue scheduler, when
//! every NI grant and every delivery was still an event on the queue.
//! Any exact `(time, key)` min-queue pops events in the same order, and
//! taking events off the queue must not move a single one of them, so a
//! scheduler change must reproduce them unchanged.

use netsim::{
    simulate_faulty_with_scratch, simulate_with_table, Flow, LinkFaults, RouteTable, SimConfig,
    SimReport, SimScratch,
};
use topology::{floret, HwParams, LinkId, NodeId, Topology};

const CFG: SimConfig = SimConfig { packet_bytes: 256 };

/// SplitMix64: a fixed, dependency-free flow generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 300 flows between distinct nodes, 2–64 KiB each.
fn flows(topo: &Topology) -> Vec<Flow> {
    let n = topo.node_count() as u64;
    let node = |v: u64| NodeId(u32::try_from(v).expect("node id fits u32"));
    let mut s = 0x5EED_u64;
    (0..300)
        .map(|_| {
            let src = splitmix(&mut s) % n;
            let dst = (src + 1 + splitmix(&mut s) % (n - 1)) % n;
            let bytes = 2048 + splitmix(&mut s) % (62 * 1024 + 1);
            Flow::new(node(src), node(dst), bytes)
        })
        .collect()
}

fn fabric() -> Topology {
    floret(10, 10, 6).unwrap().0
}

/// Every report field as `(name, bits)`, floats through `to_bits`.
fn fields(r: &SimReport) -> [(&'static str, u64); 12] {
    [
        ("makespan_cycles", r.makespan_cycles),
        (
            "mean_packet_latency_cycles",
            r.mean_packet_latency_cycles.to_bits(),
        ),
        ("p95_packet_latency_cycles", r.p95_packet_latency_cycles),
        ("packets", r.packets),
        ("flit_hops", r.flit_hops),
        ("total_energy_pj", r.total_energy_pj.to_bits()),
        (
            "mean_hop_header_latency_cycles",
            r.mean_hop_header_latency_cycles.to_bits(),
        ),
        (
            "max_hop_header_latency_cycles",
            r.max_hop_header_latency_cycles,
        ),
        ("total_channel_wait_cycles", r.total_channel_wait_cycles),
        ("heap_events", r.heap_events),
        ("total_fault_wait_cycles", r.total_fault_wait_cycles),
        ("faulted_traversals", r.faulted_traversals),
    ]
}

fn assert_pinned(got: &SimReport, want: [u64; 12]) {
    for ((name, bits), want) in fields(got).into_iter().zip(want) {
        assert_eq!(bits, want, "field {name} drifted in {got:?}");
    }
}

#[test]
fn burst_on_default_hardware_is_pinned() {
    let topo = fabric();
    let hw = HwParams::default();
    let rt = RouteTable::build(&topo, &hw);
    let report = simulate_with_table(&topo, &hw, &flows(&topo), &CFG, &rt);
    assert_pinned(
        &report,
        [
            32_433,
            0x40c9_2f96_55c7_1286, // 12895.174492725415
            27_891,
            41_102,
            2_837_073,
            0x41e2_05ca_98bd_a41d, // 2418955461.9262834
            0x4094_da7f_3fe0_01b7, // 1334.6242671013877
            9_543,
            527_612_457,
            689_176,
            0,
            0,
        ],
    );
}

#[test]
fn burst_through_the_queue_is_pinned() {
    let topo = fabric();
    let hw = HwParams {
        router_pipeline_cycles: 0,
        ..HwParams::default()
    };
    let rt = RouteTable::build(&topo, &hw);
    let report = simulate_with_table(&topo, &hw, &flows(&topo), &CFG, &rt);
    assert_pinned(
        &report,
        [
            32_416,
            0x40c8_e636_6552_e00c, // 12748.424967154882
            26_641,
            41_102,
            2_877_291,
            0x41e2_01a6_f02b_f067, // 2416785281.373096
            0x4094_5b7f_df24_f4a2, // 1302.8748746656715
            11_117,
            523_169_682,
            699_845,
            0,
            0,
        ],
    );
}

#[test]
fn link_blackouts_are_pinned() {
    let topo = fabric();
    let hw = HwParams::default();
    let rt = RouteTable::build(&topo, &hw);
    // (link, start, end) in cycles; the healthy makespan is 32,433.
    let windows = [
        (LinkId(3), 0, 4_000),
        (LinkId(3), 2_500, 9_000), // overlaps the window above
        (LinkId(17), 6_000, 6_800),
        (LinkId(17), 6_800, 7_500), // touches the window above
        (LinkId(40), 12_000, 20_000),
        (LinkId(41), 15_000, 15_001),
        (LinkId(58), 100, 200),
        (LinkId(58), 150, 11_000), // overlaps and outlasts the one above
        (LinkId(77), 25_000, 90_000),
        (LinkId(95), 8_000, 8_500),
        (LinkId(95), 21_000, 26_000),
    ];
    let faults = LinkFaults::from_link_windows(&topo, &windows);
    let report = simulate_faulty_with_scratch(
        &topo,
        &hw,
        &flows(&topo),
        &CFG,
        &rt,
        &faults,
        &mut SimScratch::new(),
    );
    assert_pinned(
        &report,
        [
            90_331,
            0x40ca_e994_2bb2_d14d, // 13779.157583572576
            28_163,
            41_102,
            2_837_073,
            0x41e2_05ca_98bd_a41d, // 2418955461.9262834
            0x4094_ef19_86e4_21b3, // 1339.77492863136
            14_160,
            529_656_667,
            690_335,
            34_289_263,
            6_338,
        ],
    );
}
