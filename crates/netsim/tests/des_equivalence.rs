//! Differential equivalence of the arena/SoA event loop.
//!
//! `reference_simulate` below is a test-only retelling of the simulator
//! as it stood **before** the arena/SoA rewrite: each packet owns boxed
//! `Vec`s (AoS), channel wait queues are `VecDeque`s, and every event —
//! the whole time-0 injection burst, every NI wake and every delivery
//! included — goes through the calendar. Its fault model is its own too:
//! each channel keeps the raw `(start, end)` windows of its link, and a
//! header arriving inside one defers to the end of the run of windows
//! that covers it. It is built purely from `netsim`'s public API and
//! computes the full [`SimReport`]. The production engine replaces all
//! of that with flat arenas, an index-linked wait-node pool, NI grants
//! computed up front, delivery times recorded without events, and merged
//! fault windows, and must stay *observationally identical*: every field
//! of the report, including float sums (same accumulation order),
//! nearest-rank p95s, and `heap_events`, must match bit for bit on any
//! topology, flow set, packet size and blackout set — with a fresh
//! scratch or one dirtied by arbitrary earlier runs.
//!
//! The reference deliberately keeps the 8-cycle [`CalendarQueue`] while
//! the engine schedules on a binary heap, so the suite also cross-checks
//! two independent exact `(time, key)` queues. It runs at most 30 flows
//! on 6×6 fabrics; `des_pinned.rs` pins the engine at benchmark scale.

use std::collections::VecDeque;

use netsim::{
    simulate_faulty_with_scratch, simulate_with_scratch, simulate_with_table, CalendarQueue, Flow,
    LinkFaults, RouteTable, SimConfig, SimReport, SimScratch,
};
use proptest::prelude::*;
use topology::{floret, kite, mesh2d, HwParams, LinkId, NodeId, Topology};

/// AoS packet record, as the pre-arena engine stored it.
struct Packet {
    channels: Vec<u32>,
    hop_delay: Vec<u64>,
    ser_cycles: u64,
    delivered_at: u64,
}

/// Event key packing shared with the engine: releases (tag 0) drain
/// before header arrivals (tag 1) at the same cycle, headers order by
/// `(seq, hop)`.
fn free_key(ch: u32) -> u64 {
    (ch as u64) << 16
}
fn header_key(seq: u32, hop: u16) -> u64 {
    (1u64 << 48) | ((seq as u64) << 16) | hop as u64
}

fn percentile_nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// Where a header arriving at `t` on a channel with raw fault `windows`
/// may proceed: `None` when no window covers `t`, else the first cycle
/// past the run of overlapping or touching windows that covers it.
fn blocked_until(windows: &[(u64, u64)], t: u64) -> Option<u64> {
    let mut at = t;
    while let Some(end) = windows
        .iter()
        .filter(|&&(s, e)| s <= at && at < e)
        .map(|&(_, e)| e)
        .max()
    {
        at = end;
    }
    (at > t).then_some(at)
}

/// The pre-arena wait-queue simulator, end to end: AoS packet build
/// (same flow/hop iteration order, so float energy sums agree exactly),
/// a calendar-driven loop with `VecDeque` wait queues, fault deferral
/// at every channel, and the same report arithmetic. `faults` lists
/// `(link, start, end)` blackouts of both directions of a link.
fn reference_simulate(
    topo: &Topology,
    hw: &HwParams,
    flows: &[Flow],
    cfg: &SimConfig,
    rt: &RouteTable,
    faults: &[(LinkId, u64, u64)],
) -> SimReport {
    assert!(cfg.packet_bytes > 0);
    let n_links = topo.link_count();
    let ni_base = 2 * n_links;
    let n_channels = 2 * n_links + topo.node_count();
    let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_channels];
    for &(lid, start, end) in faults {
        windows[lid.0 as usize].push((start, end));
        windows[lid.0 as usize + n_links].push((start, end));
    }

    // --- AoS packet build ---------------------------------------------
    let mut packets: Vec<Packet> = Vec::new();
    let mut energy_pj = 0.0f64;
    let mut flit_hops = 0u64;
    for f in flows {
        if f.src == f.dst || f.bytes == 0 {
            continue;
        }
        let path = rt.path(topo, f.src, f.dst);
        let mut remaining = f.bytes;
        while remaining > 0 {
            let size = remaining.min(cfg.packet_bytes as u64);
            remaining -= size;
            let flits = size.div_ceil(hw.flit_bytes as u64).max(1);
            let bits = size * 8;
            let mut channels = vec![ni_base as u32 + f.src.0];
            let mut hop_delay = vec![hw.router_pipeline_cycles as u64];
            let mut at = f.src;
            for lid in &path {
                let link = topo.link(*lid);
                channels.push(if link.a == at {
                    lid.0
                } else {
                    lid.0 + n_links as u32
                });
                hop_delay.push(hw.hop_cycles(link.length_hops));
                energy_pj += hw.hop_energy_pj(bits, topo.ports(at), link.length_hops);
                flit_hops += flits;
                at = link.opposite(at);
            }
            energy_pj += bits as f64 * hw.router_energy_pj_per_bit(topo.ports(f.dst));
            packets.push(Packet {
                channels,
                hop_delay,
                ser_cycles: flits,
                delivered_at: 0,
            });
        }
    }

    // --- Wait-queue event loop, everything through the calendar -------
    let mut busy_until = vec![0u64; n_channels];
    let mut waiters: Vec<VecDeque<(u32, u16, u64)>> = vec![VecDeque::new(); n_channels];
    let mut queue = CalendarQueue::new(8);
    let mut hop_traversals = 0u64;
    let mut hop_latency_total = 0u64;
    let mut hop_latency_max = 0u64;
    let mut wait_total = 0u64;
    let mut heap_events = 0u64;
    let mut fault_wait_total = 0u64;
    let mut faulted_traversals = 0u64;

    for seq in 0..packets.len() {
        queue.push(0, header_key(seq as u32, 0));
    }

    // Grants `seq` its `hop`-th channel at `now` and schedules the next
    // header arrival.
    macro_rules! acquire {
        ($seq:expr, $hop:expr, $now:expr, $arrived:expr) => {{
            let p = &packets[$seq as usize];
            let ch = p.channels[$hop as usize] as usize;
            busy_until[ch] = $now + p.ser_cycles;
            let header_arrives = $now + p.hop_delay[$hop as usize];
            let hop_latency = header_arrives - $arrived;
            hop_traversals += 1;
            hop_latency_total += hop_latency;
            hop_latency_max = hop_latency_max.max(hop_latency);
            wait_total += $now - $arrived;
            queue.push(header_arrives, header_key($seq, $hop + 1));
        }};
    }

    while let Some((time, key)) = queue.pop() {
        heap_events += 1;
        if key >> 48 == 0 {
            // Free: serve the channel's front waiter, re-arm if more.
            let ch = ((key >> 16) & 0xFFFF_FFFF) as usize;
            let (seq, hop, arrived) = waiters[ch]
                .pop_front()
                .expect("Free armed only while waiters are parked");
            acquire!(seq, hop, time, arrived);
            if !waiters[ch].is_empty() {
                queue.push(busy_until[ch], free_key(ch as u32));
            }
        } else {
            let seq = ((key >> 16) & 0xFFFF_FFFF) as u32;
            let hop = (key & 0xFFFF) as u16;
            let p = &packets[seq as usize];
            if hop as usize >= p.channels.len() {
                packets[seq as usize].delivered_at = time + p.ser_cycles;
                continue;
            }
            let ch = p.channels[hop as usize] as usize;
            if let Some(end) = blocked_until(&windows[ch], time) {
                fault_wait_total += end - time;
                faulted_traversals += 1;
                queue.push(end, header_key(seq, hop));
                continue;
            }
            if busy_until[ch] <= time && waiters[ch].is_empty() {
                acquire!(seq, hop, time, time);
            } else {
                if waiters[ch].is_empty() {
                    queue.push(busy_until[ch], free_key(ch as u32));
                }
                waiters[ch].push_back((seq, hop, time));
            }
        }
    }

    // --- Report -------------------------------------------------------
    let mut latencies: Vec<u64> = packets.iter().map(|p| p.delivered_at).collect();
    latencies.sort_unstable();
    let makespan = latencies.last().copied().unwrap_or(0);
    let total_latency: u64 = latencies.iter().sum();
    let mean = if latencies.is_empty() {
        0.0
    } else {
        total_latency as f64 / latencies.len() as f64
    };
    SimReport {
        makespan_cycles: makespan,
        mean_packet_latency_cycles: mean,
        total_packet_latency_cycles: total_latency,
        p95_packet_latency_cycles: percentile_nearest_rank(&latencies, 95),
        packets: latencies.len() as u64,
        flit_hops,
        total_energy_pj: energy_pj,
        mean_hop_header_latency_cycles: if hop_traversals == 0 {
            0.0
        } else {
            hop_latency_total as f64 / hop_traversals as f64
        },
        max_hop_header_latency_cycles: hop_latency_max,
        total_channel_wait_cycles: wait_total,
        heap_events,
        total_fault_wait_cycles: fault_wait_total,
        faulted_traversals,
    }
}

fn arb_topology(idx: usize) -> Topology {
    match idx % 3 {
        0 => mesh2d(6, 6).unwrap(),
        1 => kite(6, 6).unwrap(),
        _ => floret(6, 6, 4).unwrap().0,
    }
}

/// Deterministic flow set from a seed; deliberately includes degenerate
/// flows (`src == dst`, zero bytes) and both tiny and multi-packet
/// volumes.
fn flow_set(seed: u64, n: usize) -> Vec<Flow> {
    (0..n)
        .map(|i| {
            let s = ((seed as usize).wrapping_add(i * 13)) % 36;
            let d = if i % 7 == 3 {
                s // degenerate: src == dst
            } else {
                ((seed as usize).wrapping_add(i * 19 + 5)) % 36
            };
            let bytes = if i % 11 == 6 {
                0 // degenerate: no payload
            } else {
                17 + (seed.wrapping_mul(31) + i as u64 * 911) % 6000
            };
            Flow::new(NodeId(s as u32), NodeId(d as u32), bytes)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena engine reproduces the pre-arena loop's `SimReport`
    /// exactly — fresh scratch and dirty scratch alike — on random
    /// topologies, flow sets, and packet sizes.
    #[test]
    fn arena_engine_matches_pre_arena_reference(
        topo_idx in 0usize..3,
        seed in 0u64..10_000,
        n in 0usize..30,
        pb_idx in 0usize..4,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams::default();
        let cfg = SimConfig { packet_bytes: [64u32, 256, 1024, 4096][pb_idx] };
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(seed, n);

        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &[]);
        let fresh = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);
        prop_assert_eq!(&fresh, &expect);

        // Same run through a scratch dirtied by two unrelated workloads.
        let mut scratch = SimScratch::new();
        simulate_with_scratch(&topo, &hw, &flow_set(seed ^ 0x5DEECE66D, 24), &cfg, &rt, &mut scratch);
        simulate_with_scratch(
            &topo, &hw, &flow_set(seed.wrapping_add(7), 3),
            &SimConfig { packet_bytes: 64 }, &rt, &mut scratch,
        );
        let dirty = simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);
        prop_assert_eq!(&dirty, &expect);
    }

    /// With a zero NI delay (`router_pipeline_cycles == 0`) every
    /// source's first first-link header lands at cycle 0, inside the
    /// reference's time-0 burst; the engine must still match it exactly.
    #[test]
    fn burst_fallback_matches_reference(
        topo_idx in 0usize..3,
        seed in 0u64..10_000,
        n in 0usize..20,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams { router_pipeline_cycles: 0, ..HwParams::default() };
        let cfg = SimConfig::default();
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(seed, n);
        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &[]);
        prop_assert_eq!(simulate_with_table(&topo, &hw, &flows, &cfg, &rt), expect);
    }
}

/// `(link, start, end)` blackouts on `topo`, one per random word of
/// `raw`: a link, a window open at cycle 0 (so first-link headers defer)
/// or from a later start, and a length (0 makes an empty window), so
/// windows also overlap and touch. With `all_links`, every link is also
/// blacked out from cycle 0.
fn blackouts(topo: &Topology, raw: &[u64], all_links: bool) -> Vec<(LinkId, u64, u64)> {
    let link =
        |i: u64| LinkId(u32::try_from(i % topo.link_count() as u64).expect("link id fits u32"));
    let mut windows: Vec<(LinkId, u64, u64)> = raw
        .iter()
        .map(|&w| {
            let start = if w >> 9 & 1 == 1 {
                0
            } else {
                (w >> 10) % 3_000
            };
            (link(w & 0x1FF), start, start + (w >> 22) % 1_500)
        })
        .collect();
    if all_links {
        windows.extend((0..topo.link_count() as u64).map(|l| (link(l), 0, 40)));
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under random link blackouts, on both an NI delay of 4 cycles and
    /// of 0 (first-link headers at cycle 0), the engine reproduces the
    /// reference's `SimReport` exactly, with a fresh scratch and with one
    /// dirtied by an earlier faulty run.
    #[test]
    fn engine_matches_reference_under_blackouts(
        topo_idx in 0usize..3,
        seed in 0u64..10_000,
        n in 0usize..30,
        pb_idx in 0usize..3,
        rp_idx in 0usize..2,
        raw in prop::collection::vec(any::<u64>(), 0..12),
        all_links in any::<bool>(),
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams {
            router_pipeline_cycles: [0, 4][rp_idx],
            ..HwParams::default()
        };
        let cfg = SimConfig { packet_bytes: [64u32, 256, 1024][pb_idx] };
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(seed, n);
        let windows = blackouts(&topo, &raw, all_links);
        let faults = LinkFaults::from_link_windows(&topo, &windows);

        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &windows);
        let mut scratch = SimScratch::new();
        let fresh = simulate_faulty_with_scratch(&topo, &hw, &flows, &cfg, &rt, &faults, &mut scratch);
        prop_assert_eq!(&fresh, &expect);

        let other = blackouts(&topo, &raw[raw.len() / 2..], !all_links);
        simulate_faulty_with_scratch(
            &topo, &hw, &flow_set(seed ^ 0x5DEECE66D, 24), &cfg, &rt,
            &LinkFaults::from_link_windows(&topo, &other), &mut scratch,
        );
        let dirty = simulate_faulty_with_scratch(&topo, &hw, &flows, &cfg, &rt, &faults, &mut scratch);
        prop_assert_eq!(&dirty, &expect);
    }
}

/// One scratch threaded through a long mixed sequence of runs —
/// alternating topologies, packet sizes, and flow sets — agrees with the
/// reference at every step.
#[test]
fn scratch_sequence_tracks_reference() {
    let hw = HwParams::default();
    let mut scratch = SimScratch::new();
    for step in 0..12u64 {
        let topo = arb_topology(step as usize);
        let rt = RouteTable::build(&topo, &hw);
        let cfg = SimConfig {
            packet_bytes: [128u32, 1024, 4096][step as usize % 3],
        };
        let flows = flow_set(step * 977, 4 + (step as usize * 5) % 26);
        let expect = reference_simulate(&topo, &hw, &flows, &cfg, &rt, &[]);
        let got = simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut scratch);
        assert_eq!(got, expect, "diverged at step {step}");
    }
}
