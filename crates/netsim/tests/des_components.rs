//! The channel-disjoint split of a flow set, checked against the whole
//! run.
//!
//! [`split_components_into`] groups flows that share a source-NI channel
//! or a directed link channel. The cases below check the grouping
//! against a naive oracle built from the public topology API (pairwise
//! channel-set merging to a fixed point, with its own channel naming),
//! then simulate every component alone and require the whole run's
//! report back: `makespan_cycles` and `max_hop_header_latency_cycles` as
//! maxima; `packets`, `total_packet_latency_cycles`, `flit_hops`,
//! `total_channel_wait_cycles` and `heap_events` as sums. Flow sets share
//! sources and cross routes on purpose, and include `src == dst` and
//! zero-byte flows; the NI delay is 4 cycles or 0, and every run goes
//! through a fresh scratch and through one dirtied by earlier runs.
//!
//! The split also flags each component in which no directed link channel
//! carries two flows. The flag is checked against the oracle's channel
//! sets, and [`link_free_totals`] must reproduce the DES's makespan,
//! latency sum and packet count on every flagged component, and bound
//! them from below on the rest.

use std::collections::BTreeSet;

use netsim::{
    link_free_totals, simulate_with_scratch, simulate_with_table, split_components_into, Flow,
    RouteTable, SimConfig, SimReport, SimScratch,
};
use proptest::prelude::*;
use topology::{floret, kite, mesh2d, HwParams, NodeId, Topology};

fn arb_topology(idx: usize) -> Topology {
    match idx % 3 {
        0 => mesh2d(6, 6).unwrap(),
        1 => kite(6, 6).unwrap(),
        _ => floret(6, 6, 4).unwrap().0,
    }
}

/// A flow set drawn from `raw` words: sources from a small pool (so
/// sources repeat and same-source flows fan out over different first
/// links), destinations anywhere (so routes cross), with every seventh
/// flow looping back to its source and every eleventh carrying no bytes.
fn flow_set(raw: &[u64], sources: u64) -> Vec<Flow> {
    raw.iter()
        .enumerate()
        .map(|(i, &w)| {
            let node = |v: u64| NodeId(u32::try_from(v % 36).expect("node id fits u32"));
            let src = node((w & 0xFF) % sources * 5);
            let dst = if i % 7 == 3 { src } else { node(w >> 8) };
            let bytes = if i % 11 == 6 {
                0
            } else {
                1 + (w >> 20) % 3_000
            };
            Flow::new(src, dst, bytes)
        })
        .collect()
}

/// A channel in the oracle's own naming: `(0, src, 0)` for a source NI,
/// `(1, from, to)` for a link crossed from node `from` to node `to`.
type Channel = (u8, u32, u32);

/// The channels a flow occupies: its source NI, then each link with its
/// direction of travel.
fn channels(topo: &Topology, rt: &RouteTable, f: &Flow) -> BTreeSet<Channel> {
    let mut set = BTreeSet::from([(0, f.src.0, 0)]);
    let mut at = f.src;
    for lid in rt.path(topo, f.src, f.dst) {
        let next = topo.link(lid).opposite(at);
        set.insert((1, at.0, next.0));
        at = next;
    }
    set
}

/// The oracle's split: the traffic-carrying flows as groups of input
/// indices, merged pairwise while any two groups share a channel, then
/// ordered by first flow with indices ascending.
fn oracle_groups(topo: &Topology, rt: &RouteTable, flows: &[Flow]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(Vec<usize>, BTreeSet<Channel>)> = flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.src != f.dst && f.bytes > 0)
        .map(|(i, f)| (vec![i], channels(topo, rt, f)))
        .collect();
    'merge: loop {
        for a in 0..groups.len() {
            for b in a + 1..groups.len() {
                if !groups[a].1.is_disjoint(&groups[b].1) {
                    let (idx, chans) = groups.remove(b);
                    groups[a].0.extend(idx);
                    groups[a].1.extend(chans);
                    continue 'merge;
                }
            }
        }
        break;
    }
    let mut out: Vec<Vec<usize>> = groups
        .into_iter()
        .map(|(mut idx, _)| {
            idx.sort_unstable();
            idx
        })
        .collect();
    out.sort_unstable_by_key(|idx| idx[0]);
    out
}

/// The whole-run fields that component runs must reproduce, merged over
/// `parts`: maxima for the makespan and the worst hop, sums for the rest.
fn merged(parts: &[SimReport]) -> [u64; 7] {
    let max = |f: fn(&SimReport) -> u64| parts.iter().map(f).max().unwrap_or(0);
    let sum = |f: fn(&SimReport) -> u64| parts.iter().map(f).sum();
    [
        max(|r| r.makespan_cycles),
        max(|r| r.max_hop_header_latency_cycles),
        sum(|r| r.packets),
        sum(|r| r.total_packet_latency_cycles),
        sum(|r| r.flit_hops),
        sum(|r| r.total_channel_wait_cycles),
        sum(|r| r.heap_events),
    ]
}

fn whole(r: &SimReport) -> [u64; 7] {
    merged(std::slice::from_ref(r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The split matches the oracle's grouping, and running each of its
    /// components alone reproduces the whole run, with a fresh scratch
    /// and with one dirtied by the whole run and an unrelated split.
    #[test]
    fn component_runs_reproduce_the_whole_run(
        topo_idx in 0usize..3,
        raw in prop::collection::vec(any::<u64>(), 0..40),
        sources in 1u64..8,
        pb_idx in 0usize..3,
        rp_idx in 0usize..2,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams {
            router_pipeline_cycles: [0, 4][rp_idx],
            ..HwParams::default()
        };
        let cfg = SimConfig { packet_bytes: [64u32, 256, 1024][pb_idx] };
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(&raw, sources);

        let mut fresh = SimScratch::new();
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        split_components_into(&topo, &flows, &rt, &mut fresh, &mut out, &mut ends);
        let groups = oracle_groups(&topo, &rt, &flows);
        let mut start = 0;
        let got: Vec<Vec<Flow>> = ends
            .iter()
            .map(|&(end, _)| {
                let part = out[start..end].to_vec();
                start = end;
                part
            })
            .collect();
        let want: Vec<Vec<Flow>> = groups
            .iter()
            .map(|idx| idx.iter().map(|&i| flows[i]).collect())
            .collect();
        prop_assert_eq!(&got, &want);

        let expect = simulate_with_table(&topo, &hw, &flows, &cfg, &rt);
        let parts: Vec<SimReport> = got
            .iter()
            .map(|part| simulate_with_table(&topo, &hw, part, &cfg, &rt))
            .collect();
        prop_assert_eq!(merged(&parts), whole(&expect));

        // The same split and runs through one scratch that ran the whole
        // set and split an unrelated one first.
        let mut dirty = SimScratch::new();
        simulate_with_scratch(&topo, &hw, &flows, &cfg, &rt, &mut dirty);
        split_components_into(
            &topo, &flow_set(&[7, 1 << 40, 99], 3), &rt, &mut dirty, &mut out, &mut ends,
        );
        split_components_into(&topo, &flows, &rt, &mut dirty, &mut out, &mut ends);
        let mut start = 0;
        let mut dirty_parts = Vec::new();
        for &(end, _) in &ends {
            prop_assert_eq!(&out[start..end], &got[dirty_parts.len()][..]);
            dirty_parts.push(simulate_with_scratch(
                &topo, &hw, &out[start..end], &cfg, &rt, &mut dirty,
            ));
            start = end;
        }
        prop_assert_eq!(&dirty_parts, &parts);
    }

    /// The link-free flag matches the oracle: no directed link channel
    /// carries two of the component's flows. The closed form equals the
    /// DES's totals on every flagged component, is a lower bound on the
    /// others, and stays exact on the whole set when every component is
    /// link-free (several sources included).
    #[test]
    fn link_free_components_cost_exactly_in_closed_form(
        topo_idx in 0usize..3,
        raw in prop::collection::vec(any::<u64>(), 0..16),
        sources in 1u64..8,
        pb_idx in 0usize..3,
        rp_idx in 0usize..2,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams {
            router_pipeline_cycles: [0, 4][rp_idx],
            ..HwParams::default()
        };
        let cfg = SimConfig { packet_bytes: [64u32, 256, 1024][pb_idx] };
        let rt = RouteTable::build(&topo, &hw);
        let flows = flow_set(&raw, sources);

        let mut scratch = SimScratch::new();
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        split_components_into(&topo, &flows, &rt, &mut scratch, &mut out, &mut ends);
        let groups = oracle_groups(&topo, &rt, &flows);
        prop_assert_eq!(ends.len(), groups.len());
        let mut start = 0;
        for (&(end, link_free), idx) in ends.iter().zip(&groups) {
            let part = &out[start..end];
            start = end;
            let mut links = BTreeSet::new();
            let oracle_free = idx.iter().all(|&i| {
                channels(&topo, &rt, &flows[i])
                    .into_iter()
                    .filter(|c| c.0 == 1)
                    .all(|c| links.insert(c))
            });
            prop_assert_eq!(link_free, oracle_free);

            let des = simulate_with_scratch(&topo, &hw, part, &cfg, &rt, &mut scratch).totals();
            let closed = link_free_totals(&topo, &hw, part, &cfg, &rt, &mut scratch);
            if link_free {
                prop_assert_eq!(closed, des);
            } else {
                prop_assert_eq!(closed.packets, des.packets);
                prop_assert!(closed.makespan_cycles <= des.makespan_cycles);
                prop_assert!(closed.total_packet_latency_cycles <= des.total_packet_latency_cycles);
            }
        }
        if ends.iter().all(|&(_, link_free)| link_free) {
            let whole = simulate_with_table(&topo, &hw, &flows, &cfg, &rt).totals();
            prop_assert_eq!(link_free_totals(&topo, &hw, &flows, &cfg, &rt, &mut scratch), whole);
        }
    }
}

/// Flows that leave one source over disjoint links still share its NI,
/// so they form one component; flows between disjoint node pairs do not.
#[test]
fn a_shared_source_joins_disjoint_routes() {
    let topo = mesh2d(6, 6).unwrap();
    let hw = HwParams::default();
    let rt = RouteTable::build(&topo, &hw);
    // Node 7 sends east and south over different first links; 30 -> 35
    // runs along the far edge; 0 -> 0 and the zero-byte flow are dropped.
    let flows = [
        Flow::new(NodeId(30), NodeId(35), 512),
        Flow::new(NodeId(7), NodeId(9), 4_096),
        Flow::new(NodeId(0), NodeId(0), 64),
        Flow::new(NodeId(7), NodeId(19), 4_096),
        Flow::new(NodeId(2), NodeId(3), 0),
    ];
    let (mut out, mut ends) = (Vec::new(), Vec::new());
    split_components_into(
        &topo,
        &flows,
        &rt,
        &mut SimScratch::new(),
        &mut out,
        &mut ends,
    );
    assert_eq!(out, [flows[0], flows[1], flows[3]]);
    assert_eq!(ends, [(1, true), (3, true)]);
}
