//! Synthetic traffic patterns for standalone NoI/NoC characterization
//! (uniform random, transpose, hotspot, neighbor) — the classic kernels
//! used to stress-test interconnects independently of any DNN workload.

use rand::RngExt;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use topology::{NodeId, Topology};

use crate::flow::Flow;

/// A synthetic traffic pattern.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
#[non_exhaustive]
pub enum TrafficPattern {
    /// Every node sends to a uniformly random destination.
    UniformRandom,
    /// Node `(x, y)` sends to `(y, x)` (matrix transpose).
    Transpose,
    /// A fraction of nodes hammer one hotspot node; the rest are uniform.
    Hotspot,
    /// Every node sends to its nearest neighbor in id order (DNN-like
    /// pipeline traffic).
    Neighbor,
    /// Node `i` sends to node `n - 1 - i` (bit-complement analogue).
    Complement,
}

impl std::fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Hotspot => "hotspot",
            TrafficPattern::Neighbor => "neighbor",
            TrafficPattern::Complement => "complement",
        };
        f.write_str(s)
    }
}

/// All patterns, for sweep harnesses.
pub fn all_patterns() -> Vec<TrafficPattern> {
    vec![
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::Hotspot,
        TrafficPattern::Neighbor,
        TrafficPattern::Complement,
    ]
}

/// Generates one flow per source node under `pattern`, each carrying
/// `bytes_per_flow` bytes. Self-flows are dropped. Deterministic per seed.
pub fn generate_pattern(
    topo: &Topology,
    pattern: TrafficPattern,
    bytes_per_flow: u64,
    seed: u64,
) -> Vec<Flow> {
    let n = topo.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let max_x = topo.nodes().iter().map(|nd| nd.coord.x).max().unwrap_or(0);
    let max_y = topo.nodes().iter().map(|nd| nd.coord.y).max().unwrap_or(0);
    let mut flows = Vec::with_capacity(n);
    for i in 0..n {
        let src = NodeId(topology::narrow::u32_idx(i));
        let dst = match pattern {
            TrafficPattern::UniformRandom => {
                NodeId(rng.random_range(0..topology::narrow::u32_idx(n)))
            }
            TrafficPattern::Transpose => {
                let c = topo.node(src).coord;
                // Swap x/y, clamped into the (possibly non-square) grid.
                let tx = c.y.min(max_x);
                let ty = c.x.min(max_y);
                topo.node_at(topology::Coord::new3(tx, ty, c.z))
                    .unwrap_or(src)
            }
            TrafficPattern::Hotspot => {
                if rng.random::<f64>() < 0.3 {
                    NodeId(topology::narrow::u32_idx(n / 2))
                } else {
                    NodeId(rng.random_range(0..topology::narrow::u32_idx(n)))
                }
            }
            TrafficPattern::Neighbor => NodeId(topology::narrow::u32_idx((i + 1) % n)),
            TrafficPattern::Complement => NodeId(topology::narrow::u32_idx(n - 1 - i)),
        };
        if src != dst {
            flows.push(Flow::new(src, dst, bytes_per_flow));
        }
    }
    flows
}

/// Pipeline traffic along an explicit node order: stage `order[i]` sends
/// to `order[i+1]` — the DNN dataflow as mapped by a given strategy (pass
/// the Floret global order for SFC systems, the id order for meshes).
pub fn generate_pipeline(order: &[NodeId], bytes_per_flow: u64) -> Vec<Flow> {
    order
        .windows(2)
        .filter(|w| w[0] != w[1])
        .map(|w| Flow::new(w[0], w[1], bytes_per_flow))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::analyze;
    use topology::{mesh2d, HwParams};

    #[test]
    fn patterns_generate_valid_flows() {
        let topo = mesh2d(6, 6).unwrap();
        for p in all_patterns() {
            let flows = generate_pattern(&topo, p, 256, 1);
            assert!(!flows.is_empty(), "{p}");
            for f in &flows {
                assert!(f.src != f.dst);
                assert!(f.src.index() < 36 && f.dst.index() < 36);
                assert_eq!(f.bytes, 256);
            }
        }
    }

    #[test]
    fn neighbor_traffic_is_cheapest_on_mesh() {
        // Pipeline-style neighbor traffic needs fewer flit-hops than
        // uniform random — the structural reason dataflow-aware mapping
        // helps.
        let topo = mesh2d(6, 6).unwrap();
        let hw = HwParams::default();
        let neighbor = analyze(
            &topo,
            &hw,
            &generate_pattern(&topo, TrafficPattern::Neighbor, 256, 1),
        );
        let uniform = analyze(
            &topo,
            &hw,
            &generate_pattern(&topo, TrafficPattern::UniformRandom, 256, 1),
        );
        assert!(neighbor.flit_hops < uniform.flit_hops);
        assert!(neighbor.mean_weighted_hops < uniform.mean_weighted_hops);
    }

    #[test]
    fn hotspot_concentrates_load() {
        let topo = mesh2d(6, 6).unwrap();
        let hw = HwParams::default();
        let hot = analyze(
            &topo,
            &hw,
            &generate_pattern(&topo, TrafficPattern::Hotspot, 256, 2),
        );
        let uni = analyze(
            &topo,
            &hw,
            &generate_pattern(&topo, TrafficPattern::UniformRandom, 256, 2),
        );
        assert!(hot.max_link_flits >= uni.max_link_flits);
    }

    #[test]
    fn transpose_is_an_involution_on_square_grids() {
        let topo = mesh2d(5, 5).unwrap();
        let flows = generate_pattern(&topo, TrafficPattern::Transpose, 64, 0);
        for f in &flows {
            let a = topo.node(f.src).coord;
            let b = topo.node(f.dst).coord;
            assert_eq!((a.x, a.y), (b.y, b.x));
        }
    }

    #[test]
    fn pipeline_follows_the_given_order() {
        let order = vec![NodeId(3), NodeId(1), NodeId(4), NodeId(1)];
        let flows = generate_pipeline(&order, 10);
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].src, NodeId(3));
        assert_eq!(flows[0].dst, NodeId(1));
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = mesh2d(6, 6).unwrap();
        let a = generate_pattern(&topo, TrafficPattern::UniformRandom, 100, 9);
        let b = generate_pattern(&topo, TrafficPattern::UniformRandom, 100, 9);
        assert_eq!(a, b);
    }
}
