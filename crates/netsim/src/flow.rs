//! Traffic descriptors consumed by the analytical model and the simulator.

use serde::Serialize;
use topology::NodeId;

/// One aggregated point-to-point traffic flow.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Flow {
    /// Source chiplet/PE.
    pub src: NodeId,
    /// Destination chiplet/PE.
    pub dst: NodeId,
    /// Payload bytes.
    pub bytes: u64,
}

impl Flow {
    /// Creates a flow.
    pub fn new(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        Flow { src, dst, bytes }
    }
}

/// Scales every flow's volume by `1/factor` (traffic sampling for fast
/// simulation), keeping at least one byte per flow so connectivity
/// patterns survive.
pub fn sample_flows(flows: &[Flow], factor: u64) -> Vec<Flow> {
    let mut out = Vec::new();
    sample_flows_into(flows, factor, &mut out);
    out
}

/// [`sample_flows`] into a caller-owned buffer (cleared first), so warm
/// sweep scratch re-runs sample without allocating.
pub fn sample_flows_into(flows: &[Flow], factor: u64, out: &mut Vec<Flow>) {
    assert!(factor > 0, "sampling factor must be positive");
    out.clear();
    out.extend(flows.iter().map(|f| Flow {
        src: f.src,
        dst: f.dst,
        bytes: (f.bytes / factor).max(1),
    }));
}

/// Total payload bytes across flows.
pub fn total_bytes(flows: &[Flow]) -> u64 {
    flows.iter().map(|f| f.bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_preserves_pattern() {
        let flows = vec![
            Flow::new(NodeId(0), NodeId(1), 1000),
            Flow::new(NodeId(1), NodeId(2), 3),
        ];
        let sampled = sample_flows(&flows, 10);
        assert_eq!(sampled.len(), 2);
        assert_eq!(sampled[0].bytes, 100);
        assert_eq!(sampled[1].bytes, 1, "small flows never vanish");
    }

    #[test]
    #[should_panic(expected = "sampling factor")]
    fn zero_factor_panics() {
        sample_flows(&[], 0);
    }

    #[test]
    fn totals() {
        let flows = vec![
            Flow::new(NodeId(0), NodeId(1), 10),
            Flow::new(NodeId(2), NodeId(3), 32),
        ];
        assert_eq!(total_bytes(&flows), 42);
    }
}
