//! Placement types shared by the SFC and greedy mappers.

use std::fmt;

use dnn::SegmentId;
use serde::Serialize;
use topology::NodeId;

/// Identifier of a DNN task instance in the workload queue.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A slice of one chiplet's weight capacity allocated to a segment.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct NodeShare {
    /// The chiplet/PE.
    pub node: NodeId,
    /// Weights of the segment stored on this chiplet.
    pub weights: u64,
}

/// Where one segment's weights live.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct SegmentPlacement {
    /// The segment.
    pub segment: SegmentId,
    /// Chiplet shares in allocation order (empty for the parameter-free
    /// input segment, which rides with the first weighted segment).
    pub shares: Vec<NodeShare>,
}

impl SegmentPlacement {
    /// Nodes this placement touches.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shares.iter().map(|s| s.node)
    }

    /// Total weights placed.
    pub fn total_weights(&self) -> u64 {
        self.shares.iter().map(|s| s.weights).sum()
    }
}

/// A fully mapped DNN task.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct TaskPlacement {
    /// Task id in the workload queue.
    pub task: TaskId,
    /// Model name for reporting.
    pub model: String,
    /// Per-segment placements, indexed by segment id.
    pub segments: Vec<SegmentPlacement>,
}

impl TaskPlacement {
    /// Distinct chiplets used by this task.
    pub fn used_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.segments.iter().flat_map(|s| s.nodes()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Error produced when a task cannot be mapped.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum MapError {
    /// Not enough free weight capacity anywhere in the system.
    InsufficientCapacity {
        /// Weights the task still needs.
        needed: u64,
        /// Weights available.
        available: u64,
    },
    /// The locality constraint could not be met (greedy baseline): no free
    /// chiplet within the radius of the previous layer's chiplets.
    NoNearbyChiplet {
        /// Segment that failed.
        segment: SegmentId,
        /// Hop radius that was searched.
        radius: u32,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::InsufficientCapacity { needed, available } => write!(
                f,
                "insufficient capacity: need {needed} weights, {available} free"
            ),
            MapError::NoNearbyChiplet { segment, radius } => write!(
                f,
                "no free chiplet within {radius} hops for segment {segment:?}"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// Mutable chiplet-capacity ledger for one mapping wave.
#[derive(Clone, Debug, PartialEq)]
pub struct CapacityLedger {
    capacity: u64,
    free: Vec<u64>,
    /// Chiplets already touched by any task (a chiplet is never shared
    /// between tasks: independent DNNs keep disjoint resources).
    owner: Vec<Option<TaskId>>,
    /// Chiplets disabled by fault injection; never allocatable.
    failed: Vec<bool>,
}

impl CapacityLedger {
    /// Creates a ledger for `nodes` chiplets of `capacity` weights each.
    pub fn new(nodes: usize, capacity: u64) -> Self {
        CapacityLedger {
            capacity,
            free: vec![capacity; nodes],
            owner: vec![None; nodes],
            failed: vec![false; nodes],
        }
    }

    /// Marks a chiplet as permanently failed: it loses all capacity and
    /// is skipped by every allocator. The SFC mapper then "re-stitches"
    /// the curve around the failure (consecutive layers hop over the dead
    /// chiplet).
    pub fn mark_failed(&mut self, n: NodeId) {
        self.failed[n.index()] = true;
        self.free[n.index()] = 0;
        self.owner[n.index()] = None;
    }

    /// Whether a chiplet is failed.
    pub fn is_failed(&self, n: NodeId) -> bool {
        self.failed[n.index()]
    }

    /// Number of failed chiplets.
    pub fn failed_count(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Per-chiplet weight capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of chiplets.
    pub fn node_count(&self) -> usize {
        self.free.len()
    }

    /// Free weights on a chiplet.
    pub fn free_on(&self, n: NodeId) -> u64 {
        self.free[n.index()]
    }

    /// Whether the chiplet is entirely unused.
    pub fn is_untouched(&self, n: NodeId) -> bool {
        self.owner[n.index()].is_none()
    }

    /// Whether `task` may take capacity from `n` (unowned or already its,
    /// and not failed).
    pub fn available_to(&self, n: NodeId, task: TaskId) -> bool {
        if self.failed[n.index()] {
            return false;
        }
        match self.owner[n.index()] {
            None => self.free[n.index()] > 0,
            Some(t) => t == task && self.free[n.index()] > 0,
        }
    }

    /// Total free weights across chiplets available to `task`.
    pub fn total_available_to(&self, task: TaskId) -> u64 {
        (0..self.free.len())
            .filter(|&i| self.available_to(NodeId(topology::narrow::u32_idx(i)), task))
            .map(|i| self.free[i])
            .sum()
    }

    /// Takes up to `want` weights from `n` for `task`, returning the
    /// amount actually taken.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the chiplet belongs to another task.
    pub fn take(&mut self, n: NodeId, task: TaskId, want: u64) -> u64 {
        debug_assert!(
            self.owner[n.index()].is_none() || self.owner[n.index()] == Some(task),
            "chiplet {n} owned by another task"
        );
        let got = want.min(self.free[n.index()]);
        if got > 0 {
            self.free[n.index()] -= got;
            self.owner[n.index()] = Some(task);
        }
        got
    }

    /// Releases every chiplet owned by `task` (task completion). Failed
    /// chiplets stay failed.
    pub fn release_task(&mut self, task: TaskId) {
        for i in 0..self.free.len() {
            if self.owner[i] == Some(task) && !self.failed[i] {
                self.owner[i] = None;
                self.free[i] = self.capacity;
            }
        }
    }

    /// Number of chiplets owned by any task.
    pub fn used_nodes(&self) -> usize {
        self.owner.iter().filter(|o| o.is_some()).count()
    }

    /// Fraction of chiplets owned by any task.
    pub fn utilization(&self) -> f64 {
        self.used_nodes() as f64 / self.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_take_and_release() {
        let mut led = CapacityLedger::new(4, 100);
        let t = TaskId(0);
        assert_eq!(led.take(NodeId(0), t, 60), 60);
        assert_eq!(led.free_on(NodeId(0)), 40);
        assert_eq!(led.take(NodeId(0), t, 60), 40);
        assert_eq!(led.free_on(NodeId(0)), 0);
        assert_eq!(led.used_nodes(), 1);
        led.release_task(t);
        assert_eq!(led.free_on(NodeId(0)), 100);
        assert_eq!(led.used_nodes(), 0);
    }

    #[test]
    fn ledger_ownership_blocks_other_tasks() {
        let mut led = CapacityLedger::new(2, 100);
        led.take(NodeId(0), TaskId(0), 10);
        assert!(led.available_to(NodeId(0), TaskId(0)));
        assert!(!led.available_to(NodeId(0), TaskId(1)));
        assert!(led.available_to(NodeId(1), TaskId(1)));
        assert_eq!(led.total_available_to(TaskId(1)), 100);
        assert_eq!(led.total_available_to(TaskId(0)), 190);
    }

    #[test]
    fn utilization_counts_touched_nodes() {
        let mut led = CapacityLedger::new(10, 100);
        led.take(NodeId(3), TaskId(0), 1);
        led.take(NodeId(7), TaskId(1), 100);
        assert!((led.utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn failed_chiplets_are_never_allocatable() {
        let mut led = CapacityLedger::new(4, 100);
        led.mark_failed(NodeId(1));
        assert!(led.is_failed(NodeId(1)));
        assert_eq!(led.failed_count(), 1);
        assert!(!led.available_to(NodeId(1), TaskId(0)));
        assert_eq!(led.free_on(NodeId(1)), 0);
        assert_eq!(led.total_available_to(TaskId(0)), 300);
    }

    #[test]
    fn release_does_not_resurrect_failed() {
        let mut led = CapacityLedger::new(2, 100);
        led.take(NodeId(0), TaskId(0), 50);
        led.mark_failed(NodeId(0));
        led.release_task(TaskId(0));
        assert!(!led.available_to(NodeId(0), TaskId(1)));
        assert_eq!(led.free_on(NodeId(0)), 0);
    }

    #[test]
    fn task_placement_used_nodes_dedup() {
        let tp = TaskPlacement {
            task: TaskId(0),
            model: "m".into(),
            segments: vec![
                SegmentPlacement {
                    segment: SegmentId(0),
                    shares: vec![NodeShare {
                        node: NodeId(1),
                        weights: 5,
                    }],
                },
                SegmentPlacement {
                    segment: SegmentId(1),
                    shares: vec![
                        NodeShare {
                            node: NodeId(1),
                            weights: 5,
                        },
                        NodeShare {
                            node: NodeId(2),
                            weights: 5,
                        },
                    ],
                },
            ],
        };
        assert_eq!(tp.used_nodes(), vec![NodeId(1), NodeId(2)]);
    }
}
