//! Table II: the five concurrent-DNN datacenter workload mixes `WL1..WL5`
//! executed on the 100-chiplet system, plus a seedless deterministic
//! expansion into an ordered task queue.

use serde::Serialize;

use crate::shapes::Dataset;
use crate::zoo::{build_model, table1, ModelKind, Table1Entry};

/// One entry of a workload mix: `count` back-to-back instances of a
/// Table I model.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct MixEntry {
    /// Number of consecutive instances.
    pub count: u32,
    /// Table I workload id index (0 = M1).
    pub model_index: usize,
}

/// A concurrent-DNN workload (one row of Table II).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Workload {
    /// Mix name (`"WL1"`..`"WL5"`).
    pub name: String,
    /// Ordered mix entries.
    pub mix: Vec<MixEntry>,
    /// Total parameter count in billions as printed in the paper.
    pub paper_total_params_b: f64,
}

impl Workload {
    /// Expands the mix into the ordered task queue of `(kind, dataset)`
    /// pairs that the mapper consumes ("the mapping algorithm treats the
    /// list of tasks W as a queue").
    pub fn tasks(&self) -> Vec<(ModelKind, Dataset)> {
        let t1 = table1();
        let mut out = Vec::new();
        for e in &self.mix {
            let entry: &Table1Entry = &t1[e.model_index];
            for _ in 0..e.count {
                out.push((entry.kind, entry.dataset));
            }
        }
        out
    }

    /// Number of DNN task instances in the mix.
    pub fn task_count(&self) -> usize {
        self.mix.iter().map(|e| e.count as usize).sum()
    }

    /// Total parameters of the expanded mix computed from our model zoo.
    pub fn computed_total_params(&self) -> u64 {
        self.tasks()
            .into_iter()
            .map(|(k, d)| {
                build_model(k, d)
                    .expect("table models always build")
                    .total_params()
            })
            .sum()
    }
}

fn mix(entries: &[(u32, usize)]) -> Vec<MixEntry> {
    entries
        .iter()
        .map(|&(count, model_index)| MixEntry { count, model_index })
        .collect()
}

/// The five Table II workload mixes. Model indices are zero-based into
/// [`table1`] (index 0 = M1 = ResNet18/ImageNet). All Table II tasks use
/// the ImageNet rows.
pub fn table2() -> Vec<Workload> {
    vec![
        // WL1: 16 M1 -> M2 -> 3 M3 -> 4 M4 -> 2 M5 -> M6 -> M7
        Workload {
            name: "WL1".into(),
            mix: mix(&[(16, 0), (1, 1), (3, 2), (4, 3), (2, 4), (1, 5), (1, 6)]),
            paper_total_params_b: 1.1,
        },
        // WL2: 2 M3 -> M8 -> 7 M4 -> 4 M7 -> 2 M8 -> M1 -> M5
        Workload {
            name: "WL2".into(),
            mix: mix(&[(2, 2), (1, 7), (7, 3), (4, 6), (2, 7), (1, 0), (1, 4)]),
            paper_total_params_b: 1.4,
        },
        // WL3: 12 M1 -> 9 M2 -> 3 M4 -> 10 M5 -> 12 M1 -> 5 M7 -> M8
        Workload {
            name: "WL3".into(),
            mix: mix(&[(12, 0), (9, 1), (3, 3), (10, 4), (12, 0), (5, 6), (1, 7)]),
            paper_total_params_b: 8.8,
        },
        // WL4: M6 -> 3 M2 -> 5 M3 -> 4 M6 -> 3 M1 -> 4 M7 -> 2 M8
        Workload {
            name: "WL4".into(),
            mix: mix(&[(1, 5), (3, 1), (5, 2), (4, 5), (3, 0), (4, 6), (2, 7)]),
            paper_total_params_b: 3.8,
        },
        // WL5: M3 -> 3 M8 -> 4 M7 -> 6 M2 -> 4 M3 -> 3 M7 -> 2 M8
        Workload {
            name: "WL5".into(),
            mix: mix(&[(1, 2), (3, 7), (4, 6), (6, 1), (4, 2), (3, 6), (2, 7)]),
            paper_total_params_b: 1.8,
        },
    ]
}

/// Looks up a Table II workload by name.
pub fn table2_workload(name: &str) -> Option<Workload> {
    table2().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_workloads() {
        let wls = table2();
        assert_eq!(wls.len(), 5);
        assert_eq!(wls[0].name, "WL1");
    }

    #[test]
    fn wl1_task_expansion() {
        let wl = table2_workload("WL1").unwrap();
        assert_eq!(wl.task_count(), 16 + 1 + 3 + 4 + 2 + 1 + 1);
        let tasks = wl.tasks();
        assert_eq!(tasks.len(), wl.task_count());
        assert_eq!(tasks[0].0, ModelKind::ResNet18);
        assert_eq!(tasks[15].0, ModelKind::ResNet18);
        assert_eq!(tasks[16].0, ModelKind::ResNet34);
        assert!(tasks.iter().all(|&(_, d)| d == Dataset::ImageNet));
    }

    #[test]
    fn wl3_is_the_biggest_mix() {
        let wls = table2();
        let wl3 = &wls[2];
        let max_tasks = wls.iter().map(Workload::task_count).max().unwrap();
        assert_eq!(wl3.task_count(), max_tasks);
        assert_eq!(wl3.task_count(), 52);
    }

    #[test]
    fn computed_totals_are_billions_scale() {
        // Our real parameter counts differ from the paper's printed totals
        // (see EXPERIMENTS.md) but must land in the 0.3-3B range that makes
        // the mixes oversubscribe a 100-chiplet system.
        for wl in table2() {
            let total = wl.computed_total_params() as f64 / 1e9;
            assert!(
                (0.2..=5.0).contains(&total),
                "{}: computed total {total}B",
                wl.name
            );
        }
    }

    #[test]
    fn workload_lookup() {
        assert!(table2_workload("WL5").is_some());
        assert!(table2_workload("WL9").is_none());
    }
}
