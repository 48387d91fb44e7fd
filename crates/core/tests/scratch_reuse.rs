//! `SweepScratch` reuse correctness: a sweep cell evaluated on dirty
//! scratch — after arbitrary other architectures, workloads, and
//! dataflows, including the serving-simulator-free `Searched` search
//! path — must be bit-identical to a fresh-scratch evaluation. The
//! scratch pool is unkeyed (see `core/src/scratch.rs`), so these tests
//! are what make that legal.

use dnn::{table2_workload, Dataflow, MixEntry, Workload};
use pim_core::{NoiArch, Platform25D, SweepScratch, SystemConfig};

fn platform(arch: NoiArch) -> Platform25D {
    Platform25D::new(arch, &SystemConfig::datacenter_25d()).expect("paper architectures build")
}

/// A tiny two-task mix, cheap enough to dirty the scratch with a
/// different workload shape (short task_flows list, small arena).
fn tiny_workload() -> Workload {
    Workload {
        name: "tiny".into(),
        mix: vec![
            MixEntry {
                count: 1,
                model_index: 0,
            },
            MixEntry {
                count: 1,
                model_index: 6,
            },
        ],
        paper_total_params_b: 0.0,
    }
}

#[test]
fn dirty_scratch_matches_fresh_across_archs_and_workloads() {
    let siam = platform(NoiArch::Siam);
    let kite = platform(NoiArch::Kite);
    let wl1 = table2_workload("WL1").unwrap();
    let wl4 = table2_workload("WL4").unwrap();
    let modes = [Dataflow::WeightStationary, Dataflow::OutputStationary];

    // Fresh-scratch ground truth for the cell under test.
    let expect = siam.run_workload_dataflows(&wl1, &modes, &mut SweepScratch::new());

    // Dirty one scratch with a different arch, workload, and mode mix —
    // larger and smaller shapes both, so stale lengths in every
    // direction — then evaluate the cell on it.
    let mut scratch = SweepScratch::new();
    kite.run_workload_dataflows(&wl4, &Dataflow::all(), &mut scratch);
    siam.run_workload_dataflows(&tiny_workload(), &modes, &mut scratch);
    let dirty = siam.run_workload_dataflows(&wl1, &modes, &mut scratch);
    assert_eq!(dirty, expect, "dirty scratch must change nothing");

    // And the scratch is still clean for the *other* platform.
    let kite_expect = kite.run_workload_dataflows(&wl4, &modes, &mut SweepScratch::new());
    let kite_dirty = kite.run_workload_dataflows(&wl4, &modes, &mut scratch);
    assert_eq!(kite_dirty, kite_expect);
}

#[test]
fn dirty_scratch_matches_fresh_under_searched() {
    // `--dataflow searched` runs the beam search plus all hand presets
    // through the same scratch; the resolved mapping and its report must
    // not depend on scratch history.
    let p = platform(NoiArch::Floret { lambda: 6 });
    let wl = tiny_workload();
    let graphs = Platform25D::task_graphs(&wl);
    let outcome = p.churn_outcome_from_graphs(&graphs);
    let searched = |scratch: &mut SweepScratch| {
        p.cost_churn_outcome_scratch(&wl, &graphs, &outcome, Dataflow::Searched, scratch)
    };

    let fresh = searched(&mut SweepScratch::new());
    assert_eq!(fresh.dataflow, "SRCH");

    let mut scratch = SweepScratch::new();
    let wl3 = table2_workload("WL3").unwrap();
    p.run_workload_dataflows(&wl3, &[Dataflow::WeightStationary], &mut scratch);
    assert_eq!(
        searched(&mut scratch),
        fresh,
        "searched must resolve to the same report on dirty scratch"
    );
}
