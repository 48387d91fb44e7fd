//! Differential test of the `searched` resolver. `Platform25D::resolve_searched`
//! ranks its five candidates on the DES-free stage of the report
//! pipeline and runs the snapshot DES on the winner only. The reference
//! here is the resolver rebuilt from public API: every candidate costed
//! through the full pipeline, DES included, and the `report_edp` argmin
//! taken with the searched candidate keeping ties. Both must agree on the
//! resolution fingerprint and on the whole report, DES fields included,
//! on fresh and on dirty scratch.

use dnn::{table2_workload, Dataflow, ModelMapping, SegmentGraph, Workload};
use mapper::{search_model, ChurnOutcome, SearchOptions};
use pim_core::{
    NoiArch, Platform25D, SearchedResolution, SweepScratch, SystemConfig, WorkloadReport,
};

/// The reference resolver; also returns the winning candidate's index
/// (0 = searched, then the presets in [`Dataflow::all`] order).
fn reference_resolve(
    p: &Platform25D,
    cfg: &SystemConfig,
    wl: &Workload,
    graphs: &[SegmentGraph],
    outcome: &ChurnOutcome,
) -> (usize, SearchedResolution, WorkloadReport) {
    let mut candidates: Vec<Vec<ModelMapping>> = vec![graphs
        .iter()
        .map(|g| search_model(g, &cfg.pim, &SearchOptions::default()).mapping)
        .collect()];
    for df in Dataflow::all() {
        candidates.push(graphs.iter().map(|g| ModelMapping::preset(df, g)).collect());
    }
    let mut best: Option<(usize, SearchedResolution, WorkloadReport, f64)> = None;
    for (i, maps) in candidates.into_iter().enumerate() {
        let res = SearchedResolution::new(maps);
        let rep = p.cost_searched_resolution(wl, graphs, outcome, &res);
        let edp = p.report_edp(&rep);
        if best.as_ref().is_none_or(|(.., b)| edp < *b) {
            best = Some((i, res, rep, edp));
        }
    }
    let (i, res, rep, _) = best.expect("five candidates costed");
    (i, res, rep)
}

/// Checks one cell against the reference, whose winner must be the
/// candidate at index `winner`.
fn assert_matches_reference(arch: NoiArch, wl_name: &str, winner: usize) {
    let cfg = SystemConfig::datacenter_25d();
    let p = Platform25D::new(arch, &cfg).expect("paper architectures build");
    let wl = table2_workload(wl_name).expect("table workload");
    let graphs = Platform25D::task_graphs(&wl);
    let outcome = p.churn_outcome_from_graphs(&graphs);
    let (win, ref_res, ref_rep) = reference_resolve(&p, &cfg, &wl, &graphs, &outcome);
    assert!(ref_rep.sim_latency_cycles > 0 && ref_rep.mean_packet_latency_cycles > 0.0);

    let cell = format!("{wl_name} x {}", p.arch_name());
    assert_eq!(win, winner, "{cell}: winning candidate");

    let (res, rep) = p.resolve_searched(&wl, &graphs, &outcome);
    assert_eq!(res.fingerprint, ref_res.fingerprint, "{cell}: resolution");
    assert_eq!(rep, ref_rep, "{cell}: report");

    // Dirty scratch: another workload's searched cell and a hand mode.
    let mut scratch = SweepScratch::new();
    let other = table2_workload(if wl_name == "WL1" { "WL2" } else { "WL1" }).unwrap();
    p.run_workload_dataflows_scratch(
        &other,
        &[Dataflow::Searched, Dataflow::FusedLayer],
        &mut scratch,
    );
    let (dirty_res, dirty_rep) = p.resolve_searched_scratch(&wl, &graphs, &outcome, &mut scratch);
    assert_eq!(dirty_res.fingerprint, ref_res.fingerprint, "{cell}: dirty");
    assert_eq!(dirty_rep, ref_rep, "{cell}: dirty report");
}

#[test]
fn searched_winner_matches_the_full_pipeline_reference() {
    // WL1: the searched candidate wins, so the DES replays the flows
    // of the first candidate costed.
    for arch in [NoiArch::Floret { lambda: 6 }, NoiArch::Kite] {
        assert_matches_reference(arch, "WL1", 0);
    }
}

#[test]
fn preset_winner_matches_the_full_pipeline_reference() {
    // WL2: the OS preset wins, which is not the last candidate costed,
    // so the resolver must re-expand its flows before the DES.
    for arch in [NoiArch::Floret { lambda: 6 }, NoiArch::Kite] {
        assert_matches_reference(arch, "WL2", 2);
    }
}
