//! Reproducibility: every pipeline is deterministic for fixed seeds.

use dataflow_pim::{experiments, NoiArch, Platform25D, SystemConfig, WorkloadReport};

/// One WL1 cell on a freshly built platform.
fn run_wl1(arch: NoiArch) -> WorkloadReport {
    let wl = dataflow_pim::dnn::table2_workload("WL1").unwrap();
    Platform25D::new(arch, &SystemConfig::datacenter_25d())
        .unwrap()
        .run_workload(&wl)
}

#[test]
fn workload_reports_are_deterministic() {
    let a = run_wl1(NoiArch::Swap { seed: 1 });
    let b = run_wl1(NoiArch::Swap { seed: 1 });
    assert_eq!(a, b);
}

#[test]
fn different_swap_seeds_differ() {
    let a = run_wl1(NoiArch::Swap { seed: 1 });
    let b = run_wl1(NoiArch::Swap { seed: 2 });
    assert_ne!(
        (a.sim_latency_cycles, a.noi_energy_pj.to_bits()),
        (b.sim_latency_cycles, b.noi_energy_pj.to_bits()),
        "different SWAP instances should not be byte-identical"
    );
}

#[test]
fn table_rows_are_stable() {
    assert_eq!(experiments::table1_rows(), experiments::table1_rows());
    assert_eq!(experiments::table2_rows(), experiments::table2_rows());
}
