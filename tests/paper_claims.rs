//! End-to-end assertions of the paper's headline claims, one test per
//! figure/table. These run the same pipelines as `pim-bench run`,
//! scaled down where optimization budgets allow.

use dataflow_pim::{experiments, NoiArch, Platform25D, SweepRunner, SystemConfig};

/// The paper's four 2.5D platforms, built once per test.
fn runner() -> SweepRunner {
    SweepRunner::new(&SystemConfig::datacenter_25d()).unwrap()
}

#[test]
fn table1_cifar_rows_match_within_six_percent() {
    for r in experiments::table1_rows() {
        if r.dataset == "CIFAR-10" {
            let rel = (r.computed_params_m - r.paper_params_m).abs() / r.paper_params_m;
            assert!(
                rel < 0.06,
                "{}: {} vs {}",
                r.id,
                r.computed_params_m,
                r.paper_params_m
            );
        }
    }
}

#[test]
fn table2_mixes_oversubscribe_the_system() {
    let cfg = SystemConfig::datacenter_25d();
    let system_capacity = cfg.node_capacity() * cfg.node_count() as u64;
    for r in experiments::table2_rows() {
        let total = (r.computed_total_b * 1e9) as u64;
        assert!(
            total > system_capacity,
            "{} must not fit in one shot ({} <= {})",
            r.name,
            total,
            system_capacity
        );
    }
}

#[test]
fn fig2a_port_profiles_match_paper() {
    let rows = runner().fig2_summaries();
    let find = |name: &str| rows.iter().find(|r| r.name.contains(name)).unwrap();

    // Kite: four-port routers are the most frequent (here: all).
    let kite = find("kite");
    assert_eq!(kite.port_histogram.get(&4), Some(&100));

    // SIAM: three- and four-port routers dominate.
    let siam = find("mesh");
    let p34 = siam.port_histogram.get(&3).unwrap_or(&0) + siam.port_histogram.get(&4).unwrap_or(&0);
    assert!(p34 >= 90);

    // SWAP: two- and three-port routers only.
    let swap = find("swap");
    assert!(swap.port_histogram.keys().all(|&p| p <= 3));

    // Floret: all routers except heads/tails have two ports.
    let floret = find("floret");
    let le2: usize = floret
        .port_histogram
        .iter()
        .filter(|(&p, _)| p <= 2)
        .map(|(_, &c)| c)
        .sum();
    assert!(le2 >= 85, "floret 2-port share {le2}");
}

#[test]
fn fig2b_floret_has_fewest_links() {
    let rows = runner().fig2_summaries();
    let links = |name: &str| rows.iter().find(|r| r.name.contains(name)).unwrap().links;
    assert!(links("floret") < links("swap"));
    assert!(links("swap") < links("mesh"));
    assert!(links("mesh") <= links("kite"));
}

#[test]
fn fig3_fig5_floret_wins_on_wl1() {
    let wl = dataflow_pim::dnn::table2_workload("WL1").unwrap();
    let rows = runner().run_workloads(&[wl]);
    let floret = rows.iter().find(|r| r.arch == "Floret").unwrap();
    for r in &rows {
        assert_eq!(r.failed_tasks, 0, "{}", r.arch);
        if r.arch == "Floret" {
            continue;
        }
        assert!(
            r.sim_latency_cycles >= floret.sim_latency_cycles,
            "Fig3: {} latency {} must be >= Floret {}",
            r.arch,
            r.sim_latency_cycles,
            floret.sim_latency_cycles
        );
        assert!(
            r.noi_energy_pj > floret.noi_energy_pj,
            "Fig5: {} energy must exceed Floret",
            r.arch
        );
    }
    // Kite pays the largest energy premium (paper: 2.8x; ours ~2x).
    let kite = rows.iter().find(|r| r.arch == "Kite").unwrap();
    assert!(kite.noi_energy_pj > 1.8 * floret.noi_energy_pj);
}

#[test]
fn fig4_swap_underutilizes_under_contiguity_admission() {
    let cfg = SystemConfig::datacenter_25d();
    let wl = dataflow_pim::dnn::table2_workload("WL1").unwrap();
    let swap = Platform25D::new(NoiArch::Swap { seed: 0xDA7AF10B }, &cfg)
        .unwrap()
        .map_workload(&wl);
    let floret = Platform25D::new(NoiArch::Floret { lambda: 6 }, &cfg)
        .unwrap()
        .map_workload(&wl);
    assert!(
        floret.mean_utilization() > swap.mean_utilization(),
        "floret {} must out-utilize swap {}",
        floret.mean_utilization(),
        swap.mean_utilization()
    );
    assert!(floret.waves.len() <= swap.waves.len());
}

#[test]
fn cost_ratios_follow_the_paper_ordering() {
    let rows = experiments::cost_rows(&runner());
    let ratio = |name: &str| {
        rows.iter()
            .find(|r| r.arch == name)
            .unwrap()
            .ratio_vs_floret
    };
    assert!(ratio("Kite") > ratio("SIAM"));
    assert!(ratio("SIAM") > ratio("SWAP"));
    assert!(ratio("SWAP") > 1.0);
    // Paper: Kite costs ~2.8x Floret; accept the 1.8-4x band.
    assert!(
        (1.8..4.0).contains(&ratio("Kite")),
        "kite ratio {}",
        ratio("Kite")
    );
}

#[test]
fn section4_transformer_regimes() {
    let rows = experiments::transformer_rows();
    let base = rows.iter().find(|(n, _)| n == "BERT-Base").unwrap();
    let seq512 = base.1.iter().find(|r| r.seq == 512).unwrap();
    // Paper: intermediates up to 8.98x the weight storage for BERT-Base.
    assert!(
        (8.0..10.5).contains(&seq512.ratio_attention_fp16_int8),
        "BERT-Base @512 ratio {}",
        seq512.ratio_attention_fp16_int8
    );
    let tiny = rows.iter().find(|(n, _)| n == "BERT-Tiny").unwrap();
    let t128 = tiny.1.iter().find(|r| r.seq == 128).unwrap();
    // Paper: 2.06x for BERT-Tiny; our bracketing accountings straddle it.
    assert!(t128.ratio_layer_same_precision < 2.06);
    assert!(t128.ratio_attention_fp16_int8 > 2.06);
}

#[test]
fn section2_resnet34_skip_share() {
    let rows = experiments::activation_rows();
    let r34 = rows.iter().find(|r| r.model == "ResNet34").unwrap();
    // Paper: linear = 4.5x skip, skip ~19% of propagated activations.
    assert!((3.5..7.0).contains(&r34.linear_over_skip));
    assert!((0.10..0.25).contains(&r34.skip_fraction));
}
