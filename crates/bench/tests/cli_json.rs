//! CI lane: the machine-readable CLI surface. Runs `pim-bench list`
//! and `pim-bench run table1 --format json`, and validates the JSON
//! with the vendored `serde_json` round-trip helper (parse + compact
//! re-render), so `--format json` can never emit text that a JSON
//! consumer would reject. Degenerate and oversized `--set` overrides
//! must exit 1 promptly with a typed config error, and so must products
//! of fields over their budget, non-physical thermal or power values,
//! and valid configs too small for a 3D experiment's model. A `tiers`
//! override shapes the 3D stack only and leaves 2.5D tables unchanged.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::run_cli;

#[test]
fn list_names_every_registered_experiment() {
    let listing = run_cli(&["list"]);
    for spec in pim_core::experiments::registry().specs() {
        assert!(
            listing.lines().any(|l| l.starts_with(spec.name)),
            "`pim-bench list` is missing {}",
            spec.name
        );
    }
}

#[test]
fn run_table1_json_round_trips_through_the_vendored_parser() {
    let json = run_cli(&["run", "table1", "--format", "json"]);
    // The round-trip helper parses and compactly re-renders; a second
    // round trip must be a fixed point.
    let compact = serde_json::round_trip(&json).expect("CLI emitted valid JSON");
    assert_eq!(serde_json::round_trip(&compact).unwrap(), compact);

    let value = serde_json::from_str(&json).expect("parses");
    let serde::Value::Seq(outputs) = value else {
        panic!("top level must be an array of experiment outputs");
    };
    assert_eq!(outputs.len(), 1);
    let serde::Value::Map(fields) = &outputs[0] else {
        panic!("experiment output must be an object");
    };
    let get = |k: &str| {
        fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{k}` field"))
    };
    assert_eq!(get("experiment"), &serde::Value::Str("table1".into()));
    let serde::Value::Seq(tables) = get("tables") else {
        panic!("`tables` must be an array");
    };
    assert_eq!(tables.len(), 1);
}

#[test]
fn tiers_override_leaves_2_5d_tables_unchanged() {
    // 2.5D systems are single-tier: `--set tiers` reaches the 3D config
    // only, so fig4's utilization must not move.
    let base = ["run", "fig4", "--workload", "WL1", "--arch", "Floret"];
    let plain = run_cli(&base);
    assert_eq!(run_cli(&[&base[..], &["--set", "tiers=4"]].concat()), plain);
}

#[test]
fn config_rejections_surface_as_clean_cli_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_pim-bench"))
        .args(["run", "table1", "--set", "sim_sampling=0"])
        .output()
        .expect("pim-bench spawns");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sim_sampling"), "{stderr}");
}

#[test]
fn oversized_inputs_exit_promptly_with_a_config_error() {
    // Each override once sized a route table or the packet simulator's
    // arena past available memory (an abort), ran for minutes, gave
    // non-physical temperatures with exit 0, or panicked (exit 101) in a
    // 3D experiment whose model no longer fits the stack. The validator
    // must reject the first kinds before any platform is built; the last
    // kind is valid config, so the experiment returns a typed error.
    const CELL: [&str; 6] = ["run", "fig3", "--workload", "WL1", "--arch", "Kite"];
    const UNFIT: &str = "model does not fit the system: insufficient capacity";
    let probes: [(&[&str], &[&str], &str); 15] = [
        (&CELL, &["batch=4294967295"], "`batch` must be <= 1024"),
        (&CELL, &["batch=1000000"], "`batch` must be <= 1024"),
        (
            &CELL,
            &["activation_bytes=1000000000000"],
            "`activation_bytes` must be <= 8",
        ),
        (&CELL, &["width=65535"], "`width` must be <= 32"),
        (&CELL, &["height=65535"], "`height` must be <= 32"),
        (
            &CELL,
            &["batch=1024", "activation_bytes=8", "sim_sampling=1"],
            "`batch * activation_bytes <= 16 * sim_sampling` exceeded: 8192 > 16",
        ),
        (
            &["run", "fig7"],
            &["tiers=1000"],
            "`width * height * tiers <= 4096` exceeded",
        ),
        (
            &["run", "fig7"],
            &["thermal.g_vertical=0"],
            "`thermal.g_vertical` must be finite and > 0",
        ),
        (
            &["run", "fig7"],
            &["dynamic_power_budget_w=NaN"],
            "`dynamic_power_budget_w` must be finite and >= 0",
        ),
        (&["run", "fig6"], &["tiers=1"], UNFIT),
        (&["run", "fig7"], &["pim.crossbars_per_node=1"], UNFIT),
        (&["run", "fig6"], &["width=2", "height=2"], UNFIT),
        (&["run", "fig7"], &["width=2", "height=2"], UNFIT),
        (&["run", "pareto"], &["width=2", "height=2"], UNFIT),
        (
            &["run", "ablation_thermal"],
            &["width=2", "height=2"],
            UNFIT,
        ),
    ];
    for (run, sets, expected) in probes {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pim-bench"));
        cmd.args(run);
        for set in sets {
            cmd.args(["--set", set]);
        }
        let mut child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("pim-bench spawns");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("pim-bench waits").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                panic!("`--set {sets:?}` still running after 20 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("pim-bench exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`--set {sets:?}`: {stderr}");
        let config_error = expected != UNFIT;
        assert!(
            stderr.contains(expected) && (!config_error || stderr.contains("invalid config")),
            "`{run:?} --set {sets:?}`: {stderr}"
        );
    }
}
