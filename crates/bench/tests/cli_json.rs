//! CI lane: the machine-readable CLI surface. Runs `pim-bench list`
//! and `pim-bench run table1 --format json`, and validates the JSON
//! with the vendored `serde_json` round-trip helper (parse + compact
//! re-render), so `--format json` can never emit text that a JSON
//! consumer would reject. Degenerate and oversized `--set` overrides
//! must exit 1 promptly with a typed config error.

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
    // arena past available memory (an abort) or ran for minutes; the
    // validator must reject it before any platform is built.
    let probes = [
        ("batch=4294967295", "`batch` must be <= 1024"),
        ("batch=1000000", "`batch` must be <= 1024"),
        (
            "activation_bytes=1000000000000",
            "`activation_bytes` must be <= 8",
        ),
        ("width=65535", "`width` must be <= 32"),
        ("height=65535", "`height` must be <= 32"),
    ];
    for (set, expected) in probes {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pim-bench"))
            .args(["run", "fig3", "--workload", "WL1", "--arch", "Kite"])
            .args(["--set", set])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("pim-bench spawns");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("pim-bench waits").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                panic!("`--set {set}` still running after 20 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("pim-bench exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`--set {set}`: {stderr}");
        assert!(
            stderr.contains("invalid config") && stderr.contains(expected),
            "`--set {set}`: {stderr}"
        );
    }
}
