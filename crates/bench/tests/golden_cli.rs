//! Golden-file snapshot tests for the `pim-bench` CLI: the `table1`,
//! `fig3`, `dataflows`, `mapping_search`, `serving` and `resilience`
//! outputs (table
//! and JSON formats) are pinned byte-for-byte under `tests/golden/`. The numeric rows
//! were verified identical to the pre-redesign per-figure binaries when
//! the goldens were first recorded, so these snapshots carry that
//! equivalence forward.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p pim_bench --test golden_cli
//! ```

mod common;
use common::{assert_matches_golden, golden_dir, run_cli};

fn assert_golden(args: &[&str], file: &str) {
    let what = format!("pim-bench {args:?}");
    assert_matches_golden(&run_cli(args), file, &what, "golden_cli");
}

#[test]
fn table1_table_format_is_pinned() {
    assert_golden(&["run", "table1"], "table1.table.txt");
}

#[test]
fn table1_json_format_is_pinned() {
    assert_golden(&["run", "table1", "--format", "json"], "table1.json");
}

#[test]
fn fig3_table_format_is_pinned() {
    assert_golden(&["run", "fig3"], "fig3.table.txt");
}

#[test]
fn fig3_json_format_is_pinned() {
    assert_golden(&["run", "fig3", "--format", "json"], "fig3.json");
}

#[test]
fn dataflows_table_format_is_pinned() {
    assert_golden(&["run", "dataflows"], "dataflows.table.txt");
}

#[test]
fn dataflows_json_format_is_pinned() {
    assert_golden(&["run", "dataflows", "--format", "json"], "dataflows.json");
}

/// `run dataflows --dataflow searched` over WL1 (the searched candidate
/// wins) and WL2 (the OS preset wins) on two architectures: pins the DES
/// latency (`sim_latency_cycles`) of SRCH rows, which the
/// `mapping_search` EDP table never shows. The whole report, mean packet
/// latency included, is pinned by `crates/core/tests/searched_resolver.rs`.
const SRCH_DES_ARGS: [&str; 12] = [
    "run",
    "dataflows",
    "--dataflow",
    "searched",
    "--workload",
    "WL1",
    "--workload",
    "WL2",
    "--arch",
    "Floret",
    "--arch",
    "Kite",
];

#[test]
fn searched_des_fields_table_format_is_pinned() {
    assert_golden(&SRCH_DES_ARGS, "dataflows_searched.table.txt");
}

#[test]
fn searched_des_fields_json_format_is_pinned() {
    let mut args = SRCH_DES_ARGS.to_vec();
    args.extend(["--format", "json"]);
    assert_golden(&args, "dataflows_searched.json");
}

#[test]
fn mapping_search_table_format_is_pinned() {
    // The reduced axis keeps the searched resolution (five candidates
    // ranked per cell, the winner simulated) affordable while still
    // pinning two architectures.
    assert_golden(
        &["run", "mapping_search", "--workload", "WL3"],
        "mapping_search.table.txt",
    );
}

#[test]
fn mapping_search_json_format_is_pinned() {
    assert_golden(
        &[
            "run",
            "mapping_search",
            "--workload",
            "WL3",
            "--format",
            "json",
        ],
        "mapping_search.json",
    );
}

#[test]
fn serving_table_format_is_pinned() {
    assert_golden(&["run", "serving"], "serving.table.txt");
}

#[test]
fn serving_json_format_is_pinned() {
    assert_golden(&["run", "serving", "--format", "json"], "serving.json");
}

#[test]
fn resilience_table_format_is_pinned() {
    assert_golden(&["run", "resilience"], "resilience.table.txt");
}

#[test]
fn resilience_json_format_is_pinned() {
    assert_golden(
        &["run", "resilience", "--format", "json"],
        "resilience.json",
    );
}

#[test]
fn resilience_output_is_thread_count_independent() {
    // Fault injection must not break the determinism contract: chip
    // outages, retries, failovers and shedding all replay identically
    // at 1, 4 and 8 workers.
    if pim_core::envknobs::is_set("UPDATE_GOLDEN") {
        return; // the golden is being rewritten concurrently by the pin test
    }
    let expected = std::fs::read_to_string(golden_dir().join("resilience.table.txt"))
        .expect("resilience golden present (run UPDATE_GOLDEN=1 first)");
    for threads in ["1", "4", "8"] {
        let got = run_cli(&["run", "resilience", "--threads", threads]);
        assert_eq!(
            got, expected,
            "resilience output drifted at --threads {threads}"
        );
    }
}

#[test]
fn serving_output_is_thread_count_independent() {
    // The fleet shards across worker threads; the merged output must be
    // byte-identical at 1, 4 and 8 workers (the determinism contract of
    // the serving pipeline).
    if pim_core::envknobs::is_set("UPDATE_GOLDEN") {
        return; // the golden is being rewritten concurrently by the pin test
    }
    let expected = std::fs::read_to_string(golden_dir().join("serving.table.txt"))
        .expect("serving golden present (run UPDATE_GOLDEN=1 first)");
    for threads in ["1", "4", "8"] {
        let got = run_cli(&["run", "serving", "--threads", threads]);
        assert_eq!(
            got, expected,
            "serving output drifted at --threads {threads}"
        );
    }
}

#[test]
fn fig3_output_is_thread_count_independent() {
    // The golden was recorded at the default worker count; one worker
    // must reproduce it byte-for-byte (the engine determinism contract,
    // now visible at the CLI boundary).
    if pim_core::envknobs::is_set("UPDATE_GOLDEN") {
        return; // the golden is being rewritten concurrently by the pin test
    }
    let single = run_cli(&["run", "fig3", "--threads", "1"]);
    let expected = std::fs::read_to_string(golden_dir().join("fig3.table.txt"))
        .expect("fig3 golden present (run UPDATE_GOLDEN=1 first)");
    assert_eq!(single, expected);
}
