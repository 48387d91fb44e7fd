//! End-to-end equivalence contracts of the evaluation cache and the
//! red-black thermal solver at the CLI boundary:
//!
//! * `run all --format json` is byte-identical with the cache enabled
//!   and bypassed (`PIM_BENCH_NO_CACHE=1`) — caching is a pure replay;
//! * the full pipeline (including the solver-bound fig6/ablation
//!   experiments) is byte-identical for any worker-thread count;
//! * `PIM_BENCH_CACHE_STATS=1` surfaces hit/miss counters in the output
//!   notes, and the default rendering carries none (so the byte-pinned
//!   goldens stay valid);
//! * every experiment of `run all --format json` matches its FNV-1a
//!   digest in `tests/golden/run_all.digests.txt`, so all registry
//!   entries are pinned, not only the ones with full-text goldens.

use std::sync::OnceLock;

mod common;
use common::{assert_matches_golden, run_cli, run_cli_env};

/// `run all --format json` with the cache on, rendered once and shared
/// by the tests below (it is the slowest run of this suite).
fn run_all_json() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| run_cli(&["run", "all", "--format", "json"]))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Splits a JSON array into the exact text of its top-level elements
/// (strings are skipped, so brackets inside them do not count).
fn top_level_elements(json: &str) -> Vec<&str> {
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let mut start = 0;
    let mut out = Vec::new();
    for (i, c) in json.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => {
                depth += 1;
                if depth == 2 {
                    start = i;
                }
            }
            ']' | '}' => {
                if depth == 2 {
                    out.push(&json[start..=i]);
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    out
}

/// The `"experiment"` name of one rendered experiment.
fn experiment_name(element: &str) -> &str {
    let key = "\"experiment\": \"";
    let at = element.find(key).expect("every experiment names itself") + key.len();
    let len = element[at..].find('"').expect("closing quote");
    &element[at..at + len]
}

#[test]
fn run_all_experiments_match_their_digests() {
    let elements = top_level_elements(run_all_json());
    let names: Vec<&str> = elements.iter().map(|e| experiment_name(e)).collect();
    assert_eq!(
        names,
        pim_core::experiments::registry().names(),
        "one digest per registry entry"
    );
    let digests: String = names
        .iter()
        .zip(&elements)
        .map(|(name, e)| format!("{name} {:016x}\n", fnv1a(e.as_bytes())))
        .collect();
    assert_matches_golden(
        &digests,
        "run_all.digests.txt",
        "an experiment of `pim-bench run all --format json`",
        "cache_equiv",
    );
}

#[test]
fn run_all_json_is_identical_with_and_without_the_cache() {
    let cached = run_all_json();
    let bypassed = run_cli_env(
        &["run", "all", "--format", "json"],
        &[("PIM_BENCH_NO_CACHE", "1")],
    );
    assert!(
        cached == bypassed,
        "caching must be a pure replay: `run all --format json` diverged \
         between cache-enabled and PIM_BENCH_NO_CACHE=1"
    );
    assert!(
        cached.contains("\"experiment\": \"fig3\""),
        "sanity: fig3 ran"
    );
}

#[test]
fn cached_pipeline_is_thread_count_independent() {
    // fig3+fig5 exercise the cache (fig5 replays fig3's cells), fig6 and
    // ablation_thermal exercise the red-black solver; the whole bundle
    // must not change a byte across worker counts.
    let args = |threads: &'static str| {
        vec![
            "run",
            "fig3",
            "fig5",
            "ablation_thermal",
            "fig6",
            "--format",
            "json",
            "--threads",
            threads,
        ]
    };
    let one = run_cli(&args("1"));
    let three = run_cli(&args("3"));
    let eight = run_cli(&args("8"));
    assert!(
        one == three && one == eight,
        "output depends on thread count"
    );
}

#[test]
fn cache_stats_notes_are_opt_in() {
    let plain = run_cli(&["run", "fig3", "fig5", "--format", "json"]);
    assert!(
        !plain.contains("eval cache:"),
        "cache counters must not leak into default output: {plain}"
    );
    let with_stats = run_cli_env(
        &["run", "fig3", "fig5", "--format", "json"],
        &[("PIM_BENCH_CACHE_STATS", "1")],
    );
    assert!(
        with_stats.contains("eval cache: 0 hits, 20 misses"),
        "fig3 fills the cache: {with_stats}"
    );
    assert!(
        with_stats.contains("eval cache: 20 hits, 0 misses"),
        "fig5 must replay fig3's 20 cells: {with_stats}"
    );
    assert!(with_stats.contains("config fingerprint"));
}
