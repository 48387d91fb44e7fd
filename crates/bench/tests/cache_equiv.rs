//! End-to-end equivalence contracts of the evaluation cache and the
//! exact thermal solve at the CLI boundary:
//!
//! * `run all --format json` is byte-identical with the cache enabled
//!   and bypassed (`PIM_BENCH_NO_CACHE=1`) — caching is a pure replay;
//! * the full pipeline (including the solver-bound fig6/ablation
//!   experiments) is byte-identical for any worker-thread count;
//! * `PIM_BENCH_CACHE_STATS=1` surfaces hit/miss counters in the output
//!   notes, and the default rendering carries none (so the byte-pinned
//!   goldens stay valid);
//! * at one worker thread, the snapshot-DES component memo's counters of
//!   the `noi_hifi` grid (`run fig3 --set sim_sampling=8`) are pinned;
//! * every experiment of `run all --format json` matches its FNV-1a
//!   digest in `tests/golden/run_all.digests.txt`, so all registry
//!   entries are pinned, not only the ones with full-text goldens;
//! * the `pareto` front keeps its hypervolume inside the band the
//!   NSGA-II seed spread spans and still reaches the SFC anchor — a
//!   check that survives float noise which reshuffles the front's rows
//!   (and so its digest).

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
    // ablation_thermal exercise the exact thermal solve; the whole bundle
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

#[test]
fn des_component_counters_are_pinned_at_one_thread() {
    // The Fig. 3 grid at the `noi_hifi` sampling: 3,732 channel-disjoint
    // components, 1,901 of them replayed from the memo, so the DES
    // simulates 3,592,314 of the 6,397,148 packets a whole-snapshot run
    // would. Above one thread two cells may both miss a component, so
    // only the one-thread counts are fixed.
    let out = run_cli_env(
        &[
            "run",
            "fig3",
            "--set",
            "sim_sampling=8",
            "--threads",
            "1",
            "--format",
            "json",
        ],
        &[("PIM_BENCH_CACHE_STATS", "1")],
    );
    assert!(
        out.contains(
            "eval cache: 0 hits, 20 misses; DES components: 3732 runs, 1901 hits, \
             3592314 packets simulated"
        ),
        "{out}"
    );
    // fig5 replays fig3's reports, so it runs no DES component at all.
    let both = run_cli_env(
        &["run", "fig3", "fig5", "--format", "json"],
        &[("PIM_BENCH_CACHE_STATS", "1")],
    );
    assert!(
        both.contains(
            "eval cache: 20 hits, 0 misses; DES components: 0 runs, 0 hits, \
             0 packets simulated"
        ),
        "{both}"
    );
}

/// Hypervolume of a minimization front, measured against `reference`:
/// the area of the union of the boxes `[x, rx] x [y, ry]` over the
/// points inside the reference box.
fn hypervolume(points: &[(f64, f64)], (rx, ry): (f64, f64)) -> f64 {
    let mut inside: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x < rx && y < ry)
        .collect();
    inside.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut area, mut best_y) = (0.0, ry);
    for (i, &(x, y)) in inside.iter().enumerate() {
        best_y = best_y.min(y);
        let next_x = inside.get(i + 1).map_or(rx, |p| p.0);
        area += (next_x - x) * (ry - best_y);
    }
    area
}

#[test]
fn pareto_front_hypervolume_stays_in_its_seed_band() {
    use serde::Value;
    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        match v {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing `{name}`")),
            other => panic!("`{name}` looked up in a non-object {other:?}"),
        }
    }
    fn seq(v: &Value) -> &[Value] {
        match v {
            Value::Seq(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
    fn float(cell: &Value) -> f64 {
        match field(cell, "Float") {
            Value::F64(f) => *f,
            other => panic!("expected a float cell, got {other:?}"),
        }
    }
    let element = top_level_elements(run_all_json())
        .into_iter()
        .find(|e| experiment_name(e) == "pareto")
        .expect("run all renders pareto");
    let output = serde_json::from_str(element).expect("valid JSON");
    let table = &seq(field(&output, "tables"))[0];
    // Columns: EDP(norm), peak(K), hotspots, acc drop %.
    let front: Vec<(f64, f64)> = seq(field(table, "rows"))
        .iter()
        .map(|row| (float(&seq(row)[0]), float(&seq(row)[1])))
        .collect();
    // Against EDP_norm 1.5 / 360 K the default seed's front measures
    // 12.26 (22 rows); `--seed 1..10` span 11.41-12.02 with 15-28 rows.
    // The band widens that spread by its own width (~0.5) on each side,
    // so a change that only moves float noise stays inside it.
    let hv = hypervolume(&front, (1.5, 360.0));
    assert!(
        (11.0..=12.8).contains(&hv),
        "pareto hypervolume {hv:.4} left the 11.0-12.8 band ({} rows)",
        front.len()
    );
    // The SFC order anchors EDP_norm = 1.0; the front must reach it.
    let min_edp = front.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    assert!(
        min_edp <= 1.005,
        "the front lost the SFC anchor: min EDP_norm {min_edp:.4}"
    );
}
