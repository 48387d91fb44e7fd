//! Shared helpers for the CLI integration tests: spawn the real
//! `pim-bench` binary and capture stdout, and compare output with the
//! golden files under `tests/golden/`.

use std::path::PathBuf;
use std::process::Command;

/// Runs `pim-bench` with `args`, asserting success, and returns stdout.
pub fn run_cli(args: &[&str]) -> String {
    run_cli_env(args, &[])
}

/// [`run_cli`] with extra environment variables (the cache/solver knobs).
#[allow(dead_code)] // each integration-test binary uses its own subset
pub fn run_cli_env(args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pim-bench"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("pim-bench spawns");
    assert!(
        out.status.success(),
        "pim-bench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The directory holding the golden files.
#[allow(dead_code)]
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Asserts that `actual` equals the golden `file`, or records it there
/// when `UPDATE_GOLDEN` is set. `what` names the output in the failure
/// message; `test` is the test target to re-run with `UPDATE_GOLDEN=1`.
#[allow(dead_code)]
pub fn assert_matches_golden(actual: &str, file: &str, what: &str, test: &str) {
    let path = golden_dir().join(file);
    if pim_core::envknobs::is_set("UPDATE_GOLDEN") {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to record",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{what} drifted from {file}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p pim_bench --test {test}"
    );
}
