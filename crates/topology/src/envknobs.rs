//! The single allowlisted chokepoint for ambient-environment reads.
//!
//! Golden-pinned output must never silently depend on the environment
//! it was produced in, so the `env-read` pim-lint rule bans direct
//! `std::env::var` calls workspace-wide. Every knob the workspace
//! honors is declared in [`ALLOWED`] and read through this module
//! (re-exported as `pim_core::envknobs`); asking for an undeclared
//! name panics, which keeps the allowlist honest — a new knob must be
//! added here, where the determinism reviewer sees it, before any code
//! can read it.
//!
//! The module lives in `topology` only because that is the crate every
//! simulation crate already sits on; it has nothing topological about
//! it.

/// Every environment variable the workspace is allowed to read. Keep
/// sorted; document the knob where it is consumed.
pub const ALLOWED: &[&str] = &[
    "PIM_BENCH_CACHE_STATS",
    "PIM_BENCH_NO_CACHE",
    "UPDATE_GOLDEN",
];

fn check_allowlisted(name: &str) {
    assert!(
        ALLOWED.contains(&name),
        "`{name}` is not an allowlisted env knob; declare it in topology::envknobs::ALLOWED"
    );
}

/// The knob's value, `None` when unset (or not valid UTF-8).
pub fn var(name: &str) -> Option<String> {
    check_allowlisted(name);
    // pim-lint: allow(env-read) -- this is the allowlisted chokepoint the rule funnels every read through
    std::env::var(name).ok()
}

/// Whether the knob is set at all, regardless of value (the
/// `UPDATE_GOLDEN` convention).
pub fn is_set(name: &str) -> bool {
    check_allowlisted(name);
    // pim-lint: allow(env-read) -- this is the allowlisted chokepoint the rule funnels every read through
    std::env::var_os(name).is_some()
}

/// Boolean-knob convention shared by the `PIM_BENCH_*` switches: set,
/// non-empty, and not `"0"`.
pub fn flag(name: &str) -> bool {
    var(name).is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_read_as_absent_and_false() {
        // Only meaningful when the caller left the knob unset.
        if !is_set("PIM_BENCH_CACHE_STATS") {
            assert_eq!(var("PIM_BENCH_CACHE_STATS"), None);
            assert!(!flag("PIM_BENCH_CACHE_STATS"));
        }
    }

    #[test]
    #[should_panic(expected = "not an allowlisted env knob")]
    fn undeclared_names_panic() {
        var("PIM_TOTALLY_UNDECLARED");
    }
}
