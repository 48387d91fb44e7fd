//! Deterministic fault-injection model for the resilience layer.
//!
//! A [`FaultSpec`] describes failure *statistics* — per-chip MTBF/MTTR,
//! transient NoI link blackout rate and duration, optional periodic
//! thermal-throttle windows, plus the serving-side [`RetryPolicy`] and
//! degraded-mode shed fraction. [`FaultPlan::generate`] expands a spec
//! into a concrete, fully ordered event timeline once, single-threaded,
//! from per-component seeded ChaCha8 streams — so every consumer (the
//! resilient serving loop, the DES link-fault windows, the mapping
//! churn path) replays the *same* faults and the outcome is bit-identical
//! at any worker-thread count.
//!
//! The spec is exposed on [`crate::Scenario`] as a typed `faults` block
//! and at the CLI as `--set faults.<key> <value>` overrides, validated
//! by the typed [`FaultError`] (mirroring [`crate::ConfigError`]).

use std::fmt;

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Bounded exponential backoff plus a per-request timeout for requests
/// lost to a chip failure.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Retry attempts after the initial dispatch; a request lost more
    /// than this many times is dropped (counted as timed out).
    pub max_retries: u32,
    /// First-retry backoff, microseconds; attempt `k` waits
    /// `base * 2^(k-1)`, capped.
    pub backoff_base_us: f64,
    /// Backoff ceiling, microseconds.
    pub backoff_cap_us: f64,
    /// End-to-end deadline per request, milliseconds, measured from the
    /// original arrival; a retry that cannot be scheduled before the
    /// deadline times out instead.
    pub timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_us: 200.0,
            backoff_cap_us: 3_200.0,
            timeout_ms: 24.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry attempt `attempt` (1-based), nanoseconds:
    /// `base * 2^(attempt-1)`, capped. A pure function of the policy and
    /// the attempt index — no randomness, so the schedule is identical
    /// across seeds and thread counts.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let exp = i32::try_from(attempt.saturating_sub(1).min(62)).expect("capped at 62");
        let factor = 2f64.powi(exp);
        let us = (self.backoff_base_us * factor).min(self.backoff_cap_us);
        (us * 1e3).round() as u64
    }

    /// The per-request deadline, nanoseconds after the original arrival.
    pub fn timeout_ns(&self) -> u64 {
        (self.timeout_ms * 1e6).round() as u64
    }
}

/// Statistical fault model of the fleet and its interconnect; expanded
/// into a concrete timeline by [`FaultPlan::generate`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Mean time between failures per chip, milliseconds; `0` disables
    /// chip faults entirely.
    pub chip_mtbf_ms: f64,
    /// Mean time to repair a failed chip, milliseconds.
    pub chip_mttr_ms: f64,
    /// Expected transient NoI link blackouts per millisecond across the
    /// whole fabric; `0` disables link faults.
    pub link_rate_per_ms: f64,
    /// Duration of one link blackout, microseconds.
    pub link_duration_us: f64,
    /// Thermal-throttle window period per chip, milliseconds; `0`
    /// disables throttling.
    pub throttle_period_ms: f64,
    /// Fraction of each period spent throttled, in `[0, 1)`.
    pub throttle_duty: f64,
    /// Service-time multiplier while throttled (≥ 1).
    pub throttle_slowdown: f64,
    /// Degraded-mode admission shedding: while any chip is down, each
    /// chip's admission queue depth shrinks by this fraction (`[0, 1)`),
    /// turning excess load away early instead of queueing it into
    /// timeouts.
    pub shed_fraction: f64,
    /// Retry/backoff/timeout policy for requests lost to chip failures.
    pub retry: RetryPolicy,
}

impl Default for FaultSpec {
    /// The reference fault climate pinned by the `resilience` golden:
    /// chips fail a couple of times over the default 60 ms serving
    /// horizon and repair quickly, links blackout transiently, and a
    /// mild periodic throttle stretches service inside its windows.
    fn default() -> Self {
        FaultSpec {
            chip_mtbf_ms: 40.0,
            chip_mttr_ms: 8.0,
            link_rate_per_ms: 0.25,
            link_duration_us: 40.0,
            throttle_period_ms: 20.0,
            throttle_duty: 0.2,
            throttle_slowdown: 1.5,
            shed_fraction: 0.25,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultSpec {
    /// The spec with every fault *rate* scaled by `scale`: chip failures
    /// `scale`× as frequent (MTBF divided), link blackouts `scale`× as
    /// frequent, throttle duty `scale`× as wide (capped below a full
    /// period). `scale = 0` is the healthy fleet — no chip, link or
    /// throttle events at all.
    pub fn scaled(&self, scale: f64) -> FaultSpec {
        let mut s = self.clone();
        if scale <= 0.0 {
            s.chip_mtbf_ms = 0.0;
            s.link_rate_per_ms = 0.0;
            s.throttle_period_ms = 0.0;
        } else {
            s.chip_mtbf_ms /= scale;
            s.link_rate_per_ms *= scale;
            s.throttle_duty = (s.throttle_duty * scale).min(0.9);
        }
        s
    }

    /// Checks the spec for structural validity, and that every enabled
    /// fault process has a mean event gap of at least
    /// [`MIN_FAULT_GAP_MS`]: [`FaultPlan::generate`] emits one window per
    /// event over the whole horizon.
    ///
    /// # Errors
    ///
    /// The first violated constraint as a typed [`FaultError`].
    pub fn validate(&self) -> Result<(), FaultError> {
        fn nonneg(field: &'static str, v: f64) -> Result<(), FaultError> {
            if v < 0.0 || v.is_nan() {
                return Err(FaultError::NegativeField { field, value: v });
            }
            Ok(())
        }
        nonneg("chip_mtbf_ms", self.chip_mtbf_ms)?;
        nonneg("link_rate_per_ms", self.link_rate_per_ms)?;
        nonneg("throttle_period_ms", self.throttle_period_ms)?;
        if self.chip_mtbf_ms > 0.0 && (self.chip_mttr_ms <= 0.0 || self.chip_mttr_ms.is_nan()) {
            return Err(FaultError::NonPositiveField {
                field: "chip_mttr_ms",
                value: self.chip_mttr_ms,
            });
        }
        if self.link_rate_per_ms > 0.0
            && (self.link_duration_us <= 0.0 || self.link_duration_us.is_nan())
        {
            return Err(FaultError::NonPositiveField {
                field: "link_duration_us",
                value: self.link_duration_us,
            });
        }
        for (enabled, field, gap_ms) in [
            (
                self.chip_mtbf_ms > 0.0,
                "chip_mtbf_ms + chip_mttr_ms",
                self.chip_mtbf_ms + self.chip_mttr_ms,
            ),
            (
                self.link_rate_per_ms > 0.0,
                "1 / link_rate_per_ms",
                1.0 / self.link_rate_per_ms,
            ),
            (
                self.throttle_period_ms > 0.0 && self.throttle_duty > 0.0,
                "throttle_period_ms",
                self.throttle_period_ms,
            ),
        ] {
            if enabled && gap_ms < MIN_FAULT_GAP_MS {
                return Err(FaultError::GapTooShort { field, gap_ms });
            }
        }
        if !(0.0..1.0).contains(&self.throttle_duty) {
            return Err(FaultError::FractionField {
                field: "throttle_duty",
                value: self.throttle_duty,
            });
        }
        if self.throttle_slowdown < 1.0 || self.throttle_slowdown.is_nan() {
            return Err(FaultError::SlowdownBelowOne(self.throttle_slowdown));
        }
        if !(0.0..1.0).contains(&self.shed_fraction) {
            return Err(FaultError::FractionField {
                field: "shed_fraction",
                value: self.shed_fraction,
            });
        }
        if self.retry.backoff_base_us < 0.0 || self.retry.backoff_base_us.is_nan() {
            return Err(FaultError::NegativeField {
                field: "backoff_base_us",
                value: self.retry.backoff_base_us,
            });
        }
        if self.retry.backoff_cap_us < self.retry.backoff_base_us
            || self.retry.backoff_cap_us.is_nan()
        {
            return Err(FaultError::CapBelowBase {
                base: self.retry.backoff_base_us,
                cap: self.retry.backoff_cap_us,
            });
        }
        if self.retry.timeout_ms <= 0.0 || self.retry.timeout_ms.is_nan() {
            return Err(FaultError::NonPositiveField {
                field: "timeout_ms",
                value: self.retry.timeout_ms,
            });
        }
        Ok(())
    }

    /// Applies one `--set faults.<key> <value>` override (key given
    /// without the `faults.` prefix).
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownKey`] for an unrecognized key,
    /// [`FaultError::InvalidValue`] when the value fails to parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), FaultError> {
        fn f64_of(key: &str, value: &str) -> Result<f64, FaultError> {
            value.parse().map_err(|_| FaultError::InvalidValue {
                key: format!("faults.{key}"),
                value: value.to_string(),
            })
        }
        match key {
            "chip_mtbf_ms" => self.chip_mtbf_ms = f64_of(key, value)?,
            "chip_mttr_ms" => self.chip_mttr_ms = f64_of(key, value)?,
            "link_rate_per_ms" => self.link_rate_per_ms = f64_of(key, value)?,
            "link_duration_us" => self.link_duration_us = f64_of(key, value)?,
            "throttle_period_ms" => self.throttle_period_ms = f64_of(key, value)?,
            "throttle_duty" => self.throttle_duty = f64_of(key, value)?,
            "throttle_slowdown" => self.throttle_slowdown = f64_of(key, value)?,
            "shed_fraction" => self.shed_fraction = f64_of(key, value)?,
            "max_retries" => {
                self.retry.max_retries = value.parse().map_err(|_| FaultError::InvalidValue {
                    key: "faults.max_retries".to_string(),
                    value: value.to_string(),
                })?
            }
            "backoff_base_us" => self.retry.backoff_base_us = f64_of(key, value)?,
            "backoff_cap_us" => self.retry.backoff_cap_us = f64_of(key, value)?,
            "timeout_ms" => self.retry.timeout_ms = f64_of(key, value)?,
            _ => return Err(FaultError::UnknownKey(format!("faults.{key}"))),
        }
        Ok(())
    }
}

/// The shortest mean event gap, milliseconds (1 µs), that
/// [`FaultSpec::validate`] accepts for a chip, link or throttle process.
/// The default spec's gaps (48 ms, 4 ms, 20 ms) sit far above it, at any
/// fault scale the resilience experiment sweeps.
pub const MIN_FAULT_GAP_MS: f64 = 1e-3;

/// Why a [`FaultSpec`] (or a `faults.*` override) was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// The `faults.*` override key is not recognized.
    UnknownKey(String),
    /// The override value failed to parse.
    InvalidValue {
        /// The full `faults.*` key.
        key: String,
        /// The unparseable value.
        value: String,
    },
    /// The field must be finite and nonnegative.
    NegativeField {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The field must be finite and strictly positive (given the
    /// feature it gates is enabled).
    NonPositiveField {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The field must be a fraction in `[0, 1)`.
    FractionField {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `backoff_cap_us` must be at least `backoff_base_us`.
    CapBelowBase {
        /// The configured base.
        base: f64,
        /// The offending cap.
        cap: f64,
    },
    /// `throttle_slowdown` must be at least 1.
    SlowdownBelowOne(f64),
    /// An enabled fault process's mean event gap is below
    /// [`MIN_FAULT_GAP_MS`].
    GapTooShort {
        /// The field, or expression of fields, that sets the gap.
        field: &'static str,
        /// The mean gap it gives, milliseconds.
        gap_ms: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnknownKey(key) => write!(f, "unknown fault key `{key}`"),
            FaultError::InvalidValue { key, value } => {
                write!(f, "invalid value `{value}` for `{key}`")
            }
            FaultError::NegativeField { field, value } => {
                write!(f, "{field} must be nonnegative, got {value}")
            }
            FaultError::NonPositiveField { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            FaultError::FractionField { field, value } => {
                write!(f, "{field} must be in [0, 1), got {value}")
            }
            FaultError::CapBelowBase { base, cap } => {
                write!(
                    f,
                    "backoff_cap_us {cap} must be at least backoff_base_us {base}"
                )
            }
            FaultError::SlowdownBelowOne(v) => {
                write!(f, "throttle_slowdown must be at least 1, got {v}")
            }
            FaultError::GapTooShort { field, gap_ms } => write!(
                f,
                "{field} must be at least {MIN_FAULT_GAP_MS} ms (the mean gap between \
                 fault events), got {gap_ms} ms"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// One chip outage: the chip is down in `[down_ns, up_ns)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ChipFault {
    /// Fleet chip index.
    pub chip: u32,
    /// Failure instant, ns.
    pub down_ns: u64,
    /// Repair instant, ns (may exceed the horizon: a permanent loss for
    /// that run).
    pub up_ns: u64,
}

/// One transient NoI link blackout: the link drops header handshakes in
/// `[start_ns, end_ns)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub struct LinkFaultWindow {
    /// Dense link id in the NoI topology.
    pub link: u32,
    /// Blackout start, ns.
    pub start_ns: u64,
    /// Blackout end, ns.
    pub end_ns: u64,
}

/// One thermal-throttle window: batches launched on `chip` inside
/// `[start_ns, end_ns)` run `throttle_slowdown`× slower.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ThrottleWindow {
    /// Fleet chip index.
    pub chip: u32,
    /// Window start, ns.
    pub start_ns: u64,
    /// Window end, ns.
    pub end_ns: u64,
}

/// A concrete, fully ordered fault timeline expanded from a
/// [`FaultSpec`] — the single source of truth every layer (serving,
/// DES, mapping) replays.
#[derive(Clone, Debug, PartialEq, Default, Serialize)]
pub struct FaultPlan {
    /// Chip outages, ascending by `(down_ns, chip)`; per-chip outages
    /// never overlap.
    pub chip_faults: Vec<ChipFault>,
    /// Transient link blackouts, ascending by `(start_ns, link)`.
    pub link_faults: Vec<LinkFaultWindow>,
    /// Thermal-throttle windows, ascending by `(start_ns, chip)`;
    /// per-chip windows never overlap.
    pub throttles: Vec<ThrottleWindow>,
}

/// Seed-stream tweak for per-chip failure processes.
const CHIP_STREAM: u64 = 0xFA11_ED00;
/// Seed-stream tweak for the fabric-wide link blackout process.
const LINK_STREAM: u64 = 0x11AB_FA17;

fn sample_exp(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>().clamp(1e-12, 1.0 - 1e-12);
    -mean * (1.0 - u).ln()
}

impl FaultPlan {
    /// A plan with no faults (the healthy fleet).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan carries no events at all.
    pub fn is_empty(&self) -> bool {
        self.chip_faults.is_empty() && self.link_faults.is_empty() && self.throttles.is_empty()
    }

    /// Expands `spec` into a concrete timeline over `[0, horizon_ns)`
    /// for a fleet of `fleet` chips and an NoI of `n_links` links.
    ///
    /// Deterministic and thread-count independent by construction: each
    /// chip's failure process and the fabric link process draw from
    /// their own `ChaCha8` streams derived from `seed`, generated here
    /// once, single-threaded. Chip failures are an MTBF/MTTR renewal
    /// process; link blackouts arrive Poisson across the fabric and pick
    /// a victim link per event; throttle windows are periodic with a
    /// per-chip phase stagger. Instants saturate at `u64::MAX` ns, so an
    /// outage, blackout or window that would end past it never ends.
    pub fn generate(
        spec: &FaultSpec,
        fleet: usize,
        n_links: usize,
        horizon_ns: u64,
        seed: u64,
    ) -> FaultPlan {
        let mut plan = FaultPlan::empty();
        let horizon = horizon_ns as f64;

        if spec.chip_mtbf_ms > 0.0 && fleet > 1 {
            let mtbf_ns = spec.chip_mtbf_ms * 1e6;
            let mttr_ns = spec.chip_mttr_ms * 1e6;
            for chip in 0..fleet {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    seed ^ CHIP_STREAM ^ (chip as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut t = sample_exp(&mut rng, mtbf_ns);
                while t < horizon {
                    let down_ns = t as u64;
                    let repair = sample_exp(&mut rng, mttr_ns).max(1.0);
                    let up_ns = down_ns.saturating_add(repair as u64).saturating_add(1);
                    plan.chip_faults.push(ChipFault {
                        chip: topology::narrow::u32_idx(chip),
                        down_ns,
                        up_ns,
                    });
                    t = up_ns as f64 + sample_exp(&mut rng, mtbf_ns);
                }
            }
            plan.chip_faults.sort_by_key(|f| (f.down_ns, f.chip));
        }

        if spec.link_rate_per_ms > 0.0 && n_links > 0 {
            let mean_gap_ns = 1e6 / spec.link_rate_per_ms;
            let dur_ns = (spec.link_duration_us * 1e3).round().max(1.0) as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ LINK_STREAM);
            let mut t = sample_exp(&mut rng, mean_gap_ns);
            while t < horizon {
                let start_ns = t as u64;
                let link = topology::narrow::u32_idx(rng.random::<u64>() as usize % n_links);
                plan.link_faults.push(LinkFaultWindow {
                    link,
                    start_ns,
                    end_ns: start_ns.saturating_add(dur_ns),
                });
                t += sample_exp(&mut rng, mean_gap_ns);
            }
            plan.link_faults.sort_by_key(|f| (f.start_ns, f.link));
        }

        if spec.throttle_period_ms > 0.0 && spec.throttle_duty > 0.0 {
            let period_ns = (spec.throttle_period_ms * 1e6).round().max(1.0) as u64;
            let width_ns = ((period_ns as f64) * spec.throttle_duty).round() as u64;
            if width_ns > 0 {
                for chip in 0..fleet {
                    // Phase-stagger chips so the fleet never throttles in
                    // lockstep (deterministic, no randomness needed).
                    let phase = (period_ns as u128 * chip as u128 / fleet as u128) as u64;
                    let mut start = phase;
                    while start < horizon_ns {
                        plan.throttles.push(ThrottleWindow {
                            chip: topology::narrow::u32_idx(chip),
                            start_ns: start,
                            end_ns: start.saturating_add(width_ns),
                        });
                        start = start.saturating_add(period_ns);
                    }
                }
                plan.throttles.sort_by_key(|w| (w.start_ns, w.chip));
            }
        }

        plan
    }

    /// Fleet chips that fail at least once, ascending and deduplicated.
    pub fn distinct_down_chips(&self) -> Vec<u32> {
        let mut chips: Vec<u32> = self.chip_faults.iter().map(|f| f.chip).collect();
        chips.sort_unstable();
        chips.dedup();
        chips
    }

    /// Chips still down at `horizon_ns` (an outage that never repairs
    /// within the run — the permanent-loss set handed to the mapping
    /// churn path).
    pub fn permanent_down_chips(&self, horizon_ns: u64) -> Vec<u32> {
        let mut chips: Vec<u32> = self
            .chip_faults
            .iter()
            .filter(|f| f.up_ns >= horizon_ns)
            .map(|f| f.chip)
            .collect();
        chips.sort_unstable();
        chips.dedup();
        chips
    }

    /// The link blackouts as `(link, start, end)` tuples for
    /// [`netsim::LinkFaults::from_link_windows`], interpreting
    /// nanoseconds as DES cycles 1:1 (the 1 GHz convention shared with
    /// the serving horizon).
    pub fn link_windows(&self) -> Vec<(topology::LinkId, u64, u64)> {
        self.link_faults
            .iter()
            .map(|f| (topology::LinkId(f.link), f.start_ns, f.end_ns))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert_eq!(FaultSpec::default().validate(), Ok(()));
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(1), 200_000);
        assert_eq!(p.backoff_ns(2), 400_000);
        assert_eq!(p.backoff_ns(3), 800_000);
        // Capped at backoff_cap_us = 3200 µs from attempt 5 on.
        assert_eq!(p.backoff_ns(5), 3_200_000);
        assert_eq!(p.backoff_ns(40), 3_200_000);
        // Degenerate attempt 0 behaves like attempt 1.
        assert_eq!(p.backoff_ns(0), p.backoff_ns(1));
    }

    #[test]
    fn generation_is_reproducible_and_ordered() {
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(&spec, 4, 180, 60_000_000, 0xBEEF);
        let b = FaultPlan::generate(&spec, 4, 180, 60_000_000, 0xBEEF);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a
            .chip_faults
            .windows(2)
            .all(|w| (w[0].down_ns, w[0].chip) <= (w[1].down_ns, w[1].chip)));
        assert!(a
            .link_faults
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].link) <= (w[1].start_ns, w[1].link)));
        for f in &a.chip_faults {
            assert!(f.up_ns > f.down_ns);
            assert!(f.down_ns < 60_000_000);
        }
        let c = FaultPlan::generate(&spec, 4, 180, 60_000_000, 0xBEF0);
        assert_ne!(a, c, "a different seed must reshuffle the timeline");
    }

    #[test]
    fn per_chip_outages_never_overlap() {
        let spec = FaultSpec {
            chip_mtbf_ms: 5.0,
            chip_mttr_ms: 3.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(&spec, 3, 0, 200_000_000, 7);
        for chip in 0..3u32 {
            let mine: Vec<&ChipFault> =
                plan.chip_faults.iter().filter(|f| f.chip == chip).collect();
            for w in mine.windows(2) {
                assert!(w[0].up_ns <= w[1].down_ns, "overlapping outages on {chip}");
            }
        }
    }

    #[test]
    fn zero_scale_is_the_healthy_fleet() {
        let spec = FaultSpec::default().scaled(0.0);
        let plan = FaultPlan::generate(&spec, 4, 180, 60_000_000, 0xBEEF);
        assert!(plan.is_empty());
        // Scaling up makes chip faults at least as frequent.
        let one = FaultPlan::generate(&FaultSpec::default().scaled(1.0), 4, 180, 60_000_000, 5);
        let four = FaultPlan::generate(&FaultSpec::default().scaled(4.0), 4, 180, 60_000_000, 5);
        assert!(four.chip_faults.len() >= one.chip_faults.len());
        assert!(four.link_faults.len() >= one.link_faults.len());
    }

    #[test]
    fn single_chip_fleets_never_lose_their_only_chip() {
        let plan = FaultPlan::generate(&FaultSpec::default(), 1, 180, 60_000_000, 9);
        assert!(plan.chip_faults.is_empty());
    }

    #[test]
    fn permanent_losses_are_the_unrepaired_tail() {
        let plan = FaultPlan {
            chip_faults: vec![
                ChipFault {
                    chip: 0,
                    down_ns: 10,
                    up_ns: 20,
                },
                ChipFault {
                    chip: 1,
                    down_ns: 50,
                    up_ns: 2_000,
                },
            ],
            ..FaultPlan::empty()
        };
        assert_eq!(plan.distinct_down_chips(), vec![0, 1]);
        assert_eq!(plan.permanent_down_chips(1_000), vec![1]);
        assert_eq!(plan.permanent_down_chips(5_000), Vec::<u32>::new());
    }

    #[test]
    fn overrides_parse_and_reject() {
        let mut s = FaultSpec::default();
        s.set("chip_mtbf_ms", "12.5").unwrap();
        assert_eq!(s.chip_mtbf_ms, 12.5);
        s.set("max_retries", "7").unwrap();
        assert_eq!(s.retry.max_retries, 7);
        assert_eq!(
            s.set("chip_mtbf_ms", "fast"),
            Err(FaultError::InvalidValue {
                key: "faults.chip_mtbf_ms".to_string(),
                value: "fast".to_string()
            })
        );
        assert_eq!(
            s.set("nope", "1"),
            Err(FaultError::UnknownKey("faults.nope".to_string()))
        );
    }

    #[test]
    fn validation_rejects_each_degenerate_field() {
        let bad = |f: fn(&mut FaultSpec)| {
            let mut s = FaultSpec::default();
            f(&mut s);
            s.validate().unwrap_err()
        };
        assert!(matches!(
            bad(|s| s.chip_mtbf_ms = -1.0),
            FaultError::NegativeField {
                field: "chip_mtbf_ms",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| s.chip_mttr_ms = 0.0),
            FaultError::NonPositiveField {
                field: "chip_mttr_ms",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| s.link_duration_us = 0.0),
            FaultError::NonPositiveField {
                field: "link_duration_us",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| s.throttle_duty = 1.0),
            FaultError::FractionField {
                field: "throttle_duty",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| s.shed_fraction = -0.1),
            FaultError::FractionField {
                field: "shed_fraction",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| s.throttle_slowdown = 0.5),
            FaultError::SlowdownBelowOne(_)
        ));
        assert!(matches!(
            bad(|s| s.retry.backoff_cap_us = 1.0),
            FaultError::CapBelowBase { .. }
        ));
        assert!(matches!(
            bad(|s| s.retry.timeout_ms = 0.0),
            FaultError::NonPositiveField {
                field: "timeout_ms",
                ..
            }
        ));
        // MTTR is only constrained while chip faults are enabled.
        let s = FaultSpec {
            chip_mtbf_ms: 0.0,
            chip_mttr_ms: 0.0,
            ..FaultSpec::default()
        };
        assert_eq!(s.validate(), Ok(()));
        // Each enabled process needs a mean event gap of at least 1 µs.
        assert!(matches!(
            bad(|s| s.link_rate_per_ms = 1e6),
            FaultError::GapTooShort {
                field: "1 / link_rate_per_ms",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| (s.chip_mtbf_ms, s.chip_mttr_ms) = (1e-9, 1e-9)),
            FaultError::GapTooShort {
                field: "chip_mtbf_ms + chip_mttr_ms",
                ..
            }
        ));
        assert!(matches!(
            bad(|s| s.throttle_period_ms = 5e-6),
            FaultError::GapTooShort {
                field: "throttle_period_ms",
                ..
            }
        ));
        let s = FaultSpec {
            link_rate_per_ms: 1e3,
            throttle_period_ms: MIN_FAULT_GAP_MS,
            ..FaultSpec::default()
        };
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn plan_round_trips_through_serde() {
        // The vendored serde_json deserializes to a Value tree; the
        // round-trip contract is text → tree → identical text.
        let plan = FaultPlan::generate(&FaultSpec::default(), 3, 50, 60_000_000, 0xCAFE);
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"chip_faults\""), "{json}");
        assert!(json.contains("\"link_faults\""), "{json}");
        assert!(json.contains("\"throttles\""), "{json}");
        assert_eq!(serde_json::round_trip(&json).unwrap(), json);
        let json = serde_json::to_string(&FaultSpec::default()).unwrap();
        assert!(json.contains("\"chip_mtbf_ms\""), "{json}");
        assert!(json.contains("\"max_retries\""), "{json}");
        assert_eq!(serde_json::round_trip(&json).unwrap(), json);
    }
}
