//! System-level configuration shared by the 2.5D and 3D platforms,
//! plus the validating builder behind the `pim-bench --set key=value`
//! override surface.

use std::fmt;

use pim::PimConfig;
use serde::{Deserialize, Serialize};
use thermal::ThermalConfig;
use topology::HwParams;

/// Typed rejection of a degenerate, oversized or unparseable
/// [`SystemConfig`].
///
/// Returned by [`SystemConfig::validate`] and
/// [`SystemConfigBuilder::set`] instead of letting zero grid dimensions,
/// `sim_sampling == 0` or `snapshot_every == 0` panic (division/modulo
/// by zero) deep inside the platforms, or an oversized grid or traffic
/// volume exhaust memory in the route table or the packet simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be strictly positive is zero.
    ZeroField(&'static str),
    /// A field exceeds its documented maximum (see
    /// [`SystemConfig::validate`]).
    TooLarge {
        /// The offending field.
        field: &'static str,
        /// The largest accepted value.
        max: u64,
    },
    /// A product of fields exceeds the resource budget it is held to
    /// (see [`SystemConfig::validate`]).
    OverBudget {
        /// The budget rule, as `"width * height * tiers <= 4096"`.
        budget: &'static str,
        /// The product under the rejected config.
        value: u64,
        /// The largest accepted product under that config.
        max: u64,
    },
    /// A real-valued field is not finite or lies outside its physical
    /// range.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// What the field must be, as `"finite and > 0"`.
        expected: &'static str,
    },
    /// `--set key=value` named a key the builder does not know.
    UnknownKey(String),
    /// `--set key=value` value failed to parse for its key's type.
    InvalidValue {
        /// The override key.
        key: String,
        /// The unparseable value text.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField(field) => {
                write!(f, "config field `{field}` must be > 0")
            }
            ConfigError::TooLarge { field, max } => {
                write!(f, "config field `{field}` must be <= {max}")
            }
            ConfigError::OverBudget { budget, value, max } => {
                write!(f, "config budget `{budget}` exceeded: {value} > {max}")
            }
            ConfigError::OutOfRange { field, expected } => {
                write!(f, "config field `{field}` must be {expected}")
            }
            ConfigError::UnknownKey(key) => {
                write!(
                    f,
                    "unknown config key `{key}` (see `SystemConfigBuilder::KEYS`)"
                )
            }
            ConfigError::InvalidValue { key, value } => {
                write!(f, "invalid value `{value}` for config key `{key}`")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Largest accepted `width` and `height`. An override applies to the
/// four-tier 3D stack too, where `run fig7` peaks at ~2 GiB of RSS at
/// 64 x 64 and ~130 MiB at 32 x 32.
const MAX_GRID_SIDE: u64 = 32;
/// Largest accepted `batch`: 128x the paper's 8 streams.
const MAX_BATCH: u64 = 1024;
/// Largest accepted `activation_bytes`: a 64-bit element.
const MAX_ACTIVATION_BYTES: u64 = 8;
/// Largest accepted traffic scale `batch × activation_bytes` per unit of
/// `sim_sampling`. The DES traffic of a snapshot grows with
/// `batch × activation_bytes / sim_sampling`; 16 admits `batch = 1024` at
/// the default sampling of 64, and at 16 the largest `noi_hifi` DES call
/// (109,916 packets at scale 1) stays under ~1.8M packets.
const MAX_TRAFFIC_PER_SAMPLING: u64 = 16;
/// Largest accepted node count `width × height × tiers`, which sizes the
/// route table (a next hop per node pair); 32 × 32 × 4 takes ~130 MiB.
const MAX_NODES: u64 = 4096;

/// Full configuration of a PIM-enabled manycore system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Chiplet/PE grid width (at most 32).
    pub width: u16,
    /// Chiplet/PE grid height (at most 32).
    pub height: u16,
    /// Tiers (1 for 2.5D interposer systems; `width × height × tiers`
    /// at most 4096).
    pub tiers: u16,
    /// Interconnect hardware model.
    pub hw: HwParams,
    /// PIM compute model (crossbars per node set the per-chiplet weight
    /// capacity).
    pub pim: PimConfig,
    /// Thermal network (3D systems).
    pub thermal: ThermalConfig,
    /// Bytes per activation element on the NoI (8-bit inference; at
    /// most 8, and `batch × activation_bytes` at most
    /// `16 × sim_sampling`).
    pub activation_bytes: u64,
    /// Traffic sampling divisor for the discrete-event simulator: flows
    /// are scaled by `1/sim_sampling` before simulation. Relative
    /// architecture comparisons are unaffected; energies are reported
    /// un-sampled through the analytical model.
    pub sim_sampling: u64,
    /// Concurrent inference streams (batch) driving the 3D power model
    /// and the per-task NoI traffic volume (at most 1024).
    pub batch: u32,
    /// Simulate every N-th resident-set snapshot of the churn schedule
    /// (the last snapshot is always simulated).
    pub snapshot_every: u32,
    /// Dynamic thermal design power of the 3D stack, W (finite, not
    /// negative): streaming inference is throttled so the aggregate
    /// dynamic PIM power hits this budget (0 disables the normalization).
    /// Keeps every Fig. 6 workload in the same thermal envelope so that
    /// placement quality — not model size — drives the temperature
    /// differences.
    pub dynamic_power_budget_w: f64,
}

impl SystemConfig {
    /// The 100-chiplet 2.5D datacenter configuration of Section II:
    /// 10x10 chiplets, ~2.1M 8-bit weights per chiplet (512 crossbars of
    /// 128x128 2-bit cells).
    pub fn datacenter_25d() -> Self {
        SystemConfig {
            width: 10,
            height: 10,
            tiers: 1,
            hw: HwParams::default(),
            pim: PimConfig {
                crossbars_per_node: 512,
                ..PimConfig::default()
            },
            thermal: ThermalConfig::m3d(),
            activation_bytes: 1,
            sim_sampling: 64,
            batch: 8,
            snapshot_every: 4,
            dynamic_power_budget_w: 0.0,
        }
    }

    /// The 100-PE 3D configuration of Section III: 5x5x4 M3D stack,
    /// ~0.5M weights per PE (128 crossbars).
    pub fn stacked_3d() -> Self {
        SystemConfig {
            width: 5,
            height: 5,
            tiers: 4,
            hw: HwParams::default(),
            pim: PimConfig {
                crossbars_per_node: 128,
                ..PimConfig::default()
            },
            thermal: ThermalConfig::m3d(),
            activation_bytes: 1,
            sim_sampling: 64,
            batch: 8,
            snapshot_every: 4,
            dynamic_power_budget_w: 30.0,
        }
    }

    /// Chiplet/PE count.
    pub fn node_count(&self) -> usize {
        self.width as usize * self.height as usize * self.tiers as usize
    }

    /// Weight capacity per chiplet/PE.
    pub fn node_capacity(&self) -> u64 {
        self.pim.weights_per_node()
    }

    /// Rejects degenerate values that would otherwise panic downstream:
    /// zero grid dimensions (empty platform), `sim_sampling == 0`
    /// (division by zero scaling traffic), `snapshot_every == 0` (modulo
    /// by zero in the churn schedule), plus zero `batch`,
    /// `activation_bytes` and `pim.crossbars_per_node` (no traffic / no
    /// capacity). It also bounds the fields that size the route table
    /// and the simulated traffic: `width` and `height` at most 32,
    /// `batch` at most 1024 and `activation_bytes` at most 8, and their
    /// products: the node count `width × height × tiers` at most 4096
    /// and the traffic scale `batch × activation_bytes` at most
    /// `16 × sim_sampling`. Larger values would exhaust memory instead
    /// of failing. Finally `thermal.g_vertical` must be finite and
    /// positive and `dynamic_power_budget_w` finite and non-negative;
    /// other values give non-physical temperatures without an error.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroField`] naming the first zero field, else
    /// [`ConfigError::TooLarge`] naming the first field over its maximum,
    /// else [`ConfigError::OverBudget`] naming the first product over
    /// its budget, else [`ConfigError::OutOfRange`] naming the first
    /// non-physical real field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positives: [(&'static str, u64); 7] = [
            ("width", u64::from(self.width)),
            ("height", u64::from(self.height)),
            ("tiers", u64::from(self.tiers)),
            ("sim_sampling", self.sim_sampling),
            ("snapshot_every", u64::from(self.snapshot_every)),
            ("batch", u64::from(self.batch)),
            ("activation_bytes", self.activation_bytes),
        ];
        for (field, v) in positives {
            if v == 0 {
                return Err(ConfigError::ZeroField(field));
            }
        }
        if self.pim.crossbars_per_node == 0 {
            return Err(ConfigError::ZeroField("pim.crossbars_per_node"));
        }
        let bounded: [(&'static str, u64, u64); 4] = [
            ("width", u64::from(self.width), MAX_GRID_SIDE),
            ("height", u64::from(self.height), MAX_GRID_SIDE),
            ("batch", u64::from(self.batch), MAX_BATCH),
            (
                "activation_bytes",
                self.activation_bytes,
                MAX_ACTIVATION_BYTES,
            ),
        ];
        for (field, v, max) in bounded {
            if v > max {
                return Err(ConfigError::TooLarge { field, max });
            }
        }
        // The per-field checks above keep both products far from `u64`
        // overflow.
        let budgets: [(&'static str, u64, u64); 2] = [
            (
                "width * height * tiers <= 4096",
                self.node_count() as u64,
                MAX_NODES,
            ),
            (
                "batch * activation_bytes <= 16 * sim_sampling",
                u64::from(self.batch) * self.activation_bytes,
                MAX_TRAFFIC_PER_SAMPLING.saturating_mul(self.sim_sampling),
            ),
        ];
        for (budget, value, max) in budgets {
            if value > max {
                return Err(ConfigError::OverBudget { budget, value, max });
            }
        }
        let g = self.thermal.g_vertical;
        if !(g.is_finite() && g > 0.0) {
            return Err(ConfigError::OutOfRange {
                field: "thermal.g_vertical",
                expected: "finite and > 0",
            });
        }
        let p = self.dynamic_power_budget_w;
        if !(p.is_finite() && p >= 0.0) {
            return Err(ConfigError::OutOfRange {
                field: "dynamic_power_budget_w",
                expected: "finite and >= 0",
            });
        }
        Ok(())
    }

    /// Starts a validating [`SystemConfigBuilder`] from this config.
    pub fn builder(self) -> SystemConfigBuilder {
        SystemConfigBuilder { cfg: self }
    }
}

/// Validating builder over a [`SystemConfig`] base: typed setters plus
/// the stringly `--set key=value` surface the `pim-bench` CLI exposes.
/// [`SystemConfigBuilder::build`] runs [`SystemConfig::validate`], so a
/// degenerate config is a typed [`ConfigError`] instead of a downstream
/// panic.
///
/// # Examples
///
/// ```
/// use pim_core::{ConfigError, SystemConfig};
///
/// let cfg = SystemConfig::datacenter_25d()
///     .builder()
///     .set("batch", "4")?
///     .set("sim_sampling", "32")?
///     .build()?;
/// assert_eq!(cfg.batch, 4);
///
/// let err = SystemConfig::datacenter_25d()
///     .builder()
///     .set("width", "0")?
///     .build()
///     .unwrap_err();
/// assert_eq!(err, ConfigError::ZeroField("width"));
/// # Ok::<(), ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Every key [`SystemConfigBuilder::set`] accepts.
    pub const KEYS: [&'static str; 10] = [
        "width",
        "height",
        "tiers",
        "activation_bytes",
        "sim_sampling",
        "batch",
        "snapshot_every",
        "dynamic_power_budget_w",
        "pim.crossbars_per_node",
        "thermal.g_vertical",
    ];

    /// Applies one `key=value` override (the CLI `--set` surface).
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownKey`] for a key outside
    /// [`SystemConfigBuilder::KEYS`], [`ConfigError::InvalidValue`] when
    /// the value fails to parse for the key's type.
    pub fn set(mut self, key: &str, value: &str) -> Result<Self, ConfigError> {
        fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ConfigError> {
            value.parse().map_err(|_| ConfigError::InvalidValue {
                key: key.to_string(),
                value: value.to_string(),
            })
        }
        match key {
            "width" => self.cfg.width = parse(key, value)?,
            "height" => self.cfg.height = parse(key, value)?,
            "tiers" => self.cfg.tiers = parse(key, value)?,
            "activation_bytes" => self.cfg.activation_bytes = parse(key, value)?,
            "sim_sampling" => self.cfg.sim_sampling = parse(key, value)?,
            "batch" => self.cfg.batch = parse(key, value)?,
            "snapshot_every" => self.cfg.snapshot_every = parse(key, value)?,
            "dynamic_power_budget_w" => self.cfg.dynamic_power_budget_w = parse(key, value)?,
            "pim.crossbars_per_node" => self.cfg.pim.crossbars_per_node = parse(key, value)?,
            "thermal.g_vertical" => self.cfg.thermal.g_vertical = parse(key, value)?,
            _ => return Err(ConfigError::UnknownKey(key.to_string())),
        }
        Ok(self)
    }

    /// Applies a sequence of `(key, value)` overrides.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ConfigError`] from
    /// [`SystemConfigBuilder::set`].
    pub fn apply<'a, I>(mut self, overrides: I) -> Result<Self, ConfigError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        for (k, v) in overrides {
            self = self.set(k, v)?;
        }
        Ok(self)
    }

    /// Typed setter for the grid dimensions.
    #[must_use]
    pub fn grid(mut self, width: u16, height: u16, tiers: u16) -> Self {
        self.cfg.width = width;
        self.cfg.height = height;
        self.cfg.tiers = tiers;
        self
    }

    /// Typed setter for the concurrent inference stream count.
    #[must_use]
    pub fn batch(mut self, batch: u32) -> Self {
        self.cfg.batch = batch;
        self
    }

    /// Typed setter for the DES traffic sampling divisor.
    #[must_use]
    pub fn sim_sampling(mut self, sampling: u64) -> Self {
        self.cfg.sim_sampling = sampling;
        self
    }

    /// Validates and returns the final config.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemConfig::validate`]'s [`ConfigError`].
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datacenter_defaults() {
        let cfg = SystemConfig::datacenter_25d();
        assert_eq!(cfg.node_count(), 100);
        // 128 rows x 32 weight cols x 512 crossbars.
        assert_eq!(cfg.node_capacity(), 128 * 32 * 512);
    }

    #[test]
    fn stacked_defaults() {
        let cfg = SystemConfig::stacked_3d();
        assert_eq!(cfg.node_count(), 100);
        assert_eq!(cfg.tiers, 4);
        assert_eq!(cfg.node_capacity(), 128 * 32 * 128);
    }

    #[test]
    fn paper_configs_validate() {
        SystemConfig::datacenter_25d().validate().unwrap();
        SystemConfig::stacked_3d().validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_degenerate_field() {
        // Every zeroable field is rejected with a typed error naming it,
        // instead of a div/mod-by-zero panic downstream.
        type Poke = fn(&mut SystemConfig);
        let cases: [(&str, Poke); 8] = [
            ("width", |c| c.width = 0),
            ("height", |c| c.height = 0),
            ("tiers", |c| c.tiers = 0),
            ("sim_sampling", |c| c.sim_sampling = 0),
            ("snapshot_every", |c| c.snapshot_every = 0),
            ("batch", |c| c.batch = 0),
            ("activation_bytes", |c| c.activation_bytes = 0),
            ("pim.crossbars_per_node", |c| c.pim.crossbars_per_node = 0),
        ];
        for (field, poke) in cases {
            let mut cfg = SystemConfig::datacenter_25d();
            poke(&mut cfg);
            assert_eq!(cfg.validate(), Err(ConfigError::ZeroField(field)));
        }
    }

    #[test]
    fn validate_rejects_each_oversized_field() {
        // Each bounded field accepts its maximum and rejects one more
        // with a typed error naming the field and the limit.
        type Poke = fn(&mut SystemConfig, u64);
        let cases: [(&str, u64, Poke); 4] = [
            ("width", 32, |c, v| c.width = u16::try_from(v).unwrap()),
            ("height", 32, |c, v| c.height = u16::try_from(v).unwrap()),
            ("batch", 1024, |c, v| c.batch = u32::try_from(v).unwrap()),
            ("activation_bytes", 8, |c, v| c.activation_bytes = v),
        ];
        for (field, max, poke) in cases {
            let mut cfg = SystemConfig::datacenter_25d();
            poke(&mut cfg, max);
            assert_eq!(cfg.validate(), Ok(()), "{field} = {max}");
            poke(&mut cfg, max + 1);
            assert_eq!(cfg.validate(), Err(ConfigError::TooLarge { field, max }));
        }
    }

    #[test]
    fn validate_bounds_the_node_count() {
        // 32 x 32 x 4 = 4096 nodes is the largest accepted route table.
        let mut cfg = SystemConfig::stacked_3d();
        (cfg.width, cfg.height, cfg.tiers) = (32, 32, 4);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.tiers = 5;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::OverBudget {
                budget: "width * height * tiers <= 4096",
                value: 5120,
                max: 4096,
            })
        );
    }

    #[test]
    fn validate_bounds_the_traffic_scale() {
        // batch x activation_bytes may reach 16 x sim_sampling: 1024 at
        // the default sampling of 64, 16 at sampling 1.
        let mut cfg = SystemConfig::datacenter_25d();
        cfg.batch = 1024;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.activation_bytes = 2;
        let over = |value, max| {
            Err(ConfigError::OverBudget {
                budget: "batch * activation_bytes <= 16 * sim_sampling",
                value,
                max,
            })
        };
        assert_eq!(cfg.validate(), over(2048, 1024));
        (cfg.batch, cfg.activation_bytes, cfg.sim_sampling) = (16, 1, 1);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.batch = 17;
        assert_eq!(cfg.validate(), over(17, 16));
    }

    #[test]
    fn validate_rejects_non_physical_vertical_conductance() {
        for g in [0.0, -0.6, f64::NAN, f64::INFINITY] {
            let mut cfg = SystemConfig::stacked_3d();
            cfg.thermal.g_vertical = g;
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::OutOfRange {
                    field: "thermal.g_vertical",
                    expected: "finite and > 0",
                }),
                "g_vertical = {g}"
            );
        }
    }

    #[test]
    fn validate_rejects_non_physical_power_budgets() {
        let mut cfg = SystemConfig::stacked_3d();
        cfg.dynamic_power_budget_w = 0.0; // disables the normalization
        assert_eq!(cfg.validate(), Ok(()));
        for p in [-1.0, f64::NAN, f64::INFINITY] {
            cfg.dynamic_power_budget_w = p;
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::OutOfRange {
                    field: "dynamic_power_budget_w",
                    expected: "finite and >= 0",
                }),
                "dynamic_power_budget_w = {p}"
            );
        }
    }

    #[test]
    fn builder_sets_every_documented_key() {
        let mut b = SystemConfig::datacenter_25d().builder();
        for key in SystemConfigBuilder::KEYS {
            b = b.set(key, "3").unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        let cfg = b.build().unwrap();
        assert_eq!(cfg.width, 3);
        assert_eq!(cfg.sim_sampling, 3);
        assert_eq!(cfg.pim.crossbars_per_node, 3);
        assert!((cfg.thermal.g_vertical - 3.0).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_unknown_keys_and_bad_values() {
        let b = SystemConfig::datacenter_25d().builder();
        assert_eq!(
            b.clone().set("wdith", "3").unwrap_err(),
            ConfigError::UnknownKey("wdith".to_string())
        );
        assert_eq!(
            b.set("batch", "many").unwrap_err(),
            ConfigError::InvalidValue {
                key: "batch".to_string(),
                value: "many".to_string(),
            }
        );
    }

    #[test]
    fn builder_build_runs_validate() {
        let err = SystemConfig::datacenter_25d()
            .builder()
            .set("snapshot_every", "0")
            .unwrap()
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroField("snapshot_every"));
    }

    #[test]
    fn config_errors_display_their_context() {
        assert!(ConfigError::ZeroField("width")
            .to_string()
            .contains("width"));
        let e = ConfigError::TooLarge {
            field: "batch",
            max: 1024,
        };
        assert!(e.to_string().contains("batch") && e.to_string().contains("1024"));
        let e = ConfigError::OverBudget {
            budget: "width * height * tiers <= 4096",
            value: 100_000,
            max: 4096,
        };
        assert!(e.to_string().contains("tiers") && e.to_string().contains("100000 > 4096"));
        let e = ConfigError::OutOfRange {
            field: "thermal.g_vertical",
            expected: "finite and > 0",
        };
        assert!(e
            .to_string()
            .contains("`thermal.g_vertical` must be finite and > 0"));
        assert!(ConfigError::UnknownKey("xyz".into())
            .to_string()
            .contains("xyz"));
        let e = ConfigError::InvalidValue {
            key: "batch".into(),
            value: "many".into(),
        };
        assert!(e.to_string().contains("batch") && e.to_string().contains("many"));
    }
}
