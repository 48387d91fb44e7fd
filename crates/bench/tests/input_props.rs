//! Property test: no input reaching the `pim-bench` front door may panic.
//! Three input surfaces are sampled:
//!
//! * argv token sequences, through the CLI parser;
//! * `--set key=value` overrides over every `SystemConfigBuilder::KEYS`
//!   entry plus the `faults.*` keys, with values at 0, 1, each bound,
//!   bound+1, `u32::MAX`, -1, NaN and garbage;
//! * mutated `Scenario` JSON, read through the vendored `serde_json` and
//!   mapped back onto a [`Scenario`].
//!
//! Each case goes through parsing, [`Scenario::resolve`],
//! [`SweepRunner::from_scenario`] and [`Platform3D::new`], and must come
//! back `Ok` or as a typed error; a panic anywhere fails the case
//! (`catch_unwind`). Experiment bodies are out of scope — they take
//! seconds each — and `cli_json.rs` probes them with configs known to be
//! too small.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dnn::Dataflow;
use mapper::{ArrivalProcess, StrategyKind};
use pim_bench::cli::{parse, Command};
use pim_core::{
    FaultSpec, NoiArch, Platform3D, Scenario, ServingSpec, SweepRunner, SystemConfigBuilder,
    TenantSpec,
};
use proptest::prelude::*;
use serde::Value;

/// The `faults.*` keys `FaultSpec::set` accepts, plus one it does not.
#[rustfmt::skip]
const FAULT_KEYS: [&str; 13] = [
    "faults.chip_mtbf_ms", "faults.chip_mttr_ms", "faults.link_rate_per_ms",
    "faults.link_duration_us", "faults.throttle_period_ms", "faults.throttle_duty",
    "faults.throttle_slowdown", "faults.shed_fraction", "faults.max_retries",
    "faults.backoff_base_us", "faults.backoff_cap_us", "faults.timeout_ms",
    "faults.no_such_key",
];

/// Values every key is tried with: 0, 1, `u32::MAX`, -1, NaN and
/// garbage, plus a few parse edge cases.
#[rustfmt::skip]
const COMMON_VALUES: [&str; 12] = [
    "0", "1", "4294967295", "-1", "NaN", "inf",
    "18446744073709551616", "2.5", "-0", "1e400", "", "x7",
];

/// Each key's documented bound and bound + 1 (`SystemConfig::validate`
/// and `FaultSpec::validate`). `tiers` has no bound of its own: the node
/// budget `width * height * tiers <= 4096` caps it at 163 on the 5 x 5
/// 3D stack, the only config it reaches (40 would be the cap on the
/// single-tier 10 x 10 2.5D base).
fn bounds(key: &str) -> &'static [&'static str] {
    match key {
        "width" | "height" => &["32", "33"],
        "tiers" => &["40", "41", "163", "164"],
        "batch" => &["1024", "1025"],
        "activation_bytes" => &["8", "9"],
        "sim_sampling" => &["64", "18446744073709551615"],
        "snapshot_every" => &["65535", "4294967296"],
        "pim.crossbars_per_node" => &["512", "1e9"],
        "thermal.g_vertical" | "dynamic_power_budget_w" => &["1e-300", "1e300"],
        "faults.throttle_duty" | "faults.shed_fraction" => &["0.999", "1"],
        "faults.throttle_slowdown" => &["0.999", "1"],
        _ => &["1e-9", "1e12"],
    }
}

fn all_keys() -> Vec<&'static str> {
    SystemConfigBuilder::KEYS
        .iter()
        .chain(FAULT_KEYS.iter())
        .copied()
        .collect()
}

/// The value at `index` of the key's candidate list (bounds first).
fn value_for(key: &str, index: usize) -> &'static str {
    let b = bounds(key);
    if index < b.len() {
        b[index]
    } else {
        COMMON_VALUES[(index - b.len()) % COMMON_VALUES.len()]
    }
}

/// Fails the case if `f` panics; `input` describes the case.
fn no_panic<T>(input: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("panicked on input: {input}"))
}

/// Resolves a scenario and builds its platforms. Every step returns a
/// typed `Result`; only a panic is a failure. Returns whether the
/// scenario resolved, so the properties can check they are not vacuous.
fn build(scenario: &Scenario) -> bool {
    let Ok(resolved) = scenario.resolve() else {
        return false;
    };
    let _ = SweepRunner::from_scenario(&resolved);
    let _ = Platform3D::new(&resolved.cfg3d);
    true
}

/// Parses argv and, for `run`, builds what it asks for.
fn parse_and_build(argv: &[String]) -> bool {
    match parse(argv) {
        Ok(Command::Run { scenario, .. }) => build(&scenario),
        _ => false,
    }
}

/// Argv vocabulary: commands, flags, flag values, experiment names and
/// overrides, valid and not.
#[rustfmt::skip]
const TOKENS: [&str; 44] = [
    "run", "list", "describe", "perf", "help", "all",
    "fig3", "fig7", "table1", "fig99",
    "--format", "json", "yaml", "--threads", "--seed",
    "--set", "width=0", "width=33", "tiers=41", "batch=1024", "batch4", "=",
    "faults.timeout_ms=-1",
    "--arch", "Kite", "floret", "torus", "--workload", "WL1", "WL9",
    "--dataflow", "searched", "rowwise", "--strategy", "greedy", "fast",
    "--quick", "--max-seconds", "--gate", "--bogus",
    "-1", "NaN", "4294967295", "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn argv_tokens_parse_or_fail_typed(picks in prop::collection::vec(0usize..TOKENS.len(), 0..9)) {
        let mut argv: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
        // Half the cases start with `run <name>` so flags reach resolution.
        if picks.len() % 2 == 0 {
            argv.splice(0..0, ["run".to_string(), "fig3".to_string()]);
        }
        no_panic(&format!("{argv:?}"), || parse_and_build(&argv));
    }
}

#[test]
fn set_overrides_resolve_or_fail_typed() {
    // Every key with every candidate value, one override at a time, so
    // the whole table is covered rather than sampled.
    let mut resolved = 0;
    for key in all_keys() {
        for i in 0..bounds(key).len() + COMMON_VALUES.len() {
            let set = format!("{key}={}", value_for(key, i));
            let argv: Vec<String> = ["run", "fig7", "--set", &set]
                .iter()
                .map(ToString::to_string)
                .collect();
            if no_panic(&set, || parse_and_build(&argv)) {
                resolved += 1;
            }
        }
    }
    assert!(resolved > 20, "only {resolved} single overrides resolved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combined_set_overrides_resolve_or_fail_typed(
        picks in prop::collection::vec(any::<usize>(), 2..4),
    ) {
        let keys = all_keys();
        let mut argv = vec!["run".to_string(), "fig6".to_string()];
        for pick in picks {
            let (k, v) = (pick % keys.len(), pick / keys.len() % 16);
            let key = keys[k];
            argv.push("--set".to_string());
            argv.push(format!("{key}={}", value_for(key, v)));
        }
        no_panic(&format!("{argv:?}"), || parse_and_build(&argv));
    }
}

/// A scenario with every block filled, so mutations can reach each one.
fn full_scenario() -> Scenario {
    let mut s = Scenario::new("resilience");
    s.archs = vec![NoiArch::Floret { lambda: 6 }, NoiArch::Swap { seed: 7 }];
    s.workloads = vec!["WL1".to_string()];
    s.dataflows = vec![Dataflow::FusedLayer, Dataflow::Searched];
    s.overrides = vec![("batch".to_string(), "4".to_string())];
    s.threads = Some(2);
    s.seed = Some(9);
    s.strategy = Some(StrategyKind::Greedy);
    s.serving = Some(ServingSpec::default());
    s.faults = Some(FaultSpec::default());
    s
}

/// Replacement texts for a number token of the JSON document.
#[rustfmt::skip]
const NUMBERS: [&str; 10] = [
    "0", "1", "-1", "4294967295", "18446744073709551615",
    "1e308", "-0.0", "2.5", "65536", "99999999999999999999",
];

/// Replacement texts for a string literal's contents.
const STRINGS: [&str; 9] = [
    "", "WL9", "Kite", "fig99", "NaN", "width", "sfc", "Diurnal", "\u{e9}",
];

/// Half-open byte spans `(start, end)` into the JSON text.
type Spans = Vec<(usize, usize)>;

/// Byte spans of every number token and of the contents of every string
/// literal that is a value, not an object key, in `json`.
fn token_spans(json: &[u8]) -> (Spans, Spans) {
    let (mut numbers, mut strings) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < json.len() {
        match json[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while i < json.len() && json[i] != b'"' {
                    i += if json[i] == b'\\' { 2 } else { 1 };
                }
                let end = i.min(json.len());
                i += 1;
                if json.get(i) != Some(&b':') {
                    strings.push((start, end));
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < json.len()
                    && matches!(json[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                numbers.push((start, i));
            }
            _ => i += 1,
        }
    }
    (numbers, strings)
}

/// Applies one mutation, chosen by `op` out of 10, at a position drawn
/// from `at`, with replacement text drawn from `pick`. Value edits get
/// eight tenths of the draws: most byte edits break the syntax, and the
/// point is to reach `Scenario::resolve` with odd values.
fn mutate(json: &mut Vec<u8>, op: usize, at: usize, pick: usize) {
    let (numbers, strings) = token_spans(json);
    let splice = |json: &mut Vec<u8>, (s, e): (usize, usize), text: &str| {
        json.splice(s..e, text.bytes());
    };
    match op % 10 {
        0..=4 if !numbers.is_empty() => {
            splice(
                json,
                numbers[at % numbers.len()],
                NUMBERS[pick % NUMBERS.len()],
            );
        }
        5..=7 if !strings.is_empty() => {
            splice(
                json,
                strings[at % strings.len()],
                STRINGS[pick % STRINGS.len()],
            );
        }
        8 if pick % 2 == 0 && !json.is_empty() => {
            let s = at % json.len();
            let e = (s + 1 + pick % 3).min(json.len());
            json.drain(s..e);
        }
        8 => {
            const INSERTS: &[u8] = b"[]{}\",:0-n";
            let c = INSERTS[pick % INSERTS.len()];
            json.insert(at % (json.len() + 1), c);
        }
        _ => json.truncate(at % (json.len() + 1)),
    }
}

/// The fields of a JSON object, or a decode error.
fn fields(v: &Value) -> Result<&[(String, Value)], String> {
    match v {
        Value::Map(f) => Ok(f),
        other => Err(format!("expected an object, got {other:?}")),
    }
}

fn string(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn items(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Seq(items) => Ok(items),
        other => Err(format!("expected an array, got {other:?}")),
    }
}

/// A number as the text a `--set` value would carry.
fn number_text(v: &Value) -> Result<String, String> {
    match v {
        Value::U64(u) => Ok(u.to_string()),
        Value::I64(i) => Ok(i.to_string()),
        Value::F64(f) => Ok(f.to_string()),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

fn number<T: std::str::FromStr>(v: &Value) -> Result<T, String> {
    let text = number_text(v)?;
    text.parse().map_err(|_| format!("`{text}` out of range"))
}

fn optional<T>(v: &Value, f: impl Fn(&Value) -> Result<T, String>) -> Result<Option<T>, String> {
    match v {
        Value::Null => Ok(None),
        v => f(v).map(Some),
    }
}

/// A one-key object `{"Variant": {...}}` (a struct-like enum variant).
fn variant(v: &Value) -> Result<(&str, &Value), String> {
    match fields(v)? {
        [(name, body)] => Ok((name, body)),
        _ => Err("expected a one-variant object".to_string()),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    fields(v)?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing `{name}`"))
}

fn arch(v: &Value) -> Result<NoiArch, String> {
    if let Value::Str(name) = v {
        return name.parse();
    }
    let (name, body) = variant(v)?;
    match name {
        "Floret" => Ok(NoiArch::Floret {
            lambda: number(field(body, "lambda")?)?,
        }),
        "Swap" => Ok(NoiArch::Swap {
            seed: number(field(body, "seed")?)?,
        }),
        other => Err(format!("unknown architecture `{other}`")),
    }
}

fn arrival(v: &Value) -> Result<ArrivalProcess, String> {
    if let Value::Str(name) = v {
        return match name.as_str() {
            "Poisson" => Ok(ArrivalProcess::Poisson),
            other => Err(format!("unknown arrival process `{other}`")),
        };
    }
    let (name, body) = variant(v)?;
    match name {
        "Bursty" => Ok(ArrivalProcess::Bursty {
            burst: number(field(body, "burst")?)?,
        }),
        "Diurnal" => Ok(ArrivalProcess::Diurnal {
            period: number(field(body, "period")?)?,
            amplitude: number(field(body, "amplitude")?)?,
        }),
        other => Err(format!("unknown arrival process `{other}`")),
    }
}

fn tenant(v: &Value) -> Result<TenantSpec, String> {
    Ok(TenantSpec {
        model: string(field(v, "model")?)?,
        rate_rps: number(field(v, "rate_rps")?)?,
        process: arrival(field(v, "process")?)?,
    })
}

/// Overlays the serving block's fields on the default spec.
fn serving(v: &Value) -> Result<ServingSpec, String> {
    let mut spec = ServingSpec::default();
    for (name, v) in fields(v)? {
        match name.as_str() {
            "fleet" => spec.fleet = number(v)?,
            "horizon_ms" => spec.horizon_ms = number(v)?,
            "batch_window_us" => spec.batch_window_us = number(v)?,
            "max_batch" => spec.max_batch = number(v)?,
            "queue_depth" => spec.queue_depth = number(v)?,
            "slo_ms" => spec.slo_ms = number(v)?,
            "loads" => spec.loads = items(v)?.iter().map(number).collect::<Result<_, _>>()?,
            "tenants" => spec.tenants = items(v)?.iter().map(tenant).collect::<Result<_, _>>()?,
            other => return Err(format!("unknown serving field `{other}`")),
        }
    }
    Ok(spec)
}

/// Applies the fault block's fields through `FaultSpec::set`, the same
/// parser the `faults.*` overrides use.
fn faults(v: &Value) -> Result<FaultSpec, String> {
    let mut spec = FaultSpec::default();
    for (name, v) in fields(v)? {
        if name == "retry" {
            for (name, v) in fields(v)? {
                spec.set(name, &number_text(v)?)
                    .map_err(|e| e.to_string())?;
            }
        } else {
            spec.set(name, &number_text(v)?)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(spec)
}

/// Maps a parsed JSON document back onto a [`Scenario`]; any shape the
/// serializer would not produce is a decode error.
fn decode(v: &Value) -> Result<Scenario, String> {
    let mut s = Scenario::new(string(field(v, "experiment")?)?);
    s.archs = items(field(v, "archs")?)?
        .iter()
        .map(arch)
        .collect::<Result<_, _>>()?;
    s.workloads = items(field(v, "workloads")?)?
        .iter()
        .map(string)
        .collect::<Result<_, _>>()?;
    s.dataflows = items(field(v, "dataflows")?)?
        .iter()
        .map(|d| {
            let name = string(d)?;
            Dataflow::all_with_searched()
                .into_iter()
                .find(|df| format!("{df:?}") == name)
                .ok_or_else(|| format!("unknown dataflow `{name}`"))
        })
        .collect::<Result<_, _>>()?;
    for pair in items(field(v, "overrides")?)? {
        match items(pair)? {
            [k, v] => s.overrides.push((string(k)?, string(v)?)),
            _ => return Err("an override is a [key, value] pair".to_string()),
        }
    }
    s.threads = optional(field(v, "threads")?, number)?;
    s.seed = optional(field(v, "seed")?, number)?;
    s.strategy = optional(field(v, "strategy")?, |v| string(v)?.parse())?;
    s.serving = optional(field(v, "serving")?, serving)?;
    s.faults = optional(field(v, "faults")?, faults)?;
    Ok(s)
}

#[test]
fn unmutated_scenario_json_decodes_to_itself() {
    // The decoder must read what the serializer writes, or the mutation
    // property below would only ever exercise decode errors.
    let s = full_scenario();
    let json = serde_json::to_string(&s).unwrap();
    assert_eq!(decode(&serde_json::from_str(&json).unwrap()), Ok(s.clone()));
    assert!(build(&s), "the unmutated scenario must resolve");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_scenario_json_resolves_or_fails_typed(
        ops in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut json = serde_json::to_string(&full_scenario()).unwrap().into_bytes();
        for &bits in &ops {
            // One draw feeds the mutation kind, its position and its text.
            let (op, pick, at) = (bits % 10, (bits >> 4) % 64, bits >> 10);
            mutate(&mut json, op as usize, at as usize, pick as usize);
        }
        let text = String::from_utf8_lossy(&json).into_owned();
        no_panic(&text, || {
            if let Ok(value) = serde_json::from_str(&text) {
                if let Ok(scenario) = decode(&value) {
                    build(&scenario);
                }
            }
        });
    }
}
