//! The `pim-bench perf` harness: a machine-readable performance
//! trajectory for the repository.
//!
//! One invocation times every registered experiment twice in the same
//! process — once on the optimized path (shared [`pim_core::EvalCache`])
//! and once on the baseline path (cache bypassed; its snapshot DES
//! still runs by channel-disjoint component, only without the memo) —
//! plus solver, DES, serving and mapping-search micro-benchmarks, and
//! writes the result as JSON
//! (`BENCH_18.json` at the repo root is the committed baseline of this
//! PR). Future PRs
//! append `BENCH_<n>.json` files, giving every change a comparable,
//! scripted perf record instead of hand-waved claims.
//!
//! Sub-millisecond experiments are re-timed min-of-N (see
//! [`RETIME_BELOW_MS`]): BENCH_7 "showed" table1/fig4/hetero *slower*
//! optimized than baseline purely because a single sub-ms sample is
//! noise. One-shot timings are kept for the long cells, where a second
//! run would hit the warm cache and measure replay instead of work. An
//! untimed warm-up run precedes the first pass so one-time process
//! costs (page faults, allocator growth) land outside both clocks
//! instead of inside the first heavy experiment.
//!
//! `--quick` shrinks the workload axis to `WL1` for the CI perf lane;
//! `--max-seconds` turns the optimized `run all` wall time into a hard
//! ceiling (non-zero exit when exceeded); `--gate <baseline.json>`
//! compares the gate cells ([`GATE_EXPERIMENTS`]) against a committed
//! BENCH file and fails on a >25% speedup regression (see
//! [`PerfReport::gate_against`]).

use std::hint::black_box;
use std::time::Instant;

use pim_core::{
    experiments, simulate_resilient_serving, simulate_serving, CacheStats, FaultPlan, FaultSpec,
    ResilienceParams, RunContext, Scenario, ScenarioError, ServingSpec,
};
use serde::Serialize;
use thermal::{solve_reference, PowerMap, ThermalConfig, ThermalSolver};
use topology::{mesh2d, HwParams, NodeId};

/// Wall-clock timing of one registered experiment in one pass.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentTiming {
    /// Registry name.
    pub name: String,
    /// Optimized pass (evaluation cache on), milliseconds.
    pub optimized_ms: f64,
    /// Baseline pass (evaluation cache bypassed), milliseconds.
    pub baseline_ms: f64,
    /// `baseline_ms / optimized_ms`.
    pub speedup: f64,
}

/// The `run all` aggregate of the two passes.
#[derive(Clone, Debug, Serialize)]
pub struct RunAllComparison {
    /// Wall time of the whole optimized pass, milliseconds — one clock
    /// around the full experiment loop, so registry dispatch and
    /// context overhead are included (it can slightly exceed the sum of
    /// `experiments[].optimized_ms`). This is the number `--max-seconds`
    /// gates on.
    pub optimized_ms: f64,
    /// Wall time of the whole baseline pass, milliseconds (same clock).
    pub baseline_ms: f64,
    /// `baseline_ms / optimized_ms`.
    pub speedup: f64,
}

/// Thermal-solver micro-benchmark on the paper's 5×5×4 grid: the exact
/// solve against the Gauss-Seidel reference.
#[derive(Clone, Debug, Serialize)]
pub struct SolverMicro {
    /// Grid dimensions.
    pub grid: (u16, u16, u16),
    /// Building and factoring a [`ThermalSolver`], milliseconds (mean
    /// over repetitions); a `Platform3D` pays it once.
    pub factor_ms: f64,
    /// One exact solve with that factor (two banded substitutions and
    /// the residual check), milliseconds.
    pub exact_ms: f64,
    /// Reference Gauss-Seidel solve time, milliseconds.
    pub reference_ms: f64,
    /// `reference_ms / exact_ms`.
    pub speedup: f64,
    /// Half-bandwidth of the exact solver's factor: each solve does
    /// about `4 × cells × half_bandwidth` flops.
    pub exact_half_bandwidth: usize,
    /// Sweeps the reference solver needed.
    pub reference_iterations: u32,
}

/// DES scheduler micro-counters on a canonical 24-into-1 funnel burst.
#[derive(Clone, Debug, Serialize)]
pub struct DesMicro {
    /// Flows simulated.
    pub flows: usize,
    /// Packets delivered.
    pub packets: u64,
    /// Heap events the wait-queue scheduler processed (the PR-2
    /// efficiency counter; retry polling needed ≥ 2× more).
    pub heap_events: u64,
    /// Simulated makespan, cycles.
    pub makespan_cycles: u64,
    /// Cycles headers spent parked in channel wait queues.
    pub total_channel_wait_cycles: u64,
    /// Wall time of one simulation, milliseconds.
    pub simulate_ms: f64,
}

/// Serving-simulator micro-benchmark: a saturated multi-tenant stream
/// over a chip fleet, long enough that the calendar-queue event loop
/// processes upwards of a million events.
#[derive(Clone, Debug, Serialize)]
pub struct ServingMicro {
    /// Chips in the fleet.
    pub fleet: usize,
    /// Simulated horizon, milliseconds.
    pub horizon_ms: f64,
    /// Requests generated over the horizon.
    pub requests: u64,
    /// Calendar-queue events processed across the fleet.
    pub events: u64,
    /// Wall time of the whole sweep, milliseconds.
    pub simulate_ms: f64,
    /// Event-loop throughput, events per second.
    pub events_per_sec: f64,
}

/// Resilient-serving micro-benchmark: the same saturated fleet as
/// [`ServingMicro`] but driven through the fault-aware event loop under
/// a generated fault plan, counting the extra event classes (retries,
/// failovers, timeouts) next to raw event throughput.
#[derive(Clone, Debug, Serialize)]
pub struct FaultEventsMicro {
    /// Chips in the fleet.
    pub fleet: usize,
    /// Simulated horizon, milliseconds.
    pub horizon_ms: f64,
    /// Requests generated over the horizon.
    pub requests: u64,
    /// Calendar-queue events processed (arrivals, completions, windows,
    /// chip down/up edges, retry timers).
    pub events: u64,
    /// Chip down/up edges in the generated plan.
    pub chip_faults: usize,
    /// Retry attempts scheduled across the sweep.
    pub retries: u64,
    /// Requests re-homed off a failed chip.
    pub failovers: u64,
    /// Requests abandoned after exhausting retry budget or deadline.
    pub timed_out: u64,
    /// Wall time of the whole sweep, milliseconds.
    pub simulate_ms: f64,
    /// Event-loop throughput, events per second.
    pub events_per_sec: f64,
}

/// Mapping-search micro-benchmark: the deterministic beam search over
/// per-layer loop nests, timed across a slice of the model zoo.
#[derive(Clone, Debug, Serialize)]
pub struct MappingSearchMicro {
    /// Whole-model searches per repetition.
    pub models: usize,
    /// Timed repetitions.
    pub reps: u32,
    /// Candidate mappings costed in one repetition (pre-pruning).
    pub candidates_costed: u64,
    /// Wall time of all repetitions, milliseconds.
    pub search_ms: f64,
    /// Whole-model searches per second.
    pub searches_per_sec: f64,
    /// Candidate mappings costed per second.
    pub candidates_per_sec: f64,
}

/// Evaluation-cache counters of the optimized pass.
#[derive(Clone, Debug, Serialize)]
pub struct CacheSummary {
    /// Hits/misses accumulated across the optimized `run all`.
    pub stats: CacheStats,
    /// The engine's config fingerprint (cache key prefix).
    pub fingerprint: String,
}

/// The full perf record one `pim-bench perf` run writes.
#[derive(Clone, Debug, Serialize)]
pub struct PerfReport {
    /// Schema tag for downstream tooling.
    pub schema: &'static str,
    /// The PR number this baseline belongs to (`BENCH_18.json`).
    pub bench_pr: u32,
    /// Whether the quick (CI) scenario was used.
    pub quick: bool,
    /// Worker threads of the scenario.
    pub threads: usize,
    /// Per-experiment wall times, registry order.
    pub experiments: Vec<ExperimentTiming>,
    /// The `run all` cached-vs-baseline comparison.
    pub run_all: RunAllComparison,
    /// Thermal-solver micro-benchmark.
    pub solver: SolverMicro,
    /// DES scheduler micro-counters.
    pub des: DesMicro,
    /// Serving event-loop micro-benchmark (calendar-queue throughput).
    pub serving: ServingMicro,
    /// Fault-aware serving micro-benchmark (retry/failover event load).
    pub fault_events: FaultEventsMicro,
    /// Mapping-search micro-benchmark (mappings searched per second).
    pub mapping_search: MappingSearchMicro,
    /// Evaluation-cache traffic of the optimized pass.
    pub cache: CacheSummary,
}

/// The cells the CI perf gate watches: the three sweeps that dominate
/// `run all` wall time and exercise the mapper/DES hot path end to end.
pub const GATE_EXPERIMENTS: [&str; 3] = ["fig3", "dataflows", "mapping_search"];

/// Allowed regression factor in the gate cells (>25% fails).
pub const GATE_TOLERANCE: f64 = 1.25;

/// Experiments whose one-shot wall time lands under this are re-timed
/// min-of-N: a single sub-threshold sample is dominated by scheduler and
/// allocator noise, which is how BENCH_7 printed table1/fig4/hetero as
/// "optimized slower than baseline". Long cells keep one-shot timing —
/// re-running them would hit the warm [`pim_core::EvalCache`] and
/// measure replay, not work.
pub const RETIME_BELOW_MS: f64 = 100.0;

/// Extra repetitions (beyond the pass run) for sub-threshold cells.
pub const RETIME_REPS: u32 = 4;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn base_scenario(quick: bool) -> Scenario {
    let mut s = Scenario::new("all");
    if quick {
        s.workloads = vec!["WL1".to_string()];
    }
    s
}

/// One `run all`-shaped measurement pass: per-experiment wall times (in
/// registry order), the total, and the context it ran against.
struct TimedPass {
    times: Vec<(String, f64)>,
    total_ms: f64,
    ctx: RunContext,
}

/// Runs every registered experiment once against a shared context (the
/// `run all` shape).
fn timed_pass(scenario: &Scenario, cache_enabled: bool) -> Result<TimedPass, ScenarioError> {
    let registry = experiments::registry();
    let ctx = RunContext::new_with_cache(scenario.resolve()?, cache_enabled);
    let mut times = Vec::new();
    let total = Instant::now();
    for name in registry.names() {
        let t = Instant::now();
        registry.run(&ctx, name)?;
        times.push((name.to_string(), ms(t)));
    }
    let total_ms = ms(total);
    // Noise-floor pass (outside the run-all clock): re-time the tiny
    // cells min-of-N. Re-runs cannot perturb the cache — the pass above
    // already stored every key these cells would insert. Gate cells are
    // exempt: their comparable number is the cold one-shot evaluation,
    // and a cached re-run would measure warm replay instead (fig3 in
    // the quick scenario straddles the threshold, and a replay-timed
    // sample is off by orders of magnitude).
    for (name, t_ms) in &mut times {
        if *t_ms >= RETIME_BELOW_MS || GATE_EXPERIMENTS.contains(&name.as_str()) {
            continue;
        }
        for _ in 0..RETIME_REPS {
            let t = Instant::now();
            registry.run(&ctx, name)?;
            *t_ms = t_ms.min(ms(t));
        }
    }
    Ok(TimedPass {
        times,
        total_ms,
        ctx,
    })
}

fn solver_micro() -> SolverMicro {
    let mut power = PowerMap::new(5, 5, 4).expect("non-empty grid");
    for x in 0..5 {
        for y in 0..5 {
            for z in 0..4 {
                power
                    .set(x, y, z, 0.3 + 0.05 * f64::from(x + y + z))
                    .expect("in bounds");
            }
        }
    }
    let cfg = ThermalConfig::m3d();
    let (w, h, tiers) = power.dims();
    let mean_ms = |reps: u32, f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        ms(t) / f64::from(reps)
    };
    let build = || ThermalSolver::new(w, h, tiers, &cfg).expect("physical config");
    let factor_ms = mean_ms(200, &mut || {
        black_box(build());
    });
    let solver = build();
    let exact_ms = mean_ms(2_000, &mut || {
        black_box(solver.solve(&power));
    });
    let mut reference_iterations = 0;
    let reference_ms = mean_ms(20, &mut || {
        reference_iterations = solve_reference(&power, &cfg).iterations;
    });
    SolverMicro {
        grid: power.dims(),
        factor_ms,
        exact_ms,
        reference_ms,
        speedup: reference_ms / exact_ms.max(f64::MIN_POSITIVE),
        exact_half_bandwidth: solver.half_bandwidth(),
        reference_iterations,
    }
}

fn des_micro() -> DesMicro {
    let topo = mesh2d(5, 5).expect("mesh builds");
    let hw = HwParams::default();
    let rt = netsim::RouteTable::build(&topo, &hw);
    let flows: Vec<netsim::Flow> = (0..24)
        .map(|i| netsim::Flow::new(NodeId(i), NodeId(24), 4096))
        .collect();
    let t = Instant::now();
    let report =
        netsim::simulate_with_table(&topo, &hw, &flows, &netsim::SimConfig::default(), &rt);
    DesMicro {
        flows: flows.len(),
        packets: report.packets,
        heap_events: report.heap_events,
        makespan_cycles: report.makespan_cycles,
        total_channel_wait_cycles: report.total_channel_wait_cycles,
        simulate_ms: ms(t),
    }
}

/// The M1/M9/M13 single-request PIM latencies (ns) pinned for the
/// serving micro, so its wall time measures the event loop, not model
/// construction.
const SERVING_SERVICE_NS: [u64; 3] = [2_418_720, 544_080, 2_017_360];

fn serving_micro(horizon_ms: f64, threads: usize) -> ServingMicro {
    // A deliberately saturated fleet: rates 20× the golden default so a
    // multi-second horizon pushes the calendar queue through ≥ 1M
    // events (arrivals + batch completions + window closes).
    let mut spec = ServingSpec {
        fleet: 4,
        horizon_ms,
        queue_depth: 64,
        loads: vec![1.0],
        ..ServingSpec::default()
    };
    for tenant in &mut spec.tenants {
        tenant.rate_rps *= 20.0;
    }
    let t = Instant::now();
    let out = simulate_serving(&spec, &SERVING_SERVICE_NS, 0x5E41, threads);
    let simulate_ms = ms(t);
    ServingMicro {
        fleet: spec.fleet,
        horizon_ms,
        requests: out.requests,
        events: out.events,
        simulate_ms,
        events_per_sec: out.events as f64 / (simulate_ms / 1e3).max(f64::MIN_POSITIVE),
    }
}

fn fault_events_micro(horizon_ms: f64, threads: usize) -> FaultEventsMicro {
    // The serving micro's saturated fleet, now under the default fault
    // model at full scale: chip outages, throttle windows and the
    // retry/failover machinery all pay into the event count.
    let mut spec = ServingSpec {
        fleet: 4,
        horizon_ms,
        queue_depth: 64,
        loads: vec![1.0],
        ..ServingSpec::default()
    };
    for tenant in &mut spec.tenants {
        tenant.rate_rps *= 20.0;
    }
    let fspec = FaultSpec::default();
    let horizon_ns = (horizon_ms * 1e6).round() as u64;
    let plan = FaultPlan::generate(&fspec, spec.fleet, 64, horizon_ns, 0x5E41 ^ 0xFA17);
    let chip_faults = plan.chip_faults.len();
    let params = ResilienceParams::from_spec(&fspec, plan, 50_000);
    let t = Instant::now();
    let out = simulate_resilient_serving(&spec, &params, &SERVING_SERVICE_NS, 0x5E41, threads);
    let simulate_ms = ms(t);
    let lp = &out.per_load[0];
    FaultEventsMicro {
        fleet: spec.fleet,
        horizon_ms,
        requests: out.requests,
        events: out.events,
        chip_faults,
        retries: lp.retries,
        failovers: lp.failovers,
        timed_out: lp.timed_out,
        simulate_ms,
        events_per_sec: out.events as f64 / (simulate_ms / 1e3).max(f64::MIN_POSITIVE),
    }
}

fn mapping_search_micro(reps: u32) -> MappingSearchMicro {
    use dnn::{build_model, Dataset, ModelKind, SegmentGraph};
    let cfg = pim_core::SystemConfig::datacenter_25d().pim;
    let opts = mapper::SearchOptions::default();
    let graphs: Vec<SegmentGraph> = [
        ModelKind::ResNet18,
        ModelKind::Vgg11,
        ModelKind::DenseNet169,
    ]
    .into_iter()
    .map(|kind| {
        let g = build_model(kind, Dataset::ImageNet).expect("zoo models build");
        SegmentGraph::from_layer_graph(&g)
    })
    .collect();
    let mut candidates_costed = 0;
    let t = Instant::now();
    for _ in 0..reps {
        candidates_costed = graphs
            .iter()
            .map(|g| mapper::search_model(g, &cfg, &opts).candidates_costed)
            .sum();
    }
    let search_ms = ms(t);
    let secs = (search_ms / 1e3).max(f64::MIN_POSITIVE);
    MappingSearchMicro {
        models: graphs.len(),
        reps,
        candidates_costed,
        search_ms,
        searches_per_sec: f64::from(reps) * graphs.len() as f64 / secs,
        candidates_per_sec: f64::from(reps) * candidates_costed as f64 / secs,
    }
}

/// Runs the full harness.
///
/// # Errors
///
/// Propagates [`ScenarioError`] from any experiment of either pass.
pub fn run(quick: bool) -> Result<PerfReport, ScenarioError> {
    let scenario = base_scenario(quick);
    let threads = scenario.resolve()?.threads;

    // Process warm-up, untimed: whichever pass runs first absorbs the
    // one-time process costs (first-touch page faults, allocator arena
    // growth, lazy model-zoo construction). Fig3 — the first heavy
    // experiment of the optimized pass — used to eat all of it, which
    // printed spurious <1x "speedups" in the quick scenario where the
    // cell is small. One throwaway fig3-shaped run lands those costs
    // outside both clocks; fresh-process timing shows the cached and
    // uncached fig3 paths within ~2% of each other.
    {
        let warm = base_scenario(true);
        let ctx = RunContext::new_with_cache(warm.resolve()?, false);
        experiments::registry().run(&ctx, "fig3")?;
    }

    // Optimized pass: shared evaluation cache.
    let optimized = timed_pass(&scenario, true)?;
    let cache = CacheSummary {
        stats: optimized.ctx.cache_stats().unwrap_or_default(),
        fingerprint: format!("{:016x}", optimized.ctx.cache_fingerprint().unwrap_or(0)),
    };

    // Baseline pass: cache bypassed, measured in the same process.
    let baseline = timed_pass(&scenario, false)?;

    let experiments: Vec<ExperimentTiming> = optimized
        .times
        .iter()
        .zip(&baseline.times)
        .map(|((name, opt_ms), (bname, base_ms))| {
            debug_assert_eq!(name, bname);
            ExperimentTiming {
                name: name.clone(),
                optimized_ms: *opt_ms,
                baseline_ms: *base_ms,
                speedup: base_ms / opt_ms.max(f64::MIN_POSITIVE),
            }
        })
        .collect();

    Ok(PerfReport {
        schema: "pim-bench-perf-v1",
        bench_pr: 18,
        quick,
        threads,
        experiments,
        run_all: RunAllComparison {
            optimized_ms: optimized.total_ms,
            baseline_ms: baseline.total_ms,
            speedup: baseline.total_ms / optimized.total_ms.max(f64::MIN_POSITIVE),
        },
        solver: solver_micro(),
        des: des_micro(),
        // ≥ 1M events either way; --quick only trims the horizon.
        serving: serving_micro(if quick { 30_000.0 } else { 60_000.0 }, threads),
        // A shorter horizon: the fault plan's event classes, not raw
        // throughput, are the point of this counter.
        fault_events: fault_events_micro(if quick { 3_000.0 } else { 10_000.0 }, threads),
        mapping_search: mapping_search_micro(if quick { 3 } else { 10 }),
        cache,
    })
}

impl PerfReport {
    /// The human-readable summary `pim-bench perf` prints next to the
    /// JSON file.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run all{}: {:.0} ms optimized vs {:.0} ms baseline ({:.2}x; cache {} hits / {} misses)\n",
            if self.quick { " (quick)" } else { "" },
            self.run_all.optimized_ms,
            self.run_all.baseline_ms,
            self.run_all.speedup,
            self.cache.stats.hits,
            self.cache.stats.misses,
        ));
        out.push_str(&format!(
            "thermal solve 5x5x4: {:.4} ms exact (factor {:.3} ms, half-bandwidth {}) vs {:.3} ms ({} sweeps) = {:.0}x\n",
            self.solver.exact_ms,
            self.solver.factor_ms,
            self.solver.exact_half_bandwidth,
            self.solver.reference_ms,
            self.solver.reference_iterations,
            self.solver.speedup,
        ));
        out.push_str(&format!(
            "DES funnel: {} packets, {} heap events, {} wait cycles\n",
            self.des.packets, self.des.heap_events, self.des.total_channel_wait_cycles
        ));
        out.push_str(&format!(
            "serving fleet ({} chips, {:.0} s horizon): {} events in {:.0} ms = {:.2}M events/s\n",
            self.serving.fleet,
            self.serving.horizon_ms / 1e3,
            self.serving.events,
            self.serving.simulate_ms,
            self.serving.events_per_sec / 1e6,
        ));
        out.push_str(&format!(
            "fault events ({} chips, {:.1} s horizon, {} chip edges): {} events, {} retries / {} failovers / {} timeouts = {:.2}M events/s\n",
            self.fault_events.fleet,
            self.fault_events.horizon_ms / 1e3,
            self.fault_events.chip_faults,
            self.fault_events.events,
            self.fault_events.retries,
            self.fault_events.failovers,
            self.fault_events.timed_out,
            self.fault_events.events_per_sec / 1e6,
        ));
        out.push_str(&format!(
            "mapping search ({} models x {} reps): {:.1} searches/s, {:.0} candidates/s\n",
            self.mapping_search.models,
            self.mapping_search.reps,
            self.mapping_search.searches_per_sec,
            self.mapping_search.candidates_per_sec,
        ));
        out
    }

    /// Pretty-printed JSON (the `BENCH_*.json` format).
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("serializable");
        json.push('\n');
        json
    }

    /// The CI perf gate: checks this run's [`GATE_EXPERIMENTS`] against
    /// a committed `BENCH_*.json` baseline, failing on a regression
    /// beyond [`GATE_TOLERANCE`].
    ///
    /// The comparison is always each cell's **within-run speedup**
    /// (`baseline_ms / optimized_ms`, both halves timed in the same
    /// process): machine speed cancels out of the ratio, so the check
    /// is portable across CI runners, which absolute milliseconds are
    /// not. The speedup is scenario-dependent, however — small quick
    /// cells weigh fixed cache overhead more heavily — so the baseline
    /// file should come from the **same scenario** (`quick`, `threads`)
    /// as the gated run; a scenario mismatch is flagged in the summary
    /// but still compared. CI gates its `--quick` run against the
    /// committed `BENCH_13_quick.json`; absolute wall-clock blowups are
    /// caught separately by `--max-seconds`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming every failing cell, or a parse
    /// error for a malformed baseline file.
    pub fn gate_against(&self, baseline_json: &str) -> Result<String, String> {
        use serde::Value;
        fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
            match v {
                Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
                _ => None,
            }
        }
        fn number(v: &Value) -> Option<f64> {
            match *v {
                Value::F64(f) => Some(f),
                Value::U64(u) => Some(u as f64),
                Value::I64(i) => Some(i as f64),
                _ => None,
            }
        }
        let base: Value = serde_json::from_str(baseline_json)
            .map_err(|e| format!("perf gate: malformed baseline JSON: {e}"))?;
        let base_cell = |name: &str| -> Option<&Value> {
            match field(&base, "experiments")? {
                Value::Seq(cells) => cells
                    .iter()
                    .find(|e| matches!(field(e, "name"), Some(Value::Str(n)) if n == name)),
                _ => None,
            }
        };
        let same_scenario = matches!(
            field(&base, "quick"), Some(&Value::Bool(q)) if q == self.quick
        ) && matches!(
            field(&base, "threads"), Some(&Value::U64(t)) if t == self.threads as u64
        );

        let mut lines = Vec::new();
        let mut failures = Vec::new();
        for name in GATE_EXPERIMENTS {
            let Some(cell) = self.experiments.iter().find(|e| e.name == name) else {
                failures.push(format!("{name}: missing from this run"));
                continue;
            };
            let Some(bcell) = base_cell(name) else {
                failures.push(format!("{name}: missing from the baseline file"));
                continue;
            };
            let base_speedup = field(bcell, "speedup").and_then(number).unwrap_or(0.0);
            let ok = cell.speedup >= base_speedup / GATE_TOLERANCE;
            lines.push(format!(
                "{name}: {:.2}x vs baseline {base_speedup:.2}x ({})",
                cell.speedup,
                if ok { "ok" } else { "REGRESSION" },
            ));
            if !ok {
                failures.push(format!(
                    "{name}: speedup {:.2}x fell >{:.0}% below the committed {base_speedup:.2}x",
                    cell.speedup,
                    (GATE_TOLERANCE - 1.0) * 100.0,
                ));
            }
        }
        let mode = if same_scenario {
            "within-run speedup"
        } else {
            "within-run speedup (CAUTION: scenario differs from baseline)"
        };
        let summary = format!("perf gate [{mode}]:\n  {}\n", lines.join("\n  "));
        if failures.is_empty() {
            Ok(summary)
        } else {
            Err(format!(
                "{summary}perf gate FAILED:\n  {}",
                failures.join("\n  ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_benches_report_sane_counters() {
        let solver = solver_micro();
        assert_eq!(solver.exact_half_bandwidth, 20);
        assert!(solver.reference_iterations > 1);
        assert!(solver.exact_ms > 0.0 && solver.factor_ms > 0.0);
        let des = des_micro();
        assert_eq!(des.flows, 24);
        assert!(des.packets > 0 && des.heap_events > 0);
        assert!(des.total_channel_wait_cycles > 0, "the funnel must contend");
    }

    #[test]
    fn serving_micro_scales_events_with_the_horizon() {
        // A short probe horizon keeps the debug-mode test cheap; the
        // real harness runs 30-60 s and clears 1M events.
        let m = serving_micro(500.0, 2);
        assert_eq!(m.fleet, 4);
        assert!(m.requests > 10_000, "{} requests", m.requests);
        assert!(m.events >= m.requests);
        assert!(m.events_per_sec > 0.0);
    }

    #[test]
    fn fault_events_micro_counts_fault_activity() {
        // A short probe horizon keeps the debug-mode test cheap; the
        // default MTBF still fires several chip edges inside it.
        let m = fault_events_micro(500.0, 2);
        assert_eq!(m.fleet, 4);
        assert!(m.requests > 10_000, "{} requests", m.requests);
        assert!(m.events >= m.requests);
        assert!(m.chip_faults > 0, "plan generated no chip edges");
        assert!(
            m.retries + m.failovers + m.timed_out > 0,
            "no fault activity despite a non-empty plan"
        );
        assert!(m.events_per_sec > 0.0);
    }

    #[test]
    fn mapping_search_micro_counts_candidates() {
        let m = mapping_search_micro(1);
        assert_eq!(m.models, 3);
        assert!(m.candidates_costed > 100, "{}", m.candidates_costed);
        assert!(m.searches_per_sec > 0.0);
        assert!(m.candidates_per_sec > m.searches_per_sec);
    }

    #[test]
    fn quick_scenario_narrows_the_workload_axis() {
        let s = base_scenario(true);
        assert_eq!(s.workloads, vec!["WL1"]);
        assert!(base_scenario(false).workloads.is_empty());
    }

    /// A report skeleton with just the gate-relevant fields populated.
    fn gate_report(quick: bool, cells: &[(&str, f64, f64)]) -> PerfReport {
        let experiments = cells
            .iter()
            .map(|&(name, optimized_ms, speedup)| ExperimentTiming {
                name: name.to_string(),
                optimized_ms,
                baseline_ms: optimized_ms * speedup,
                speedup,
            })
            .collect();
        PerfReport {
            schema: "pim-bench-perf-v1",
            bench_pr: 18,
            quick,
            threads: 1,
            experiments,
            run_all: RunAllComparison {
                optimized_ms: 1.0,
                baseline_ms: 1.0,
                speedup: 1.0,
            },
            solver: SolverMicro {
                grid: (5, 5, 4),
                factor_ms: 1.0,
                exact_ms: 1.0,
                reference_ms: 1.0,
                speedup: 1.0,
                exact_half_bandwidth: 20,
                reference_iterations: 2,
            },
            des: DesMicro {
                flows: 0,
                packets: 0,
                heap_events: 0,
                makespan_cycles: 0,
                total_channel_wait_cycles: 0,
                simulate_ms: 0.0,
            },
            serving: ServingMicro {
                fleet: 0,
                horizon_ms: 0.0,
                requests: 0,
                events: 0,
                simulate_ms: 0.0,
                events_per_sec: 0.0,
            },
            fault_events: FaultEventsMicro {
                fleet: 0,
                horizon_ms: 0.0,
                requests: 0,
                events: 0,
                chip_faults: 0,
                retries: 0,
                failovers: 0,
                timed_out: 0,
                simulate_ms: 0.0,
                events_per_sec: 0.0,
            },
            mapping_search: MappingSearchMicro {
                models: 0,
                reps: 0,
                candidates_costed: 0,
                search_ms: 0.0,
                searches_per_sec: 0.0,
                candidates_per_sec: 0.0,
            },
            cache: CacheSummary {
                stats: CacheStats::default(),
                fingerprint: String::new(),
            },
        }
    }

    const GATE_CELLS: [(&str, f64, f64); 3] = [
        ("fig3", 5000.0, 1.0),
        ("dataflows", 8000.0, 1.2),
        ("mapping_search", 20000.0, 1.5),
    ];

    #[test]
    fn gate_passes_within_tolerance_and_ignores_machine_speed() {
        let baseline = gate_report(true, &GATE_CELLS).to_json();
        // A 3x slower machine (all ms scaled) with mild speedup drift:
        // inside the 25% ratio budget, absolute times irrelevant.
        let current = gate_report(
            true,
            &[
                ("fig3", 15000.0, 0.9),
                ("dataflows", 24000.0, 1.1),
                ("mapping_search", 60000.0, 1.4),
            ],
        );
        let summary = current.gate_against(&baseline).expect("within tolerance");
        assert!(summary.contains("within-run speedup"), "{summary}");
        assert!(!summary.contains("CAUTION"), "{summary}");
    }

    #[test]
    fn gate_fails_on_speedup_regression_beyond_tolerance() {
        let baseline = gate_report(true, &GATE_CELLS).to_json();
        let current = gate_report(
            true,
            &[
                ("fig3", 5000.0, 1.0),
                ("dataflows", 8000.0, 0.9), // 1.2x -> 0.9x: -25%+
                ("mapping_search", 20000.0, 1.5),
            ],
        );
        let err = current.gate_against(&baseline).expect_err("must fail");
        assert!(err.contains("dataflows: speedup"), "{err}");
        assert!(
            !err.contains("fig3: speedup"),
            "only dataflows fails: {err}"
        );
    }

    #[test]
    fn gate_flags_a_scenario_mismatch() {
        // The within-run speedup is scenario-dependent (small quick
        // cells weigh cache overhead more), so gating quick against a
        // full-scenario file still runs but carries a warning.
        let baseline = gate_report(false, &GATE_CELLS).to_json();
        let ok = gate_report(true, &GATE_CELLS);
        let summary = ok.gate_against(&baseline).expect("ratios match");
        assert!(summary.contains("CAUTION: scenario differs"), "{summary}");

        let bad = gate_report(
            true,
            &[
                ("fig3", 1.0, 1.0),
                ("dataflows", 1.0, 1.2),
                ("mapping_search", 1.0, 1.0), // 1.5x -> 1.0x collapse
            ],
        );
        let err = bad.gate_against(&baseline).expect_err("ratio regression");
        assert!(err.contains("mapping_search"), "{err}");
    }

    #[test]
    fn gate_reports_missing_cells_and_bad_json() {
        let baseline = gate_report(false, &GATE_CELLS).to_json();
        let missing = gate_report(false, &GATE_CELLS[..2]);
        let err = missing.gate_against(&baseline).expect_err("cell missing");
        assert!(
            err.contains("mapping_search: missing from this run"),
            "{err}"
        );
        assert!(gate_report(false, &GATE_CELLS)
            .gate_against("not json")
            .expect_err("parse error")
            .contains("malformed"));
    }
}
