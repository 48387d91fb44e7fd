//! One benchmark run: repeated fresh set-ups, body iterations for the
//! requested time, output checks, and the metrics the run reports.
//!
//! Host metrics are process CPU seconds scaled to a reference host speed
//! by the calibration kernel (see `CALIB_REF_S`): `setup_s` is the median
//! over fresh set-ups and `cpu_s` the median over body iterations, so a
//! slow phase of the host moves one sample, not the result.

use std::time::{Duration, Instant};

use pim_core::{ScenarioError, WorkloadReport};

use crate::clock::{cpu_timed, median, peak_rss_mib, Calibration};
use crate::compose::{compose_grid, ComposeScratch};
use crate::trace::Tracer;
use crate::workloads::{
    noi_hifi_body, paper_all_body, resilience_body, serving_body, setup, Kind, Ops, Seeds, Setup,
    SimOutcome,
};

/// Fresh set-ups timed before each body iteration, at least ...
const SETUP_BATCH_MIN_REPS: usize = 12;
/// ... and until the batch used this much CPU, up to
/// [`SETUP_BATCH_MAX_REPS`]. Batches spread the set-up samples over the
/// whole run, so one slow phase of the host moves few of them.
const SETUP_BATCH_CPU_S: f64 = 0.05;
/// Upper bound on one batch of set-ups.
const SETUP_BATCH_MAX_REPS: usize = 500;
/// Calibration-kernel runs at the start of every lap and after the last.
const CALIB_REPS: usize = 5;
/// CPU seconds the calibration kernel takes at the reference host speed.
/// Each lap's host times are scaled by this over the median kernel time
/// of the lap's samples (its opening batch, the samples its bodies take
/// between calls, and the next lap's opening batch), which cancels
/// host-wide speed shifts longer than a lap (they reached 30% within
/// minutes on a shared two-thread host).
const CALIB_REF_S: f64 = 0.008;
/// Body iterations per untraced run, at least; a traced run makes at
/// least one untraced and one traced iteration.
const MIN_ITERS: usize = 2;

/// Placeholder for a simulated metric the workload never simulates (see
/// [`Kind::simulated`]): every result carries every end-to-end metric of
/// `BENCHMARK.json`, and a constant never moves between runs.
const NOT_SIMULATED: f64 = 1.0;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// False for a simulated metric the workload never simulates.
    pub measured: bool,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Operations attempted over every iteration.
    pub attempted: u64,
    /// Failure reasons over every iteration.
    pub failures: Vec<String>,
    /// False when an operation failed or the simulated results differed
    /// between iterations of the same seed.
    pub correct: bool,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Spans of the traced run as JSON (traced runs only).
    pub spans_json: Option<String>,
    /// CPU seconds of each untraced body iteration, in run order.
    pub iteration_cpu_s: Vec<f64>,
    /// Raw (uncalibrated) medians: set-up CPU s, body CPU s, and the
    /// calibration kernel's CPU s.
    pub raw_medians: (f64, f64, f64),
}

/// What one body iteration produced.
struct Iteration {
    cpu_s: f64,
    ops: Ops,
    sim: SimOutcome,
    /// `noi_hifi` untraced cells, for the composition check.
    reports: Vec<WorkloadReport>,
}

/// Runs `kind` for about `seconds` of wall time.
///
/// # Errors
///
/// A set-up that cannot build the scenario (the repository is broken).
pub fn run(
    kind: Kind,
    seeds: Seeds,
    seconds: f64,
    traced: bool,
) -> Result<RunReport, ScenarioError> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();

    let mut setup_laps: Vec<Vec<f64>> = Vec::new();
    let mut calib_laps: Vec<Calibration> = Vec::new();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced_iters: Vec<Iteration> = Vec::new();
    let mut tracer = Tracer::new();
    let mut scratch = ComposeScratch::default();
    loop {
        let lap = Instant::now();
        let mut calib = Calibration::default();
        calib.sample(CALIB_REPS);
        // Traced runs alternate which mode goes first, so neither always
        // pays the colder first iteration.
        let traced_first = traced && untraced.len() % 2 == 1;
        if traced_first {
            let reference = &untraced.last().expect("lap 0 ran untraced").reports;
            traced_iters.push(traced_iteration(
                kind,
                seeds,
                &mut tracer,
                reference,
                &mut scratch,
                &mut calib,
            )?);
        }
        let mut lap_setups = Vec::new();
        let st = setup_batch(kind, seeds, &mut lap_setups)?;
        setup_laps.push(lap_setups);
        untraced.push(body(kind, &st, seeds, None, &[], &mut scratch, &mut calib)?);
        if let (true, Kind::NoiHifi, Setup::Noi { ctx, .. }) = (traced, kind, &st) {
            // The traced `noi_hifi` cells bypass the EvalCache, so its
            // counters come from the untraced iteration.
            let stats = ctx.cache_stats().unwrap_or_default();
            tracer.count("cache.hits", stats.hits as f64);
            tracer.count("cache.misses", stats.misses as f64);
        }
        drop(st);
        if traced && !traced_first {
            let reference = &untraced.last().expect("just pushed").reports;
            traced_iters.push(traced_iteration(
                kind,
                seeds,
                &mut tracer,
                reference,
                &mut scratch,
                &mut calib,
            )?);
        }
        calib_laps.push(calib);
        let min_iters = if traced { 1 } else { MIN_ITERS };
        if untraced.len() >= min_iters && started.elapsed() + lap.elapsed() > budget {
            break;
        }
    }
    let mut closing = Calibration::default();
    closing.sample(CALIB_REPS);
    calib_laps.push(closing);

    let mut attempted = 0;
    let mut failures = Vec::new();
    for it in untraced.iter().chain(&traced_iters) {
        attempted += it.ops.attempted;
        failures.extend(it.ops.failures.iter().cloned());
    }
    let sim = untraced[0].sim.clone();
    if let Some(i) = untraced.iter().position(|it| it.sim != sim) {
        failures.push(format!(
            "iteration {i} simulated {:?}, iteration 0 simulated {sim:?}",
            untraced[i].sim
        ));
    }
    for name in sim.missing(kind) {
        failures.push(format!("{} produced no {name}", kind.name()));
    }
    let iteration_cpu_s: Vec<f64> = untraced.iter().map(|it| it.cpu_s).collect();

    // Lap i runs between the opening batches of laps i and i + 1; its
    // traced and untraced iterations share that lap's speed.
    let speed: Vec<f64> = calib_laps
        .windows(2)
        .map(|w| {
            let lap = [&w[0].samples[..], &w[1].samples[..CALIB_REPS]].concat();
            CALIB_REF_S / median(&lap)
        })
        .collect();
    let scaled_cpu_s = |its: &[Iteration]| -> f64 {
        median(
            &its.iter()
                .zip(&speed)
                .map(|(it, v)| it.cpu_s * v)
                .collect::<Vec<_>>(),
        )
    };
    let cpu_s = scaled_cpu_s(&untraced);
    let metrics = if traced {
        let overhead = scaled_cpu_s(&traced_iters) / cpu_s - 1.0;
        layer_metrics(&tracer, traced_iters.len(), overhead)
    } else {
        let setup_s: Vec<f64> = setup_laps
            .iter()
            .zip(&speed)
            .flat_map(|(lap, v)| lap.iter().map(move |s| s * v))
            .collect();
        end_to_end_metrics(kind, median(&setup_s), cpu_s, peak_rss_mib(), &sim)
    };
    Ok(RunReport {
        attempted,
        correct: failures.is_empty(),
        failures,
        metrics,
        spans_json: traced.then(|| tracer.spans_json()),
        raw_medians: (
            median(&setup_laps.concat()),
            median(&iteration_cpu_s),
            median(
                &calib_laps
                    .iter()
                    .flat_map(|c| c.samples.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        ),
        iteration_cpu_s,
    })
}

/// A batch of fresh, CPU-timed set-ups (see [`SETUP_BATCH_CPU_S`]);
/// returns the last one.
fn setup_batch(kind: Kind, seeds: Seeds, samples: &mut Vec<f64>) -> Result<Setup, ScenarioError> {
    let mut batch_cpu = 0.0;
    let mut reps = 0;
    loop {
        let (dt, st) = cpu_timed(|| setup(kind, seeds, None));
        let st = st?;
        samples.push(dt);
        batch_cpu += dt;
        reps += 1;
        let enough = reps >= SETUP_BATCH_MIN_REPS && batch_cpu >= SETUP_BATCH_CPU_S;
        if enough || reps >= SETUP_BATCH_MAX_REPS {
            return Ok(st);
        }
    }
}

/// A traced set-up and body iteration.
fn traced_iteration(
    kind: Kind,
    seeds: Seeds,
    tracer: &mut Tracer,
    reference: &[WorkloadReport],
    scratch: &mut ComposeScratch,
    calib: &mut Calibration,
) -> Result<Iteration, ScenarioError> {
    let st = setup(kind, seeds, Some(&mut *tracer))?;
    body(kind, &st, seeds, Some(tracer), reference, scratch, calib)
}

/// One body iteration, CPU-timed without the calibration samples it takes.
/// With a tracer, `noi_hifi` composes its cells from layer calls and
/// checks them against `reference`.
fn body(
    kind: Kind,
    st: &Setup,
    seeds: Seeds,
    mut tracer: Option<&mut Tracer>,
    reference: &[WorkloadReport],
    scratch: &mut ComposeScratch,
    calib: &mut Calibration,
) -> Result<Iteration, ScenarioError> {
    let calib_cpu_s = calib.cpu_s;
    let mut reports = Vec::new();
    let (cpu_s, (ops, sim)) = match (kind, st) {
        (Kind::PaperAll, Setup::Noi { ctx, .. }) => {
            cpu_timed(|| paper_all_body(ctx, tracer.as_deref_mut(), calib))
        }
        (
            Kind::NoiHifi,
            Setup::Noi {
                ctx,
                workloads,
                graphs,
            },
        ) => match tracer.as_deref_mut() {
            None => {
                let (dt, r) = cpu_timed(|| noi_hifi_body(ctx, workloads, graphs, calib));
                let (ops, sim, cells) = r?;
                reports = cells;
                (dt, (ops, sim))
            }
            Some(t) => {
                let runner = ctx.runner()?;
                cpu_timed(|| compose_grid(runner, graphs, reference, t, scratch))
            }
        },
        (
            Kind::Serving,
            Setup::Serving {
                spec, service_ns, ..
            },
        ) => {
            let (dt, (ops, sim, out)) = cpu_timed(|| match tracer.as_deref_mut() {
                Some(t) => t.time("serving", 0, || serving_body(spec, service_ns, seeds)),
                None => serving_body(spec, service_ns, seeds),
            });
            if let Some(t) = tracer {
                t.count("serving.events", out.events as f64);
                t.count("serving.requests", out.requests as f64);
                let rejected: u64 = out.per_load.iter().map(|lp| lp.rejected).sum();
                t.count("serving.rejected", rejected as f64);
            }
            (dt, (ops, sim))
        }
        (
            Kind::Resilience,
            Setup::Serving {
                spec,
                service_ns,
                faults: Some(params),
            },
        ) => {
            let (dt, (ops, sim, out)) = cpu_timed(|| match tracer.as_deref_mut() {
                Some(t) => t.time("fleet", 0, || {
                    resilience_body(spec, params, service_ns, seeds)
                }),
                None => resilience_body(spec, params, service_ns, seeds),
            });
            if let Some(t) = tracer {
                t.count(
                    "faults.chip_edges",
                    2.0 * params.plan.chip_faults.len() as f64,
                );
                t.count("faults.link_windows", params.plan.link_faults.len() as f64);
                t.count("fleet.events", out.events as f64);
                for lp in &out.per_load {
                    t.count("fleet.retries", lp.retries as f64);
                    t.count("fleet.failovers", lp.failovers as f64);
                    t.count("fleet.timed_out", lp.timed_out as f64);
                }
            }
            (dt, (ops, sim))
        }
        _ => unreachable!("set-up {} produced the wrong shape", kind.name()),
    };
    Ok(Iteration {
        cpu_s: cpu_s - (calib.cpu_s - calib_cpu_s),
        ops,
        sim,
        reports,
    })
}

fn end_to_end_metrics(
    kind: Kind,
    setup_s: f64,
    cpu_s: f64,
    rss_mib: f64,
    sim: &SimOutcome,
) -> Vec<Metric> {
    let host = |name, value, unit| Metric {
        name,
        value,
        unit,
        measured: true,
    };
    let mut metrics = vec![
        host("setup_s", setup_s, "s"),
        host("cpu_s", cpu_s, "s"),
        host("peak_rss_mb", rss_mib, "MiB"),
    ];
    metrics.extend(sim.metrics().into_iter().map(|(name, value, unit)| {
        let measured = kind.simulated().contains(&name);
        Metric {
            name,
            // A missing simulated metric has already failed the run.
            value: value.filter(|_| measured).unwrap_or(NOT_SIMULATED),
            unit,
            measured,
        }
    }));
    metrics
}

/// The per-layer metrics of a traced run: self times and work counters
/// per traced iteration.
fn layer_metrics(tracer: &Tracer, iters: usize, overhead: f64) -> Vec<Metric> {
    let per = 1.0 / iters.max(1) as f64;
    let self_times = tracer.self_times();
    let s = |name: &str| self_times.get(name).copied().unwrap_or(0.0) * per;
    let c = |name: &str| tracer.counter(name) * per;
    let ns_per = |secs: f64, events: f64| {
        if events > 0.0 {
            secs * 1e9 / events
        } else {
            0.0
        }
    };
    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        measured: true,
    };
    let hits = c("cache.hits");
    let lookups = hits + c("cache.misses");
    vec![
        m("des.s", s("des"), "s"),
        m("des.calls", c("des.calls"), "count"),
        m("des.packets", c("des.packets"), "count"),
        m("des.heap_events", c("des.heap_events"), "count"),
        m(
            "des.ns_per_event",
            ns_per(s("des"), c("des.heap_events")),
            "ns/event",
        ),
        m("des.wait_mcycles", c("des.wait_cycles") / 1e6, "Mcycle"),
        m("churn.s", s("churn"), "s"),
        m("churn.cells", c("churn.cells"), "count"),
        m("transfers.s", s("transfers"), "s"),
        m("transfers.count", c("transfers.count"), "count"),
        m("analytical.s", s("analytical"), "s"),
        m("analytical.flows", c("analytical.flows"), "count"),
        m("compute.s", s("compute"), "s"),
        m("compute.segments", c("compute.segments"), "count"),
        m("graphs.s", s("graphs"), "s"),
        m("platforms.s", s("platforms"), "s"),
        m("exp.fig3.s", s("exp.fig3"), "s"),
        m("exp.fig4.s", s("exp.fig4"), "s"),
        m("exp.dataflows.s", s("exp.dataflows"), "s"),
        m("exp.mapping_search.s", s("exp.mapping_search"), "s"),
        m("exp.fig6.s", s("exp.fig6"), "s"),
        m("exp.fig7.s", s("exp.fig7"), "s"),
        m("exp.pareto.s", s("exp.pareto"), "s"),
        m("exp.rest.s", s("exp.rest"), "s"),
        m("cache.hits", hits, "count"),
        m("cache.misses", c("cache.misses"), "count"),
        m(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        m("serving.s", s("serving"), "s"),
        m("serving.events", c("serving.events"), "count"),
        m("serving.requests", c("serving.requests"), "count"),
        m("serving.rejected", c("serving.rejected"), "count"),
        m(
            "serving.ns_per_event",
            ns_per(s("serving"), c("serving.events")),
            "ns/event",
        ),
        m("faults.s", s("faults"), "s"),
        m("faults.chip_edges", c("faults.chip_edges"), "count"),
        m("faults.link_windows", c("faults.link_windows"), "count"),
        m("fleet.s", s("fleet"), "s"),
        m("fleet.events", c("fleet.events"), "count"),
        m(
            "fleet.ns_per_event",
            ns_per(s("fleet"), c("fleet.events")),
            "ns/event",
        ),
        m("fleet.retries", c("fleet.retries"), "count"),
        m("fleet.failovers", c("fleet.failovers"), "count"),
        m("fleet.timed_out", c("fleet.timed_out"), "count"),
        m("trace.overhead", overhead, "ratio"),
    ]
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(r: &RunReport) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failures.len(),
        metrics.join(", ")
    )
}
