//! Event-driven multi-tenant service model: DNN tasks arrive as a Poisson
//! process, hold their chiplets for an exponential service time, and
//! depart — the "datacenter-scale scenario" of Section II with real
//! arrival/departure dynamics instead of the synthetic FIFO churn.

use dnn::SegmentGraph;
use rand::RngExt;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::placement::{CapacityLedger, TaskId, TaskPlacement};
use crate::scheduler::Strategy;

/// Arrival-process configuration (times are in abstract service units).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ArrivalConfig {
    /// Mean inter-arrival time (Poisson process).
    pub mean_interarrival: f64,
    /// Mean service (residency) time per task, exponential.
    pub mean_service: f64,
    /// RNG seed (deterministic per seed).
    pub seed: u64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            mean_interarrival: 1.0,
            mean_service: 8.0,
            seed: 0xA221,
        }
    }
}

/// Outcome of one arrival-process run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServiceOutcome {
    /// Placement of every admitted task, in admission order.
    pub placements: Vec<TaskPlacement>,
    /// Tasks that could not be mapped even on an empty system.
    pub failed: Vec<TaskId>,
    /// Mean admission wait (admission time minus arrival time).
    pub mean_wait: f64,
    /// Time-weighted mean number of resident tasks.
    pub mean_resident: f64,
    /// Time-weighted chiplet utilization.
    pub utilization: f64,
    /// Time at which the last task departed.
    pub makespan: f64,
}

fn sample_exp(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>().clamp(1e-12, 1.0 - 1e-12);
    -mean * (1.0 - u).ln()
}

/// Shape of one tenant's arrival process. Composed with the rate and
/// seed of an [`ArrivalConfig`] by [`sample_arrivals`]; every variant
/// has the same mean rate `1 / mean_interarrival`, so offered load is
/// comparable across shapes.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals.
    Poisson,
    /// Bursts of `burst` back-to-back requests; burst starts are Poisson
    /// with the inter-arrival scaled by `burst` to keep the mean rate.
    Bursty {
        /// Requests per burst (clamped to at least 1).
        burst: u32,
    },
    /// Diurnally modulated Poisson arrivals generated by thinning:
    /// `rate(t) = (1 + amplitude * sin(2πt / period)) / mean_interarrival`.
    Diurnal {
        /// Modulation period, in the same time units as the config.
        period: f64,
        /// Relative amplitude in `[0, 1]`.
        amplitude: f64,
    },
}

/// Samples the arrival times in `[0, horizon)` of `process` composed
/// with the rate and seed of `cfg`. Times are nondecreasing and fully
/// deterministic per seed.
pub fn sample_arrivals(cfg: &ArrivalConfig, process: &ArrivalProcess, horizon: f64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut times = Vec::new();
    let mut t = 0.0f64;
    match *process {
        ArrivalProcess::Poisson => loop {
            t += sample_exp(&mut rng, cfg.mean_interarrival);
            if t >= horizon {
                break;
            }
            times.push(t);
        },
        ArrivalProcess::Bursty { burst } => {
            let burst = burst.max(1);
            loop {
                t += sample_exp(&mut rng, cfg.mean_interarrival * burst as f64);
                if t >= horizon {
                    break;
                }
                for _ in 0..burst {
                    times.push(t);
                }
            }
        }
        ArrivalProcess::Diurnal { period, amplitude } => {
            let amplitude = amplitude.clamp(0.0, 1.0);
            let period = period.max(1e-9);
            // Thinning: sample at the peak rate, accept proportionally.
            let peak_mean = cfg.mean_interarrival / (1.0 + amplitude);
            loop {
                t += sample_exp(&mut rng, peak_mean);
                if t >= horizon {
                    break;
                }
                let rate = 1.0 + amplitude * (std::f64::consts::TAU * t / period).sin();
                let accept: f64 = rng.random();
                if accept * (1.0 + amplitude) <= rate {
                    times.push(t);
                }
            }
        }
    }
    times
}

/// Runs the arrival process: `tasks` arrive in order at Poisson times and
/// are admitted FIFO as capacity allows; each resident task departs after
/// its exponential service time and frees its chiplets.
///
/// Placements reflect the fragmented system state at each admission
/// instant, as in [`crate::run_churn`], but the occupancy dynamics are
/// driven by the stochastic arrival/service process rather than forced
/// evictions.
pub fn run_poisson(
    tasks: &[SegmentGraph],
    node_count: usize,
    capacity: u64,
    strategy: &Strategy<'_>,
    cfg: &ArrivalConfig,
) -> ServiceOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // Pre-sample arrival times and service durations for determinism.
    let mut t = 0.0;
    let arrivals: Vec<f64> = tasks
        .iter()
        .map(|_| {
            t += sample_exp(&mut rng, cfg.mean_interarrival);
            t
        })
        .collect();
    let services: Vec<f64> = tasks
        .iter()
        .map(|_| sample_exp(&mut rng, cfg.mean_service))
        .collect();
    run_service(tasks, node_count, capacity, strategy, &arrivals, &services)
}

/// [`run_poisson`] with explicit per-task arrival and service times
/// (`arrivals` must be nondecreasing; both slices are indexed by task).
///
/// Events are ordered deterministically and *exactly* by
/// `(time, kind, TaskId)` with departures before arrivals at the same
/// instant — a task arriving exactly when another departs sees the
/// freed capacity, and the utilization/wait integrals use the exact
/// event times (no fixed-point truncation).
pub fn run_service(
    tasks: &[SegmentGraph],
    node_count: usize,
    capacity: u64,
    strategy: &Strategy<'_>,
    arrivals: &[f64],
    services: &[f64],
) -> ServiceOutcome {
    assert_eq!(arrivals.len(), tasks.len());
    assert_eq!(services.len(), tasks.len());
    debug_assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrival times must be nondecreasing"
    );
    let mut ledger = CapacityLedger::new(node_count, capacity);
    let mut cursor = 0usize;
    // Departure min-heap ordered exactly by (time, TaskId): nonnegative
    // f64 times are compared through their IEEE-754 bit patterns, which
    // preserves order without any lossy scaling.
    let mut departures: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
        std::collections::BinaryHeap::new();
    let to_key = |time: f64| time.max(0.0).to_bits();

    let mut placements = Vec::new();
    let mut failed = Vec::new();
    let mut waits = Vec::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut now = 0.0f64;
    let mut last_event = 0.0f64;
    let mut util_integral = 0.0f64;
    let mut resident_integral = 0.0f64;
    let mut resident = 0usize;
    let mut next_arrival = 0usize;
    let mut admitted_at: Vec<f64> = vec![0.0; tasks.len()];

    let advance = |now: f64,
                   last: &mut f64,
                   ui: &mut f64,
                   ri: &mut f64,
                   ledger: &CapacityLedger,
                   resident: usize| {
        let dt = now - *last;
        *ui += ledger.utilization() * dt;
        *ri += resident as f64 * dt;
        *last = now;
    };

    loop {
        // Next event: arrival or departure. At an exact time tie the
        // departure goes first (kind order), so the arriving task sees
        // the capacity it frees.
        let arr_t = arrivals.get(next_arrival).copied();
        let dep_t = departures.peek().map(|r| f64::from_bits(r.0 .0));
        let (event_t, is_arrival) = match (arr_t, dep_t) {
            (Some(a), Some(d)) => {
                if a < d {
                    (a, true)
                } else {
                    (d, false)
                }
            }
            (Some(a), None) => (a, true),
            (None, Some(d)) => (d, false),
            (None, None) => break,
        };
        now = event_t;
        advance(
            now,
            &mut last_event,
            &mut util_integral,
            &mut resident_integral,
            &ledger,
            resident,
        );

        if is_arrival {
            queue.push_back(next_arrival);
            next_arrival += 1;
        } else {
            let std::cmp::Reverse((_, task)) = departures.pop().expect("peeked");
            ledger.release_task(TaskId(task));
            resident -= 1;
        }

        // Admit as many queued tasks as now fit (FIFO).
        while let Some(&idx) = queue.front() {
            let task = TaskId(topology::narrow::u32_idx(idx));
            match strategy.map_task(&mut ledger, &mut cursor, task, &tasks[idx]) {
                Ok(tp) => {
                    queue.pop_front();
                    admitted_at[idx] = now;
                    waits.push(now - arrivals[idx]);
                    departures.push(std::cmp::Reverse((
                        to_key(now + services[idx]),
                        topology::narrow::u32_idx(idx),
                    )));
                    resident += 1;
                    placements.push(tp);
                }
                Err(_) => {
                    if resident == 0 {
                        // Unmappable even on an empty system.
                        queue.pop_front();
                        failed.push(task);
                        continue;
                    }
                    break; // wait for a departure
                }
            }
        }
    }

    let makespan = now.max(1e-12);
    ServiceOutcome {
        placements,
        failed,
        mean_wait: if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        },
        mean_resident: resident_integral / makespan,
        utilization: util_integral / makespan,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{build_model, Dataset, ModelKind};
    use topology::floret;

    fn tasks(n: usize) -> Vec<SegmentGraph> {
        let g = build_model(ModelKind::ResNet18, Dataset::ImageNet).unwrap();
        vec![SegmentGraph::from_layer_graph(&g); n]
    }

    fn sfc_strategy() -> Strategy<'static> {
        let (_, layout) = floret(10, 10, 6).unwrap();
        Strategy::sfc(&layout)
    }

    #[test]
    fn poisson_serves_every_task() {
        let out = run_poisson(
            &tasks(30),
            100,
            1_000_000,
            &sfc_strategy(),
            &ArrivalConfig::default(),
        );
        assert_eq!(out.placements.len(), 30);
        assert!(out.failed.is_empty());
        assert!(out.makespan > 0.0);
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
    }

    #[test]
    fn heavier_load_raises_waits_and_utilization() {
        let light = ArrivalConfig {
            mean_interarrival: 4.0,
            mean_service: 4.0,
            seed: 3,
        };
        let heavy = ArrivalConfig {
            mean_interarrival: 0.5,
            mean_service: 8.0,
            seed: 3,
        };
        let t = tasks(40);
        let s = sfc_strategy();
        let l = run_poisson(&t, 100, 1_000_000, &s, &light);
        let h = run_poisson(&t, 100, 1_000_000, &s, &heavy);
        assert!(
            h.utilization > l.utilization,
            "{} vs {}",
            h.utilization,
            l.utilization
        );
        assert!(h.mean_wait >= l.mean_wait);
        assert!(h.mean_resident > l.mean_resident);
    }

    #[test]
    fn poisson_is_deterministic() {
        let cfg = ArrivalConfig::default();
        let t = tasks(15);
        let s = sfc_strategy();
        let a = run_poisson(&t, 100, 1_000_000, &s, &cfg);
        let b = run_poisson(&t, 100, 1_000_000, &s, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_works_with_greedy_strategy() {
        let topo = topology::mesh2d(10, 10).unwrap();
        let strategy = Strategy::greedy(&topo, crate::GreedyConfig::soft());
        let out = run_poisson(
            &tasks(20),
            100,
            1_000_000,
            &strategy,
            &ArrivalConfig::default(),
        );
        assert_eq!(out.placements.len(), 20);
        assert!(out.failed.is_empty());
    }

    #[test]
    fn waits_are_nonnegative_and_bounded_by_makespan() {
        let out = run_poisson(
            &tasks(25),
            100,
            1_000_000,
            &sfc_strategy(),
            &ArrivalConfig {
                mean_interarrival: 0.3,
                mean_service: 10.0,
                seed: 42,
            },
        );
        assert!(out.mean_wait >= 0.0);
        assert!(out.mean_wait < out.makespan);
        assert!(out.mean_resident <= 100.0);
    }

    /// Regression: a task arriving at the *exact* instant another departs
    /// must be admitted with zero wait, and the wait/utilization
    /// integrals must be exact — the old fixed-point departure key
    /// (`(t * 1e9) as u64`) truncated departure times and reordered them
    /// against arrivals within the truncation error.
    #[test]
    fn simultaneous_arrival_and_departure_is_exact() {
        let t = tasks(2);
        let s = sfc_strategy();
        // Capacity tuned so one ResNet18 holds > half the 100 chiplets:
        // the two tasks must serialize. The second arrival lands exactly
        // (bit-for-bit) on the first departure at 1/3, which no binary
        // fraction represents.
        let third = 1.0f64 / 3.0;
        let out = run_service(&t, 100, 200_000, &s, &[0.0, third], &[third, third]);
        assert_eq!(out.placements.len(), 2);
        assert!(out.failed.is_empty());
        let nodes_per_task = out.placements[0].used_nodes().len();
        assert!(
            nodes_per_task > 50,
            "tasks must serialize: {nodes_per_task}"
        );
        // Departure-before-arrival at the tie: zero wait, exactly.
        assert_eq!(out.mean_wait, 0.0);
        // The system runs back-to-back over [0, 2/3]: the makespan and
        // both time integrals must be exact, not off by truncation error.
        assert_eq!(out.makespan, third + third);
        assert_eq!(out.utilization, nodes_per_task as f64 / 100.0);
        assert_eq!(out.mean_resident, 1.0);
    }

    #[test]
    fn arrival_processes_share_the_mean_rate() {
        let cfg = ArrivalConfig {
            mean_interarrival: 0.5,
            mean_service: 1.0,
            seed: 9,
        };
        let horizon = 4000.0;
        let expected = horizon / cfg.mean_interarrival;
        for process in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { burst: 8 },
            ArrivalProcess::Diurnal {
                period: 100.0,
                amplitude: 0.8,
            },
        ] {
            let times = sample_arrivals(&cfg, &process, horizon);
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "{process:?} must be nondecreasing"
            );
            assert!(times.iter().all(|&t| (0.0..horizon).contains(&t)));
            let n = times.len() as f64;
            assert!(
                (n - expected).abs() / expected < 0.1,
                "{process:?}: {n} arrivals vs expected {expected}"
            );
            // Determinism per seed.
            assert_eq!(times, sample_arrivals(&cfg, &process, horizon));
        }
    }

    #[test]
    fn bursty_arrivals_come_in_bursts() {
        let cfg = ArrivalConfig::default();
        let times = sample_arrivals(&cfg, &ArrivalProcess::Bursty { burst: 4 }, 200.0);
        assert_eq!(times.len() % 4, 0);
        for chunk in times.chunks(4) {
            assert!(chunk.iter().all(|&t| t == chunk[0]));
        }
    }

    #[test]
    fn diurnal_arrivals_concentrate_at_the_peak() {
        let period = 1000.0;
        let cfg = ArrivalConfig {
            mean_interarrival: 0.2,
            mean_service: 1.0,
            seed: 11,
        };
        let times = sample_arrivals(
            &cfg,
            &ArrivalProcess::Diurnal {
                period,
                amplitude: 0.9,
            },
            period,
        );
        // sin is positive over the first half-period and negative over
        // the second: the first half must see strictly more traffic.
        let first_half = times.iter().filter(|&&t| t < period / 2.0).count();
        let second_half = times.len() - first_half;
        assert!(
            first_half as f64 > 1.5 * second_half as f64,
            "{first_half} vs {second_half}"
        );
    }

    #[test]
    fn impossible_tasks_fail_cleanly() {
        let out = run_poisson(
            &tasks(3),
            4,
            1_000, // far below any task's needs
            &sfc_strategy(),
            &ArrivalConfig::default(),
        );
        assert_eq!(out.placements.len(), 0);
        assert_eq!(out.failed.len(), 3);
    }
}
