//! Long-horizon multi-tenant serving simulator over the manycore fleet.
//!
//! Models the paper's "datacenter substrate" end to end: every tenant
//! serves one Table I model and emits a sustained request stream
//! (Poisson, bursty or diurnal, composed from
//! [`mapper::ArrivalConfig`]); a deterministic round-robin load
//! balancer spreads the merged stream over a fleet of `N` identical
//! chips; each chip runs dynamic batching with a max-delay window and a
//! bounded admission queue. One event loop simulates the whole fleet on
//! the bucketed [`netsim::CalendarQueue`]:
//! [`simulate_resilient_serving`] replays a [`FaultPlan`] of chip
//! outages and throttling with retries, failover and shedding, and
//! [`simulate_serving`] is the same loop on a healthy fleet. Each chip
//! keeps only its next arrival on the calendar, so the calendar holds
//! O(fleet) events and horizons of millions of events stay cheap.
//!
//! # Determinism contract
//!
//! The outcome is bit-identical for any worker-thread count: each load
//! point's request stream is generated once, single-threaded, from
//! seeded ChaCha8 processes; load points then simulate independently,
//! each on its own calendar, and results are kept in `spec.loads`
//! order. Within a load point events pop in `(time, key)` order and
//! every key is unique; one chip's arrivals are already in that order,
//! so feeding them one at a time pops them exactly as queuing them all
//! up front would. Changing `threads` can only change wall-clock time.

use std::collections::VecDeque;
use std::fmt;

use mapper::{sample_arrivals, ArrivalConfig, ArrivalProcess};
use netsim::CalendarQueue;
use serde::Serialize;

use crate::faults::{FaultPlan, FaultSpec, RetryPolicy};
use crate::sweep::parallel_map;

/// Typed serving-scenario block of a [`crate::Scenario`]: arrival mix,
/// horizon, SLO target, fleet size and batching window as structured
/// data instead of ad-hoc `--set` strings.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServingSpec {
    /// Chips in the fleet behind the load balancer (≥ 1).
    pub fleet: usize,
    /// Simulated horizon in milliseconds; requests arrive in
    /// `[0, horizon_ms)` and in-flight batches drain past it.
    pub horizon_ms: f64,
    /// Dynamic-batching max-delay window in microseconds: an idle chip
    /// waits at most this long after the head request before launching
    /// a partial batch.
    pub batch_window_us: f64,
    /// Maximum requests per batch (≥ 1).
    pub max_batch: usize,
    /// Bounded admission-queue depth per chip; arrivals beyond it are
    /// rejected and count against SLO attainment.
    pub queue_depth: usize,
    /// End-to-end latency SLO in milliseconds.
    pub slo_ms: f64,
    /// Offered-load multipliers to sweep; each scales every tenant's
    /// request rate.
    pub loads: Vec<f64>,
    /// The tenant mix sharing the fleet.
    pub tenants: Vec<TenantSpec>,
}

/// One tenant of a [`ServingSpec`]: a Table I model plus its arrival
/// process.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantSpec {
    /// Table I workload id of the served model (`"M1"` .. `"M13"`).
    pub model: String,
    /// Mean request rate in requests/second at load multiplier 1.0.
    pub rate_rps: f64,
    /// Arrival-process shape (same mean rate for every variant).
    pub process: ArrivalProcess,
}

impl Default for ServingSpec {
    /// The short deterministic reference configuration pinned by the
    /// `serving` golden: a 2-chip fleet, three tenants with distinct
    /// process shapes, and two offered-load points straddling
    /// saturation.
    fn default() -> Self {
        ServingSpec {
            fleet: 2,
            horizon_ms: 60.0,
            batch_window_us: 150.0,
            max_batch: 4,
            queue_depth: 8,
            slo_ms: 8.0,
            loads: vec![0.6, 1.4],
            tenants: vec![
                TenantSpec {
                    model: "M1".to_string(),
                    rate_rps: 480.0,
                    process: ArrivalProcess::Poisson,
                },
                TenantSpec {
                    model: "M9".to_string(),
                    rate_rps: 960.0,
                    process: ArrivalProcess::Bursty { burst: 4 },
                },
                TenantSpec {
                    model: "M13".to_string(),
                    rate_rps: 320.0,
                    process: ArrivalProcess::Diurnal {
                        period: 20.0 * 1e6, // 20 ms in ns
                        amplitude: 0.8,
                    },
                },
            ],
        }
    }
}

impl ServingSpec {
    /// Checks the spec for structural validity: positive horizon/SLO,
    /// non-empty load and tenant sets, sane batching bounds, and tenant
    /// models that exist in Table I.
    ///
    /// # Errors
    ///
    /// The first violated constraint as a typed [`ServingError`]
    /// (wrapped in `ScenarioError::Serving` by `Scenario::resolve`).
    pub fn validate(&self) -> Result<(), ServingError> {
        if self.fleet == 0 {
            return Err(ServingError::ZeroField("fleet"));
        }
        if self.fleet > MAX_FLEET {
            return Err(ServingError::FleetTooLarge(self.fleet));
        }
        if self.horizon_ms <= 0.0 || self.horizon_ms.is_nan() {
            return Err(ServingError::NonPositive {
                field: "horizon_ms",
                value: self.horizon_ms,
            });
        }
        if self.batch_window_us < 0.0 || self.batch_window_us.is_nan() {
            return Err(ServingError::NegativeWindow(self.batch_window_us));
        }
        if self.max_batch == 0 {
            return Err(ServingError::ZeroField("max_batch"));
        }
        if self.queue_depth == 0 {
            return Err(ServingError::ZeroField("queue_depth"));
        }
        if self.slo_ms <= 0.0 || self.slo_ms.is_nan() {
            return Err(ServingError::NonPositive {
                field: "slo_ms",
                value: self.slo_ms,
            });
        }
        if self.loads.is_empty() {
            return Err(ServingError::EmptyLoads);
        }
        if let Some(&bad) = self.loads.iter().find(|&&l| l <= 0.0 || l.is_nan()) {
            return Err(ServingError::NonPositive {
                field: "load multiplier",
                value: bad,
            });
        }
        if self.tenants.is_empty() {
            return Err(ServingError::EmptyTenants);
        }
        for t in &self.tenants {
            if dnn::table1_entry(&t.model).is_none() {
                return Err(ServingError::UnknownModel(t.model.clone()));
            }
            if t.rate_rps <= 0.0 || t.rate_rps.is_nan() {
                return Err(ServingError::NonPositiveRate {
                    model: t.model.clone(),
                    value: t.rate_rps,
                });
            }
        }
        Ok(())
    }

    /// Total offered request rate at load multiplier `load`, req/s.
    pub fn offered_rps(&self, load: f64) -> f64 {
        self.tenants.iter().map(|t| t.rate_rps).sum::<f64>() * load
    }
}

/// Largest accepted [`ServingSpec::fleet`]: `fleet_key` packs the chip
/// index into 16 bits.
const MAX_FLEET: usize = 1 << 16;

/// Why a [`ServingSpec`] was rejected — the typed counterpart of
/// [`crate::ConfigError`]/[`crate::FaultError`] for the serving block.
#[derive(Clone, Debug, PartialEq)]
pub enum ServingError {
    /// A count field (`fleet`, `max_batch`, `queue_depth`) was zero.
    ZeroField(&'static str),
    /// `fleet` exceeded 65 536 chips, the most the fleet loop's event
    /// keys can address.
    FleetTooLarge(usize),
    /// A numeric field that must be finite and strictly positive was
    /// not (`horizon_ms`, `slo_ms`, a load multiplier).
    NonPositive {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `batch_window_us` must be finite and nonnegative.
    NegativeWindow(f64),
    /// `loads` named no offered-load point.
    EmptyLoads,
    /// `tenants` named no model stream.
    EmptyTenants,
    /// A tenant's model id is not a Table I workload.
    UnknownModel(String),
    /// A tenant's `rate_rps` was not finite and strictly positive.
    NonPositiveRate {
        /// The tenant's model id.
        model: String,
        /// Offending rate.
        value: f64,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::ZeroField(field) => write!(f, "{field} must be at least 1"),
            ServingError::FleetTooLarge(n) => {
                write!(f, "fleet must be at most {MAX_FLEET} chips, got {n}")
            }
            ServingError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ServingError::NegativeWindow(v) => {
                write!(f, "batch_window_us must be nonnegative, got {v}")
            }
            ServingError::EmptyLoads => {
                write!(f, "loads must name at least one offered-load point")
            }
            ServingError::EmptyTenants => {
                write!(f, "tenants must name at least one model stream")
            }
            ServingError::UnknownModel(m) => {
                write!(f, "tenant model `{m}` is not a Table I workload (M1..M13)")
            }
            ServingError::NonPositiveRate { model, value } => {
                write!(f, "tenant `{model}` rate_rps must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// Serving statistics of one offered-load point, aggregated over the
/// whole fleet.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LoadPointOutcome {
    /// The load multiplier of this point.
    pub load: f64,
    /// Offered aggregate request rate, req/s.
    pub offered_rps: f64,
    /// Requests generated over the horizon.
    pub offered: u64,
    /// Requests completed (admitted, possibly after retries, and served).
    pub completed: u64,
    /// Requests turned away by a full admission queue (at first arrival,
    /// or when a failed chip's queue failed over into full survivors).
    pub rejected: u64,
    /// Requests dropped after exhausting retries or their deadline.
    pub timed_out: u64,
    /// Retry dispatches (a request lost twice retries twice).
    pub retries: u64,
    /// Requests steered away from their home chip (down at arrival, or
    /// drained from a failing chip's queue).
    pub failovers: u64,
    /// Rejections attributable to degraded-mode shedding: the request
    /// would have fit the healthy queue depth.
    pub shed: u64,
    /// Median end-to-end latency (from original arrival), ns (nearest
    /// rank).
    pub p50_ns: u64,
    /// 95th-percentile end-to-end latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: u64,
    /// Fraction of *offered* requests served within the SLO (rejections
    /// and timeouts count as misses).
    pub slo_attainment: f64,
    /// Mean requests per launched batch.
    pub mean_batch: f64,
    /// Per-chip busy fraction per horizon slice:
    /// `chip_util[chip][slice]`. A batch counts from its start for its
    /// whole service time, even when a chip failure loses it.
    pub chip_util: Vec<Vec<f64>>,
    /// Every completed request's latency, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// Calendar-queue events processed across the fleet (including
    /// fault events).
    pub events: u64,
}

/// Outcome of a whole serving sweep (one [`LoadPointOutcome`] per
/// offered-load point, in spec order).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServingOutcome {
    /// Per-load-point statistics, in `spec.loads` order.
    pub per_load: Vec<LoadPointOutcome>,
    /// Total calendar-queue events processed.
    pub events: u64,
    /// Total requests generated.
    pub requests: u64,
}

/// Per-load-point outcome of [`simulate_resilient_serving`]: the same
/// type as a healthy sweep's.
pub type ResiliencePointOutcome = LoadPointOutcome;

/// Outcome of [`simulate_resilient_serving`]: the same type as a
/// healthy sweep's.
pub type ResilienceOutcome = ServingOutcome;

/// Number of horizon slices in the per-chip utilization timeline.
pub const UTIL_SLICES: usize = 4;

/// Fraction of a batch's service time that is fixed (weight staging);
/// the rest scales linearly with batch size, so batching amortizes the
/// fixed part.
const BATCH_FIXED_FRACTION: f64 = 0.5;

/// Service time of a `k`-request batch of a model whose single-request
/// latency is `base_ns`.
fn batch_latency_ns(base_ns: u64, k: usize) -> u64 {
    let lat = base_ns as f64 * (BATCH_FIXED_FRACTION + (1.0 - BATCH_FIXED_FRACTION) * k as f64);
    lat.round() as u64
}

/// One request of the generated stream.
#[derive(Copy, Clone, Debug)]
struct Request {
    /// Tenant index into `spec.tenants`.
    tenant: u32,
    /// Arrival time, ns.
    arrival_ns: u64,
}

/// Generates the merged multi-tenant request stream for one load point,
/// sorted by `(arrival, tenant, intra-tenant order)`.
fn generate_stream(spec: &ServingSpec, load: f64, seed: u64) -> Vec<Request> {
    let horizon_ns = spec.horizon_ms * 1e6;
    let mut stream: Vec<Request> = Vec::new();
    for (ti, tenant) in spec.tenants.iter().enumerate() {
        let cfg = ArrivalConfig {
            mean_interarrival: 1e9 / (tenant.rate_rps * load),
            mean_service: 1.0, // unused: service comes from the cost model
            seed: seed
                ^ (ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ load.to_bits().rotate_left(17),
        };
        for t in sample_arrivals(&cfg, &tenant.process, horizon_ns) {
            stream.push(Request {
                tenant: topology::narrow::u32_idx(ti),
                arrival_ns: t as u64,
            });
        }
    }
    // Stable sort: ties keep tenant-major generation order, so the
    // merged stream (and the round-robin chip assignment derived from
    // it) is fully deterministic.
    stream.sort_by_key(|r| r.arrival_ns);
    stream
}

/// Runs the serving sweep on a healthy fleet: for every offered-load
/// point, generates the multi-tenant stream, spreads it round-robin
/// over the fleet, and simulates the load points across `threads`
/// workers. This is [`simulate_resilient_serving`] under
/// [`ResilienceParams::healthy`], so every fault counter of the outcome
/// is zero.
///
/// `service_ns` is the per-tenant single-request service latency
/// (indexed like `spec.tenants`), typically derived from the PIM
/// compute-cost model. Results are bit-identical for any `threads`.
///
/// # Panics
///
/// Panics when `service_ns.len() != spec.tenants.len()` or when a
/// service latency is zero (the spec should be validated first).
pub fn simulate_serving(
    spec: &ServingSpec,
    service_ns: &[u64],
    seed: u64,
    threads: usize,
) -> ServingOutcome {
    simulate_resilient_serving(
        spec,
        &ResilienceParams::healthy(),
        service_ns,
        seed,
        threads,
    )
}

/// Nearest-rank percentile on an ascending-sorted slice.
fn percentile_nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

// ---------------------------------------------------------------------------
// The fleet loop, healthy or under a fault plan
// ---------------------------------------------------------------------------

/// How the fleet reacts to a [`FaultPlan`]: the retry/backoff/timeout
/// policy for lost requests, degraded-mode load shedding, the re-mapping
/// stall charged to survivors when a chip drops out, and the thermal
/// throttle slowdown.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceParams {
    /// The concrete fault timeline the fleet replays.
    pub plan: FaultPlan,
    /// Retry/backoff/timeout policy for requests lost to chip failures.
    pub retry: RetryPolicy,
    /// While any chip is down, each chip's admission queue depth shrinks
    /// by this fraction (`[0, 1)`) — degraded-mode load shedding.
    pub shed_fraction: f64,
    /// Stall charged to every surviving chip when a chip fails (the
    /// mapper re-packing the lost chip's work), ns.
    pub remap_penalty_ns: u64,
    /// Service-time multiplier for batches launched inside a thermal
    /// throttle window (≥ 1).
    pub throttle_slowdown: f64,
}

impl ResilienceParams {
    /// A healthy fleet: no faults, no shedding, no throttling. These are
    /// the parameters [`simulate_serving`] runs the fleet loop with.
    pub fn healthy() -> ResilienceParams {
        ResilienceParams {
            plan: FaultPlan::empty(),
            retry: RetryPolicy::default(),
            shed_fraction: 0.0,
            remap_penalty_ns: 0,
            throttle_slowdown: 1.0,
        }
    }

    /// Parameters from a [`FaultSpec`] plus the concrete plan it was
    /// expanded into and the mapper-derived re-mapping stall.
    pub fn from_spec(spec: &FaultSpec, plan: FaultPlan, remap_penalty_ns: u64) -> ResilienceParams {
        ResilienceParams {
            plan,
            retry: spec.retry.clone(),
            shed_fraction: spec.shed_fraction,
            remap_penalty_ns,
            throttle_slowdown: spec.throttle_slowdown,
        }
    }
}

/// Fleet event tags, ordered so that at one instant a chip first
/// retires its batch, repaired chips come back, windows close, new
/// arrivals and retries are admitted, and chip failures strike last —
/// the serving analogue of "departures before arrivals".
const FTAG_COMPLETION: u64 = 0;
const FTAG_CHIP_UP: u64 = 1;
const FTAG_WINDOW: u64 = 2;
const FTAG_ARRIVAL: u64 = 3;
const FTAG_RETRY: u64 = 4;
const FTAG_CHIP_DOWN: u64 = 5;

/// Fleet event key: tag (8 bits) | chip (16 bits) | id (40 bits). Ties
/// at one instant order by tag, then chip, then id.
///
/// # Panics
///
/// Panics if `id` does not fit its 40-bit field, instead of letting it
/// spill into the chip field.
fn fleet_key(tag: u64, chip: usize, id: u64) -> u64 {
    if id >> 40 != 0 {
        fleet_id_overflow(id);
    }
    (tag << 56) | ((chip as u64) << 40) | id
}

/// The failure path of [`fleet_key`], kept out of line so the hot key
/// packing stays a few instructions.
#[cold]
#[inline(never)]
fn fleet_id_overflow(id: u64) -> ! {
    panic!("fleet event id {id} exceeds the 40-bit key field")
}

/// Per-chip serving state inside the fleet loop.
#[derive(Clone, Debug, Default)]
struct ChipState {
    /// FIFO admission queue of global request indices.
    queue: VecDeque<u64>,
    /// The batch currently in service.
    in_flight: Vec<u64>,
    busy: bool,
    up: bool,
    /// Armed max-delay window generation (at most one pending).
    armed: Option<u64>,
    window_gen: u64,
    /// Completion generation: bumped when the chip fails, so an
    /// already-scheduled completion of a lost batch is recognized as
    /// stale and ignored.
    comp_gen: u64,
    /// Earliest instant the chip may launch again (re-mapping stall).
    blocked_until: u64,
    batches: u64,
    batched_requests: u64,
    /// Busy nanoseconds per horizon slice (clipped to the horizon).
    busy_ns: [u64; UTIL_SLICES],
}

/// One load point's fleet simulation: every chip shares one calendar so
/// chip failures, repairs, retries and failovers interleave in a single
/// deterministic order.
struct FleetSim<'a> {
    spec: &'a ServingSpec,
    params: &'a ResilienceParams,
    service_ns: &'a [u64],
    requests: &'a [Request],
    window_ns: u64,
    /// Horizon the utilization slices cover, ns.
    horizon_ns: u64,
    /// Width of one utilization slice, ns.
    slice_ns: u64,
    chips: Vec<ChipState>,
    /// Per-chip thermal throttle windows, ascending and disjoint.
    throttles: Vec<Vec<(u64, u64)>>,
    /// Chips currently down (degraded mode while > 0).
    down_count: usize,
    /// Retry attempts per request, indexed by global request id.
    attempts: Vec<u32>,
    latencies: Vec<u64>,
    rejected: u64,
    timed_out: u64,
    retries: u64,
    failovers: u64,
    shed: u64,
    event_count: u64,
}

impl FleetSim<'_> {
    /// Admission queue depth right now: the configured depth, shrunk by
    /// the shed fraction while any chip is down.
    fn effective_depth(&self) -> usize {
        if self.down_count == 0 {
            self.spec.queue_depth
        } else {
            let kept = (self.spec.queue_depth as f64) * (1.0 - self.params.shed_fraction);
            (kept.floor() as usize).max(1)
        }
    }

    /// The first up chip scanning round-robin from `home`, if any.
    fn route(&self, home: usize) -> Option<usize> {
        let fleet = self.chips.len();
        (0..fleet)
            .map(|k| (home + k) % fleet)
            .find(|&c| self.chips[c].up)
    }

    /// Whether a batch launched on `chip` at `t` falls in a throttle
    /// window.
    fn throttled(&self, chip: usize, t: u64) -> bool {
        let w = &self.throttles[chip];
        let i = w.partition_point(|&(s, _)| s <= t);
        i > 0 && t < w[i - 1].1
    }

    /// Launches a batch from `chip`'s queue head: up to `max_batch`
    /// queued requests of the head request's tenant, FIFO. The batch
    /// starts after any re-mapping stall and runs slower inside a
    /// throttle window.
    fn launch(&mut self, events: &mut CalendarQueue, chip: usize, now: u64) {
        let throttle = self.throttled(chip, now.max(self.chips[chip].blocked_until));
        let st = &mut self.chips[chip];
        let head_tenant = self.requests[st.queue[0] as usize].tenant;
        debug_assert!(st.in_flight.is_empty());
        let mut kept = VecDeque::with_capacity(st.queue.len());
        for idx in st.queue.drain(..) {
            if st.in_flight.len() < self.spec.max_batch
                && self.requests[idx as usize].tenant == head_tenant
            {
                st.in_flight.push(idx);
            } else {
                kept.push_back(idx);
            }
        }
        st.queue = kept;
        st.armed = None;
        let start = now.max(st.blocked_until);
        let mut dur = batch_latency_ns(self.service_ns[head_tenant as usize], st.in_flight.len());
        if throttle {
            dur = ((dur as f64) * self.params.throttle_slowdown).round() as u64;
        }
        st.batches += 1;
        st.batched_requests += st.in_flight.len() as u64;
        // Accrue the busy interval [start, start + dur) into the horizon
        // slices (clipped; drain past the horizon is not utilization).
        let done = start.saturating_add(dur);
        let (mut t, end) = (start.min(self.horizon_ns), done.min(self.horizon_ns));
        while t < end {
            let slice = (t / self.slice_ns) as usize;
            let slice_end = ((slice as u64 + 1) * self.slice_ns).min(end);
            st.busy_ns[slice.min(UTIL_SLICES - 1)] += slice_end - t;
            t = slice_end;
        }
        events.push(done, fleet_key(FTAG_COMPLETION, chip, st.comp_gen));
    }

    /// Admits request `idx` to `target`'s queue, launching a batch once
    /// `max_batch` requests wait (or at once with a zero window) and
    /// otherwise arming the batching window. `false` when the queue is
    /// full at the current effective depth.
    fn admit(&mut self, events: &mut CalendarQueue, target: usize, idx: u64, now: u64) -> bool {
        if self.chips[target].queue.len() >= self.effective_depth() {
            return false;
        }
        self.chips[target].queue.push_back(idx);
        if !self.chips[target].busy {
            if self.chips[target].queue.len() >= self.spec.max_batch || self.window_ns == 0 {
                self.chips[target].busy = true;
                self.launch(events, target, now);
            } else if self.chips[target].armed.is_none() {
                let st = &mut self.chips[target];
                st.window_gen += 1;
                st.armed = Some(st.window_gen);
                events.push(
                    now.saturating_add(self.window_ns),
                    fleet_key(FTAG_WINDOW, target, st.window_gen),
                );
            }
        }
        true
    }

    /// A rejection at admission; attributes it to degraded-mode
    /// shedding when the request would have fit the healthy depth.
    fn reject(&mut self, target: usize) {
        self.rejected += 1;
        if self.down_count > 0 && self.chips[target].queue.len() < self.spec.queue_depth {
            self.shed += 1;
        }
    }

    /// Request `idx` was lost (its chip failed, or no chip could take
    /// it): schedule a bounded-backoff retry, or drop it as timed out
    /// when retries or the deadline are exhausted. Instants past
    /// `u64::MAX` ns saturate, so a deadline that far out never passes.
    fn retry_or_timeout(&mut self, events: &mut CalendarQueue, idx: u64, now: u64) {
        let attempts = &mut self.attempts[idx as usize];
        *attempts += 1;
        let deadline = self.requests[idx as usize]
            .arrival_ns
            .saturating_add(self.params.retry.timeout_ns());
        if *attempts > self.params.retry.max_retries {
            self.timed_out += 1;
            return;
        }
        let at = now.saturating_add(self.params.retry.backoff_ns(*attempts));
        if at > deadline {
            self.timed_out += 1;
            return;
        }
        self.retries += 1;
        let home = (idx as usize) % self.chips.len();
        events.push(at, fleet_key(FTAG_RETRY, home, idx));
    }

    /// Drains the calendar to completion.
    fn run(&mut self, events: &mut CalendarQueue) {
        while let Some((now, key)) = events.pop() {
            self.event_count += 1;
            let tag = key >> 56;
            let chip = ((key >> 40) & 0xFFFF) as usize;
            let id = key & 0xFF_FFFF_FFFF;
            match tag {
                FTAG_COMPLETION => {
                    let st = &mut self.chips[chip];
                    if !st.up || id != st.comp_gen {
                        continue; // the chip failed after this batch launched
                    }
                    st.busy = false;
                    for idx in st.in_flight.drain(..) {
                        self.latencies
                            .push(now - self.requests[idx as usize].arrival_ns);
                    }
                    if !st.queue.is_empty() {
                        st.busy = true;
                        self.launch(events, chip, now);
                    }
                }
                FTAG_CHIP_UP => {
                    if !self.chips[chip].up {
                        self.chips[chip].up = true;
                        self.down_count -= 1;
                    }
                }
                FTAG_WINDOW => {
                    if self.chips[chip].armed == Some(id) {
                        self.chips[chip].armed = None;
                        if !self.chips[chip].busy && !self.chips[chip].queue.is_empty() {
                            self.chips[chip].busy = true;
                            self.launch(events, chip, now);
                        }
                    }
                }
                FTAG_ARRIVAL => {
                    // Each chip keeps only its next arrival on the
                    // calendar: feed the request after this one.
                    let next = id as usize + self.chips.len();
                    if let Some(r) = self.requests.get(next) {
                        events.push(r.arrival_ns, fleet_key(FTAG_ARRIVAL, chip, next as u64));
                    }
                    match self.route(chip) {
                        None => self.retry_or_timeout(events, id, now),
                        Some(t) => {
                            if t != chip {
                                self.failovers += 1;
                            }
                            if !self.admit(events, t, id, now) {
                                self.reject(t);
                            }
                        }
                    }
                }
                FTAG_RETRY => {
                    let home = (id as usize) % self.chips.len();
                    match self.route(home) {
                        // Nowhere to land (fleet down or target full):
                        // back off again rather than reject an already
                        // admitted-once request.
                        None => self.retry_or_timeout(events, id, now),
                        Some(t) => {
                            if !self.admit(events, t, id, now) {
                                self.retry_or_timeout(events, id, now);
                            }
                        }
                    }
                }
                FTAG_CHIP_DOWN => {
                    if !self.chips[chip].up {
                        continue;
                    }
                    self.down_count += 1;
                    let st = &mut self.chips[chip];
                    st.up = false;
                    st.busy = false;
                    st.armed = None;
                    st.comp_gen += 1;
                    let lost: Vec<u64> = st.in_flight.drain(..).collect();
                    let orphans: Vec<u64> = st.queue.drain(..).collect();
                    // In-flight work on the dead chip is lost: clients
                    // retry with backoff against their deadline.
                    for idx in lost {
                        self.retry_or_timeout(events, idx, now);
                    }
                    // Queued-but-unserved requests fail over to the
                    // surviving chips in FIFO order.
                    for idx in orphans {
                        match self.route((idx as usize) % self.chips.len()) {
                            None => self.retry_or_timeout(events, idx, now),
                            Some(t) => {
                                self.failovers += 1;
                                if !self.admit(events, t, idx, now) {
                                    self.reject(t);
                                }
                            }
                        }
                    }
                    // Survivors stall while the mapper re-packs the lost
                    // chip's share of the workload.
                    if self.params.remap_penalty_ns > 0 {
                        for c in 0..self.chips.len() {
                            if c != chip && self.chips[c].up {
                                let s = &mut self.chips[c];
                                s.blocked_until =
                                    s.blocked_until.max(now + self.params.remap_penalty_ns);
                            }
                        }
                    }
                }
                _ => unreachable!("unknown fleet event tag {tag}"),
            }
        }
    }
}

/// Runs the serving sweep under a fault plan: for every offered-load
/// point the whole fleet shares one calendar, so chip failures and
/// repairs, bounded-backoff retries, failovers, degraded-mode shedding
/// and re-mapping stalls replay in one deterministic order. Load points
/// are the parallel unit: each simulates on its own calendar, spread
/// over `threads` workers, and results are bit-identical for any
/// `threads`.
///
/// With [`ResilienceParams::healthy`] this is [`simulate_serving`].
///
/// Request accounting is conservative by construction and asserted in
/// every build: `offered == completed + rejected + timed_out` at every
/// load point.
///
/// # Panics
///
/// Panics when `service_ns.len() != spec.tenants.len()` or when a
/// service latency is zero (the spec should be validated first), and
/// when a load point breaks request conservation.
pub fn simulate_resilient_serving(
    spec: &ServingSpec,
    params: &ResilienceParams,
    service_ns: &[u64],
    seed: u64,
    threads: usize,
) -> ServingOutcome {
    assert_eq!(service_ns.len(), spec.tenants.len());
    assert!(
        service_ns.iter().all(|&s| s > 0),
        "service latencies must be positive"
    );
    let window_ns = (spec.batch_window_us * 1e3).round() as u64;
    let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;
    let slice_ns = horizon_ns.div_ceil(UTIL_SLICES as u64).max(1);
    let slo_ns = (spec.slo_ms * 1e6) as u64;

    // Streams are generated once, single-threaded; load points then
    // simulate independently.
    let streams: Vec<(f64, Vec<Request>)> = spec
        .loads
        .iter()
        .map(|&load| (load, generate_stream(spec, load, seed)))
        .collect();

    let per_load = parallel_map(&streams, threads, |(load, requests)| {
        let mut throttles = vec![Vec::new(); spec.fleet];
        if params.throttle_slowdown > 1.0 {
            for w in &params.plan.throttles {
                if (w.chip as usize) < spec.fleet {
                    throttles[w.chip as usize].push((w.start_ns, w.end_ns));
                }
            }
        }
        let mut events = CalendarQueue::new(1024);
        // Request `i` is routed to chip `i % fleet`; the arrival handler
        // feeds each chip's following requests.
        for (i, r) in requests.iter().enumerate().take(spec.fleet) {
            events.push(r.arrival_ns, fleet_key(FTAG_ARRIVAL, i, i as u64));
        }
        for (k, cf) in params.plan.chip_faults.iter().enumerate() {
            if (cf.chip as usize) < spec.fleet {
                events.push(
                    cf.down_ns,
                    fleet_key(FTAG_CHIP_DOWN, cf.chip as usize, k as u64),
                );
                events.push(
                    cf.up_ns,
                    fleet_key(FTAG_CHIP_UP, cf.chip as usize, k as u64),
                );
            }
        }
        let up = ChipState {
            up: true,
            ..ChipState::default()
        };
        let mut sim = FleetSim {
            spec,
            params,
            service_ns,
            requests,
            window_ns,
            horizon_ns,
            slice_ns,
            chips: vec![up; spec.fleet],
            throttles,
            down_count: 0,
            attempts: vec![0; requests.len()],
            latencies: Vec::new(),
            rejected: 0,
            timed_out: 0,
            retries: 0,
            failovers: 0,
            shed: 0,
            event_count: 0,
        };
        sim.run(&mut events);

        let offered = requests.len() as u64;
        assert_eq!(
            offered,
            sim.latencies.len() as u64 + sim.rejected + sim.timed_out,
            "request conservation at load {load}: offered = completed + rejected + timed out"
        );
        sim.latencies.sort_unstable();
        let attained = sim.latencies.partition_point(|&l| l <= slo_ns) as u64;
        let batches: u64 = sim.chips.iter().map(|c| c.batches).sum();
        let batched: u64 = sim.chips.iter().map(|c| c.batched_requests).sum();
        let chip_util = sim
            .chips
            .iter()
            .map(|c| {
                c.busy_ns
                    .iter()
                    .map(|&b| b as f64 / slice_ns as f64)
                    .collect()
            })
            .collect();
        LoadPointOutcome {
            load: *load,
            offered_rps: spec.offered_rps(*load),
            offered,
            completed: sim.latencies.len() as u64,
            rejected: sim.rejected,
            timed_out: sim.timed_out,
            retries: sim.retries,
            failovers: sim.failovers,
            shed: sim.shed,
            p50_ns: percentile_nearest_rank(&sim.latencies, 50),
            p95_ns: percentile_nearest_rank(&sim.latencies, 95),
            p99_ns: percentile_nearest_rank(&sim.latencies, 99),
            slo_attainment: if offered == 0 {
                1.0
            } else {
                attained as f64 / offered as f64
            },
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            chip_util,
            latencies_ns: sim.latencies,
            events: sim.event_count,
        }
    });

    ServingOutcome {
        requests: per_load.iter().map(|l| l.offered).sum(),
        events: per_load.iter().map(|l| l.events).sum(),
        per_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> ServingSpec {
        ServingSpec::default()
    }

    #[test]
    fn fleet_key_packs_the_largest_id() {
        let id = (1 << 40) - 1;
        let key = fleet_key(FTAG_CHIP_DOWN, MAX_FLEET - 1, id);
        assert_eq!(key >> 56, FTAG_CHIP_DOWN);
        assert_eq!((key >> 40) & 0xFFFF, (MAX_FLEET - 1) as u64);
        assert_eq!(key & id, id);
        // The id field never carries into the chip field.
        assert!(key < fleet_key(FTAG_CHIP_DOWN + 1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds the 40-bit key field")]
    fn fleet_key_rejects_an_id_past_40_bits() {
        fleet_key(FTAG_ARRIVAL, 0, 1 << 40);
    }

    fn service() -> Vec<u64> {
        // Distinct, plausible single-request latencies (ns).
        vec![400_000, 250_000, 150_000]
    }

    #[test]
    fn default_spec_validates() {
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn zero_fleet_is_rejected() {
        let mut s = spec();
        s.fleet = 0;
        assert_eq!(s.validate(), Err(ServingError::ZeroField("fleet")));
    }

    #[test]
    fn largest_fleet_is_accepted() {
        let mut s = spec();
        s.fleet = 65_536;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn oversized_fleet_is_rejected() {
        let mut s = spec();
        s.fleet = 65_537;
        assert_eq!(s.validate(), Err(ServingError::FleetTooLarge(65_537)));
        assert!(ServingError::FleetTooLarge(65_537)
            .to_string()
            .contains("65537"));
    }

    #[test]
    fn nonpositive_horizon_is_rejected() {
        let mut s = spec();
        s.horizon_ms = 0.0;
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositive {
                field: "horizon_ms",
                value: 0.0
            })
        );
    }

    #[test]
    fn negative_batch_window_is_rejected() {
        let mut s = spec();
        s.batch_window_us = -3.0;
        assert_eq!(s.validate(), Err(ServingError::NegativeWindow(-3.0)));
    }

    #[test]
    fn zero_max_batch_is_rejected() {
        let mut s = spec();
        s.max_batch = 0;
        assert_eq!(s.validate(), Err(ServingError::ZeroField("max_batch")));
    }

    #[test]
    fn zero_queue_depth_is_rejected() {
        let mut s = spec();
        s.queue_depth = 0;
        assert_eq!(s.validate(), Err(ServingError::ZeroField("queue_depth")));
    }

    #[test]
    fn nonpositive_slo_is_rejected() {
        let mut s = spec();
        s.slo_ms = -1.0;
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositive {
                field: "slo_ms",
                value: -1.0
            })
        );
    }

    #[test]
    fn empty_loads_are_rejected() {
        let mut s = spec();
        s.loads.clear();
        assert_eq!(s.validate(), Err(ServingError::EmptyLoads));
    }

    #[test]
    fn nonpositive_load_multiplier_is_rejected() {
        let mut s = spec();
        s.loads = vec![1.0, 0.0];
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositive {
                field: "load multiplier",
                value: 0.0
            })
        );
    }

    #[test]
    fn empty_tenant_mix_is_rejected() {
        let mut s = spec();
        s.tenants.clear();
        assert_eq!(s.validate(), Err(ServingError::EmptyTenants));
    }

    #[test]
    fn unknown_tenant_model_is_rejected() {
        let mut s = spec();
        s.tenants[1].model = "M99".into();
        assert_eq!(
            s.validate(),
            Err(ServingError::UnknownModel("M99".to_string()))
        );
        // The message still names the model for the CLI surface.
        assert!(ServingError::UnknownModel("M99".to_string())
            .to_string()
            .contains("M99"));
    }

    #[test]
    fn nonpositive_tenant_rate_is_rejected() {
        let mut s = spec();
        s.tenants[0].rate_rps = 0.0;
        assert_eq!(
            s.validate(),
            Err(ServingError::NonPositiveRate {
                model: "M1".to_string(),
                value: 0.0
            })
        );
    }

    #[test]
    fn serving_is_deterministic_across_thread_counts() {
        let s = spec();
        let svc = service();
        let one = simulate_serving(&s, &svc, 7, 1);
        let four = simulate_serving(&s, &svc, 7, 4);
        let eight = simulate_serving(&s, &svc, 7, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn conservation_and_ordering_hold() {
        let out = simulate_serving(&spec(), &service(), 3, 2);
        assert_eq!(out.per_load.len(), 2);
        for lp in &out.per_load {
            assert_eq!(lp.completed + lp.rejected, lp.offered);
            assert!(lp.p50_ns <= lp.p95_ns && lp.p95_ns <= lp.p99_ns);
            assert!((0.0..=1.0).contains(&lp.slo_attainment));
            assert!(lp.mean_batch >= 1.0);
            assert_eq!(lp.chip_util.len(), 2);
            for chip in &lp.chip_util {
                assert_eq!(chip.len(), UTIL_SLICES);
                assert!(chip.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
            }
            assert!(lp.events >= lp.offered);
        }
        assert_eq!(out.requests, out.per_load.iter().map(|l| l.offered).sum());
    }

    #[test]
    fn heavier_load_degrades_service() {
        // Service times on the order of the real Table I model latencies,
        // so queueing (not the batch window) dominates the tail. With the
        // test's sub-ms services, heavier load can legitimately *improve*
        // p99: full batches launch early and skip the max-delay window.
        let service = vec![2_400_000, 550_000, 2_000_000];
        let out = simulate_serving(&spec(), &service, 3, 2);
        let (light, heavy) = (&out.per_load[0], &out.per_load[1]);
        assert!(heavy.offered > light.offered);
        // Heavier load must hurt somewhere: either the tail grows, or the
        // bounded queue starts turning requests away (rejected requests
        // never enter the latency distribution, so admission control can
        // truncate the completed-request tail).
        assert!(
            heavy.p99_ns >= light.p99_ns || heavy.rejected > light.rejected,
            "p99 {} vs {}, rejected {} vs {}",
            heavy.p99_ns,
            light.p99_ns,
            heavy.rejected,
            light.rejected
        );
        assert!(heavy.slo_attainment <= light.slo_attainment);
        // Utilization rises with load on every chip.
        let mean = |lp: &LoadPointOutcome| {
            lp.chip_util.iter().flat_map(|c| c.iter()).sum::<f64>()
                / (lp.chip_util.len() * UTIL_SLICES) as f64
        };
        assert!(mean(heavy) > mean(light));
    }

    #[test]
    fn zero_window_launches_immediately() {
        let mut s = spec();
        s.batch_window_us = 0.0;
        s.loads = vec![0.2]; // light load: no queue pressure
        let out = simulate_serving(&s, &service(), 5, 1);
        let lp = &out.per_load[0];
        // Every batch launches on arrival: latency of an uncontended
        // request is exactly its batch-of-1 service time.
        assert!(lp.mean_batch >= 1.0 && lp.mean_batch < 2.0);
        assert!(lp.rejected == 0);
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let mut s = spec();
        s.queue_depth = 2;
        s.loads = vec![6.0];
        let out = simulate_serving(&s, &service(), 5, 2);
        assert!(out.per_load[0].rejected > 0);
        assert!(out.per_load[0].slo_attainment < 1.0);
    }

    #[test]
    fn batch_latency_amortizes_the_fixed_part() {
        let base = 1_000_000;
        assert_eq!(batch_latency_ns(base, 1), base);
        let four = batch_latency_ns(base, 4);
        assert!(four < 4 * base, "batching must amortize: {four}");
        assert!(four > base);
    }

    #[test]
    fn one_chip_without_batching_is_an_md1_queue() {
        // One Poisson tenant on one chip, batches of one launched on
        // arrival: an M/D/1 queue with service D and utilization ρ = λD.
        // Its mean sojourn time is D·(1 + ρ/(2(1−ρ))) (Pollaczek–Khinchine)
        // and the chip is busy a fraction ρ of the time. Past ρ ≈ 0.7 the
        // 100 s sample mean wanders by several percent.
        const D_NS: u64 = 1_000_000;
        let s = ServingSpec {
            fleet: 1,
            horizon_ms: 100_000.0,
            batch_window_us: 0.0,
            max_batch: 1,
            queue_depth: 1 << 20,
            loads: vec![0.3, 0.5, 0.7],
            tenants: vec![TenantSpec {
                model: "M1".to_string(),
                rate_rps: 1e9 / D_NS as f64, // load multiplier = ρ
                process: ArrivalProcess::Poisson,
            }],
            ..spec()
        };
        for lp in simulate_serving(&s, &[D_NS], 0x5E41, 1).per_load {
            let rho = lp.load;
            assert_eq!(lp.rejected, 0, "ρ = {rho}");
            let mean_ns = lp.latencies_ns.iter().sum::<u64>() as f64 / lp.latencies_ns.len() as f64;
            let pk_ns = D_NS as f64 * (1.0 + rho / (2.0 * (1.0 - rho)));
            assert!(
                (mean_ns / pk_ns - 1.0).abs() < 0.03,
                "ρ = {rho}: mean latency {mean_ns:.0} ns, Pollaczek–Khinchine {pk_ns:.0} ns"
            );
            let util = lp.chip_util[0].iter().sum::<f64>() / lp.chip_util[0].len() as f64;
            assert!(
                (util / rho - 1.0).abs() < 0.02,
                "ρ = {rho}: chip utilization {util:.4}"
            );
        }
    }

    // -- the per-chip reference -------------------------------------------

    // The healthy per-chip loop the fleet loop replaced, kept as the
    // differential oracle of `healthy_fleet_loop_matches_the_per_chip_reference`:
    // each chip simulates its round-robin shard alone, with every arrival
    // queued up front.

    /// Event tags, ordered so that at one instant a chip first retires its
    /// batch, then closes an expired window, then admits new arrivals —
    /// the serving analogue of "departures before arrivals".
    const TAG_COMPLETION: u64 = 0;
    const TAG_WINDOW: u64 = 1;
    const TAG_ARRIVAL: u64 = 2;

    fn event_key(tag: u64, id: u64) -> u64 {
        (tag << 56) | (id & 0x00FF_FFFF_FFFF_FFFF)
    }

    /// Per-chip simulation result.
    #[derive(Clone, Debug)]
    struct ChipOutcome {
        /// Completed-request latencies, in completion order.
        latencies_ns: Vec<u64>,
        rejected: u64,
        batches: u64,
        batched_requests: u64,
        /// Busy nanoseconds per horizon slice (clipped to the horizon).
        busy_ns: [u64; UTIL_SLICES],
        events: u64,
    }

    fn simulate_chip_with(
        events: &mut CalendarQueue,
        requests: &[Request],
        spec: &ServingSpec,
        service_ns: &[u64],
        horizon_ns: u64,
    ) -> ChipOutcome {
        let window_ns = (spec.batch_window_us * 1e3).round() as u64;
        let mut out = ChipOutcome {
            latencies_ns: Vec::new(),
            rejected: 0,
            batches: 0,
            batched_requests: 0,
            busy_ns: [0; UTIL_SLICES],
            events: 0,
        };
        for (i, r) in requests.iter().enumerate() {
            events.push(r.arrival_ns, event_key(TAG_ARRIVAL, i as u64));
        }

        // FIFO admission queue of request indices (bounded by queue_depth).
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut busy = false;
        // The batch currently in service (request indices).
        let mut in_flight: Vec<u32> = Vec::new();
        // Armed max-delay window: `Some(gen)` matches at most one pending
        // window event; launching a batch invalidates it.
        let mut armed: Option<u64> = None;
        let mut window_gen = 0u64;
        let slice_ns = horizon_ns.div_ceil(UTIL_SLICES as u64).max(1);

        // Launches a batch from the queue head: up to `max_batch` queued
        // requests of the head request's tenant, FIFO.
        let launch = |now: u64,
                      queue: &mut std::collections::VecDeque<u32>,
                      in_flight: &mut Vec<u32>,
                      armed: &mut Option<u64>,
                      events: &mut CalendarQueue,
                      out: &mut ChipOutcome| {
            let head_tenant = requests[queue[0] as usize].tenant;
            debug_assert!(in_flight.is_empty());
            let mut kept = std::collections::VecDeque::with_capacity(queue.len());
            for idx in queue.drain(..) {
                if in_flight.len() < spec.max_batch && requests[idx as usize].tenant == head_tenant
                {
                    in_flight.push(idx);
                } else {
                    kept.push_back(idx);
                }
            }
            *queue = kept;
            *armed = None;
            let dur = batch_latency_ns(service_ns[head_tenant as usize], in_flight.len());
            out.batches += 1;
            out.batched_requests += in_flight.len() as u64;
            // Accrue the busy interval [now, now + dur) into the horizon
            // slices (clipped; drain past the horizon is not utilization).
            let (mut t, end) = (now.min(horizon_ns), (now + dur).min(horizon_ns));
            while t < end {
                let slice = (t / slice_ns) as usize;
                let slice_end = ((slice as u64 + 1) * slice_ns).min(end);
                out.busy_ns[slice.min(UTIL_SLICES - 1)] += slice_end - t;
                t = slice_end;
            }
            events.push(now + dur, event_key(TAG_COMPLETION, 0));
        };

        while let Some((now, key)) = events.pop() {
            out.events += 1;
            let (tag, id) = (key >> 56, key & 0x00FF_FFFF_FFFF_FFFF);
            match tag {
                TAG_COMPLETION => {
                    busy = false;
                    for idx in in_flight.drain(..) {
                        out.latencies_ns
                            .push(now - requests[idx as usize].arrival_ns);
                    }
                    if !queue.is_empty() {
                        // Backlogged: the head already waited at least one
                        // window; launch immediately (work-conserving).
                        busy = true;
                        launch(
                            now,
                            &mut queue,
                            &mut in_flight,
                            &mut armed,
                            events,
                            &mut out,
                        );
                    }
                }
                TAG_WINDOW => {
                    if armed == Some(id) {
                        armed = None;
                        if !busy && !queue.is_empty() {
                            busy = true;
                            launch(
                                now,
                                &mut queue,
                                &mut in_flight,
                                &mut armed,
                                events,
                                &mut out,
                            );
                        }
                    }
                }
                TAG_ARRIVAL => {
                    if queue.len() >= spec.queue_depth {
                        out.rejected += 1;
                        continue;
                    }
                    queue.push_back(u32::try_from(id).expect("request id fits a u32"));
                    if !busy {
                        if queue.len() >= spec.max_batch || window_ns == 0 {
                            busy = true;
                            launch(
                                now,
                                &mut queue,
                                &mut in_flight,
                                &mut armed,
                                events,
                                &mut out,
                            );
                        } else if armed.is_none() {
                            window_gen += 1;
                            armed = Some(window_gen);
                            events.push(now + window_ns, event_key(TAG_WINDOW, window_gen));
                        }
                    }
                }
                _ => unreachable!("unknown serving event tag {tag}"),
            }
        }
        out
    }

    /// The healthy per-chip reference: shards every load point's stream
    /// round-robin over the fleet, simulates every `(load, chip)` cell on
    /// a fresh calendar across `threads` workers, and merges the cells in
    /// `(load, chip)` order.
    fn reference_serving(
        spec: &ServingSpec,
        service_ns: &[u64],
        seed: u64,
        threads: usize,
    ) -> ServingOutcome {
        assert_eq!(service_ns.len(), spec.tenants.len());
        assert!(
            service_ns.iter().all(|&s| s > 0),
            "service latencies must be positive"
        );
        let horizon_ns = (spec.horizon_ms * 1e6).round() as u64;

        // Generate every load point's stream once, single-threaded, and
        // shard it round-robin in global arrival order.
        let mut cells: Vec<(usize, usize, Vec<Request>)> = Vec::new();
        let mut offered: Vec<u64> = Vec::new();
        for (li, &load) in spec.loads.iter().enumerate() {
            let stream = generate_stream(spec, load, seed);
            offered.push(stream.len() as u64);
            let mut per_chip: Vec<Vec<Request>> = vec![Vec::new(); spec.fleet];
            for (i, r) in stream.into_iter().enumerate() {
                per_chip[i % spec.fleet].push(r);
            }
            for (ci, reqs) in per_chip.into_iter().enumerate() {
                cells.push((li, ci, reqs));
            }
        }

        let chip_outcomes = parallel_map(&cells, threads, |(_, _, reqs)| {
            let mut events = CalendarQueue::new(1024);
            simulate_chip_with(&mut events, reqs, spec, service_ns, horizon_ns)
        });

        let slice_ns = horizon_ns.div_ceil(UTIL_SLICES as u64).max(1) as f64;
        let mut per_load = Vec::with_capacity(spec.loads.len());
        let mut total_events = 0u64;
        for (li, &load) in spec.loads.iter().enumerate() {
            let chips: Vec<&ChipOutcome> = cells
                .iter()
                .zip(&chip_outcomes)
                .filter(|((l, _, _), _)| *l == li)
                .map(|(_, o)| o)
                .collect();
            let mut latencies: Vec<u64> = chips
                .iter()
                .flat_map(|c| c.latencies_ns.iter().copied())
                .collect();
            latencies.sort_unstable();
            let rejected: u64 = chips.iter().map(|c| c.rejected).sum();
            let batches: u64 = chips.iter().map(|c| c.batches).sum();
            let batched: u64 = chips.iter().map(|c| c.batched_requests).sum();
            let events: u64 = chips.iter().map(|c| c.events).sum();
            total_events += events;
            let slo_ns = (spec.slo_ms * 1e6) as u64;
            let attained = latencies.partition_point(|&l| l <= slo_ns) as u64;
            let chip_util: Vec<Vec<f64>> = chips
                .iter()
                .map(|c| c.busy_ns.iter().map(|&b| b as f64 / slice_ns).collect())
                .collect();
            per_load.push(LoadPointOutcome {
                load,
                offered_rps: spec.offered_rps(load),
                offered: offered[li],
                completed: latencies.len() as u64,
                rejected,
                timed_out: 0,
                retries: 0,
                failovers: 0,
                shed: 0,
                p50_ns: percentile_nearest_rank(&latencies, 50),
                p95_ns: percentile_nearest_rank(&latencies, 95),
                p99_ns: percentile_nearest_rank(&latencies, 99),
                slo_attainment: if offered[li] == 0 {
                    1.0
                } else {
                    attained as f64 / offered[li] as f64
                },
                mean_batch: if batches == 0 {
                    0.0
                } else {
                    batched as f64 / batches as f64
                },
                chip_util,
                latencies_ns: latencies,
                events,
            });
        }
        ServingOutcome {
            requests: offered.iter().sum(),
            per_load,
            events: total_events,
        }
    }

    /// Batching windows the differential test draws from, µs.
    const WINDOWS_US: [f64; 3] = [0.0, 40.0, 150.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On a healthy fleet the fleet loop replays the per-chip
        /// reference exactly: the whole outcome, latencies, per-chip
        /// utilization and event counts included, with every fault
        /// counter zero, at any thread count.
        #[test]
        fn healthy_fleet_loop_matches_the_per_chip_reference(
            fleet in 1usize..=9,
            window in 0usize..3,
            max_batch in 1usize..=6,
            queue_depth in 1usize..=16,
            loads in prop::collection::vec(0.05f64..6.0, 1..3),
            seed in any::<u64>(),
        ) {
            let s = ServingSpec {
                fleet,
                batch_window_us: WINDOWS_US[window],
                max_batch,
                queue_depth,
                loads,
                ..spec()
            };
            let want = reference_serving(&s, &service(), seed, 1);
            for threads in [1, 3] {
                prop_assert_eq!(
                    simulate_serving(&s, &service(), seed, threads),
                    want.clone(),
                    "fleet {} window {} max_batch {} depth {} loads {:?} seed {} threads {}",
                    fleet,
                    s.batch_window_us,
                    max_batch,
                    queue_depth,
                    s.loads,
                    seed,
                    threads
                );
            }
        }
    }

    // -- resilience -------------------------------------------------------

    /// A plan with a couple of mid-horizon outages on chip 0 plus link
    /// and throttle noise.
    fn faulty_params() -> ResilienceParams {
        ResilienceParams {
            plan: FaultPlan {
                chip_faults: vec![
                    crate::faults::ChipFault {
                        chip: 0,
                        down_ns: 9_000_000,
                        up_ns: 14_000_000,
                    },
                    crate::faults::ChipFault {
                        chip: 0,
                        down_ns: 31_000_000,
                        up_ns: 36_000_000,
                    },
                ],
                link_faults: Vec::new(),
                throttles: vec![crate::faults::ThrottleWindow {
                    chip: 1,
                    start_ns: 20_000_000,
                    end_ns: 26_000_000,
                }],
            },
            retry: RetryPolicy::default(),
            shed_fraction: 0.25,
            remap_penalty_ns: 50_000,
            throttle_slowdown: 1.5,
        }
    }

    #[test]
    fn resilient_serving_is_deterministic_across_thread_counts() {
        let s = spec();
        let svc = service();
        let p = faulty_params();
        let one = simulate_resilient_serving(&s, &p, &svc, 7, 1);
        let four = simulate_resilient_serving(&s, &p, &svc, 7, 4);
        let eight = simulate_resilient_serving(&s, &p, &svc, 7, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn conservation_holds_under_faults() {
        let s = spec();
        let out = simulate_resilient_serving(&s, &faulty_params(), &service(), 3, 2);
        for lp in &out.per_load {
            assert_eq!(
                lp.offered,
                lp.completed + lp.rejected + lp.timed_out,
                "injected = completed + rejected + timed out"
            );
            assert!(lp.p50_ns <= lp.p95_ns && lp.p95_ns <= lp.p99_ns);
            assert!((0.0..=1.0).contains(&lp.slo_attainment));
        }
    }

    #[test]
    fn chip_outages_trigger_retries_and_failovers() {
        let s = spec();
        let out = simulate_resilient_serving(&s, &faulty_params(), &service(), 3, 1);
        let healthy =
            simulate_resilient_serving(&s, &ResilienceParams::healthy(), &service(), 3, 1);
        let (f, h) = (&out.per_load[1], &healthy.per_load[1]);
        // Outages must be visible: work is steered off the dead chip
        // and/or lost in flight and retried.
        assert!(f.failovers > 0, "no failovers despite two outages");
        assert!(
            f.retries + f.timed_out > 0,
            "no lost in-flight work despite mid-batch failures"
        );
        // A degraded fleet can only do worse than a healthy one.
        assert!(f.slo_attainment <= h.slo_attainment);
    }

    #[test]
    fn whole_fleet_down_times_requests_out() {
        let mut s = spec();
        s.loads = vec![1.0];
        // Both chips dead across the entire horizon: nothing completes,
        // everything retries into the void and times out.
        let p = ResilienceParams {
            plan: FaultPlan {
                chip_faults: vec![
                    crate::faults::ChipFault {
                        chip: 0,
                        down_ns: 0,
                        up_ns: u64::MAX,
                    },
                    crate::faults::ChipFault {
                        chip: 1,
                        down_ns: 0,
                        up_ns: u64::MAX,
                    },
                ],
                ..FaultPlan::empty()
            },
            ..ResilienceParams::healthy()
        };
        let out = simulate_resilient_serving(&s, &p, &service(), 5, 1);
        let lp = &out.per_load[0];
        assert_eq!(lp.completed, 0);
        assert_eq!(lp.timed_out, lp.offered);
        assert_eq!(lp.slo_attainment, 0.0);
        assert!(lp.retries > 0);
    }

    #[test]
    fn shedding_shrinks_the_degraded_queue() {
        let mut s = spec();
        s.loads = vec![6.0]; // overload so queues stay full
        s.queue_depth = 8;
        let mut p = faulty_params();
        p.shed_fraction = 0.75;
        let out = simulate_resilient_serving(&s, &p, &service(), 5, 1);
        assert!(out.per_load[0].shed > 0, "no shed rejections in overload");
    }

    /// Fault times past `u64::MAX` ns saturate instead of wrapping. Each
    /// override below once overflowed the plan or the fleet loop (a
    /// panic in a debug build, wrapped instants in a release one). On a
    /// five-chip fleet, so the throttle phase stagger multiplies the
    /// period by chip indices above one, every window must end after it
    /// starts, the loop must conserve requests, and the retry path must
    /// follow the saturated deadline and backoff.
    #[test]
    fn fault_times_past_u64_nanoseconds_saturate() {
        let probes: [&[(&str, &str)]; 7] = [
            &[("link_duration_us", "1e300")],
            &[("chip_mttr_ms", "1e300")],
            &[("timeout_ms", "1e300")],
            &[("backoff_base_us", "1e300"), ("backoff_cap_us", "1e300")],
            // Both saturate: retries land at `u64::MAX` and open a
            // batching window there.
            &[
                ("timeout_ms", "1e300"),
                ("backoff_base_us", "1e300"),
                ("backoff_cap_us", "1e300"),
            ],
            &[("throttle_period_ms", "1e300"), ("throttle_duty", "0.9")],
            &[("throttle_slowdown", "1e300")],
        ];
        let mut s = spec();
        s.fleet = 5;
        let horizon_ns = (s.horizon_ms * 1e6).round() as u64;
        for probe in probes {
            let mut fspec = FaultSpec::default().scaled(2.0);
            for &(key, value) in probe {
                fspec.set(key, value).unwrap();
            }
            fspec.validate().unwrap();
            let plan = FaultPlan::generate(&fspec, s.fleet, 64, horizon_ns, 0xFA17);
            assert!(!plan.chip_faults.is_empty(), "{probe:?}");
            assert!(plan.chip_faults.iter().all(|f| f.up_ns > f.down_ns));
            assert!(plan.link_faults.iter().all(|w| w.end_ns > w.start_ns));
            assert!(plan.throttles.iter().all(|w| w.end_ns > w.start_ns));
            let p = ResilienceParams::from_spec(&fspec, plan, 50_000);
            let out = simulate_resilient_serving(&s, &p, &service(), 11, 1);
            let retries: u64 = out.per_load.iter().map(|lp| lp.retries).sum();
            let timed_out: u64 = out.per_load.iter().map(|lp| lp.timed_out).sum();
            match probe[0].0 {
                // No deadline: lost requests retry until their attempts
                // run out.
                "timeout_ms" => assert!(retries > 0, "{probe:?}"),
                // No retry fits before a finite deadline.
                "backoff_base_us" => assert!(retries == 0 && timed_out > 0, "{probe:?}"),
                _ => {}
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `values`.
    fn fnv1a(values: &[u64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
    }

    /// The fault path of larger fleets under twice the default fault
    /// climate, pinned per load point as `[completed, rejected,
    /// timed_out, retries, failovers, shed, events, p99_ns, latency
    /// digest]`. The `resilience` golden covers one 2-chip fleet at one
    /// seed; this also pins how retries, failovers and shedding
    /// interleave with arrivals across 3, 5 and 8 chips.
    #[test]
    fn fault_path_is_pinned_across_fleets_and_seeds() {
        #[rustfmt::skip]
        const PINNED: [(usize, u64, [[u64; 9]; 2]); 6] = [
            (3, 11, [[185, 0, 0, 3, 19, 0, 452, 1498067, 1732982281958110767],
                     [538, 77, 1, 13, 86, 76, 1015, 3197107, 15791400649931635953]]),
            (3, 29, [[186, 0, 0, 3, 14, 0, 453, 1300228, 143882061948137703],
                     [556, 32, 0, 3, 43, 31, 994, 2807445, 11854848609380853800]]),
            (5, 11, [[365, 0, 0, 3, 50, 0, 890, 2038742, 11414917697685982219],
                     [913, 111, 0, 17, 164, 111, 1683, 2810462, 11911980283883263644]]),
            (5, 29, [[337, 0, 0, 0, 49, 0, 811, 1555759, 2654700541963292309],
                     [893, 92, 0, 7, 150, 92, 1632, 2971142, 17349679761922854237]]),
            (8, 11, [[533, 7, 0, 16, 149, 7, 1301, 2694122, 15857923730949098797],
                     [1315, 375, 1, 57, 507, 373, 2645, 3715060, 10534564269808866990]]),
            (8, 29, [[557, 0, 0, 9, 89, 0, 1411, 1560875, 4315233881564435559],
                     [1487, 156, 0, 24, 267, 155, 2733, 3012088, 17836678702564136472]]),
        ];
        let fspec = FaultSpec::default().scaled(2.0);
        for &(fleet, seed, want) in &PINNED {
            // Per-chip offered load stays that of the default 2-chip
            // fleet, at one moderate and one overloading point.
            let mut s = spec();
            s.fleet = fleet;
            s.loads = vec![1.4, 4.0];
            for t in &mut s.tenants {
                t.rate_rps *= fleet as f64 / 2.0;
            }
            let horizon_ns = (s.horizon_ms * 1e6).round() as u64;
            let plan = FaultPlan::generate(&fspec, fleet, 64, horizon_ns, seed ^ 0xFA17);
            let mut p = ResilienceParams::from_spec(&fspec, plan, 50_000);
            p.shed_fraction = 0.25;
            let out = simulate_resilient_serving(&s, &p, &service(), seed, 2);
            let got: Vec<[u64; 9]> = out
                .per_load
                .iter()
                .map(|lp| {
                    [
                        lp.completed,
                        lp.rejected,
                        lp.timed_out,
                        lp.retries,
                        lp.failovers,
                        lp.shed,
                        lp.events,
                        lp.p99_ns,
                        fnv1a(&lp.latencies_ns),
                    ]
                })
                .collect();
            assert_eq!(got, want, "fleet {fleet}, seed {seed}");
        }
    }
}
