//! The shared experiment engine behind the figure sweeps.
//!
//! The paper's headline results (Figs. 3-7) are grids: 4 NoI
//! architectures × 5 Table II mixes through the packet-level DES, and 5
//! DNN models through the 3D joint-optimization flow. [`SweepRunner`]
//! constructs each [`Platform25D`] (topology + route table) exactly once,
//! then fans independent grid cells across [`std::thread::scope`] workers
//! with a work-stealing index.
//!
//! # Determinism guarantee
//!
//! Every grid cell is a pure, seeded function of its inputs, and results
//! are reassembled by cell index — so a sweep's output is bit-identical
//! to the sequential loop it replaces, for any worker count (including
//! one). [`parallel_map`] preserves input order; nothing about thread
//! scheduling can reach the reported numbers.
//!
//! # The evaluation cache
//!
//! Different experiments ask for overlapping grids: Fig. 3 and Fig. 5
//! both run the full (mix × architecture) sweep, and the dataflow figure
//! re-maps the same cells before costing each mode. The [`EvalCache`]
//! owned by every `SweepRunner` memoizes finished [`WorkloadReport`]s
//! (keyed by architecture × workload × dataflow tag, under the runner's
//! config fingerprint; `searched` is a tag like any other, because its
//! resolution is a pure function of the cell) and the
//! dataflow-independent churn mappings behind them, so a shared
//! runner — `pim-bench run all` holds one per [`crate::RunContext`] —
//! does each evaluation exactly once. Below the report level it also
//! memoizes the snapshot DES by channel-disjoint component (keyed by
//! architecture × the component's flow list), which repeats across the
//! snapshots of a cell and across cells while the same tasks stay
//! resident. Cached cells are pure replays: output stays byte-identical
//! to uncached runs at any thread count. `PIM_BENCH_NO_CACHE=1` bypasses
//! the cache (the equivalence tests diff both modes), and hit/miss
//! counters are surfaced per experiment when `PIM_BENCH_CACHE_STATS=1`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use dnn::{Dataflow, SegmentGraph, Workload};
use mapper::ChurnOutcome;
use netsim::{DesTotals, Flow};
use serde::Serialize;
use topology::{TopologyError, TopologySummary};

use crate::arch::NoiArch;
use crate::config::SystemConfig;
use crate::platform25::{Platform25D, WorkloadReport};
use crate::scratch::{ScratchPool, SweepScratch};

/// Default worker count: one per available hardware thread.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `threads` scoped workers and
/// returns the results **in input order**, regardless of which worker
/// computed what. Workers pull items off a shared atomic index
/// (work-stealing), so uneven cell costs don't serialize the sweep.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            indexed.extend(w.join().expect("sweep worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// A counter snapshot of an [`EvalCache`]: report hits and misses, and
/// the snapshot-DES component memo's traffic.
///
/// Above one worker thread, two cells may both miss the same report or
/// component and both compute it, so the hit and miss counts can vary
/// from run to run; the output they produce cannot. All counters stay
/// zero while the cache is bypassed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Workload reports served from the cache.
    pub hits: u64,
    /// Workload reports computed (and stored) on demand.
    pub misses: u64,
    /// Channel-disjoint snapshot-DES components the memo was asked for,
    /// served or simulated.
    pub component_runs: u64,
    /// Components served from the memo instead of simulated.
    pub component_hits: u64,
    /// Packets the DES simulated for the components that missed.
    pub packets_simulated: u64,
    /// Link-free components ([`netsim::split_components_into`]) costed
    /// in closed form ([`netsim::link_free_totals`]); they never reach
    /// the memo, so `component_runs` does not count them.
    pub closed_form_components: u64,
}

impl CacheStats {
    /// Counter delta since an earlier snapshot (the per-experiment
    /// numbers `PIM_BENCH_CACHE_STATS=1` surfaces in output notes).
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            component_runs: self.component_runs - earlier.component_runs,
            component_hits: self.component_hits - earlier.component_hits,
            packets_simulated: self.packets_simulated - earlier.packets_simulated,
            closed_form_components: self.closed_form_components - earlier.closed_form_components,
        }
    }
}

/// The memoized churn mapping of one (architecture, workload) cell: task
/// graphs plus the dynamic-churn placement, both dataflow-independent.
struct ChurnEntry {
    graphs: Vec<SegmentGraph>,
    outcome: ChurnOutcome,
}

/// Report-cache key: (arch, workload fp, dataflow tag).
type ReportKey = (&'static str, u64, &'static str);

/// Component-memo key: (arch, FNV-1a of the component's flow list).
type ComponentKey = (&'static str, u64);

/// Component-memo entry: the flow list the key hashed, and its totals.
type ComponentEntry = (Box<[Flow]>, DesTotals);

/// Cross-experiment evaluation cache (see the module docs). Owned by a
/// [`SweepRunner`]; every lookup is keyed by the runner's config
/// fingerprint so entries can never leak across differently-configured
/// engines.
///
/// Determinism audit: all three maps are touched **only** through keyed
/// `get`/`insert` under their mutexes — nothing ever iterates them, so
/// their unspecified ordering cannot reach output (the `unordered-iter`
/// pim-lint rule keeps it that way). Only [`CacheStats`] counters, which
/// never feed golden bytes, aggregate across entries. Concurrent cells
/// may both miss an entry and compute the same value; only the counters
/// see that.
pub struct EvalCache {
    fingerprint: u64,
    enabled: bool,
    /// Finished reports keyed (arch, workload fp, dataflow tag). The
    /// tag names the costing: a hand mode, or `"SRCH"`, whose resolved
    /// mappings are a pure function of the config and the cell, so the
    /// key fixes them too.
    reports: Mutex<HashMap<ReportKey, WorkloadReport>>,
    churn: Mutex<HashMap<(&'static str, u64), Arc<ChurnEntry>>>,
    /// The snapshot-DES memo: the totals of one channel-disjoint
    /// component ([`netsim::split_components_into`]) keyed by
    /// architecture and the FNV-1a of its ordered flow list, stored with
    /// the list itself. A hit compares the full list, so the hash never
    /// serves as identity; a collision only costs a recompute. The
    /// runner's config fixes everything else the DES reads (hardware,
    /// route table, packet size).
    components: Mutex<HashMap<ComponentKey, ComponentEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    component_runs: AtomicU64,
    component_hits: AtomicU64,
    packets_simulated: AtomicU64,
    closed_form_components: AtomicU64,
}

impl fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalCache")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x1_0000_01b3)
    })
}

/// FNV-1a over a value's stable `Debug` representation: cheap, has no
/// dependency on a serializer, and changes whenever any field changes —
/// the property the cache keys need.
fn debug_fingerprint(value: &impl fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").bytes())
}

/// FNV-1a over a flow list's fields, in order: the component-memo key.
fn flows_fingerprint(flows: &[Flow]) -> u64 {
    fnv1a(
        flows
            .iter()
            .flat_map(|f| [u64::from(f.src.0), u64::from(f.dst.0), f.bytes])
            .flat_map(u64::to_le_bytes),
    )
}

/// The runner-wide key prefix: covers the full [`SystemConfig`]
/// (hardware, PIM, thermal, sampling, batch, ...).
fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    debug_fingerprint(cfg)
}

/// Per-cell workload key: covers the *content* of the mix (name, task
/// list, paper totals), not just the Table II name — a caller-mutated
/// `Workload` that reuses a name can never replay another workload's
/// reports.
fn workload_fingerprint(wl: &Workload) -> u64 {
    debug_fingerprint(wl)
}

impl EvalCache {
    /// An empty cache for one config; `PIM_BENCH_NO_CACHE=1` (any
    /// non-`0` value) starts it bypassed.
    fn new(cfg: &SystemConfig) -> Self {
        let bypassed = crate::envknobs::flag("PIM_BENCH_NO_CACHE");
        EvalCache {
            fingerprint: config_fingerprint(cfg),
            enabled: !bypassed,
            reports: Mutex::new(HashMap::new()),
            churn: Mutex::new(HashMap::new()),
            components: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            component_runs: AtomicU64::new(0),
            component_hits: AtomicU64::new(0),
            packets_simulated: AtomicU64::new(0),
            closed_form_components: AtomicU64::new(0),
        }
    }

    /// The owning runner's config fingerprint (part of every key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// False when the cache is bypassed (every evaluation recomputes).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            component_runs: self.component_runs.load(Ordering::Relaxed),
            component_hits: self.component_hits.load(Ordering::Relaxed),
            packets_simulated: self.packets_simulated.load(Ordering::Relaxed),
            closed_form_components: self.closed_form_components.load(Ordering::Relaxed),
        }
    }

    /// Counts one link-free component costed in closed form instead of
    /// through the memo.
    pub(crate) fn count_closed_form(&self) {
        self.closed_form_components.fetch_add(1, Ordering::Relaxed);
    }

    /// The DES totals of one channel-disjoint snapshot component on
    /// `arch`: replayed from the memo when the same flow list was
    /// simulated before, else computed by `run` and stored.
    pub(crate) fn des_component(
        &self,
        arch: &'static str,
        flows: &[Flow],
        run: impl FnOnce() -> DesTotals,
    ) -> DesTotals {
        self.component_runs.fetch_add(1, Ordering::Relaxed);
        let key = (arch, flows_fingerprint(flows));
        if let Some((stored, totals)) = self.components.lock().expect("cache lock").get(&key) {
            if **stored == *flows {
                self.component_hits.fetch_add(1, Ordering::Relaxed);
                return *totals;
            }
        }
        let totals = run();
        self.packets_simulated
            .fetch_add(totals.packets, Ordering::Relaxed);
        self.components
            .lock()
            .expect("cache lock")
            .insert(key, (flows.into(), totals));
        totals
    }

    /// The memoized (graphs, churn mapping) of one cell, computed on
    /// first use.
    fn churn_entry(&self, platform: &Platform25D, wl: &Workload, wfp: u64) -> Arc<ChurnEntry> {
        let key = (platform.arch_name(), wfp);
        if let Some(entry) = self.churn.lock().expect("cache lock").get(&key) {
            return Arc::clone(entry);
        }
        let graphs = Platform25D::task_graphs(wl);
        let outcome = platform.churn_outcome_from_graphs(&graphs);
        let entry = Arc::new(ChurnEntry { graphs, outcome });
        self.churn
            .lock()
            .expect("cache lock")
            .insert(key, Arc::clone(&entry));
        entry
    }
}

/// The experiment engine: the four paper platforms built once (route
/// tables cached inside), plus a parallel grid executor.
///
/// # Examples
///
/// ```no_run
/// use dnn::table2;
/// use pim_core::{SweepRunner, SystemConfig};
///
/// let runner = SweepRunner::new(&SystemConfig::datacenter_25d())?;
/// let reports = runner.run_workloads(&table2()); // 5 mixes x 4 archs, stable order
/// assert_eq!(reports.len(), 20);
/// # Ok::<(), topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct SweepRunner {
    cfg: SystemConfig,
    threads: usize,
    platforms: Vec<Platform25D>, // NoiArch::all() order
    cache: EvalCache,
    /// Reusable per-cell evaluation buffers, handed to whichever worker
    /// evaluates the next cell (see [`crate::scratch`]).
    scratch: ScratchPool,
}

impl SweepRunner {
    /// Builds all four [`NoiArch`] platforms once (in parallel) and
    /// defaults the worker count to [`default_threads`].
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] from the topology generators.
    pub fn new(cfg: &SystemConfig) -> Result<Self, TopologyError> {
        Self::for_archs(cfg, &NoiArch::all())
    }

    /// Builds the platforms for an explicit architecture subset (in the
    /// given order) — the engine behind scenario `--arch` filters.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] from the topology generators.
    pub fn for_archs(cfg: &SystemConfig, archs: &[NoiArch]) -> Result<Self, TopologyError> {
        let threads = default_threads();
        let built = parallel_map(archs, threads, |arch| Platform25D::new(arch.clone(), cfg));
        let mut platforms = Vec::with_capacity(built.len());
        for p in built {
            platforms.push(p?);
        }
        Ok(SweepRunner {
            cfg: cfg.clone(),
            threads,
            platforms,
            cache: EvalCache::new(cfg),
            scratch: ScratchPool::default(),
        })
    }

    /// Builds the engine a resolved [`crate::scenario::Scenario`] asks
    /// for: its (possibly overridden) 2.5D config, its architecture
    /// subset, its worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] from the topology generators.
    pub fn from_scenario(s: &crate::scenario::ResolvedScenario) -> Result<Self, TopologyError> {
        Ok(Self::for_archs(&s.cfg25, &s.archs)?.with_threads(s.threads))
    }

    /// Overrides the worker count (clamped to at least one). Output is
    /// identical for any value; this only changes wall-clock time.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Effective worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's cross-experiment evaluation cache.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Forces the cache on or off (the programmatic form of
    /// `PIM_BENCH_NO_CACHE`): the equivalence tests compare a bypassed
    /// engine's reports with a cached one's.
    #[must_use]
    pub fn with_cache_enabled(mut self, enabled: bool) -> Self {
        self.cache.enabled = enabled;
        self
    }

    /// Evaluates one (architecture, workload) cell for a dataflow set,
    /// through the cache when enabled. Cached reports are replayed
    /// clones; a partial hit reuses the memoized churn mapping and only
    /// costs the missing modes — every path produces reports
    /// bit-identical to [`Platform25D::run_workload_dataflows`].
    fn eval_cell(&self, pi: usize, wl: &Workload, dataflows: &[Dataflow]) -> Vec<WorkloadReport> {
        let platform = &self.platforms[pi];
        let mut scratch = self.scratch.take();
        let out = if self.cache.enabled {
            let wfp = workload_fingerprint(wl);
            let mut entry: Option<Arc<ChurnEntry>> = None;
            dataflows
                .iter()
                .map(|&df| self.eval_mode(platform, wl, wfp, df, &mut entry, &mut scratch))
                .collect()
        } else {
            platform.run_workload_dataflows(wl, dataflows, &mut scratch)
        };
        self.scratch.put(scratch);
        out
    }

    /// One (cell, dataflow) evaluation through the cache: a report hit
    /// replays; a miss costs the memoized churn mapping (the DES-free
    /// stage, `searched` resolved inside it, then the snapshot DES
    /// through the component memo) and stores the report.
    fn eval_mode(
        &self,
        platform: &Platform25D,
        wl: &Workload,
        wfp: u64,
        df: Dataflow,
        entry: &mut Option<Arc<ChurnEntry>>,
        scratch: &mut SweepScratch,
    ) -> WorkloadReport {
        let key = (platform.arch_name(), wfp, df.name());
        if let Some(r) = self.cache.reports.lock().expect("cache lock").get(&key) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return r.clone();
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let e = Arc::clone(entry.get_or_insert_with(|| self.cache.churn_entry(platform, wl, wfp)));
        let mut report = platform.report_without_des(wl, &e.graphs, &e.outcome, df, scratch);
        platform.simulate_snapshots(&e.outcome, scratch, &mut report, Some(&self.cache));
        self.cache
            .reports
            .lock()
            .expect("cache lock")
            .insert(key, report.clone());
        report
    }

    /// The system configuration the platforms were built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The cached platforms, in [`NoiArch::all`] order.
    pub fn platforms(&self) -> &[Platform25D] {
        &self.platforms
    }

    /// The cached platform for one architecture.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is not one of the four paper architectures.
    pub fn platform(&self, arch: &NoiArch) -> &Platform25D {
        self.platforms
            .iter()
            .find(|p| p.arch() == arch)
            .expect("SweepRunner caches every paper architecture")
    }

    /// The (workload × architecture) grid over the cached platforms:
    /// workload-major, [`NoiArch::all`] order within each workload —
    /// exactly the sequential seed ordering.
    pub fn run_workloads(&self, workloads: &[Workload]) -> Vec<WorkloadReport> {
        let cells: Vec<(&Workload, usize)> = workloads
            .iter()
            .flat_map(|wl| (0..self.platforms.len()).map(move |pi| (wl, pi)))
            .collect();
        parallel_map(&cells, self.threads, |&(wl, pi)| {
            self.eval_cell(pi, wl, &[Dataflow::WeightStationary])
                .pop()
                .expect("one dataflow in, one report out")
        })
    }

    /// The (workload × dataflow × architecture) grid over the cached
    /// platforms: workload-major, then `dataflows` order, then
    /// [`NoiArch::all`] order — so each consecutive chunk of
    /// `dataflows.len() * platforms.len()` rows is one workload, and the
    /// [`Dataflow::WeightStationary`] rows reproduce [`Self::run_workloads`]
    /// exactly.
    ///
    /// The churned placement is dataflow-independent, so each
    /// (workload, architecture) cell maps once and costs every dataflow
    /// from the shared outcome
    /// ([`Platform25D::run_workload_dataflows`]) — the reports are still
    /// bit-identical to per-mode [`Platform25D::run_workload_with`]
    /// calls, just without redundant mapping work.
    pub fn run_workloads_dataflows(
        &self,
        workloads: &[Workload],
        dataflows: &[Dataflow],
    ) -> Vec<WorkloadReport> {
        let cells: Vec<(&Workload, usize)> = workloads
            .iter()
            .flat_map(|wl| (0..self.platforms.len()).map(move |pi| (wl, pi)))
            .collect();
        let per_cell = parallel_map(&cells, self.threads, |&(wl, pi)| {
            self.eval_cell(pi, wl, dataflows)
        });
        // Reassemble (workload, arch)[dataflow] into workload-major,
        // dataflow, architecture order.
        let n_arch = self.platforms.len();
        let mut out = Vec::with_capacity(per_cell.len() * dataflows.len());
        for wl_cells in per_cell.chunks(n_arch) {
            for d in 0..dataflows.len() {
                for cell in wl_cells {
                    out.push(cell[d].clone());
                }
            }
        }
        out
    }

    /// Fig. 2: structural summaries of the cached platforms.
    pub fn fig2_summaries(&self) -> Vec<TopologySummary> {
        self.platforms.iter().map(Platform25D::structure).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8, 200] {
            assert_eq!(parallel_map(&items, threads, |x| x * x), seq);
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(parallel_map(&empty, 8, |x| *x), Vec::<u32>::new());
        assert_eq!(parallel_map(&[7u32], 8, |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..8).collect();
        parallel_map(&items, 4, |x| {
            assert!(*x != 5, "boom");
            *x
        });
    }

    #[test]
    fn runner_caches_all_four_platforms() {
        let cfg = SystemConfig::datacenter_25d();
        let runner = SweepRunner::new(&cfg).unwrap();
        assert_eq!(runner.platforms().len(), 4);
        for (p, arch) in runner.platforms().iter().zip(NoiArch::all()) {
            assert_eq!(p.arch(), &arch);
            assert!(std::ptr::eq(runner.platform(&arch), p));
        }
    }

    #[test]
    fn engine_grid_is_bit_identical_to_sequential_rebuild() {
        // The hoisted-construction + parallel-fan-out path must reproduce
        // the seed's rebuild-every-cell sequential loop exactly, cell for
        // cell, in the same order.
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let runner = SweepRunner::new(&cfg).unwrap();
        let engine = runner.run_workloads(std::slice::from_ref(&wl));

        let sequential: Vec<WorkloadReport> = NoiArch::all()
            .into_iter()
            .map(|arch| {
                Platform25D::new(arch, &cfg)
                    .expect("paper architectures build")
                    .run_workload(&wl)
            })
            .collect();
        assert_eq!(engine, sequential);
    }

    #[test]
    fn dataflow_grid_ws_rows_match_the_plain_grid() {
        // The dataflow axis is a strict superset: its weight-stationary
        // rows must be bit-identical to the pre-axis workload grid.
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let runner = SweepRunner::new(&cfg).unwrap();
        let plain = runner.run_workloads(std::slice::from_ref(&wl));
        let grid = runner.run_workloads_dataflows(
            std::slice::from_ref(&wl),
            &[Dataflow::WeightStationary, Dataflow::FusedLayer],
        );
        assert_eq!(grid.len(), 2 * runner.platforms().len());
        assert_eq!(&grid[..runner.platforms().len()], &plain[..]);
        for (r, arch) in grid[runner.platforms().len()..].iter().zip(NoiArch::all()) {
            assert_eq!(r.dataflow, "FL");
            assert_eq!(r.arch, arch.name());
        }
    }

    #[test]
    fn dataflow_grid_independent_of_thread_count() {
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let dataflows = Dataflow::all();
        let runner = SweepRunner::new(&cfg).unwrap();
        let wide = runner.run_workloads_dataflows(std::slice::from_ref(&wl), &dataflows);
        let narrow = runner
            .with_threads(1)
            .run_workloads_dataflows(std::slice::from_ref(&wl), &dataflows);
        assert_eq!(wide, narrow);
    }

    #[test]
    fn engine_output_independent_of_thread_count() {
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let runner = SweepRunner::new(&cfg).unwrap();
        let wide = runner.run_workloads(std::slice::from_ref(&wl));
        let narrow = runner
            .with_threads(1)
            .run_workloads(std::slice::from_ref(&wl));
        assert_eq!(wide, narrow);
    }

    #[test]
    fn cache_replays_are_byte_identical_to_uncached_runs() {
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let cached = SweepRunner::new(&cfg).unwrap().with_cache_enabled(true);
        let bypass = SweepRunner::new(&cfg).unwrap().with_cache_enabled(false);

        let first = cached.run_workloads(std::slice::from_ref(&wl));
        let replay = cached.run_workloads(std::slice::from_ref(&wl));
        let fresh = bypass.run_workloads(std::slice::from_ref(&wl));
        assert_eq!(first, replay, "cache replay must change nothing");
        assert_eq!(first, fresh, "cached and bypassed paths must agree");
        assert_eq!(bypass.cache().stats(), CacheStats::default());
    }

    /// The report-level `(hits, misses)` of a runner's cache.
    fn report_counts(runner: &SweepRunner) -> (u64, u64) {
        let s = runner.cache().stats();
        (s.hits, s.misses)
    }

    #[test]
    fn cache_counts_hits_and_misses_per_cell() {
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let runner = SweepRunner::new(&cfg).unwrap().with_cache_enabled(true);
        let n = runner.platforms().len() as u64;

        runner.run_workloads(std::slice::from_ref(&wl));
        assert_eq!(report_counts(&runner), (0, n));
        runner.run_workloads(std::slice::from_ref(&wl));
        assert_eq!(report_counts(&runner), (n, n));
    }

    #[test]
    fn component_memo_hits_return_what_a_cold_runner_computes() {
        // A renamed copy of WL1 misses the report cache (the workload key
        // covers the name) but maps and simulates exactly like WL1, so
        // every snapshot-DES component replays from the memo. Its report
        // must equal a cold runner's and an uncached one's.
        let cfg = SystemConfig::datacenter_25d();
        let archs = [NoiArch::Floret { lambda: 6 }];
        let wl = dnn::table2_workload("WL1").unwrap();
        let mut renamed = wl.clone();
        renamed.name = "WL1 copy".to_string();
        let runner = |cache| {
            SweepRunner::for_archs(&cfg, &archs)
                .unwrap()
                .with_cache_enabled(cache)
        };

        let warm = runner(true);
        warm.run_workloads(std::slice::from_ref(&wl));
        let first = warm.cache().stats();
        assert!(
            first.component_hits > 0,
            "components recur across snapshots"
        );
        assert!(first.component_runs > first.component_hits);
        let replayed = warm.run_workloads(std::slice::from_ref(&renamed));
        let second = warm.cache().stats().since(first);
        assert_eq!((second.hits, second.misses), (0, 1));
        assert_eq!(second.component_runs, first.component_runs);
        assert_eq!(second.component_hits, second.component_runs);
        assert_eq!(second.packets_simulated, 0);

        assert_eq!(
            replayed,
            runner(true).run_workloads(std::slice::from_ref(&renamed))
        );
        let bypass = runner(false);
        assert_eq!(
            replayed,
            bypass.run_workloads(std::slice::from_ref(&renamed))
        );
        assert_eq!(bypass.cache().stats(), CacheStats::default());
    }

    #[test]
    fn partial_hits_reuse_the_memoized_churn_mapping() {
        // Warm the cache with the weight-stationary rows (the fig3/fig5
        // path), then ask for the full dataflow grid: WS rows replay from
        // the cache, the other modes are costed from the memoized churn
        // mapping — and everything is bit-identical to a cold engine
        // evaluating the grid in one go.
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let dataflows = Dataflow::all();
        let warmed = SweepRunner::new(&cfg).unwrap().with_cache_enabled(true);
        let ws_rows = warmed.run_workloads(std::slice::from_ref(&wl));
        let grid = warmed.run_workloads_dataflows(std::slice::from_ref(&wl), &dataflows);

        let cold = SweepRunner::new(&cfg).unwrap().with_cache_enabled(true);
        let cold_grid = cold.run_workloads_dataflows(std::slice::from_ref(&wl), &dataflows);
        assert_eq!(grid, cold_grid);
        assert_eq!(&grid[..ws_rows.len()], &ws_rows[..]);

        let n = warmed.platforms().len() as u64;
        let n_df = dataflows.len() as u64;
        // Warm engine: n WS misses, then n WS hits + n * (n_df - 1)
        // misses for the remaining modes.
        assert_eq!(report_counts(&warmed), (n, n * n_df));
    }

    #[test]
    fn mutated_workload_with_reused_name_never_replays_stale_reports() {
        // Cache keys cover workload *content*: a caller-tweaked mix that
        // keeps the "WL1" name must miss and be evaluated fresh.
        let cfg = SystemConfig::datacenter_25d();
        let wl = dnn::table2_workload("WL1").unwrap();
        let mut shrunk = wl.clone();
        shrunk.mix.truncate(1); // still named "WL1", different content
        let runner = SweepRunner::new(&cfg).unwrap().with_cache_enabled(true);
        let original = runner.run_workloads(std::slice::from_ref(&wl));
        let tweaked = runner.run_workloads(std::slice::from_ref(&shrunk));
        assert_ne!(original, tweaked, "stale replay under a reused name");
        let n = runner.platforms().len() as u64;
        assert_eq!(report_counts(&runner), (0, 2 * n));
        // The tweaked rows match an uncached evaluation of the same mix.
        let fresh = SweepRunner::new(&cfg)
            .unwrap()
            .with_cache_enabled(false)
            .run_workloads(std::slice::from_ref(&shrunk));
        assert_eq!(tweaked, fresh);
    }

    #[test]
    fn searched_cells_replay_identically_from_the_report_cache() {
        // One architecture keeps this cheap: the searched axis through
        // the cache must equal the bypassed path bit-for-bit, and the
        // second pass must be pure replay (all hits, SRCH included).
        let cfg = SystemConfig::datacenter_25d();
        let archs = [NoiArch::Floret { lambda: 6 }];
        let wl = dnn::table2_workload("WL3").unwrap();
        let axis = Dataflow::all_with_searched();
        let cached = SweepRunner::for_archs(&cfg, &archs)
            .unwrap()
            .with_cache_enabled(true);
        let bypass = SweepRunner::for_archs(&cfg, &archs)
            .unwrap()
            .with_cache_enabled(false);

        let first = cached.run_workloads_dataflows(std::slice::from_ref(&wl), &axis);
        let n_axis = axis.len() as u64;
        assert_eq!(report_counts(&cached), (0, n_axis));
        let replay = cached.run_workloads_dataflows(std::slice::from_ref(&wl), &axis);
        assert_eq!(first, replay, "cache replay must change nothing");
        assert_eq!(report_counts(&cached), (n_axis, n_axis));
        let fresh = bypass.run_workloads_dataflows(std::slice::from_ref(&wl), &axis);
        assert_eq!(first, fresh, "cached and bypassed searched paths agree");
        assert_eq!(first.last().unwrap().dataflow, "SRCH");
    }

    #[test]
    fn searched_axis_independent_of_thread_count() {
        let cfg = SystemConfig::datacenter_25d();
        let archs = [NoiArch::Floret { lambda: 6 }, NoiArch::Kite];
        let wl = dnn::table2_workload("WL3").unwrap();
        let axis = Dataflow::all_with_searched();
        let wide = SweepRunner::for_archs(&cfg, &archs)
            .unwrap()
            .run_workloads_dataflows(std::slice::from_ref(&wl), &axis);
        let narrow = SweepRunner::for_archs(&cfg, &archs)
            .unwrap()
            .with_threads(1)
            .run_workloads_dataflows(std::slice::from_ref(&wl), &axis);
        assert_eq!(wide, narrow);
    }

    #[test]
    fn fingerprints_separate_configs() {
        let base = SystemConfig::datacenter_25d();
        let mut tweaked = base.clone();
        tweaked.batch += 1;
        let a = SweepRunner::new(&base).unwrap();
        let b = SweepRunner::new(&tweaked).unwrap();
        assert_ne!(a.cache().fingerprint(), b.cache().fingerprint());
        assert_eq!(
            a.cache().fingerprint(),
            SweepRunner::new(&base).unwrap().cache().fingerprint()
        );
    }
}
