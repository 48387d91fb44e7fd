//! Steady-state thermal model for 3D-stacked PIM manycore systems
//! (Section III of the paper).
//!
//! The stack is modelled as a resistive grid: every PE cell exchanges heat
//! with its lateral neighbors (same tier), with the tiers above/below
//! (through the inter-layer dielectric — thin for M3D, thicker for
//! TSV-based stacks), and tier 0 couples to the heat sink at ambient
//! temperature. The steady state solves
//! `sum_j g_ij (T_j - T_i) + P_i = 0`.
//!
//! [`solve`] (explicitly [`solve_red_black`]) is **red-black successive
//! over-relaxation**: the grid is two-colored by coordinate parity
//! (every stencil neighbor has the opposite color), the
//! iteration-invariant conductance sums and neighbor lists are
//! precomputed once into flat arrays, and each color is swept reading
//! only the opposite color — so the sweep is deterministic for *any*
//! worker count and converges in far fewer iterations than plain
//! Gauss-Seidel thanks to over-relaxation. The original sequential
//! Gauss-Seidel is kept verbatim as a reference oracle
//! ([`solve_reference`]) for tests, the criterion benches and the
//! solver micro-benchmark of `pim-bench perf`; nothing in the pipeline
//! calls it.
//!
//! Both solvers report [`ThermalMap::iterations`], the final
//! [`ThermalMap::residual_k`] and a [`ThermalMap::converged`] flag;
//! [`solve_checked`] turns a capped run into a typed
//! [`ThermalError::NotConverged`] instead of silently returning the last
//! sweep.
//!
//! Tier convention: tier 0 is closest to the heat sink; the *bottom tier*
//! of Fig. 7 (farthest from the sink, hottest) is tier `tiers - 1`.
//!
//! # Examples
//!
//! ```
//! use thermal::{solve, PowerMap, ThermalConfig};
//!
//! let mut power = PowerMap::new(5, 5, 4)?;
//! power.set(2, 2, 3, 2.0)?; // a 2 W hotspot far from the sink
//! let map = solve(&power, &ThermalConfig::m3d());
//! assert!(map.peak_k() > 300.0);
//! assert!(map.converged);
//! // The hotspot cell is the hottest.
//! assert_eq!(map.argmax(), (2, 2, 3));
//! # Ok::<(), thermal::ThermalError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use serde::{Deserialize, Serialize};

/// Error produced by power-map construction or a checked solve.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ThermalError {
    /// Zero-sized grid.
    EmptyGrid,
    /// Cell coordinates outside the grid.
    OutOfBounds {
        /// Requested coordinate.
        coord: (u16, u16, u16),
        /// Grid dimensions.
        dims: (u16, u16, u16),
    },
    /// [`solve_checked`] hit the iteration cap before the residual fell
    /// under the tolerance.
    NotConverged {
        /// Iterations performed (== `max_iters`).
        iterations: u32,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::EmptyGrid => write!(f, "thermal grid must be non-empty"),
            ThermalError::OutOfBounds { coord, dims } => {
                write!(f, "cell {coord:?} outside grid of {dims:?}")
            }
            ThermalError::NotConverged { iterations } => {
                write!(
                    f,
                    "thermal solve hit the {iterations}-iteration cap before converging"
                )
            }
        }
    }
}

impl std::error::Error for ThermalError {}

/// Thermal network parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Conductance between laterally adjacent PEs, W/K.
    pub g_lateral: f64,
    /// Conductance between vertically adjacent PEs, W/K. M3D's nano-scale
    /// ILD conducts much better than TSV bonding layers.
    pub g_vertical: f64,
    /// Conductance from each tier-0 PE to the heat sink, W/K.
    pub g_sink: f64,
    /// Ambient / sink temperature, K.
    pub ambient_k: f64,
    /// Gauss-Seidel iteration cap.
    pub max_iters: u32,
    /// Convergence threshold on the max temperature update, K.
    pub tolerance_k: f64,
}

impl ThermalConfig {
    /// Monolithic-3D stack: thin ILD, strong vertical conduction, better
    /// heat dissipation (Section I).
    pub fn m3d() -> Self {
        ThermalConfig {
            g_lateral: 0.08,
            g_vertical: 2.0,
            g_sink: 0.05,
            ambient_k: 300.0,
            max_iters: 20_000,
            tolerance_k: 1e-6,
        }
    }

    /// TSV-based stack: bonding layers throttle vertical conduction.
    pub fn tsv() -> Self {
        ThermalConfig {
            g_vertical: 0.6,
            ..ThermalConfig::m3d()
        }
    }
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig::m3d()
    }
}

/// Per-PE power dissipation over a `w x h x tiers` grid, in watts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerMap {
    w: u16,
    h: u16,
    tiers: u16,
    power: Vec<f64>,
}

impl PowerMap {
    /// Creates an all-zero power map.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyGrid`] for zero-sized grids.
    pub fn new(w: u16, h: u16, tiers: u16) -> Result<Self, ThermalError> {
        if w == 0 || h == 0 || tiers == 0 {
            return Err(ThermalError::EmptyGrid);
        }
        Ok(PowerMap {
            w,
            h,
            tiers,
            power: vec![0.0; w as usize * h as usize * tiers as usize],
        })
    }

    /// Grid dimensions `(w, h, tiers)`.
    pub fn dims(&self) -> (u16, u16, u16) {
        (self.w, self.h, self.tiers)
    }

    fn index(&self, x: u16, y: u16, z: u16) -> Result<usize, ThermalError> {
        if x >= self.w || y >= self.h || z >= self.tiers {
            return Err(ThermalError::OutOfBounds {
                coord: (x, y, z),
                dims: self.dims(),
            });
        }
        Ok((z as usize * self.h as usize + y as usize) * self.w as usize + x as usize)
    }

    /// Sets the power of one cell, W.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::OutOfBounds`] for invalid coordinates.
    pub fn set(&mut self, x: u16, y: u16, z: u16, watts: f64) -> Result<(), ThermalError> {
        let i = self.index(x, y, z)?;
        self.power[i] = watts;
        Ok(())
    }

    /// Adds power to one cell, W.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::OutOfBounds`] for invalid coordinates.
    pub fn add(&mut self, x: u16, y: u16, z: u16, watts: f64) -> Result<(), ThermalError> {
        let i = self.index(x, y, z)?;
        self.power[i] += watts;
        Ok(())
    }

    /// Power of one cell, W.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::OutOfBounds`] for invalid coordinates.
    pub fn get(&self, x: u16, y: u16, z: u16) -> Result<f64, ThermalError> {
        Ok(self.power[self.index(x, y, z)?])
    }

    /// Total dissipated power, W.
    pub fn total_w(&self) -> f64 {
        self.power.iter().sum()
    }
}

/// Steady-state temperature field.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThermalMap {
    w: u16,
    h: u16,
    tiers: u16,
    temps: Vec<f64>,
    /// Solver iterations used (full grid sweeps).
    pub iterations: u32,
    /// Final residual: the largest temperature update of the last sweep,
    /// K. Converged runs end below [`ThermalConfig::tolerance_k`].
    pub residual_k: f64,
    /// Whether the residual fell under the tolerance before the
    /// [`ThermalConfig::max_iters`] cap.
    pub converged: bool,
}

impl ThermalMap {
    fn idx(&self, x: u16, y: u16, z: u16) -> usize {
        (z as usize * self.h as usize + y as usize) * self.w as usize + x as usize
    }

    /// Temperature of one cell, K.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, x: u16, y: u16, z: u16) -> f64 {
        self.temps[self.idx(x, y, z)]
    }

    /// Peak temperature, K (the Fig. 6(b) metric).
    pub fn peak_k(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean temperature, K.
    pub fn mean_k(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Coordinates of the hottest cell.
    pub fn argmax(&self) -> (u16, u16, u16) {
        let (mut best, mut coord) = (f64::NEG_INFINITY, (0, 0, 0));
        for z in 0..self.tiers {
            for y in 0..self.h {
                for x in 0..self.w {
                    let t = self.get(x, y, z);
                    if t > best {
                        best = t;
                        coord = (x, y, z);
                    }
                }
            }
        }
        coord
    }

    /// One tier as a row-major `h x w` matrix (Fig. 7 heat map export).
    pub fn tier_slice(&self, z: u16) -> Vec<Vec<f64>> {
        (0..self.h)
            .map(|y| (0..self.w).map(|x| self.get(x, y, z)).collect())
            .collect()
    }

    /// Number of cells at or above `threshold_k` (hotspot count).
    pub fn hotspot_count(&self, threshold_k: f64) -> usize {
        self.temps.iter().filter(|&&t| t >= threshold_k).count()
    }
}

/// Over-relaxation factor for the red-black sweep. The resistive grids
/// this crate solves are small (hundreds of cells) and strongly
/// anisotropic (vertical conduction dominates, the sink coupling is
/// weak), which makes plain Gauss-Seidel crawl; a fixed aggressive
/// factor inside the guaranteed-convergent `(0, 2)` band for symmetric
/// positive-definite systems cuts iteration counts by an order of
/// magnitude across the paper's M3D/TSV configurations (empirically
/// tuned: 1.85 balances the two stacks best).
const SOR_OMEGA: f64 = 1.85;

/// Cells below this count are swept on the calling thread; per-sweep
/// worker spawning only pays off on grids far larger than the paper's.
const PAR_THRESHOLD: usize = 16_384;

/// The iteration-invariant part of the stencil, precomputed once per
/// solve into flat arrays: per-cell conductance sums, the constant
/// right-hand side (injected power plus the tier-0 sink term), a CSR
/// neighbor list, and the two parity color classes.
struct Stencil {
    inv_g_sum: Vec<f64>,
    rhs: Vec<f64>,
    nbr_start: Vec<u32>,
    nbr: Vec<(u32, f64)>,
    colors: [Vec<u32>; 2],
}

impl Stencil {
    fn build(power: &PowerMap, cfg: &ThermalConfig) -> Stencil {
        let (w, h, tiers) = power.dims();
        let (wi, hi, ti) = (w as usize, h as usize, tiers as usize);
        let n = wi * hi * ti;
        let idx = |x: usize, y: usize, z: usize| (z * hi + y) * wi + x;

        let mut inv_g_sum = Vec::with_capacity(n);
        let mut rhs = Vec::with_capacity(n);
        let mut nbr_start = Vec::with_capacity(n + 1);
        let mut nbr: Vec<(u32, f64)> = Vec::with_capacity(6 * n);
        let mut colors = [Vec::new(), Vec::new()];
        nbr_start.push(0);
        for z in 0..ti {
            for y in 0..hi {
                for x in 0..wi {
                    let i = idx(x, y, z);
                    let mut g_sum = 0.0;
                    let mut push = |j: usize, g: f64| {
                        nbr.push((topology::narrow::u32_idx(j), g));
                        g_sum += g;
                    };
                    if x > 0 {
                        push(idx(x - 1, y, z), cfg.g_lateral);
                    }
                    if x + 1 < wi {
                        push(idx(x + 1, y, z), cfg.g_lateral);
                    }
                    if y > 0 {
                        push(idx(x, y - 1, z), cfg.g_lateral);
                    }
                    if y + 1 < hi {
                        push(idx(x, y + 1, z), cfg.g_lateral);
                    }
                    if z > 0 {
                        push(idx(x, y, z - 1), cfg.g_vertical);
                    }
                    if z + 1 < ti {
                        push(idx(x, y, z + 1), cfg.g_vertical);
                    }
                    let mut r = power.power[i];
                    if z == 0 {
                        g_sum += cfg.g_sink;
                        r += cfg.g_sink * cfg.ambient_k;
                    }
                    inv_g_sum.push(1.0 / g_sum);
                    rhs.push(r);
                    nbr_start.push(topology::narrow::u32_idx(nbr.len()));
                    colors[(x + y + z) & 1].push(topology::narrow::u32_idx(i));
                }
            }
        }
        Stencil {
            inv_g_sum,
            rhs,
            nbr_start,
            nbr,
            colors,
        }
    }

    /// One cell update: reads only opposite-color neighbors (every
    /// stencil neighbor differs by one in exactly one coordinate, so its
    /// parity flips) plus the cell's own previous value — which is why a
    /// color sweep can be chunked across workers without changing a bit.
    #[inline]
    fn relax(&self, temps: &[f64], i: usize) -> f64 {
        let (s, e) = (self.nbr_start[i] as usize, self.nbr_start[i + 1] as usize);
        let mut gt = self.rhs[i];
        for &(j, g) in &self.nbr[s..e] {
            gt += g * temps[j as usize];
        }
        (1.0 - SOR_OMEGA) * temps[i] + SOR_OMEGA * gt * self.inv_g_sum[i]
    }

    /// Sweeps one color class, returning the largest update. `threads`
    /// only changes wall-clock time: workers compute disjoint chunks from
    /// the same pre-sweep state and the results are written back in index
    /// order, bit-identical to the sequential loop.
    fn sweep_color(&self, temps: &mut [f64], color: usize, threads: usize) -> f64 {
        let cells = &self.colors[color];
        if threads <= 1 || cells.len() < 2 {
            let mut max_delta = 0.0f64;
            for &iu in cells {
                let i = iu as usize;
                let t = self.relax(temps, i);
                let delta = (t - temps[i]).abs();
                if delta > max_delta {
                    max_delta = delta;
                }
                temps[i] = t;
            }
            return max_delta;
        }
        let chunk = cells.len().div_ceil(threads);
        let updated: Vec<(f64, Vec<f64>)> = std::thread::scope(|scope| {
            let shared: &[f64] = temps;
            let handles: Vec<_> = cells
                .chunks(chunk)
                .map(|c| {
                    scope.spawn(move || {
                        let mut vals = Vec::with_capacity(c.len());
                        let mut max_delta = 0.0f64;
                        for &iu in c {
                            let i = iu as usize;
                            let t = self.relax(shared, i);
                            let delta = (t - shared[i]).abs();
                            if delta > max_delta {
                                max_delta = delta;
                            }
                            vals.push(t);
                        }
                        (max_delta, vals)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thermal sweep worker panicked"))
                .collect()
        });
        let mut max_delta = 0.0f64;
        for (c, (d, vals)) in cells.chunks(chunk).zip(&updated) {
            max_delta = max_delta.max(*d);
            for (&iu, &t) in c.iter().zip(vals) {
                temps[iu as usize] = t;
            }
        }
        max_delta
    }
}

/// Solves the steady-state temperature field by red-black SOR
/// ([`solve_red_black`]), on one thread for the paper's grids.
pub fn solve(power: &PowerMap, cfg: &ThermalConfig) -> ThermalMap {
    solve_red_black(power, cfg, auto_threads(power))
}

/// [`solve`] that fails loudly instead of silently returning the last
/// sweep when the iteration cap is hit.
///
/// # Errors
///
/// [`ThermalError::NotConverged`] when `max_iters` sweeps left the
/// residual at or above [`ThermalConfig::tolerance_k`].
pub fn solve_checked(power: &PowerMap, cfg: &ThermalConfig) -> Result<ThermalMap, ThermalError> {
    let map = solve(power, cfg);
    if map.converged {
        Ok(map)
    } else {
        Err(ThermalError::NotConverged {
            iterations: map.iterations,
        })
    }
}

/// Worker count for [`solve`]: one thread below [`PAR_THRESHOLD`] cells
/// (the paper's grids), otherwise one per hardware thread.
fn auto_threads(power: &PowerMap) -> usize {
    if power.power.len() < PAR_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Red-black SOR over the resistive grid with an explicit worker count.
/// The result is bit-identical for any `threads` value (colors only read
/// the opposite color, chunks merge in index order); one iteration is one
/// full red+black sweep, comparable to a reference Gauss-Seidel sweep.
pub fn solve_red_black(power: &PowerMap, cfg: &ThermalConfig, threads: usize) -> ThermalMap {
    let (w, h, tiers) = power.dims();
    let st = Stencil::build(power, cfg);
    let mut temps = vec![cfg.ambient_k; power.power.len()];
    let threads = threads.max(1);

    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    for it in 0..cfg.max_iters {
        let d_red = st.sweep_color(&mut temps, 0, threads);
        let d_black = st.sweep_color(&mut temps, 1, threads);
        residual = d_red.max(d_black);
        iterations = it + 1;
        if residual < cfg.tolerance_k {
            break;
        }
    }
    ThermalMap {
        w,
        h,
        tiers,
        temps,
        iterations,
        residual_k: residual,
        converged: residual < cfg.tolerance_k,
    }
}

/// The seed's sequential Gauss-Seidel solver, kept verbatim as the
/// reference oracle: lexicographic sweeps, stencil conductances
/// recomputed in every cell visit, no over-relaxation. Tests assert the
/// red-black path against it; `bench_thermal` and the `pim-bench perf`
/// solver micro-benchmark measure the speedup over it.
pub fn solve_reference(power: &PowerMap, cfg: &ThermalConfig) -> ThermalMap {
    let (w, h, tiers) = power.dims();
    let (wi, hi, ti) = (w as usize, h as usize, tiers as usize);
    let n = wi * hi * ti;
    let mut temps = vec![cfg.ambient_k; n];
    let idx = |x: usize, y: usize, z: usize| (z * hi + y) * wi + x;

    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    for it in 0..cfg.max_iters {
        let mut max_delta = 0.0f64;
        for z in 0..ti {
            for y in 0..hi {
                for x in 0..wi {
                    let i = idx(x, y, z);
                    let mut g_sum = 0.0;
                    let mut gt_sum = 0.0;
                    if x > 0 {
                        g_sum += cfg.g_lateral;
                        gt_sum += cfg.g_lateral * temps[idx(x - 1, y, z)];
                    }
                    if x + 1 < wi {
                        g_sum += cfg.g_lateral;
                        gt_sum += cfg.g_lateral * temps[idx(x + 1, y, z)];
                    }
                    if y > 0 {
                        g_sum += cfg.g_lateral;
                        gt_sum += cfg.g_lateral * temps[idx(x, y - 1, z)];
                    }
                    if y + 1 < hi {
                        g_sum += cfg.g_lateral;
                        gt_sum += cfg.g_lateral * temps[idx(x, y + 1, z)];
                    }
                    if z > 0 {
                        g_sum += cfg.g_vertical;
                        gt_sum += cfg.g_vertical * temps[idx(x, y, z - 1)];
                    }
                    if z + 1 < ti {
                        g_sum += cfg.g_vertical;
                        gt_sum += cfg.g_vertical * temps[idx(x, y, z + 1)];
                    }
                    if z == 0 {
                        g_sum += cfg.g_sink;
                        gt_sum += cfg.g_sink * cfg.ambient_k;
                    }
                    let t_new = (gt_sum + power.power[i]) / g_sum;
                    let delta = (t_new - temps[i]).abs();
                    if delta > max_delta {
                        max_delta = delta;
                    }
                    temps[i] = t_new;
                }
            }
        }
        iterations = it + 1;
        residual = max_delta;
        if max_delta < cfg.tolerance_k {
            break;
        }
    }
    ThermalMap {
        w,
        h,
        tiers,
        temps,
        iterations,
        residual_k: residual,
        converged: residual < cfg.tolerance_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_power_is_ambient() {
        let power = PowerMap::new(4, 4, 2).unwrap();
        let map = solve(&power, &ThermalConfig::m3d());
        assert!((map.peak_k() - 300.0).abs() < 1e-6);
        assert!((map.mean_k() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn energy_balance_holds() {
        // In steady state, all injected power must leave through the sink:
        // sum over tier-0 cells of g_sink * (T - T_amb) == total power.
        let mut power = PowerMap::new(5, 5, 4).unwrap();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..4 {
                    power.set(x, y, z, 0.3).unwrap();
                }
            }
        }
        let cfg = ThermalConfig::m3d();
        let map = solve(&power, &cfg);
        let sink_w: f64 = (0..5)
            .flat_map(|y| (0..5).map(move |x| (x, y)))
            .map(|(x, y)| cfg.g_sink * (map.get(x, y, 0) - cfg.ambient_k))
            .sum();
        let total = power.total_w();
        assert!(
            (sink_w - total).abs() / total < 1e-3,
            "sink {sink_w} W vs injected {total} W"
        );
    }

    #[test]
    fn far_tier_runs_hotter() {
        // Uniform power: the tier farthest from the sink is hottest.
        let mut power = PowerMap::new(5, 5, 4).unwrap();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..4 {
                    power.set(x, y, z, 0.4).unwrap();
                }
            }
        }
        let map = solve(&power, &ThermalConfig::m3d());
        let t0 = map.get(2, 2, 0);
        let t3 = map.get(2, 2, 3);
        assert!(t3 > t0, "bottom tier {t3} must exceed sink tier {t0}");
    }

    #[test]
    fn hotspot_location_found() {
        let mut power = PowerMap::new(5, 5, 4).unwrap();
        power.set(4, 1, 3, 3.0).unwrap();
        let map = solve(&power, &ThermalConfig::m3d());
        assert_eq!(map.argmax(), (4, 1, 3));
        assert!(map.get(4, 1, 3) > map.get(0, 4, 0) + 1.0);
    }

    #[test]
    fn m3d_cooler_than_tsv() {
        // Same power map: the M3D stack's better vertical conduction
        // lowers the peak temperature (Section I).
        let mut power = PowerMap::new(5, 5, 4).unwrap();
        for x in 0..5 {
            for y in 0..5 {
                power.set(x, y, 3, 0.8).unwrap();
            }
        }
        let m3d = solve(&power, &ThermalConfig::m3d());
        let tsv = solve(&power, &ThermalConfig::tsv());
        assert!(
            m3d.peak_k() < tsv.peak_k(),
            "M3D {} K should beat TSV {} K",
            m3d.peak_k(),
            tsv.peak_k()
        );
    }

    #[test]
    fn spreading_power_lowers_peak() {
        // A concentrated column vs the same power spread over the system.
        let mut concentrated = PowerMap::new(5, 5, 4).unwrap();
        for z in 0..4 {
            concentrated.set(2, 2, z, 1.0).unwrap();
        }
        let mut spread = PowerMap::new(5, 5, 4).unwrap();
        for (i, (x, y)) in [(0u16, 0u16), (4, 0), (0, 4), (4, 4)].iter().enumerate() {
            spread
                .set(*x, *y, topology::narrow::u16_idx(i), 1.0)
                .unwrap();
        }
        let cfg = ThermalConfig::m3d();
        let peak_conc = solve(&concentrated, &cfg).peak_k();
        let peak_spread = solve(&spread, &cfg).peak_k();
        assert!(
            peak_conc > peak_spread + 1.0,
            "column {peak_conc} K vs spread {peak_spread} K"
        );
    }

    #[test]
    fn tier_slice_shape() {
        let power = PowerMap::new(3, 4, 2).unwrap();
        let map = solve(&power, &ThermalConfig::m3d());
        let slice = map.tier_slice(1);
        assert_eq!(slice.len(), 4);
        assert_eq!(slice[0].len(), 3);
    }

    #[test]
    fn hotspot_count_thresholds() {
        let mut power = PowerMap::new(4, 4, 1).unwrap();
        power.set(0, 0, 0, 5.0).unwrap();
        let map = solve(&power, &ThermalConfig::m3d());
        assert!(map.hotspot_count(300.0) == 16);
        assert!(map.hotspot_count(map.peak_k() + 1.0) == 0);
    }

    #[test]
    fn bounds_are_validated() {
        let mut power = PowerMap::new(3, 3, 1).unwrap();
        assert!(matches!(
            power.set(3, 0, 0, 1.0),
            Err(ThermalError::OutOfBounds { .. })
        ));
        assert!(PowerMap::new(0, 3, 1).is_err());
    }

    /// A representative non-uniform power map for solver-equivalence
    /// tests.
    fn gradient_power(w: u16, h: u16, tiers: u16) -> PowerMap {
        let mut power = PowerMap::new(w, h, tiers).unwrap();
        for x in 0..w {
            for y in 0..h {
                for z in 0..tiers {
                    power
                        .set(x, y, z, 0.1 + 0.05 * f64::from(x + 2 * y + 3 * z))
                        .unwrap();
                }
            }
        }
        power
    }

    #[test]
    fn red_black_agrees_with_the_reference_oracle() {
        // Both solvers iterate the same fixed-point equations; converged
        // runs must land within a few tolerances of each other on every
        // cell, for both stack configurations.
        for cfg in [ThermalConfig::m3d(), ThermalConfig::tsv()] {
            let power = gradient_power(5, 5, 4);
            let rb = solve_red_black(&power, &cfg, 1);
            let gs = solve_reference(&power, &cfg);
            assert!(rb.converged && gs.converged);
            for z in 0..4 {
                for y in 0..5 {
                    for x in 0..5 {
                        let (a, b) = (rb.get(x, y, z), gs.get(x, y, z));
                        assert!((a - b).abs() < 5e-4, "cell ({x},{y},{z}): rb {a} vs gs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn red_black_converges_much_faster_than_the_reference() {
        let power = gradient_power(5, 5, 4);
        let cfg = ThermalConfig::m3d();
        let rb = solve_red_black(&power, &cfg, 1);
        let gs = solve_reference(&power, &cfg);
        assert!(
            gs.iterations >= 3 * rb.iterations,
            "SOR must cut sweeps >=3x: reference {} vs red-black {}",
            gs.iterations,
            rb.iterations
        );
    }

    #[test]
    fn red_black_is_thread_count_independent() {
        // Colors only read the opposite color, so chunking a sweep across
        // any worker count is bit-identical to the sequential loop.
        let power = gradient_power(6, 5, 4);
        let cfg = ThermalConfig::m3d();
        let one = solve_red_black(&power, &cfg, 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(solve_red_black(&power, &cfg, threads), one);
        }
    }

    #[test]
    fn converged_runs_report_residual_under_tolerance() {
        let power = gradient_power(5, 5, 4);
        let cfg = ThermalConfig::m3d();
        let map = solve(&power, &cfg);
        assert!(map.converged);
        assert!(map.residual_k < cfg.tolerance_k);
        assert!(map.iterations < cfg.max_iters);
        let checked = solve_checked(&power, &cfg).expect("converges");
        assert_eq!(checked, map);
    }

    #[test]
    fn capped_runs_are_flagged_not_silent() {
        // An unreachable tolerance within 3 sweeps: the map must say so
        // and the checked API must turn it into a typed error.
        let power = gradient_power(5, 5, 4);
        let cfg = ThermalConfig {
            max_iters: 3,
            tolerance_k: 1e-12,
            ..ThermalConfig::m3d()
        };
        let map = solve(&power, &cfg);
        assert!(!map.converged);
        assert_eq!(map.iterations, 3);
        assert!(map.residual_k >= cfg.tolerance_k);
        assert_eq!(
            solve_checked(&power, &cfg),
            Err(ThermalError::NotConverged { iterations: 3 })
        );
    }

    #[test]
    fn paper_scale_temperatures() {
        // A 100-PE system at ~0.5 W/PE should land peak temperatures in
        // the 330-370 K band where the ReRAM accuracy effects of Fig. 6
        // operate.
        let mut power = PowerMap::new(5, 5, 4).unwrap();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..4 {
                    power.set(x, y, z, 0.5).unwrap();
                }
            }
        }
        let map = solve(&power, &ThermalConfig::m3d());
        let peak = map.peak_k();
        assert!(
            (325.0..385.0).contains(&peak),
            "peak {peak} K outside the paper's operating band"
        );
    }
}
