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
//! The conductances are the same for every power map, so the grid is
//! one symmetric positive-definite system `A θ = P` in the temperature
//! rise `θ = T − T_amb`, solved exactly. A [`ThermalSolver`] factors `A`
//! once per grid and config (a banded Cholesky factor, unknowns ordered
//! with the largest grid dimension outermost) and solves each power map
//! by two banded substitutions; [`solve`] and [`solve_checked`] build
//! one for a single map. The seed's sequential Gauss-Seidel is kept
//! verbatim as a reference oracle ([`solve_reference`]) for tests, the
//! criterion benches and the solver micro-benchmark of
//! `pim-bench perf`; nothing in the pipeline calls it.
//!
//! Every solve reports [`ThermalMap::residual_k`] and a
//! [`ThermalMap::converged`] flag. For the exact solve the residual is an
//! explicit check: the largest update one Jacobi sweep would make to the
//! solution. [`solve_checked`] turns a residual at or above
//! [`ThermalConfig::tolerance_k`] into a typed
//! [`ThermalError::NotConverged`] instead of silently returning the map.
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

/// Error produced by power-map construction, solver construction or a
/// checked solve.
#[derive(Clone, PartialEq, Debug)]
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
    /// The named [`ThermalConfig`] field is outside the range in which
    /// the conductance matrix is symmetric positive definite: a
    /// conductance that is not finite and positive, or a non-finite
    /// ambient.
    NonPhysical(&'static str),
    /// The conductances are valid but so far apart (e.g. a `1e-300`
    /// next to a `0.05`) that rounding left a pivot of the factor that
    /// is not positive and finite.
    IllConditioned,
    /// [`solve_checked`]'s residual check found the solution's largest
    /// one-sweep Jacobi update at or above [`ThermalConfig::tolerance_k`].
    NotConverged {
        /// That update, K.
        residual_k: f64,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::EmptyGrid => write!(f, "thermal grid must be non-empty"),
            ThermalError::OutOfBounds { coord, dims } => {
                write!(f, "cell {coord:?} outside grid of {dims:?}")
            }
            ThermalError::NonPhysical(field) => {
                let expected = if *field == "ambient_k" {
                    "finite"
                } else {
                    "finite and > 0"
                };
                write!(f, "thermal `{field}` must be {expected}")
            }
            ThermalError::IllConditioned => {
                write!(f, "thermal conductances too far apart to factor in f64")
            }
            ThermalError::NotConverged { residual_k } => {
                write!(
                    f,
                    "thermal solve residual {residual_k:e} K is not under the tolerance"
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
    /// Sweep cap of the Gauss-Seidel reference [`solve_reference`]; the
    /// exact solve does not iterate.
    pub max_iters: u32,
    /// Residual bound, K: a solve is [`ThermalMap::converged`] when its
    /// largest one-cell update (the last Gauss-Seidel sweep's, or one
    /// Jacobi sweep's after the exact solve) is under it.
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

    /// Checks the fields that make the grid's conductance matrix
    /// symmetric positive definite: the first of `g_lateral`,
    /// `g_vertical` and `g_sink` that is not finite and positive, else a
    /// non-finite `ambient_k`, is a [`ThermalError::NonPhysical`].
    fn validate(&self) -> Result<(), ThermalError> {
        let positive = |g: f64| g.is_finite() && g > 0.0;
        let checks = [
            ("g_lateral", positive(self.g_lateral)),
            ("g_vertical", positive(self.g_vertical)),
            ("g_sink", positive(self.g_sink)),
            ("ambient_k", self.ambient_k.is_finite()),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            Some(&(field, _)) => Err(ThermalError::NonPhysical(field)),
            None => Ok(()),
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
    /// Gauss-Seidel sweeps used by [`solve_reference`]; 0 for the exact
    /// solve, which does not iterate.
    pub iterations: u32,
    /// Residual, K: the largest temperature update of the last
    /// Gauss-Seidel sweep, or, after the exact solve, the largest update
    /// one Jacobi sweep would make to its solution.
    pub residual_k: f64,
    /// Whether [`Self::residual_k`] is under
    /// [`ThermalConfig::tolerance_k`] (for [`solve_reference`]: before
    /// the [`ThermalConfig::max_iters`] cap).
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

/// The exact steady-state solver for one grid and [`ThermalConfig`]:
/// [`Self::new`] factors the grid's conductance matrix once, `A = L Lᵀ`
/// (banded Cholesky), and [`Self::solve`] costs two banded substitutions
/// per power map. Unknowns are ordered with the largest grid dimension
/// outermost, so the half-bandwidth is `n / max(w, h, tiers)`.
#[derive(Clone, Debug)]
pub struct ThermalSolver {
    cfg: ThermalConfig,
    dims: [usize; 3],
    /// Step of x, y and z in the solve order.
    stride: [usize; 3],
    bw: usize,
    /// `L[i][j]` (`i - bw <= j <= i`) at `(i + 1) * bw + j`.
    l: Vec<f64>,
}

/// Strides of x, y and z with the largest dimension outermost, and the
/// half-bandwidth that order gives.
fn solve_order(dims: [usize; 3]) -> ([usize; 3], usize) {
    let mut axes = [0, 1, 2];
    axes.sort_by_key(|&a| dims[a]);
    let (mut stride, mut step) = ([0; 3], 1);
    for a in axes {
        stride[a] = step;
        step *= dims[a];
    }
    (stride, stride[axes[2]])
}

impl ThermalSolver {
    /// Assembles and factors the conductance matrix of a `w × h × tiers`
    /// grid: a band of 100 × 21 floats on the paper's 5×5×4 stack.
    ///
    /// # Errors
    ///
    /// [`ThermalError::EmptyGrid`] for a zero dimension, else
    /// [`ThermalError::NonPhysical`] naming the first of `g_lateral`,
    /// `g_vertical` and `g_sink` that is not finite and positive, or a
    /// non-finite `ambient_k`; [`ThermalError::IllConditioned`] when
    /// rounding leaves a pivot that is not positive and finite.
    pub fn new(w: u16, h: u16, tiers: u16, cfg: &ThermalConfig) -> Result<Self, ThermalError> {
        if w == 0 || h == 0 || tiers == 0 {
            return Err(ThermalError::EmptyGrid);
        }
        cfg.validate()?;
        let dims = [w, h, tiers].map(usize::from);
        let (stride, bw) = solve_order(dims);
        let n = dims.iter().product::<usize>();
        let mut s = ThermalSolver {
            cfg: cfg.clone(),
            dims,
            stride,
            bw,
            l: vec![0.0; n * (bw + 1)],
        };
        let at = |i: usize, j: usize| (i + 1) * bw + j;
        for k in 0..n {
            let (i, sink, neighbors) = s.stencil(k);
            s.l[at(i, i)] = sink;
            for (j, g) in neighbors {
                s.l[at(i, i)] += g;
                if j < i {
                    s.l[at(i, j)] = -g;
                }
            }
        }
        // Row by row: L[i][j] = (A[i][j] - Σ_{k<j} L[i][k] L[j][k]) / L[j][j].
        let l = &mut s.l;
        for i in 0..n {
            let lo = i.saturating_sub(bw);
            for j in lo..=i {
                let v = l[at(i, j)] - (lo..j).map(|k| l[at(i, k)] * l[at(j, k)]).sum::<f64>();
                l[at(i, j)] = match (j < i, v > 0.0 && v.is_finite()) {
                    (true, _) => v / l[at(j, j)],
                    (false, true) => v.sqrt(),
                    (false, false) => return Err(ThermalError::IllConditioned),
                };
            }
        }
        Ok(s)
    }

    /// Half-bandwidth of the factor.
    pub fn half_bandwidth(&self) -> usize {
        self.bw
    }

    /// The cell at [`PowerMap`] index `k`: its solve-order position, its
    /// sink conductance and its neighbors' positions and conductances.
    fn stencil(&self, k: usize) -> (usize, f64, impl Iterator<Item = (usize, f64)>) {
        let (dims, stride) = (self.dims, self.stride);
        let [w, h, _] = dims;
        let c = [k % w, k / w % h, k / (w * h)];
        let i = (0..3).map(|a| c[a] * stride[a]).sum::<usize>();
        let g = [self.cfg.g_lateral, self.cfg.g_lateral, self.cfg.g_vertical];
        let neighbors = (0..3).flat_map(move |a| {
            let below = (c[a] > 0).then(|| (i - stride[a], g[a]));
            below
                .into_iter()
                .chain((c[a] + 1 < dims[a]).then(|| (i + stride[a], g[a])))
        });
        (i, if c[2] == 0 { self.cfg.g_sink } else { 0.0 }, neighbors)
    }

    /// Solves one power map for `θ = T − T_amb` (`L y = P`, then
    /// `Lᵀ θ = y`); [`ThermalMap::residual_k`] is the largest update one
    /// Jacobi sweep would then make.
    ///
    /// # Panics
    ///
    /// Panics if `power` is not on the solver's grid.
    pub fn solve(&self, power: &PowerMap) -> ThermalMap {
        let (w, h, tiers) = power.dims();
        assert_eq!(
            [w, h, tiers].map(usize::from),
            self.dims,
            "power map off the solver's grid"
        );
        let (n, bw) = (power.power.len(), self.bw);
        let mut theta = vec![0.0; n];
        for (k, &p) in power.power.iter().enumerate() {
            theta[self.stencil(k).0] = p;
        }
        for i in 0..n {
            let row = &self.l[(i + 1) * bw..];
            for k in i.saturating_sub(bw)..i {
                theta[i] -= row[k] * theta[k];
            }
            theta[i] /= row[i];
        }
        for i in (0..n).rev() {
            let row = &self.l[(i + 1) * bw..];
            theta[i] /= row[i];
            for k in i.saturating_sub(bw)..i {
                theta[k] -= row[k] * theta[i];
            }
        }
        // Residual check: the largest one-sweep Jacobi update; a NaN sticks.
        let (mut residual, mut temps) = (0.0f64, vec![0.0; n]);
        for (k, &p) in power.power.iter().enumerate() {
            let (i, sink, neighbors) = self.stencil(k);
            let (g_sum, flow) =
                neighbors.fold((sink, p), |(s, f), (j, g)| (s + g, f + g * theta[j]));
            let update = (flow / g_sum - theta[i]).abs();
            if update > residual || update.is_nan() {
                residual = update;
            }
            temps[k] = theta[i] + self.cfg.ambient_k;
        }
        ThermalMap {
            w,
            h,
            tiers,
            temps,
            iterations: 0,
            residual_k: residual,
            converged: residual < self.cfg.tolerance_k,
        }
    }
}

/// Solves the steady-state temperature field exactly, building a
/// [`ThermalSolver`] for this one map. Callers that solve many maps on
/// one grid build the solver once instead.
///
/// # Panics
///
/// Panics if [`ThermalSolver::new`] rejects `cfg` (a non-physical
/// conductance or ambient); [`solve_checked`] returns that error instead.
pub fn solve(power: &PowerMap, cfg: &ThermalConfig) -> ThermalMap {
    let (w, h, tiers) = power.dims();
    match ThermalSolver::new(w, h, tiers, cfg) {
        Ok(solver) => solver.solve(power),
        Err(e) => panic!("{e}"),
    }
}

/// [`solve`] that returns a rejected config as an error, and a map that
/// fails its residual check as [`ThermalError::NotConverged`] instead of
/// silently.
///
/// # Errors
///
/// The [`ThermalSolver::new`] errors, and [`ThermalError::NotConverged`]
/// when the residual is at or above [`ThermalConfig::tolerance_k`].
pub fn solve_checked(power: &PowerMap, cfg: &ThermalConfig) -> Result<ThermalMap, ThermalError> {
    let (w, h, tiers) = power.dims();
    let map = ThermalSolver::new(w, h, tiers, cfg)?.solve(power);
    if map.converged {
        Ok(map)
    } else {
        Err(ThermalError::NotConverged {
            residual_k: map.residual_k,
        })
    }
}

/// The seed's sequential Gauss-Seidel solver, kept verbatim as the
/// reference oracle: lexicographic sweeps, stencil conductances
/// recomputed in every cell visit, no over-relaxation. Tests assert the
/// exact solve against it; `bench_thermal` and the `pim-bench perf`
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

    /// The Gauss-Seidel oracle run far past the production tolerance.
    fn tight_reference(power: &PowerMap, cfg: &ThermalConfig) -> ThermalMap {
        let tight = ThermalConfig {
            max_iters: 1_000_000,
            tolerance_k: 1e-12,
            ..cfg.clone()
        };
        let gs = solve_reference(power, &tight);
        assert!(
            gs.converged,
            "reference capped at residual {}",
            gs.residual_k
        );
        gs
    }

    #[test]
    fn exact_solve_agrees_with_the_reference_oracle() {
        // The exact solve must match a tightly converged Gauss-Seidel run
        // on every cell, for both stack configurations.
        for cfg in [ThermalConfig::m3d(), ThermalConfig::tsv()] {
            let power = gradient_power(5, 5, 4);
            let exact = solve(&power, &cfg);
            let gs = tight_reference(&power, &cfg);
            assert!(exact.converged && exact.residual_k < cfg.tolerance_k);
            for z in 0..4 {
                for y in 0..5 {
                    for x in 0..5 {
                        let (a, b) = (exact.get(x, y, z), gs.get(x, y, z));
                        assert!((a - b).abs() < 1e-8, "cell ({x},{y},{z}): {a} vs gs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_factor_solves_every_power_map() {
        // A solver built once gives the same map as a one-off solve, for
        // several right-hand sides in a row.
        let cfg = ThermalConfig::tsv();
        let solver = ThermalSolver::new(6, 5, 3, &cfg).unwrap();
        for scale in [0.0, 1.0, 2.5] {
            let mut power = gradient_power(6, 5, 3);
            power.power.iter_mut().for_each(|p| *p *= scale);
            assert_eq!(solver.solve(&power), solve(&power, &cfg));
        }
    }

    #[test]
    fn half_bandwidth_is_the_grid_over_its_largest_dimension() {
        for (dims, bw) in [
            ([5, 5, 4], 20),
            ([16, 16, 16], 256),
            ([32, 32, 4], 128),
            ([1, 1, 64], 1),
            ([4, 7, 3], 12),
        ] {
            assert_eq!(solve_order(dims).1, bw, "grid {dims:?}");
        }
        assert_eq!(
            ThermalSolver::new(5, 5, 4, &ThermalConfig::m3d())
                .unwrap()
                .half_bandwidth(),
            20
        );
    }

    #[test]
    #[should_panic(expected = "power map off the solver's grid")]
    fn a_map_off_the_solver_grid_panics() {
        let solver = ThermalSolver::new(5, 5, 4, &ThermalConfig::m3d()).unwrap();
        solver.solve(&gradient_power(4, 5, 5));
    }

    #[test]
    fn converged_runs_report_residual_under_tolerance() {
        let power = gradient_power(5, 5, 4);
        let cfg = ThermalConfig::m3d();
        let map = solve(&power, &cfg);
        assert!(map.converged);
        assert!(map.residual_k < cfg.tolerance_k);
        assert_eq!(map.iterations, 0);
        let checked = solve_checked(&power, &cfg).expect("converges");
        assert_eq!(checked, map);
    }

    #[test]
    fn residuals_above_tolerance_are_flagged_not_silent() {
        // No residual is under a zero tolerance: the map must say so and
        // the checked API must turn it into a typed error.
        let power = gradient_power(5, 5, 4);
        let cfg = ThermalConfig {
            tolerance_k: 0.0,
            ..ThermalConfig::m3d()
        };
        let map = solve(&power, &cfg);
        assert!(!map.converged);
        assert!(map.residual_k >= cfg.tolerance_k);
        assert_eq!(
            solve_checked(&power, &cfg),
            Err(ThermalError::NotConverged {
                residual_k: map.residual_k
            })
        );
    }

    #[test]
    fn non_physical_configs_are_typed_errors() {
        let power = gradient_power(5, 5, 4);
        let cases = [
            (
                ThermalConfig {
                    g_sink: 0.0,
                    ..ThermalConfig::m3d()
                },
                "g_sink",
            ),
            (
                ThermalConfig {
                    g_lateral: f64::NAN,
                    ..ThermalConfig::m3d()
                },
                "g_lateral",
            ),
            (
                ThermalConfig {
                    g_vertical: -2.0,
                    ..ThermalConfig::tsv()
                },
                "g_vertical",
            ),
            (
                ThermalConfig {
                    ambient_k: f64::INFINITY,
                    ..ThermalConfig::m3d()
                },
                "ambient_k",
            ),
        ];
        for (cfg, field) in cases {
            let err = ThermalError::NonPhysical(field);
            assert_eq!(ThermalSolver::new(5, 5, 4, &cfg).unwrap_err(), err);
            assert_eq!(solve_checked(&power, &cfg), Err(err));
        }
    }

    #[test]
    #[should_panic(expected = "thermal `g_sink` must be finite and > 0")]
    fn solve_panics_on_a_non_physical_config() {
        let cfg = ThermalConfig {
            g_sink: 0.0,
            ..ThermalConfig::m3d()
        };
        solve(&gradient_power(5, 5, 4), &cfg);
    }

    #[test]
    fn pivots_lost_to_rounding_are_typed_errors() {
        // A vertical conductance of 1e-300 leaves the upper tiers'
        // lateral blocks singular in f64: valid fields, no usable factor.
        let cfg = ThermalConfig {
            g_vertical: 1e-300,
            ..ThermalConfig::m3d()
        };
        assert_eq!(
            ThermalSolver::new(5, 5, 4, &cfg).unwrap_err(),
            ThermalError::IllConditioned
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
