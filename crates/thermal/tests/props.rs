//! Property-based tests of the thermal solver's physical invariants, and
//! of the exact solve against the Gauss-Seidel reference oracle.

use proptest::prelude::*;
use thermal::{solve, solve_reference, PowerMap, ThermalConfig};

/// Grid shapes of the oracle check: the paper's stack, a small stack, a
/// single tier and a tall column.
const SHAPES: [(u16, u16, u16); 4] = [(5, 5, 4), (4, 4, 2), (3, 7, 1), (2, 2, 6)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Superposition: the temperature rise of the sum of two power maps
    /// equals the sum of the rises (the system is linear).
    #[test]
    fn solver_is_linear(
        x1 in 0u16..4, y1 in 0u16..4, p1 in 0.1f64..3.0,
        x2 in 0u16..4, y2 in 0u16..4, p2 in 0.1f64..3.0,
    ) {
        let cfg = ThermalConfig::m3d();
        let mut a = PowerMap::new(4, 4, 2).unwrap();
        a.set(x1, y1, 0, p1).unwrap();
        let mut b = PowerMap::new(4, 4, 2).unwrap();
        b.set(x2, y2, 1, p2).unwrap();
        let mut ab = PowerMap::new(4, 4, 2).unwrap();
        ab.add(x1, y1, 0, p1).unwrap();
        ab.add(x2, y2, 1, p2).unwrap();

        let ta = solve(&a, &cfg);
        let tb = solve(&b, &cfg);
        let tab = solve(&ab, &cfg);
        for z in 0..2 {
            for y in 0..4 {
                for x in 0..4 {
                    let superposed =
                        ta.get(x, y, z) + tb.get(x, y, z) - cfg.ambient_k;
                    prop_assert!((tab.get(x, y, z) - superposed).abs() < 1e-3);
                }
            }
        }
    }

    /// Monotonicity: adding power anywhere cannot cool any cell.
    #[test]
    fn more_power_never_cools(
        x in 0u16..4, y in 0u16..4, z in 0u16..2, extra in 0.1f64..2.0,
    ) {
        let cfg = ThermalConfig::m3d();
        let mut base = PowerMap::new(4, 4, 2).unwrap();
        base.set(1, 1, 1, 1.0).unwrap();
        let t0 = solve(&base, &cfg);
        base.add(x, y, z, extra).unwrap();
        let t1 = solve(&base, &cfg);
        for zz in 0..2 {
            for yy in 0..4 {
                for xx in 0..4 {
                    prop_assert!(t1.get(xx, yy, zz) >= t0.get(xx, yy, zz) - 1e-6);
                }
            }
        }
    }

    /// All temperatures stay at or above ambient (no spontaneous cooling).
    #[test]
    fn no_cell_below_ambient(watts in prop::collection::vec(0.0f64..2.0, 8)) {
        let cfg = ThermalConfig::m3d();
        let mut power = PowerMap::new(4, 2, 1).unwrap();
        for (i, &w) in watts.iter().enumerate() {
            power.set((i % 4) as u16, (i / 4) as u16, 0, w).unwrap();
        }
        let map = solve(&power, &cfg);
        prop_assert!(map.mean_k() >= cfg.ambient_k - 1e-9);
        prop_assert!(map.peak_k() >= cfg.ambient_k - 1e-9);
    }

    /// The exact solve agrees with a tightly converged Gauss-Seidel run
    /// on every cell, on every oracle shape and both stacks, and passes
    /// its own residual check.
    #[test]
    fn exact_solve_matches_the_reference_oracle(
        shape in 0usize..SHAPES.len(),
        tsv in any::<bool>(),
        watts in prop::collection::vec(0.0f64..2.0, 100),
    ) {
        let (w, h, tiers) = SHAPES[shape];
        let cfg = if tsv { ThermalConfig::tsv() } else { ThermalConfig::m3d() };
        let mut power = PowerMap::new(w, h, tiers).unwrap();
        let cells = (0..tiers)
            .flat_map(|z| (0..h).flat_map(move |y| (0..w).map(move |x| (x, y, z))));
        for ((x, y, z), &p) in cells.clone().zip(&watts) {
            power.set(x, y, z, p).unwrap();
        }
        let exact = solve(&power, &cfg);
        prop_assert!(exact.converged && exact.residual_k < cfg.tolerance_k);
        let oracle = ThermalConfig { tolerance_k: 1e-12, max_iters: 1_000_000, ..cfg };
        let reference = solve_reference(&power, &oracle);
        prop_assert!(reference.converged);
        for (x, y, z) in cells {
            let (a, b) = (exact.get(x, y, z), reference.get(x, y, z));
            prop_assert!((a - b).abs() < 1e-8, "cell ({}, {}, {}): {} vs {}", x, y, z, a, b);
        }
    }
}
