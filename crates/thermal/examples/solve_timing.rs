//! Times the exact thermal solve on the paper's 5×5×4 grid against the
//! seed Gauss-Seidel oracle ([`thermal::solve_reference`]), for both
//! stack configurations: building the banded factor (a `Platform3D` pays
//! it once), one exact solve with that factor, and one reference solve.
//! Wall-clock means over fixed repetitions; build in release:
//!
//! ```text
//! cargo run --release -p thermal --example solve_timing
//! ```

use std::hint::black_box;
use std::time::Instant;

use thermal::{solve_reference, PowerMap, ThermalConfig, ThermalError, ThermalSolver};

/// Mean wall time of `reps` calls of `f`, milliseconds.
fn mean_ms(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

fn main() -> Result<(), ThermalError> {
    let (w, h, tiers) = (5, 5, 4);
    let mut power = PowerMap::new(w, h, tiers)?;
    for x in 0..w {
        for y in 0..h {
            for z in 0..tiers {
                power.set(x, y, z, 0.3 + 0.05 * f64::from(x + y + z))?;
            }
        }
    }
    for (stack, cfg) in [("m3d", ThermalConfig::m3d()), ("tsv", ThermalConfig::tsv())] {
        let solver = ThermalSolver::new(w, h, tiers, &cfg)?;
        let factor_ms = mean_ms(200, || {
            black_box(ThermalSolver::new(w, h, tiers, black_box(&cfg)).expect("factored above"));
        });
        let exact_ms = mean_ms(2_000, || {
            black_box(solver.solve(black_box(&power)));
        });
        let reference_ms = mean_ms(20, || {
            black_box(solve_reference(black_box(&power), &cfg));
        });
        let (exact, reference) = (solver.solve(&power), solve_reference(&power, &cfg));
        println!(
            "{stack} {w}x{h}x{tiers}: factor {factor_ms:.4} ms (half-bandwidth {}), exact solve \
             {exact_ms:.4} ms, Gauss-Seidel {reference_ms:.3} ms ({} sweeps) = {:.0}x; \
             peaks {:.4} / {:.4} K",
            solver.half_bandwidth(),
            reference.iterations,
            reference_ms / exact_ms,
            exact.peak_k(),
            reference.peak_k(),
        );
    }
    Ok(())
}
