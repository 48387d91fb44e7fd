//! Weighted-sum simulated annealing — the solver behind the joint
//! performance-thermal placement of Section III.

use rand::RngExt;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::problem::Problem;

/// Simulated-annealing configuration.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SaConfig {
    /// Iterations.
    pub iterations: u32,
    /// Initial temperature (in units of the weighted objective).
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Per-objective weights for the scalarized cost (lengths must match
    /// the problem's objective vector).
    pub weights: Vec<f64>,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 5000,
            t_start: 1.0,
            t_end: 1e-3,
            weights: vec![1.0],
            seed: 0x5EED,
        }
    }
}

/// Outcome of an annealing run.
#[derive(Clone, Debug, PartialEq)]
pub struct SaResult<S> {
    /// Best solution found.
    pub solution: S,
    /// Its objective vector.
    pub objectives: Vec<f64>,
    /// Its scalarized cost.
    pub cost: f64,
    /// Accepted moves (diagnostic).
    pub accepted: u32,
}

fn scalarize(objs: &[f64], weights: &[f64]) -> f64 {
    objs.iter().zip(weights).map(|(o, w)| o * w).sum()
}

/// Minimizes the weighted objective sum by simulated annealing with a
/// geometric cooling schedule.
///
/// # Panics
///
/// Panics if the weight vector length does not match the problem's
/// objective count.
pub fn simulated_annealing<P: Problem>(problem: &P, cfg: &SaConfig) -> SaResult<P::Solution> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut current = problem.random_solution(&mut rng);
    let mut cur_objs = problem.objectives(&current);
    assert_eq!(
        cur_objs.len(),
        cfg.weights.len(),
        "weight vector must match the objective count"
    );
    let mut cur_cost = scalarize(&cur_objs, &cfg.weights);
    let mut best = current.clone();
    let mut best_objs = cur_objs.clone();
    let mut best_cost = cur_cost;
    let mut accepted = 0;

    let iters = cfg.iterations.max(1);
    let alpha = (cfg.t_end / cfg.t_start).powf(1.0 / iters as f64);
    let mut temp = cfg.t_start;
    for _ in 0..iters {
        let cand = problem.neighbor(&current, &mut rng);
        let objs = problem.objectives(&cand);
        let cost = scalarize(&objs, &cfg.weights);
        let delta = cost - cur_cost;
        if delta <= 0.0 || rng.random::<f64>() < (-delta / temp.max(1e-12)).exp() {
            current = cand;
            cur_objs = objs;
            cur_cost = cost;
            accepted += 1;
            if cur_cost < best_cost {
                best = current.clone();
                best_objs = cur_objs.clone();
                best_cost = cur_cost;
            }
        }
        temp *= alpha;
    }
    SaResult {
        solution: best,
        objectives: best_objs,
        cost: best_cost,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::permutation;

    /// Toy problem: order `0..n` — cost is the number of inversions.
    struct SortProblem {
        n: usize,
    }

    impl Problem for SortProblem {
        type Solution = Vec<usize>;

        fn random_solution(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
            permutation::random(self.n, rng)
        }

        fn neighbor(&self, s: &Vec<usize>, rng: &mut ChaCha8Rng) -> Vec<usize> {
            permutation::swap_mutate(s, rng)
        }

        fn objectives(&self, s: &Vec<usize>) -> Vec<f64> {
            let mut inversions = 0;
            for i in 0..s.len() {
                for j in i + 1..s.len() {
                    if s[i] > s[j] {
                        inversions += 1;
                    }
                }
            }
            vec![inversions as f64]
        }
    }

    #[test]
    fn sa_sorts_a_permutation() {
        let p = SortProblem { n: 10 };
        let cfg = SaConfig {
            iterations: 20_000,
            t_start: 5.0,
            ..SaConfig::default()
        };
        let res = simulated_annealing(&p, &cfg);
        assert_eq!(res.cost, 0.0, "SA should fully sort 10 elements");
        assert_eq!(res.solution, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let p = SortProblem { n: 8 };
        let cfg = SaConfig {
            iterations: 500,
            ..SaConfig::default()
        };
        let a = simulated_annealing(&p, &cfg);
        let b = simulated_annealing(&p, &cfg);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn sa_improves_over_random() {
        let p = SortProblem { n: 12 };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let random_cost = p.objectives(&p.random_solution(&mut rng))[0];
        let res = simulated_annealing(
            &p,
            &SaConfig {
                iterations: 5000,
                t_start: 3.0,
                ..SaConfig::default()
            },
        );
        assert!(res.cost < random_cost);
    }

    #[test]
    #[should_panic(expected = "weight vector")]
    fn weight_mismatch_panics() {
        let p = SortProblem { n: 4 };
        let cfg = SaConfig {
            weights: vec![1.0, 2.0],
            ..SaConfig::default()
        };
        let _ = simulated_annealing(&p, &cfg);
    }
}
