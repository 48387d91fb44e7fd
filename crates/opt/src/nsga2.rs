//! NSGA-II-style multi-objective evolutionary search (mutation-based)
//! producing the performance-temperature Pareto front of the Section III
//! design-space exploration.

use rand::RngExt;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::problem::{dominates, Problem};

/// NSGA-II configuration.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct NsgaConfig {
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NsgaConfig {
    fn default() -> Self {
        NsgaConfig {
            population: 40,
            generations: 60,
            seed: 0x4E53_4741, // "NSGA"
        }
    }
}

/// One Pareto-front member.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontPoint<S> {
    /// The solution.
    pub solution: S,
    /// Its objective vector.
    pub objectives: Vec<f64>,
}

/// Fast non-dominated sorting: returns front indices per individual
/// (0 = non-dominated).
pub fn non_dominated_sort(objs: &[Vec<f64>]) -> Vec<usize> {
    let n = objs.len();
    let mut dominated_by = vec![0usize; n]; // count of dominators
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if dominates(&objs[i], &objs[j]) {
                dominates_list[i].push(j);
            } else if dominates(&objs[j], &objs[i]) {
                dominated_by[i] += 1;
            }
        }
    }
    let mut rank = vec![usize::MAX; n];
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    let mut level = 0;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            rank[i] = level;
            for &j in &dominates_list[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        current = next;
        level += 1;
    }
    rank
}

/// Crowding distance within one front (bigger = more isolated = kept).
pub fn crowding_distance(objs: &[Vec<f64>], members: &[usize]) -> Vec<f64> {
    let m = members.len();
    let mut dist = vec![0.0f64; m];
    if m == 0 {
        return dist;
    }
    let k = objs[members[0]].len();
    // `obj` selects a column across many `objs` rows; a range loop is the
    // direct expression.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..k {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            objs[members[a]][obj]
                .partial_cmp(&objs[members[b]][obj])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let lo = objs[members[order[0]]][obj];
        let hi = objs[members[order[m - 1]]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        if (hi - lo).abs() < 1e-30 {
            continue;
        }
        for w in 1..m - 1 {
            let prev = objs[members[order[w - 1]]][obj];
            let next = objs[members[order[w + 1]]][obj];
            dist[order[w]] += (next - prev) / (hi - lo);
        }
    }
    dist
}

/// Runs the evolutionary search and returns the final non-dominated front
/// sorted by the first objective.
pub fn nsga2<P: Problem>(problem: &P, cfg: &NsgaConfig) -> Vec<FrontPoint<P::Solution>> {
    assert!(cfg.population >= 4, "population must be at least 4");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut pop: Vec<P::Solution> = (0..cfg.population)
        .map(|_| problem.random_solution(&mut rng))
        .collect();
    let mut objs: Vec<Vec<f64>> = pop.iter().map(|s| problem.objectives(s)).collect();

    for _ in 0..cfg.generations {
        // Offspring via tournament selection + mutation.
        let mut children: Vec<P::Solution> = Vec::with_capacity(cfg.population);
        let rank = non_dominated_sort(&objs);
        for _ in 0..cfg.population {
            let a = rng.random_range(0..pop.len());
            let b = rng.random_range(0..pop.len());
            let parent = if rank[a] <= rank[b] { &pop[a] } else { &pop[b] };
            children.push(problem.neighbor(parent, &mut rng));
        }
        let child_objs: Vec<Vec<f64>> = children.iter().map(|s| problem.objectives(s)).collect();
        pop.extend(children);
        objs.extend(child_objs);

        // Environmental selection: fronts then crowding.
        let rank = non_dominated_sort(&objs);
        let max_rank = rank.iter().copied().max().unwrap_or(0);
        let mut selected: Vec<usize> = Vec::with_capacity(cfg.population);
        for level in 0..=max_rank {
            let members: Vec<usize> = (0..pop.len()).filter(|&i| rank[i] == level).collect();
            if selected.len() + members.len() <= cfg.population {
                selected.extend(&members);
            } else {
                let crowd = crowding_distance(&objs, &members);
                let mut order: Vec<usize> = (0..members.len()).collect();
                order.sort_by(|&a, &b| {
                    crowd[b]
                        .partial_cmp(&crowd[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| members[a].cmp(&members[b]))
                });
                for &w in order.iter().take(cfg.population - selected.len()) {
                    selected.push(members[w]);
                }
                break;
            }
        }
        pop = selected.iter().map(|&i| pop[i].clone()).collect();
        objs = selected.iter().map(|&i| objs[i].clone()).collect();
    }

    // Extract the final front.
    let rank = non_dominated_sort(&objs);
    let mut front: Vec<FrontPoint<P::Solution>> = (0..pop.len())
        .filter(|&i| rank[i] == 0)
        .map(|i| FrontPoint {
            solution: pop[i].clone(),
            objectives: objs[i].clone(),
        })
        .collect();
    front.sort_by(|a, b| {
        a.objectives[0]
            .partial_cmp(&b.objectives[0])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Deduplicate identical objective vectors for a clean front.
    front.dedup_by(|a, b| a.objectives == b.objectives);
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::permutation;

    /// Bi-objective toy: a permutation scored by (inversions,
    /// anti-inversions). Sorted ascending minimizes the first, sorted
    /// descending the second; the Pareto front spans the trade-off.
    struct BiSort {
        n: usize,
    }

    impl Problem for BiSort {
        type Solution = Vec<usize>;

        fn random_solution(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
            permutation::random(self.n, rng)
        }

        fn neighbor(&self, s: &Vec<usize>, rng: &mut ChaCha8Rng) -> Vec<usize> {
            permutation::swap_mutate(s, rng)
        }

        fn objectives(&self, s: &Vec<usize>) -> Vec<f64> {
            let mut inv = 0;
            let mut anti = 0;
            for i in 0..s.len() {
                for j in i + 1..s.len() {
                    if s[i] > s[j] {
                        inv += 1;
                    } else {
                        anti += 1;
                    }
                }
            }
            vec![inv as f64, anti as f64]
        }
    }

    #[test]
    fn sorting_ranks_are_consistent() {
        let objs = vec![
            vec![1.0, 1.0], // dominates everything
            vec![2.0, 2.0],
            vec![1.0, 3.0],
            vec![3.0, 1.0],
        ];
        let rank = non_dominated_sort(&objs);
        assert_eq!(rank[0], 0);
        assert!(rank[1] > 0);
        // (1,3) and (3,1) are mutually non-dominated but dominated by (1,1)?
        // (1,1) vs (1,3): no worse and strictly better -> dominated.
        assert!(rank[2] > 0);
        assert!(rank[3] > 0);
    }

    #[test]
    fn crowding_prefers_extremes() {
        let objs = vec![
            vec![0.0, 10.0],
            vec![5.0, 5.0],
            vec![10.0, 0.0],
            vec![5.1, 4.9],
        ];
        let members: Vec<usize> = (0..4).collect();
        let d = crowding_distance(&objs, &members);
        assert!(d[0].is_infinite());
        assert!(d[2].is_infinite());
        assert!(d[1] >= d[3] || d[3] >= 0.0);
    }

    #[test]
    fn nsga2_finds_a_spread_front() {
        let p = BiSort { n: 8 };
        let cfg = NsgaConfig {
            population: 24,
            generations: 40,
            seed: 11,
        };
        let front = nsga2(&p, &cfg);
        assert!(!front.is_empty());
        // The front must be mutually non-dominated.
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
        // Total inversions+anti = C(8,2) = 28 on every point.
        for pt in &front {
            assert_eq!(pt.objectives[0] + pt.objectives[1], 28.0);
        }
        // The extremes should be approached.
        let best_first = front[0].objectives[0];
        assert!(best_first <= 4.0, "front should near the sorted extreme");
    }

    #[test]
    fn nsga2_is_deterministic() {
        let p = BiSort { n: 6 };
        let cfg = NsgaConfig {
            population: 16,
            generations: 15,
            seed: 3,
        };
        let a = nsga2(&p, &cfg);
        let b = nsga2(&p, &cfg);
        let ao: Vec<_> = a.iter().map(|x| x.objectives.clone()).collect();
        let bo: Vec<_> = b.iter().map(|x| x.objectives.clone()).collect();
        assert_eq!(ao, bo);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let p = BiSort { n: 4 };
        let _ = nsga2(
            &p,
            &NsgaConfig {
                population: 2,
                generations: 1,
                seed: 0,
            },
        );
    }
}
