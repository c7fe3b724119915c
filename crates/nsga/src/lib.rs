#![warn(missing_docs)]

//! NSGA-II multi-objective genetic search.
//!
//! MACE (and KATO's modified constrained MACE, paper §3.3) propose batch
//! candidates from the Pareto frontier of several acquisition functions,
//! found with NSGA-II. This crate is that substrate: fast non-dominated
//! sorting, crowding distance, binary tournament selection, SBX crossover
//! and polynomial mutation over box-constrained real vectors in `[0,1]^d`.
//! The variation operators use the standard fixed settings: crossover
//! probability 0.9 with distribution index 15, and a per-gene mutation
//! probability of `1/d` with distribution index 20. A run is shaped only
//! by its dimension, population, generation count, seed and warm starts.
//!
//! All objectives are **maximised**; flip signs for minimisation.
//!
//! # Example — bi-objective trade-off
//!
//! ```
//! use kato_nsga::{Nsga2, Nsga2Config};
//!
//! // Maximise (x, 1-x): the Pareto front spans the whole segment.
//! let config = Nsga2Config {
//!     dim: 1,
//!     pop_size: 60,
//!     generations: 40,
//!     seed: 3,
//!     initial: Vec::new(),
//! };
//! let front = Nsga2::new(config)
//!     .run_batch(|xs| xs.iter().map(|x| vec![x[0], 1.0 - x[0]]).collect());
//! assert!(front.len() > 10);
//! ```

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration for an NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Config {
    /// Decision-vector dimensionality (box `[0,1]^dim`).
    pub dim: usize,
    /// Population size.
    pub pop_size: usize,
    /// Number of generations.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Points injected into the initial population (e.g. current best
    /// designs), truncated to `pop_size`.
    pub initial: Vec<Vec<f64>>,
}

/// One individual on the final Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Decision vector in `[0,1]^dim`.
    pub x: Vec<f64>,
    /// Objective values (maximised).
    pub objectives: Vec<f64>,
}

/// NSGA-II driver. Construct with a config, then [`Nsga2::run_batch`] with the
/// objective closure.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: Nsga2Config,
}

impl Nsga2 {
    /// Creates a driver.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `pop_size < 4`.
    #[must_use]
    pub fn new(config: Nsga2Config) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.pop_size >= 4, "population too small");
        Nsga2 { config }
    }

    /// [`Nsga2::run_batch`] with a point-wise objective closure, for tests.
    #[cfg(test)]
    pub fn run<F>(&self, mut objectives: F) -> Vec<ParetoPoint>
    where
        F: FnMut(&[f64]) -> Vec<f64>,
    {
        self.run_batch(|xs| xs.iter().map(|x| objectives(x)).collect())
    }

    /// Runs the search, returning the non-dominated set of the final
    /// population. The objective closure scores a whole population per
    /// call (one `Vec<f64>` of objective values per individual, in input
    /// order).
    ///
    /// This is the hook that lets surrogate-backed acquisition searches
    /// batch their posterior inference: every generation issues exactly one
    /// call for the offspring population (plus one for the initial
    /// population) instead of `pop_size` point-wise calls, so the caller
    /// can amortise shared linear algebra and fan the batch out across
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if the closure returns a different number of objective
    /// vectors than it was given.
    pub fn run_batch<F>(&self, mut objectives: F) -> Vec<ParetoPoint>
    where
        F: FnMut(&[Vec<f64>]) -> Vec<Vec<f64>>,
    {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Per-gene polynomial mutation probability.
        let pm = 1.0 / cfg.dim as f64;

        let mut pop: Vec<Vec<f64>> = Vec::with_capacity(cfg.pop_size);
        for init in cfg.initial.iter().take(cfg.pop_size) {
            let mut v = init.clone();
            v.resize(cfg.dim, 0.5);
            for g in v.iter_mut() {
                *g = g.clamp(0.0, 1.0);
            }
            pop.push(v);
        }
        while pop.len() < cfg.pop_size {
            pop.push((0..cfg.dim).map(|_| rng.gen::<f64>()).collect());
        }
        let mut objs: Vec<Vec<f64>> = objectives(&pop);
        assert_eq!(objs.len(), pop.len(), "batch objective count mismatch");

        for _ in 0..cfg.generations {
            // Rank current population for tournament selection.
            let (ranks, crowding) = rank_and_crowd(&objs);

            // Offspring.
            let mut children: Vec<Vec<f64>> = Vec::with_capacity(cfg.pop_size);
            while children.len() < cfg.pop_size {
                let p1 = tournament(&ranks, &crowding, &mut rng);
                let p2 = tournament(&ranks, &crowding, &mut rng);
                let (mut c1, mut c2) = sbx(&pop[p1], &pop[p2], &mut rng);
                mutate(&mut c1, pm, &mut rng);
                mutate(&mut c2, pm, &mut rng);
                children.push(c1);
                if children.len() < cfg.pop_size {
                    children.push(c2);
                }
            }
            let child_objs: Vec<Vec<f64>> = objectives(&children);
            assert_eq!(
                child_objs.len(),
                children.len(),
                "batch objective count mismatch"
            );

            // Environmental selection over the union.
            pop.extend(children);
            objs.extend(child_objs);
            let survivors = select(&objs, cfg.pop_size);
            pop = survivors.iter().map(|&i| pop[i].clone()).collect();
            objs = survivors.iter().map(|&i| objs[i].clone()).collect();
        }

        // Final non-dominated set.
        let fronts = fast_non_dominated_sort(&objs);
        fronts[0]
            .iter()
            .map(|&i| ParetoPoint {
                x: pop[i].clone(),
                objectives: objs[i].clone(),
            })
            .collect()
    }
}

/// `true` when `a` Pareto-dominates `b` (all ≥, one >), maximisation.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strictly = true;
        }
    }
    strictly
}

/// Fast non-dominated sort: returns fronts as index lists, best first.
#[must_use]
pub fn fast_non_dominated_sort(objs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objs.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut counts = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&objs[i], &objs[j]) {
                dominated_by[i].push(j);
                counts[j] += 1;
            } else if dominates(&objs[j], &objs[i]) {
                dominated_by[j].push(i);
                counts[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                counts[j] -= 1;
                if counts[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each index within one front.
#[must_use]
pub fn crowding_distance(objs: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let m = objs.first().map_or(0, Vec::len);
    let mut dist = vec![0.0_f64; front.len()];
    if front.len() <= 2 {
        return vec![f64::INFINITY; front.len()];
    }
    for k in 0..m {
        let mut order: Vec<usize> = (0..front.len()).collect();
        // NaN objectives (e.g. from a misbehaving simulator feeding the
        // surrogate) rank last instead of aborting the run.
        order.sort_by(|&a, &b| kato_linalg::cmp_nan_last(&objs[front[a]][k], &objs[front[b]][k]));
        let lo = objs[front[order[0]]][k];
        let hi = objs[front[order[front.len() - 1]]][k];
        let span = (hi - lo).max(1e-12);
        dist[order[0]] = f64::INFINITY;
        dist[order[front.len() - 1]] = f64::INFINITY;
        for w in 1..front.len() - 1 {
            let prev = objs[front[order[w - 1]]][k];
            let next = objs[front[order[w + 1]]][k];
            dist[order[w]] += (next - prev) / span;
        }
    }
    dist
}

/// Per-individual (rank, crowding) for tournament selection.
fn rank_and_crowd(objs: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
    let fronts = fast_non_dominated_sort(objs);
    let mut ranks = vec![0usize; objs.len()];
    let mut crowding = vec![0.0; objs.len()];
    for (r, front) in fronts.iter().enumerate() {
        let dist = crowding_distance(objs, front);
        for (&i, &d) in front.iter().zip(&dist) {
            ranks[i] = r;
            crowding[i] = d;
        }
    }
    (ranks, crowding)
}

fn tournament(ranks: &[usize], crowding: &[f64], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..ranks.len());
    let b = rng.gen_range(0..ranks.len());
    if ranks[a] < ranks[b] || (ranks[a] == ranks[b] && crowding[a] > crowding[b]) {
        a
    } else {
        b
    }
}

/// Environmental selection: keep the best `k` indices by (rank, crowding).
fn select(objs: &[Vec<f64>], k: usize) -> Vec<usize> {
    let fronts = fast_non_dominated_sort(objs);
    let mut out = Vec::with_capacity(k);
    for front in fronts {
        if out.len() + front.len() <= k {
            out.extend(front);
        } else {
            let dist = crowding_distance(objs, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            // Descending crowding with NaN ranked last (worst).
            order.sort_by(|&a, &b| kato_linalg::cmp_nan_worst(&dist[b], &dist[a]));
            for &w in order.iter().take(k - out.len()) {
                out.push(front[w]);
            }
            break;
        }
    }
    out
}

/// SBX crossover probability.
const CROSSOVER_PROB: f64 = 0.9;
/// SBX distribution index (higher = children closer to parents).
const ETA_CROSSOVER: f64 = 15.0;

/// Simulated binary crossover (SBX) on `[0,1]` boxes.
fn sbx(p1: &[f64], p2: &[f64], rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = p1.to_vec();
    let mut c2 = p2.to_vec();
    if rng.gen::<f64>() < CROSSOVER_PROB {
        for i in 0..p1.len() {
            if rng.gen::<f64>() < 0.5 {
                let u: f64 = rng.gen();
                let beta = if u <= 0.5 {
                    (2.0 * u).powf(1.0 / (ETA_CROSSOVER + 1.0))
                } else {
                    (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (ETA_CROSSOVER + 1.0))
                };
                let (a, b) = (p1[i], p2[i]);
                c1[i] = (0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)).clamp(0.0, 1.0);
                c2[i] = (0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)).clamp(0.0, 1.0);
            }
        }
    }
    (c1, c2)
}

/// Polynomial mutation distribution index.
const ETA_MUTATION: f64 = 20.0;

/// Polynomial mutation on `[0,1]` boxes; each gene mutates with
/// probability `prob`.
fn mutate(x: &mut [f64], prob: f64, rng: &mut StdRng) {
    for g in x.iter_mut() {
        if rng.gen::<f64>() < prob {
            let u: f64 = rng.gen();
            let delta = if u < 0.5 {
                (2.0 * u).powf(1.0 / (ETA_MUTATION + 1.0)) - 1.0
            } else {
                1.0 - (2.0 * (1.0 - u)).powf(1.0 / (ETA_MUTATION + 1.0))
            };
            *g = (*g + delta).clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[2.0, 0.0], &[1.0, 1.0]));
    }

    #[test]
    fn sort_separates_fronts() {
        let objs = vec![
            vec![1.0, 1.0], // dominated by 2,2
            vec![2.0, 2.0],
            vec![3.0, 0.0], // incomparable with 2,2
        ];
        let fronts = fast_non_dominated_sort(&objs);
        assert_eq!(fronts[0].len(), 2);
        assert!(fronts[0].contains(&1) && fronts[0].contains(&2));
        assert_eq!(fronts[1], vec![0]);
    }

    #[test]
    fn crowding_prefers_extremes() {
        let objs = vec![
            vec![0.0, 1.0],
            vec![0.5, 0.5],
            vec![0.45, 0.55],
            vec![1.0, 0.0],
        ];
        let front: Vec<usize> = (0..4).collect();
        let d = crowding_distance(&objs, &front);
        assert!(d[0].is_infinite() && d[3].is_infinite());
        assert!(d[1] < d[0] && d[2] < d[3]);
    }

    #[test]
    fn finds_single_objective_optimum() {
        // Maximise -(x-0.7)²: degenerate single-objective case.
        let front = Nsga2::new(Nsga2Config {
            dim: 1,
            pop_size: 30,
            generations: 30,
            seed: 1,
            initial: Vec::new(),
        })
        .run(|x| vec![-(x[0] - 0.7) * (x[0] - 0.7)]);
        let best = front.iter().map(|p| p.x[0]).fold(0.0, |acc, v| {
            if (v - 0.7).abs() < (acc - 0.7_f64).abs() {
                v
            } else {
                acc
            }
        });
        assert!((best - 0.7).abs() < 0.02, "best {best}");
    }

    #[test]
    fn covers_biobjective_front() {
        // Maximise (x, 1-x): the front is the whole segment; expect spread.
        let front = Nsga2::new(Nsga2Config {
            dim: 2,
            pop_size: 40,
            generations: 30,
            seed: 2,
            initial: Vec::new(),
        })
        .run(|x| vec![x[0], 1.0 - x[0]]);
        let min = front.iter().map(|p| p.objectives[0]).fold(1.0, f64::min);
        let max = front.iter().map(|p| p.objectives[0]).fold(0.0, f64::max);
        assert!(max - min > 0.6, "front spread {min}..{max}");
    }

    #[test]
    fn respects_bounds() {
        let front = Nsga2::new(Nsga2Config {
            dim: 3,
            pop_size: 20,
            generations: 10,
            seed: 3,
            initial: Vec::new(),
        })
        .run(|x| vec![x.iter().sum::<f64>()]);
        for p in &front {
            assert!(p.x.iter().all(|&g| (0.0..=1.0).contains(&g)));
        }
    }

    #[test]
    fn initial_seeds_are_used() {
        // With zero generations the returned front comes straight from the
        // initial population, which must include the seed point.
        let front = Nsga2::new(Nsga2Config {
            dim: 2,
            pop_size: 10,
            generations: 0,
            seed: 4,
            initial: vec![vec![0.123, 0.456]],
        })
        .run(|x| vec![-(x[0] - 0.123).abs() - (x[1] - 0.456).abs()]);
        assert!(front.iter().any(|p| p.x == vec![0.123, 0.456]));
    }

    #[test]
    fn run_batch_matches_pointwise_run() {
        let cfg = Nsga2Config {
            dim: 2,
            pop_size: 16,
            generations: 6,
            seed: 12,
            initial: Vec::new(),
        };
        let obj = |x: &[f64]| vec![x[0], 1.0 - x[0] * x[1]];
        let a = Nsga2::new(cfg.clone()).run(obj);
        let b = Nsga2::new(cfg).run_batch(|xs| xs.iter().map(|x| obj(x)).collect());
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.x, pb.x);
            assert_eq!(pa.objectives, pb.objectives);
        }
    }

    #[test]
    fn nan_objectives_do_not_panic() {
        // A sub-region of the objective landscape returns NaN; the search
        // must complete and still return finite non-dominated points.
        let front = Nsga2::new(Nsga2Config {
            dim: 2,
            pop_size: 20,
            generations: 10,
            seed: 5,
            initial: Vec::new(),
        })
        .run(|x| {
            if x[0] < 0.3 {
                vec![f64::NAN, f64::NAN]
            } else {
                vec![x[0], 1.0 - x[0]]
            }
        });
        assert!(!front.is_empty());
        assert!(front
            .iter()
            .any(|p| p.objectives.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            Nsga2::new(Nsga2Config {
                dim: 2,
                pop_size: 16,
                generations: 5,
                seed: 9,
                initial: Vec::new(),
            })
            .run(|x| vec![x[0], 1.0 - x[0] * x[1]])
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].x, b[0].x);
    }

    proptest! {
        #[test]
        fn prop_front_is_mutually_nondominated(seed in 0u64..50) {
            let front = Nsga2::new(Nsga2Config {
                dim: 2,
                pop_size: 16,
                generations: 8,
                seed,
                initial: Vec::new(),
            })
            .run(|x| vec![x[0], 1.0 - x[0] - 0.3 * x[1]]);
            for a in &front {
                for b in &front {
                    prop_assert!(!dominates(&a.objectives, &b.objectives));
                }
            }
        }
    }
}
