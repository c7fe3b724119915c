//! MACE batch-proposal machinery.
//!
//! [`MaceVariant::Full`] reproduces the original six-objective MACE
//! formulation [Zhang et al., TCAD 2021]; [`MaceVariant::Modified`] is
//! KATO's three-objective reduction (paper §3.3, Eq. 13):
//! `argmax {UCB(x), PI(x), EI(x)} · PF(x)`.

use crate::acquisition::{
    expected_improvement, probability_of_feasibility, probability_of_improvement,
    upper_confidence_bound,
};
use crate::{BoSettings, MetricModels};
use kato_nsga::{Nsga2, Nsga2Config, ParetoPoint};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Which MACE acquisition ensemble to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaceVariant {
    /// Six objectives: UCB, PI, EI, PF, −Σ max(0, −µᵢ), −Σ max(0, −µᵢ/σᵢ)
    /// (violation terms over constraint margins).
    Full,
    /// Three objectives: {UCB, PI, EI} · PF (paper Eq. 13).
    Modified,
}

impl MaceVariant {
    /// Number of Pareto objectives this variant searches.
    #[must_use]
    pub fn objective_count(self) -> usize {
        match self {
            MaceVariant::Full => 6,
            MaceVariant::Modified => 3,
        }
    }
}

/// UCB exploration weight β.
const UCB_BETA: f64 = 2.0;

/// NSGA-II-backed proposal generator over a [`MetricModels`] stack.
#[derive(Debug, Clone)]
pub struct MaceProposer {
    variant: MaceVariant,
}

impl MaceProposer {
    /// Creates a proposer for the given variant.
    #[must_use]
    pub fn new(variant: MaceVariant) -> Self {
        MaceProposer { variant }
    }

    /// Assembles the acquisition vector from already-computed posteriors.
    fn assemble(&self, (mu, var): (f64, f64), margins: &[(f64, f64)], incumbent: f64) -> Vec<f64> {
        let pf = probability_of_feasibility(margins);
        let ei = expected_improvement(mu, var, incumbent);
        let pi = probability_of_improvement(mu, var, incumbent);
        let ucb = upper_confidence_bound(mu, var, UCB_BETA);
        match self.variant {
            MaceVariant::Modified => vec![ucb * pf, pi * pf, ei * pf],
            MaceVariant::Full => {
                let viol_mean: f64 = margins.iter().map(|&(m, _)| (-m).max(0.0)).sum();
                let viol_scaled: f64 = margins
                    .iter()
                    .map(|&(m, v)| ((-m) / v.max(1e-18).sqrt()).max(0.0))
                    .sum();
                vec![ucb, pi, ei, pf, -viol_mean, -viol_scaled]
            }
        }
    }

    /// Acquisition vectors for a whole candidate population at once: one
    /// batched posterior over the population
    /// ([`MetricModels::posterior_batch`] — a single [`kato_par`] fan-out
    /// over every surrogate's rows, one triangular solve per surrogate)
    /// instead of one `O(n²)` solve per point. This is what NSGA-II calls
    /// once per generation through [`kato_nsga::Nsga2::run_batch`] in
    /// [`MaceProposer::pareto_front`].
    #[must_use]
    pub(crate) fn objectives_batch(
        &self,
        models: &MetricModels,
        xs: &[Vec<f64>],
        incumbent: f64,
    ) -> Vec<Vec<f64>> {
        let (objs, margins) = models.posterior_batch(xs);
        objs.into_iter()
            .zip(&margins)
            .map(|(post, m)| self.assemble(post, m, incumbent))
            .collect()
    }

    /// Runs the NSGA-II Pareto search and returns the front. Every
    /// generation scores its population through the batched acquisition
    /// path (`MaceProposer::objectives_batch`).
    #[must_use]
    pub fn pareto_front(
        &self,
        models: &MetricModels,
        dim: usize,
        incumbent: f64,
        settings: &BoSettings,
        seed_offset: u64,
        warm_starts: &[Vec<f64>],
    ) -> Vec<ParetoPoint> {
        let nsga = Nsga2::new(Nsga2Config {
            dim,
            pop_size: settings.nsga_pop,
            generations: settings.nsga_gens,
            seed: settings.seed.wrapping_add(seed_offset),
            initial: warm_starts.to_vec(),
        });
        nsga.run_batch(|xs| self.objectives_batch(models, xs, incumbent))
    }

    /// Samples a batch of `n` candidate designs from a Pareto front
    /// (uniformly, as in Algorithm 1's action-set construction).
    #[must_use]
    pub fn sample_batch(front: &[ParetoPoint], n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        if front.is_empty() {
            return Vec::new();
        }
        let mut idx: Vec<usize> = (0..front.len()).collect();
        idx.shuffle(rng);
        (0..n)
            .map(|k| front[idx[k % idx.len()]].x.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, RunHistory};
    use kato_circuits::{Goal, Metrics, SizingProblem, Spec, SpecKind, VarSpec};
    use kato_gp::{GpConfig, KatConfig};
    use rand::SeedableRng;

    struct Quad {
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Quad {
        fn new() -> Self {
            Quad {
                vars: vec![VarSpec::lin("a", 0.0, 1.0), VarSpec::lin("b", 0.0, 1.0)],
                specs: vec![
                    Spec {
                        metric: 0,
                        kind: SpecKind::Objective(Goal::Maximize),
                    },
                    Spec {
                        metric: 1,
                        kind: SpecKind::GreaterEq(0.25),
                    },
                ],
            }
        }
    }

    impl SizingProblem for Quad {
        fn name(&self) -> String {
            "quad".into()
        }
        fn variables(&self) -> &[VarSpec] {
            &self.vars
        }
        fn metric_names(&self) -> &[&'static str] {
            &["obj", "con"]
        }
        fn specs(&self) -> &[Spec] {
            &self.specs
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            // Objective peaks at (0.7, 0.3); constraint requires x0 ≥ 0.25.
            let obj = 1.0 - (x[0] - 0.7).powi(2) - (x[1] - 0.3).powi(2);
            Metrics::new(vec![obj, x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.7, 0.3]
        }
    }

    fn fitted_models(n: usize) -> (Quad, MetricModels, f64) {
        let quad = Quad::new();
        let mut history = RunHistory::new("quad", "test", 0);
        for i in 0..n {
            let t = i as f64 / (n - 1) as f64;
            let x = vec![t, (t * 7.3) % 1.0];
            history.evaluate_and_push(&quad, &Mode::Constrained, x);
        }
        let (xs, ms) = history.dataset();
        let cols = crate::model::metric_columns(&ms);
        let cfg = crate::ModelConfig {
            gp: GpConfig::fast(),
            kat: KatConfig::fast(),
            ..Default::default()
        };
        let models = MetricModels::fit_gp(2, &xs, &cols, quad.specs(), &cfg).unwrap();
        (quad, models, history.incumbent())
    }

    #[test]
    fn objective_counts_match_variant() {
        let (_, models, inc) = fitted_models(12);
        let full = MaceProposer::new(MaceVariant::Full);
        let modified = MaceProposer::new(MaceVariant::Modified);
        let q = [vec![0.5, 0.5]];
        assert_eq!(full.objectives_batch(&models, &q, inc)[0].len(), 6);
        assert_eq!(modified.objectives_batch(&models, &q, inc)[0].len(), 3);
        assert_eq!(MaceVariant::Full.objective_count(), 6);
        assert_eq!(MaceVariant::Modified.objective_count(), 3);
    }

    #[test]
    fn objectives_batch_matches_pointwise() {
        let (_, models, inc) = fitted_models(12);
        let queries: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64 / 6.0, (i as f64 * 3.1) % 1.0])
            .collect();
        for variant in [MaceVariant::Modified, MaceVariant::Full] {
            let prop = MaceProposer::new(variant);
            let batch = prop.objectives_batch(&models, &queries, inc);
            assert_eq!(batch.len(), queries.len());
            for (q, b) in queries.iter().zip(&batch) {
                let p = &prop.objectives_batch(&models, std::slice::from_ref(q), inc)[0];
                assert_eq!(p.len(), b.len());
                for (x, y) in p.iter().zip(b) {
                    assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn infeasible_region_is_penalised() {
        let (_, models, inc) = fitted_models(14);
        let prop = MaceProposer::new(MaceVariant::Modified);
        // x0=0.05 is deep in the infeasible region (needs x0 ≥ 0.25).
        let scored = prop.objectives_batch(&models, &[vec![0.05, 0.3], vec![0.7, 0.3]], inc);
        let (bad, good) = (&scored[0], &scored[1]);
        assert!(
            good[0] > bad[0],
            "feasible candidate must dominate UCB·PF: {good:?} vs {bad:?}"
        );
    }

    #[test]
    fn pareto_front_is_nonempty_and_in_bounds() {
        let (_, models, inc) = fitted_models(14);
        let prop = MaceProposer::new(MaceVariant::Modified);
        let settings = BoSettings::quick(30, 3);
        let front = prop.pareto_front(&models, 2, inc, &settings, 0, &[]);
        assert!(!front.is_empty());
        for p in &front {
            assert!(p.x.iter().all(|&g| (0.0..=1.0).contains(&g)));
        }
    }

    #[test]
    fn batch_sampling_sizes() {
        let (_, models, inc) = fitted_models(12);
        let prop = MaceProposer::new(MaceVariant::Modified);
        let settings = BoSettings::quick(30, 3);
        let front = prop.pareto_front(&models, 2, inc, &settings, 0, &[]);
        let mut rng = StdRng::seed_from_u64(1);
        let batch = MaceProposer::sample_batch(&front, 4, &mut rng);
        assert_eq!(batch.len(), 4);
        let empty = MaceProposer::sample_batch(&[], 4, &mut rng);
        assert!(empty.is_empty());
    }

    #[test]
    fn modified_mace_steers_toward_optimum() {
        // With a decent surrogate the proposal batch should concentrate
        // closer to the constrained optimum than random sampling.
        let (_, models, inc) = fitted_models(24);
        let settings = BoSettings::quick(30, 5);
        let prop = MaceProposer::new(MaceVariant::Modified);
        let front = prop.pareto_front(&models, 2, inc, &settings, 0, &[]);
        let mut rng = StdRng::seed_from_u64(settings.seed.wrapping_add(1000));
        let batch = MaceProposer::sample_batch(&front, settings.batch, &mut rng);
        let mean_dist: f64 = batch
            .iter()
            .map(|x| ((x[0] - 0.7).powi(2) + (x[1] - 0.3).powi(2)).sqrt())
            .sum::<f64>()
            / batch.len() as f64;
        assert!(
            mean_dist < 0.55,
            "batch mean distance to optimum {mean_dist}"
        );
    }
}
