use kato_circuits::FomSpec;
use kato_gp::{GpConfig, KatConfig};

/// Optimisation objective handed to every optimizer.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Single-objective Figure-of-Merit maximisation (paper §4.1, Eq. 2).
    Fom(FomSpec),
    /// Constrained optimisation of the problem's spec table (paper §4.2).
    Constrained,
}

/// Common budget/algorithm knobs shared by every optimizer in this crate.
#[derive(Debug, Clone)]
pub struct BoSettings {
    /// Total simulation budget, including the initial random designs.
    pub budget: usize,
    /// Number of initial random designs.
    pub n_init: usize,
    /// Batch size `N_B` per BO iteration (parallel simulations).
    pub batch: usize,
    /// Master seed (drives init sampling, surrogate seeds, NSGA-II).
    pub seed: u64,
    /// NSGA-II population for acquisition search.
    pub(crate) nsga_pop: usize,
    /// NSGA-II generations for acquisition search.
    pub(crate) nsga_gens: usize,
    /// GP (re)fit configuration.
    pub gp: GpConfig,
    /// KAT-GP (re)fit configuration.
    pub kat: KatConfig,
    /// Adam iterations for warm-started refits during the loop.
    pub refit_iters: usize,
}

impl BoSettings {
    /// Paper-scale defaults for a given budget and seed.
    #[must_use]
    pub fn paper(budget: usize, seed: u64) -> Self {
        BoSettings {
            budget,
            n_init: 10,
            batch: 5,
            seed,
            nsga_pop: 60,
            nsga_gens: 40,
            gp: GpConfig {
                seed,
                ..GpConfig::default()
            },
            kat: KatConfig {
                seed,
                ..KatConfig::default()
            },
            refit_iters: 15,
        }
    }

    /// A cheaper profile for tests, examples and the quick bench mode.
    #[must_use]
    pub fn quick(budget: usize, seed: u64) -> Self {
        BoSettings {
            budget,
            n_init: 10,
            batch: 5,
            seed,
            nsga_pop: 32,
            nsga_gens: 15,
            gp: GpConfig {
                seed,
                train_iters: 25,
                fit_subsample: 80,
                ..GpConfig::default()
            },
            kat: KatConfig {
                seed,
                train_iters: 20,
                source_subsample: 50,
                target_subsample: 80,
                ..KatConfig::default()
            },
            refit_iters: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_cheaper_than_paper() {
        let q = BoSettings::quick(50, 0);
        let p = BoSettings::paper(50, 0);
        assert!(q.nsga_gens < p.nsga_gens);
        assert!(q.gp.train_iters < p.gp.train_iters);
    }
}
