//! Population-level evaluation: sharding [`SizingProblem::evaluate_batch`]
//! over the `kato_par` pool, with a streaming path for uneven workloads.
//!
//! Everything the optimizer simulates — random init, MACE proposal
//! batches, source archives, corner sweeps — arrives as a *population*,
//! not a single design. This module is the one place those populations
//! meet the thread pool. `kato_par` has one schedule — workers claim work
//! items one at a time from a shared queue, at the width
//! `kato_par::num_threads()` reports (`KATO_THREADS`, read once per
//! process, or a scoped `kato_par::with_threads` override) — and the
//! problem's hint only picks what a work item is:
//!
//! * **Chunked** (the default): `kato_par::par_chunks` cuts the population
//!   into one contiguous shard per worker, each shard goes to
//!   [`SizingProblem::evaluate_batch`], and the per-shard outputs are
//!   concatenated in input order. Best locality and one batched call per
//!   worker — right when every candidate costs about the same.
//! * **Streaming** (when [`SizingProblem::streaming_hint`] is `true`):
//!   every candidate is its own work item through `kato_par::par_map`, so a
//!   worker claims the next unevaluated candidate the moment it finishes
//!   its current one. Right when per-candidate cost is heavily
//!   data-dependent, e.g. Monte-Carlo yield with early abort, where an
//!   infeasible candidate stops after its first spec kill while a feasible
//!   one consumes the full `corners × samples` budget. Under chunking,
//!   one shard that happens to collect the expensive candidates becomes
//!   the critical path and every other worker idles behind it; streaming
//!   turns that worst case into near-ideal load balance.
//!
//! Either way the result is **bitwise identical** to evaluating the
//! population serially, at *any* thread count: `evaluate_batch` is
//! contractually identical to the scalar `evaluate` loop, `kato_par`
//! re-assembles results in input order, and problems are pure functions of
//! the design vector. Seeded run traces therefore depend on neither the
//! machine's core count nor the route the hint selects —
//! `tests/integration_pipeline.rs` pins this equivalence.

use kato_circuits::{Metrics, SizingProblem};

/// Evaluates a population across the `kato_par` pool, routed by the
/// problem's [`SizingProblem::streaming_hint`]: contiguous chunked shards
/// for uniform-cost problems, one work item per candidate for uneven-cost
/// ones (see the module docs).
///
/// Single-design (and empty) populations skip the pool entirely — the
/// fan-out overhead would dwarf one simulator call.
///
/// # Panics
///
/// Panics (inside the problem) if any design's length does not match
/// `problem.dim()`.
pub fn evaluate_batch_sharded(problem: &dyn SizingProblem, xs: &[Vec<f64>]) -> Vec<Metrics> {
    if xs.len() <= 1 {
        return problem.evaluate_batch(xs);
    }
    if problem.streaming_hint() {
        return kato_par::par_map(xs, |x| problem.evaluate(x));
    }
    kato_par::par_chunks(xs, |chunk| problem.evaluate_batch(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato_circuits::{ScenarioRegistry, YieldSettings};

    #[test]
    fn sharded_matches_scalar_loop_bitwise() {
        let reg = ScenarioRegistry::standard();
        for name in ["opamp2", "switch", "varactor"] {
            let p = reg.build(name, None, None).unwrap();
            let xs: Vec<Vec<f64>> = (0..17)
                .map(|i| {
                    (0..p.dim())
                        .map(|j| ((i * 31 + j * 7) % 100) as f64 / 100.0)
                        .collect()
                })
                .collect();
            let scalar: Vec<Metrics> = xs.iter().map(|x| p.evaluate(x)).collect();
            assert_eq!(evaluate_batch_sharded(p.as_ref(), &xs), scalar, "{name}");
        }
    }

    #[test]
    fn streaming_route_matches_scalar_loop_bitwise() {
        let reg = ScenarioRegistry::standard();
        let s = reg.get("switch").unwrap();
        let y = s
            .build_yield(
                "180nm",
                None,
                YieldSettings {
                    samples: 4,
                    threshold: 0.5,
                    seed: 9,
                    ..YieldSettings::default()
                },
            )
            .unwrap();
        assert!(y.streaming_hint());
        let xs: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..y.dim())
                    .map(|j| ((i * 13 + j * 5) % 10) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let scalar: Vec<Metrics> = xs.iter().map(|x| y.evaluate(x)).collect();
        assert_eq!(evaluate_batch_sharded(&y, &xs), scalar);
    }

    #[test]
    fn degenerate_populations() {
        let reg = ScenarioRegistry::standard();
        let p = reg.build("switch", None, None).unwrap();
        assert!(evaluate_batch_sharded(p.as_ref(), &[]).is_empty());
        let one = vec![vec![0.5, 0.5]];
        assert_eq!(
            evaluate_batch_sharded(p.as_ref(), &one),
            vec![p.evaluate(&one[0])]
        );
    }
}
