#![warn(missing_docs)]

//! Order-preserving data-parallel helpers for the KATO workspace.
//!
//! No external dependencies: every entry point runs on one private fan-out
//! core over a process-global pool of helper threads. The calling thread
//! and up to [`num_threads`]` − 1` helpers claim work items one at a time
//! from a shared queue, each item runs under its own
//! [`std::panic::catch_unwind`], and the results are scattered back **in
//! input order**. One claiming schedule serves every map: a run of
//! expensive items (an early-aborting Monte-Carlo yield candidate next to
//! one that takes the full corner × sample sweep) never serialises behind a
//! single worker, and as long as the per-item closure is a pure function of
//! its input the output is *bitwise identical* for every thread count. That
//! is the property the optimizer stack relies on: a seeded run at one
//! worker and at eight produces the same trace.
//!
//! # The helper pool
//!
//! Helpers are spawned lazily, the first time a fan-out asks for more of
//! them than exist, and then stay parked on a condition variable between
//! fan-outs (no spinning, so an idle pool costs no CPU). The pool only
//! grows, to the widest [`num_threads`]` − 1` any fan-out requested. A
//! fan-out posts its claim loop with one slot per helper it wants, works
//! through the queue itself, then waits only for the helpers still inside
//! its loop — helpers that never got to it are not waited for.
//!
//! - **A fan-out's fixed cost is a wake-up, not a spawn.** Measured at
//!   ~2 µs of process CPU per 2-thread `par_map` of 8 trivial items on a
//!   2-vCPU x86-64 VM (11–16 µs at 4 threads), against ~130 µs when every
//!   fan-out spawned and joined its own threads. Fanning out once per
//!   batch rather than once per consumer still saves those wake-ups and
//!   the queue traffic: the BO proposal scores a whole NSGA-II generation
//!   over all its surrogates in one fan-out, and [`par_chunks`] gives
//!   very fine-grained work enough per item.
//! - **Nested fan-outs share the pool.** A `par_map` whose closure calls
//!   `par_map` again posts to the same helpers, so the process never runs
//!   more than the helpers plus the threads that post. Every poster drains
//!   its own queue, so a nested fan-out makes progress even when every
//!   helper is busy, and cannot deadlock.
//!
//! # Thread-count control
//!
//! The worker count comes from the `KATO_THREADS` environment variable when
//! set to a positive integer, and from
//! [`std::thread::available_parallelism`] otherwise (`0`, empty or
//! unparsable values fall back to the same default). The environment is
//! read **once per process**. [`with_threads`] overrides the count for the
//! duration of a closure on the calling thread. A helper runs each
//! fan-out it joins under the setting of the thread that posted it, so
//! nested fan-outs keep an override and none leaks into the helper's next
//! fan-out. Tests and embedders scope the count this way instead of
//! rewriting the process environment.
//!
//! # Panic isolation
//!
//! [`try_par_map`] catches a panicking work item and returns it as an
//! `Err` carrying the panic payload's message, while every other item
//! completes normally — the property a serving process needs to turn one
//! crashing job into one failed response instead of a dead daemon. The
//! other entry points re-panic with the first captured message after the
//! whole fan-out completed, so callers keep fail-fast semantics (note the
//! re-raised panic carries the message string, not the original payload
//! object).
//!
//! # Example
//!
//! ```
//! let squares = kato_par::par_map(&[1.0_f64, 2.0, 3.0], |x| x * x);
//! assert_eq!(squares, vec![1.0, 4.0, 9.0]);
//! assert_eq!(kato_par::with_threads(2, kato_par::num_threads), 2);
//!
//! let out = kato_par::try_par_map(&[1, 2, 3], |&i| {
//!     assert!(i != 2, "boom on {i}");
//!     i * 10
//! });
//! assert_eq!(out[0], Ok(10));
//! assert!(out[1].as_ref().is_err_and(|m| m.contains("boom on 2")));
//! assert_eq!(out[2], Ok(30));
//! ```

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::thread;

mod pool;

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads the helpers in this crate will use: the
/// innermost [`with_threads`] override on this thread, else `KATO_THREADS`
/// when set to a positive integer (read once per process), else
/// [`std::thread::available_parallelism`] (1 when even that is unknown).
#[must_use]
pub fn num_threads() -> usize {
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    OVERRIDE.get().unwrap_or_else(|| {
        *FROM_ENV.get_or_init(|| {
            std::env::var("KATO_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
        })
    })
}

/// Runs `f` with [`num_threads`] pinned to `threads` (`0` counts as 1) on
/// this thread and on every pool helper while it works on a fan-out posted
/// inside `f`. The previous setting is restored when `f` returns or
/// unwinds.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// Extracts a human-readable message from a panic payload: the `&str` or
/// `String` that `panic!` produces, or a placeholder for exotic payloads
/// (`panic_any` with a non-string type).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one fan-out core: applies `f` to every item of `items`, each under
/// its own `catch_unwind`, and returns the outcomes in input order. The
/// caller and up to `threads − 1` pool helpers claim the next unprocessed
/// item from a shared queue as soon as they finish their current one; each
/// outcome is tagged with its item's index and sorted back into place, so
/// the claim order never shows.
fn fan_out<I, R, F>(items: I, f: F) -> Vec<Result<R, String>>
where
    I: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let caught =
        |item: I::Item| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| panic_message(&*p));
    let len = items.len();
    let threads = num_threads().min(len);
    if threads <= 1 {
        return items.map(caught).collect();
    }
    let queue = Mutex::new(items.enumerate());
    let claimed = Mutex::new(Vec::with_capacity(len));
    pool::broadcast(threads - 1, &|| {
        let mut mine = Vec::new();
        loop {
            // A statement of its own, so the guard drops before the item
            // runs.
            let next = queue
                .lock()
                .expect("the queue lock only guards next(), which cannot panic")
                .next();
            let Some((i, item)) = next else { break };
            mine.push((i, caught(item)));
        }
        claimed
            .lock()
            .expect("the results lock only guards an append, which cannot panic")
            .append(&mut mine);
    });
    let mut claimed = claimed
        .into_inner()
        .expect("the results lock only guards an append, which cannot panic");
    // Items catch their own panics, so only a fault in the claim loop
    // itself can lose results — propagate that.
    assert_eq!(claimed.len(), len, "a kato_par worker died mid fan-out");
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

/// Re-raises the first captured panic message, after the whole fan-out ran.
fn unwrap_all<R>(results: Vec<Result<R, String>>) -> Vec<R> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("{msg}")))
        .collect()
}

/// Fault-isolating sibling of [`par_map`]: applies `f` to every item across
/// the pool and returns, **in input order**, `Ok(result)` per item — or
/// `Err(message)` for an item whose closure panicked, without disturbing
/// any other item.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fan_out(items.iter(), f)
}

/// Applies `f` to every item, fanning out across the pool, and returns the
/// results **in input order**. With one thread (or one item) this is exactly
/// `items.iter().map(f).collect()`, so seeded pipelines stay reproducible
/// across thread counts.
///
/// A panicking item re-raises here (with the captured message) after the
/// rest of the fan-out completed.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    unwrap_all(try_par_map(items, f))
}

/// Mutable sibling of [`par_map`]: applies `f` to every item through a
/// mutable reference (e.g. warm-started surrogate refits) and returns the
/// per-item results in input order.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    unwrap_all(fan_out(items.iter_mut(), f))
}

/// Splits `items` into at most [`num_threads`] contiguous chunks of
/// `ceil(len/threads)` items, maps each chunk through `f` concurrently, and
/// concatenates the per-chunk outputs in input order — the entry point for
/// closures that already work on batches (e.g. one batched linear-algebra
/// call per chunk).
///
/// A panicking chunk re-raises here (with the captured message) after the
/// other chunks completed.
pub fn par_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let size = items.len().div_ceil(num_threads()).max(1);
    unwrap_all(fan_out(items.chunks(size), f))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_bitwise() {
        let items: Vec<f64> = (0..57).map(|i| f64::from(i) * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e3).exp().ln() + x.sqrt();
        let serial: Vec<f64> = items.iter().map(f).collect();
        let parallel = par_map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        assert!(par_map::<usize, usize, _>(&[], |&i| i).is_empty());
        assert_eq!(par_map(&[7], |&i: &usize| i + 1), vec![8]);
    }

    #[test]
    fn par_map_mut_updates_in_place() {
        let mut items: Vec<usize> = (0..41).collect();
        let olds = par_map_mut(&mut items, |v| {
            let old = *v;
            *v += 100;
            old
        });
        assert_eq!(olds, (0..41).collect::<Vec<_>>());
        assert_eq!(items, (100..141).collect::<Vec<_>>());
    }

    // The `par_map_dynamic_*` tests pin the dynamic claiming schedule every
    // map runs on: uneven item cost and a panicking item at four workers.

    #[test]
    fn par_map_dynamic_matches_serial_bitwise() {
        let items: Vec<f64> = (0..157).map(|i| f64::from(i) * 0.73).collect();
        let f = |x: &f64| (x.cos() * 1e2).exp().ln() - x.cbrt();
        let serial: Vec<f64> = items.iter().map(f).collect();
        assert_eq!(with_threads(4, || par_map(&items, f)), serial);
        assert_eq!(with_threads(1, || par_map(&items, f)), serial);
    }

    #[test]
    fn par_map_dynamic_keeps_order_under_uneven_cost() {
        // Items deliberately cost wildly different amounts; the output must
        // still land in input order.
        let items: Vec<usize> = (0..64).collect();
        let out = with_threads(4, || {
            par_map(&items, |&i| {
                if i % 7 == 0 {
                    // Burn some cycles so claim order scrambles.
                    let mut acc = 0_u64;
                    for k in 0..20_000 {
                        acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
                    }
                    std::hint::black_box(acc);
                }
                i * 3
            })
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_dynamic_isolates_a_panicking_item() {
        quietly(|| {
            let items: Vec<usize> = (0..29).collect();
            let out = with_threads(4, || {
                try_par_map(&items, |&i| {
                    assert!(i != 17, "dynamic failure on {i}");
                    i + 5
                })
            });
            for (i, r) in out.iter().enumerate() {
                if i == 17 {
                    assert!(r.as_ref().unwrap_err().contains("dynamic failure on 17"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i + 5));
                }
            }
        });
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        let items: Vec<usize> = (0..37).collect();
        let out = par_chunks(&items, |c| c.iter().map(|&i| i + 1).collect());
        assert_eq!(out, (1..38).collect::<Vec<_>>());
        assert!(par_chunks::<usize, usize, _>(&[], |_| Vec::new()).is_empty());
    }

    #[test]
    fn par_chunks_makes_one_chunk_per_thread() {
        let items: Vec<usize> = (0..10).collect();
        let sizes = with_threads(3, || par_chunks(&items, |c| vec![c.len()]));
        assert_eq!(sizes, vec![4, 4, 2]);
        let sizes = with_threads(1, || par_chunks(&items, |c| vec![c.len()]));
        assert_eq!(sizes, vec![10]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn with_threads_reaches_workers_and_nested_fan_outs() {
        let items: Vec<usize> = (0..8).collect();
        let seen = with_threads(3, || {
            par_map(&items, |_| {
                let nested = par_map(&[0, 1, 2], |_| num_threads());
                (num_threads(), nested)
            })
        });
        for (outer, nested) in seen {
            assert_eq!(outer, 3);
            assert_eq!(nested, vec![3, 3, 3]);
        }
    }

    #[test]
    fn with_threads_restores_the_override_after_a_panic() {
        quietly(|| {
            let outer = with_threads(2, || {
                let err = catch_unwind(|| with_threads(5, || -> usize { panic!("inside") }));
                assert!(err.is_err());
                num_threads()
            });
            assert_eq!(outer, 2);
            assert_eq!(OVERRIDE.get(), None);
        });
    }

    #[test]
    fn with_threads_zero_runs_serially() {
        let caller = thread::current().id();
        let ids = with_threads(0, || {
            assert_eq!(num_threads(), 1);
            par_map(&[1, 2, 3, 4], |_| thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    /// Capture-less hook swap so the panic tests don't spray backtraces
    /// into the test output; restores the default on drop.
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn try_par_map_isolates_a_panicking_item() {
        quietly(|| {
            let items: Vec<usize> = (0..23).collect();
            let out = try_par_map(&items, |&i| {
                assert!(i != 13, "injected failure on {i}");
                i * 2
            });
            assert_eq!(out.len(), 23);
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("injected failure on 13"), "{msg}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 2));
                }
            }
        });
    }

    #[test]
    fn panicking_apis_still_panic_with_the_message() {
        quietly(|| {
            let err =
                std::panic::catch_unwind(|| par_map(&[1, 2], |&i| -> usize { panic!("item {i}") }))
                    .unwrap_err();
            assert!(panic_message(&*err).contains("item"));
        });
    }

    #[test]
    fn panic_message_handles_payload_kinds() {
        quietly(|| {
            let p = std::panic::catch_unwind(|| panic!("plain")).unwrap_err();
            assert_eq!(panic_message(&*p), "plain");
            let p = std::panic::catch_unwind(|| panic!("{} {}", "fmt", 1)).unwrap_err();
            assert_eq!(panic_message(&*p), "fmt 1");
            let p = std::panic::catch_unwind(|| std::panic::panic_any(42_i32)).unwrap_err();
            assert_eq!(panic_message(&*p), "non-string panic payload");
        });
    }

    // The pool tests below pin the persistent helper pool: nesting,
    // concurrent posters, panics on helpers, override hygiene and growth.

    /// Serialises the tests that force every helper into one fan-out: two
    /// of them waiting at their barriers at once could each hold helpers
    /// the other needs.
    static FORCED: Mutex<()> = Mutex::new(());

    /// The pool width the forcing tests use: every test in this binary
    /// fans out at most this wide, so once a fan-out of this width ran the
    /// pool holds exactly `full_width() − 1` helpers and stops growing.
    fn full_width() -> usize {
        4.max(num_threads())
    }

    /// Runs `f` once on each of `width` distinct threads — the caller and
    /// `width − 1` helpers — by holding every item at a barrier until all
    /// are claimed. The caller's [`num_threads`] must be at least `width`.
    fn forced<R: Send>(width: usize, f: impl Fn() -> R + Sync) -> Vec<(thread::ThreadId, R)> {
        assert!(
            num_threads() >= width,
            "a forced fan-out needs {width} workers"
        );
        let barrier = std::sync::Barrier::new(width);
        let items: Vec<usize> = (0..width).collect();
        par_map(&items, |_| {
            barrier.wait();
            (thread::current().id(), f())
        })
    }

    fn helper_ids<R>(
        seen: &[(thread::ThreadId, R)],
    ) -> std::collections::HashSet<thread::ThreadId> {
        let caller = thread::current().id();
        seen.iter()
            .map(|&(id, _)| id)
            .filter(|&id| id != caller)
            .collect()
    }

    #[test]
    fn three_deep_nested_fan_outs_match_the_serial_map_bitwise() {
        let f = |a: usize, b: usize, c: usize| ((a * 31 + b * 7 + c) as f64 * 0.37).sin().exp();
        let (outer, mid, inner): (Vec<usize>, Vec<usize>, Vec<usize>) =
            ((0..5).collect(), (0..4).collect(), (0..6).collect());
        let bits = |v: Vec<Vec<Vec<f64>>>| -> Vec<u64> {
            v.into_iter()
                .flatten()
                .flatten()
                .map(f64::to_bits)
                .collect()
        };
        let serial: Vec<Vec<Vec<f64>>> = outer
            .iter()
            .map(|&a| {
                mid.iter()
                    .map(|&b| inner.iter().map(|&c| f(a, b, c)).collect())
                    .collect()
            })
            .collect();
        let serial = bits(serial);
        for threads in 1..=4 {
            let nested = with_threads(threads, || {
                par_map(&outer, |&a| {
                    par_map(&mid, |&b| par_map(&inner, |&c| f(a, b, c)))
                })
            });
            assert_eq!(bits(nested), serial, "{threads} threads");
        }
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let start = std::sync::Barrier::new(4);
        let items: Vec<usize> = (0..24).collect();
        let expect: Vec<usize> = items.iter().map(|&i| (0..i).sum::<usize>() + i).collect();
        thread::scope(|s| {
            for caller in 0..4 {
                let (start, items, expect) = (&start, &items, &expect);
                s.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let width = 1 + (caller + round) % 4;
                        let out = with_threads(width, || {
                            par_map(items, |&i| {
                                let below: Vec<usize> = (0..i).collect();
                                par_map(&below, |&j| j).into_iter().sum::<usize>() + i
                            })
                        });
                        assert_eq!(&out, expect, "caller {caller}, round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_panic_on_a_helper_is_that_items_err_and_the_helper_lives_on() {
        let _serial = FORCED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let width = full_width();
        with_threads(width, || {
            forced(width, || ());
            let before = pool::helpers();
            let failed_on = Mutex::new(Vec::new());
            let first = quietly(|| {
                forced(width, || {
                    try_par_map(&[0, 1, 2], |&j| {
                        if j == 1 {
                            failed_on.lock().unwrap().push(thread::current().id());
                            panic!("nested item {j} failed");
                        }
                        j * 10
                    })
                })
            });
            for (_, nested) in &first {
                assert_eq!(nested[0], Ok(0));
                assert!(nested[1]
                    .as_ref()
                    .is_err_and(|m| m.contains("nested item 1")));
                assert_eq!(nested[2], Ok(20));
            }
            let caller = thread::current().id();
            let failed_on = failed_on.into_inner().unwrap();
            assert!(
                failed_on.iter().any(|&id| id != caller),
                "no panic ran on a helper"
            );

            let second = forced(width, || ());
            assert_eq!(helper_ids(&second), helper_ids(&first));
            assert_eq!(helper_ids(&second).len(), width - 1);
            assert_eq!(pool::helpers(), before, "the pool grew after a panic");
        });
    }

    #[test]
    fn a_helper_drops_the_override_of_the_job_it_served() {
        let _serial = FORCED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let default = num_threads();
        let width = full_width();
        // An override wider than the default on a job that every helper
        // serves (the item count caps the fan-out at `width`).
        let pinned = width + 1;
        let seen = with_threads(pinned, || forced(width, num_threads));
        assert!(seen.iter().all(|&(_, n)| n == pinned));
        assert_eq!(helper_ids(&seen).len(), width - 1);
        // The next job has no override: whichever helpers serve it served
        // the pinned one and must report the default again.
        let seen = forced(default, num_threads);
        assert!(seen.iter().all(|&(_, n)| n == default), "{seen:?}");
    }

    #[test]
    fn the_pool_stops_growing_at_the_widest_request() {
        let items: Vec<usize> = (0..16).collect();
        for _ in 0..1000 {
            let out = with_threads(4, || par_map(&items, |&i| i + 1));
            assert_eq!(out.len(), 16);
        }
        // Other tests in this binary fan out at the default width too.
        assert!(pool::helpers() <= 3.max(num_threads() - 1));
    }
}
