//! The process-global helper pool every multi-thread fan-out runs on.
//!
//! Helpers are plain OS threads, spawned lazily (the pool only grows, to
//! the widest `helpers` count ever requested) and never joined; an idle
//! helper sleeps on a [`Condvar`], so a parked pool costs no CPU.
//! [`broadcast`] posts one job — a borrowed claim loop — with a number of
//! helper slots, runs the loop on the calling thread too, then closes the
//! job and waits for the helpers still inside it. Every poster drains its
//! own job, so nested broadcasts (a claim loop that broadcasts again) need
//! no free helper to make progress and cannot deadlock.
//!
//! A helper runs a closure that borrows the poster's stack, which the type
//! system cannot express for a thread that outlives the call; the job
//! therefore carries the closure type- and lifetime-erased, and the
//! close-and-wait guard in [`broadcast`] is what keeps the borrow alive for
//! as long as any helper can use it. That erasure is the only `unsafe` in
//! the workspace.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::OVERRIDE;

/// One posted broadcast: the poster's closure and its thread-count
/// override, plus the bookkeeping that tells the poster when no helper can
/// touch the closure any more.
struct Job {
    /// The poster's `&F`, erased to a data pointer; only ever passed to
    /// `call`, which was instantiated for that same `F`.
    data: *const (),
    call: unsafe fn(*const ()),
    /// The poster's [`with_threads`](crate::with_threads) override,
    /// installed on a helper for as long as it works on this job.
    threads: Option<usize>,
    state: Mutex<Entry>,
    /// Signalled when the last helper leaves a closed job.
    left: Condvar,
}

struct Entry {
    /// Helpers currently running `call`.
    active: usize,
    /// Set by the poster once it no longer lets helpers in.
    closed: bool,
}

// SAFETY: `data` points to an `F: Fn() + Sync` (see `broadcast`), so
// calling it through a shared pointer from any thread is sound; a helper
// only dereferences it after entering the job while `closed` was false,
// and the poster keeps the `F` borrowed until every entered helper has
// left (`Close`). `call` is a plain function pointer, and the remaining
// fields are `Send + Sync` on their own.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above: shared access never mutates `data` or
// `call`, and the pointee is `Sync`.
unsafe impl Sync for Job {}

/// Open helper slots, one `Arc` per slot, in posting order, and the
/// number of helpers spawned so far.
struct Queue {
    slots: VecDeque<Arc<Job>>,
    helpers: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    slots: VecDeque::new(),
    helpers: 0,
});

/// Signalled once per slot posted.
static WAKE: Condvar = Condvar::new();

/// Locks a pool mutex. No user code runs while one is held and every
/// critical section leaves its data consistent, so a poisoned lock (which
/// cannot occur short of an allocation failure) is still safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Calls the `F` behind `data`.
///
/// # Safety
///
/// `data` must point to an `F` that is alive for the whole call.
unsafe fn call<F: Fn() + Sync>(data: *const ()) {
    // SAFETY: the caller guarantees `data` is a live `&F`.
    unsafe { (*data.cast::<F>())() }
}

/// Runs `work` on the calling thread and on up to `helpers` pool threads
/// at once, and returns once every one of those calls has returned.
///
/// `work` should catch the panics of the user code it runs: a panic that
/// escapes it on a helper is swallowed there (a helper must never die), and
/// one that escapes on the calling thread propagates after the helpers
/// left. Each helper runs `work` with the caller's
/// [`with_threads`](crate::with_threads) override installed.
pub(crate) fn broadcast<F: Fn() + Sync>(helpers: usize, work: &F) {
    let job = Arc::new(Job {
        data: std::ptr::from_ref(work).cast(),
        call: call::<F>,
        threads: OVERRIDE.get(),
        state: Mutex::new(Entry {
            active: 0,
            closed: false,
        }),
        left: Condvar::new(),
    });
    let _close = Close(&job);
    {
        let mut queue = lock(&QUEUE);
        while queue.helpers < helpers {
            let spawned = thread::Builder::new()
                .name(format!("kato-par-{}", queue.helpers + 1))
                .spawn(serve);
            // Without the thread the caller does the work itself.
            if spawned.is_err() {
                break;
            }
            queue.helpers += 1;
        }
        queue
            .slots
            .extend(std::iter::repeat_with(|| Arc::clone(&job)).take(helpers));
    }
    for _ in 0..helpers {
        WAKE.notify_one();
    }
    work();
}

/// Closes a job on drop — on return and on unwind alike — and waits until
/// no helper is inside it, which is what makes lending `work` to threads
/// that outlive [`broadcast`] sound.
struct Close<'a>(&'a Arc<Job>);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let job = self.0;
        lock(&QUEUE).slots.retain(|slot| !Arc::ptr_eq(slot, job));
        let mut entry = lock(&job.state);
        entry.closed = true;
        while entry.active > 0 {
            entry = job.left.wait(entry).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper's whole life: take a slot, enter its job unless it closed
/// meanwhile, run it, leave; sleep while no slot is open.
fn serve() {
    loop {
        let job = {
            let mut queue = lock(&QUEUE);
            loop {
                if let Some(job) = queue.slots.pop_front() {
                    break job;
                }
                queue = WAKE.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        {
            let mut entry = lock(&job.state);
            if entry.closed {
                continue;
            }
            entry.active += 1;
        }
        // Installed for every job, `None` included, so no override leaks
        // from one job into the next.
        OVERRIDE.set(job.threads);
        // A panic escaping `work` is the poster's to report (it finds the
        // work's results incomplete); the helper itself lives on.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: this helper entered the job while it was open, and
            // the poster's `Close` guard keeps the `F` behind `data` alive
            // until `active` drops back to zero below.
            unsafe { (job.call)(job.data) }
        }));
        let mut entry = lock(&job.state);
        entry.active -= 1;
        if entry.active == 0 && entry.closed {
            job.left.notify_one();
        }
    }
}

/// Number of helper threads spawned so far.
#[cfg(test)]
pub(crate) fn helpers() -> usize {
    lock(&QUEUE).helpers
}
