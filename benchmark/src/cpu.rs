//! CPU-time clocks. Every time the benchmark reports is CPU time, not wall
//! time: on a shared virtual machine the hypervisor can take a large,
//! varying share of the vCPUs away ("steal"), which stretches wall time
//! but is not charged to the process's CPU clocks.

use crate::report::median;
use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux clock ids (`<linux/time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read_ms(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // the Linux targets this benchmark runs on) for the whole call, and
    // `clock` is one of the two constant clock ids above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

/// CPU time consumed so far by every thread of this process, exited pool
/// workers included, in ms.
pub fn process_ms() -> f64 {
    read_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, in ms.
pub fn thread_ms() -> f64 {
    read_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU ms the calibration kernel takes at the reference speed (a quiet
/// 2-vCPU x86-64 virtual machine).
const REFERENCE_MS: f64 = 6.0;

/// A fixed piece of benchmark-owned work — a dense 96×96 matrix product
/// and a 200k-node tape-style reverse sweep, the two access patterns of
/// surrogate training — whose CPU time tracks how fast this machine runs
/// right now. Its buffers are allocated once, so the program's heap state
/// cannot change its cost.
struct Kernel {
    a: Vec<f64>,
    c: Vec<f64>,
    tape: Vec<(usize, f64)>,
    grad: Vec<f64>,
}

impl Kernel {
    const N: usize = 96;
    const TAPE: usize = 200_000;

    fn new() -> Self {
        let n = Self::N;
        Kernel {
            a: (0..n * n).map(|i| (i % 17) as f64 * 0.1).collect(),
            c: vec![0.0; n * n],
            tape: Vec::with_capacity(Self::TAPE),
            grad: vec![0.0; Self::TAPE],
        }
    }

    /// Runs the kernel once; returns its CPU ms.
    fn run(&mut self) -> f64 {
        let start = process_ms();
        let n = Self::N;
        self.c.fill(0.0);
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                for j in 0..n {
                    self.c[i * n + j] += aik * self.a[k * n + j];
                }
            }
        }
        self.tape.clear();
        for i in 0..Self::TAPE {
            let parent = if i == 0 { 0 } else { (i * 7919) % i };
            self.tape.push((parent, self.c[i % (n * n)] + i as f64));
        }
        self.grad.fill(0.0);
        self.grad[Self::TAPE - 1] = 1.0;
        for i in (1..Self::TAPE).rev() {
            let (p, v) = self.tape[i];
            self.grad[p] += self.grad[i] * v.sin();
        }
        std::hint::black_box(&self.grad);
        process_ms() - start
    }
}

/// Kernel runs on each side of an operation whose median is its speed.
const SPEED_WINDOW: usize = 3;

/// Times operations in CPU ms scaled to the reference speed.
///
/// Neighbouring tenants on a shared host slow the vCPUs (cache, memory
/// bandwidth, SMT siblings) by a factor that drifts over seconds to
/// minutes, and CPU time stretches with it. After every operation the
/// meter runs the calibration kernel; an operation's time is its CPU time
/// × `REFERENCE_MS` ÷ the median kernel time over the `SPEED_WINDOW`
/// kernel runs before it and the `SPEED_WINDOW` after it. One kernel run
/// is too short to be a steady probe on its own; the median over a few
/// seconds follows the drift without adding the kernel's jitter. The
/// kernel is benchmark code, so no change to the program can move it.
pub struct Meter {
    kernel: Kernel,
    /// Kernel CPU ms; entry `i` ran just before operation `i`.
    speed: Vec<f64>,
    /// Raw CPU ms per operation.
    ops: Vec<f64>,
}

/// Handle of one timed operation; read it with [`Meter::ms`].
#[derive(Debug, Clone, Copy)]
pub struct Op(usize);

impl Meter {
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        kernel.run();
        let first = kernel.run();
        Meter {
            kernel,
            speed: vec![first],
            ops: Vec::new(),
        }
    }

    /// Runs `f`; returns its result and the handle of its timing.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Op) {
        let start = process_ms();
        let out = f();
        self.ops.push(process_ms() - start);
        self.speed.push(self.kernel.run());
        (out, Op(self.ops.len() - 1))
    }

    /// Operation `op`'s CPU ms at reference speed. Read it once the run's
    /// operations are done, so the window after it is complete.
    pub fn ms(&self, op: Op) -> f64 {
        let i = op.0;
        let lo = (i + 1).saturating_sub(SPEED_WINDOW);
        let hi = (i + 1 + SPEED_WINDOW).min(self.speed.len());
        self.ops[i] * REFERENCE_MS / median(&self.speed[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_scales_by_the_kernel() {
        let mut meter = Meter::new();
        let ((), op) = meter.time(|| {
            let start = process_ms();
            while process_ms() - start < 20.0 {}
        });
        let ms = meter.ms(op);
        // 20 CPU ms scaled by REFERENCE_MS / kernel ms: positive, finite,
        // and within two orders of magnitude of the raw time.
        assert!(ms > 0.2 && ms < 2000.0, "{ms}");
    }

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_ms(), thread_ms());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_ms() > t0);
        assert!(process_ms() > p0);
        std::hint::black_box(x);
    }
}
