//! Host time as the benchmark counts it: the thread's on-CPU time,
//! scaled to a reference host speed that a fixed kernel measures
//! between the timed slices.
//!
//! A shared host slows a thread in two ways. It makes the thread wait
//! for a core, which on-CPU time does not count. And it runs the core
//! slower for stretches of seconds (other tenants on the sibling
//! hyperthread and in the shared caches), which on-CPU time does
//! count. The reference kernel, a small event loop of its own that
//! calls no qlink code, slows down with it. [`RefClock`] runs the
//! kernel before and after every timed slice and scales the slice's
//! CPU time by the kernel's speed then, relative to [`KERNEL_REF_S`].
//! `NOTE.md` ("Host time") gives the measurements behind this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// CPU seconds of one [`kernel`] run on the 2-core reference host
/// (an Intel Xeon VM) at its quiet times. A reference second is the
/// time that host would have taken then; only ratios of it matter.
pub const KERNEL_REF_S: f64 = 0.92e-3;

/// Steps of one [`kernel`] run.
const KERNEL_STEPS: u64 = 20_000;

/// Entries of the kernel's state table: 256 KiB, more than the
/// first-level caches hold and less than the second level.
const KERNEL_STATES: usize = 1 << 16;

/// A stopwatch over the calling thread's on-CPU time.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu_s())
    }

    /// On-CPU seconds of this thread since `start`.
    pub fn elapsed_s(self) -> f64 {
        thread_cpu_s() - self.0
    }
}

/// On-CPU time of the calling thread, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (64-bit
    // `time_t` and `long` on the Linux targets this builds for).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// The reference kernel: a fixed discrete-event loop (a timer heap,
/// a table of states, branches on pseudo-random bits, a little float
/// work), shaped like a simulator's inner loop but independent of the
/// code under test. Returns its on-CPU seconds. The table persists
/// between runs, so, like the simulator's own data, it is partly
/// evicted by whatever ran in between.
fn kernel(states: &mut [u32]) -> f64 {
    let t = CpuTimer::start();
    let mut heap = BinaryHeap::with_capacity(64);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for i in 0..64u64 {
        heap.push(Reverse((i, i as u32)));
    }
    for _ in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse((at, id)) = heap.pop().expect("the heap never empties");
        let slot = (x as usize) & (states.len() - 1);
        if states[slot] % 3 == id % 3 {
            acc += ((x >> 11) as f64 * 1e-16).ln_1p();
        } else {
            states[slot] = states[slot].wrapping_add(id);
        }
        heap.push(Reverse((at + x % 1000, id ^ x as u32)));
    }
    black_box((acc, &*states));
    t.elapsed_s()
}

/// Timed work this clock lets pile up before it runs the kernel again.
const SLICE_CPU_S: f64 = 0.01;

/// Times work in on-CPU seconds and in reference seconds, and sums
/// both until [`RefClock::take`]. The work comes in steps; once the
/// steps since the last kernel run add up to [`SLICE_CPU_S`], they make
/// a slice, and the kernel runs again.
#[derive(Debug)]
pub struct RefClock {
    /// The kernel's state table.
    states: Vec<u32>,
    /// The kernel's time just before the open slice.
    last_kernel_s: f64,
    /// CPU time of the open slice.
    open_s: f64,
    cpu_s: f64,
    ref_s: f64,
}

/// What a [`RefClock`] summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    /// On-CPU seconds.
    pub cpu_s: f64,
    /// On-CPU seconds scaled to the reference host's speed.
    pub ref_s: f64,
}

impl RefClock {
    pub fn new() -> RefClock {
        let mut states = vec![1; KERNEL_STATES];
        kernel(&mut states); // warm-up: page in the code and the table
        RefClock {
            last_kernel_s: kernel(&mut states),
            states,
            open_s: 0.0,
            cpu_s: 0.0,
            ref_s: 0.0,
        }
    }

    /// Runs `work` as one timed step of the open slice.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t = CpuTimer::start();
        let out = work();
        self.open_s += t.elapsed_s();
        if self.open_s >= SLICE_CPU_S {
            self.close_slice();
        }
        out
    }

    /// Scales the open slice's CPU time by the reference kernel's
    /// speed, the mean of one run just before the slice and one just
    /// after it. The kernel's own time is not counted.
    fn close_slice(&mut self) {
        let after = kernel(&mut self.states);
        let kernel_s = (self.last_kernel_s + after) / 2.0;
        self.last_kernel_s = after;
        self.cpu_s += self.open_s;
        self.ref_s += self.open_s * KERNEL_REF_S / kernel_s;
        self.open_s = 0.0;
    }

    /// What was timed since the last `take`, and a fresh start.
    pub fn take(&mut self) -> Spent {
        if self.open_s > 0.0 {
            self.close_slice();
        }
        let spent = Spent {
            cpu_s: self.cpu_s,
            ref_s: self.ref_s,
        };
        self.cpu_s = 0.0;
        self.ref_s = 0.0;
        spent
    }
}
