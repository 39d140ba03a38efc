//! The clock behind the benchmark's own timings: CPU time of the calling
//! thread, and a probe of how fast the host runs that puts those times on
//! a reference host's speed.
//!
//! On a shared host the wall clock also counts time the thread spends
//! waiting for a CPU, behind other processes or while the hypervisor runs
//! another guest (steal time), so medians of the same code moved between
//! invocations by more than any bound could absorb. Thread CPU time counts
//! only the time the thread runs. The simulator is single-threaded, so on
//! an idle host the two clocks agree.

use crate::stats::median;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::ffi::{c_int, c_long};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU seconds this thread has used so far.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A span timed on the thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    /// Starts a span now.
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu_s())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn elapsed_s(self) -> f64 {
        thread_cpu_s() - self.0
    }
}

/// Timers in the probe's calendar, and entries in its ordered index.
const PROBE_DEPTH: u64 = 16_384;

/// Range of the ordered index's keys.
const PROBE_KEYS: u64 = 1 << 20;

/// Keys of the probe's hash map.
const PROBE_BUCKETS: u64 = 32_768;

/// Calendar steps of one probe pass.
const PROBE_STEPS: u32 = 10_000;

/// CPU seconds of one probe pass that define the reference speed: about
/// its cost on the reference host (a shared 2-vCPU Xeon VM at 2.0 GHz)
/// when that host is moderately busy.
pub const REFERENCE_PROBE_S: f64 = 1.0e-2;

/// Measures how fast the host runs right now. CPU time still stretches
/// when another guest shares the physical core or its caches: on the
/// reference host, in a busy hour, 25-second medians of the same run
/// spread by 20–50%.
///
/// A probe pass is a fixed piece of work shaped like the simulator's own
/// inner loop, built only on `std` so that no change to the simulator
/// moves it: a calendar (`BinaryHeap`) of timers, an ordered index
/// (`BTreeMap`) and a hash map of small vectors, a few MB in all, driven
/// by a fixed pseudo-random sequence. It follows most of the simulator's
/// slowdown: in that busy hour, dividing by it cut the spread of
/// 25-second medians to 5–7% for PS and Figure 7 runs and to about 15%
/// for ring runs. A probe of random writes to a 1 MiB array, which stays
/// in L2, followed only a third of the slowdown.
#[derive(Debug, Clone, Default)]
pub struct SpeedProbe {
    samples: Vec<f64>,
}

/// CPU seconds of one probe pass.
fn probe_pass() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let t = CpuTimer::start();
    let mut calendar = BinaryHeap::new();
    let mut index = BTreeMap::new();
    // A fixed hasher, so every process lays the map out the same way.
    let mut buckets: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..PROBE_DEPTH {
        calendar.push(Reverse((next() % 1_000_000, i)));
        index.insert(next() % PROBE_KEYS, i);
    }
    for _ in 0..PROBE_STEPS {
        let Reverse((at, i)) = calendar.pop().expect("the calendar never drains");
        calendar.push(Reverse((at + next() % 1_000_000, i)));
        let key = index.range(next() % PROBE_KEYS..).next().map(|(&k, _)| k);
        if let Some(key) = key {
            index.remove(&key);
        }
        index.insert(next() % PROBE_KEYS, i);
        let bucket = buckets.entry(next() % PROBE_BUCKETS).or_default();
        if bucket.len() > 8 {
            bucket.clear();
        } else {
            bucket.push(at);
        }
    }
    black_box((&calendar, &index, &buckets));
    t.elapsed_s()
}

impl SpeedProbe {
    /// Runs one unrecorded pass, which brings the code and the allocator
    /// back into the caches after the work since the last call, then
    /// keeps the CPU seconds of `n` more passes as samples.
    pub fn sample(&mut self, n: usize) {
        probe_pass();
        self.samples.extend((0..n).map(|_| probe_pass()));
    }

    /// The samples' median over [`REFERENCE_PROBE_S`]: 1 at the reference
    /// host's speed, 1.3 on a host running 30% slower. 1 before any
    /// sample.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples).map_or(1.0, |m| m / REFERENCE_PROBE_S)
    }
}
