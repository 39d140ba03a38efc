//! The deterministic fan-out behind `p3 sweep --jobs` and the
//! `p3 figures` runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` across `jobs` worker threads (clamped to `1..=n`) and
/// returns the results **in job-index order**, never completion order.
/// Each simulated run is deterministic, so the merged output is
/// byte-identical however many threads raced to produce it. With
/// `jobs <= 1` the jobs run inline on the caller's thread — the reference
/// behaviour the parallel path is pinned against.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope join panics), and panics if the
/// results mutex was poisoned by such a panic.
#[expect(
    clippy::panic,
    reason = "every job index in 0..n is claimed and filled before the scope joins"
)]
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = f(i);
                match slots.lock() {
                    Ok(mut s) => s[i] = Some(out),
                    Err(_) => return, // a sibling panicked; the scope re-raises
                }
            });
        }
    });
    let slots = slots.into_inner().unwrap_or_else(|e| e.into_inner());
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let serial = run_indexed(1, 64, |i| i * i);
        let parallel = run_indexed(8, 64, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 100);
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(100, 2, |i| i), vec![0, 1]);
    }
}
