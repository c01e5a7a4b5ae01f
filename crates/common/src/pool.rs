//! A scoped worker pool for deterministic parallelism across peers.
//!
//! The pool is deliberately tiny and dependency-free: a
//! [`std::thread::scope`] fan-out over a chunked work queue driven by a
//! single atomic cursor. Each task is identified by its index in the
//! input slice; results are collected as `(index, value)` pairs and
//! sorted back into input order before returning, so **the output of
//! [`run_tasks`] is a pure function of its input** — worker count,
//! scheduling order, and preemption never change what the caller sees.
//! That property is what lets the query engines serve data owners in
//! parallel, and the submitter's join stage probe owner batches and
//! aggregate group-by partitions in parallel, while keeping results,
//! traces, and telemetry byte-identical at any thread count. Operators
//! inside one execution run sequentially on their caller's thread.
//!
//! Thread-count resolution (first match wins):
//!
//! 1. a process-wide override set by [`set_threads`] (tests/benches);
//! 2. the `BESTPEER_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! The last two are resolved once per process.
//!
//! A count of 1 runs every task inline on the caller's thread — the
//! exact sequential path, not a one-worker simulation of it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Total tasks executed on pool workers (drained by telemetry).
static TASKS: AtomicU64 = AtomicU64::new(0);

/// Total wall-clock nanoseconds spent inside pool tasks (drained by
/// telemetry; wall-clock, so registry-only — never in a query report).
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Force the pool to `n` threads for this process (0 clears). Tests and
/// benches use this instead of mutating the environment; safe to flip
/// while other work runs because results are thread-count invariant.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Clear a [`set_threads`] override.
pub fn clear_threads() {
    THREAD_OVERRIDE.store(0, Ordering::SeqCst);
}

/// The worker count the pool will use: the [`set_threads`] override,
/// else `BESTPEER_THREADS`, else the machine's available parallelism.
/// The environment and the machine are read on the first call only:
/// `available_parallelism` can read cgroup files on every call.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        if let Ok(s) = std::env::var("BESTPEER_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Drain the pool's `(tasks, busy_ns)` counters, resetting both to
/// zero. The telemetry layer calls this once per query to fold pool
/// activity into the metrics registry.
pub fn drain_counters() -> (u64, u64) {
    (
        TASKS.swap(0, Ordering::SeqCst),
        BUSY_NS.swap(0, Ordering::SeqCst),
    )
}

/// Run `f(i, &items[i])` for every item and return the results in input
/// order. With one thread (or at most one item) the tasks run inline on
/// the caller's thread; otherwise scoped workers pull indices from an
/// atomic cursor and the collected results are sorted back into input
/// order, so the returned vector is identical either way.
pub fn run_tasks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut tasks = 0u64;
                let started = Instant::now();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                    tasks += 1;
                }
                TASKS.fetch_add(tasks, Ordering::Relaxed);
                BUSY_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                done.lock().expect("pool results poisoned").extend(local);
            });
        }
    });
    let mut out = done.into_inner().expect("pool results poisoned");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..10_000).collect();
        set_threads(8);
        let got = run_tasks(&items, |i, x| (i as u64) * 3 + x);
        clear_threads();
        let want: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 * 3 + x)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let items: Vec<i64> = (0..5000).map(|i| i * 7 % 113).collect();
        set_threads(1);
        let seq = run_tasks(&items, |i, x| x.wrapping_mul(i as i64 + 1));
        set_threads(8);
        let par = run_tasks(&items, |i, x| x.wrapping_mul(i as i64 + 1));
        clear_threads();
        assert_eq!(seq, par);
    }
}
