//! The pool's process-wide state: the `set_threads` override and the
//! task counters.
//!
//! This file holds one test, so no other test in its process flips the
//! override or runs tasks the counters would see.

use bestpeer_common::pool::{clear_threads, drain_counters, run_tasks, set_threads};

#[test]
fn one_thread_runs_inline_and_counters_drain_to_zero() {
    set_threads(1);
    let tid = std::thread::current().id();
    let got = run_tasks(&[1, 2, 3], |_, x| (std::thread::current().id(), *x));
    assert!(got.iter().all(|(t, _)| *t == tid));
    assert_eq!(got.iter().map(|(_, x)| *x).collect::<Vec<_>>(), [1, 2, 3]);

    drain_counters();
    set_threads(4);
    let _ = run_tasks(&[1u8; 64], |_, x| *x);
    clear_threads();
    let (tasks, _) = drain_counters();
    assert_eq!(tasks, 64);
    assert_eq!(drain_counters(), (0, 0));
}
