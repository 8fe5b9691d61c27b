//! Model-checked work-stealing deque invariants (`--cfg sfrd_model` only).
//!
//! Drives the Chase-Lev deque through thousands of seeded
//! sequentially-consistent interleavings and asserts the
//! `WorkStealing.tla` invariant set:
//!
//! * **W1** (no lost tasks) + **W2** (no double execution): the multiset of
//!   items removed by the owner, the thieves, and the final drain is exactly
//!   the multiset pushed.
//! * **W3** (LIFO-local / FIFO-steal): the owner's pop sequence is strictly
//!   decreasing over a monotone push order; each thief's stolen sequence is
//!   strictly increasing (steals advance `top`, which only grows).
//! * **W6** (bounded stealing): every schedule terminates — a thief spinning
//!   on `Retry` forever would hang the round-robin truncation phase, which
//!   only ends when all threads finish.
//!
//! The lock-op census (`Report::lock_ops == 0`) certifies the hot path took
//! zero mutex acquisitions across *every* explored schedule; the final test
//! shows the census is live by observing a real `sync::Mutex` workload.
#![cfg(sfrd_model)]

use std::sync::Arc;

use sfrd_runtime::chase_lev::{Steal, Stealer, Worker};
use sfrd_runtime::model::{self, Config};
use sfrd_runtime::sync::Mutex;

/// Steal until `Empty`, collecting the values. `Empty` is a legitimate
/// early exit (the owner may not have pushed yet) — exactly-once is
/// checked against the union including the owner's drain.
fn run_thief(s: Stealer<usize>) -> Vec<usize> {
    let mut got = Vec::new();
    loop {
        match s.steal() {
            Steal::Success(v) => got.push(v),
            Steal::Empty => break,
            Steal::Retry => {}
        }
    }
    got
}

fn assert_strictly_increasing(v: &[usize], who: &str) {
    for w in v.windows(2) {
        assert!(w[0] < w[1], "{who}: not strictly increasing: {v:?}");
    }
}

#[test]
fn deque_w1_w2_w3_two_thieves_census_zero() {
    const N: usize = 6;
    let cfg = Config {
        schedules: 1200,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        // cap 2 so the owner grows the buffer (2 -> 4 -> 8) while thieves
        // race it — a steal from a retired buffer is inside the explored
        // space.
        let w: Worker<usize> = Worker::with_capacity(2);
        let s1 = w.stealer();
        let s2 = w.stealer();
        let h1 = model::spawn(move || run_thief(s1));
        let h2 = model::spawn(move || run_thief(s2));
        for i in 0..N {
            w.push(i);
        }
        let mut mine = Vec::new();
        while let Some(v) = w.pop() {
            mine.push(v);
        }
        let t1 = h1.join();
        let t2 = h2.join();

        // W3: LIFO for the owner (monotone pushes => decreasing pops) ...
        for pair in mine.windows(2) {
            assert!(pair[0] > pair[1], "owner pops not LIFO: {mine:?}");
        }
        // ... FIFO for each thief (top only advances).
        assert_strictly_increasing(&t1, "thief 1");
        assert_strictly_increasing(&t2, "thief 2");

        // W1 + W2: every pushed item removed exactly once.
        let mut all: Vec<usize> = mine;
        all.extend(t1);
        all.extend(t2);
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>(), "lost or duplicated task");
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(
        report.lock_ops, 0,
        "Chase-Lev hot path must take zero mutex acquisitions"
    );
}

/// The census is not vacuous: a workload that *does* lock reports it.
#[test]
fn census_observes_real_mutex_traffic() {
    let cfg = Config {
        schedules: 64,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let m = Arc::new(Mutex::new(0u64));
        let m2 = Arc::clone(&m);
        let h = model::spawn(move || {
            *m2.lock() += 1;
        });
        *m.lock() += 1;
        h.join();
        assert_eq!(*m.lock(), 2);
    });
    assert!(
        report.lock_ops >= 3 * report.schedules as u64,
        "census missed lock operations: {report:?}"
    );
}
