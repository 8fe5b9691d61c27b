//! Runtime stress tests: scheduler correctness under load, mixed
//! construct patterns, and pathological shapes (wide fan-out, deep
//! chains, futures crossing task boundaries, panics mid-flight).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sfrd_runtime::{run_sequential, Cx, NullHooks, Runtime};

fn rt(workers: usize) -> Runtime<NullHooks> {
    Runtime::new(workers)
}

/// Wide fan-out: thousands of leaf tasks joined by one sync.
#[test]
fn wide_fanout_spawns() {
    let pool = rt(4);
    let counter = AtomicU64::new(0);
    pool.run(Arc::new(NullHooks), |ctx| {
        for _ in 0..5000 {
            ctx.spawn(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        ctx.sync();
        assert_eq!(counter.load(Ordering::Relaxed), 5000);
    });
    assert!(pool.stats().tasks_run >= 5000);
}

/// Wide fan-out with futures, gotten in reverse creation order.
#[test]
fn futures_gotten_in_reverse() {
    let pool = rt(3);
    let total = pool.run(Arc::new(NullHooks), |ctx| {
        let handles: Vec<_> = (0..2000u64).map(|i| ctx.create(move |_| i)).collect();
        handles.into_iter().rev().map(|h| ctx.get(h)).sum::<u64>()
    });
    assert_eq!(total, (0..2000).sum());
}

/// A future chain where each future creates the next (escaping upward).
#[test]
fn future_creates_future_chain() {
    fn chain<'s, C: Cx<'s>>(ctx: &mut C, depth: u64) -> u64 {
        if depth == 0 {
            return 0;
        }
        let h = ctx.create(move |c| chain(c, depth - 1));
        1 + ctx.get(h)
    }
    let pool = rt(2);
    let d = pool.run(Arc::new(NullHooks), |ctx| chain(ctx, 500));
    assert_eq!(d, 500);
}

/// Handles passed into spawned children (structured: the spawn is
/// downstream of the create's continuation).
#[test]
fn handle_moved_into_spawned_child() {
    let pool = rt(3);
    let out = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&out);
    pool.run(Arc::new(NullHooks), move |ctx| {
        let h = ctx.create(|_| 21u64);
        let out = Arc::clone(&out2);
        ctx.spawn(move |c| {
            let v = c.get(h);
            out.store(v * 2, Ordering::Relaxed);
        });
        ctx.sync();
    });
    assert_eq!(out.load(Ordering::Relaxed), 42);
}

/// Mixed recursion: spawns and creates interleaved at every level.
#[test]
fn mixed_spawn_create_recursion() {
    fn go<'s, C: Cx<'s>>(ctx: &mut C, depth: u32, acc: &'s AtomicU64) {
        if depth == 0 {
            acc.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let h = ctx.create(move |c| {
            go(c, depth - 1, acc);
            depth as u64
        });
        ctx.spawn(move |c| go(c, depth - 1, acc));
        go(ctx, depth - 1, acc);
        ctx.sync();
        assert_eq!(ctx.get(h), depth as u64);
    }
    for workers in [1, 4] {
        let pool = rt(workers);
        let acc = AtomicU64::new(0);
        pool.run(Arc::new(NullHooks), |ctx| go(ctx, 8, &acc));
        assert_eq!(
            acc.load(Ordering::Relaxed),
            3u64.pow(8),
            "workers={workers}"
        );
    }
}

/// Sequential and parallel runtimes compute identical results on the same
/// mixed program.
#[test]
fn seq_and_par_agree() {
    fn compute<'s, C: Cx<'s>>(ctx: &mut C, n: u64) -> u64 {
        if n < 2 {
            return 1;
        }
        let h = ctx.create(move |c| compute(c, n - 1));
        let b = compute(ctx, n - 2);
        ctx.get(h).wrapping_mul(3).wrapping_add(b)
    }
    let serial = run_sequential(&NullHooks, |ctx| compute(ctx, 14));
    let pool = rt(4);
    let parallel = pool.run(Arc::new(NullHooks), |ctx| compute(ctx, 14));
    assert_eq!(serial, parallel);
}

/// Panic in a deeply nested future unwinds cleanly and the pool survives.
#[test]
fn nested_panic_recovery() {
    let pool = rt(3);
    for round in 0..5 {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(Arc::new(NullHooks), |ctx| {
                let h = ctx.create(|c| {
                    let inner = c.create(|_| -> u32 { panic!("deep boom") });
                    c.get(inner)
                });
                ctx.get(h)
            })
        }));
        assert!(r.is_err(), "round {round}");
        // Pool still functional.
        let ok = pool.run(Arc::new(NullHooks), |_| round);
        assert_eq!(ok, round);
    }
}

/// Steal accounting: the root spawns one child and, outside any join,
/// spins until the child has run. The root's thread never pops its own
/// deque meanwhile, so only a thief can run the child.
#[test]
fn steals_happen_under_parallel_load() {
    let stats = finishes_within(60, || {
        let pool = rt(4);
        let ran = AtomicBool::new(false);
        pool.run(Arc::new(NullHooks), |ctx| {
            ctx.spawn(|_| ran.store(true, Ordering::Release));
            while !ran.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            ctx.sync();
        });
        pool.stats()
    });
    assert_eq!(stats.tasks_run, 2, "root and child");
    assert!(stats.steals > 0, "{stats:?}");
}

/// Runs `body` on a helper thread and fails unless it returns within
/// `secs`: a join that deadlocks is a failed test, not a wedged run.
fn finishes_within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc;
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match result.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(e) => panic!("the program did not finish within {secs} s: {e}"),
    }
}

/// A `get` chain created before its first link runs, on three workers:
/// link 1 holds one worker on a channel, link 2 blocks another in
/// `get(link 1)`, and link 3 — which `get`s link 2 — is pushed while
/// link 2 waits. A join that helps with any ready task runs link 3 on top
/// of link 2, and the two wait on each other for good; a join that runs
/// only work that cannot wait on it leaves link 3 to the root.
#[test]
fn a_blocked_get_never_runs_a_later_link_of_its_chain() {
    use std::sync::mpsc;
    use std::time::Duration;
    let out = finishes_within(60, || {
        let pool = rt(3);
        let (open, gate) = mpsc::channel::<()>();
        let (l1_tx, l1_started) = mpsc::channel::<()>();
        let (l2_tx, l2_started) = mpsc::channel::<()>();
        let (l3_tx, l3_started) = mpsc::channel::<()>();
        pool.run(Arc::new(NullHooks), move |ctx| {
            let l1 = ctx.create(move |_| {
                l1_tx.send(()).unwrap();
                gate.recv().unwrap();
                1u64
            });
            l1_started.recv().unwrap();
            let l2 = ctx.create(move |c| {
                l2_tx.send(()).unwrap();
                c.get(l1) + 1
            });
            l2_started.recv().unwrap();
            let l3 = ctx.create(move |c| {
                let _ = l3_tx.send(());
                c.get(l2) + 1
            });
            // Give a helping join the time to pick link 3 up.
            let _ = l3_started.recv_timeout(Duration::from_millis(300));
            open.send(()).unwrap();
            ctx.get(l3)
        })
    });
    assert_eq!(out, 3);
}

/// The `sync` twin: future G syncs on a child that another worker holds
/// on a channel, and the root then creates T, which `get`s G. A helping
/// `sync` inside G runs T on top of G's own frame; T waits for G, G for
/// T to return.
#[test]
fn a_blocked_sync_never_runs_a_task_that_gets_its_own_future() {
    use std::sync::mpsc;
    use std::time::Duration;
    let out = finishes_within(60, || {
        let pool = rt(3);
        let (open, gate) = mpsc::channel::<()>();
        let (k_tx, k_started) = mpsc::channel::<()>();
        let (g_tx, g_syncing) = mpsc::channel::<()>();
        let (t_tx, t_started) = mpsc::channel::<()>();
        pool.run(Arc::new(NullHooks), move |ctx| {
            let g = ctx.create(move |c| {
                c.spawn(move |_| {
                    k_tx.send(()).unwrap();
                    gate.recv().unwrap();
                });
                k_started.recv().unwrap();
                g_tx.send(()).unwrap();
                c.sync();
                1u64
            });
            g_syncing.recv().unwrap();
            let t = ctx.create(move |c| {
                let _ = t_tx.send(());
                c.get(g) + 1
            });
            // Give a helping sync the time to pick T up.
            let _ = t_started.recv_timeout(Duration::from_millis(300));
            open.send(()).unwrap();
            ctx.get(t)
        })
    });
    assert_eq!(out, 2);
}

/// Many back-to-back scopes on one pool (allocation hygiene).
#[test]
fn repeated_scopes_do_not_leak_state() {
    let pool = rt(2);
    for i in 0..200u64 {
        let got = pool.run(Arc::new(NullHooks), move |ctx| {
            let h = ctx.create(move |_| i);
            ctx.get(h)
        });
        assert_eq!(got, i);
    }
}

/// Quiescence soak: thousands of back-to-back scopes per pool, each ending
/// in the completion that takes `pending` from 1 to 0, whose broadcast on
/// `idle` wakes the caller if it sleeps there. The bodies are the shapes that reach zero differently — an
/// empty root, a future that escapes its creator, and a child that
/// panics. The soak runs on a helper thread and the test thread waits on a
/// channel with a timeout, so a lost wakeup is a failure naming the pool
/// and the scope, not a wedged run.
#[test]
fn quiescence_soak_never_loses_the_final_wakeup() {
    use std::sync::mpsc;
    use std::time::Duration;

    const SCOPES: u64 = 5000;
    const REPORT_EVERY: u64 = 250;

    let (progress, watchdog) = mpsc::channel::<(usize, u64)>();
    let soak = std::thread::spawn(move || {
        for workers in [1, 2, 4, 8] {
            let pool = rt(workers);
            let escaped = AtomicU64::new(0);
            let mut expected = 0;
            for scope in 0..SCOPES {
                match scope % 16 {
                    // A child panics under a syncing root; the panic
                    // reaches the caller and the pool takes the next scope.
                    15 => {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            pool.run(Arc::new(NullHooks), |ctx| {
                                ctx.spawn(|_| panic!("soak boom"));
                                ctx.sync();
                            })
                        }));
                        assert!(r.is_err(), "workers={workers} scope={scope}");
                    }
                    // The root returns at once: its own completion takes
                    // `pending` to zero, and the caller never sleeps.
                    k if k % 2 == 0 => pool.run(Arc::new(NullHooks), |_| {}),
                    // The root drops its handle and returns; the future
                    // is the scope's last job, run by the caller or by a
                    // thief. On more than one worker, every other such
                    // scope holds the root until a thief has the future,
                    // and the future until some worker parks after it
                    // started (on two workers, the caller: the one other
                    // thread). Only the future's completion, which takes
                    // `pending` to zero, can then wake the caller.
                    k => {
                        expected += 1;
                        let hold = workers > 1 && k % 4 == 1;
                        let stolen = AtomicBool::new(false);
                        pool.run(Arc::new(NullHooks), |ctx| {
                            drop(ctx.create(|_| {
                                // Read before the root may return, so the
                                // caller's park is counted after it.
                                let parks = pool.stats().parks;
                                stolen.store(true, Ordering::Release);
                                while hold && pool.stats().parks == parks {
                                    std::thread::yield_now();
                                }
                                std::hint::black_box((0..64u64).sum::<u64>());
                                escaped.fetch_add(1, Ordering::SeqCst);
                            }));
                            while hold && !stolen.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        });
                        assert_eq!(
                            escaped.load(Ordering::SeqCst),
                            expected,
                            "workers={workers} scope={scope}: scope returned before its future ran"
                        );
                    }
                }
                if (scope + 1) % REPORT_EVERY == 0 {
                    progress.send((workers, scope + 1)).unwrap();
                }
            }
            assert!(pool.stats().tasks_run >= SCOPES + expected);
        }
    });

    // The soak thread owns the only sender: the loop ends when it does.
    let mut last = (0, 0);
    loop {
        match watchdog.recv_timeout(Duration::from_secs(30)) {
            Ok(at) => last = at,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!(
                "no progress for 30 s after (workers, scopes) = {last:?}: a scope never quiesced"
            ),
        }
    }
    soak.join().expect("soak thread failed");
    assert_eq!(last, (8, SCOPES));
}
