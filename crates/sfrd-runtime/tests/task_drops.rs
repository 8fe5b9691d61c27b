//! Drop and panic safety of the one-block task: every value a body
//! captures and every result it returns drops exactly once, whoever runs
//! the body (its deque entry or a `get` in place), whether it runs to the
//! end or panics, and whether anyone reads the result. `run` re-raises the
//! first panic and the same pool then runs another scope.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use sfrd_runtime::{Cx, NullHooks, Runtime};

/// Counts its own drops.
struct Tracked<'a>(&'a AtomicUsize);

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic>")
}

/// The pool still runs a scope after a panicking one.
fn assert_reusable(rt: &Runtime<NullHooks>) {
    let v = rt.run(Arc::new(NullHooks), |ctx| {
        let h = ctx.create(|_| 7u8);
        ctx.get(h)
    });
    assert_eq!(v, 7);
}

#[test]
fn an_escaping_futures_capture_and_result_drop_once() {
    for workers in [1, 2, 4] {
        let rt: Runtime<NullHooks> = Runtime::new(workers);
        let (captured, result) = (AtomicUsize::new(0), AtomicUsize::new(0));
        rt.run(Arc::new(NullHooks), |ctx| {
            let cap = Tracked(&captured);
            let res = &result;
            let h = ctx.create(move |_| {
                let _cap = cap;
                Tracked(res)
            });
            drop(h);
        });
        assert_eq!(captured.load(Ordering::SeqCst), 1, "workers={workers}");
        assert_eq!(result.load(Ordering::SeqCst), 1, "workers={workers}");
    }
}

#[test]
fn a_sibling_panic_drops_every_capture_once() {
    for workers in [1, 2, 4] {
        for _ in 0..20 {
            let rt: Runtime<NullHooks> = Runtime::new(workers);
            let captured = AtomicUsize::new(0);
            let res = catch_unwind(AssertUnwindSafe(|| {
                rt.run(Arc::new(NullHooks), |ctx| {
                    let cap = Tracked(&captured);
                    ctx.spawn(move |_| drop(cap));
                    ctx.spawn(|_| panic!("sibling boom"));
                    ctx.sync();
                });
            }));
            let p = res.expect_err("the sibling's panic reaches the owner");
            assert_eq!(panic_message(&*p), "sibling boom", "workers={workers}");
            assert_eq!(captured.load(Ordering::SeqCst), 1, "workers={workers}");
            assert_reusable(&rt);
        }
    }
}

/// One worker: the root creates the future, then spawns a child that gets
/// it. The root's sync pops the child; the child cannot pop the future's
/// entry (it lies below the child's floor), so its `get` claims the body
/// and runs it in place. The entry runs after the root, as a no-op.
#[test]
fn a_body_claimed_by_get_runs_once_and_its_entry_is_a_no_op() {
    let rt: Runtime<NullHooks> = Runtime::new(1);
    let (captured, result, runs) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let getting = AtomicBool::new(false);
    let ran_inside_get = AtomicBool::new(false);
    rt.run(Arc::new(NullHooks), |ctx| {
        let cap = Tracked(&captured);
        let (res, runs, getting, ran_inside_get) = (&result, &runs, &getting, &ran_inside_get);
        let h = ctx.create(move |_| {
            let _cap = cap;
            runs.fetch_add(1, Ordering::SeqCst);
            ran_inside_get.store(getting.load(Ordering::SeqCst), Ordering::SeqCst);
            Tracked(res)
        });
        ctx.spawn(move |c| {
            getting.store(true, Ordering::SeqCst);
            drop(c.get(h));
        });
        ctx.sync();
    });
    assert!(
        ran_inside_get.load(Ordering::SeqCst),
        "the get ran the body"
    );
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert_eq!(captured.load(Ordering::SeqCst), 1);
    assert_eq!(result.load(Ordering::SeqCst), 1);
    assert_eq!(
        rt.stats().tasks_run,
        3,
        "root, child, the future's no-op entry"
    );
}

/// The same shape, but the body panics inside the child's `get`.
#[test]
fn a_body_panicking_inside_get_drops_once_and_is_reraised() {
    let rt: Runtime<NullHooks> = Runtime::new(1);
    let captured = AtomicUsize::new(0);
    let res = catch_unwind(AssertUnwindSafe(|| {
        rt.run(Arc::new(NullHooks), |ctx| {
            let cap = Tracked(&captured);
            let h = ctx.create(move |_| -> u8 {
                let _cap = cap;
                panic!("body boom")
            });
            ctx.spawn(move |c| {
                c.get(h);
            });
            ctx.sync();
        });
    }));
    let p = res.expect_err("the body's panic reaches the owner");
    assert_eq!(panic_message(&*p), "body boom");
    assert_eq!(captured.load(Ordering::SeqCst), 1);
    assert_reusable(&rt);
}
