//! Allocation census of the pool's task path. A binary of its own: the
//! counting `#[global_allocator]` sees every thread of the process, so no
//! other test may run beside this one.
//!
//! A task is one allocation, the block holding its body, flags and output.
//! A sync may add two more: the frame's children list growing 0 → 4 → 8
//! entries (with `NullHooks` the strands are `()`, so the vector of joined
//! strands allocates nothing).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfrd_runtime::{Cx, NullHooks, Runtime};

/// The system allocator, counting the blocks it hands out (`realloc`
/// counts too: a growing vector pays one call per growth).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const FUTURES: u64 = 256;
const FAN: usize = 8;

/// A chain of `FUTURES` futures, each spawning `FAN` empty children and
/// syncing, created and gotten one at a time by the root.
fn program<'s, C: Cx<'s>>(ctx: &mut C) -> u64 {
    let mut total = 0;
    for i in 0..FUTURES {
        let h = ctx.create(move |c| {
            for _ in 0..FAN {
                c.spawn(|_| {});
            }
            c.sync();
            i
        });
        total += ctx.get(h);
    }
    total
}

#[test]
fn a_task_is_one_allocation() {
    let rt: Runtime<NullHooks> = Runtime::new(1);
    let hooks = Arc::new(NullHooks);
    // Warm-up: the deque's buffer and the threads' first-use state.
    rt.run(Arc::clone(&hooks), program);

    let tasks_before = rt.stats().tasks_run;
    let before = ALLOCS.load(Ordering::SeqCst);
    let total = rt.run(hooks, program);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let tasks = rt.stats().tasks_run - tasks_before;

    assert_eq!(total, (0..FUTURES).sum());
    assert_eq!(
        tasks,
        1 + FUTURES * (1 + FAN as u64),
        "root, futures, children"
    );
    let syncs = FUTURES;
    let bound = tasks + 2 * syncs;
    eprintln!(
        "{allocs} allocations for {tasks} tasks and {syncs} syncs ({:.2} per task)",
        allocs as f64 / tasks as f64
    );
    assert!(
        allocs <= bound,
        "{allocs} allocations > {bound}: one per task ({tasks}) plus two per sync ({syncs})"
    );
}
