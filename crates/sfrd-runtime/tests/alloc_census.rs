//! Allocation census of the pool's task path and of the deque's buffers.
//! A binary of its own: the counting `#[global_allocator]` sees every
//! thread of the process, so its tests run one at a time (`serial`) and no
//! other test runs beside them.
//!
//! A task is one allocation, the block holding its body, flags and output.
//! A sync may add two more: the frame's children list growing 0 → 4 → 8
//! entries (with `NullHooks` the strands are `()`, so the vector of joined
//! strands allocates nothing).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sfrd_runtime::chase_lev::{Steal, Worker};
use sfrd_runtime::{Cx, NullHooks, Runtime};

/// The system allocator, counting the blocks it hands out (`realloc`
/// counts too: a growing vector pays one call per growth) and, on threads
/// inside [`counted`], the bytes live.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed by threads inside [`counted`].
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Run `body` with this thread's allocations and frees in `LIVE_BYTES`.
fn counted<T>(body: impl FnOnce() -> T) -> T {
    COUNTED.with(|c| c.set(true));
    let out = body();
    COUNTED.with(|c| c.set(false));
    out
}

fn count_bytes(delta: i64) {
    if COUNTED.with(Cell::get) {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count_bytes(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count_bytes(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held by each test for its whole run: the census counts every thread.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _serial = serial();
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

/// A deque grows from 32 to at least 4 096 slots while a stealer on
/// another thread takes from it. Its grown-out buffers stay allocated
/// until the deque drops; then every byte of them, and of the items
/// popped, stolen or left queued, is returned.
#[test]
fn a_grown_deque_returns_every_buffer_on_drop() {
    const GROWN: usize = 4096;
    let _serial = serial();
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let (owner, stealer) = counted(|| {
        let owner: Worker<Box<u64>> = Worker::new();
        let stealer = owner.stealer();
        (owner, stealer)
    });
    let stolen = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            counted(|| {
                while !stop.load(Ordering::Acquire) {
                    match stealer.steal() {
                        Steal::Success(item) => {
                            drop(item);
                            stolen.fetch_add(1, Ordering::Release);
                        }
                        Steal::Retry => {}
                        Steal::Empty => std::thread::yield_now(),
                    }
                }
                drop(stealer);
            })
        });
        counted(|| {
            // The deque held more than half of `GROWN` items at once, so
            // its buffer reached `GROWN` slots (it holds at most its
            // capacity, and capacities are powers of two).
            let mut pushed = 0u64;
            while owner.len() <= GROWN / 2 {
                owner.push(Box::new(pushed));
                pushed += 1;
                if pushed.is_multiple_of(3) {
                    drop(owner.pop());
                }
                assert!(
                    pushed < 1 << 24,
                    "the stealer kept the deque below {GROWN} slots"
                );
            }
            while stolen.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
    });
    // Leave items queued: the drop frees them with every buffer.
    counted(|| {
        for item in 0..8 {
            owner.push(Box::new(item));
        }
        drop(owner);
    });
    assert_eq!(
        LIVE_BYTES.load(Ordering::SeqCst) - before,
        0,
        "bytes the deque allocated and never returned"
    );
}
