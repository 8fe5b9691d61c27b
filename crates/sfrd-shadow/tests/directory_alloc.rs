//! What an access history costs before it holds anything: a detector
//! builds one per run, so its fixed allocation is paid by every run
//! however few locations it touches. A fresh history allocates its root
//! directory node (16 KiB); its first access adds one mid node, one leaf
//! node and one page of slots. This suite counts every byte the global
//! allocator hands out and checks both figures, and that `heap_bytes`
//! reports exactly what was allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sfrd_reach::Pos;
use sfrd_shadow::{PagedHistory, ReaderPolicy, PAGE_SLOTS};

/// The system allocator, counting the bytes of every block it hands out
/// (`alloc_zeroed` and `realloc` default to calling `alloc`).
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The directory's budget for a fresh history and for one access past
/// the page that access needs.
const DIRECTORY_BOUND: usize = 64 << 10;

/// Bytes `f` allocates, and what it returns.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATED.load(Ordering::Relaxed) - before)
}

/// One test only: the counter sees every thread of the binary.
#[test]
fn a_fresh_history_and_one_access_cost_a_page_and_a_few_nodes() {
    // The detectors' slot: 32 bytes around one position word.
    let page = PAGE_SLOTS * 32;
    for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
        let (h, fresh) = allocated(|| PagedHistory::<Pos>::with_policy(policy));
        assert!(
            fresh <= DIRECTORY_BOUND,
            "{policy:?}: a fresh history allocated {fresh} bytes"
        );
        assert_eq!(h.heap_bytes(), fresh, "{policy:?}");
        let ((), first) = allocated(|| {
            h.locked(0x7ffe_dead_bee8, |e| {
                e.begin_write_epoch(Pos::from_index(0))
            })
        });
        assert!(
            fresh + first <= page + DIRECTORY_BOUND,
            "{policy:?}: a history with one location allocated {} bytes",
            fresh + first
        );
        assert_eq!(h.heap_bytes(), fresh + first, "{policy:?}");
        assert_eq!((h.node_allocs(), h.page_allocs()), (2, 1));
    }
}
