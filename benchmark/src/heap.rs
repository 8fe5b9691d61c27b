//! Peak live heap, counted by the benchmark binary's allocator — from
//! outside the program, so it does not rest on the `heap_bytes`
//! accounting of the crates it measures.
//!
//! Counting is off except inside [`track`]: two shared atomic updates per
//! allocation would otherwise tax the timed parallel cells.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The process allocator: `System`, plus a live-byte count while tracking.
pub struct Counting;

static TRACKING: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the moment tracking started (frees of older
/// memory take it below zero).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if TRACKING.load(Ordering::Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Run `f` and return its result with the peak number of heap bytes that
/// were live at once during it, over what was live when it started. Not
/// reentrant; call from one thread at a time.
pub fn track<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    let r = f();
    TRACKING.store(false, Ordering::SeqCst);
    (r, PEAK.load(Ordering::Relaxed).max(0) as usize)
}
