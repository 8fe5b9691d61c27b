//! A journal is untrusted input (`sfrd-serve` decodes whatever a client
//! sends), so no event may allocate far past the frame that carries it.
//! An `Accesses` event's entry count is checked against the bytes left
//! in its frame before its entries are allocated; this suite measures the
//! largest single allocation the decoder makes for one maximal frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sfrd_trace::{
    JEvent, JournalError, JournalReader, JOURNAL_MAGIC, JOURNAL_VERSION, MAX_FRAME_LEN,
};

/// The system allocator, noting the largest block it was asked for
/// (`alloc_zeroed` and `realloc` default to calling `alloc`).
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// No decode of one frame (at most [`MAX_FRAME_LEN`], 1 MiB) may make a
/// single allocation this large.
const ALLOC_BOUND: usize = 32 << 20;

/// Events frame kind and the `Accesses` opcode (DESIGN.md §12).
const FRAME_EVENTS: u8 = 1;
const OP_ACCESSES: u8 = 0x07;

/// `v < 2^28` as a four-byte LEB128 varint, padded with continuation
/// bits if shorter (the reader takes any encoding of a value).
fn varint4(v: usize) -> [u8; 4] {
    assert!(v < 1 << 28);
    [0, 7, 14, 21].map(|shift| (v >> shift & 0x7f) as u8 | if shift < 21 { 0x80 } else { 0 })
}

/// A journal of one maximal events frame holding one `Accesses` event on
/// the root strand that claims `n(room)` entries, where `room` is the
/// frame's bytes left after the count. Everything past the count is zero
/// bytes, so whatever the bitmap leaves decodes as zero-delta addresses.
fn one_access_frame(n: impl Fn(usize) -> usize) -> Vec<u8> {
    // Kind, opcode, strand 0, no filtered reads or writes, then the count.
    let mut payload = vec![FRAME_EVENTS, OP_ACCESSES, 0, 0, 0];
    let room = MAX_FRAME_LEN as usize - payload.len() - 4;
    payload.extend_from_slice(&varint4(n(room)));
    payload.resize(MAX_FRAME_LEN as usize, 0);

    let mut journal = JOURNAL_MAGIC.to_vec();
    journal.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    journal.extend_from_slice(&0u32.to_le_bytes());
    journal.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    journal.extend_from_slice(&payload);
    journal
}

/// Decode the first event of `journal`, returning it and the largest
/// single allocation made while decoding.
fn first_event(journal: &[u8]) -> (Result<Option<JEvent>, JournalError>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let event = JournalReader::new(journal).and_then(|mut r| r.next_event());
    (event, LARGEST.load(Ordering::Relaxed))
}

/// The count a bitmap-only check lets through — eight entries per byte
/// left, a bitmap that fills the frame and no room for one address — used
/// to reserve 16 bytes per entry, 128 MiB, before failing. The densest
/// event that does fit, one address byte and one bitmap bit per entry,
/// decodes under the same bound. (One test: the allocator's record is
/// process-wide.)
#[test]
fn an_overcounted_accesses_event_is_rejected_before_it_allocates() {
    let (event, largest) = first_event(&one_access_frame(|room| 8 * room));
    assert!(
        matches!(event, Err(JournalError::Truncated)),
        "decoded {event:?}"
    );
    assert!(
        largest < ALLOC_BOUND,
        "largest single allocation {largest} bytes for a {MAX_FRAME_LEN}-byte frame"
    );

    let (event, largest) = first_event(&one_access_frame(|room| room * 8 / 9));
    let Ok(Some(JEvent::Accesses { entries, .. })) = event else {
        panic!("decoded {event:?}");
    };
    assert!(entries.len() > 900_000, "{} entries", entries.len());
    assert!(
        largest < ALLOC_BOUND,
        "largest single allocation {largest} bytes for the densest legal frame"
    );
}
