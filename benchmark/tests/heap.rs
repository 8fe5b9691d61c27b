//! The counting allocator. One test in a file of its own: the counters are
//! process-wide, and tests of one file share a process.

use std::hint::black_box;

#[test]
fn peak_is_the_most_bytes_live_at_once() {
    let before = black_box(vec![0u8; 1 << 20]);
    let ((), peak) = benchmark::heap::track(|| {
        // Memory from before tracking started counts for nothing when freed.
        drop(before);
        let a = black_box(vec![0u8; 1 << 20]);
        drop(a);
        let b = black_box(vec![0u8; 3 << 20]);
        let c = black_box(vec![0u8; 1 << 20]);
        drop((b, c));
    });
    // At the peak 4 MiB are live, against 1 MiB when tracking started.
    let slack = 64 << 10;
    assert!((3 << 20..(3 << 20) + slack).contains(&peak), "{peak}");
}
