//! Model-checked packed-word / snapshot seqlock protocol (`--cfg sfrd_model`).
//!
//! The paged shadow's zero-store paths copy a slot's entry fields
//! non-atomically and validate the copy against the packed word (BUSY
//! check, then an acquire-fenced re-load equality check). These tests
//! drive a writer mutating a mapped entry through `locked()` against a
//! concurrent snapshot reader through ~1000 seeded SC interleavings each
//! and assert:
//!
//! * every snapshot the seqlock *validates* is internally consistent.
//!   Section `k` reads `k - 1` off the stored writer (`7 · (k - 1)`, none
//!   for 0) and installs writer `7k` and reader `11k`, so at every section
//!   boundary `writer == 7k && reader == 11k` for one `k`. The `All`-policy
//!   section re-establishes it only at the *end* of a section that yields
//!   in the middle. A view mixing two sections, or showing half of one,
//!   breaks the equation;
//! * the `All`-policy section also parks a poison value in `writer`
//!   across a yield, so read-by-current-writer — which copies the writer
//!   later than the head — is caught if it ever reads it outside the
//!   window the head was validated in (say, after a busy bail);
//! * the `k` a reader observes, through snapshots and through the locked
//!   path, never goes backwards;
//! * the mapped path takes zero locks: both the history's own fallback-map
//!   census (`lock_ops()`) and the model's facade census stay 0.
//!
//! Honesty: the model cannot tear the field copies themselves (threads are
//! only preempted at facade operations), so this checks the *protocol* —
//! BUSY claim ordering, the validate-before-interpret discipline,
//! slot-ownership checks — not hardware-level byte tearing, which the
//! release-mode stress tests cover on real parallel hardware.
#![cfg(sfrd_model)]

use std::sync::Arc;

use sfrd_runtime::model::{self, Config};
use sfrd_shadow::{PageCursor, PagedHistory, ReaderPolicy};

/// A mapped granule (well below `1 << MAPPED_BITS`).
const ADDR: u64 = 0x40;
/// The reader's future id.
const FUT: u32 = 3;
/// Writes per schedule.
const WRITES: u64 = 4;
/// What `writer` holds in the first part of an `All`-policy section: not a
/// multiple of 7, so no finished section ever installs it.
const POISON: u64 = 3;

fn less(a: &u64, b: &u64) -> bool {
    a < b
}

/// The `k` of a stored writer `7k` (0 for none).
fn k_of(writer: Option<u64>) -> u64 {
    writer.map_or(0, |w| w / 7)
}

#[test]
fn validated_snapshots_are_consistent_and_seq_is_monotone() {
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let hist = Arc::new(PagedHistory::<u64>::with_policy(ReaderPolicy::PerFutureLR));
        // Writer `7k`, then — across a yield — FUT's reader `11k`, which
        // the snapshot finds as FUT's inline pair, so the fast path
        // reaches the writer check.
        let section = |hist: &PagedHistory<u64>| {
            hist.locked(ADDR, |e| {
                let k = k_of(*e.writer) + 1;
                e.begin_write_epoch(7 * k);
                sfrd_runtime::sync::yield_point();
                e.readers.record(FUT, 11 * k, less, less, less);
            })
        };
        section(&hist);

        let writer = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                for _ in 1..WRITES {
                    section(&hist);
                }
            })
        };
        let reader = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                let mut cur = hist.cursor();
                let mut last_k = 0u64;
                for _ in 0..6 {
                    if let Some(snap) = cur.snapshot(ADDR) {
                        let k = k_of(snap.writer());
                        assert_eq!(snap.writer(), Some(7 * k), "writer of no section");
                        assert!((1..=WRITES).contains(&k), "writer {k} of no section");
                        assert!(k >= last_k, "validated writer went backwards");
                        last_k = k;
                    }
                    // The LR read rides the same validated copy down to
                    // its writer check: FUT's pair stays put only for the
                    // reader `11k` stored, and that section's writer is
                    // `7k`.
                    for k in 1..=WRITES {
                        cur.fast_read(ADDR, FUT, 11 * k, less, less, less, |w| {
                            assert_eq!(w, Some(7 * k), "validated snapshot mixes two sections");
                            true
                        });
                    }
                    let k = cur.locked(ADDR, |e| k_of(*e.writer));
                    assert!(k >= last_k, "the writer went backwards");
                    last_k = k;
                }
            })
        };
        writer.join();
        reader.join();

        let (w, readers) = hist.locked(ADDR, |e| (*e.writer, e.readers.len()));
        assert_eq!(w, Some(7 * WRITES), "lost write epoch");
        assert_eq!(readers, 2, "FUT's pair");
        assert_eq!(
            hist.lock_ops(),
            0,
            "mapped path fell back to the locked map"
        );
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(
        report.lock_ops, 0,
        "mapped shadow path must take zero mutex acquisitions"
    );
}

/// The default policy through the same snapshot: a reader racing a writer
/// whose every section passes through a state no snapshot may ever show.
///
/// Section `k` parks [`POISON`] in `writer`, installs writer `7k` (which
/// clears the readers) and only then records the reader `11k`, *yielding
/// to the scheduler with the busy bit held* between the steps. At every
/// section boundary the entry therefore satisfies `writer == 7k && last
/// reader == 11k`; a snapshot validated across or inside a section breaks
/// that equation, and a read-by-current-writer hit at `POISON` has read
/// the writer where no validated window could.
#[test]
fn all_policy_snapshot_is_never_a_mix_of_two_sections() {
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let hist = Arc::new(PagedHistory::<u64>::with_policy(ReaderPolicy::All));
        let section = |hist: &PagedHistory<u64>| {
            hist.locked(ADDR, |e| {
                let k = k_of(*e.writer) + 1;
                *e.writer = Some(POISON);
                sfrd_runtime::sync::yield_point();
                e.begin_write_epoch(7 * k);
                sfrd_runtime::sync::yield_point();
                e.readers.record(FUT, 11 * k, less, less, less);
            })
        };
        section(&hist);

        let writer = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                for _ in 1..WRITES {
                    section(&hist);
                }
            })
        };
        let reader = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                let mut cur = hist.cursor();
                let mut last_k = 0u64;
                for _ in 0..6 {
                    if let Some(snap) = cur.snapshot(ADDR) {
                        let k = k_of(snap.writer());
                        assert!(k >= last_k, "validated writer went backwards");
                        last_k = k;
                        assert_eq!(
                            (snap.writer(), snap.last_reader()),
                            (Some(7 * k), Some(11 * k)),
                            "validated snapshot shows the middle of a section (k = {k})"
                        );
                    }
                    // The same-epoch answers come from the same protocol:
                    // a read hit names the reader, or the writer, of a
                    // complete section, and a write can never hit while
                    // that section's reader is retained.
                    let no_cmp = |_: &u64, _: &u64| -> bool { unreachable!() };
                    let no_writer_check = |_: Option<u64>| -> bool { unreachable!() };
                    let fast_read = |cur: &mut PageCursor<'_, u64>, pos| {
                        cur.fast_read(ADDR, FUT, pos, no_cmp, no_cmp, no_cmp, no_writer_check)
                    };
                    assert!(
                        !fast_read(&mut cur, POISON),
                        "the writer was read outside a validated window"
                    );
                    for k in 1..=WRITES {
                        for pos in [11 * k, 7 * k] {
                            if fast_read(&mut cur, pos) {
                                assert!(
                                    k >= last_k,
                                    "hit on an accessor older than a validated section"
                                );
                                last_k = k;
                            }
                        }
                        assert!(
                            !cur.fast_write(ADDR, 7 * k),
                            "write-same-epoch hit past a reader"
                        );
                    }
                }
            })
        };
        writer.join();
        reader.join();

        let mut cur = hist.cursor();
        let snap = cur.snapshot(ADDR).expect("quiescent, owned slot");
        assert_eq!(snap.writer(), Some(7 * WRITES), "lost write epoch");
        assert_eq!(snap.last_reader(), Some(11 * WRITES));
        assert_eq!(
            hist.lock_ops(),
            0,
            "mapped path fell back to the locked map"
        );
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(
        report.lock_ops, 0,
        "mapped shadow path must take zero mutex acquisitions"
    );
}
