//! Model-checked packed-word / snapshot seqlock protocol (`--cfg sfrd_model`).
//!
//! The paged shadow's zero-store paths copy a slot's entry fields
//! non-atomically and validate the copy against the packed word (BUSY
//! check, then an acquire-fenced re-load equality check). These tests
//! drive a writer mutating a mapped entry through `locked()` against a
//! concurrent snapshot reader through ~1000 seeded SC interleavings each
//! and assert:
//!
//! * every snapshot the seqlock *validates* is internally consistent —
//!   the writer maintains `writer == Some(7 * writer_seq)` (and, in the
//!   `All`-policy test, `last reader == 11 * writer_seq`, re-established
//!   only at the *end* of a section that yields in the middle), so a view
//!   mixing two sections, or showing half of one, is caught. The epoch a
//!   snapshot reports is read from the packed word it was validated
//!   against — the slot keeps no other copy — and the writer from the
//!   slot body, so the equation ties the two halves of the protocol;
//! * the `All`-policy section also parks a poison value in `writer`
//!   across a yield, so read-by-current-writer — which copies the writer
//!   later than the head — is caught if it ever reads it outside the
//!   window the head was validated in (say, after a busy bail);
//! * `writer_seq` observed through the locked path (loaded from the packed
//!   word into the section's working copy) is monotone;
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
/// The reader's fixed order position.
const POS: u64 = 5;
/// Writes per schedule.
const WRITES: u64 = 4;
/// What `writer` holds in the first part of an `All`-policy section: not a
/// multiple of 7, so no finished section ever installs it.
const POISON: u64 = 3;

fn less(a: &u64, b: &u64) -> bool {
    a < b
}

fn record_reader(hist: &PagedHistory<u64>) {
    hist.locked(ADDR, |e| e.readers.record(FUT, POS, less, less, less));
}

#[test]
fn validated_snapshots_are_consistent_and_seq_is_monotone() {
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let hist = Arc::new(PagedHistory::<u64>::with_policy(ReaderPolicy::PerFutureLR));
        // Seed the inline triple so the snapshot finds FUT's pair and the
        // fast path reaches the writer check.
        record_reader(&hist);

        let writer = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                for _ in 0..WRITES {
                    hist.locked(ADDR, |e| {
                        // Invariant the reader checks on every validated
                        // snapshot: writer value is derived from the epoch.
                        let next = 7 * (*e.writer_seq + 1);
                        e.begin_write_epoch(next);
                    });
                    // The epoch cleared the readers; re-record so later
                    // fast reads keep exercising the writer check.
                    record_reader(&hist);
                }
            })
        };
        let reader = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                let mut cur = hist.cursor();
                let mut last_seq = 0u64;
                for _ in 0..6 {
                    if let Some(snap) = cur.snapshot(ADDR) {
                        let seq = snap.writer_seq();
                        // A torn / mis-validated snapshot shows a writer
                        // from one epoch with the seq of another.
                        match snap.writer() {
                            None => assert_eq!(seq, 0, "writer None after epoch {seq}"),
                            Some(x) => assert_eq!(
                                x,
                                7 * seq,
                                "inconsistent validated snapshot: writer {x}, seq {seq}"
                            ),
                        }
                    }
                    // The LR read rides the same validated copy down to
                    // its writer check.
                    cur.fast_read(ADDR, FUT, POS, less, less, less, |w| {
                        assert!(w.is_none_or(|x| x % 7 == 0 && x <= 7 * WRITES));
                        true
                    });
                    let seq = cur.locked(ADDR, |e| *e.writer_seq);
                    assert!(seq >= last_seq, "writer_seq went backwards");
                    last_seq = seq;
                }
            })
        };
        writer.join();
        reader.join();

        let (w, seq) = hist.locked(ADDR, |e| (*e.writer, *e.writer_seq));
        assert_eq!(seq, WRITES, "lost write epoch");
        assert_eq!(w, Some(7 * WRITES));
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
/// Each writer section parks [`POISON`] in `writer`, installs epoch `s`
/// (which clears the readers) and only then records the reader `11 * s`,
/// *yielding to the scheduler with the busy bit held* between the steps.
/// At every section boundary the entry therefore satisfies `writer == 7 *
/// seq && last reader == 11 * seq`; a snapshot validated across or inside
/// a section breaks that equation, and a read-by-current-writer hit at
/// `POISON` has read the writer where no validated window could.
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
                let seq = *e.writer_seq + 1;
                *e.writer = Some(POISON);
                sfrd_runtime::sync::yield_point();
                e.begin_write_epoch(7 * seq);
                sfrd_runtime::sync::yield_point();
                e.readers.record(FUT, 11 * seq, less, less, less);
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
                let mut last_seq = 0u64;
                for _ in 0..6 {
                    if let Some(snap) = cur.snapshot(ADDR) {
                        let seq = snap.writer_seq();
                        assert!(seq >= last_seq, "validated epoch went backwards");
                        last_seq = seq;
                        assert_eq!(
                            (snap.writer(), snap.last_reader()),
                            (Some(7 * seq), Some(11 * seq)),
                            "validated snapshot shows the middle of a section (epoch {seq})"
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
                    for seq in 1..=WRITES {
                        for pos in [11 * seq, 7 * seq] {
                            if fast_read(&mut cur, pos) {
                                assert!(
                                    seq >= last_seq,
                                    "hit on an accessor older than a validated epoch"
                                );
                                last_seq = seq;
                            }
                        }
                        assert!(
                            !cur.fast_write(ADDR, 7 * seq),
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
        assert_eq!(snap.writer_seq(), WRITES, "lost write epoch");
        assert_eq!(snap.writer(), Some(7 * WRITES));
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
