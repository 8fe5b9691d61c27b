//! Model-checked packed-word / snapshot seqlock protocol (`--cfg sfrd_model`).
//!
//! The paged shadow's zero-store paths load a slot's three data words and
//! validate them against the packed word (BUSY check, then an
//! acquire-fenced re-load equality check). These tests
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
//! * a snapshot taken between the data-word stores of a section's close
//!   is never validated: with a section that yields nowhere of its own,
//!   its close's three `Relaxed` stores and the packed word's release are
//!   the interleaving points, and the witnesses sit in all three words;
//! * the mapped path takes zero locks: both the history's own fallback-map
//!   census (`lock_ops()`) and the model's facade census stay 0.
//!
//! Honesty: every load and store of the slot protocol — the packed word
//! and each data word — is a facade operation, so the model interleaves
//! the reader with each of them: the BUSY claim, the section's loads and
//! its close's stores one by one, the validate-before-interpret
//! discipline and the slot-ownership checks. Its interleavings are
//! sequentially consistent, so it does not check that the `Relaxed`
//! data-word accesses and the fences order as the protocol needs on weak
//! hardware; the release-mode stress tests run the protocol on real
//! parallel hardware.
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

/// Two threads first-touching one fresh interior node of the page
/// directory: on every schedule the node is published once, by whichever
/// compare-exchange wins, and each thread's slot is found afterwards. The
/// threads' addresses share a mid node and sit on leaves of their own
/// (`MID`), or share a leaf and sit on pages of their own (`LEAF`), so
/// the schedules interleave the two publications of the shared node and
/// the loser's fall-through to the winner's.
#[test]
fn first_touches_of_one_fresh_node_publish_it_once() {
    /// Two addresses under one fresh mid node, on different leaves.
    const MID: [u64; 2] = [(3 << 36) + 8, (3 << 36) + (1 << 25) + 16];
    /// Two addresses under one fresh leaf, on different pages.
    const LEAF: [u64; 2] = [(3 << 36) + 8, (3 << 36) + (1 << 14) + 16];
    for (addrs, nodes) in [(MID, 3), (LEAF, 2)] {
        let cfg = Config {
            schedules: 1000,
            ..Config::default()
        };
        let report = model::explore(cfg, || {
            let hist = Arc::new(PagedHistory::<u64>::with_policy(ReaderPolicy::All));
            // Thread `i` writes at position `i + 1`.
            let threads: Vec<_> = (1..)
                .zip(addrs)
                .map(|(pos, addr)| {
                    let hist = Arc::clone(&hist);
                    model::spawn(move || hist.locked(addr, |e| e.begin_write_epoch(pos)))
                })
                .collect();
            for t in threads {
                t.join();
            }
            assert_eq!(hist.node_allocs(), nodes, "a node was published twice");
            assert_eq!(hist.page_allocs(), 2);
            for (pos, addr) in (1..).zip(addrs) {
                let w = hist.locked(addr, |e| *e.writer);
                assert_eq!(w, Some(pos), "a first touch was lost");
            }
            assert_eq!(hist.lock_ops(), 0);
        });
        assert_eq!(report.schedules, cfg.schedules);
        assert_eq!(report.lock_ops, 0);
    }
}

/// A close interleaved store by store. Section `k` installs writer `7k`
/// (the writer word), then FUT's reader `11k` and a reader `13k` further
/// right: leftmost `11k` sits with the future in one data word, rightmost
/// `13k` with the count in another. The section's closure yields nowhere,
/// so the reader's loads land between the section's own loads and between
/// its close's stores. Every validated snapshot must be one section's
/// `(11k, 13k, 7k)`: the fast read at position 1, which is no witness,
/// hands its comparators the snapshot's pair and its writer check the
/// writer of the same snapshot.
#[test]
fn a_snapshot_between_the_close_stores_is_never_validated() {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    let discarded = AtomicU64::new(0);
    let report = model::explore(cfg, || {
        let hist = Arc::new(PagedHistory::<u64>::with_policy(ReaderPolicy::PerFutureLR));
        let section = |hist: &PagedHistory<u64>| {
            hist.locked(ADDR, |e| {
                let k = k_of(*e.writer) + 1;
                e.begin_write_epoch(7 * k);
                let never = |_: &u64, _: &u64| false;
                e.readers.record(FUT, 11 * k, never, never, never);
                e.readers.record(FUT, 13 * k, never, |a, b| a > b, never);
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
                for _ in 0..8 {
                    let (l, r) = (Cell::new(0), Cell::new(0));
                    cur.fast_read(
                        ADDR,
                        FUT,
                        1,
                        |_, &left| {
                            l.set(left);
                            false
                        },
                        |_, &right| {
                            r.set(right);
                            false
                        },
                        |_, _| false,
                        |w| {
                            let k = k_of(w);
                            assert_eq!(
                                (l.get(), r.get(), w),
                                (11 * k, 13 * k, Some(7 * k)),
                                "validated snapshot mixes two sections"
                            );
                            assert!(k >= last_k, "validated writer went backwards");
                            last_k = k;
                            true
                        },
                    );
                }
            })
        };
        writer.join();
        reader.join();

        let w = hist.locked(ADDR, |e| *e.writer);
        assert_eq!(w, Some(7 * WRITES), "lost write epoch");
        assert_eq!(
            hist.lock_ops(),
            0,
            "mapped path fell back to the locked map"
        );
        // The reader never sets the busy bit, so every retry it counts is
        // a window it discarded: one that overlapped a section.
        discarded.fetch_add(hist.cas_retries(), Ordering::Relaxed);
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert_eq!(report.lock_ops, 0);
    assert!(
        discarded.into_inner() > 0,
        "no window ever overlapped a section"
    );
}
