//! Threaded stress test for the paged shadow store (run in release in CI,
//! like the OM concurrency stress): concurrent writers, readers, and
//! zero-store fast-path probes on *overlapping pages* (disjoint slots —
//! each address has one owning thread, so the final state is
//! deterministic), checked against a single-threaded oracle replay.
//!
//! Torn-read detection: every position ever stored is diagonal `(v, v)`,
//! so any comparison closure or writer snapshot that observes `(a, b)`
//! with `a != b` has seen a torn copy of a slot — the seqlock protocol
//! must make that impossible.
//!
//! The second test is `model_paged.rs`'s `All`-policy invariant on real
//! threads: section `k`, which reads `k - 1` off the stored writer,
//! installs `writer = 7k` and `last reader = 11k` on 12-byte positions
//! (after parking a poison writer no finished section holds, and dwelling
//! on it for one spin-loop hint), against readers that take validated
//! snapshots of the same slots the whole time. The positions are three
//! times wider than the detectors' word, so a snapshot spans more of the
//! slot than theirs does.
//!
//! The third races first touches: threads released together onto one
//! fresh mid (or leaf) node of the page directory publish it once and
//! keep every thread's slot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use sfrd_shadow::{PageCursor, PagedHistory, ReaderPolicy, PAGE_SLOTS, SLOT_SHIFT};

type Pos = (u32, u32);

const THREADS: u32 = 4;
const ROUNDS: u32 = 400;

fn diag(p: &Pos) -> bool {
    p.0 == p.1
}

fn eng_less(a: &Pos, b: &Pos) -> bool {
    assert!(diag(a) && diag(b), "torn position observed: {a:?} {b:?}");
    a.0 < b.0
}
fn heb_less(a: &Pos, b: &Pos) -> bool {
    assert!(diag(a) && diag(b), "torn position observed: {a:?} {b:?}");
    a.1 < b.1
}
fn precedes(a: &Pos, b: &Pos) -> bool {
    assert!(diag(a) && diag(b), "torn position observed: {a:?} {b:?}");
    a != b && a.0 < b.0 && a.1 < b.1
}

/// Slot addresses interleaved across threads over a two-page span, so all
/// threads contend on the same pages (and on page publication) while each
/// slot has exactly one owner.
fn addr(thread: u32, k: u32) -> u64 {
    let slots = 2 * PAGE_SLOTS as u32;
    ((thread + THREADS * k) % slots) as u64 * (1 << SLOT_SHIFT)
}

fn owned_slots() -> u32 {
    2 * PAGE_SLOTS as u32 / THREADS
}

/// One thread's deterministic op sequence against `h`. When `probe` is
/// set, interleave zero-store fast-path probes against *other* threads'
/// slots — pure reads that must never perturb state. Returns how many
/// write sections ran on each owned slot, counted inside the section.
fn run_thread(h: &PagedHistory<Pos>, thread: u32, probe: bool) -> Vec<(u64, u32)> {
    let mut cur = h.cursor();
    let mut writes: Vec<(u64, u32)> = (0..owned_slots()).map(|k| (addr(thread, k), 0)).collect();
    for round in 1..=ROUNDS {
        for k in 0..owned_slots() {
            let a = addr(thread, k);
            let v = round * THREADS + thread;
            if (round + k) % 3 == 0 {
                cur.locked(a, |e| {
                    e.begin_write_epoch((v, v));
                    writes[k as usize].1 += 1;
                });
            } else {
                cur.locked(a, |e| {
                    e.readers
                        .record(thread, (v, v), eng_less, heb_less, precedes)
                });
                // Immediately re-read at the same position: provably
                // redundant, must be eligible for the zero-store path.
                cur.fast_read(a, thread, (v, v), eng_less, heb_less, precedes, |w| {
                    w.as_ref().is_none_or(diag)
                });
            }
            if probe {
                // Probe a neighbour's slot with our own future id: the
                // triple is absent, so this always misses — but it must
                // validate (or cleanly discard) a concurrent snapshot.
                let other = addr((thread + 1) % THREADS, k);
                cur.fast_read(other, thread, (v, v), eng_less, heb_less, precedes, |w| {
                    w.as_ref().is_none_or(diag)
                });
            }
        }
    }
    writes
}

/// Sorted final state: (addr, writer, sorted readers).
fn state(h: &PagedHistory<Pos>) -> Vec<(u64, Option<Pos>, Vec<Pos>)> {
    let mut v = Vec::new();
    h.for_each_entry(|a, e| {
        if let Some(w) = *e.writer {
            assert!(diag(&w), "torn writer retained: {w:?}");
        }
        let mut readers = Vec::new();
        e.readers.for_each(|p| {
            assert!(diag(&p), "torn reader retained: {p:?}");
            readers.push(p);
        });
        readers.sort_unstable();
        v.push((a, *e.writer, readers));
    });
    v.sort_unstable();
    v
}

#[test]
fn concurrent_matches_single_threaded_oracle() {
    let shared = PagedHistory::<Pos>::with_policy(ReaderPolicy::PerFutureLR);
    let mut shared_writes: Vec<(u64, u32)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let shared = &shared;
                s.spawn(move || run_thread(shared, t, true))
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("stress thread panicked"))
            .collect()
    });

    // Single-threaded oracle: same per-thread sequences, no probes, run
    // back-to-back. Slot ownership is disjoint, so the final per-address
    // state and write count must be identical to the concurrent run.
    let oracle = PagedHistory::<Pos>::with_policy(ReaderPolicy::PerFutureLR);
    let mut oracle_writes: Vec<(u64, u32)> = (0..THREADS)
        .flat_map(|t| run_thread(&oracle, t, false))
        .collect();

    assert_eq!(state(&shared), state(&oracle));
    shared_writes.sort_unstable();
    oracle_writes.sort_unstable();
    assert_eq!(shared_writes, oracle_writes, "a write section was lost");
    assert_eq!(shared.locations(), 2 * PAGE_SLOTS);
    assert_eq!(shared.lock_ops(), 0, "mapped slots must never lock");
    assert!(
        shared.fast_hits() > 0,
        "redundant re-reads never took the zero-store path"
    );
}

/// A 12-byte position, the size the detectors store: three equal words.
type Wide = (u32, u32, u32);

fn wide(v: u32) -> Wide {
    (v, v, v)
}

fn never(_: &Wide, _: &Wide) -> bool {
    unreachable!("the All policy consults no comparator")
}

/// What a section parks in `writer` before installing `7k`: no multiple
/// of 7, so only the middle of a section ever shows it.
const POISON: u32 = 3;

/// The `k` of a stored writer `7k` (0 for none).
fn k_of(writer: Option<Wide>) -> u32 {
    writer.map_or(0, |w| w.0 / 7)
}

/// The default policy's snapshot under real contention: one thread runs
/// write sections over a few slots (section `k` parks a poison writer,
/// then installs writer `7k`, then reader `11k` — two field groups, one
/// section), three threads snapshot the same slots continuously. A
/// snapshot that validates must show one section's writer *and* reader,
/// whole: never torn words, never the cleared reader list of a section's
/// first half, never two sections mixed — and read-by-current-writer,
/// which copies the writer after the head, must never answer from the
/// poison.
#[test]
fn all_policy_snapshots_never_mix_sections_on_real_threads() {
    const SLOTS: u64 = 8;
    const READERS: usize = 3;
    let sections: u32 = if cfg!(debug_assertions) {
        20_000
    } else {
        400_000
    };
    let h = PagedHistory::<Wide>::with_policy(ReaderPolicy::All);
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    let validated = std::thread::scope(|s| {
        s.spawn(|| {
            let mut cur = h.cursor();
            start.wait();
            for _ in 0..sections {
                for slot in 0..SLOTS {
                    cur.locked(slot << SLOT_SHIFT, |e| {
                        let k = k_of(*e.writer) + 1;
                        *e.writer = Some(wide(POISON));
                        // Keep the store (the next line overwrites it)
                        // and dwell on it, so a reader that copies a busy
                        // slot finds the section half done.
                        std::hint::black_box(&mut *e.writer);
                        std::hint::spin_loop();
                        e.begin_write_epoch(wide(7 * k));
                        e.readers.record(0, wide(11 * k), never, never, never);
                    });
                }
            }
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut cur = h.cursor();
                    let mut last_k = [0u32; SLOTS as usize];
                    let (mut validated, mut hits, mut writer_hits) = (0u64, 0u64, 0u64);
                    let fast_read = |cur: &mut PageCursor<'_, Wide>, addr, pos| {
                        cur.fast_read(addr, 0, pos, never, never, never, |_| {
                            unreachable!("the All policy re-checks no writer")
                        })
                    };
                    start.wait();
                    let mut finishing = false;
                    // One more full pass after the writer is done, so every
                    // reader validates at least the final state.
                    while !finishing {
                        finishing = done.load(Ordering::Acquire);
                        for slot in 0..SLOTS {
                            let addr = slot << SLOT_SHIFT;
                            let Some(snap) = cur.snapshot(addr) else {
                                continue;
                            };
                            validated += 1;
                            let k = k_of(snap.writer());
                            assert!(k >= last_k[slot as usize], "the writer went backwards");
                            last_k[slot as usize] = k;
                            assert_eq!(
                                (snap.writer(), snap.last_reader()),
                                (Some(wide(7 * k)), Some(wide(11 * k))),
                                "validated snapshot is not one whole section (k = {k})"
                            );
                            // The same-epoch answers ride the same protocol.
                            hits += u64::from(fast_read(&mut cur, addr, wide(11 * k)));
                            writer_hits += u64::from(fast_read(&mut cur, addr, wide(7 * k)));
                            assert!(
                                !fast_read(&mut cur, addr, wide(POISON)),
                                "the writer was read outside a validated window"
                            );
                            assert!(
                                !cur.fast_write(addr, wide(7 * k)),
                                "write-same-epoch hit past a retained reader"
                            );
                        }
                    }
                    assert!(hits > 0, "read-same-epoch never hit");
                    assert!(writer_hits > 0, "read-by-current-writer never hit");
                    validated
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .sum::<u64>()
    });
    assert!(validated >= (READERS as u64) * SLOTS);
    assert_eq!(h.lock_ops(), 0, "mapped slots must never lock");
    for slot in 0..SLOTS {
        h.locked(slot << SLOT_SHIFT, |e| {
            assert_eq!(*e.writer, Some(wide(7 * sections)), "lost write epoch");
        });
    }
}

/// Threads that first-touch one fresh interior node together publish it
/// once. Each round starts an empty history and releases `THREADS`
/// threads at once onto addresses under one mid node that nobody has
/// touched: each thread on a leaf of its own (the threads race to publish
/// the mid node), then each on a page of its own under one shared leaf
/// (they race for the leaf). Every round ends with one node per link and
/// every thread's slot found by the sweep.
#[test]
fn first_touches_of_one_fresh_node_publish_it_once() {
    const ROUNDS: usize = 200;
    /// Address bits below a leaf node's index and below a mid node's.
    const PAGE_SPAN: u32 = 14;
    const LEAF_SPAN: u32 = 25;
    let base: u64 = 5 << 36;
    for round in 0..ROUNDS {
        let shift = if round % 2 == 0 { LEAF_SPAN } else { PAGE_SPAN };
        let addrs: Vec<u64> = (0..u64::from(THREADS))
            .map(|t| base + (t << shift) + 8 * t)
            .collect();
        let h = PagedHistory::<Pos>::with_policy(ReaderPolicy::All);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for (t, &a) in addrs.iter().enumerate() {
                let (h, start) = (&h, &start);
                s.spawn(move || {
                    start.wait();
                    h.locked(a, |e| e.begin_write_epoch((t as u32, t as u32)));
                });
            }
        });
        let leaves = if shift == LEAF_SPAN { THREADS } else { 1 };
        assert_eq!(h.node_allocs(), 1 + u64::from(leaves), "round {round}");
        assert_eq!(h.page_allocs(), u64::from(THREADS), "round {round}");
        let mut seen = Vec::new();
        h.for_each_entry(|a, e| seen.push((a, *e.writer)));
        seen.sort_unstable();
        let want: Vec<_> = (0..THREADS)
            .map(|t| (addrs[t as usize], Some((t, t))))
            .collect();
        assert_eq!(seen, want, "round {round}: a first touch was lost");
        assert_eq!(h.lock_ops(), 0);
    }
}
