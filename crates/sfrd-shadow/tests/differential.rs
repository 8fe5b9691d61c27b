//! Differential property test: the paged store against a reference model
//! under arbitrary access sequences.
//!
//! The store's contract is "one [`LocEntry`] per exact address", so the
//! reference is exactly that: an in-test `BTreeMap<u64, LocEntry<Pos>>`.
//! Each case decodes a `Vec<u64>` into a sequence of reads and writes —
//! mixed futures, positions, sub-word-colliding addresses (4-byte stride
//! inside 8-byte slot spans) and occasional out-of-range addresses — and
//! drives the *same* sequence through both using the detectors' check
//! protocol (writer-check on reads, writer+reader-check on writes). The
//! paged side additionally attempts the zero-store fast path before every
//! read, exactly as `sfrd-core`'s event sink does. The properties:
//!
//! * the per-access race verdicts are identical,
//! * the retained state (writer, writer epoch, reader set per address) is
//!   identical,
//! * `max_retained_readers` and `locations` agree.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sfrd_shadow::{LocEntry, PagedHistory, ReaderPolicy};

type Pos = (u32, u32); // (eng, heb) toy positions

fn eng_less(a: &Pos, b: &Pos) -> bool {
    a.0 < b.0
}
fn heb_less(a: &Pos, b: &Pos) -> bool {
    a.1 < b.1
}
fn precedes(a: &Pos, b: &Pos) -> bool {
    a != b && a.0 < b.0 && a.1 < b.1
}

#[derive(Debug, Clone, Copy)]
struct Op {
    write: bool,
    addr: u64,
    fut: u32,
    pos: Pos,
}

/// Decode one op from a raw word (the vendored proptest has no tuple /
/// enum `Arbitrary`, so we bit-slice a `u64` instead).
fn decode(code: u64) -> Op {
    let write = code & 0b11 == 0; // 25% writes
    let fut = ((code >> 2) & 0b11) as u32; // 4 futures
                                           // 4-byte stride: consecutive indices alternate between claiming an
                                           // 8-byte slot and colliding into its fallback half.
    let mut addr = 0x1000 + ((code >> 4) & 63) * 4;
    if (code >> 10) & 0xF == 0 {
        addr |= 1 << 60; // out of the mapped 2^47 range
    }
    let eng = ((code >> 14) & 0xFF) as u32;
    let heb = ((code >> 22) & 0xFF) as u32;
    Op {
        write,
        addr,
        fut,
        pos: (eng, heb),
    }
}

/// The write half of the detectors' check protocol on one entry.
fn check_write(e: &mut LocEntry<Pos>, op: &Op) -> bool {
    let mut race = e.writer.is_some_and(|w| !precedes(&w, &op.pos));
    e.readers.for_each(|r| race |= !precedes(&r, &op.pos));
    e.begin_write_epoch(op.pos);
    race
}

/// The read half: check the writer, retain the reader.
fn check_read(e: &mut LocEntry<Pos>, op: &Op) -> bool {
    let race = e.writer.is_some_and(|w| !precedes(&w, &op.pos));
    e.readers
        .record(op.fut, op.pos, eng_less, heb_less, precedes);
    race
}

/// The protocol against the paged store; returns the verdict (raced?) per
/// op. Mimics `sfrd-core`'s read path: try the zero-store fast path
/// first, fall back to the write section on a miss.
fn run_paged(h: &PagedHistory<Pos>, ops: &[Op]) -> Vec<bool> {
    let mut cur = h.cursor();
    ops.iter()
        .map(|op| {
            if op.write {
                return cur.locked(op.addr, |e| check_write(e, op));
            }
            let fast = cur.fast_read(
                op.addr,
                op.fut,
                op.pos,
                eng_less,
                heb_less,
                precedes,
                |w, _| w.is_none_or(|w| precedes(&w, &op.pos)),
            );
            // A fast hit is provably redundant: no race, no store.
            !fast && cur.locked(op.addr, |e| check_read(e, op))
        })
        .collect()
}

/// The reference: one entry per exact address, every access applied.
type Model = BTreeMap<u64, LocEntry<Pos>>;

fn run_model(policy: ReaderPolicy, ops: &[Op]) -> (Model, Vec<bool>) {
    let mut model = Model::new();
    let verdicts = ops
        .iter()
        .map(|op| {
            let e = model
                .entry(op.addr)
                .or_insert_with(|| LocEntry::new(policy));
            if op.write {
                check_write(e, op)
            } else {
                check_read(e, op)
            }
        })
        .collect();
    (model, verdicts)
}

/// One address's retained state, readers sorted for comparison.
fn entry_state(addr: u64, e: &LocEntry<Pos>) -> (u64, Option<Pos>, u64, Vec<Pos>) {
    let mut readers = Vec::new();
    e.readers.for_each(|p| readers.push(p));
    readers.sort_unstable();
    (addr, e.writer, e.writer_seq, readers)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

    #[test]
    fn paged_store_matches_exact_address_model(
        codes in proptest::collection::vec(any::<u64>(), 1..400)
    ) {
        // First word selects the reader policy; the rest are ops (the
        // vendored proptest macro takes exactly one strategy binding).
        let policy = if codes[0] & 1 == 0 { ReaderPolicy::All } else { ReaderPolicy::PerFutureLR };
        let ops: Vec<Op> = codes[1..].iter().map(|&c| decode(c)).collect();
        let paged = PagedHistory::with_policy(policy);
        let (model, vm) = run_model(policy, &ops);
        let vp = run_paged(&paged, &ops);
        prop_assert_eq!(&vm, &vp, "race verdicts diverge\nops: {:?}", ops);
        let want: Vec<_> = model.iter().map(|(&a, e)| entry_state(a, e)).collect();
        let mut got = Vec::new();
        paged.for_each_entry(|a, e| got.push(entry_state(a, e)));
        got.sort_unstable();
        prop_assert_eq!(want, got);
        prop_assert_eq!(model.len(), paged.locations());
        prop_assert_eq!(
            model.values().map(|e| e.readers.len()).max().unwrap_or(0),
            paged.max_retained_readers()
        );
    }
}

/// The fast path must actually engage on redundant-read-heavy sequences —
/// otherwise the differential test above exercises nothing.
#[test]
fn fast_path_engages_on_redundant_sequences() {
    let paged = PagedHistory::<Pos>::with_policy(ReaderPolicy::PerFutureLR);
    let ops: Vec<Op> = (0..64)
        .flat_map(|i| {
            let op = Op {
                write: false,
                addr: 0x2000 + i * 8,
                fut: 1,
                pos: (7, 7),
            };
            [op, op, op] // every repeat after the first is redundant
        })
        .collect();
    let verdicts = run_paged(&paged, &ops);
    assert!(verdicts.iter().all(|&r| !r));
    assert!(
        paged.fast_hits() >= 2 * 64,
        "expected >=128 fast hits, got {}",
        paged.fast_hits()
    );
    assert_eq!(paged.lock_ops(), 0);
}
