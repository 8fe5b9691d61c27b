//! Differential property test: the paged store against a reference model
//! under arbitrary access sequences.
//!
//! The store's contract is "one [`LocEntry`] per exact address", so the
//! reference is exactly that: an in-test `BTreeMap<u64, LocState<Pos>>`
//! on which **every** access runs the full check — the write section's
//! logic, never a short-circuit. Each case decodes a `Vec<u64>` into a
//! sequence of reads and writes — mixed futures, positions,
//! sub-word-colliding addresses (4-byte stride inside 8-byte slot spans)
//! and occasional out-of-range addresses — and drives the *same* sequence
//! through both using the detectors' check protocol (writer-check on
//! reads, writer+reader-check on writes, equal positions serial). The
//! paged side first asks the zero-store snapshot paths (`fast_read`,
//! `fast_write`), exactly as `sfrd-core`'s event sink does. The
//! properties:
//!
//! * the paged side reports no race the reference does not, and the racy
//!   `(addr, kind)` **sets** are identical (a same-epoch repeat of a racy
//!   read is observed once, not once per repeat);
//! * the retained state (writer, reader list per address) is identical;
//! * `max_retained_readers` and `locations` agree.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use sfrd_shadow::{LocEntry, LocState, PagedHistory, ReaderPolicy};

/// A toy `(eng, heb)` position in the one nonzero word the store keeps:
/// `eng << 16 | heb`, plus one so that `(0, 0)` is a position too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pos(u16, u16);

impl TryFrom<Pos> for u32 {
    type Error = ();
    fn try_from(p: Pos) -> Result<u32, ()> {
        (u32::from(p.0) << 16 | u32::from(p.1))
            .checked_add(1)
            .ok_or(())
    }
}

impl TryFrom<u32> for Pos {
    type Error = ();
    fn try_from(w: u32) -> Result<Pos, ()> {
        let v = w.checked_sub(1).ok_or(())?;
        Ok(Pos((v >> 16) as u16, v as u16))
    }
}

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
    let eng = ((code >> 14) & 0xFF) as u16;
    let heb = ((code >> 22) & 0xFF) as u16;
    Op {
        write,
        addr,
        fut,
        pos: Pos(eng, heb),
    }
}

/// Does a stored accessor `a` race with the access at `p`? Equal
/// positions are one strand's serial chain (the premise the sink's
/// `w != pos` shortcut and the same-epoch rules share).
fn races(a: &Pos, p: &Pos) -> bool {
    a != p && !precedes(a, p)
}

/// The write half of the detectors' check protocol on one entry.
fn check_write(e: &mut LocEntry<'_, Pos>, op: &Op) -> bool {
    let mut race = e.writer.is_some_and(|w| races(&w, &op.pos));
    e.readers.for_each(|r| race |= races(&r, &op.pos));
    e.begin_write_epoch(op.pos);
    race
}

/// The read half: check the writer, retain the reader — through the
/// store's own retention rule, so the reference keeps exactly what the
/// detectors keep (a read at the writer's position is not retained).
fn check_read(e: &mut LocEntry<'_, Pos>, op: &Op) -> bool {
    let race = e.writer.is_some_and(|w| races(&w, &op.pos));
    e.retain_reader(op.fut, op.pos, eng_less, heb_less, precedes);
    race
}

/// The protocol against the paged store; returns the verdict (raced?) per
/// op. Mimics `sfrd-core`'s access path: ask the zero-store snapshot
/// first, enter the write section on a miss.
fn run_paged(h: &PagedHistory<Pos>, ops: &[Op]) -> Vec<bool> {
    let mut cur = h.cursor();
    ops.iter()
        .map(|op| {
            if op.write {
                return !cur.fast_write(op.addr, op.pos)
                    && cur.locked(op.addr, |e| check_write(e, op));
            }
            let fast = cur.fast_read(op.addr, op.fut, op.pos, eng_less, heb_less, precedes, |w| {
                !w.is_some_and(|w| races(&w, &op.pos))
            });
            // A hit is provably redundant: nothing to report, no store.
            !fast && cur.locked(op.addr, |e| check_read(e, op))
        })
        .collect()
}

/// The reference: one entry per exact address, the full check on every
/// access.
type Model = BTreeMap<u64, LocState<Pos>>;

fn run_model(policy: ReaderPolicy, ops: &[Op]) -> (Model, Vec<bool>) {
    let mut model = Model::new();
    let verdicts = ops
        .iter()
        .map(|op| {
            let mut e = model
                .entry(op.addr)
                .or_insert_with(|| LocState::new(policy))
                .entry();
            if op.write {
                check_write(&mut e, op)
            } else {
                check_read(&mut e, op)
            }
        })
        .collect();
    (model, verdicts)
}

/// The racy `(addr, is_write)` set of a run.
fn racy_set(ops: &[Op], verdicts: &[bool]) -> BTreeSet<(u64, bool)> {
    ops.iter()
        .zip(verdicts)
        .filter(|(_, &raced)| raced)
        .map(|(op, _)| (op.addr, op.write))
        .collect()
}

/// One address's retained state, readers in record order.
fn entry_state(addr: u64, e: &LocEntry<'_, Pos>) -> (u64, Option<Pos>, Vec<Pos>) {
    let mut readers = Vec::new();
    e.readers.for_each(|p| readers.push(p));
    (addr, *e.writer, readers)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

    #[test]
    fn paged_store_matches_exact_address_model(
        codes in proptest::collection::vec(any::<u64>(), 1..400)
    ) {
        // First word selects the reader policy and how repeat-heavy the
        // sequence is; the rest are ops (the vendored proptest macro takes
        // exactly one strategy binding).
        let policy = if codes[0] & 1 == 0 { ReaderPolicy::All } else { ReaderPolicy::PerFutureLR };
        let mut ops: Vec<Op> = codes[1..].iter().map(|&c| decode(c)).collect();
        if codes[0] & 2 == 0 {
            // Same-epoch repeats are what the snapshot paths exist for;
            // random 16-bit positions almost never repeat by themselves.
            ops = ops.iter().flat_map(|&op| [op, op, Op { write: !op.write, ..op }, op]).collect();
        }
        let paged = PagedHistory::with_policy(policy);
        let (mut model, vm) = run_model(policy, &ops);
        let vp = run_paged(&paged, &ops);
        for (i, (&p, &m)) in vp.iter().zip(&vm).enumerate() {
            prop_assert!(!p || m, "op {} raced on the paged side only\nops: {:?}", i, ops);
        }
        prop_assert_eq!(racy_set(&ops, &vp), racy_set(&ops, &vm), "racy sets diverge\nops: {:?}", ops);
        let want: Vec<_> = model.iter_mut().map(|(&a, e)| entry_state(a, &e.entry())).collect();
        let mut got = Vec::new();
        paged.for_each_entry(|a, e| got.push(entry_state(a, e)));
        got.sort_unstable();
        prop_assert_eq!(want, got);
        prop_assert_eq!(model.len(), paged.locations());
        prop_assert_eq!(
            model.values_mut().map(|e| e.entry().readers.len()).max().unwrap_or(0),
            paged.max_retained_readers()
        );
    }
}

/// The snapshot paths must actually engage on repeat-heavy sequences,
/// under either policy — otherwise the differential test above exercises
/// nothing.
#[test]
fn fast_path_engages_on_redundant_sequences() {
    for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
        let paged = PagedHistory::<Pos>::with_policy(policy);
        let ops: Vec<Op> = (0..64)
            .flat_map(|i| {
                let read = Op {
                    write: false,
                    addr: 0x2000 + i * 8,
                    fut: 1,
                    pos: Pos(7, 7),
                };
                let write = Op {
                    write: true,
                    addr: 0x4000 + i * 8,
                    ..read
                };
                // Every repeat after the first is redundant.
                [read, read, read, write, write, write]
            })
            .collect();
        let verdicts = run_paged(&paged, &ops);
        assert!(verdicts.iter().all(|&r| !r));
        assert_eq!(
            paged.fast_hits(),
            4 * 64,
            "{policy:?}: two repeat reads and two repeat writes per address"
        );
        assert_eq!(paged.lock_ops(), 0);
    }
}
