//! Layer-isolation drives: the recorded run's construct stream, query
//! pairs and admitted accesses, fed to one layer's public functions with
//! the layers above it left out.
//!
//! Each timed section is one clock pair around a whole batch (never around
//! a single call), and the cost of an empty clock pair, measured here, is
//! taken off every section.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

use sfrd_reach::{SfPos, SfReach, SfStrand, SpOrder};
use sfrd_shadow::{PagedHistory, ReaderPolicy};
use sfrd_trace::JEvent;

/// Per-operation costs of single layers, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Isolated {
    /// `SfReach::precedes`, per query of the recorded run's query mix.
    pub reach_precedes_ns: f64,
    /// `SpOrder::precedes_eq` on the same pairs.
    pub om_precedes_ns: f64,
    /// `SpOrder::fork`, per spawn or create.
    pub om_fork_ns: f64,
    /// One shadow slot section recording a reader.
    pub slot_read_ns: f64,
    /// One shadow slot section opening a write epoch.
    pub slot_write_ns: f64,
}

/// Run every isolation drive over `events`. `None` when the event stream
/// is not one a journal can hold (an id used before it was introduced).
pub fn run(events: &[JEvent]) -> Option<Isolated> {
    let clock = clock_pair_ns();
    let (reach_precedes_ns, om_precedes_ns) = reach_drive(events, clock)?;
    let (slot_read_ns, slot_write_ns) = shadow_drive(events, clock);
    Some(Isolated {
        reach_precedes_ns,
        om_precedes_ns,
        om_fork_ns: om_fork_drive(events)?,
        slot_read_ns,
        slot_write_ns,
    })
}

/// Cost of one empty `Instant::now()` … `elapsed()` pair.
fn clock_pair_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        black_box(());
        total += t.elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// A timed total, corrected for the clock pairs that measured it.
#[derive(Default)]
struct Timed {
    ns: u128,
    sections: u64,
    ops: u64,
}

impl Timed {
    fn section(&mut self, ops: usize, f: impl FnOnce()) {
        if ops == 0 {
            return;
        }
        let t = Instant::now();
        f();
        self.ns += t.elapsed().as_nanos();
        self.sections += 1;
        self.ops += ops as u64;
    }

    fn ns_per_op(&self, clock_pair_ns: f64) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        (self.ns as f64 - self.sections as f64 * clock_pair_ns) / self.ops as f64
    }
}

/// Addresses are already well spread; hashing them costs untimed
/// bookkeeping only, so one multiply is enough.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
}

/// The benchmark's own access history: last writer and the readers since,
/// which is what decides the queries `ReaderPolicy::All` issues.
#[derive(Default)]
struct Loc {
    writer: Option<SfPos>,
    readers: Vec<SfPos>,
}

/// Construct stream through `SfReach`; each batch's queries timed through
/// `SfReach::precedes`, then through the engine's `SpOrder` alone.
fn reach_drive(events: &[JEvent], clock: f64) -> Option<(f64, f64)> {
    let (reach, root) = SfReach::new();
    let mut strands: Vec<Option<SfStrand>> = vec![Some(root)];
    let mut history: HashMap<u64, Loc, BuildHasherDefault<AddrHasher>> = HashMap::default();
    let mut pairs: Vec<SfPos> = Vec::new();
    let (mut full, mut om) = (Timed::default(), Timed::default());
    for ev in events {
        match ev {
            &JEvent::Spawn { parent, child } | &JEvent::Create { parent, child } => {
                let p = strands.get_mut(parent as usize)?.as_mut()?;
                let c = if matches!(ev, JEvent::Create { .. }) {
                    reach.create(p)
                } else {
                    reach.spawn(p)
                };
                if strands.len() != child as usize {
                    return None;
                }
                strands.push(Some(c));
            }
            JEvent::Sync { strand, children } => {
                let joined = children
                    .iter()
                    .map(|&c| strands.get_mut(c as usize)?.take())
                    .collect::<Option<Vec<_>>>()?;
                reach.sync(strands.get_mut(*strand as usize)?.as_mut()?, &joined);
            }
            &JEvent::Get { strand, done } => {
                let done = strands.get_mut(done as usize)?.take()?;
                reach.get(strands.get_mut(strand as usize)?.as_mut()?, &done);
            }
            &JEvent::TaskEnd { strand } => {
                reach.task_end(strands.get_mut(strand as usize)?.as_mut()?);
            }
            JEvent::TaskReturn { .. } => {}
            JEvent::Accesses {
                strand, entries, ..
            } => {
                let s = strands.get(*strand as usize)?.as_ref()?;
                let pos = s.pos();
                pairs.clear();
                for a in entries {
                    let loc = history.entry(a.addr).or_default();
                    pairs.extend(loc.writer.filter(|w| *w != pos));
                    if a.is_write {
                        pairs.extend(loc.readers.drain(..).filter(|r| *r != pos));
                        loc.writer = Some(pos);
                    } else if loc.readers.last() != Some(&pos) {
                        loc.readers.push(pos);
                    }
                }
                full.section(pairs.len(), || {
                    let mut ordered = 0u32;
                    for &u in &pairs {
                        ordered += u32::from(reach.precedes(u, s));
                    }
                    black_box(ordered);
                });
                let sp = reach.sp_order();
                om.section(pairs.len(), || {
                    let mut ordered = 0u32;
                    for &u in &pairs {
                        ordered += u32::from(sp.precedes_eq(u.sp, pos.sp));
                    }
                    black_box(ordered);
                });
            }
        }
    }
    Some((full.ns_per_op(clock), om.ns_per_op(clock)))
}

/// The construct stream through `SpOrder::{fork, sync}` only, under one
/// clock pair.
fn om_fork_drive(events: &[JEvent]) -> Option<f64> {
    enum Op {
        Fork(u32),
        Sync(u32),
    }
    let ops: Vec<Op> = events
        .iter()
        .filter_map(|ev| match *ev {
            JEvent::Spawn { parent, .. } | JEvent::Create { parent, .. } => Some(Op::Fork(parent)),
            JEvent::Sync { strand, .. } | JEvent::TaskEnd { strand } => Some(Op::Sync(strand)),
            _ => None,
        })
        .collect();
    let forks = ops.iter().filter(|op| matches!(op, Op::Fork(_))).count();
    if forks == 0 {
        return Some(0.0);
    }
    let (sp, root) = SpOrder::new();
    let mut tasks = Vec::with_capacity(forks + 1);
    tasks.push(root);
    // Ids were validated by `reach_drive`, which runs first; a bad one
    // still cannot index out of bounds silently.
    let t = Instant::now();
    for op in &ops {
        match *op {
            Op::Fork(parent) => {
                let child = sp.fork(tasks.get_mut(parent as usize)?);
                tasks.push(child);
            }
            Op::Sync(strand) => sp.sync(tasks.get_mut(strand as usize)?),
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(&tasks);
    Some(ns / forks as f64)
}

/// The admitted accesses through the paged shadow's slot sections with
/// integer positions: no reachability, no counters, no race sink. Each
/// batch's reads are timed together, then its writes.
fn shadow_drive(events: &[JEvent], clock: f64) -> (f64, f64) {
    let history = PagedHistory::<u64>::with_policy(ReaderPolicy::All);
    let (mut reads, mut writes) = (Timed::default(), Timed::default());
    let (mut read_addrs, mut write_addrs) = (Vec::new(), Vec::new());
    let never = |_: &u64, _: &u64| false;
    let mut pos = 0u64;
    for ev in events {
        let JEvent::Accesses {
            strand, entries, ..
        } = ev
        else {
            continue;
        };
        pos += 1;
        read_addrs.clear();
        write_addrs.clear();
        for a in entries {
            if a.is_write {
                write_addrs.push(a.addr);
            } else {
                read_addrs.push(a.addr);
            }
        }
        let mut cursor = history.cursor();
        reads.section(read_addrs.len(), || {
            for &addr in &read_addrs {
                cursor.locked(addr, |e| {
                    e.readers.record(*strand, pos, never, never, never)
                });
            }
        });
        writes.section(write_addrs.len(), || {
            for &addr in &write_addrs {
                cursor.locked(addr, |e| e.begin_write_epoch(pos));
            }
        });
    }
    (reads.ns_per_op(clock), writes.ns_per_op(clock))
}
