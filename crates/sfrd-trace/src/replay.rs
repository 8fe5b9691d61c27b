//! Feed a decoded journal into any [`TaskHooks`] sink.
//!
//! Each recorded access batch reaches the sink as the borrowed slice it
//! was decoded into, with its filtered counts: one
//! [`TaskHooks::on_access_batch`] call per `Accesses` event, no copy.

use std::io::Read;

use sfrd_runtime::TaskHooks;

use crate::format::JournalError;
use crate::reader::{JEvent, JournalReader};

/// What a replay processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events replayed.
    pub events: u64,
    /// Access batches delivered (the recording run's flushes).
    pub flushes: u64,
    /// Access entries delivered.
    pub accesses: u64,
    /// Accesses the recording filter combined away (restored to the sink's
    /// counters, not replayed as entries).
    pub filtered: u64,
}

/// A journal strand's state byte: how it was introduced (`SPAWNED`,
/// `CREATED`, neither for the root) and whether its `TaskEnd` has been
/// replayed.
const SPAWNED: u8 = 1;
const CREATED: u8 = 2;
const ENDED: u8 = 4;

/// Replay every remaining event of `reader` into `sink`. A reference to a
/// strand id never introduced (or already consumed) is
/// [`JournalError::UnknownStrand`]; a `Get` of a strand no `Create`
/// introduced, or a `Sync` of a child no `Spawn` did, is
/// [`JournalError::WrongJoin`] — a live run cannot build either (`get`
/// consumes the handle `create` returned, `sync` joins the spawned
/// children), and the detectors' verdicts assume a structured-future
/// program. A `Sync` or `Get` of a strand whose `TaskEnd` has not been
/// replayed is [`JournalError::UnendedJoin`]: a join waits for its child.
/// An event that acts as a strand after its `TaskEnd` (an access, a
/// spawn, create, sync or get by it, a task return to it, or a second
/// end) is [`JournalError::EndedStrand`]: a task's last event is its end.
///
/// A sink that [needs serial-elision order](TaskHooks::NEEDS_SERIAL_ORDER)
/// (MultiBags) also gets the journal checked against it: replay keeps the
/// stack of strands serial elision has open — a `Spawn` or `Create` pushes
/// the child, only the top strand acts, and a `TaskReturn` returns the
/// top strand to the one under it. Anything else is
/// [`JournalError::OutOfSerialOrder`]. A run recorded on the sequential
/// runtime passes; one recorded on the pool does not once it has a
/// construct (the pool emits no `TaskReturn`, and runs a continuation
/// before its child).
///
/// The sink sees exactly the hook sequence the recording run's detector
/// saw: boundary ordering is baked into the journal (the recording
/// `Batched` wrapper flushed batches before each boundary event), each
/// `Accesses` event's decoded entries and filtered counts go straight to
/// [`TaskHooks::on_access_batch`] (no re-filtering — the journal already
/// holds the filter-admitted stream), and strand state is kept per id
/// until consumed by `Sync`/`Get`. Replay is single-threaded by
/// construction; the journal's linearization makes that a legal schedule
/// of the recorded dag.
///
/// Per journal strand the replay holds the sink's own strand and its
/// state byte, so a frame of `Spawn` events costs what the sink's strands
/// cost.
pub fn replay_journal<R: Read, H: TaskHooks>(
    reader: &mut JournalReader<R>,
    sink: &H,
) -> Result<ReplayStats, JournalError> {
    fn live<S>(table: &mut [Option<S>], id: u32) -> Result<&mut S, JournalError> {
        table
            .get_mut(id as usize)
            .and_then(Option::as_mut)
            .ok_or(JournalError::UnknownStrand(id))
    }

    fn take<S>(table: &mut [Option<S>], id: u32) -> Result<S, JournalError> {
        table
            .get_mut(id as usize)
            .and_then(Option::take)
            .ok_or(JournalError::UnknownStrand(id))
    }

    /// `id` must have been introduced by `kind` and have ended to be
    /// joined; an id never introduced passes here and fails its `take`.
    fn joinable(states: &[u8], id: u32, kind: u8) -> Result<(), JournalError> {
        match states.get(id as usize) {
            Some(&s) if s & kind == 0 => Err(JournalError::WrongJoin(id)),
            Some(&s) if s & ENDED == 0 => Err(JournalError::UnendedJoin(id)),
            _ => Ok(()),
        }
    }

    /// `id` must not have ended to act, and must be the top of `open`
    /// when the sink needs serial-elision order.
    fn acting<H: TaskHooks>(states: &[u8], open: &[u32], id: u32) -> Result<(), JournalError> {
        match states.get(id as usize) {
            Some(&s) if s & ENDED != 0 => Err(JournalError::EndedStrand(id)),
            _ if H::NEEDS_SERIAL_ORDER && open.last() != Some(&id) => {
                Err(JournalError::OutOfSerialOrder(id))
            }
            _ => Ok(()),
        }
    }

    let mut strands = vec![Some(sink.root())];
    let mut states = vec![0u8];
    // The strands serial elision has open, innermost last; kept only for
    // a sink that needs that order.
    let mut open = if H::NEEDS_SERIAL_ORDER {
        vec![0u32]
    } else {
        Vec::new()
    };
    let mut stats = ReplayStats::default();
    while let Some(ev) = reader.next_event()? {
        stats.events += 1;
        match ev {
            JEvent::Spawn { parent, child } | JEvent::Create { parent, child } => {
                let is_create = matches!(ev, JEvent::Create { .. });
                acting::<H>(&states, &open, parent)?;
                let p = live(&mut strands, parent)?;
                let strand = if is_create {
                    sink.on_create(p)
                } else {
                    sink.on_spawn(p)
                };
                if strands.len() != child as usize {
                    return Err(JournalError::UnknownStrand(child));
                }
                strands.push(Some(strand));
                states.push(if is_create { CREATED } else { SPAWNED });
                if H::NEEDS_SERIAL_ORDER {
                    open.push(child);
                }
            }
            JEvent::Sync { strand, children } => {
                acting::<H>(&states, &open, strand)?;
                let joined = children
                    .iter()
                    .map(|&c| {
                        joinable(&states, c, SPAWNED)?;
                        take(&mut strands, c)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                sink.on_sync(live(&mut strands, strand)?, joined);
            }
            JEvent::Get { strand, done } => {
                acting::<H>(&states, &open, strand)?;
                joinable(&states, done, CREATED)?;
                let done = take(&mut strands, done)?;
                sink.on_get(live(&mut strands, strand)?, &done);
            }
            JEvent::TaskEnd { strand } => {
                acting::<H>(&states, &open, strand)?;
                sink.on_task_end(live(&mut strands, strand)?);
                states[strand as usize] |= ENDED;
            }
            JEvent::TaskReturn { parent, child } => {
                if H::NEEDS_SERIAL_ORDER {
                    if open.last() != Some(&child) {
                        return Err(JournalError::OutOfSerialOrder(child));
                    }
                    open.pop();
                }
                acting::<H>(&states, &open, parent)?;
                // Both strands stay live (the child is consumed later by
                // its sync); borrow them disjointly by taking the child
                // out around the call.
                let mut c = take(&mut strands, child)?;
                sink.on_task_return(live(&mut strands, parent)?, &mut c);
                strands[child as usize] = Some(c);
            }
            JEvent::Accesses {
                strand,
                filtered_reads,
                filtered_writes,
                entries,
            } => {
                acting::<H>(&states, &open, strand)?;
                stats.flushes += u64::from(!entries.is_empty());
                stats.accesses += entries.len() as u64;
                stats.filtered += filtered_reads + filtered_writes;
                let s = live(&mut strands, strand)?;
                sink.on_access_batch(s, &entries, (filtered_reads, filtered_writes));
            }
        }
    }
    Ok(stats)
}
