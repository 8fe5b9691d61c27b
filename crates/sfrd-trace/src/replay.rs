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

/// How a strand was introduced: its kind byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Root,
    Spawned,
    Created,
}

/// Replay every remaining event of `reader` into `sink`. A reference to a
/// strand id never introduced (or already consumed) is
/// [`JournalError::UnknownStrand`]; a `Get` of a strand no `Create`
/// introduced, or a `Sync` of a child no `Spawn` did, is
/// [`JournalError::WrongJoin`] — a live run cannot build either (`get`
/// consumes the handle `create` returned, `sync` joins the spawned
/// children), and the detectors' verdicts assume a structured-future
/// program.
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
/// Per journal strand the replay holds the sink's own strand and nothing
/// else, so a frame of `Spawn` events costs what the sink's strands cost.
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

    /// `id` must be of `kind` to be joined; an id never introduced
    /// passes here and fails its `take`.
    fn joinable(kinds: &[Kind], id: u32, kind: Kind) -> Result<(), JournalError> {
        match kinds.get(id as usize) {
            Some(&k) if k != kind => Err(JournalError::WrongJoin(id)),
            _ => Ok(()),
        }
    }

    let mut strands = vec![Some(sink.root())];
    let mut kinds = vec![Kind::Root];
    let mut stats = ReplayStats::default();
    while let Some(ev) = reader.next_event()? {
        stats.events += 1;
        match ev {
            JEvent::Spawn { parent, child } | JEvent::Create { parent, child } => {
                let is_create = matches!(ev, JEvent::Create { .. });
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
                kinds.push(if is_create {
                    Kind::Created
                } else {
                    Kind::Spawned
                });
            }
            JEvent::Sync { strand, children } => {
                let joined = children
                    .iter()
                    .map(|&c| {
                        joinable(&kinds, c, Kind::Spawned)?;
                        take(&mut strands, c)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                sink.on_sync(live(&mut strands, strand)?, joined);
            }
            JEvent::Get { strand, done } => {
                joinable(&kinds, done, Kind::Created)?;
                let done = take(&mut strands, done)?;
                sink.on_get(live(&mut strands, strand)?, &done);
            }
            JEvent::TaskEnd { strand } => {
                sink.on_task_end(live(&mut strands, strand)?);
            }
            JEvent::TaskReturn { parent, child } => {
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
