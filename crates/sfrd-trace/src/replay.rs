//! Feed a decoded journal into any [`TaskHooks`] sink, in serial-elision
//! order.
//!
//! Each recorded access batch reaches the sink as the borrowed slice it
//! was decoded into, with its filtered counts: one
//! [`TaskHooks::on_access_batch`] call per `Accesses` event, no copy.

use std::collections::VecDeque;
use std::io::Read;

use sfrd_runtime::{BatchedAccess, TaskHooks};

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

/// A journal strand's state byte: in file order, how it was introduced
/// (`SPAWNED`, `CREATED`, neither for the root), whether its `TaskEnd` was
/// read and whether a join consumed it; whether serial elision returned it.
const SPAWNED: u8 = 1;
const CREATED: u8 = 2;
const ENDED: u8 = 4;
const JOINED: u8 = 8;
const RETURNED: u8 = 16;

/// Replay every remaining event of `reader` into `sink`: check each event
/// in file order, as it is read, and run it in serial-elision order.
///
/// **Checks.** A reference to a strand id never introduced (or already
/// consumed) is [`JournalError::UnknownStrand`]. A `Get` of a strand no
/// `Create` introduced, or a `Sync` of one no `Spawn` did, is
/// [`JournalError::WrongJoin`]. A `Sync`, `Get` or `TaskReturn` of a strand
/// whose `TaskEnd` has not been read is [`JournalError::UnendedJoin`]. An
/// event by a strand after its `TaskEnd`, or a task return to it, is
/// [`JournalError::EndedStrand`].
///
/// **Order.** Replay keeps the stack of strands serial elision has open: a
/// `Spawn` or `Create` pushes its child, and a `TaskEnd` pops it and
/// returns it to the strand beneath ([`TaskHooks::on_task_return`], as
/// `run_sequential` does); a recorded `TaskReturn` is only checked. An
/// event of a strand not on top waits, decoded, in that strand's queue. A
/// join of a strand serial elision has not returned, and a journal that
/// ends with events waiting, are `UnendedJoin`. A sequential recording
/// never waits, so its sink sees the recording detector's hook calls.
pub fn replay_journal<R: Read, H: TaskHooks>(
    reader: &mut JournalReader<R>,
    sink: &H,
) -> Result<ReplayStats, JournalError> {
    let mut r = Replay {
        sink,
        states: vec![0],
        strands: vec![Some(sink.root())],
        open: vec![0],
        queues: Vec::new(),
        waiting: 0,
    };
    let mut stats = ReplayStats::default();
    while let Some(ev) = reader.next_event()? {
        stats.events += 1;
        match ev {
            JEvent::Spawn { parent, child } | JEvent::Create { parent, child } => {
                r.acting(parent)?;
                if r.states.len() != child as usize {
                    return Err(JournalError::UnknownStrand(child));
                }
                let create = matches!(ev, JEvent::Create { .. });
                r.states.push(if create { CREATED } else { SPAWNED });
                r.strands.push(None);
                r.fork(parent, child, create);
            }
            JEvent::Sync { strand, children } => {
                r.acting(strand)?;
                for &c in &children {
                    r.joined(c, SPAWNED, true)?;
                }
                r.sync(strand, children)?;
            }
            JEvent::Get { strand, done } => {
                r.acting(strand)?;
                r.joined(done, CREATED, true)?;
                r.get(strand, done)?;
            }
            JEvent::TaskEnd { strand } => {
                r.acting(strand)?;
                r.states[strand as usize] |= ENDED;
                r.end(strand);
            }
            // Checked only: serial elision returns a child at its end.
            JEvent::TaskReturn { parent, child } => {
                r.acting(parent)?;
                r.joined(child, SPAWNED | CREATED, false)?;
            }
            JEvent::Accesses {
                strand,
                filtered_reads,
                filtered_writes,
                entries,
            } => {
                r.acting(strand)?;
                stats.flushes += u64::from(!entries.is_empty());
                stats.accesses += entries.len() as u64;
                stats.filtered += filtered_reads + filtered_writes;
                r.accesses(strand, (filtered_reads, filtered_writes), entries);
            }
        }
        if r.waiting > 0 {
            r.drain()?;
        }
    }
    match r.waiting {
        0 => Ok(stats),
        _ => Err(JournalError::UnendedJoin(
            r.open.last().copied().unwrap_or(0),
        )),
    }
}

/// Replay's state. By strand id: the state byte, the sink's strand (empty
/// until its `Spawn` or `Create` runs, and once a join consumes it) and the
/// events waiting for the strand to be on top. The stack of open strands.
///
/// An event method runs a checked event if its strand is on top, else
/// queues it; it is inlined into the loop, which matches each event once.
/// Moving the decoded event into one shared `run` match instead cost up to
/// a quarter of a null sink's replay of the futures journal.
struct Replay<'h, H: TaskHooks> {
    sink: &'h H,
    states: Vec<u8>,
    strands: Vec<Option<H::Strand>>,
    open: Vec<u32>,
    queues: Vec<VecDeque<JEvent>>,
    waiting: usize,
}

impl<H: TaskHooks> Replay<'_, H> {
    /// `id` acts: it must be live and not have ended.
    #[inline(always)]
    fn acting(&self, id: u32) -> Result<(), JournalError> {
        match self.states.get(id as usize) {
            Some(&s) if s & ENDED != 0 => Err(JournalError::EndedStrand(id)),
            Some(&s) if s & JOINED == 0 => Ok(()),
            _ => Err(JournalError::UnknownStrand(id)),
        }
    }

    /// `id`, a joined or returned child, must be live, have been
    /// introduced by `kind` and have ended; a join consumes it.
    #[inline(always)]
    fn joined(&mut self, id: u32, kind: u8, consume: bool) -> Result<(), JournalError> {
        match self.states.get_mut(id as usize) {
            Some(s) if *s & JOINED != 0 => Err(JournalError::UnknownStrand(id)),
            Some(s) if *s & kind == 0 => Err(JournalError::WrongJoin(id)),
            Some(s) if *s & ENDED == 0 => Err(JournalError::UnendedJoin(id)),
            Some(s) => {
                *s |= if consume { JOINED } else { 0 };
                Ok(())
            }
            None => Err(JournalError::UnknownStrand(id)),
        }
    }

    #[inline(always)]
    fn on_top(&self, id: u32) -> bool {
        self.open.last() == Some(&id)
    }

    /// The sink strand of `id`, which serial elision has open.
    #[inline(always)]
    fn strand(&mut self, id: u32) -> &mut H::Strand {
        let slot = self.strands[id as usize].as_mut();
        slot.expect("an open strand has its sink strand")
    }

    /// The sink strand of a joined `id`, which serial elision must have
    /// returned.
    #[inline(always)]
    fn returned(&mut self, id: u32) -> Result<H::Strand, JournalError> {
        let slot = &mut self.strands[id as usize];
        let returned = self.states[id as usize] & RETURNED != 0;
        returned
            .then(|| slot.take())
            .flatten()
            .ok_or(JournalError::UnendedJoin(id))
    }

    /// `parent` spawns `child`, or creates it.
    #[inline(always)]
    fn fork(&mut self, parent: u32, child: u32, create: bool) {
        if !self.on_top(parent) {
            let ev = match create {
                true => JEvent::Create { parent, child },
                false => JEvent::Spawn { parent, child },
            };
            return self.wait(parent, ev);
        }
        let (sink, p) = (self.sink, self.strand(parent));
        let strand = match create {
            true => sink.on_create(p),
            false => sink.on_spawn(p),
        };
        self.strands[child as usize] = Some(strand);
        self.open.push(child);
    }

    #[inline(always)]
    fn sync(&mut self, strand: u32, children: Vec<u32>) -> Result<(), JournalError> {
        if !self.on_top(strand) {
            self.wait(strand, JEvent::Sync { strand, children });
            return Ok(());
        }
        let joined = children.iter().map(|&c| self.returned(c));
        let joined = joined.collect::<Result<Vec<_>, _>>()?;
        self.sink.on_sync(self.strand(strand), joined);
        Ok(())
    }

    #[inline(always)]
    fn get(&mut self, strand: u32, done: u32) -> Result<(), JournalError> {
        if !self.on_top(strand) {
            self.wait(strand, JEvent::Get { strand, done });
            return Ok(());
        }
        let done = self.returned(done)?;
        self.sink.on_get(self.strand(strand), &done);
        Ok(())
    }

    /// `strand` ends and returns to the strand beneath it.
    #[inline(always)]
    fn end(&mut self, strand: u32) {
        if !self.on_top(strand) {
            return self.wait(strand, JEvent::TaskEnd { strand });
        }
        self.sink.on_task_end(self.strand(strand));
        self.open.pop();
        self.states[strand as usize] |= RETURNED;
        if let Some(&parent) = self.open.last() {
            // A parent's id is below its child's: the slots borrow apart.
            let (below, from) = self.strands.split_at_mut(strand as usize);
            if let (Some(p), Some(c)) = (&mut below[parent as usize], &mut from[0]) {
                self.sink.on_task_return(p, c);
            }
        }
    }

    #[inline(always)]
    fn accesses(&mut self, strand: u32, filtered: (u64, u64), entries: Vec<BatchedAccess>) {
        if self.on_top(strand) {
            return self
                .sink
                .on_access_batch(self.strand(strand), &entries, filtered);
        }
        let (filtered_reads, filtered_writes) = filtered;
        let ev = JEvent::Accesses {
            strand,
            filtered_reads,
            filtered_writes,
            entries,
        };
        self.wait(strand, ev);
    }

    #[cold]
    #[inline(never)]
    fn wait(&mut self, id: u32, ev: JEvent) {
        let id = id as usize;
        if self.queues.len() <= id {
            self.queues.resize_with(id + 1, VecDeque::new);
        }
        self.queues[id].push_back(ev);
        self.waiting += 1;
    }

    /// Run the waiting events of whichever strand is on top, until its
    /// queue is empty: a fork or an end changes the top, and the loop goes
    /// on with the new one's.
    #[cold]
    #[inline(never)]
    fn drain(&mut self) -> Result<(), JournalError> {
        while let Some(&top) = self.open.last() {
            let Some(ev) = self
                .queues
                .get_mut(top as usize)
                .and_then(VecDeque::pop_front)
            else {
                return Ok(());
            };
            self.waiting -= 1;
            match ev {
                JEvent::Spawn { parent, child } => self.fork(parent, child, false),
                JEvent::Create { parent, child } => self.fork(parent, child, true),
                JEvent::Sync { strand, children } => self.sync(strand, children)?,
                JEvent::Get { strand, done } => self.get(strand, done)?,
                JEvent::TaskEnd { strand } => self.end(strand),
                JEvent::TaskReturn { .. } => {} // never queued
                JEvent::Accesses {
                    strand,
                    filtered_reads,
                    filtered_writes,
                    entries,
                } => self.accesses(strand, (filtered_reads, filtered_writes), entries),
            }
        }
        Ok(())
    }
}
