//! Streaming journal encoder and the recording hooks.

use std::io::{self, Write};
use std::sync::Arc;

use parking_lot::Mutex;
use sfrd_runtime::{BatchedAccess, TaskHooks};

use crate::format::{
    FRAME_END, FRAME_EVENTS, JOURNAL_MAGIC, JOURNAL_VERSION, OP_ACCESSES, OP_CREATE, OP_GET,
    OP_SPAWN, OP_SYNC, OP_TASK_END, OP_TASK_RETURN,
};
use crate::reader::JEvent;
use crate::varint::{write_u64, zigzag};

/// Writer-side frame flush threshold. Deterministic in the event stream
/// (a frame closes as soon as it reaches this size), so re-encoding a
/// decoded journal reproduces the original frame boundaries — the
/// byte-identity property the round-trip suite pins down.
pub(crate) const FRAME_CAP: usize = 32 * 1024;

/// Streaming encoder: header up front, then events packed into
/// length-prefixed frames. Child strand ids are assigned implicitly, in
/// event order — `Spawn`/`Create` encode only the parent, and both sides
/// count; that is also why all events of one journal must be serialized
/// through one writer.
///
/// I/O errors are latched: event methods stay infallible (they go quiet
/// after the first failure) and [`finish`](Self::finish) reports it — the
/// hooks below must not panic mid-run inside a parallel execution.
pub struct JournalWriter<W: Write> {
    sink: W,
    /// Event bytes of the open frame (kind byte prepended at flush).
    frame: Vec<u8>,
    next_id: u32,
    error: Option<io::Error>,
}

impl<W: Write> JournalWriter<W> {
    /// Write the header (magic, version, metadata) and stand ready to
    /// encode events. `metadata` is a free-form UTF-8 tag describing the
    /// recording (workload, worker count, detector the run targeted, ...).
    pub fn new(mut sink: W, metadata: &str) -> io::Result<Self> {
        sink.write_all(&JOURNAL_MAGIC)?;
        sink.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        sink.write_all(&(metadata.len() as u32).to_le_bytes())?;
        sink.write_all(metadata.as_bytes())?;
        Ok(Self {
            sink,
            frame: Vec::with_capacity(FRAME_CAP + 1024),
            next_id: 1,
            error: None,
        })
    }

    fn flush_frame(&mut self) {
        if self.frame.is_empty() || self.error.is_some() {
            self.frame.clear();
            return;
        }
        let len = (self.frame.len() + 1) as u32;
        let r = self
            .sink
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.sink.write_all(&[FRAME_EVENTS]))
            .and_then(|()| self.sink.write_all(&self.frame));
        if let Err(e) = r {
            self.error = Some(e);
        }
        self.frame.clear();
    }

    fn end_event(&mut self) {
        if self.frame.len() >= FRAME_CAP {
            self.flush_frame();
        }
    }

    /// Encode a `Spawn` and return the child's implicit id.
    pub fn spawn(&mut self, parent: u32) -> u32 {
        self.frame.push(OP_SPAWN);
        write_u64(&mut self.frame, u64::from(parent));
        self.end_event();
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Encode a `Create` and return the future strand's implicit id.
    pub fn create(&mut self, parent: u32) -> u32 {
        self.frame.push(OP_CREATE);
        write_u64(&mut self.frame, u64::from(parent));
        self.end_event();
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Encode a `Sync` of `strand` with its completed spawned children.
    pub fn sync(&mut self, strand: u32, children: &[u32]) {
        self.frame.push(OP_SYNC);
        write_u64(&mut self.frame, u64::from(strand));
        write_u64(&mut self.frame, children.len() as u64);
        for &c in children {
            write_u64(&mut self.frame, u64::from(c));
        }
        self.end_event();
    }

    /// Encode a `Get` of the future whose final strand is `done`.
    pub fn get(&mut self, strand: u32, done: u32) {
        self.frame.push(OP_GET);
        write_u64(&mut self.frame, u64::from(strand));
        write_u64(&mut self.frame, u64::from(done));
        self.end_event();
    }

    /// Encode a task end.
    pub fn task_end(&mut self, strand: u32) {
        self.frame.push(OP_TASK_END);
        write_u64(&mut self.frame, u64::from(strand));
        self.end_event();
    }

    /// Encode a sequential-runtime task return.
    pub fn task_return(&mut self, parent: u32, child: u32) {
        self.frame.push(OP_TASK_RETURN);
        write_u64(&mut self.frame, u64::from(parent));
        write_u64(&mut self.frame, u64::from(child));
        self.end_event();
    }

    /// Encode one flushed access batch: the filter-admitted entries (an
    /// is-write bitmap plus delta-zigzag-varint addresses) and the
    /// `(reads, writes)` the recording filter combined away at this
    /// position, so replay keeps the Fig. 3 counters exact.
    pub fn accesses(&mut self, strand: u32, filtered: (u64, u64), entries: &[BatchedAccess]) {
        self.frame.push(OP_ACCESSES);
        write_u64(&mut self.frame, u64::from(strand));
        write_u64(&mut self.frame, filtered.0);
        write_u64(&mut self.frame, filtered.1);
        write_u64(&mut self.frame, entries.len() as u64);
        let mut bitmap = 0u8;
        for (i, a) in entries.iter().enumerate() {
            bitmap |= u8::from(a.is_write) << (i % 8);
            if i % 8 == 7 {
                self.frame.push(bitmap);
                bitmap = 0;
            }
        }
        if !entries.len().is_multiple_of(8) {
            self.frame.push(bitmap);
        }
        let mut prev = 0u64;
        for a in entries {
            write_u64(&mut self.frame, zigzag(a.addr.wrapping_sub(prev) as i64));
            prev = a.addr;
        }
        self.end_event();
    }

    /// Re-encode a decoded event — the other half of the byte-identity
    /// round trip. Implicit id assignment must agree with the decoded
    /// stream (it does, for any stream produced by a reader, because both
    /// sides count `Spawn`/`Create` events in order).
    pub fn append(&mut self, ev: &JEvent) {
        match ev {
            JEvent::Spawn { parent, child } => {
                let id = self.spawn(*parent);
                debug_assert_eq!(id, *child, "implicit id drift on re-encode");
            }
            JEvent::Create { parent, child } => {
                let id = self.create(*parent);
                debug_assert_eq!(id, *child, "implicit id drift on re-encode");
            }
            JEvent::Sync { strand, children } => self.sync(*strand, children),
            JEvent::Get { strand, done } => self.get(*strand, *done),
            JEvent::TaskEnd { strand } => self.task_end(*strand),
            JEvent::TaskReturn { parent, child } => self.task_return(*parent, *child),
            JEvent::Accesses {
                strand,
                filtered_reads,
                filtered_writes,
                entries,
            } => self.accesses(*strand, (*filtered_reads, *filtered_writes), entries),
        }
    }

    /// Flush the open frame, write the end marker, and hand the sink back.
    /// Reports the first latched I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_frame();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink.write_all(&1u32.to_le_bytes())?;
        self.sink.write_all(&[FRAME_END])?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Recording [`TaskHooks`]: every runtime event appends to the journal.
///
/// Strands are bare `u32` ids. Events serialize under one mutex, and the
/// implicit child-id assignment happens under that same lock — so the
/// journal is a valid linearization of the dag even when recorded from a
/// parallel execution. Wrap in [`Batched`](sfrd_runtime::Batched) to
/// record the write-combined batch stream a live batched detector would
/// see (the normal setup); unbatched, each access records as a one-entry
/// batch.
pub struct JournalHooks<W: Write + Send + 'static> {
    writer: Mutex<JournalWriter<W>>,
}

impl<W: Write + Send + 'static> JournalHooks<W> {
    /// Record through `writer`.
    pub fn new(writer: JournalWriter<W>) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }

    /// Finish the journal once the run is over (all other `Arc` clones
    /// dropped — the runtimes hand hooks back at shutdown).
    pub fn finish(hooks: Arc<Self>) -> io::Result<W> {
        Arc::try_unwrap(hooks)
            .unwrap_or_else(|_| panic!("journal hooks still shared; drop the runtime first"))
            .finish_owned()
    }

    /// Finish an owned hooks value (the sequential-record path, where the
    /// hooks never needed an `Arc`).
    pub fn finish_owned(self) -> io::Result<W> {
        self.writer.into_inner().finish()
    }
}

impl<W: Write + Send + 'static> TaskHooks for JournalHooks<W> {
    type Strand = u32;

    fn root(&self) -> u32 {
        0
    }

    fn on_spawn(&self, parent: &mut u32) -> u32 {
        self.writer.lock().spawn(*parent)
    }

    fn on_create(&self, parent: &mut u32) -> u32 {
        self.writer.lock().create(*parent)
    }

    fn on_sync(&self, s: &mut u32, children: Vec<u32>) {
        self.writer.lock().sync(*s, &children);
    }

    fn on_get(&self, s: &mut u32, done: &u32) {
        self.writer.lock().get(*s, *done);
    }

    fn on_task_end(&self, s: &mut u32) {
        self.writer.lock().task_end(*s);
    }

    fn on_task_return(&self, parent: &mut u32, child: &mut u32) {
        self.writer.lock().task_return(*parent, *child);
    }

    fn on_access(&self, s: &mut u32, addr: u64, is_write: bool) {
        self.on_access_batch(s, &[BatchedAccess { addr, is_write }], (0, 0));
    }

    fn on_access_batch(&self, s: &mut u32, entries: &[BatchedAccess], filtered: (u64, u64)) {
        self.writer.lock().accesses(*s, filtered, entries);
    }
}
