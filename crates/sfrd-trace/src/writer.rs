//! Streaming journal encoder and the recording hooks.

use std::cell::UnsafeCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sfrd_runtime::batch::DEFAULT_BATCH_CAP;
use sfrd_runtime::{BatchedAccess, TaskHooks};

use crate::format::{
    FRAME_END, FRAME_EVENTS, JOURNAL_MAGIC, JOURNAL_VERSION, OP_ACCESSES, OP_CREATE, OP_GET,
    OP_SPAWN, OP_SYNC, OP_TASK_END, OP_TASK_RETURN,
};
use crate::reader::JEvent;
use crate::varint::{self, zigzag, Cursor, MAX_VARINT};

/// Writer-side frame flush threshold. Deterministic in the event stream
/// (a frame closes as soon as it reaches this size), so re-encoding a
/// decoded journal reproduces the original frame boundaries — the
/// byte-identity property the round-trip suite pins down.
pub(crate) const FRAME_CAP: usize = 32 * 1024;

/// Most bytes an `Accesses` event of `n` entries takes: opcode, four
/// varints, the bitmap and one varint per address.
fn accesses_max(n: usize) -> usize {
    1 + 4 * MAX_VARINT + n.div_ceil(8) + n * MAX_VARINT
}

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
            // Room for a cap-sized batch past a nearly full frame.
            frame: Vec::with_capacity(FRAME_CAP + accesses_max(DEFAULT_BATCH_CAP)),
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

    /// Encode one event of at most `max` bytes into the open frame in one
    /// pass, then close the frame if it reached [`FRAME_CAP`].
    #[inline]
    fn event(&mut self, max: usize, encode: impl FnOnce(&mut Cursor<'_>)) {
        varint::append(&mut self.frame, max, encode);
        if self.frame.len() >= FRAME_CAP {
            self.flush_frame();
        }
    }

    /// Encode a `Spawn` and return the child's implicit id.
    pub fn spawn(&mut self, parent: u32) -> u32 {
        self.event(1 + MAX_VARINT, |c| {
            c.byte(OP_SPAWN);
            c.varint(u64::from(parent));
        });
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Encode a `Create` and return the future strand's implicit id.
    pub fn create(&mut self, parent: u32) -> u32 {
        self.event(1 + MAX_VARINT, |c| {
            c.byte(OP_CREATE);
            c.varint(u64::from(parent));
        });
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Encode a `Sync` of `strand` with its completed spawned children.
    pub fn sync(&mut self, strand: u32, children: &[u32]) {
        self.event(1 + (2 + children.len()) * MAX_VARINT, |c| {
            c.byte(OP_SYNC);
            c.varint(u64::from(strand));
            c.varint(children.len() as u64);
            for &child in children {
                c.varint(u64::from(child));
            }
        });
    }

    /// Encode a `Get` of the future whose final strand is `done`.
    pub fn get(&mut self, strand: u32, done: u32) {
        self.event(1 + 2 * MAX_VARINT, |c| {
            c.byte(OP_GET);
            c.varint(u64::from(strand));
            c.varint(u64::from(done));
        });
    }

    /// Encode a task end.
    pub fn task_end(&mut self, strand: u32) {
        self.event(1 + MAX_VARINT, |c| {
            c.byte(OP_TASK_END);
            c.varint(u64::from(strand));
        });
    }

    /// Encode a sequential-runtime task return.
    pub fn task_return(&mut self, parent: u32, child: u32) {
        self.event(1 + 2 * MAX_VARINT, |c| {
            c.byte(OP_TASK_RETURN);
            c.varint(u64::from(parent));
            c.varint(u64::from(child));
        });
    }

    /// Encode one flushed access batch: the filter-admitted entries (an
    /// is-write bitmap plus delta-zigzag-varint addresses) and the
    /// `(reads, writes)` the recording filter combined away at this
    /// position, so replay keeps the Fig. 3 counters exact.
    pub fn accesses(&mut self, strand: u32, filtered: (u64, u64), entries: &[BatchedAccess]) {
        self.event(accesses_max(entries.len()), |c| {
            c.byte(OP_ACCESSES);
            c.varint(u64::from(strand));
            c.varint(filtered.0);
            c.varint(filtered.1);
            c.varint(entries.len() as u64);
            for eight in entries.chunks(8) {
                let bits = eight.iter().enumerate();
                c.byte(bits.fold(0, |m, (i, a)| m | u8::from(a.is_write) << i));
            }
            let mut prev = 0u64;
            for a in entries {
                c.varint(zigzag(a.addr.wrapping_sub(prev) as i64));
                prev = a.addr;
            }
        });
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

/// The journal writer behind the lock every recorded event takes. A
/// release is one plain store: a `std::sync::Mutex` release is a second
/// locked instruction per event (it must learn whether a sleeper waits),
/// and on `futures` that pair of instructions was a quarter of recording's
/// cost. A contended taker yields its time slice until the lock reads
/// free; a holder encodes one event, tens of nanoseconds, and never takes
/// the lock again inside.
struct Locked<W: Write> {
    held: AtomicBool,
    writer: UnsafeCell<JournalWriter<W>>,
}

// SAFETY: `writer` is reached only through `with`, under `held`: taken with
// `Acquire` and released with `Release`, so one thread at a time, each
// seeing the previous holder's writes.
unsafe impl<W: Write + Send> Sync for Locked<W> {}

impl<W: Write> Locked<W> {
    fn with<R>(&self, f: impl FnOnce(&mut JournalWriter<W>) -> R) -> R {
        /// Releases `held`, also when `f` unwinds.
        struct Release<'a>(&'a AtomicBool);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        while self
            .held
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            while self.held.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        }
        let _release = Release(&self.held);
        // SAFETY: `held` is this thread's until `_release` drops.
        f(unsafe { &mut *self.writer.get() })
    }
}

/// Recording [`TaskHooks`]: every runtime event appends to the journal.
///
/// Strands are bare `u32` ids. Events serialize under one lock, and the
/// implicit child-id assignment happens under that same lock — so the
/// journal is a valid linearization of the dag even when recorded from a
/// parallel execution. Wrap in [`Batched`](sfrd_runtime::Batched) to
/// record the write-combined batch stream a live batched detector would
/// see (the normal setup); unbatched, each access records as a one-entry
/// batch.
pub struct JournalHooks<W: Write + Send + 'static> {
    writer: Locked<W>,
}

impl<W: Write + Send + 'static> JournalHooks<W> {
    /// Record through `writer`.
    pub fn new(writer: JournalWriter<W>) -> Self {
        Self {
            writer: Locked {
                held: AtomicBool::new(false),
                writer: UnsafeCell::new(writer),
            },
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
        self.writer.writer.into_inner().finish()
    }
}

impl<W: Write + Send + 'static> TaskHooks for JournalHooks<W> {
    type Strand = u32;

    fn root(&self) -> u32 {
        0
    }

    fn on_spawn(&self, parent: &mut u32) -> u32 {
        self.writer.with(|w| w.spawn(*parent))
    }

    fn on_create(&self, parent: &mut u32) -> u32 {
        self.writer.with(|w| w.create(*parent))
    }

    fn on_sync(&self, s: &mut u32, children: Vec<u32>) {
        self.writer.with(|w| w.sync(*s, &children));
    }

    fn on_get(&self, s: &mut u32, done: &u32) {
        self.writer.with(|w| w.get(*s, *done));
    }

    fn on_task_end(&self, s: &mut u32) {
        self.writer.with(|w| w.task_end(*s));
    }

    fn on_task_return(&self, parent: &mut u32, child: &mut u32) {
        self.writer.with(|w| w.task_return(*parent, *child));
    }

    fn on_access(&self, s: &mut u32, addr: u64, is_write: bool) {
        self.on_access_batch(s, &[BatchedAccess { addr, is_write }], (0, 0));
    }

    fn on_access_batch(&self, s: &mut u32, entries: &[BatchedAccess], filtered: (u64, u64)) {
        self.writer.with(|w| w.accesses(*s, filtered, entries));
    }
}
