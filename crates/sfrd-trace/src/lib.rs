//! # sfrd-trace — versioned binary strand-event journals
//!
//! The unified strand-event pipeline made every detector event-shaped: a
//! run *is* its stream of `spawn`/`create`/`sync`/`get`/task-end events
//! plus per-position access batches. This crate serializes that stream to
//! a compact, versioned binary **journal**, splitting *record* from
//! *detect*:
//!
//! * [`JournalHooks`] — a [`TaskHooks`](sfrd_runtime::TaskHooks)
//!   implementation (used under [`Batched`](sfrd_runtime::Batched), so the
//!   recorded access stream is exactly what a live batched detector would
//!   have seen) that appends every event to a [`JournalWriter`];
//! * [`JournalReader`] — a streaming decoder over any `Read` (a file, a
//!   byte slice, a socket), one event at a time;
//! * [`replay_journal`] — the one replay path: feeds a decoded stream
//!   into any `TaskHooks` sink, so a fresh detector reproduces the
//!   recording run's verdicts (and, for sequentially recorded journals,
//!   its counters) exactly. `trace_tool detect`, the `sfrd-serve`
//!   sessions and the offline oracle all replay through it.
//!
//! ## Why replay is sound
//!
//! The recording hooks serialize events under one mutex at
//! hook-invocation time, so the journal is a *linearization* of the
//! recorded dag: a child's first event appears after its `Spawn`/`Create`,
//! a `Get` appears after the future's final strand was published, and the
//! per-strand event order is program order. Replay checks that in file
//! order and runs every journal, for every sink, in the dag's serial
//! elision — a legal schedule of the *same dag*. Determinacy races are a
//! property of the dag, not the schedule, so the racy-address verdict is
//! the recording run's; and MultiBags, sound only in serial elision, takes
//! pool recordings too. A sequential recording is already in that order.
//!
//! ## Format (version 1)
//!
//! Header: 8-byte magic `SFRDJRNL`, `u32` LE version, `u32` LE metadata
//! length, metadata (UTF-8). Then length-prefixed frames (`u32` LE payload
//! length; payload byte 0 is the frame kind): kind 1 carries a run of
//! varint-packed events, kind 2 is the explicit end-of-journal marker (a
//! journal without it is truncated). Access records pack as
//! delta-zigzag-varint addresses plus an is-write bitmap; see `DESIGN.md`
//! §12 for the full layout and the versioning rules.

#![warn(missing_docs)]

mod format;
mod reader;
mod replay;
mod varint;
mod writer;

pub use format::{JournalError, JOURNAL_MAGIC, JOURNAL_VERSION, MAX_FRAME_LEN};
pub use reader::{JEvent, JournalReader};
pub use replay::{replay_journal, ReplayStats};
pub use writer::{JournalHooks, JournalWriter};
