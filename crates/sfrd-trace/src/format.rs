//! On-disk constants and the non-panicking error enum.

use std::fmt;

/// First eight bytes of every binary journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SFRDJRNL";

/// Current format version. Readers reject anything else: the format is
/// versioned precisely so a future layout change is a hard error here
/// rather than a silent misparse.
pub const JOURNAL_VERSION: u32 = 1;

/// Hard upper bound on one frame's payload. The writer flushes frames at
/// the writer's `FRAME_CAP` (32 KiB), so any larger length prefix is
/// corruption — rejecting it keeps a hostile or truncated length prefix
/// from driving an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame kind 1: a run of varint-packed events.
pub(crate) const FRAME_EVENTS: u8 = 1;
/// Frame kind 2: explicit end-of-journal marker.
pub(crate) const FRAME_END: u8 = 2;

/// Event opcodes within an events frame.
pub(crate) const OP_SPAWN: u8 = 0x01;
pub(crate) const OP_CREATE: u8 = 0x02;
pub(crate) const OP_SYNC: u8 = 0x03;
pub(crate) const OP_GET: u8 = 0x04;
pub(crate) const OP_TASK_END: u8 = 0x05;
pub(crate) const OP_TASK_RETURN: u8 = 0x06;
pub(crate) const OP_ACCESSES: u8 = 0x07;

/// Everything that can go wrong reading or replaying a journal. Malformed
/// input — truncated, over-length, wrong-version, garbage — is always an
/// `Err`, never a panic: journals cross process and machine boundaries, so
/// the reader treats its input as untrusted.
#[non_exhaustive]
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The input ended mid-header, mid-frame, or without the end frame.
    Truncated,
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    OverlongFrame(u32),
    /// Unknown frame kind byte.
    BadFrame(u8),
    /// Unknown event opcode.
    BadEvent(u8),
    /// Header metadata is not UTF-8.
    BadMetadata,
    /// A varint ran past its container or overflowed 64 bits.
    BadVarint,
    /// Replay: an event referenced a strand id never introduced (or
    /// already consumed).
    UnknownStrand(u32),
    /// Replay: a `Get` of a strand that a `Create` did not introduce, or a
    /// `Sync` of a child that a `Spawn` did not — a join no
    /// structured-future program makes.
    WrongJoin(u32),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a binary journal (bad magic)"),
            JournalError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported journal version {v} (expected {JOURNAL_VERSION})"
                )
            }
            JournalError::Truncated => write!(f, "journal truncated"),
            JournalError::OverlongFrame(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte bound")
            }
            JournalError::BadFrame(k) => write!(f, "unknown frame kind {k}"),
            JournalError::BadEvent(op) => write!(f, "unknown event opcode {op:#x}"),
            JournalError::BadMetadata => write!(f, "journal metadata is not UTF-8"),
            JournalError::BadVarint => write!(f, "malformed varint"),
            JournalError::UnknownStrand(id) => {
                write!(f, "event references unknown strand {id}")
            }
            JournalError::WrongJoin(id) => write!(
                f,
                "strand {id} joined by the wrong construct: a get takes a created future, a sync its spawned children"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}
