//! Streaming journal decoder.

use std::io::{ErrorKind, Read};

use sfrd_runtime::BatchedAccess;

use crate::format::{
    JournalError, FRAME_END, FRAME_EVENTS, JOURNAL_MAGIC, JOURNAL_VERSION, MAX_FRAME_LEN,
    OP_ACCESSES, OP_CREATE, OP_GET, OP_SPAWN, OP_SYNC, OP_TASK_END, OP_TASK_RETURN,
};
use crate::varint::{read_u32, read_u64, unzigzag};

/// One decoded strand event. Child ids on `Spawn`/`Create` are the
/// reader's reconstruction of the writer's implicit assignment (both sides
/// count the events in order; the root is id 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JEvent {
    /// A task spawned a fork-join child.
    Spawn {
        /// Spawning strand.
        parent: u32,
        /// The new child strand.
        child: u32,
    },
    /// A task created a future.
    Create {
        /// Creating strand.
        parent: u32,
        /// The future task's strand.
        child: u32,
    },
    /// A sync joined the completed spawned children.
    Sync {
        /// Syncing strand.
        strand: u32,
        /// Final strands of the joined children.
        children: Vec<u32>,
    },
    /// A get consumed a future.
    Get {
        /// Getting strand.
        strand: u32,
        /// The future's final strand.
        done: u32,
    },
    /// The task finished.
    TaskEnd {
        /// Finishing strand.
        strand: u32,
    },
    /// Sequential runtime only: child returned to its parent in DFS order.
    TaskReturn {
        /// Resuming parent strand.
        parent: u32,
        /// The returned child strand.
        child: u32,
    },
    /// One flushed access batch, all entries issued at `strand`'s dag
    /// position at record time.
    Accesses {
        /// Accessing strand.
        strand: u32,
        /// Reads the recording filter write-combined away here.
        filtered_reads: u64,
        /// Writes the recording filter write-combined away here.
        filtered_writes: u64,
        /// The filter-admitted accesses, in program order.
        entries: Vec<BatchedAccess>,
    },
}

/// Streaming decoder over any `Read` — a file, a byte slice or a socket.
/// The header is validated eagerly, each frame as it arrives and each
/// event as it is asked for; every malformation is an error, never a
/// panic.
pub struct JournalReader<R: Read> {
    src: R,
    metadata: String,
    /// The last events frame read (kind byte first) and the offset of its
    /// next undecoded event; `pos == frame.len()` once it is used up.
    frame: Vec<u8>,
    pos: usize,
    /// Implicit id of the next `Spawn`/`Create` child: the writer hands
    /// them out in event order from 1 (the root is 0), and so does this.
    next_id: u32,
    ended: bool,
}

impl<R: Read> JournalReader<R> {
    /// Validate the header (magic, version, metadata).
    pub fn new(mut src: R) -> Result<Self, JournalError> {
        let metadata = read_header(&mut src)?;
        Ok(Self {
            src,
            metadata,
            frame: Vec::new(),
            pos: 0,
            next_id: 1,
            ended: false,
        })
    }

    /// The header's free-form metadata tag.
    pub fn metadata(&self) -> &str {
        &self.metadata
    }

    /// Decode the next event; `Ok(None)` after the end marker. A journal
    /// that runs out of bytes *without* the marker is [`Truncated`]
    /// (`JournalError::Truncated`) — a half-written file never parses as a
    /// shorter run.
    pub fn next_event(&mut self) -> Result<Option<JEvent>, JournalError> {
        while self.pos == self.frame.len() {
            if self.ended {
                return Ok(None);
            }
            let payload = read_frame(&mut self.src)?;
            match payload[0] {
                FRAME_EVENTS => {
                    self.frame = payload;
                    self.pos = 1;
                }
                FRAME_END => self.ended = true,
                k => return Err(JournalError::BadFrame(k)),
            }
        }
        decode_event(&self.frame, &mut self.pos, &mut self.next_id).map(Some)
    }

    /// Decode the remaining events into a vector.
    pub fn read_all(&mut self) -> Result<Vec<JEvent>, JournalError> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }
}

/// Validate a journal header (magic, version, metadata) at the front of
/// `src` and return the metadata tag.
fn read_header<R: Read>(src: &mut R) -> Result<String, JournalError> {
    let mut magic = [0u8; 8];
    read_exact_or(src, &mut magic, JournalError::BadMagic)?;
    if magic != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let mut word = [0u8; 4];
    read_exact_or(src, &mut word, JournalError::Truncated)?;
    let version = u32::from_le_bytes(word);
    if version != JOURNAL_VERSION {
        return Err(JournalError::BadVersion(version));
    }
    read_exact_or(src, &mut word, JournalError::Truncated)?;
    let meta_len = u32::from_le_bytes(word);
    if meta_len > MAX_FRAME_LEN {
        return Err(JournalError::OverlongFrame(meta_len));
    }
    let mut meta = vec![0u8; meta_len as usize];
    read_exact_or(src, &mut meta, JournalError::Truncated)?;
    String::from_utf8(meta).map_err(|_| JournalError::BadMetadata)
}

/// Read one length-prefixed frame payload off `src`, enforcing the
/// [`MAX_FRAME_LEN`] bound before allocating for it. The payload is never
/// empty: a zero length prefix is an error.
fn read_frame<R: Read>(src: &mut R) -> Result<Vec<u8>, JournalError> {
    let mut word = [0u8; 4];
    read_exact_or(src, &mut word, JournalError::Truncated)?;
    let len = u32::from_le_bytes(word);
    if len == 0 {
        return Err(JournalError::BadFrame(0));
    }
    if len > MAX_FRAME_LEN {
        return Err(JournalError::OverlongFrame(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(src, &mut payload, JournalError::Truncated)?;
    Ok(payload)
}

/// Decode the event at `buf[*pos]` (an opcode, then its fields) and
/// advance `*pos` past it. `*pos < buf.len()` on entry.
fn decode_event(buf: &[u8], pos: &mut usize, next_id: &mut u32) -> Result<JEvent, JournalError> {
    let op = buf[*pos];
    *pos += 1;
    let ev = match op {
        OP_SPAWN => {
            let parent = read_u32(buf, pos)?;
            let child = *next_id;
            *next_id += 1;
            JEvent::Spawn { parent, child }
        }
        OP_CREATE => {
            let parent = read_u32(buf, pos)?;
            let child = *next_id;
            *next_id += 1;
            JEvent::Create { parent, child }
        }
        OP_SYNC => {
            let strand = read_u32(buf, pos)?;
            let n = read_u32(buf, pos)? as usize;
            if n > buf.len() - *pos {
                return Err(JournalError::Truncated);
            }
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(read_u32(buf, pos)?);
            }
            JEvent::Sync { strand, children }
        }
        OP_GET => JEvent::Get {
            strand: read_u32(buf, pos)?,
            done: read_u32(buf, pos)?,
        },
        OP_TASK_END => JEvent::TaskEnd {
            strand: read_u32(buf, pos)?,
        },
        OP_TASK_RETURN => JEvent::TaskReturn {
            parent: read_u32(buf, pos)?,
            child: read_u32(buf, pos)?,
        },
        OP_ACCESSES => {
            let strand = read_u32(buf, pos)?;
            let filtered_reads = read_u64(buf, pos)?;
            let filtered_writes = read_u64(buf, pos)?;
            let n = read_u32(buf, pos)? as usize;
            let bitmap_len = n.div_ceil(8);
            // Every entry takes at least one address byte besides its
            // bitmap bit: checking both before `with_capacity` caps the
            // entries' allocation at 16 times the frame, whatever `n` says.
            if n + bitmap_len > buf.len() - *pos {
                return Err(JournalError::Truncated);
            }
            let bitmap_at = *pos;
            *pos += bitmap_len;
            let mut entries = Vec::with_capacity(n);
            let mut prev = 0u64;
            for i in 0..n {
                let delta = unzigzag(read_u64(buf, pos)?);
                let addr = prev.wrapping_add(delta as u64);
                prev = addr;
                entries.push(BatchedAccess {
                    addr,
                    is_write: buf[bitmap_at + i / 8] >> (i % 8) & 1 == 1,
                });
            }
            JEvent::Accesses {
                strand,
                filtered_reads,
                filtered_writes,
                entries,
            }
        }
        op => return Err(JournalError::BadEvent(op)),
    };
    Ok(ev)
}

fn read_exact_or<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    on_eof: JournalError,
) -> Result<(), JournalError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            on_eof
        } else {
            JournalError::Io(e)
        }
    })
}
