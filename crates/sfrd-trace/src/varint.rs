//! LEB128 varints and zigzag'd address deltas.

use std::mem::MaybeUninit;

use crate::format::JournalError;

/// Most bytes one LEB128 varint of a `u64` takes.
pub(crate) const MAX_VARINT: usize = 10;

/// A write position in reserved bytes not yet initialised: an event is
/// encoded through one in a single pass ([`append`]).
pub(crate) struct Cursor<'a> {
    buf: &'a mut [MaybeUninit<u8>],
    at: usize,
}

impl Cursor<'_> {
    /// Append one byte.
    #[inline]
    pub(crate) fn byte(&mut self, b: u8) {
        self.buf[self.at].write(b);
        self.at += 1;
    }

    /// Append `v` as an LEB128 varint.
    #[inline]
    pub(crate) fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }
}

/// Append at most `max` bytes to `buf`: `encode` writes them through a
/// cursor over `buf`'s spare capacity, and the length is set once, after.
#[inline]
pub(crate) fn append(buf: &mut Vec<u8>, max: usize, encode: impl FnOnce(&mut Cursor<'_>)) {
    buf.reserve(max);
    let len = buf.len();
    let mut cursor = Cursor {
        buf: &mut buf.spare_capacity_mut()[..max],
        at: 0,
    };
    encode(&mut cursor);
    let written = cursor.at;
    // SAFETY: the cursor writes its bytes in order from the first, so the
    // `written` bytes after `len` are initialised.
    unsafe { buf.set_len(len + written) };
}

/// Decode an LEB128 varint at `*pos`, advancing it. Errors on truncation
/// and on encodings that overflow 64 bits.
pub(crate) fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, JournalError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(JournalError::Truncated)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(JournalError::BadVarint);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(JournalError::BadVarint);
        }
    }
}

/// Decode a varint that must fit a `u32` (strand ids, counts).
pub(crate) fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, JournalError> {
    u32::try_from(read_u64(buf, pos)?).map_err(|_| JournalError::BadVarint)
}

/// Zigzag-fold a signed delta so small magnitudes of either sign encode
/// short.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_edge_values() {
        let mut buf = Vec::new();
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            append(&mut buf, MAX_VARINT, |c| c.varint(v));
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn rejects_truncation_and_overflow() {
        assert!(matches!(
            read_u64(&[0x80], &mut 0),
            Err(JournalError::Truncated)
        ));
        // 10 continuation bytes overflow 64 bits.
        let overlong = [0xff; 10];
        assert!(matches!(
            read_u64(&overlong, &mut 0),
            Err(JournalError::BadVarint)
        ));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
