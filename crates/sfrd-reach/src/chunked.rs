//! Persistent chunked bitmaps with structural sharing — the top tier of
//! the adaptive [`FutureSet`](crate::bitmap::FutureSet).
//!
//! A [`Chunked`] set is a directory of `Arc`-shared 512-bit [`Chunk`]s
//! plus a small **inline tail buffer** of recently added ids:
//!
//! * adding an id while the tail has room copies only the (stack-sized)
//!   struct — the whole chunk directory is shared through one `Arc`
//!   clone, so the operation allocates **zero** chunk bytes;
//! * when the tail fills, the buffered ids are flushed into a rebuilt
//!   directory: untouched chunks are shared by pointer
//!   ([`AllocDelta::chunks_shared`]) and only the chunks an id actually
//!   lands in are copy-on-written ([`AllocDelta::chunks_copied`]).
//!
//! This is the copy-on-write discipline a flat bitmap lacks: a
//! `Box<[u64]>` set copies all `k/64` words on every derivation, while a
//! chunked set derived from a shared ancestor pays `O(1)` amortized chunk
//! bytes plus an `O(k/512)` pointer directory once per
//! `TAIL_CAP` derivations. Every operation reports its true allocation
//! cost through [`AllocDelta`], which is what the Fig. 5 / `k_scaling`
//! bytes-allocated accounting records.
//!
//! Chunk-wide work (union, subset, popcount) runs on the 512-bit lane
//! loops of [`kernels`](crate::kernels). Pure-directory chunk pairs take
//! them directly; tail-touched chunks fall back to the logical `word_at`
//! view, which is rare by construction (at most `TAIL_CAP` ids live
//! outside the directory).
//!
//! Invariants:
//!
//! * tail ids are sorted, distinct, and **not present** in the directory;
//! * `count` equals directory popcount plus tail length;
//! * chunks cache their popcount (`ones`) so sharing a chunk never costs
//!   a scan.

use std::sync::Arc;

use crate::kernels::{self, Merge512};

/// Words per chunk (512 bits).
pub const CHUNK_WORDS: usize = 8;
/// Bits per chunk.
pub const CHUNK_BITS: usize = CHUNK_WORDS * 64;
/// Tail-buffer capacity: derivations between directory rebuilds.
pub const TAIL_CAP: usize = 8;

/// One 512-bit block with a cached popcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    words: [u64; CHUNK_WORDS],
    ones: u32,
}

impl Chunk {
    fn from_words(words: [u64; CHUNK_WORDS]) -> Self {
        let ones = kernels::popcnt512(&words);
        Self { words, ones }
    }

    /// Cached popcount.
    #[inline]
    pub fn ones(&self) -> u32 {
        self.ones
    }

    /// The raw 512-bit payload (kernel input).
    #[inline]
    pub fn words(&self) -> &[u64; CHUNK_WORDS] {
        &self.words
    }
}

/// The shared chunk directory.
#[derive(Debug, Clone, Default)]
struct ChunkDir {
    chunks: Box<[Option<Arc<Chunk>>]>,
}

/// Allocation accounting of one structural operation: the bytes a
/// derivation *freshly* allocated (shared chunks cost nothing) and the
/// chunk-level sharing outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocDelta {
    /// Heap bytes newly allocated by the operation (excluding the
    /// `FutureSet` struct itself, which the caller accounts).
    pub fresh_bytes: usize,
    /// Chunks copy-on-written (or created) during directory rebuilds.
    pub chunks_copied: u64,
    /// Chunks shared by pointer during directory rebuilds.
    pub chunks_shared: u64,
}

/// A persistent chunked bitmap: `Arc`-shared directory + inline tail.
#[derive(Debug, Clone)]
pub struct Chunked {
    dir: Arc<ChunkDir>,
    tail: [u32; TAIL_CAP],
    tail_len: u8,
    count: u32,
}

impl Chunked {
    /// Build from a sorted, deduplicated id slice.
    pub fn from_ids(ids: &[u32]) -> (Self, AllocDelta) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted+dedup");
        let empty = Chunked {
            dir: Arc::new(ChunkDir::default()),
            tail: [0; TAIL_CAP],
            tail_len: 0,
            count: 0,
        };
        let (built, mut delta) = empty.rebuilt_with(ids);
        // The throwaway empty directory Arc is not a real allocation of
        // the resulting set; the rebuild already charged the final one.
        delta.chunks_shared = 0;
        (built, delta)
    }

    fn tail(&self) -> &[u32] {
        &self.tail[..self.tail_len as usize]
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Membership.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        if self.tail().binary_search(&id).is_ok() {
            return true;
        }
        let ci = id as usize / CHUNK_BITS;
        match self.dir.chunks.get(ci).and_then(Option::as_ref) {
            Some(c) => {
                let b = id as usize % CHUNK_BITS;
                c.words[b / 64] >> (b % 64) & 1 == 1
            }
            None => false,
        }
    }

    /// Number of logical 64-bit words spanned (directory and tail).
    pub fn words_len(&self) -> usize {
        let dir_words = self.dir.chunks.len() * CHUNK_WORDS;
        let tail_words = self.tail().last().map_or(0, |&id| id as usize / 64 + 1);
        dir_words.max(tail_words)
    }

    /// The logical 64-bit word at index `wi` (directory OR tail bits).
    pub fn word_at(&self, wi: usize) -> u64 {
        let ci = wi / CHUNK_WORDS;
        let mut w = self
            .dir
            .chunks
            .get(ci)
            .and_then(Option::as_ref)
            .map_or(0, |c| c.words[wi % CHUNK_WORDS]);
        for &id in self.tail() {
            if id as usize / 64 == wi {
                w |= 1 << (id % 64);
            }
        }
        w
    }

    fn tail_touches_chunk(&self, ci: usize) -> bool {
        self.tail().iter().any(|&id| id as usize / CHUNK_BITS == ci)
    }

    fn dir_chunk(&self, ci: usize) -> Option<&Arc<Chunk>> {
        self.dir.chunks.get(ci).and_then(Option::as_ref)
    }

    /// `self` with `id` added (`id` must not be present). Shares the whole
    /// directory while the tail has room; flushes otherwise.
    pub fn with(&self, id: u32) -> (Self, AllocDelta) {
        debug_assert!(!self.contains(id));
        if (self.tail_len as usize) < TAIL_CAP {
            let mut out = self.clone();
            let at = out.tail().partition_point(|&t| t < id);
            out.tail.copy_within(at..out.tail_len as usize, at + 1);
            out.tail[at] = id;
            out.tail_len += 1;
            out.count += 1;
            // Zero fresh bytes: the directory is shared wholesale.
            return (out, AllocDelta::default());
        }
        self.rebuilt_with(&[id])
    }

    /// `self ∪ ids` as a rebuilt directory (tail folded in, result tail
    /// empty). `ids` must be sorted; duplicates of present bits are fine.
    pub fn with_ids(&self, ids: &[u32]) -> (Self, AllocDelta) {
        self.rebuilt_with(ids)
    }

    /// Rebuild the directory folding in the tail plus `add` (sorted).
    /// Chunks untouched by new bits are pointer-shared; touched chunks
    /// merge the sorted ids word-at-a-time ([`kernels::set_bits512`])
    /// instead of per-id read-modify-writes.
    fn rebuilt_with(&self, add: &[u32]) -> (Self, AllocDelta) {
        debug_assert!(add.windows(2).all(|w| w[0] <= w[1]), "add sorted");
        let mut fresh: Vec<u32> = Vec::with_capacity(add.len() + self.tail_len as usize);
        fresh.extend_from_slice(self.tail());
        fresh.extend_from_slice(add);
        fresh.sort_unstable();
        fresh.dedup();
        let max_bit = fresh.last().map_or(0, |&id| id as usize + 1);
        let nchunks = self.dir.chunks.len().max(max_bit.div_ceil(CHUNK_BITS));
        let mut chunks: Vec<Option<Arc<Chunk>>> = Vec::with_capacity(nchunks);
        let mut delta = AllocDelta::default();
        let mut count = 0u32;
        let mut ai = 0usize;
        for ci in 0..nchunks {
            let hi = (ci + 1) * CHUNK_BITS;
            let start = ai;
            while ai < fresh.len() && (fresh[ai] as usize) < hi {
                ai += 1;
            }
            let ids = &fresh[start..ai];
            let base = self.dir_chunk(ci);
            if ids.is_empty() {
                match base {
                    Some(c) => {
                        delta.chunks_shared += 1;
                        count += c.ones;
                        chunks.push(Some(Arc::clone(c)));
                    }
                    None => chunks.push(None),
                }
                continue;
            }
            let mut words = base.map_or([0u64; CHUNK_WORDS], |c| c.words);
            kernels::set_bits512(&mut words, ids, (ci * CHUNK_BITS) as u32);
            let c = Chunk::from_words(words);
            count += c.ones;
            delta.chunks_copied += 1;
            delta.fresh_bytes += std::mem::size_of::<Chunk>();
            chunks.push(Some(Arc::new(c)));
        }
        delta.fresh_bytes +=
            nchunks * std::mem::size_of::<Option<Arc<Chunk>>>() + std::mem::size_of::<ChunkDir>();
        (
            Chunked {
                dir: Arc::new(ChunkDir {
                    chunks: chunks.into_boxed_slice(),
                }),
                tail: [0; TAIL_CAP],
                tail_len: 0,
                count,
            },
            delta,
        )
    }

    /// Chunk-wise union with structural sharing: chunks equal to one
    /// side's are pointer-shared, only genuinely mixed chunks allocate.
    /// Pure-directory chunk pairs run on the fused 512-bit merge kernel
    /// ([`kernels::merge512`] — union, collapse probes and popcount in
    /// one pass); chunks with tail bits fall back to the logical
    /// `word_at` view.
    pub fn union(&self, other: &Chunked) -> (Self, AllocDelta) {
        let nchunks = self
            .words_len()
            .max(other.words_len())
            .div_ceil(CHUNK_WORDS);
        let mut chunks: Vec<Option<Arc<Chunk>>> = Vec::with_capacity(nchunks);
        let mut delta = AllocDelta::default();
        let mut count = 0u32;
        for ci in 0..nchunks {
            let (a, b) = (self.dir_chunk(ci), other.dir_chunk(ci));
            let tails = self.tail_touches_chunk(ci) || other.tail_touches_chunk(ci);
            if !tails {
                // Pure directory chunks: share or merge on the kernels.
                match (a, b) {
                    (Some(x), Some(y)) if Arc::ptr_eq(x, y) => {
                        delta.chunks_shared += 1;
                        count += x.ones;
                        chunks.push(Some(Arc::clone(x)));
                        continue;
                    }
                    (Some(x), None) => {
                        delta.chunks_shared += 1;
                        count += x.ones;
                        chunks.push(Some(Arc::clone(x)));
                        continue;
                    }
                    (None, Some(y)) => {
                        delta.chunks_shared += 1;
                        count += y.ones;
                        chunks.push(Some(Arc::clone(y)));
                        continue;
                    }
                    (None, None) => {
                        chunks.push(None);
                        continue;
                    }
                    (Some(x), Some(y)) => {
                        // One side may already hold the merged content:
                        // the collapse probes ride along with the union.
                        match kernels::merge512(&x.words, &y.words) {
                            Merge512::Left => {
                                delta.chunks_shared += 1;
                                count += x.ones;
                                chunks.push(Some(Arc::clone(x)));
                            }
                            Merge512::Right => {
                                delta.chunks_shared += 1;
                                count += y.ones;
                                chunks.push(Some(Arc::clone(y)));
                            }
                            Merge512::Fresh(words, ones) => {
                                debug_assert_eq!(ones, kernels::popcnt512(&words));
                                count += ones;
                                delta.chunks_copied += 1;
                                delta.fresh_bytes += std::mem::size_of::<Chunk>();
                                chunks.push(Some(Arc::new(Chunk { words, ones })));
                            }
                        }
                        continue;
                    }
                }
            }
            // Tail-touched chunk (rare: at most TAIL_CAP ids per side live
            // outside the directory) — merge through the logical view.
            let mut words = [0u64; CHUNK_WORDS];
            for (wo, w) in words.iter_mut().enumerate() {
                let wi = ci * CHUNK_WORDS + wo;
                *w = self.word_at(wi) | other.word_at(wi);
            }
            if words == [0u64; CHUNK_WORDS] {
                chunks.push(None);
                continue;
            }
            // One side may already hold exactly the merged content.
            if let Some(x) = a {
                if words == x.words {
                    delta.chunks_shared += 1;
                    count += x.ones;
                    chunks.push(Some(Arc::clone(x)));
                    continue;
                }
            }
            if let Some(y) = b {
                if words == y.words {
                    delta.chunks_shared += 1;
                    count += y.ones;
                    chunks.push(Some(Arc::clone(y)));
                    continue;
                }
            }
            let c = Chunk::from_words(words);
            count += c.ones;
            delta.chunks_copied += 1;
            delta.fresh_bytes += std::mem::size_of::<Chunk>();
            chunks.push(Some(Arc::new(c)));
        }
        delta.fresh_bytes +=
            nchunks * std::mem::size_of::<Option<Arc<Chunk>>>() + std::mem::size_of::<ChunkDir>();
        (
            Chunked {
                dir: Arc::new(ChunkDir {
                    chunks: chunks.into_boxed_slice(),
                }),
                tail: [0; TAIL_CAP],
                tail_len: 0,
                count,
            },
            delta,
        )
    }

    /// `self ⊆ other`, skipping pointer-equal chunks without a scan and
    /// returning at the first chunk with a bit `other` lacks.
    pub fn subset_of(&self, other: &Chunked) -> bool {
        if self.count > other.count {
            return false;
        }
        let nwords = self.words_len();
        for ci in 0..nwords.div_ceil(CHUNK_WORDS) {
            if !self.tail_touches_chunk(ci) && !other.tail_touches_chunk(ci) {
                match (self.dir_chunk(ci), other.dir_chunk(ci)) {
                    (None, _) => {}
                    (Some(x), Some(y)) => {
                        if !Arc::ptr_eq(x, y) && !kernels::subset512(&x.words, &y.words) {
                            return false;
                        }
                    }
                    // `other` has no bits in this chunk at all.
                    (Some(x), None) => {
                        if x.ones != 0 {
                            return false;
                        }
                    }
                }
                continue;
            }
            for wo in 0..CHUNK_WORDS {
                let wi = ci * CHUNK_WORDS + wo;
                if wi >= nwords {
                    break;
                }
                if self.word_at(wi) & !other.word_at(wi) != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Resident heap bytes of this set's payload: the directory box plus
    /// every reachable chunk (shared chunks counted in full — this is the
    /// per-set resident view, not the cumulative allocation figure).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<ChunkDir>()
            + self.dir.chunks.len() * std::mem::size_of::<Option<Arc<Chunk>>>()
            + self.dir.chunks.iter().flatten().count() * std::mem::size_of::<Chunk>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(c: &Chunked) -> Vec<u32> {
        let mut v = Vec::new();
        for wi in 0..c.words_len() {
            let mut w = c.word_at(wi);
            while w != 0 {
                let b = w.trailing_zeros();
                v.push((wi * 64) as u32 + b);
                w &= w - 1;
            }
        }
        v
    }

    #[test]
    fn tail_buffer_defers_allocation() {
        let (mut c, _) = Chunked::from_ids(&[1, 600]);
        for i in 0..TAIL_CAP as u32 {
            let (next, d) = c.with(10_000 + i);
            assert_eq!(d.fresh_bytes, 0, "tail insert {i} must be alloc-free");
            c = next;
        }
        // Tail full: the next insert flushes into a rebuilt directory.
        let (flushed, d) = c.with(42);
        assert!(d.fresh_bytes > 0);
        assert!(d.chunks_shared >= 1, "untouched chunks must be shared");
        assert_eq!(flushed.len(), 2 + TAIL_CAP as u32 + 1);
        assert!(flushed.contains(42) && flushed.contains(600) && flushed.contains(10_003));
    }

    #[test]
    fn union_shares_equal_chunks() {
        let (a, _) = Chunked::from_ids(&(0..512).collect::<Vec<_>>());
        let (b, _) = a.with(9000);
        let (b, _) = b.with_ids(&[]); // flush the tail
        let (u, d) = a.union(&b);
        assert_eq!(u.len(), 513);
        assert!(d.chunks_shared >= 1, "chunk 0 is identical on both sides");
        assert!(a.subset_of(&u) && b.subset_of(&u));
        assert!(!u.subset_of(&a));
    }

    #[test]
    fn subset_respects_tail_bits() {
        let (a, _) = Chunked::from_ids(&[5]);
        let (b, _) = a.with(700); // 700 lives in b's tail
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert_eq!(ids(&b), vec![5, 700]);
    }

    #[test]
    fn from_ids_roundtrip() {
        let input: Vec<u32> = vec![0, 63, 64, 511, 512, 513, 4096];
        let (c, _) = Chunked::from_ids(&input);
        assert_eq!(ids(&c), input);
        assert_eq!(c.len(), input.len() as u32);
        for &i in &input {
            assert!(c.contains(i));
        }
        assert!(!c.contains(1) && !c.contains(4097));
    }
}
