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
//! Chunk-wide work (union, subset, popcount) dispatches through the
//! [`kernels`](crate::kernels) layer: every structural method takes a
//! resolved [`Kernel`] and reports how many 512-bit primitive calls it
//! made in [`AllocDelta::kernel_ops`] (or, for [`Chunked::subset_of`],
//! alongside the verdict), so `SetStats` can attribute them to the SIMD
//! or scalar counter. Pure-directory chunk pairs take the vector path;
//! tail-touched chunks fall back to the logical `word_at` view, which is
//! rare by construction (at most `TAIL_CAP` ids live outside the
//! directory). Sequential chunk scans issue a software prefetch for the
//! next chunk's `Arc` target — directory entries are pointers to
//! scattered 72-byte blocks, exactly the dependent-miss pattern prefetch
//! hides. Those hints are deliberately *not* counted: a per-chunk atomic
//! tally would cost more than the prefetch saves (the shadow-side
//! `prefetch_issued` counter covers the batched replay loop instead).
//!
//! Invariants:
//!
//! * tail ids are sorted, distinct, and **not present** in the directory;
//! * `count` equals directory popcount plus tail length;
//! * chunks cache their popcount (`ones`) so sharing a chunk never costs
//!   a scan;
//! * results and `kernel_ops` tallies are identical across kernels —
//!   only which `SetStats` counter absorbs the tally differs.

use std::sync::Arc;

use crate::kernels::{self, ChunkWords, Kernel, Merge512};

/// Words per chunk (512 bits).
pub const CHUNK_WORDS: usize = 8;
/// Bits per chunk.
pub const CHUNK_BITS: usize = CHUNK_WORDS * 64;
/// Tail-buffer capacity: derivations between directory rebuilds.
pub const TAIL_CAP: usize = 8;
/// Chunk pairs gathered per [`Kernel::subset512_many`] dispatch during
/// [`Chunked::subset_of`]: 32 pairs = 4 KiB of payload per call, enough
/// to amortize the non-inlinable vector-kernel call while staying a
/// small stack array.
pub const SUBSET_BATCH: usize = 32;

/// One 512-bit block with a cached popcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    words: [u64; CHUNK_WORDS],
    ones: u32,
}

impl Chunk {
    fn from_words(words: [u64; CHUNK_WORDS], k: Kernel) -> Self {
        let ones = k.popcnt512(&words);
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
    /// 512-bit kernel primitive invocations made by the operation.
    pub kernel_ops: u64,
}

impl AllocDelta {
    fn absorb(&mut self, other: AllocDelta) {
        self.fresh_bytes += other.fresh_bytes;
        self.chunks_copied += other.chunks_copied;
        self.chunks_shared += other.chunks_shared;
        self.kernel_ops += other.kernel_ops;
    }
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
    pub fn from_ids(ids: &[u32], k: Kernel) -> (Self, AllocDelta) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted+dedup");
        let empty = Chunked {
            dir: Arc::new(ChunkDir::default()),
            tail: [0; TAIL_CAP],
            tail_len: 0,
            count: 0,
        };
        let (built, mut delta) = empty.rebuilt_with(ids, k);
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

    /// Hint the next chunk of a sequential scan into cache on both sides.
    #[inline]
    fn prefetch_next(&self, other: &Chunked, ci: usize, nchunks: usize) {
        if ci + 1 < nchunks {
            if let Some(n) = self.dir_chunk(ci + 1) {
                kernels::prefetch_read(Arc::as_ptr(n));
            }
            if let Some(n) = other.dir_chunk(ci + 1) {
                kernels::prefetch_read(Arc::as_ptr(n));
            }
        }
    }

    /// `self` with `id` added (`id` must not be present). Shares the whole
    /// directory while the tail has room; flushes otherwise.
    pub fn with(&self, id: u32, k: Kernel) -> (Self, AllocDelta) {
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
        self.rebuilt_with(&[id], k)
    }

    /// `self ∪ ids` as a rebuilt directory (tail folded in, result tail
    /// empty). `ids` must be sorted; duplicates of present bits are fine.
    pub fn with_ids(&self, ids: &[u32], k: Kernel) -> (Self, AllocDelta) {
        self.rebuilt_with(ids, k)
    }

    /// Rebuild the directory folding in the tail plus `add` (sorted).
    /// Chunks untouched by new bits are pointer-shared; touched chunks
    /// merge the sorted ids word-at-a-time ([`kernels::set_bits512`])
    /// instead of per-id read-modify-writes.
    fn rebuilt_with(&self, add: &[u32], k: Kernel) -> (Self, AllocDelta) {
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
            delta.kernel_ops += 1;
            let c = Chunk::from_words(words, k);
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
    /// ([`Kernel::merge512`] — union, collapse probes and popcount in
    /// one dispatch); chunks with tail bits fall back to the logical
    /// `word_at` view.
    pub fn union(&self, other: &Chunked, k: Kernel) -> (Self, AllocDelta) {
        let nchunks = self
            .words_len()
            .max(other.words_len())
            .div_ceil(CHUNK_WORDS);
        let mut chunks: Vec<Option<Arc<Chunk>>> = Vec::with_capacity(nchunks);
        let mut delta = AllocDelta::default();
        let mut count = 0u32;
        for ci in 0..nchunks {
            self.prefetch_next(other, ci, nchunks);
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
                        // Fused kernel: the union, both collapse probes
                        // (one side may already hold the merged
                        // content) and the fresh-path popcount are one
                        // dispatch — and one kernel op — instead of the
                        // old or512 → eq512 ×2 → popcnt512 ladder.
                        delta.kernel_ops += 1;
                        match k.merge512(&x.words, &y.words) {
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
                                debug_assert_eq!(ones, k.popcnt512(&words));
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
            delta.kernel_ops += 1;
            let c = Chunk::from_words(words, k);
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

    /// `self ⊆ other`, skipping pointer-equal chunks without a scan.
    /// Pure-directory chunk pairs are **gathered** into a stack batch
    /// and tested with one [`Kernel::subset512_many`] dispatch per
    /// [`SUBSET_BATCH`] pairs — the batch call loops inside the vector
    /// kernel's feature boundary, so the per-call dispatch overhead that
    /// would swamp a single 64-byte `subset512` is amortized over the
    /// whole run. Returns the verdict plus the kernel-op tally, one op
    /// per pair actually tested (the caller attributes it to `SetStats`
    /// — there is no `AllocDelta` here since subset tests never
    /// allocate). A batch stops at its first failing pair, so the tally
    /// stays kernel-independent.
    pub fn subset_of(&self, other: &Chunked, k: Kernel) -> (bool, u64) {
        const ZERO: ChunkWords = [0u64; CHUNK_WORDS];
        let mut kops = 0u64;
        if self.count > other.count {
            return (false, kops);
        }
        let nwords = self.words_len();
        let nchunks = nwords.div_ceil(CHUNK_WORDS);
        let mut batch = [(&ZERO, &ZERO); SUBSET_BATCH];
        let mut blen = 0usize;
        for ci in 0..nchunks {
            self.prefetch_next(other, ci, nchunks);
            if !self.tail_touches_chunk(ci) && !other.tail_touches_chunk(ci) {
                match (self.dir_chunk(ci), other.dir_chunk(ci)) {
                    (None, _) => continue,
                    (Some(x), Some(y)) if Arc::ptr_eq(x, y) => continue,
                    (Some(x), Some(y)) => {
                        batch[blen] = (&x.words, &y.words);
                        blen += 1;
                        if blen == SUBSET_BATCH {
                            let (ok, tested) = k.subset512_many(&batch[..blen]);
                            kops += tested;
                            if !ok {
                                return (false, kops);
                            }
                            blen = 0;
                        }
                        continue;
                    }
                    (Some(x), None) => {
                        // `other` has no bits in this chunk at all.
                        if x.ones != 0 {
                            return (false, kops);
                        }
                        continue;
                    }
                }
            }
            for wo in 0..CHUNK_WORDS {
                let wi = ci * CHUNK_WORDS + wo;
                if wi >= nwords {
                    break;
                }
                if self.word_at(wi) & !other.word_at(wi) != 0 {
                    return (false, kops);
                }
            }
        }
        let (ok, tested) = k.subset512_many(&batch[..blen]);
        kops += tested;
        (ok, kops)
    }

    /// Unified allocation delta of `a.absorb(b)` style merges (test aid).
    pub fn combine_deltas(a: AllocDelta, b: AllocDelta) -> AllocDelta {
        let mut out = a;
        out.absorb(b);
        out
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

    fn k() -> Kernel {
        Kernel::default()
    }

    #[test]
    fn tail_buffer_defers_allocation() {
        let (mut c, _) = Chunked::from_ids(&[1, 600], k());
        for i in 0..TAIL_CAP as u32 {
            let (next, d) = c.with(10_000 + i, k());
            assert_eq!(d.fresh_bytes, 0, "tail insert {i} must be alloc-free");
            c = next;
        }
        // Tail full: the next insert flushes into a rebuilt directory.
        let (flushed, d) = c.with(42, k());
        assert!(d.fresh_bytes > 0);
        assert!(d.chunks_shared >= 1, "untouched chunks must be shared");
        assert_eq!(flushed.len(), 2 + TAIL_CAP as u32 + 1);
        assert!(flushed.contains(42) && flushed.contains(600) && flushed.contains(10_003));
    }

    #[test]
    fn union_shares_equal_chunks() {
        let (a, _) = Chunked::from_ids(&(0..512).collect::<Vec<_>>(), k());
        let (b, _) = a.with(9000, k());
        let (b, _) = b.with_ids(&[], k()); // flush the tail
        let (u, d) = a.union(&b, k());
        assert_eq!(u.len(), 513);
        assert!(d.chunks_shared >= 1, "chunk 0 is identical on both sides");
        assert!(a.subset_of(&u, k()).0 && b.subset_of(&u, k()).0);
        assert!(!u.subset_of(&a, k()).0);
    }

    #[test]
    fn subset_respects_tail_bits() {
        let (a, _) = Chunked::from_ids(&[5], k());
        let (b, _) = a.with(700, k()); // 700 lives in b's tail
        assert!(a.subset_of(&b, k()).0);
        assert!(!b.subset_of(&a, k()).0);
        assert_eq!(ids(&b), vec![5, 700]);
    }

    #[test]
    fn from_ids_roundtrip() {
        let input: Vec<u32> = vec![0, 63, 64, 511, 512, 513, 4096];
        let (c, _) = Chunked::from_ids(&input, k());
        assert_eq!(ids(&c), input);
        assert_eq!(c.len(), input.len() as u32);
        for &i in &input {
            assert!(c.contains(i));
        }
        assert!(!c.contains(1) && !c.contains(4097));
    }

    #[test]
    fn kernel_op_tallies_match_across_kernels() {
        let mut variants = vec![Kernel::Scalar];
        let auto = Kernel::default();
        if auto != Kernel::Scalar {
            variants.push(auto);
        }
        let ids_a: Vec<u32> = (0..2048).step_by(3).collect();
        let ids_b: Vec<u32> = (1..2048).step_by(5).collect();
        let baseline: Vec<u64> = {
            let kk = Kernel::Scalar;
            let (a, da) = Chunked::from_ids(&ids_a, kk);
            let (b, db) = Chunked::from_ids(&ids_b, kk);
            let (_, du) = a.union(&b, kk);
            let (_, s1) = a.subset_of(&b, kk);
            let (_, s2) = b.subset_of(&a, kk);
            vec![da.kernel_ops, db.kernel_ops, du.kernel_ops, s1, s2]
        };
        for kk in variants {
            let (a, da) = Chunked::from_ids(&ids_a, kk);
            let (b, db) = Chunked::from_ids(&ids_b, kk);
            let (u, du) = a.union(&b, kk);
            let (sub1, s1) = a.subset_of(&b, kk);
            let (sub2, s2) = b.subset_of(&a, kk);
            assert!(!sub1 && !sub2);
            assert!(a.subset_of(&u, kk).0 && b.subset_of(&u, kk).0);
            assert_eq!(
                vec![da.kernel_ops, db.kernel_ops, du.kernel_ops, s1, s2],
                baseline,
                "kernel_ops must be kernel-independent ({kk:?})"
            );
            assert!(du.kernel_ops > 0, "union of mixed chunks uses kernels");
        }
    }
}
