//! 512-bit chunk kernels — the vectorized inner loops of the chunked
//! [`FutureSet`](crate::bitmap::FutureSet) tier.
//!
//! A [`Chunk`](crate::chunked::Chunk) is exactly 512 bits (`[u64; 8]`),
//! one cache line: the natural unit for SIMD. Every chunk-wide primitive
//! — union ([`Kernel::or_into`]/[`Kernel::or512`]), subset test
//! ([`Kernel::subset512`]), equality ([`Kernel::eq512`]), popcount
//! ([`Kernel::popcnt512`]), the fused merge step ([`Kernel::merge512`])
//! and set-bit iteration ([`Kernel::iter_set_bits`]) — is implemented
//! twice:
//!
//! * a **scalar** fallback written as a plain 8-lane `[u64; 8]` loop that
//!   LLVM autovectorizes to whatever the build target offers (SSE2 on the
//!   default `x86-64`, AVX2 under `-C target-cpu=x86-64-v3`);
//! * an **AVX2** path using `std::arch::x86_64` intrinsics (two 256-bit
//!   ops per chunk), compiled with `#[target_feature(enable = "avx2")]`
//!   so it is vector code even on the default target.
//!
//! Dispatch is resolved **once**, by the code rather than by the user:
//! [`Kernel::default`] picks the AVX2 path when one-time runtime feature
//! detection (`is_x86_feature_detected!`, cached in an atomic) finds it,
//! and the scalar loops otherwise — they are the only path on a CPU
//! without AVX2. The resolved `Kernel` is a `Copy` byte stored in the
//! engine's [`SetStats`](crate::bitmap::SetStats), so the hot loops branch
//! on a register value and never re-detect; the differential suites pin
//! [`Kernel::Scalar`] on one engine to check it against the detected one.
//!
//! One primitive intentionally shares a single implementation across
//! kernels: `iter_set_bits` — bit extraction is a serial
//! `trailing_zeros`/clear-lowest loop either way; there is no AVX2
//! compress instruction to beat it with. It still dispatches through
//! [`Kernel`] so call counting stays uniform. `popcnt512`, by contrast,
//! gets a real AVX2 path (`vpshufb` nibble lookup folded with
//! `vpsadbw`): the default `x86-64` target predates the `POPCNT`
//! instruction, so the scalar `count_ones` loop compiles to a ~12-op
//! software popcount per lane and the table kernel beats it by a wide
//! margin.
//!
//! **Granularity.** A `#[target_feature]` function cannot be inlined
//! into callers built without that feature, so on the default target
//! every AVX2 primitive costs a real call while the scalar lane loop
//! inlines and autovectorizes in place — for a 64-byte chunk the call
//! overhead eats the vector win (the `reach/kernel_*` bench rows show
//! this directly). The cure is the one every production SIMD library
//! uses: move the *loop* inside the feature boundary, or fuse the
//! pipeline so one call does several primitives' work on registers
//! loaded once. [`Kernel::subset512_many`] is the batch entry point —
//! one dispatch amortized over a whole gathered run of chunk pairs,
//! fed by `Chunked::subset_of` — and [`Kernel::merge512`] is the fused
//! one: the union-path ladder of or → two collapse probes → popcount
//! collapses into a single dispatch for `Chunked::union`.
//!
//! Counting: callers tally one *kernel op* per 512-bit primitive
//! invocation (see [`AllocDelta::kernel_ops`](crate::chunked::AllocDelta)
//! and `SetStats::note_kernel_ops`). Because both kernels compute
//! bit-identical results, control flow — and therefore the op count — is
//! kernel-independent; only *which* counter (`kernel_simd_calls` vs
//! `kernel_scalar_calls`) absorbs the tally differs. That is the parity
//! invariant `tests/kernel_differential.rs` checks.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::chunked::CHUNK_WORDS;

/// One chunk's payload: 512 bits as eight 64-bit lanes.
pub type ChunkWords = [u64; CHUNK_WORDS];

/// Result of a fused chunk merge ([`Kernel::merge512`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge512 {
    /// `a | b == a`: the left chunk already holds the union (also the
    /// verdict when `a == b`, matching the old probe order).
    Left,
    /// `a | b == b` and `b != a`: the right chunk holds the union.
    Right,
    /// Genuinely mixed: the fresh union words and their popcount.
    Fresh(ChunkWords, u32),
}

/// A concrete kernel. `Default` is the best one the running CPU supports
/// (AVX2 when detected, else scalar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Autovectorizable scalar lane loops.
    Scalar,
    /// 256-bit `std::arch` intrinsics (x86_64 with AVX2 only).
    Avx2,
}

impl Default for Kernel {
    fn default() -> Self {
        detected()
    }
}

/// Cached runtime detection: 0 = unknown, 1 = scalar, 2 = AVX2.
fn detected() -> Kernel {
    static DETECTED: AtomicU8 = AtomicU8::new(0);
    match DETECTED.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Avx2,
        _ => {
            let k = if avx2_available() {
                Kernel::Avx2
            } else {
                Kernel::Scalar
            };
            DETECTED.store(
                match k {
                    Kernel::Scalar => 1,
                    Kernel::Avx2 => 2,
                },
                Ordering::Relaxed,
            );
            k
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

impl Kernel {
    /// True for vector paths (drives the `kernel_simd_calls` counter).
    #[inline]
    pub fn is_simd(self) -> bool {
        matches!(self, Kernel::Avx2)
    }

    /// Short label for bench rows and ablation tables.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// `dst |= src`, lane-wise over the whole chunk.
    #[inline]
    pub fn or_into(self, dst: &mut ChunkWords, src: &ChunkWords) {
        match self {
            Kernel::Scalar => scalar::or_into(dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only ever constructed by
            // `detected()` after `is_x86_feature_detected!("avx2")`.
            Kernel::Avx2 => unsafe { avx2::or_into(dst, src) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => scalar::or_into(dst, src),
        }
    }

    /// `a | b` as a fresh chunk payload.
    #[inline]
    pub fn or512(self, a: &ChunkWords, b: &ChunkWords) -> ChunkWords {
        let mut out = *a;
        self.or_into(&mut out, b);
        out
    }

    /// `sub ⊆ sup` over the whole chunk (no early exit — one pass of
    /// and-not lanes folded to a single zero test beats a branchy loop).
    #[inline]
    pub fn subset512(self, sub: &ChunkWords, sup: &ChunkWords) -> bool {
        match self {
            Kernel::Scalar => scalar::subset512(sub, sup),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `or_into` — AVX2 presence established once.
            Kernel::Avx2 => unsafe { avx2::subset512(sub, sup) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => scalar::subset512(sub, sup),
        }
    }

    /// Chunk payload equality.
    #[inline]
    pub fn eq512(self, a: &ChunkWords, b: &ChunkWords) -> bool {
        match self {
            Kernel::Scalar => scalar::eq512(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `or_into`.
            Kernel::Avx2 => unsafe { avx2::eq512(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => scalar::eq512(a, b),
        }
    }

    /// `sub ⊆ sup` for each pair **in order**. Returns `(all_ok,
    /// tested)`: on the first failing pair the scan stops with `tested`
    /// = its index + 1; on success `tested == pairs.len()`. Each tested
    /// pair is one 512-bit kernel op — callers add `tested` to their
    /// tally. The whole scan is a single dispatch: the AVX2 arm loops
    /// *inside* the `#[target_feature]` boundary, so the per-call
    /// overhead that dominates single-chunk `subset512` on the default
    /// target is paid once per batch (see module docs on granularity).
    #[inline]
    pub fn subset512_many(self, pairs: &[(&ChunkWords, &ChunkWords)]) -> (bool, u64) {
        match self {
            Kernel::Scalar => scalar::subset512_many(pairs),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `or_into` — AVX2 presence established once.
            Kernel::Avx2 => unsafe { avx2::subset512_many(pairs) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => scalar::subset512_many(pairs),
        }
    }

    /// Chunk population count. The scalar arm is a `count_ones` lane
    /// loop; the AVX2 arm is a `vpshufb` nibble-table sum (see module
    /// docs — the default target has no `POPCNT` instruction to lean
    /// on).
    #[inline]
    pub fn popcnt512(self, a: &ChunkWords) -> u32 {
        match self {
            Kernel::Scalar => scalar::popcnt512(a),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `or_into`.
            Kernel::Avx2 => unsafe { avx2::popcnt512(a) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => scalar::popcnt512(a),
        }
    }

    /// Fused union step for the copy-on-write merge path: computes
    /// `a | b`, detects collapse onto either input, and popcounts the
    /// fresh words — all in one dispatch. The unfused ladder (`or512`,
    /// two `eq512` probes, `popcnt512`) costs up to four non-inlinable
    /// calls per merged chunk on the AVX2 kernel (see module docs on
    /// granularity); here the collapse probes and the nibble-table
    /// popcount run on the two registers already holding the union, so
    /// the chunk is loaded once instead of up to four times. The
    /// popcount is only computed on the `Fresh` path — collapsed chunks
    /// reuse their cached count, exactly as the unfused ladder did.
    /// One invocation is one kernel op.
    #[inline]
    pub fn merge512(self, a: &ChunkWords, b: &ChunkWords) -> Merge512 {
        match self {
            Kernel::Scalar => scalar::merge512(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `or_into`.
            Kernel::Avx2 => unsafe { avx2::merge512(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => scalar::merge512(a, b),
        }
    }

    /// Call `f(base + bit)` for every set bit, ascending (shared
    /// implementation — see module docs).
    #[inline]
    pub fn iter_set_bits(self, words: &ChunkWords, base: u32, mut f: impl FnMut(u32)) {
        for (wi, &w) in words.iter().enumerate() {
            let mut cur = w;
            while cur != 0 {
                f(base + wi as u32 * 64 + cur.trailing_zeros());
                cur &= cur - 1;
            }
        }
    }
}

/// OR sorted absolute ids into a chunk based at `base`, one *word* at a
/// time: ids landing in the same 64-bit lane are folded into a single
/// mask before the store, replacing the per-id read-modify-write loop the
/// sparse/tail merge used to run.
#[inline]
pub fn set_bits512(words: &mut ChunkWords, ids: &[u32], base: u32) {
    let mut i = 0;
    while i < ids.len() {
        let off = ids[i] - base;
        let wi = (off / 64) as usize;
        let mut mask = 0u64;
        while i < ids.len() {
            let off = ids[i] - base;
            if (off / 64) as usize != wi {
                break;
            }
            mask |= 1 << (off % 64);
            i += 1;
        }
        words[wi] |= mask;
    }
}

/// Best-effort software prefetch of the cache line at `p` (T0 hint on
/// x86_64, no-op elsewhere). Safe for any address: prefetch never faults.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally defined to be safe on any
    // address, mapped or not.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

mod scalar {
    use super::{ChunkWords, Merge512};

    #[inline]
    pub fn or_into(dst: &mut ChunkWords, src: &ChunkWords) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d |= s;
        }
    }

    #[inline]
    pub fn subset512(sub: &ChunkWords, sup: &ChunkWords) -> bool {
        let mut acc = 0u64;
        for (a, b) in sub.iter().zip(sup.iter()) {
            acc |= a & !b;
        }
        acc == 0
    }

    #[inline]
    pub fn eq512(a: &ChunkWords, b: &ChunkWords) -> bool {
        let mut acc = 0u64;
        for (x, y) in a.iter().zip(b.iter()) {
            acc |= x ^ y;
        }
        acc == 0
    }

    #[inline]
    pub fn popcnt512(a: &ChunkWords) -> u32 {
        let mut n = 0u32;
        for &w in a {
            n += w.count_ones();
        }
        n
    }

    pub fn subset512_many(pairs: &[(&ChunkWords, &ChunkWords)]) -> (bool, u64) {
        for (i, (sub, sup)) in pairs.iter().enumerate() {
            if !subset512(sub, sup) {
                return (false, i as u64 + 1);
            }
        }
        (true, pairs.len() as u64)
    }

    pub fn merge512(a: &ChunkWords, b: &ChunkWords) -> Merge512 {
        let mut out = *a;
        let (mut grew_a, mut grew_b) = (false, false);
        for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b.iter())) {
            let u = x | y;
            grew_a |= u != x;
            grew_b |= u != y;
            *o = u;
        }
        if !grew_a {
            return Merge512::Left;
        }
        if !grew_b {
            return Merge512::Right;
        }
        // Popcount only on the fresh path: collapsed chunks keep their
        // cached `ones`, so counting them here would be pure waste.
        Merge512::Fresh(out, popcnt512(&out))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{ChunkWords, Merge512};
    use std::arch::x86_64::*;

    // All loads are unaligned (`loadu`): chunk payloads live inside
    // `Arc<Chunk>` allocations with only 8-byte alignment guaranteed.
    // On every AVX2 part `vmovdqu` on an aligned address costs the same
    // as `vmovdqa`, so nothing is lost when allocations happen to align.

    #[target_feature(enable = "avx2")]
    pub unsafe fn or_into(dst: &mut ChunkWords, src: &ChunkWords) {
        let d = dst.as_mut_ptr() as *mut __m256i;
        let s = src.as_ptr() as *const __m256i;
        let lo = _mm256_or_si256(
            _mm256_loadu_si256(d as *const __m256i),
            _mm256_loadu_si256(s),
        );
        let hi = _mm256_or_si256(
            _mm256_loadu_si256(d.add(1) as *const __m256i),
            _mm256_loadu_si256(s.add(1)),
        );
        _mm256_storeu_si256(d, lo);
        _mm256_storeu_si256(d.add(1), hi);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn subset512(sub: &ChunkWords, sup: &ChunkWords) -> bool {
        let a = sub.as_ptr() as *const __m256i;
        let b = sup.as_ptr() as *const __m256i;
        // andnot(x, y) = !x & y, so andnot(sup, sub) = sub & !sup: the
        // bits of `sub` missing from `sup`.
        let lo = _mm256_andnot_si256(_mm256_loadu_si256(b), _mm256_loadu_si256(a));
        let hi = _mm256_andnot_si256(_mm256_loadu_si256(b.add(1)), _mm256_loadu_si256(a.add(1)));
        let any = _mm256_or_si256(lo, hi);
        _mm256_testz_si256(any, any) == 1
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn eq512(a: &ChunkWords, b: &ChunkWords) -> bool {
        let pa = a.as_ptr() as *const __m256i;
        let pb = b.as_ptr() as *const __m256i;
        let lo = _mm256_xor_si256(_mm256_loadu_si256(pa), _mm256_loadu_si256(pb));
        let hi = _mm256_xor_si256(_mm256_loadu_si256(pa.add(1)), _mm256_loadu_si256(pb.add(1)));
        let any = _mm256_or_si256(lo, hi);
        _mm256_testz_si256(any, any) == 1
    }

    /// Nibble-table popcount (Muła) of a chunk held in two registers:
    /// split each byte into two 4-bit halves, look both up in a
    /// 16-entry bit-count table with `vpshufb`, then fold the 32
    /// byte-counts to quadword sums with `vpsadbw` against zero.
    /// Register-input so `merge512` can count the union it just
    /// computed without a round-trip through memory.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_halves(v0: __m256i, v1: __m256i) -> u32 {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        for v in [v0, v1] {
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
            let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
        }
        let s = _mm_add_epi64(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si64(s) as u32
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn popcnt512(a: &ChunkWords) -> u32 {
        let p = a.as_ptr() as *const __m256i;
        popcnt_halves(_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)))
    }

    /// Fused merge: or, both collapse probes, and (only when fresh) the
    /// popcount — all on registers loaded once. `o = a | b` always
    /// covers `a`, so `o == a` reduces to `testz(o ^ a)`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn merge512(a: &ChunkWords, b: &ChunkWords) -> Merge512 {
        let pa = a.as_ptr() as *const __m256i;
        let pb = b.as_ptr() as *const __m256i;
        let a0 = _mm256_loadu_si256(pa);
        let a1 = _mm256_loadu_si256(pa.add(1));
        let b0 = _mm256_loadu_si256(pb);
        let b1 = _mm256_loadu_si256(pb.add(1));
        let o0 = _mm256_or_si256(a0, b0);
        let o1 = _mm256_or_si256(a1, b1);
        let da = _mm256_or_si256(_mm256_xor_si256(o0, a0), _mm256_xor_si256(o1, a1));
        if _mm256_testz_si256(da, da) == 1 {
            return Merge512::Left;
        }
        let db = _mm256_or_si256(_mm256_xor_si256(o0, b0), _mm256_xor_si256(o1, b1));
        if _mm256_testz_si256(db, db) == 1 {
            return Merge512::Right;
        }
        let mut out = ChunkWords::default();
        let po = out.as_mut_ptr() as *mut __m256i;
        _mm256_storeu_si256(po, o0);
        _mm256_storeu_si256(po.add(1), o1);
        Merge512::Fresh(out, popcnt_halves(o0, o1))
    }

    /// The bits of `sub` missing from `sup`, as one 256-bit OR-fold.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn missing512(sub: &ChunkWords, sup: &ChunkWords) -> __m256i {
        let a = sub.as_ptr() as *const __m256i;
        let b = sup.as_ptr() as *const __m256i;
        // andnot(x, y) = !x & y, so andnot(sup, sub) = sub & !sup.
        let lo = _mm256_andnot_si256(_mm256_loadu_si256(b), _mm256_loadu_si256(a));
        let hi = _mm256_andnot_si256(_mm256_loadu_si256(b.add(1)), _mm256_loadu_si256(a.add(1)));
        _mm256_or_si256(lo, hi)
    }

    /// Batched subset scan: the whole pair loop lives inside the AVX2
    /// boundary so the non-inlinable-call cost is paid once per batch,
    /// not once per chunk, and the steady-state loop tests **four pairs
    /// per `vptest`** — the per-pair test-and-branch chain is what
    /// limits the one-at-a-time form. On a failing block it re-examines
    /// the four miss vectors to report the first failing pair, so the
    /// `(ok, tested)` result is determined by chunk *contents* alone
    /// and the kernel-op tally stays kernel-independent, exactly as in
    /// the scalar arm's pair-at-a-time early exit.
    #[target_feature(enable = "avx2")]
    pub unsafe fn subset512_many(pairs: &[(&ChunkWords, &ChunkWords)]) -> (bool, u64) {
        let mut blocks = pairs.chunks_exact(4);
        for (bi, block) in blocks.by_ref().enumerate() {
            let m0 = missing512(block[0].0, block[0].1);
            let m1 = missing512(block[1].0, block[1].1);
            let m2 = missing512(block[2].0, block[2].1);
            let m3 = missing512(block[3].0, block[3].1);
            let any = _mm256_or_si256(_mm256_or_si256(m0, m1), _mm256_or_si256(m2, m3));
            if _mm256_testz_si256(any, any) == 0 {
                for (j, m) in [m0, m1, m2, m3].into_iter().enumerate() {
                    if _mm256_testz_si256(m, m) == 0 {
                        return (false, (bi * 4 + j) as u64 + 1);
                    }
                }
            }
        }
        let head = pairs.len() - blocks.remainder().len();
        for (i, (sub, sup)) in blocks.remainder().iter().enumerate() {
            let m = missing512(sub, sup);
            if _mm256_testz_si256(m, m) == 0 {
                return (false, (head + i) as u64 + 1);
            }
        }
        (true, pairs.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Kernel> {
        let mut v = vec![Kernel::Scalar];
        if Kernel::default() != Kernel::Scalar {
            v.push(Kernel::default());
        }
        v
    }

    fn sample(seed: u64) -> ChunkWords {
        // SplitMix64: deterministic, fills all lanes with varied bits.
        let mut s = seed;
        let mut out = [0u64; CHUNK_WORDS];
        for w in &mut out {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *w = z ^ (z >> 31);
        }
        out
    }

    #[test]
    fn kernels_agree_on_primitives() {
        for seed in 0..64u64 {
            let a = sample(seed);
            let b = sample(seed.wrapping_mul(31).wrapping_add(7));
            let sup = Kernel::Scalar.or512(&a, &b);
            for k in kernels() {
                assert_eq!(k.or512(&a, &b), sup, "{k:?} or512 seed {seed}");
                assert!(k.subset512(&a, &sup), "{k:?} subset512 seed {seed}");
                assert_eq!(
                    k.subset512(&sup, &a),
                    sup == a,
                    "{k:?} subset512 reverse seed {seed}"
                );
                assert!(k.eq512(&a, &a) && k.eq512(&sup, &sup));
                assert_eq!(k.eq512(&a, &b), a == b, "{k:?} eq512 seed {seed}");
                assert_eq!(
                    k.popcnt512(&a),
                    a.iter().map(|w| w.count_ones()).sum::<u32>()
                );
                let mut got = Vec::new();
                k.iter_set_bits(&a, 1024, |id| got.push(id));
                let want: Vec<u32> = (0..512u32)
                    .filter(|&i| a[i as usize / 64] >> (i % 64) & 1 == 1)
                    .map(|i| 1024 + i)
                    .collect();
                assert_eq!(got, want, "{k:?} iter_set_bits seed {seed}");
            }
        }
    }

    #[test]
    fn subset512_many_early_exits_identically() {
        let chunks: Vec<ChunkWords> = (0..16).map(sample).collect();
        let sups: Vec<ChunkWords> = chunks
            .iter()
            .map(|c| Kernel::Scalar.or512(c, &sample(99)))
            .collect();
        // All-pass batch, then batches failing at every possible index.
        for fail_at in 0..=chunks.len() {
            let pairs: Vec<(&ChunkWords, &ChunkWords)> = chunks
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    // Pair `fail_at` flips sub/sup so it fails (the
                    // superset strictly grows — bits are missing).
                    if i == fail_at {
                        (&sups[i], c)
                    } else {
                        (c, &sups[i])
                    }
                })
                .collect();
            let want = if fail_at < chunks.len() {
                (false, fail_at as u64 + 1)
            } else {
                (true, chunks.len() as u64)
            };
            for k in kernels() {
                assert_eq!(k.subset512_many(&pairs), want, "{k:?} fail_at {fail_at}");
            }
            assert_eq!(Kernel::Scalar.subset512_many(&[]), (true, 0));
        }
    }

    #[test]
    fn merge512_collapses_and_counts() {
        for seed in 0..64u64 {
            let a = sample(seed);
            let b = sample(seed.wrapping_mul(31).wrapping_add(7));
            let sup = Kernel::Scalar.or512(&a, &b);
            let ones = sup.iter().map(|w| w.count_ones()).sum::<u32>();
            for k in kernels() {
                // Random chunks never contain each other, so the plain
                // merge is fresh with the exact union and popcount.
                assert_eq!(
                    k.merge512(&a, &b),
                    Merge512::Fresh(sup, ones),
                    "{k:?} fresh seed {seed}"
                );
                // A side already holding the union collapses onto it;
                // equal inputs report `Left` (the probe order callers
                // relied on before fusion).
                assert_eq!(k.merge512(&sup, &a), Merge512::Left, "{k:?} seed {seed}");
                assert_eq!(k.merge512(&a, &sup), Merge512::Right, "{k:?} seed {seed}");
                assert_eq!(k.merge512(&a, &a), Merge512::Left, "{k:?} seed {seed}");
            }
        }
    }

    #[test]
    fn set_bits512_matches_per_id_inserts() {
        let base = 512u32;
        let ids = [512u32, 513, 575, 576, 700, 1000, 1023];
        let mut via_kernel = sample(3);
        let mut via_loop = via_kernel;
        set_bits512(&mut via_kernel, &ids, base);
        for &id in &ids {
            let b = (id - base) as usize;
            via_loop[b / 64] |= 1 << (b % 64);
        }
        assert_eq!(via_kernel, via_loop);
    }

    #[test]
    fn detection_resolves_consistently() {
        let first = Kernel::default();
        for _ in 0..4 {
            assert_eq!(Kernel::default(), first);
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(first, Kernel::Avx2);
        }
    }
}
