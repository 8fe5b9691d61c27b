//! 512-bit chunk kernels — the inner loops of the
//! [`FutureSet`](crate::bitmap::FutureSet) chunk directory.
//!
//! A chunk is exactly 512 bits (`[u64; 8]`), one cache line. Every
//! chunk-wide primitive — subset test ([`subset512`]), popcount
//! ([`popcnt512`]), the fused merge step ([`merge512`]) and sorted-id
//! insertion ([`set_bits512`]) — is a plain 8-lane loop that inlines into
//! its caller and that LLVM vectorizes to whatever the build target offers.
//! There is one implementation of each: a hand-written AVX2 arm ran beside
//! these until PR 18 and never moved an end-to-end number (a gated run
//! performs at most a few hundred chunk merges; DESIGN.md §14).

use crate::bitmap::CHUNK_WORDS;

/// One chunk's payload: 512 bits as eight 64-bit lanes.
pub type ChunkWords = [u64; CHUNK_WORDS];

/// Result of a fused chunk merge ([`merge512`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge512 {
    /// `a | b == a`: the left chunk already holds the union (also the
    /// verdict when `a == b`).
    Left,
    /// `a | b == b` and `b != a`: the right chunk holds the union.
    Right,
    /// Genuinely mixed: the fresh union words.
    Fresh(ChunkWords),
}

/// `sub ⊆ sup` over the whole chunk (no early exit — one pass of and-not
/// lanes folded to a single zero test beats a branchy loop).
#[inline]
pub fn subset512(sub: &ChunkWords, sup: &ChunkWords) -> bool {
    let mut acc = 0u64;
    for (a, b) in sub.iter().zip(sup.iter()) {
        acc |= a & !b;
    }
    acc == 0
}

/// Chunk population count.
#[inline]
pub fn popcnt512(a: &ChunkWords) -> u32 {
    a.iter().map(|w| w.count_ones()).sum()
}

/// Fused union step for the copy-on-write merge path: computes `a | b`
/// and detects collapse onto either input in one pass over the lanes.
#[inline]
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
    Merge512::Fresh(out)
}

/// OR sorted absolute ids into a chunk based at `base`, one *word* at a
/// time: ids landing in the same 64-bit lane are folded into a single
/// mask before the store instead of one read-modify-write per id.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Bit `i` of a chunk, the naive way.
    fn bit(c: &ChunkWords, i: u32) -> bool {
        c[i as usize / 64] >> (i % 64) & 1 == 1
    }

    /// `a | b` one bit at a time.
    fn naive_union(a: &ChunkWords, b: &ChunkWords) -> ChunkWords {
        let mut out = [0u64; CHUNK_WORDS];
        for i in (0..512u32).filter(|&i| bit(a, i) || bit(b, i)) {
            out[i as usize / 64] |= 1 << (i % 64);
        }
        out
    }

    #[test]
    fn kernels_agree_on_primitives() {
        for seed in 0..64u64 {
            let a = sample(seed);
            let b = sample(seed.wrapping_mul(31).wrapping_add(7));
            let sup = naive_union(&a, &b);
            assert!(subset512(&a, &sup), "subset512 seed {seed}");
            assert!(subset512(&a, &a));
            assert_eq!(
                subset512(&sup, &a),
                (0..512).all(|i| !bit(&sup, i) || bit(&a, i)),
                "subset512 reverse seed {seed}"
            );
            assert_eq!(
                popcnt512(&a),
                (0..512).filter(|&i| bit(&a, i)).count() as u32
            );
        }
    }

    #[test]
    fn merge512_collapses_and_counts() {
        for seed in 0..64u64 {
            let a = sample(seed);
            let b = sample(seed.wrapping_mul(31).wrapping_add(7));
            let sup = naive_union(&a, &b);
            // Random chunks never contain each other, so the plain merge
            // is fresh with the exact union.
            assert_eq!(merge512(&a, &b), Merge512::Fresh(sup), "fresh seed {seed}");
            // A side already holding the union collapses onto it; equal
            // inputs report `Left`.
            assert_eq!(merge512(&sup, &a), Merge512::Left, "seed {seed}");
            assert_eq!(merge512(&a, &sup), Merge512::Right, "seed {seed}");
            assert_eq!(merge512(&a, &a), Merge512::Left, "seed {seed}");
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

        /// `set_bits512` matches per-id read-modify-write inserts for any
        /// sorted id run.
        #[test]
        fn set_bits512_agrees_with_naive(codes in proptest::collection::vec(any::<u64>(), 1..64)) {
            let base = (codes[0] % 8) as u32 * 512;
            let mut offs: Vec<u32> = codes[1..].iter().map(|c| (c % 512) as u32).collect();
            offs.sort_unstable();
            offs.dedup();
            let ids: Vec<u32> = offs.iter().map(|o| base + o).collect();
            let mut via_kernel = sample(codes[0]);
            let mut via_loop = via_kernel;
            set_bits512(&mut via_kernel, &ids, base);
            for &id in &ids {
                let b = (id - base) as usize;
                via_loop[b / 64] |= 1 << (b % 64);
            }
            prop_assert_eq!(via_kernel, via_loop);
        }
    }
}
