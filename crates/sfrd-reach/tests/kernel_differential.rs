//! Differential property tests: the scalar 512-bit chunk kernels against
//! the detected (SIMD when available) kernels.
//!
//! Three layers, each asserting **bit-identical results** and — where an
//! engine is involved — **identical `SetStats` counters**:
//!
//! * raw chunk primitives (`or512` / `subset512` / `eq512` / `popcnt512`
//!   / `merge512` / `iter_set_bits` / `set_bits512`) on arbitrary lane
//!   payloads;
//! * `FutureSet` operation sequences (`with` / `union` / `merge` /
//!   `is_subset`) driven through two engines pinned to different kernels:
//!   same sets, same allocation/merge/tier/sharing counters, and the same
//!   *total* kernel-op tally — only which counter absorbs it differs
//!   (`kernel_scalar_calls` vs `kernel_simd_calls`, the counting-parity
//!   invariant documented in `kernels.rs`);
//! * lockstep `SfReach` engines (`with_kernel(Kernel::Scalar)` vs
//!   `with_kernel(Kernel::default())`): identical reachability verdicts,
//!   retained `gp` sets, and stats.
//!
//! On hardware without AVX2 the detected side resolves to Scalar and every
//! property holds trivially; the suites stay meaningful either way.

use std::sync::Arc;

use proptest::prelude::*;
use sfrd_dag::FutureId;
use sfrd_reach::bitmap::{merge, FutureSet, SetStats, SetStatsSnapshot};
use sfrd_reach::kernels::{set_bits512, ChunkWords};
use sfrd_reach::{Kernel, SfReach, SfStrand};

fn ids(set: &FutureSet) -> Vec<u32> {
    set.iter().map(|f| f.index() as u32).collect()
}

/// SplitMix64 expansion of one seed into a full chunk payload.
fn chunk_from(seed: u64) -> ChunkWords {
    let mut s = seed;
    let mut out = [0u64; 8];
    for w in &mut out {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *w = z ^ (z >> 31);
    }
    out
}

/// The parity assertion shared by the engine-level suites: everything but
/// the kernel-call split must match, and the *sum* of the split must
/// match too.
fn assert_stats_parity(s: &SetStatsSnapshot, a: &SetStatsSnapshot) {
    assert_eq!(s.allocations, a.allocations, "allocations diverge");
    assert_eq!(s.bytes, a.bytes, "bytes diverge");
    assert_eq!(s.merges, a.merges, "merges diverge");
    assert_eq!(s.tier_inline, a.tier_inline);
    assert_eq!(s.tier_sparse, a.tier_sparse);
    assert_eq!(s.tier_chunked, a.tier_chunked);
    assert_eq!(s.chunks_shared, a.chunks_shared);
    assert_eq!(s.chunks_copied, a.chunks_copied);
    assert_eq!(s.lineage_hits, a.lineage_hits);
    assert_eq!(
        s.kernel_simd_calls + s.kernel_scalar_calls,
        a.kernel_simd_calls + a.kernel_scalar_calls,
        "total kernel-op tallies diverge"
    );
    // A Scalar-pinned engine must never touch the SIMD counter; an
    // engine on a detected vector kernel must never touch the scalar one.
    assert_eq!(s.kernel_simd_calls, 0, "scalar engine counted SIMD calls");
    if Kernel::default() != Kernel::Scalar {
        assert_eq!(a.kernel_scalar_calls, 0, "simd engine counted scalar calls");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

    /// Raw primitives agree bit-for-bit on arbitrary payloads.
    #[test]
    fn chunk_primitives_agree(seeds in proptest::collection::vec(any::<u64>(), 1..32)) {
        let scalar = Kernel::Scalar;
        let auto = Kernel::default();
        for &seed in &seeds {
            let a = chunk_from(seed);
            let b = chunk_from(seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1));

            prop_assert_eq!(scalar.or512(&a, &b), auto.or512(&a, &b));
            let mut acc_s = a;
            let mut acc_a = a;
            scalar.or_into(&mut acc_s, &b);
            auto.or_into(&mut acc_a, &b);
            prop_assert_eq!(acc_s, acc_a);

            let sup = scalar.or512(&a, &b);
            for (x, y) in [(&a, &b), (&a, &sup), (&sup, &a), (&b, &sup), (&a, &a)] {
                prop_assert_eq!(scalar.subset512(x, y), auto.subset512(x, y));
                prop_assert_eq!(scalar.eq512(x, y), auto.eq512(x, y));
            }
            prop_assert!(auto.subset512(&a, &sup) && auto.subset512(&b, &sup));
            prop_assert_eq!(scalar.popcnt512(&a), auto.popcnt512(&a));
            prop_assert_eq!(
                scalar.popcnt512(&a),
                a.iter().map(|w| w.count_ones()).sum::<u32>()
            );

            // The batched subset scan: same verdict AND same
            // tested-pair count (the early-exit index) on mixed
            // pass/fail batches.
            let pairs: Vec<(&ChunkWords, &ChunkWords)> =
                vec![(&a, &sup), (&b, &sup), (&a, &b), (&sup, &a), (&b, &a)];
            prop_assert_eq!(
                scalar.subset512_many(&pairs),
                auto.subset512_many(&pairs)
            );

            // The fused merge: identical collapse verdicts and, on the
            // fresh path, identical union words and popcount.
            for (x, y) in [(&a, &b), (&a, &sup), (&sup, &b), (&a, &a), (&sup, &sup)] {
                prop_assert_eq!(scalar.merge512(x, y), auto.merge512(x, y));
            }

            let mut bits_s = Vec::new();
            let mut bits_a = Vec::new();
            scalar.iter_set_bits(&a, 512, |i| bits_s.push(i));
            auto.iter_set_bits(&a, 512, |i| bits_a.push(i));
            prop_assert_eq!(bits_s, bits_a);
        }
    }

    /// `set_bits512` matches per-id read-modify-write inserts for any
    /// sorted id run.
    #[test]
    fn set_bits512_agrees_with_naive(codes in proptest::collection::vec(any::<u64>(), 1..64)) {
        let base = (codes[0] % 8) as u32 * 512;
        let mut offs: Vec<u32> = codes[1..].iter().map(|c| (c % 512) as u32).collect();
        offs.sort_unstable();
        offs.dedup();
        let ids: Vec<u32> = offs.iter().map(|o| base + o).collect();
        let mut via_kernel = chunk_from(codes[0]);
        let mut via_loop = via_kernel;
        set_bits512(&mut via_kernel, &ids, base);
        for &id in &ids {
            let b = (id - base) as usize;
            via_loop[b / 64] |= 1 << (b % 64);
        }
        prop_assert_eq!(via_kernel, via_loop);
    }

    /// `FutureSet` op sequences through two kernel-pinned stats blocks:
    /// identical sets at every step, identical counters at the end.
    #[test]
    fn set_ops_agree_across_kernels(
        codes in proptest::collection::vec(any::<u64>(), 1..200)
    ) {
        let stats_s = SetStats::with_kernel(Kernel::Scalar);
        let stats_a = SetStats::with_kernel(Kernel::default());
        let ks = stats_s.kernel();
        let ka = stats_a.kernel();
        let mut sets_s = vec![Arc::new(FutureSet::empty())];
        let mut sets_a = vec![Arc::new(FutureSet::empty())];
        for &c in &codes {
            let id = FutureId(((c >> 2) & 0x7FF) as u32); // ids in [0, 2048)
            let i = ((c >> 12) as usize) % sets_s.len();
            let j = ((c >> 32) as usize) % sets_s.len();
            let (ns, na) = match c & 0b11 {
                0 | 1 => {
                    let (ns, ds) = sets_s[i].with_counted_k(id, ks);
                    let (na, da) = sets_a[i].with_counted_k(id, ka);
                    stats_s.note_alloc(&ns, ds);
                    stats_a.note_alloc(&na, da);
                    (Arc::new(ns), Arc::new(na))
                }
                2 => (
                    merge(&sets_s[i], &sets_s[j], &stats_s),
                    merge(&sets_a[i], &sets_a[j], &stats_a),
                ),
                _ => {
                    let (ns, ds) = sets_s[i].union_counted_k(&sets_s[j], ks);
                    let (na, da) = sets_a[i].union_counted_k(&sets_a[j], ka);
                    stats_s.note_alloc(&ns, ds);
                    stats_a.note_alloc(&na, da);
                    (Arc::new(ns), Arc::new(na))
                }
            };
            prop_assert_eq!(ns.len(), na.len());
            prop_assert_eq!(ids(&ns), ids(&na));
            let (sub_s, kops_s) = ns.is_subset_k(&sets_s[i], ks);
            let (sub_a, kops_a) = na.is_subset_k(&sets_a[i], ka);
            prop_assert_eq!(sub_s, sub_a);
            prop_assert_eq!(kops_s, kops_a, "subset kernel-op tallies diverge");
            stats_s.note_kernel_ops(kops_s);
            stats_a.note_kernel_ops(kops_a);
            if sets_s.len() < 24 {
                sets_s.push(ns);
                sets_a.push(na);
            } else {
                sets_s[i] = ns;
                sets_a[i] = na;
            }
        }
        assert_stats_parity(&stats_s.full_snapshot(), &stats_a.full_snapshot());
    }
}

/// One strand per engine, evolved in lockstep.
struct Pair {
    s: SfStrand,
    a: SfStrand,
}

/// Minimal lockstep interpreter over two kernel-pinned `SfReach` engines
/// (the heavier dag-shape exploration lives in `oracle_props.rs` and
/// `tests/stress_equivalence.rs`; this one aims kernels at long get
/// chains, the chunked-set hot case).
struct Machine {
    eng_s: SfReach,
    eng_a: SfReach,
    stack: Vec<Pair>,
    done: Vec<Pair>,
}

impl Machine {
    fn new() -> Self {
        let (eng_s, root_s) = SfReach::with_kernel(Kernel::Scalar);
        let (eng_a, root_a) = SfReach::with_kernel(Kernel::default());
        Self {
            eng_s,
            eng_a,
            stack: vec![Pair {
                s: root_s,
                a: root_a,
            }],
            done: Vec::new(),
        }
    }

    fn step(&mut self, code: u64) {
        match code % 4 {
            0 | 1 if self.stack.len() < 10 && self.eng_s.future_count() < 600 => {
                let top = self.stack.last_mut().unwrap();
                let child = Pair {
                    s: self.eng_s.create(&mut top.s),
                    a: self.eng_a.create(&mut top.a),
                };
                self.stack.push(child);
            }
            2 if self.stack.len() > 1 => self.end_and_get(),
            _ => {
                if self.done.is_empty() {
                    return;
                }
                let f = &self.done[(code >> 2) as usize % self.done.len()];
                let top = self.stack.last_mut().unwrap();
                self.eng_s.get(&mut top.s, &f.s);
                self.eng_a.get(&mut top.a, &f.a);
            }
        }
    }

    fn end_and_get(&mut self) {
        let mut frame = self.stack.pop().unwrap();
        self.eng_s.task_end(&mut frame.s);
        self.eng_a.task_end(&mut frame.a);
        let parent = self.stack.last_mut().unwrap();
        self.eng_s.get(&mut parent.s, &frame.s);
        self.eng_a.get(&mut parent.a, &frame.a);
        self.done.push(frame);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

    /// Kernel-pinned SF-Order engines give identical verdicts, sets, and
    /// stats on arbitrary create/get interleavings.
    #[test]
    fn engines_agree_across_kernels(
        codes in proptest::collection::vec(any::<u64>(), 1..400)
    ) {
        let mut m = Machine::new();
        for &c in &codes {
            m.step(c);
        }
        while m.stack.len() > 1 {
            m.end_and_get();
        }
        prop_assert_eq!(m.eng_s.future_count(), m.eng_a.future_count());

        let mut strands: Vec<(&SfStrand, &SfStrand)> = vec![(&m.stack[0].s, &m.stack[0].a)];
        for p in &m.done {
            strands.push((&p.s, &p.a));
        }
        for (s, a) in &strands {
            prop_assert_eq!(ids(s.gp()), ids(a.gp()));
        }
        for (s1, a1) in &strands {
            for (s2, a2) in &strands {
                prop_assert_eq!(
                    m.eng_s.precedes(s1.pos(), s2),
                    m.eng_a.precedes(a1.pos(), a2),
                    "verdict diverges across kernels"
                );
            }
        }
        prop_assert_eq!(m.eng_s.arena_slabs(), m.eng_a.arena_slabs());
        assert_stats_parity(
            &m.eng_s.set_stats().full_snapshot(),
            &m.eng_a.set_stats().full_snapshot(),
        );
    }
}
