//! Micro-benchmarks of the reachability building blocks the paper's
//! complexity argument rests on: SP-order queries over the pseudo-SP-dag
//! (shared by every engine), SF-Order's bitmap operations, and the
//! `FutureSet` merge discipline.

use criterion::{criterion_group, criterion_main, Criterion};
use sfrd_dag::FutureId;
use sfrd_reach::bitmap::{merge, FutureSet, SetStats};
use sfrd_reach::kernels::ChunkWords;
use sfrd_reach::{Kernel, Merge512, SpOrder, SpPos};
use std::hint::black_box;
use std::sync::Arc;

/// The kernels available on this machine: scalar always, plus the
/// detected vector kernel when it differs.
fn available_kernels() -> Vec<Kernel> {
    let mut v = vec![Kernel::Scalar];
    let auto = Kernel::default();
    if auto != Kernel::Scalar {
        v.push(auto);
    }
    v
}

/// Build a fork tree and collect strand positions.
fn build_positions(forks: usize) -> (SpOrder, Vec<SpPos>) {
    let (sp, mut root) = SpOrder::new();
    let mut positions = vec![root.pos()];
    let mut frontier = Vec::new();
    for _ in 0..forks {
        let mut child = sp.fork(&mut root);
        positions.push(child.pos());
        // Children fork once too, giving depth-2 structure.
        let grand = sp.fork(&mut child);
        positions.push(grand.pos());
        sp.sync(&mut child);
        positions.push(child.pos());
        frontier.push(child);
    }
    sp.sync(&mut root);
    positions.push(root.pos());
    (sp, positions)
}

fn bench_sp_precedes(c: &mut Criterion) {
    let (sp, positions) = build_positions(2000);
    c.bench_function("reach/sp_precedes_eq", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 6151) % positions.len();
            let j = (i * 13 + 5) % positions.len();
            black_box(sp.precedes_eq(positions[i], positions[j]))
        })
    });
}

fn bench_bitmap_contains(c: &mut Criterion) {
    // A k = 4096 futures set, half populated.
    let mut set = FutureSet::empty();
    for i in (0..4096).step_by(2) {
        set = set.with(FutureId(i));
    }
    c.bench_function("reach/gp_contains_k4096", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1237) % 4096;
            black_box(set.contains(FutureId(i)))
        })
    });
}

/// Two divergent k = 2048 sets: evens in one, odds in the other.
fn divergent_sets() -> (Arc<FutureSet>, Arc<FutureSet>) {
    let mut a = FutureSet::empty();
    let mut b = FutureSet::empty();
    for i in 0..2048 {
        if i % 2 == 0 {
            a = a.with(FutureId(i));
        } else {
            b = b.with(FutureId(i));
        }
    }
    (Arc::new(a), Arc::new(b))
}

fn bench_bitmap_merge(c: &mut Criterion) {
    let stats = SetStats::default();
    let (a, bset) = divergent_sets();
    c.bench_function("reach/gp_merge_divergent_k2048", |b| {
        b.iter(|| black_box(merge(&a, &bset, &stats)))
    });
    let sub = Arc::new(FutureSet::singleton(FutureId(0)));
    c.bench_function("reach/gp_merge_subset_shared", |b| {
        b.iter(|| black_box(merge(&a, &sub, &stats)))
    });
}

/// The derivation-chain micro-bench: extending a growing `gp` one future
/// at a time amortizes through the chunk tail buffer (8 zero-allocation
/// extensions per flush).
fn bench_growth_chain(c: &mut Criterion) {
    c.bench_function("reach/gp_growth_chain_k2048", |b| {
        b.iter(|| {
            let mut set = FutureSet::empty();
            for i in 0..2048 {
                set = set.with(FutureId(i));
            }
            black_box(set.len())
        })
    });
}

/// Deterministic chunk payloads (SplitMix64) for the kernel rows.
fn sample_chunks(n: usize, seed: u64) -> Vec<ChunkWords> {
    let mut s = seed;
    let mut next = || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let mut w = [0u64; 8];
            for lane in &mut w {
                *lane = next();
            }
            w
        })
        .collect()
}

/// The raw 512-bit primitives, per kernel. 256 chunk pairs (16 KiB working set) so the loop
/// measures the kernel, not one register-resident chunk.
fn bench_chunk_kernels(c: &mut Criterion) {
    const PAIRS: usize = 256;
    let a = sample_chunks(PAIRS, 1);
    let b = sample_chunks(PAIRS, 2);
    // Supersets of `a`, so subset512 runs its full no-early-exit pass
    // with the answer `true` (the common case on the merge ladder).
    let sup: Vec<ChunkWords> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| Kernel::Scalar.or512(x, y))
        .collect();
    // `eq512` needs equal *contents* in distinct allocations: comparing a
    // chunk against itself lets the inlined scalar path constant-fold the
    // whole loop away and the row measures nothing.
    let a_twin = a.clone();
    for k in available_kernels() {
        let label = k.label();
        c.bench_function(&format!("reach/kernel_or512x{PAIRS}/{label}"), |bch| {
            bch.iter(|| {
                // Fold every lane of every output: consuming only one
                // word would let the inlined scalar arm dead-code the
                // other seven and win on work it never did.
                let mut acc = 0u64;
                for (x, y) in a.iter().zip(&b) {
                    let out = k.or512(black_box(x), black_box(y));
                    for w in out {
                        acc ^= w;
                    }
                }
                acc
            })
        });
        c.bench_function(&format!("reach/kernel_or_into_x{PAIRS}/{label}"), |bch| {
            // The production shape: `union_counted_k` accumulates source
            // chunks into a freshly copied destination in place.
            bch.iter(|| {
                let mut dst = [0u64; 8];
                for x in &a {
                    k.or_into(&mut dst, black_box(x));
                }
                dst[0] ^ dst[7]
            })
        });
        c.bench_function(&format!("reach/kernel_subset512x{PAIRS}/{label}"), |bch| {
            bch.iter(|| {
                let mut hits = 0u32;
                for (x, y) in a.iter().zip(&sup) {
                    hits += k.subset512(black_box(x), black_box(y)) as u32;
                }
                assert_eq!(hits, PAIRS as u32);
                hits
            })
        });
        c.bench_function(&format!("reach/kernel_eq512x{PAIRS}/{label}"), |bch| {
            bch.iter(|| {
                let mut hits = 0u32;
                for (x, y) in a.iter().zip(&a_twin) {
                    hits += k.eq512(black_box(x), black_box(y)) as u32;
                }
                assert_eq!(hits, PAIRS as u32);
                hits
            })
        });
        c.bench_function(&format!("reach/kernel_popcnt512x{PAIRS}/{label}"), |bch| {
            // The `Chunk::from_words` hot path: every copied chunk pays
            // one popcount. The default target has no POPCNT instruction,
            // so this is the widest scalar-vs-vector gap of the suite.
            bch.iter(|| {
                let mut n = 0u32;
                for x in &a {
                    n += k.popcnt512(black_box(x));
                }
                n
            })
        });
        c.bench_function(&format!("reach/kernel_merge512x{PAIRS}/{label}"), |bch| {
            // The fused production union step (`Chunked::union` on a
            // genuinely mixed chunk pair): or + both collapse probes +
            // popcount in a single dispatch. Random pairs never
            // collapse, so every iteration takes the fresh path.
            bch.iter(|| {
                let mut n = 0u32;
                for (x, y) in a.iter().zip(&b) {
                    match k.merge512(black_box(x), black_box(y)) {
                        Merge512::Fresh(words, ones) => n += ones ^ (words[0] as u32 & 1),
                        _ => n += 1,
                    }
                }
                n
            })
        });
        let pairs: Vec<(&ChunkWords, &ChunkWords)> = a.iter().zip(&sup).collect();
        c.bench_function(
            &format!("reach/kernel_subset_many_x{PAIRS}/{label}"),
            |bch| {
                // The batched form `Chunked::subset_of` actually runs: one
                // dispatch per gathered run, loop inside the vector kernel.
                bch.iter(|| {
                    let (ok, tested) = k.subset512_many(black_box(&pairs));
                    assert!(ok && tested == PAIRS as u64);
                    tested
                })
            },
        );
    }
}

/// End-to-end chunked merges under each kernel: the same divergent-set
/// union `gp_merge_divergent_k2048` runs, but with the engine stats pinned
/// per kernel so the dispatch cost is included.
fn bench_merge_per_kernel(c: &mut Criterion) {
    for k in available_kernels() {
        let stats = SetStats::with_kernel(k);
        let (a, bset) = divergent_sets();
        c.bench_function(
            &format!("reach/gp_merge_divergent_k2048_kernel/{}", k.label()),
            |b| b.iter(|| black_box(merge(&a, &bset, &stats))),
        );
    }
}

criterion_group!(
    reach,
    bench_sp_precedes,
    bench_bitmap_contains,
    bench_bitmap_merge,
    bench_growth_chain,
    bench_chunk_kernels,
    bench_merge_per_kernel
);
criterion_main!(reach);
