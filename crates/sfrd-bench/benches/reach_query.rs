//! Micro-benchmarks of the reachability building blocks the paper's
//! complexity argument rests on: SP-order queries over the pseudo-SP-dag
//! (shared by every engine), SF-Order's bitmap operations, and the
//! `FutureSet` merge discipline.

use criterion::{criterion_group, criterion_main, Criterion};
use sfrd_dag::FutureId;
use sfrd_reach::bitmap::{merge, FutureSet, SetStats};
use sfrd_reach::{SpOrder, SpPos};
use std::hint::black_box;
use std::sync::Arc;

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

criterion_group!(
    reach,
    bench_sp_precedes,
    bench_bitmap_contains,
    bench_bitmap_merge,
    bench_growth_chain
);
criterion_main!(reach);
