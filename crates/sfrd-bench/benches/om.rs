//! Micro-benchmarks of the order-maintenance substrate: the per-construct
//! cost floor of SF-Order's reachability maintenance (3 OM inserts per
//! fork across two lists), the per-query cost floor (2 label
//! comparisons), and the scalability of the group-local insert fast path
//! under real thread contention (1/2/4/8 threads).
//!
//! `om/fork_heavy` and `om/deep_precedes` are SpOrder's shapes: fork-pattern
//! run inserts (its exact insertion shape) and order queries over a deep
//! spawn chain.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sfrd_om::OmList;
use std::hint::black_box;
use std::sync::Arc;

fn bench_insert_append(c: &mut Criterion) {
    c.bench_function("om/insert_append_1k", |b| {
        b.iter_batched(
            OmList::new,
            |(list, base)| {
                let mut cur = base;
                for _ in 0..1000 {
                    cur = list.insert_after(cur);
                }
                black_box(cur);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_insert_hotspot(c: &mut Criterion) {
    c.bench_function("om/insert_after_head_1k", |b| {
        b.iter_batched(
            OmList::new,
            |(list, base)| {
                for _ in 0..1000 {
                    black_box(list.insert_after(base));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_query(c: &mut Criterion) {
    let (list, base) = OmList::new();
    let mut handles = vec![base];
    let mut cur = base;
    for _ in 0..10_000 {
        cur = list.insert_after(cur);
        handles.push(cur);
    }
    c.bench_function("om/order_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % handles.len();
            let j = (i * 31 + 1) % handles.len();
            black_box(list.precedes(handles[i], handles[j]))
        })
    });
}

/// T threads appending to disjoint anchor chains of one shared list: the
/// group-local fast path means the threads contend only on the arena's
/// reservation counter, not on a global mutex. Fixed total work (4096
/// inserts) split across the threads, so the 1T cell is the serial
/// reference and the multi-thread cells expose pure contention cost
/// (on a 1-core box: lock-handoff overhead rather than speedup).
fn bench_insert_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("om/contended_insert");
    g.sample_size(10);
    const TOTAL: usize = 4096;
    for threads in [1usize, 2, 4, 8] {
        g.bench_function(format!("{threads}T"), |b| {
            b.iter_batched(
                || {
                    let (list, base) = OmList::new();
                    let mut anchors = Vec::with_capacity(threads);
                    let mut last = base;
                    for _ in 0..threads {
                        last = list.insert_after(last);
                        anchors.push(last);
                    }
                    (Arc::new(list), anchors)
                },
                |(list, anchors)| {
                    let per = TOTAL / anchors.len();
                    std::thread::scope(|s| {
                        for &anchor in &anchors {
                            let list = &list;
                            s.spawn(move || {
                                let mut cur = anchor;
                                for _ in 0..per {
                                    cur = list.insert_after(cur);
                                }
                                black_box(cur);
                            });
                        }
                    });
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// T query threads doing lock-free order queries while one writer hammers
/// inserts at the head (maximal relabel/split pressure): measures seqlock
/// retry cost under churn. Fixed total query work split across threads.
fn bench_query_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("om/contended_query");
    g.sample_size(10);
    const TOTAL_QUERIES: usize = 16_384;
    const WRITER_INSERTS: usize = 2_048;
    for threads in [1usize, 2, 4, 8] {
        g.bench_function(format!("{threads}T"), |b| {
            b.iter_batched(
                || {
                    let (list, base) = OmList::new();
                    let mut handles = vec![base];
                    let mut cur = base;
                    for _ in 0..1_000 {
                        cur = list.insert_after(cur);
                        handles.push(cur);
                    }
                    (Arc::new(list), handles, base)
                },
                |(list, handles, base)| {
                    let per = TOTAL_QUERIES / threads;
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let list = &list;
                            let handles = &handles;
                            s.spawn(move || {
                                let mut i = t * 7919;
                                for _ in 0..per {
                                    i = (i + 7919) % handles.len();
                                    let j = (i * 31 + 1) % handles.len();
                                    black_box(list.precedes(handles[i], handles[j]));
                                }
                            });
                        }
                        let list = &list;
                        s.spawn(move || {
                            for _ in 0..WRITER_INSERTS {
                                black_box(list.insert_after(base));
                            }
                        });
                    });
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// SpOrder's exact fork insertion shape (one 3-run per first-fork, one
/// 2-run per later fork, anchors advancing down the continuation chain):
/// one group lock per run.
fn bench_fork_heavy(c: &mut Criterion) {
    c.bench_function("om/fork_heavy", |b| {
        b.iter_batched(
            OmList::new,
            |(om, base)| {
                let mut anchor = base;
                for i in 0..1000 {
                    if i % 2 == 0 {
                        let [_c, k, _s] = om.insert_n_after::<3>(anchor);
                        anchor = k;
                    } else {
                        let [_c, k] = om.insert_n_after::<2>(anchor);
                        anchor = k;
                    }
                }
                black_box(anchor);
            },
            BatchSize::SmallInput,
        )
    });
}

/// Build a deep spawn chain (every fork continues from the freshly
/// inserted continuation), then measure `precedes` between random deep
/// positions. This is the deep-get-chain query pattern of `k_scaling`'s
/// fan-out cells, isolated.
fn bench_deep_precedes(c: &mut Criterion) {
    const DEPTH: usize = 4096;
    let (om, base) = OmList::new();
    let mut handles = Vec::with_capacity(DEPTH * 2 + 1);
    handles.push(base);
    let mut anchor = base;
    for _ in 0..DEPTH {
        let [c_h, k] = om.insert_n_after::<2>(anchor);
        handles.push(c_h);
        handles.push(k);
        anchor = k;
    }
    c.bench_function("om/deep_precedes", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % handles.len();
            let j = (i * 31 + 1) % handles.len();
            black_box(om.precedes(handles[i], handles[j]))
        })
    });
}

criterion_group!(
    om,
    bench_insert_append,
    bench_insert_hotspot,
    bench_query,
    bench_insert_contended,
    bench_query_contended,
    bench_fork_heavy,
    bench_deep_precedes
);
criterion_main!(om);
