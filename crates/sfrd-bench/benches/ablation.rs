//! Ablations over the configuration axes that remain (DESIGN.md §3):
//!
//! * **reader policy** — the §3.5 bounded per-future leftmost/rightmost
//!   readers vs the paper's shipped keep-all-readers history (§4 argues
//!   the bound's bookkeeping outweighs its savings at their scale);
//! * **gp/cp representation** — bitmaps (SF-Order) vs hash tables of op
//!   nodes (F-Order), isolated via the `reach` configuration where the
//!   access history is out of the picture.
//!
//! The retired ablations (shadow store, set representation, scheduler
//! deque, chunk kernels, batching, per-strand filter, order-maintenance
//! backend) keep their numbers in EXPERIMENTS.md; DESIGN.md's "Retired
//! arms" table says where.

use criterion::{criterion_group, criterion_main, Criterion};
use sfrd_core::{drive, DetectorKind, DriveConfig, Mode, ReaderPolicy};
use sfrd_workloads::{make_bench, Scale};
use std::hint::black_box;

fn reader_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/reader_policy");
    g.sample_size(10);
    for (label, policy) in [
        ("all_readers", ReaderPolicy::All),
        ("per_future_lr", ReaderPolicy::PerFutureLR),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let w = make_bench("sw", Scale::Small, 1);
                let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1).policy(policy);
                black_box(drive(&w, cfg));
            })
        });
    }
    g.finish();
}

fn gp_representation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/gp_representation");
    g.sample_size(10);
    // hw is future-heavy (one per frame×point): the construction cost of
    // the per-create table copies is the differentiator.
    for (label, kind) in [
        ("bitmaps_sforder", DetectorKind::SfOrder),
        ("hashtables_forder", DetectorKind::FOrder),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let w = make_bench("hw", Scale::Small, 1);
                black_box(drive(&w, DriveConfig::with(kind, Mode::Reach, 1)));
            })
        });
    }
    g.finish();
}

criterion_group!(ablation, reader_policy, gp_representation);
criterion_main!(ablation);
