//! Ablations over the configuration axes that remain (DESIGN.md §3):
//!
//! * **reader policy** — the §3.5 bounded per-future leftmost/rightmost
//!   readers vs the paper's shipped keep-all-readers history (§4 argues
//!   the bound's bookkeeping outweighs its savings at their scale);
//! * **gp/cp representation** — bitmaps (SF-Order) vs hash tables of op
//!   nodes (F-Order), isolated via the `reach` configuration where the
//!   access history is out of the picture;
//! * **order-maintenance backend** — the shared list vs DePa labels.
//!
//! The retired ablations (shadow store, set representation, scheduler
//! deque, chunk kernels, batching, per-strand filter) keep their numbers
//! in EXPERIMENTS.md; DESIGN.md's "Retired arms" table says where.

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
                let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1)
                    .to_builder()
                    .policy(policy)
                    .build();
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

/// The order-maintenance ablation (DESIGN.md §5, §13): SF-Order full
/// detection across worker counts and both `--om` backends. The OmList
/// column measures the decentralized two-level list (the pre-change design
/// took the global mutex once per insert, so `global_escalations /
/// insert_ops` is the surviving global-lock fraction); the DePa column
/// measures the fork-local path-label backend, which must report
/// `global_escalations = 0` and `query_retries = 0` structurally — the
/// 8-worker DePa-vs-OmList delta is the ISSUE 10 acceptance metric.
fn om_contention(c: &mut Criterion) {
    use sfrd_core::OmBackend;

    let mut g = c.benchmark_group("ablation/om_contention");
    g.sample_size(10);
    for name in ["sw", "hw"] {
        for workers in [1usize, 2, 4, 8] {
            for om in [OmBackend::OmList, OmBackend::DePa] {
                let w = make_bench(name, Scale::Small, 1);
                let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers)
                    .to_builder()
                    .om_backend(om)
                    .build();
                let rep = drive(&w, cfg).report.expect("Full mode returns a report");
                let m = &rep.metrics;
                let om_l = om.label();
                eprintln!(
                    "om_contention/{name}/{workers}w/{om_l}: fast_inserts={} group_locks={} \
                     global_escalations={} query_retries={} depa_words={} depa_depth={} races={}",
                    m.om_fast_inserts,
                    m.om_group_locks,
                    m.om_global_escalations,
                    m.om_query_retries,
                    m.depa_label_words,
                    m.depa_max_depth,
                    rep.total_races,
                );
                if om == OmBackend::DePa {
                    assert_eq!(
                        m.om_global_escalations, 0,
                        "DePa is lock-free by construction"
                    );
                    assert_eq!(m.om_query_retries, 0, "DePa queries never retry");
                }
                g.bench_function(format!("{name}/{workers}w/{om_l}"), |b| {
                    b.iter(|| {
                        let w = make_bench(name, Scale::Small, 1);
                        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers)
                            .to_builder()
                            .om_backend(om)
                            .build();
                        black_box(drive(&w, cfg));
                    })
                });
            }
        }
    }
    g.finish();
}

criterion_group!(ablation, reader_policy, gp_representation, om_contention);
criterion_main!(ablation);
