//! Empirical verification of the paper's quantitative bounds.
//!
//! The theorems are asymptotic; these tests pin the constants the proofs
//! promise, on random programs and on the benchmark suite:
//!
//! * §3.4 / Lemma 3.12 — `gp` tables are *merged* (freshly allocated with
//!   contributions from both parents) at most O(k) times;
//! * §3.5 / Lemma 3.11 — under the per-future leftmost/rightmost policy, a
//!   location retains at most 2k readers;
//! * order-maintenance amortization — the keys an insert makes the list
//!   rewrite stay under a small constant per inserted item, and that
//!   constant does not grow with the list;
//! * the access history's slot — 32 bytes, so a page of 2 048 slots is
//!   64 KiB, counted on a real run.

use std::sync::Arc;

use rand::prelude::*;

use sfrd::core::{EngineConfig, GenWorkload, Mode, SfDetector, Workload};
use sfrd::dag::generator::{GenParams, GenProgram};
use sfrd::runtime::Runtime;
use sfrd::shadow::ReaderPolicy;
use sfrd::workloads::{make_bench, Scale, SortParams, SortWorkload, BENCH_NAMES};

fn run_sf(w: &impl Workload, policy: ReaderPolicy, workers: usize) -> Arc<SfDetector> {
    let det = Arc::new(SfDetector::from_config(
        &EngineConfig::new(Mode::Full).policy(policy),
    ));
    let rt: Runtime<SfDetector> = Runtime::new(workers);
    rt.run(Arc::clone(&det), |ctx| w.run(ctx));
    det
}

/// gp/cp merge count stays O(k) — we assert ≤ 2k + 4 (the proof's budget:
/// one merge per get plus at most k divergent syncs; `cp` copies are
/// allocations, not merges).
#[test]
fn gp_merges_linear_in_k() {
    let mut rng = StdRng::seed_from_u64(0x314);
    for _ in 0..25 {
        let prog = GenProgram::random(
            &mut rng,
            &GenParams {
                max_tasks: 40,
                max_body_len: 8,
                ..Default::default()
            },
        );
        let w = GenWorkload(prog);
        let det = run_sf(&w, ReaderPolicy::All, 2);
        let k = det.engine().future_count() as u64;
        let merges = det.engine().set_stats().snapshot().merges;
        assert!(
            merges <= 2 * k + 4,
            "merges = {merges} exceeds the O(k) budget for k = {k}"
        );
    }
}

/// The same bound on the real benchmarks.
#[test]
fn gp_merges_linear_in_k_on_suite() {
    for name in BENCH_NAMES {
        let w = make_bench(name, Scale::Small, 3);
        let det = run_sf(&w, ReaderPolicy::All, 2);
        assert!(w.verify_ok());
        let k = det.engine().future_count() as u64;
        let merges = det.engine().set_stats().snapshot().merges;
        assert!(merges <= 2 * k + 4, "{name}: merges = {merges}, k = {k}");
    }
}

/// §3.5: per-location retained readers ≤ 2k under PerFutureLR, even on
/// read-storm programs that would accumulate unbounded readers under the
/// all-readers policy.
#[test]
fn reader_retention_bounded_by_2k() {
    struct ReadStorm;
    impl Workload for ReadStorm {
        fn run<'s, C: sfrd::core::Cx<'s>>(&'s self, ctx: &mut C) {
            // One location, hammered by every strand of 20 futures plus
            // many strands of the root (spawn/sync chains).
            ctx.record_write(8);
            let mut handles = Vec::new();
            for _ in 0..20 {
                handles.push(ctx.create(|c| {
                    for _ in 0..50 {
                        c.record_read(8);
                    }
                }));
                for _ in 0..5 {
                    ctx.spawn(|c| c.record_read(8));
                }
                ctx.sync();
            }
            for h in handles {
                ctx.get(h);
            }
        }
    }
    let det = run_sf(&ReadStorm, ReaderPolicy::PerFutureLR, 2);
    let k = det.engine().future_count() as usize;
    let max = det.history().unwrap().max_retained_readers();
    assert!(
        max <= 2 * k,
        "retained {max} readers, bound is 2k = {}",
        2 * k
    );
    // And the storm is race-free (write precedes all creates/spawns).
    assert_eq!(det.report().total_races, 0);

    // Contrast: the all-readers policy retains far more on the same load.
    let det_all = run_sf(&ReadStorm, ReaderPolicy::All, 2);
    let max_all = det_all.history().unwrap().max_retained_readers();
    assert!(
        max_all > 2 * k,
        "all-readers should exceed the 2k bound here ({max_all} vs {})",
        2 * k
    );
}

/// Keys rewritten per inserted item (`OmStats::relabeled_slots`, both lists
/// of an `SpOrder` summed) for three insert patterns at `k` futures' worth
/// of items: a fixed hot spot, pure append, and the futures-shaped moving
/// front (`k` chained futures of 8 children each through
/// `SpOrder::fork`/`sync`, the `futures` benchmark's construct stream).
fn om_rewrites_per_insert(k: usize) -> [(&'static str, f64); 3] {
    use sfrd::om::OmList;
    use sfrd::reach::SpOrder;
    // One list of the moving front receives 19 items per future.
    let n = 19 * k;
    let per_insert =
        |stats: sfrd::om::OmStats, inserted: usize| stats.relabeled_slots as f64 / inserted as f64;

    let (list, base) = OmList::new();
    for _ in 0..n {
        list.insert_after(base);
    }
    let hot_spot = per_insert(list.stats(), n);

    let (list, mut last) = OmList::new();
    for _ in 0..n {
        last = list.insert_after(last);
    }
    let append = per_insert(list.stats(), n);

    let (sp, mut root) = SpOrder::new();
    for _ in 0..k {
        let mut fut = sp.fork(&mut root);
        for _ in 0..8 {
            let mut child = sp.fork(&mut fut);
            sp.sync(&mut child);
        }
        sp.sync(&mut fut);
    }
    let front = per_insert(sp.om_stats(), 2 * (sp.positions() - 1));

    [
        ("hot spot", hot_spot),
        ("append", append),
        ("moving front", front),
    ]
}

/// OM inserts are amortized O(1) in *work*, not just in passes: the keys
/// rewritten per inserted item stay under 3 at k = 4 096 futures' worth
/// of items, and 16 times the items later the figure has grown by less
/// than a quarter — it would double every doubling if a relabel touched
/// the whole list (the whole-list group respread this replaced read
/// ≈ 4.7 then ≈ 13 on the moving front). Counts only; no clock.
#[test]
fn om_relabels_amortized() {
    let small = om_rewrites_per_insert(4_096);
    let large = om_rewrites_per_insert(65_536);
    for ((pattern, at_4k), (_, at_64k)) in small.into_iter().zip(large) {
        println!("{pattern}: {at_4k:.3} -> {at_64k:.3} keys rewritten per insert");
        assert!(
            at_4k < 3.0,
            "{pattern}: {at_4k:.2} keys rewritten per insert at k = 4096"
        );
        assert!(
            at_64k < 1.25 * at_4k,
            "{pattern}: {at_4k:.2} -> {at_64k:.2} keys rewritten per insert from k = 4096 \
             to k = 65536 — not amortized O(1)"
        );
    }
}

/// The slot stays 32 bytes, counted on a real run rather than timed:
/// `sort` under SF-Order `full` on one worker (no page allocation race
/// strands a page), at the small input and at twice it. The pages follow
/// the cell count — 2 048 eight-byte cells each, plus at most one partial
/// page at each end of the two arrays — and the history grows by exactly
/// 64 KiB per extra page, since both runs share one directory and sort
/// leaves no reader payload behind. A slot that regrows fails it.
#[test]
fn history_pages_are_64_kib_of_slots() {
    let run = |n: usize| {
        let w = SortWorkload::new(
            SortParams {
                n,
                ..SortParams::small()
            },
            3,
        );
        let det = run_sf(&w, ReaderPolicy::All, 1);
        assert!(w.verify());
        let r = det.report();
        let (pages, bytes) = (r.metrics.page_allocs as usize, r.history_bytes);
        let full_pages = 2 * n / sfrd::shadow::PAGE_SLOTS;
        assert!(
            (full_pages..=full_pages + 2).contains(&pages),
            "n = {n}: {pages} pages for {full_pages} pages' worth of cells"
        );
        (pages, bytes)
    };
    let n = SortParams::small().n;
    let (small_pages, small_bytes) = run(n);
    let (large_pages, large_bytes) = run(2 * n);
    assert_eq!(
        large_bytes - small_bytes,
        (large_pages - small_pages) * (64 << 10),
        "{small_pages} -> {large_pages} pages"
    );
}
