//! Configuration-matrix equivalence under stress.
//!
//! Nothing the configuration selects — detector, worker count, reader
//! policy — may change *what* is detected, only what it costs. This suite
//! drives seeded racy and race-free workloads across the whole surviving
//! matrix and checks that the race-report location sets are identical.
//!
//! Race *kinds* at a location may legitimately differ between schedules
//! (the same dag race can be observed as WriteRead or ReadWrite depending
//! on which access lands in the shadow table first), so the invariant is
//! the racy *address set*, exactly as in the oracle tests.

use std::collections::BTreeSet;

use rand::prelude::*;

use sfrd::core::{
    drive, DetectorKind, DriveConfig, GenWorkload, Mode, ReaderPolicy, ShadowArray, Workload,
};
use sfrd::dag::generator::{GenParams, GenProgram};
use sfrd::runtime::{Cx, NullHooks, Runtime, FILTER_WAYS};
use sfrd::workloads::{make_bench, AnyBench, Scale, SwParams, SwWorkload};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn gen_params() -> GenParams {
    GenParams {
        max_tasks: 24,
        max_body_len: 6,
        addr_space: 4, // tiny address space: races are likely
        ..Default::default()
    }
}

/// The configuration matrix: detector {SF, F, MB} × workers {1, 2, 4, 8}
/// × reader policy {All, PerFutureLR}, minus the combinations that would
/// only repeat a run — the reader policy is SF-Order's alone (F-Order and
/// MultiBags always keep all readers), and MultiBags is sequential.
fn all_configs() -> Vec<DriveConfig> {
    let mut cfgs = Vec::new();
    for workers in WORKERS {
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            cfgs.push(DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers).policy(policy));
        }
        cfgs.push(DriveConfig::with(DetectorKind::FOrder, Mode::Full, workers));
    }
    cfgs.push(DriveConfig::with(DetectorKind::MultiBags, Mode::Full, 1));
    cfgs
}

/// Seeded random structured-future programs (logical addresses, so racy
/// sets are comparable across runs), two corpora of six: every
/// configuration must report the same racy address set.
#[test]
fn racy_sets_agree_across_workers_and_batching() {
    for seed in [0x57E55, 0xDE9A] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut saw_a_race = false;
        for round in 0..6 {
            let prog = GenProgram::random(&mut rng, &gen_params());
            let mut reference: Option<BTreeSet<u64>> = None;
            for cfg in all_configs() {
                let w = GenWorkload(prog.clone());
                let out = drive(&w, cfg);
                let rep = out.report.unwrap();
                let got = rep.racy_addrs;
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        &got, want,
                        "seed {seed:#x} round {round} {cfg:?}: racy sets diverge\nprogram: {prog:?}"
                    ),
                }
            }
            saw_a_race |= !reference.unwrap().is_empty();
        }
        assert!(
            saw_a_race,
            "corpus {seed:#x} never raced — tighten gen_params, the test is vacuous"
        );
    }
}

/// A race-free workload over logical addresses: a future and the
/// continuation write disjoint ranges, the continuation reads everything
/// after the get, and a fork-join phase re-reads under proper syncs.
struct DisjointPipeline {
    n: u64,
}

impl Workload for DisjointPipeline {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        let n = self.n;
        let h = ctx.create(move |c| {
            for a in 0..n {
                c.record_write(a);
            }
        });
        for a in n..2 * n {
            ctx.record_write(a);
        }
        ctx.get(h);
        for a in 0..2 * n {
            ctx.record_read(a);
        }
        ctx.spawn(move |c| {
            for a in 0..n {
                c.record_read(a);
            }
        });
        for a in n..2 * n {
            ctx.record_read(a);
        }
        ctx.sync();
        ctx.record_write(2 * n);
    }
}

/// The race-free workload stays clean — and its Fig. 3 event counts stay
/// identical — in every configuration (write-combining must be invisible
/// to both detection and program characteristics).
#[test]
fn race_free_clean_and_counts_invariant() {
    let w = DisjointPipeline { n: 700 }; // > batch cap: exercises size-cap flushes
    let mut counts = Vec::new();
    for cfg in all_configs() {
        let out = drive(&w, cfg);
        let rep = out.report.unwrap();
        assert_eq!(rep.total_races, 0, "{cfg:?}");
        counts.push((rep.counts.reads, rep.counts.writes, cfg));
    }
    let (r0, w0, _) = counts[0];
    for (r, wr, cfg) in &counts {
        assert_eq!((r, wr), (&r0, &w0), "counts diverge under {cfg:?}");
    }
}

/// The paged shadow table cuts shadow-lock acquisitions to zero (the
/// mutex-sharded store it replaced took one per batch × touched shard;
/// numbers in EXPERIMENTS.md `shadow_paging`): on the paper's benchmarks
/// (real `ShadowArray` element addresses, all inside the mapped 2^47
/// range) every access resolves through the lock-free page directory, so
/// no shadow lock is ever taken — and the zero-store snapshot paths must
/// actually fire where repeats outlive the write-combining filter: same-
/// epoch repeats under the default policy, the LR no-op test under the
/// retained-reader one. On hw and sw the filter absorbs every repeat at
/// Small, so the snapshot paths are checked on sort here and on a strand
/// that outgrows the filter in
/// `snapshot_paths_fire_when_a_strand_outgrows_the_filter`.
#[test]
fn paged_backend_cuts_lock_ops() {
    for bench in ["sw", "hw", "sort"] {
        let w = make_bench(bench, Scale::Small, 0xA11CE);
        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 4);
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let rep = drive(&w, cfg.policy(policy)).report.unwrap();
            assert!(rep.counts.reads > 0 && rep.metrics.batch_flushes > 0);
            assert_eq!(
                rep.metrics.lock_ops, 0,
                "{bench} {policy:?}: shadow path locked"
            );
            if bench == "sort" {
                assert!(
                    rep.metrics.shadow_fast_hits > 0,
                    "{bench} {policy:?}: zero-store snapshot path never hit"
                );
            }
        }
    }
}

/// One strand writes, then twice reads, twice as many cells as a thread's
/// filter has ways, all at one dag position: the filter cannot hold them,
/// so the repeats reach the shadow store.
struct Retouch {
    cells: ShadowArray<u64>,
}

impl Workload for Retouch {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        for i in 0..self.cells.len() {
            self.cells.write(ctx, i, i as u64);
        }
        for _ in 0..2 {
            for i in 0..self.cells.len() {
                self.cells.read(ctx, i);
            }
        }
    }
}

/// The snapshot-path coverage for repeats the filter cannot absorb: a
/// strand that re-touches more words at one position than the filter has
/// ways sends them to the shadow store, where every one is a zero-store
/// hit (read-by-current-writer under either policy) and none locks.
#[test]
fn snapshot_paths_fire_when_a_strand_outgrows_the_filter() {
    let w = Retouch {
        cells: ShadowArray::new(2 * FILTER_WAYS),
    };
    for workers in [1, 4] {
        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers);
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let rep = drive(&w, cfg.policy(policy)).report.unwrap();
            assert_eq!(rep.total_races, 0);
            assert_eq!(rep.metrics.lock_ops, 0, "{policy:?}: shadow path locked");
            let repeats = rep.metrics.batched_accesses - w.cells.len() as u64;
            assert!(
                repeats > FILTER_WAYS as u64,
                "{policy:?}: the filter absorbed the repeats"
            );
            assert_eq!(
                rep.metrics.shadow_fast_hits, repeats,
                "{workers}w {policy:?}: an admitted repeat missed the snapshot path"
            );
        }
    }
}

/// A chain of `k` created-and-gotten futures — the k-scaling workload.
struct FutureChain {
    k: usize,
}

impl Workload for FutureChain {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        for i in 0..self.k {
            let h = ctx.create(move |c| {
                c.record_write(i as u64 * 8);
            });
            ctx.get(h);
        }
    }
}

/// The memory guard of the adaptive `cp`/`gp` sets, end-to-end through
/// `drive()` metrics: on the reach configuration at k = 4096 the chain
/// allocates 56 952 payload bytes (deterministic), so 64 KiB is the
/// regression ceiling. The flat bitmap this representation replaced
/// allocated 1 098 240 bytes on the same chain (last measurable at
/// 433dfdb), so the ceiling still certifies — with 4x to spare — the
/// >= 4x cut the test is named for.
#[test]
fn adaptive_sets_cut_bytes_4x_on_future_chains() {
    let k = 4096;
    let w = FutureChain { k };
    let rep = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 1))
        .report
        .unwrap();
    assert_eq!(rep.counts.futures as usize, k);
    assert_eq!(rep.total_races, 0);
    let bytes = rep.metrics.set_bytes;
    assert!(bytes > 0, "the chain must allocate something");
    assert!(
        bytes <= 64 << 10,
        "set payload bytes at k={k} regressed: {bytes}"
    );
}

/// SF-Order `full` at 8 workers reports the 1-worker racy set on the
/// paper's query-heavy benchmarks, and the order-maintenance counters
/// surface through `RaceReport::metrics`: both lists outgrow their first
/// group on either input, so fast-path inserts and escalated splits are
/// both nonzero at any worker count. sw runs 144 blocks (`B = 8`), not
/// `Small`'s 36: its root creates every block without touching memory in
/// between, so each create adds one position per list, and 36 of them
/// stay inside one 64-item group.
#[test]
fn sf_full_at_8_workers_matches_1_worker_on_hw_and_sw() {
    for bench in ["hw", "sw"] {
        let w = match bench {
            "sw" => AnyBench::Sw(SwWorkload::new(SwParams { n: 96, base: 8 }, 0xA11CE)),
            _ => make_bench(bench, Scale::Small, 0xA11CE),
        };
        let mut racy: Option<BTreeSet<u64>> = None;
        for workers in [1, 8] {
            let rep = drive(
                &w,
                DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers),
            )
            .report
            .unwrap();
            assert!(
                rep.metrics.om_fast_inserts > 0,
                "{bench}/{workers}w: insert census missing from report"
            );
            assert!(
                rep.metrics.om_global_escalations > 0,
                "{bench}/{workers}w: escalation census missing from report"
            );
            match &racy {
                None => racy = Some(rep.racy_addrs),
                Some(want) => assert_eq!(
                    &rep.racy_addrs, want,
                    "{bench}: the 8-worker verdict diverged from the 1-worker one"
                ),
            }
        }
    }
}

/// Decentralized OM inserts cut global-lock traffic: the pre-change
/// design acquired the OM global mutex once per insert *operation*, so
/// the old acquisition count equals today's operation count
/// (`fast_inserts + escalations`) — actually exceeds it, since run
/// inserts combined 3–4 of the old operations into one. Requiring
/// escalations x 5 <= operations therefore certifies a >=5x reduction in
/// insert-path global-lock acquisitions against that baseline, on the
/// paper's query-heavy benchmarks at 4 workers.
#[test]
fn om_decentralization_cuts_global_lock_acquisitions() {
    for bench in ["hw", "sw"] {
        let w = make_bench(bench, Scale::Small, 0xA11CE);
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 4));
        let m = out.report.unwrap().metrics;
        let insert_ops = m.om_fast_inserts + m.om_global_escalations;
        assert!(insert_ops > 0, "{bench}: OM saw no inserts");
        assert!(
            m.om_global_escalations * 5 <= insert_ops,
            "{bench}: expected >=5x global-lock reduction on the OM insert \
             path: {} escalations out of {} operations",
            m.om_global_escalations,
            insert_ops,
        );
        assert!(
            m.om_group_locks >= m.om_fast_inserts,
            "{bench}: every fast-path insert takes a group lock"
        );
    }
}

/// Leaf count for the spawn storm (smaller in debug so plain `cargo test`
/// stays quick; CI runs this suite on the release profile).
fn storm_size() -> u64 {
    if cfg!(debug_assertions) {
        4_000
    } else {
        40_000
    }
}

fn spawn_storm(pool: &Runtime<NullHooks>, n: u64) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    let counter = AtomicU64::new(0);
    pool.run(std::sync::Arc::new(NullHooks), |ctx| {
        for _ in 0..n {
            ctx.spawn(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        ctx.sync();
    });
    counter.load(Ordering::Relaxed)
}

/// Spawn storm at 1 and 8 workers: every leaf runs exactly once (counter
/// parity), and the pool's `tasks_run` census is identical across worker
/// counts — task execution is structural, not schedule-dependent, so any
/// divergence means a lost or double-executed job (W1/W2 at production
/// scale).
#[test]
fn spawn_storm_counter_parity_across_backends() {
    let n = storm_size();
    let mut census = Vec::new();
    for workers in [1, 8] {
        let pool: Runtime<NullHooks> = Runtime::new(workers);
        let leaves = spawn_storm(&pool, n);
        assert_eq!(leaves, n, "w{workers}: lost or repeated leaf");
        census.push((workers, pool.stats().tasks_run));
    }
    let expect = census[0].1;
    assert!(expect >= n);
    for (workers, tasks) in census {
        assert_eq!(tasks, expect, "w{workers}: task census diverged");
    }
}

/// Lopsided tree: every node spawns its heavy child (the steal feed),
/// inlines a half-depth light subtree, and every third level routes the
/// heavy child through a future. Cell 0 is written by every leaf (racy),
/// cell 1 by every interior node after its sync (racy across cousins),
/// cell 2 is only ever read (never racy).
struct UnbalancedTree {
    arr: ShadowArray<u64>,
}

impl UnbalancedTree {
    fn new() -> Self {
        Self {
            arr: ShadowArray::new(3),
        }
    }

    fn go<'s, C: Cx<'s>>(&'s self, ctx: &mut C, depth: u32) -> u64 {
        if depth == 0 {
            self.arr.write(ctx, 0, 1);
            return self.arr.read(ctx, 2);
        }
        ctx.spawn(move |c| {
            self.go(c, depth - 1);
        });
        let fut = if depth.is_multiple_of(3) {
            Some(ctx.create(move |c| self.go(c, depth - 1)))
        } else {
            None
        };
        let mut acc = self.go(ctx, depth / 2);
        if let Some(h) = fut {
            acc += ctx.get(h);
        }
        ctx.sync();
        self.arr.write(ctx, 1, u64::from(depth));
        acc
    }
}

impl Workload for UnbalancedTree {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        self.go(ctx, 12);
    }
}

/// Steal-heavy unbalanced tree: the SF-Order race verdict at 2 and 8
/// workers must equal the 1-worker verdict
/// (determinacy race detection is schedule-independent per location), and
/// the scheduler counters must surface through `RaceReport::metrics`.
#[test]
fn unbalanced_tree_verdicts_equal_across_workers_and_backends() {
    // One instance throughout: ShadowArray addresses are real memory
    // addresses, so verdicts are only comparable within one allocation.
    let w = UnbalancedTree::new();

    let base = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1))
        .report
        .expect("detector attached")
        .racy_addrs;
    assert!(base.contains(&w.arr.addr(0)), "leaf writes must race");
    assert!(base.contains(&w.arr.addr(1)), "cousin writes must race");
    assert!(
        !base.contains(&w.arr.addr(2)),
        "read-only cell flagged racy"
    );

    for workers in [2, 8] {
        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, workers);
        let report = drive(&w, cfg).report.expect("detector attached");
        assert_eq!(
            report.racy_addrs, base,
            "w{workers}: verdict diverged from 1-worker run"
        );
        assert!(
            report.metrics.sched_tasks_run > 0,
            "w{workers}: scheduler metrics missing from report"
        );
    }
}
