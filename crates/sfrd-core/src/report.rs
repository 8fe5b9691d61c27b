//! Race reports and execution counters.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// How the two conflicting accesses were ordered in this execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Earlier write, later read.
    WriteRead,
    /// Earlier read, later write.
    ReadWrite,
    /// Two writes.
    WriteWrite,
}

/// One reported determinacy race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Race {
    /// Address the strands collided on.
    pub addr: u64,
    /// Conflict shape.
    pub kind: RaceKind,
}

/// Thread-safe race sink. Detectors report every race they find; the
/// collector deduplicates per `(addr, kind)` and keeps a bounded sample
/// (real races repeat millions of times on array workloads).
#[derive(Debug, Default)]
pub struct RaceCollector {
    total: AtomicU64,
    distinct: Mutex<BTreeSet<Race>>,
    /// Acquisitions of `distinct` by the report path.
    lock_ops: AtomicU64,
}

impl RaceCollector {
    /// Record one detected race.
    pub fn report(&self, addr: u64, kind: RaceKind) {
        self.report_batch(&[Race { addr, kind }], 1);
    }

    /// Record a batch's races under one lock: `observed` observations
    /// (repeats included) of the `(addr, kind)` pairs in `races`. A batch
    /// that observed nothing touches nothing — one racy location read by
    /// every worker must not serialise them per access.
    pub fn report_batch(&self, races: &[Race], observed: u64) {
        if observed == 0 {
            return;
        }
        self.total.fetch_add(observed, Ordering::Relaxed);
        self.lock_ops.fetch_add(1, Ordering::Relaxed);
        let mut d = self.distinct.lock();
        for &race in races {
            if d.len() >= 65_536 {
                break;
            }
            d.insert(race);
        }
    }

    /// Times the report path took the collector's lock (one per reporting
    /// batch).
    pub fn lock_ops(&self) -> u64 {
        self.lock_ops.load(Ordering::Relaxed)
    }

    /// Total race observations (with repetition).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Distinct `(addr, kind)` races (bounded sample).
    pub fn distinct(&self) -> BTreeSet<Race> {
        self.distinct.lock().clone()
    }

    /// Distinct racy addresses.
    pub fn racy_addrs(&self) -> BTreeSet<u64> {
        self.distinct.lock().iter().map(|r| r.addr).collect()
    }

    /// True when no race was observed.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Execution characteristic counters — the columns of Fig. 3.
#[derive(Debug, Default)]
pub struct Counters {
    /// Instrumented reads.
    pub reads: AtomicU64,
    /// Instrumented writes.
    pub writes: AtomicU64,
    /// Reachability queries issued by access checks.
    pub queries: AtomicU64,
    /// `spawn` events.
    pub spawns: AtomicU64,
    /// `create` events (= futures used, `k`).
    pub creates: AtomicU64,
    /// `sync` events.
    pub syncs: AtomicU64,
    /// `get` events.
    pub gets: AtomicU64,
}

/// Plain snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountsSnapshot {
    /// Instrumented reads.
    pub reads: u64,
    /// Instrumented writes.
    pub writes: u64,
    /// Reachability queries issued by access checks.
    pub queries: u64,
    /// `spawn` events.
    pub spawns: u64,
    /// Futures used (`k`).
    pub futures: u64,
    /// `sync` events.
    pub syncs: u64,
    /// `get` events.
    pub gets: u64,
}

impl Counters {
    #[inline]
    pub(crate) fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> CountsSnapshot {
        CountsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            spawns: self.spawns.load(Ordering::Relaxed),
            futures: self.creates.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
        }
    }
}

impl CountsSnapshot {
    /// Dag-node estimate: every spawn/create adds a child-first and a
    /// continuation node; syncs and gets add one node each; plus the root.
    pub fn nodes(&self) -> u64 {
        1 + 2 * (self.spawns + self.futures) + self.syncs + self.gets
    }
}

/// Pipeline/synchronization metrics of one detector run — the
/// observability half of the unified strand-event pipeline. Shadow-side
/// counters (`lock_ops`, `shadow_fast_hits`, `bitmap_merges`) are filled
/// by the detector; batch-side counters (`batch_flushes`,
/// `batched_accesses`, `filtered_accesses`) live in the
/// `Batched` runtime wrapper and are merged in by
/// [`drive`](crate::drive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Shadow mutex acquisitions: the paged store's mapped path takes
    /// none, so this counts fallback-map traffic only (addresses outside
    /// the mapped range, sub-word collisions).
    pub lock_ops: u64,
    /// Batch flushes (boundary + size-cap).
    pub batch_flushes: u64,
    /// Accesses admitted into batches (post write-combining).
    pub batched_accesses: u64,
    /// Accesses write-combined away by the per-position filter.
    pub filtered_accesses: u64,
    /// Always 0: the per-strand writer-epoch verdict cache it counted
    /// hits of was retired in PR 18 (DESIGN.md §14). The field stays only
    /// because `benchmark/` reads it for `core.verdict_cache_hit_ratio`;
    /// both leave in the next benchmark-only PR (ROADMAP item 3).
    pub seqlock_hits: u64,
    /// Reachability-side bitmap/set merges.
    pub bitmap_merges: u64,
    /// OM insert operations completed on the group-local fast path.
    pub om_fast_inserts: u64,
    /// OM group-spinlock acquisitions.
    pub om_group_locks: u64,
    /// OM insert operations that escalated to the global lock
    /// (relabels/splits/respreads).
    pub om_global_escalations: u64,
    /// OM order-query seqlock retries.
    pub om_query_retries: u64,
    /// Shadow reads completed on the zero-store fast path.
    pub shadow_fast_hits: u64,
    /// Shadow per-slot seqlock CAS retries plus fast-path snapshot
    /// validation failures (the contention signal).
    pub shadow_cas_retries: u64,
    /// Shadow pages published into the page directory.
    pub page_allocs: u64,
    /// Cumulative fresh `cp`/`gp` set payload bytes (Fig. 5; excludes OM
    /// lists, unlike `reach_bytes`).
    pub set_bytes: u64,
    /// `cp`/`gp` set allocations.
    pub set_allocs: u64,
    /// Scheduler: tasks executed by the work-stealing pool.
    pub sched_tasks_run: u64,
    /// Scheduler: tasks taken from a sibling deque.
    pub sched_steals: u64,
    /// Scheduler: steal attempts that lost a CAS race and retried.
    pub sched_steal_retries: u64,
    /// Scheduler: times a worker slept on an eventcount.
    pub sched_parks: u64,
    /// Scheduler: times a sleeping worker was woken.
    pub sched_wakeups: u64,
}

/// Everything a detector run produces.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Total race observations.
    pub total_races: u64,
    /// Distinct `(addr, kind)` sample.
    pub races: Vec<Race>,
    /// Distinct racy addresses.
    pub racy_addrs: BTreeSet<u64>,
    /// Execution characteristics.
    pub counts: CountsSnapshot,
    /// Reachability-structure heap bytes (Fig. 5).
    pub reach_bytes: usize,
    /// Access-history heap bytes.
    pub history_bytes: usize,
    /// Pipeline/synchronization metrics.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_dedups() {
        let c = RaceCollector::default();
        for _ in 0..100 {
            c.report(8, RaceKind::WriteWrite);
        }
        c.report(8, RaceKind::ReadWrite);
        c.report(16, RaceKind::WriteRead);
        c.report_batch(&[], 0);
        c.report_batch(
            &[
                Race {
                    addr: 16,
                    kind: RaceKind::WriteRead,
                },
                Race {
                    addr: 24,
                    kind: RaceKind::ReadWrite,
                },
            ],
            5,
        );
        assert_eq!(c.total(), 107, "repeats are counted");
        assert_eq!(c.lock_ops(), 103, "one lock per reporting batch");
        assert_eq!(
            c.racy_addrs().into_iter().collect::<Vec<_>>(),
            vec![8, 16, 24]
        );
        assert_eq!(c.distinct().len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn node_estimate() {
        let s = CountsSnapshot {
            spawns: 2,
            futures: 1,
            syncs: 1,
            gets: 1,
            ..Default::default()
        };
        assert_eq!(s.nodes(), 1 + 6 + 1 + 1);
    }
}
