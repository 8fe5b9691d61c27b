//! The unified strand-event pipeline: one detector hot path for all
//! reachability engines.
//!
//! Before this module, `SfDetector`/`FoDetector`/`MbDetector` (and the
//! fork-join `WspDetector`) each carried a private copy of the on-the-fly
//! protocol — the same writer-check / reader-check / epoch-update sequence
//! four times over, differing only in how reachability questions are
//! answered. [`EventSink`] collapses them: a detector is now *one* struct
//! parameterized by a [`ReachEngine`], and the engines (`detectors.rs`,
//! `wsp.rs`) are thin adapters over `sfrd-reach`.
//!
//! The sink speaks both access protocols of `sfrd-runtime`:
//!
//! * **per-access** (`on_read`/`on_write`): one shadow access per call —
//!   a lock-free slot section, or the zero-store read fast path. This is
//!   the plain `TaskHooks` contract bare detectors run through;
//! * **per-batch** (`on_access_batch`, fed by
//!   [`Batched`](sfrd_runtime::Batched), which [`drive`](crate::drive)
//!   always installs): the buffered accesses — all issued at one dag
//!   position — replay through one page cursor, and the strand's
//!   [`VerdictCache`] skips reachability queries against writers whose
//!   epoch has not changed (the seqlock-style fast path; see the
//!   `sfrd-shadow` crate docs for the soundness argument).
//!
//! Both paths funnel into the same [`check_read`](EventSink::on_read)/
//! write logic, so batching cannot change which `(addr, kind)` races
//! exist at a location — only how many times a repeated race is observed.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use sfrd_runtime::{AccessBatch, TaskHooks, VerdictCache};
use sfrd_shadow::{LocEntry, PageCursor, PagedHistory, ReaderPolicy};

use crate::detectors::Mode;
use crate::report::{Counters, MetricsSnapshot, RaceCollector, RaceKind, RaceReport};

/// A reachability engine pluggable into [`EventSink`]: answers "does
/// position `a` precede strand `s`" and maintains per-strand positions
/// across the parallel constructs. Adapters over `sfrd-reach` implement
/// this; the detection protocol itself lives in the sink.
pub trait ReachEngine: Send + Sync + 'static {
    /// Per-task engine state.
    type Strand: Send + 'static;
    /// Position stored in the access history.
    type Pos: Copy + PartialEq + Send + 'static;

    /// A task spawned a fork-join child.
    fn spawn(&self, parent: &mut Self::Strand) -> Self::Strand;
    /// A task created a future.
    fn create(&self, parent: &mut Self::Strand) -> Self::Strand;
    /// A sync joined the completed spawned children.
    fn sync(&self, s: &mut Self::Strand, children: &[Self::Strand]);
    /// A get consumed the future whose final strand is `done`.
    fn get(&self, s: &mut Self::Strand, done: &Self::Strand);
    /// The task finished.
    fn task_end(&self, s: &mut Self::Strand);
    /// Sequential runtime only: child returned to `parent` in DFS order.
    fn task_return(&self, _parent: &mut Self::Strand, _child: &mut Self::Strand) {}

    /// The strand's current position.
    fn pos(s: &Self::Strand) -> Self::Pos;
    /// The strand's future id (0 for the fork-join root region).
    fn future_id(s: &Self::Strand) -> u32;
    /// Does the stored position `a` precede strand `s`? The one query the
    /// whole protocol is built on.
    fn precedes(&self, a: Self::Pos, s: &Self::Strand) -> bool;

    /// English-order comparison of two stored positions (only consulted
    /// under [`ReaderPolicy::PerFutureLR`]).
    fn eng_less(&self, _a: &Self::Pos, _b: &Self::Pos) -> bool {
        false
    }
    /// Hebrew-order comparison of two stored positions.
    fn heb_less(&self, _a: &Self::Pos, _b: &Self::Pos) -> bool {
        false
    }
    /// Same-future serial comparison of two stored positions.
    fn pos_precedes(&self, _a: &Self::Pos, _b: &Self::Pos) -> bool {
        false
    }

    /// Reachability-structure heap bytes (Fig. 5).
    fn heap_bytes(&self) -> usize;
    /// Bitmap/set merges performed so far (0 for engines without sets).
    fn merges(&self) -> u64 {
        0
    }
    /// Full `cp`/`gp` set-layer counters (allocation tiers, chunk sharing,
    /// lineage fast exits); zeros for engines without sets.
    fn set_stats_snapshot(&self) -> sfrd_reach::SetStatsSnapshot {
        sfrd_reach::SetStatsSnapshot::default()
    }
    /// Order-maintenance contention counters (zeros for engines without
    /// OM lists, e.g. MultiBags).
    fn om_stats(&self) -> sfrd_om::OmStats {
        sfrd_om::OmStats::default()
    }
    /// Slabs bump-allocated in the engine's per-future node arena (0 for
    /// engines without one).
    fn arena_slabs(&self) -> u64 {
        0
    }
}

/// The unified detector: the on-the-fly protocol of §1/§3 over any
/// [`ReachEngine`], speaking both the per-access and the batched access
/// protocol. `SfDetector`, `FoDetector`, `MbDetector` and `WspDetector`
/// are type aliases of this struct.
pub struct EventSink<E: ReachEngine> {
    pub(crate) engine: E,
    root: Mutex<Option<E::Strand>>,
    pub(crate) history: Option<PagedHistory<E::Pos>>,
    /// Detected races.
    pub collector: RaceCollector,
    /// Execution counters (Fig. 3).
    pub counters: Counters,
    /// Reachability queries skipped by the writer-epoch verdict cache.
    seqlock_hits: AtomicU64,
}

impl<E: ReachEngine> EventSink<E> {
    /// Couple `engine` (with its root strand) to a fresh access history.
    pub(crate) fn build(engine: (E, E::Strand), mode: Mode, policy: ReaderPolicy) -> Self {
        let (engine, root) = engine;
        Self {
            engine,
            root: Mutex::new(Some(root)),
            history: matches!(mode, Mode::Full).then(|| PagedHistory::with_policy(policy)),
            collector: RaceCollector::default(),
            counters: Counters::default(),
            seqlock_hits: AtomicU64::new(0),
        }
    }

    /// The reachability engine (diagnostics).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The access history (diagnostics; `None` in reach mode).
    pub fn history(&self) -> Option<&PagedHistory<E::Pos>> {
        self.history.as_ref()
    }

    /// The report after (or during) a run. Batch-pipeline counters
    /// (flushes, filter hits) live in the [`Batched`](sfrd_runtime::Batched)
    /// wrapper; [`drive`](crate::drive) merges them in.
    pub fn report(&self) -> RaceReport {
        RaceReport {
            total_races: self.collector.total(),
            races: self.collector.distinct().into_iter().collect(),
            racy_addrs: self.collector.racy_addrs(),
            counts: self.counters.snapshot(),
            reach_bytes: self.engine.heap_bytes(),
            history_bytes: self.history.as_ref().map_or(0, |h| h.heap_bytes()),
            metrics: {
                let om = self.engine.om_stats();
                let set = self.engine.set_stats_snapshot();
                MetricsSnapshot {
                    lock_ops: self.history.as_ref().map_or(0, |h| h.lock_ops()),
                    seqlock_hits: self.seqlock_hits.load(Ordering::Relaxed),
                    bitmap_merges: self.engine.merges(),
                    om_fast_inserts: om.fast_inserts,
                    om_group_locks: om.group_locks,
                    om_global_escalations: om.global_escalations,
                    om_query_retries: om.query_retries,
                    depa_label_words: om.depa_label_words,
                    depa_spills: om.depa_spills,
                    depa_max_depth: om.depa_max_depth,
                    shadow_fast_hits: self.history.as_ref().map_or(0, |h| h.fast_hits()),
                    shadow_cas_retries: self.history.as_ref().map_or(0, |h| h.cas_retries()),
                    page_allocs: self.history.as_ref().map_or(0, |h| h.page_allocs()),
                    set_bytes: set.bytes,
                    set_allocs: set.allocations,
                    set_tier_inline: set.tier_inline,
                    set_tier_sparse: set.tier_sparse,
                    set_tier_chunked: set.tier_chunked,
                    set_chunks_shared: set.chunks_shared,
                    set_chunks_copied: set.chunks_copied,
                    set_lineage_hits: set.lineage_hits,
                    kernel_simd_calls: set.kernel_simd_calls,
                    kernel_scalar_calls: set.kernel_scalar_calls,
                    arena_slabs: self.engine.arena_slabs(),
                    prefetch_issued: self.history.as_ref().map_or(0, |h| h.prefetches()),
                    ..MetricsSnapshot::default()
                }
            },
        }
    }

    /// The read half of the protocol, shared by both access paths: check
    /// the last writer, then retain the reader. With a [`VerdictCache`]
    /// (batch path), a writer whose epoch matches a cached serial verdict
    /// skips the reachability query.
    fn check_read(
        &self,
        e: &mut LocEntry<E::Pos>,
        addr: u64,
        fut: u32,
        pos: E::Pos,
        s: &E::Strand,
        mut verdicts: Option<&mut VerdictCache>,
    ) {
        Counters::bump(&self.counters.reads);
        if let Some(w) = e.writer {
            // Same-position fast path: an accessor at the current position
            // is trivially serial; no reachability query needed.
            if w != pos {
                if verdicts
                    .as_deref_mut()
                    .is_some_and(|v| v.check(addr, e.writer_seq))
                {
                    self.seqlock_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    Counters::bump(&self.counters.queries);
                    if self.engine.precedes(w, s) {
                        if let Some(v) = verdicts {
                            v.store(addr, e.writer_seq);
                        }
                    } else {
                        self.collector.report(addr, RaceKind::WriteRead);
                    }
                }
            }
        }
        let eng = &self.engine;
        e.readers.record(
            fut,
            pos,
            |a, b| eng.eng_less(a, b),
            |a, b| eng.heb_less(a, b),
            |a, b| eng.pos_precedes(a, b),
        );
    }

    /// The write half: check the last writer and every retained reader,
    /// then open a new write epoch. The new writer is this strand's own
    /// position, which serially precedes everything the strand does later
    /// — so the fresh epoch's verdict is cached immediately.
    fn check_write(
        &self,
        e: &mut LocEntry<E::Pos>,
        addr: u64,
        pos: E::Pos,
        s: &E::Strand,
        mut verdicts: Option<&mut VerdictCache>,
    ) {
        Counters::bump(&self.counters.writes);
        if let Some(w) = e.writer {
            if w != pos {
                if verdicts
                    .as_deref_mut()
                    .is_some_and(|v| v.check(addr, e.writer_seq))
                {
                    self.seqlock_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    Counters::bump(&self.counters.queries);
                    if !self.engine.precedes(w, s) {
                        self.collector.report(addr, RaceKind::WriteWrite);
                    }
                }
            }
        }
        let mut reader_queries = 0;
        e.readers.for_each(|r| {
            if r == pos {
                return;
            }
            reader_queries += 1;
            if !self.engine.precedes(r, s) {
                self.collector.report(addr, RaceKind::ReadWrite);
            }
        });
        Counters::add(&self.counters.queries, reader_queries);
        e.begin_write_epoch(pos);
        if let Some(v) = verdicts {
            v.store(addr, e.writer_seq);
        }
    }

    /// The zero-store read fast path: attempt to prove the read redundant
    /// from one validated snapshot — no lock, no store to the shadow entry. The reader side is decided by the LR no-op test
    /// inside [`PageCursor::fast_read`]; the writer side is decided here,
    /// with the same ladder as [`check_read`](Self::check_read) minus the
    /// mutation: same-position, then the epoch-keyed verdict cache, then a
    /// direct reachability query (whose positive verdict is cached
    /// strand-locally — still nothing written to the entry). A negative
    /// verdict (a race) returns `false` so the caller's locked path
    /// re-derives and reports exactly once.
    fn fast_read(
        &self,
        cur: &mut PageCursor<'_, E::Pos>,
        addr: u64,
        fut: u32,
        pos: E::Pos,
        s: &E::Strand,
        mut verdicts: Option<&mut VerdictCache>,
    ) -> bool {
        let eng = &self.engine;
        let hit = cur.fast_read(
            addr,
            fut,
            pos,
            |a, b| eng.eng_less(a, b),
            |a, b| eng.heb_less(a, b),
            |a, b| eng.pos_precedes(a, b),
            |w, wseq| match w {
                None => true,
                Some(w) if w == pos => true,
                Some(w) => {
                    if verdicts.as_deref_mut().is_some_and(|v| v.check(addr, wseq)) {
                        self.seqlock_hits.fetch_add(1, Ordering::Relaxed);
                        true
                    } else {
                        Counters::bump(&self.counters.queries);
                        if self.engine.precedes(w, s) {
                            if let Some(v) = verdicts {
                                v.store(addr, wseq);
                            }
                            true
                        } else {
                            false
                        }
                    }
                }
            },
        );
        if hit {
            // The access happened: Fig. 3 counts stay path-invariant.
            Counters::bump(&self.counters.reads);
        }
        hit
    }
}

impl<E: ReachEngine> TaskHooks for EventSink<E> {
    type Strand = E::Strand;

    fn root(&self) -> E::Strand {
        self.root
            .lock()
            .take()
            .expect("detector is one-shot: root strand already taken")
    }

    fn on_spawn(&self, parent: &mut E::Strand) -> E::Strand {
        Counters::bump(&self.counters.spawns);
        self.engine.spawn(parent)
    }

    fn on_create(&self, parent: &mut E::Strand) -> E::Strand {
        Counters::bump(&self.counters.creates);
        self.engine.create(parent)
    }

    fn on_sync(&self, s: &mut E::Strand, children: Vec<E::Strand>) {
        Counters::bump(&self.counters.syncs);
        self.engine.sync(s, &children);
    }

    fn on_get(&self, s: &mut E::Strand, done: &E::Strand) {
        Counters::bump(&self.counters.gets);
        self.engine.get(s, done);
    }

    fn on_task_end(&self, s: &mut E::Strand) {
        self.engine.task_end(s);
    }

    fn on_task_return(&self, parent: &mut E::Strand, child: &mut E::Strand) {
        self.engine.task_return(parent, child);
    }

    #[inline]
    fn on_read(&self, s: &mut E::Strand, addr: u64) {
        let Some(history) = &self.history else { return };
        let pos = E::pos(s);
        let fut = E::future_id(s);
        let mut cur = history.cursor();
        if !self.fast_read(&mut cur, addr, fut, pos, s, None) {
            cur.locked(addr, |e| self.check_read(e, addr, fut, pos, s, None));
        }
    }

    #[inline]
    fn on_write(&self, s: &mut E::Strand, addr: u64) {
        let Some(history) = &self.history else { return };
        let pos = E::pos(s);
        history.locked(addr, |e| self.check_write(e, addr, pos, s, None));
    }

    /// The batched hot path: replay in buffer order (per-address program
    /// order for free, no sort) through one [`PageCursor`], so runs of
    /// same-page addresses skip the directory walk; each read first tries
    /// the zero-store fast path, and only state-changing accesses enter a
    /// slot's write section. No lock is taken on the mapped path.
    fn on_access_batch(&self, s: &mut E::Strand, batch: &mut AccessBatch) {
        let Some(history) = &self.history else {
            batch.discard();
            return;
        };
        let pos = E::pos(s);
        let fut = E::future_id(s);
        // Write-combined repeats never reach this sink as entries, but they
        // are real instrumented accesses: fold them into the Fig. 3
        // counters so counts stay schedule- and filter-invariant.
        let (filtered_reads, filtered_writes) = batch.take_filtered();
        Counters::add(&self.counters.reads, filtered_reads);
        Counters::add(&self.counters.writes, filtered_writes);
        let (entries, verdicts) = batch.parts();
        let mut cur = history.cursor();
        let mut prefetched: u64 = 0;
        for (i, a) in entries.iter().enumerate() {
            // Overlap the slot-seqlock work on entry `i` with the cache
            // fill for entry `i + 1`; the tally is folded into the shared
            // counter once per batch to keep atomic traffic off this loop.
            if let Some(next) = entries.get(i + 1) {
                if next.addr >> 3 != a.addr >> 3 && history.prefetch_slot(next.addr) {
                    prefetched += 1;
                }
            }
            if a.is_write {
                cur.locked(a.addr, |e| {
                    self.check_write(e, a.addr, pos, s, Some(&mut *verdicts))
                });
            } else if !self.fast_read(&mut cur, a.addr, fut, pos, s, Some(&mut *verdicts)) {
                cur.locked(a.addr, |e| {
                    self.check_read(e, a.addr, fut, pos, s, Some(&mut *verdicts))
                });
            }
        }
        history.note_prefetches(prefetched);
        entries.clear();
    }
}
