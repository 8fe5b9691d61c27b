//! The unified strand-event pipeline: one detector hot path for all
//! reachability engines.
//!
//! A detector is *one* struct, [`EventSink`], parameterized by a
//! [`ReachEngine`], which `detectors.rs` implements on the `sfrd-reach`
//! engines themselves: the protocol is written once, and only how
//! reachability questions are answered differs.
//!
//! The sink has one access path, `on_access_batch`: a borrowed slice of
//! accesses, all issued at one dag position, run through one page cursor.
//! [`Batched`](sfrd_runtime::Batched), which [`drive`](crate::drive)
//! always installs, and a journal replay deliver slices; a bare
//! `on_access` is a batch of one.
//!
//! Every access first asks the shadow's validated snapshot whether it is
//! a *same-epoch* repeat — a read by the location's last recorded reader
//! or by its writer, a write by its writer with no reader retained — and
//! if so is done without a store (DESIGN.md §6); anything else enters the
//! slot's write section and runs the `check_read`/write logic, which asks
//! `precedes` of every retained accessor at another position. So neither
//! batching nor the short-circuit can change which addresses race — only
//! how many times a repeated race is observed. The one thing that shapes
//! the `(addr, kind)` set is the retention rule both paths share: a read
//! at the writer's own position is not retained, so a later parallel
//! writer reports `WriteWrite` against that writer and no `ReadWrite`
//! beside it. Counters and race reports are tallied locally and folded
//! into the shared state once per batch.

use parking_lot::Mutex;

use sfrd_reach::Pos;
use sfrd_runtime::{BatchedAccess, TaskHooks};
use sfrd_shadow::{LocEntry, PageCursor, PagedHistory, ReaderPolicy};

use crate::config::EngineConfig;
use crate::detectors::Mode;
use crate::report::{Counters, MetricsSnapshot, Race, RaceCollector, RaceKind, RaceReport};

/// What one batch adds to the sink's shared state, kept in locals while
/// the accesses run and folded in with [`EventSink::fold`] afterwards:
/// one atomic add per touched counter and at most one collector lock per
/// batch instead of one of each per access.
#[derive(Default)]
struct Tally {
    reads: u64,
    writes: u64,
    queries: u64,
    /// Race observations, repeats included.
    observed: u64,
    /// The observed `(addr, kind)` pairs, adjacent repeats dropped (a
    /// writer's sweep reports one pair per racing reader; the collector's
    /// set removes the rest).
    races: Vec<Race>,
}

impl Tally {
    fn race(&mut self, addr: u64, kind: RaceKind) {
        self.observed += 1;
        let race = Race { addr, kind };
        if self.races.last() != Some(&race) {
            self.races.push(race);
        }
    }
}

/// A reachability engine pluggable into [`EventSink`]: answers "does
/// position `a` precede strand `s`" and maintains per-strand positions
/// across the parallel constructs. The `sfrd-reach` engines implement
/// this; the detection protocol itself lives in the sink.
///
/// Positions are [`Pos`] words, which every engine mints so that two
/// strands hold equal ids exactly when they hold equal rich positions
/// (`sfrd_reach::pos`): the sink's "same position, no query" test is the
/// same test for every engine, and the access history stores one word.
pub trait ReachEngine: Sized + Send + Sync + 'static {
    /// Per-task engine state.
    type Strand: Send + 'static;

    /// Does the engine answer the order comparisons
    /// [`ReaderPolicy::PerFutureLR`] needs? An engine that does not runs
    /// under [`ReaderPolicy::All`] whatever the configuration asks.
    const HONORS_POLICY: bool = false;

    /// A fresh engine and the root strand of the one execution it sees.
    fn start() -> (Self, Self::Strand);

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
    /// Sequential runtime and journal replay only: child returned to
    /// `parent` in DFS order.
    fn task_return(&self, _parent: &mut Self::Strand, _child: &mut Self::Strand) {}

    /// The strand's current position.
    fn pos(s: &Self::Strand) -> Pos;
    /// The strand's future id (0 for the fork-join root region).
    fn future_id(s: &Self::Strand) -> u32;
    /// Does the stored position `a` precede strand `s`? The one query the
    /// whole protocol is built on; the engine resolves `a` here, and only
    /// here on the hot path.
    fn precedes(&self, a: Pos, s: &Self::Strand) -> bool;

    /// English-order comparison of two stored positions (only consulted
    /// under [`ReaderPolicy::PerFutureLR`]).
    fn eng_less(&self, _a: Pos, _b: Pos) -> bool {
        false
    }
    /// Hebrew-order comparison of two stored positions.
    fn heb_less(&self, _a: Pos, _b: Pos) -> bool {
        false
    }
    /// Same-future serial comparison of two stored positions.
    fn pos_precedes(&self, _a: Pos, _b: Pos) -> bool {
        false
    }

    /// Reachability-structure heap bytes (Fig. 5).
    fn heap_bytes(&self) -> usize;
    /// `cp`/`gp` set-layer counters (allocations, payload bytes, merges);
    /// zeros for engines without sets.
    fn set_stats_snapshot(&self) -> sfrd_reach::SetStatsSnapshot {
        sfrd_reach::SetStatsSnapshot::default()
    }
    /// Order-maintenance contention counters (zeros for engines without
    /// OM lists, e.g. MultiBags).
    fn om_stats(&self) -> sfrd_om::OmStats {
        sfrd_om::OmStats::default()
    }
}

/// The unified detector: the on-the-fly protocol of §1/§3 over any
/// [`ReachEngine`], speaking both the per-access and the batched access
/// protocol. `SfDetector`, `FoDetector` and `MbDetector` are type aliases
/// of this struct.
pub struct EventSink<E: ReachEngine> {
    pub(crate) engine: E,
    root: Mutex<Option<E::Strand>>,
    pub(crate) history: Option<PagedHistory<Pos>>,
    /// Detected races.
    pub collector: RaceCollector,
    /// Execution counters (Fig. 3).
    pub counters: Counters,
}

impl<E: ReachEngine> EventSink<E> {
    /// A one-shot detector from an [`EngineConfig`]. Its history, in `full`
    /// mode, keeps readers by `cfg.policy` if the engine
    /// [honours it](ReachEngine::HONORS_POLICY), else by [`ReaderPolicy::All`].
    pub fn from_config(cfg: &EngineConfig) -> Self {
        let (engine, root) = E::start();
        let policy = if E::HONORS_POLICY {
            cfg.policy
        } else {
            ReaderPolicy::All
        };
        Self {
            engine,
            root: Mutex::new(Some(root)),
            history: matches!(cfg.mode, Mode::Full).then(|| PagedHistory::with_policy(policy)),
            collector: RaceCollector::default(),
            counters: Counters::default(),
        }
    }

    /// The reachability engine (diagnostics).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The access history (diagnostics; `None` in reach mode).
    pub fn history(&self) -> Option<&PagedHistory<Pos>> {
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
                    bitmap_merges: set.merges,
                    om_fast_inserts: om.fast_inserts,
                    om_group_locks: om.group_locks,
                    om_global_escalations: om.global_escalations,
                    om_query_retries: om.query_retries,
                    shadow_fast_hits: self.history.as_ref().map_or(0, |h| h.fast_hits()),
                    shadow_cas_retries: self.history.as_ref().map_or(0, |h| h.cas_retries()),
                    page_allocs: self.history.as_ref().map_or(0, |h| h.page_allocs()),
                    set_bytes: set.bytes,
                    set_allocs: set.allocations,
                    ..MetricsSnapshot::default()
                }
            },
        }
    }

    /// Fold a finished batch's tally into the shared counters and the
    /// race collector.
    fn fold(&self, t: Tally) {
        for (counter, n) in [
            (&self.counters.reads, t.reads),
            (&self.counters.writes, t.writes),
            (&self.counters.queries, t.queries),
        ] {
            if n != 0 {
                Counters::add(counter, n);
            }
        }
        self.collector.report_batch(&t.races, t.observed);
    }

    /// Steps two and three of the access ladder, for one retained
    /// accessor `a`: at the strand's own position it is serial by
    /// construction (no query); anywhere else, ask `precedes`.
    #[inline]
    fn ordered(&self, a: Pos, pos: Pos, s: &E::Strand, t: &mut Tally) -> bool {
        a == pos || {
            t.queries += 1;
            self.engine.precedes(a, s)
        }
    }

    /// The read half of the protocol, shared by both access paths: check
    /// the last writer, then retain the reader — unless it reads at the
    /// writer's own position ([`LocEntry::retain_reader`]).
    fn check_read(
        &self,
        e: &mut LocEntry<'_, Pos>,
        addr: u64,
        fut: u32,
        pos: Pos,
        s: &E::Strand,
        t: &mut Tally,
    ) {
        if e.writer.is_some_and(|w| !self.ordered(w, pos, s, t)) {
            t.race(addr, RaceKind::WriteRead);
        }
        let eng = &self.engine;
        e.retain_reader(
            fut,
            pos,
            |a, b| eng.eng_less(*a, *b),
            |a, b| eng.heb_less(*a, *b),
            |a, b| eng.pos_precedes(*a, *b),
        );
    }

    /// The write half: check the last writer and every retained reader,
    /// then open a new write epoch.
    fn check_write(
        &self,
        e: &mut LocEntry<'_, Pos>,
        addr: u64,
        pos: Pos,
        s: &E::Strand,
        t: &mut Tally,
    ) {
        if e.writer.is_some_and(|w| !self.ordered(w, pos, s, t)) {
            t.race(addr, RaceKind::WriteWrite);
        }
        e.readers.for_each(|r| {
            if !self.ordered(r, pos, s, t) {
                t.race(addr, RaceKind::ReadWrite);
            }
        });
        e.begin_write_epoch(pos);
    }

    /// One read, start to finish: the zero-store snapshot test first, the
    /// write section on a miss. Either way the access is tallied — Fig. 3
    /// counts are path-invariant.
    ///
    /// The snapshot test is [`PageCursor::fast_read`]: read-by-current-
    /// writer under either policy, read-same-epoch under `All`; under
    /// `PerFutureLR` the LR no-op test, whose writer
    /// side is decided here by the same [`ordered`](Self::ordered) test as
    /// [`check_read`](Self::check_read)'s, minus the mutation (nothing is
    /// written to the entry). A negative verdict (a race) misses, so the
    /// locked path re-derives and reports exactly once.
    fn read(
        &self,
        cur: &mut PageCursor<'_, Pos>,
        addr: u64,
        fut: u32,
        pos: Pos,
        s: &E::Strand,
        t: &mut Tally,
    ) {
        t.reads += 1;
        let eng = &self.engine;
        let hit = cur.fast_read(
            addr,
            fut,
            pos,
            |a, b| eng.eng_less(*a, *b),
            |a, b| eng.heb_less(*a, *b),
            |a, b| eng.pos_precedes(*a, *b),
            |w| w.is_none_or(|w| self.ordered(w, pos, s, t)),
        );
        if !hit {
            cur.locked(addr, |e| self.check_read(e, addr, fut, pos, s, t));
        }
    }

    /// One write: write-same-epoch from the snapshot, else the section.
    fn write(
        &self,
        cur: &mut PageCursor<'_, Pos>,
        addr: u64,
        pos: Pos,
        s: &E::Strand,
        t: &mut Tally,
    ) {
        t.writes += 1;
        if !cur.fast_write(addr, pos) {
            cur.locked(addr, |e| self.check_write(e, addr, pos, s, t));
        }
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
    fn on_access(&self, s: &mut E::Strand, addr: u64, is_write: bool) {
        self.on_access_batch(s, &[BatchedAccess { addr, is_write }], (0, 0));
    }

    /// The hot path: run the entries in order (per-address program order
    /// for free, no sort) through one [`PageCursor`], so runs of
    /// same-page addresses skip the directory walk; each access first
    /// tries the zero-store snapshot test, and only state-changing ones
    /// enter a slot's write section. No lock is taken on the mapped path,
    /// and the shared counters and the race collector are touched once,
    /// after the loop.
    fn on_access_batch(
        &self,
        s: &mut E::Strand,
        entries: &[BatchedAccess],
        (filtered_reads, filtered_writes): (u64, u64),
    ) {
        let Some(history) = &self.history else { return };
        let pos = E::pos(s);
        let fut = E::future_id(s);
        // Write-combined repeats never reach this sink as entries, but they
        // are real instrumented accesses: fold them into the Fig. 3
        // counters so counts stay schedule- and filter-invariant.
        let mut t = Tally {
            reads: filtered_reads,
            writes: filtered_writes,
            ..Tally::default()
        };
        let mut cur = history.cursor();
        for a in entries {
            if a.is_write {
                self.write(&mut cur, a.addr, pos, s, &mut t);
            } else {
                self.read(&mut cur, a.addr, fut, pos, s, &mut t);
            }
        }
        self.fold(t);
    }
}

#[cfg(test)]
mod tests {
    //! The same-epoch rules and the per-batch folding, driven hook by hook
    //! on one thread so every count is exact. The strands are still
    //! logically parallel wherever the dag says so — determinacy races are
    //! a property of the dag, not of the schedule.

    use super::*;
    use crate::config::EngineConfig;
    use crate::detectors::{FoDetector, MbDetector, SfDetector};
    use sfrd_reach::SfReach;
    use sfrd_runtime::{AccessBatch, Batched, Cx, Runtime};
    use std::sync::Arc;

    const X: u64 = 0x1000;
    const Y: u64 = 0x2000;

    fn full() -> EngineConfig {
        EngineConfig::new(Mode::Full)
    }

    /// `(queries, shadow_fast_hits, reads, writes, total_races)`.
    fn census<E: ReachEngine>(det: &EventSink<E>) -> (u64, u64, u64, u64, u64) {
        let r = det.report();
        (
            r.counts.queries,
            r.metrics.shadow_fast_hits,
            r.counts.reads,
            r.counts.writes,
            r.total_races,
        )
    }

    /// `(writer, retained readers)` of `addr`.
    fn entry<E: ReachEngine>(det: &EventSink<E>, addr: u64) -> (Option<Pos>, usize) {
        let history = det.history().expect("full mode");
        history.locked(addr, |e| (*e.writer, e.readers.len()))
    }

    /// Finish a spawned child and join it into `parent`, the way the
    /// sequential runtime does (MultiBags needs the `task_return`).
    fn join<H: TaskHooks>(det: &H, parent: &mut H::Strand, mut child: H::Strand) {
        det.on_task_end(&mut child);
        det.on_task_return(parent, &mut child);
        det.on_sync(parent, vec![child]);
    }

    /// The rules rest on one premise — equal positions belong to one
    /// task's serial chain — which each engine's id minting establishes,
    /// so they are checked once per engine, not assumed.
    fn same_epoch_rules<E: ReachEngine>(det: EventSink<E>) {
        let mut r = det.root();
        // A serial predecessor writes X, so reads of X have a writer to check.
        let mut w = det.on_spawn(&mut r);
        det.on_access(&mut w, X, true);
        let pw = E::pos(&w);
        join(&det, &mut r, w);

        // Read-same-epoch: five reads at one position = one query, one
        // retained reader, four snapshot hits, five counted reads.
        let before = census(&det);
        for _ in 0..5 {
            det.on_access(&mut r, X, false);
        }
        let after = census(&det);
        assert_eq!(after.0 - before.0, 1, "one precedes for five reads");
        assert_eq!(after.1 - before.1, 4, "four snapshot hits");
        assert_eq!(after.2 - before.2, 5, "reads stay path-invariant");
        assert_eq!(entry(&det, X), (Some(pw), 1));

        // A reader from another strand becomes the last one: the next
        // read by `r` must take the section, and both are retained.
        let mut c = det.on_spawn(&mut r);
        det.on_access(&mut c, X, false);
        let before = census(&det);
        det.on_access(&mut c, X, false);
        assert_eq!(
            census(&det).1 - before.1,
            1,
            "the interloper repeats for free"
        );
        let before = census(&det);
        det.on_access(&mut r, X, false);
        assert_eq!(
            census(&det).1,
            before.1,
            "a different last reader defeats it"
        );
        assert_eq!(entry(&det, X).1, 3);
        det.on_access(&mut r, X, false);
        assert_eq!(census(&det).1 - before.1, 1);
        join(&det, &mut r, c);

        // A write sweeps and clears the readers. Read-by-current-writer:
        // the next read, at the writer's own position, is answered from
        // the snapshot — no query, nothing retained.
        det.on_access(&mut r, X, true);
        let pr = E::pos(&r);
        assert_eq!(entry(&det, X), (Some(pr), 0));
        let before = census(&det);
        det.on_access(&mut r, X, false);
        let after = census(&det);
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 1));
        assert_eq!(entry(&det, X), (Some(pr), 0));

        // Write-same-epoch: so the write after it, and every repeat, finds
        // its own epoch with no reader and leaves it alone.
        let before = census(&det);
        for _ in 0..3 {
            det.on_access(&mut r, X, true);
        }
        let after = census(&det);
        assert_eq!(after.1 - before.1, 3);
        assert_eq!(after.3 - before.3, 3, "writes stay path-invariant");
        assert_eq!(entry(&det, X), (Some(pr), 0));
        assert_eq!(after.4, 0, "a serial program has no race");
    }

    #[test]
    fn same_epoch_rules_hold_for_every_engine() {
        same_epoch_rules(SfDetector::from_config(&full()));
        same_epoch_rules(FoDetector::from_config(&full()));
        same_epoch_rules(MbDetector::from_config(&full()));
    }

    fn kinds<E: ReachEngine>(det: &EventSink<E>) -> Vec<RaceKind> {
        det.report().races.iter().map(|r| r.kind).collect()
    }

    /// Read-by-current-writer with another strand in the picture, driven
    /// in a parallel schedule: a spawned child `c` is the writer, its
    /// parent's continuation `r` the interloper.
    fn current_writer_rule<E: ReachEngine>(det: EventSink<E>) {
        let mut r = det.root();
        let mut c = det.on_spawn(&mut r);
        det.on_access(&mut c, X, true);
        let pc = E::pos(&c);
        let before = census(&det);
        det.on_access(&mut c, X, false);
        let after = census(&det);
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 1));
        assert_eq!(entry(&det, X), (Some(pc), 0), "no reader retained");

        // A reader at another position is recorded like any other, and
        // the writer's own reads go on hitting past it.
        det.on_access(&mut r, X, false);
        assert_eq!(kinds(&det), vec![RaceKind::WriteRead]);
        let retained = entry(&det, X).1;
        assert_ne!(retained, 0, "the interloper is retained");
        let before = census(&det);
        det.on_access(&mut c, X, false);
        assert_eq!(census(&det).1 - before.1, 1);
        assert_eq!(entry(&det, X), (Some(pc), retained));
        // The writer's next write finds a reader: the section sweeps it.
        det.on_access(&mut c, X, true);
        assert_eq!(entry(&det, X), (Some(pc), 0));
        assert_eq!(kinds(&det), vec![RaceKind::WriteRead, RaceKind::ReadWrite]);

        // write → read → parallel write: the unretained read is covered
        // by the writer at the same position.
        det.on_access(&mut c, Y, true);
        det.on_access(&mut c, Y, false);
        det.on_access(&mut r, Y, true);
        let report = det.report();
        assert!(report.races.contains(&Race {
            addr: Y,
            kind: RaceKind::WriteWrite
        }));
        assert_eq!(report.racy_addrs.into_iter().collect::<Vec<_>>(), [X, Y]);
    }

    /// The same three facts in serial depth-first order, which MultiBags
    /// requires — possible there because all of a task's strands share one
    /// position (its union-find element), so the parent is still at the
    /// writer's position after a child ran.
    fn current_writer_rule_depth_first<E: ReachEngine>(det: EventSink<E>) {
        let mut r = det.root();
        det.on_access(&mut r, X, true);
        let pr = E::pos(&r);
        let before = census(&det);
        det.on_access(&mut r, X, false);
        let after = census(&det);
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 1));
        assert_eq!(entry(&det, X), (Some(pr), 0), "no reader retained");

        let mut c = det.on_spawn(&mut r);
        det.on_access(&mut c, X, false);
        det.on_access(&mut c, Y, true);
        det.on_access(&mut c, Y, false);
        det.on_task_end(&mut c);
        det.on_task_return(&mut r, &mut c);
        assert_eq!(entry(&det, X), (Some(pr), 1), "the interloper is retained");
        assert_eq!(det.report().total_races, 0);
        // Returned but not synced: `c` is parallel to what `r` does now.
        let before = census(&det);
        det.on_access(&mut r, X, false);
        assert_eq!(census(&det).1 - before.1, 1);
        assert_eq!(entry(&det, X), (Some(pr), 1));
        det.on_access(&mut r, X, true);
        assert_eq!(entry(&det, X), (Some(E::pos(&r)), 0));
        assert_eq!(kinds(&det), vec![RaceKind::ReadWrite]);
        det.on_access(&mut r, Y, true);
        assert_eq!(kinds(&det), vec![RaceKind::ReadWrite, RaceKind::WriteWrite]);
    }

    #[test]
    fn read_by_current_writer_holds_for_every_position_type_and_policy() {
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            current_writer_rule(SfDetector::from_config(&full().policy(policy)));
        }
        current_writer_rule(FoDetector::from_config(&full()));
        current_writer_rule_depth_first(MbDetector::from_config(&full()));
    }

    /// `PerFutureLR` answers from the same snapshot by its own test: the
    /// (leftmost, rightmost) pair would not move. Its writer ladder still
    /// runs per read — unbatched, that is one query each.
    #[test]
    fn lr_policy_repeats_hit_through_the_same_snapshot() {
        let det = SfDetector::from_config(&full().policy(ReaderPolicy::PerFutureLR));
        let mut r = det.root();
        let mut w = det.on_spawn(&mut r);
        det.on_access(&mut w, X, true);
        let pw = SfReach::pos(&w);
        join(&det, &mut r, w);
        for _ in 0..5 {
            det.on_access(&mut r, X, false);
        }
        let (queries, fast, reads, _, races) = census(&det);
        assert_eq!((queries, fast, reads, races), (5, 4, 5, 0));
        assert_eq!(entry(&det, X), (Some(pw), 2));
        det.on_access(&mut r, X, true);
        det.on_access(&mut r, X, true);
        assert_eq!(census(&det).1, 5, "write-same-epoch is policy-blind");
        assert_eq!(entry(&det, X), (Some(SfReach::pos(&r)), 0));
    }

    /// The batched path takes the same short-circuits and folds its tally
    /// once: a journal-replayed batch of repeats (the live filter would
    /// have absorbed them) costs one query and one retained reader.
    #[test]
    fn batched_repeats_short_circuit_and_fold_once() {
        let det = SfDetector::from_config(&full());
        let mut r = det.root();
        let mut w = det.on_spawn(&mut r);
        det.on_access(&mut w, X, true);
        let pw = SfReach::pos(&w);
        join(&det, &mut r, w);

        let read = BatchedAccess {
            addr: X,
            is_write: false,
        };
        det.on_access_batch(&mut r, &[read; 6], (3, 1));
        let (queries, fast, reads, writes, races) = census(&det);
        assert_eq!((queries, fast), (1, 5));
        assert_eq!(
            (reads, writes),
            (6 + 3, 1 + 1),
            "filtered repeats are counted"
        );
        assert_eq!(races, 0);
        assert_eq!(entry(&det, X), (Some(pw), 1));
    }

    /// A `get` keeps the strand's position and only grows `gp`: a verdict
    /// can only turn from "race" to "ordered", and a race seen before the
    /// `get` is already in the set. So the read after the `get` may skip.
    #[test]
    fn read_get_read_at_an_unchanged_position() {
        let det = SfDetector::from_config(&full());
        let mut r = det.root();
        det.on_access(&mut r, Y, true);
        let mut f = det.on_create(&mut r);
        det.on_access(&mut f, X, true);
        det.on_task_end(&mut f);
        // The continuation is parallel to the future until the get.
        det.on_access(&mut r, X, false);
        det.on_access(&mut r, Y, false);
        let pos = SfReach::pos(&r);
        let before = census(&det);
        assert_eq!(before.4, 1, "X raced with the future's write");
        det.on_get(&mut r, &f);
        assert!(SfReach::pos(&r) == pos, "get moved the position");
        det.on_access(&mut r, X, false);
        det.on_access(&mut r, Y, false);
        let after = census(&det);
        assert_eq!(after.1 - before.1, 2, "both re-reads are same-epoch");
        assert_eq!(after.0, before.0, "no query re-asked");
        let report = det.report();
        assert_eq!(
            report.races,
            vec![Race {
                addr: X,
                kind: RaceKind::WriteRead
            }],
            "the racy set is what the locked path alone would report"
        );
    }

    /// A racy repeat: the set is unchanged, only the repeat count falls.
    #[test]
    fn racy_repeat_is_reported_once_per_epoch() {
        let det = SfDetector::from_config(&full());
        let mut r = det.root();
        let mut c = det.on_spawn(&mut r);
        det.on_access(&mut c, X, true);
        for _ in 0..3 {
            det.on_access(&mut r, X, false);
        }
        let report = det.report();
        assert_eq!(report.total_races, 1);
        assert_eq!(report.racy_addrs.into_iter().collect::<Vec<_>>(), vec![X]);
        assert_eq!(report.counts.reads, 3);
        // The child writes again (same position, but a reader is now
        // retained): the section runs and reports the other direction.
        det.on_access(&mut c, X, true);
        let kinds: Vec<_> = det.report().races.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![RaceKind::WriteRead, RaceKind::ReadWrite]);
    }

    /// One writer sweeping 64 parallel readers observes 64 races in one
    /// access: one collector lock, one distinct pair, repeats counted.
    #[test]
    fn a_batch_folds_its_races_under_one_lock() {
        let det = SfDetector::from_config(&full());
        let mut r = det.root();
        let mut readers = Vec::new();
        for _ in 0..64 {
            let mut c = det.on_spawn(&mut r);
            det.on_access(&mut c, X, false);
            readers.push(c);
        }
        let mut w = det.on_spawn(&mut r);
        det.on_access(&mut w, X, true);
        assert_eq!(det.collector.total(), 64);
        assert_eq!(det.collector.distinct().len(), 1);
        assert_eq!(det.collector.lock_ops(), 1);
    }

    /// Four workers hammering one racy address: the racy set is that
    /// address, and the collector's lock is taken per reporting batch —
    /// never more often than batches were flushed, however many accesses
    /// observed a race.
    #[test]
    fn hammered_racy_address_locks_per_batch_not_per_access() {
        const TASKS: u64 = 32;
        const ROUNDS: u64 = 2_000;
        // Per-task private addresses that evict X from the write-combining
        // filter, so every round's accesses to X reach the sink.
        let evictors: Vec<u64> = (1..)
            .map(|k| X + 8 * k)
            .filter(|&y| {
                let mut probe = AccessBatch::new();
                probe.record(X, true);
                probe.record(y, true);
                probe.record(X, true)
            })
            .take(TASKS as usize)
            .collect();
        let det = Arc::new(Batched::new(SfDetector::from_config(&full())));
        let rt: Runtime<Batched<SfDetector>> = Runtime::new(4);
        rt.run(Arc::clone(&det), |ctx| {
            for &y in &evictors {
                ctx.spawn(move |c| {
                    for _ in 0..ROUNDS {
                        c.record_read(X);
                        c.record_write(X);
                        c.record_write(y);
                    }
                });
            }
            ctx.sync();
        });
        drop(rt);
        let sink = det.inner();
        let report = sink.report();
        assert_eq!(report.racy_addrs.into_iter().collect::<Vec<_>>(), vec![X]);
        assert_eq!(report.counts.reads, TASKS * ROUNDS);
        assert_eq!(report.counts.writes, 2 * TASKS * ROUNDS);
        assert!(report.total_races >= TASKS - 1, "every later task races");
        let flushes = det.stats().flushes;
        let locks = sink.collector.lock_ops();
        assert!(
            locks >= 1 && locks <= flushes,
            "{locks} locks, {flushes} flushes"
        );
        assert!(
            locks * 100 < 3 * TASKS * ROUNDS,
            "{locks} collector locks for {} accesses",
            3 * TASKS * ROUNDS
        );
    }
}
