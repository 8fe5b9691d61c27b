//! The three on-the-fly determinacy race detectors, as
//! [`TaskHooks`](sfrd_runtime::TaskHooks) (via the unified [`EventSink`]).
//!
//! Each detector couples one reachability engine (`sfrd-reach`) with the
//! access history (`sfrd-shadow`) and implements the standard on-the-fly
//! protocol (§1, §3):
//!
//! * **read `l` by `v`**: look up `l`'s last writer `w`; if `w ⊀ v`, report
//!   a race; retain `v` as a reader of `l`;
//! * **write `l` by `v`**: check the last writer and every retained reader
//!   against `v`; then `v` becomes the writer and the readers are dropped.
//!
//! The protocol itself lives once, in [`EventSink`](crate::events); this
//! module provides the engine adapters — [`SfEngine`], [`FoEngine`],
//! [`MbEngine`] — and the detector aliases over them.
//!
//! Configurations (Fig. 4): `Reach` maintains only the reachability
//! structures (no access-history work at all); `Full` does everything.
//!
//! A detector instance drives exactly one execution (`root()` hands out the
//! root strand once) but its report can be read afterwards.

use parking_lot::Mutex;

use sfrd_reach::{FoReach, FoStrand, MbReach, MbStrand, Pos, SetStatsSnapshot, SfReach, SfStrand};
use sfrd_shadow::ReaderPolicy;

use crate::config::EngineConfig;
use crate::events::{EventSink, ReachEngine};

/// Detector configuration of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reachability maintenance only (no access checks).
    Reach,
    /// Full race detection.
    Full,
}

/// Strip a detector's memory instrumentation at compile time.
///
/// The paper's `reach` configuration is a separate *build* with no access
/// instrumentation emitted at all; a runtime `if` per access would charge
/// it ~2 ns x 10^8 accesses it should not pay. Wrapping a detector in
/// `ReachOnly` replaces `on_access` with an empty inlined body, and the
/// default `on_access_batch` loop over it with nothing —
/// monomorphization deletes the access path exactly like the paper's
/// separate compilation does — while every parallel-construct hook still
/// reaches the inner detector.
pub struct ReachOnly<H>(pub H);

impl<H: sfrd_runtime::TaskHooks> sfrd_runtime::TaskHooks for ReachOnly<H> {
    type Strand = H::Strand;

    fn root(&self) -> Self::Strand {
        self.0.root()
    }
    fn on_spawn(&self, p: &mut Self::Strand) -> Self::Strand {
        self.0.on_spawn(p)
    }
    fn on_create(&self, p: &mut Self::Strand) -> Self::Strand {
        self.0.on_create(p)
    }
    fn on_sync(&self, s: &mut Self::Strand, children: Vec<Self::Strand>) {
        self.0.on_sync(s, children)
    }
    fn on_get(&self, s: &mut Self::Strand, done: &Self::Strand) {
        self.0.on_get(s, done)
    }
    fn on_task_end(&self, s: &mut Self::Strand) {
        self.0.on_task_end(s)
    }
    fn on_task_return(&self, p: &mut Self::Strand, c: &mut Self::Strand) {
        self.0.on_task_return(p, c)
    }
    #[inline(always)]
    fn on_access(&self, _: &mut Self::Strand, _: u64, _: bool) {}
}

// ================================================================ SF-Order

/// SF-Order reachability as a pluggable engine.
pub struct SfEngine(pub(crate) SfReach);

impl SfEngine {
    fn new() -> (Self, SfStrand) {
        let (reach, root) = SfReach::new();
        (Self(reach), root)
    }
}

impl ReachEngine for SfEngine {
    type Strand = SfStrand;

    fn spawn(&self, parent: &mut SfStrand) -> SfStrand {
        self.0.spawn(parent)
    }
    fn create(&self, parent: &mut SfStrand) -> SfStrand {
        self.0.create(parent)
    }
    fn sync(&self, s: &mut SfStrand, children: &[SfStrand]) {
        self.0.sync(s, children.iter());
    }
    fn get(&self, s: &mut SfStrand, done: &SfStrand) {
        self.0.get(s, done);
    }
    fn task_end(&self, s: &mut SfStrand) {
        self.0.task_end(s);
    }
    fn pos(s: &SfStrand) -> Pos {
        s.pos_id()
    }
    fn future_id(s: &SfStrand) -> u32 {
        s.future().0
    }
    fn precedes(&self, a: Pos, s: &SfStrand) -> bool {
        self.0.precedes_id(a, s)
    }
    fn eng_less(&self, a: Pos, b: Pos) -> bool {
        self.0.sp_order().eng_precedes(a, b)
    }
    fn heb_less(&self, a: Pos, b: Pos) -> bool {
        self.0.sp_order().heb_precedes(a, b)
    }
    fn pos_precedes(&self, a: Pos, b: Pos) -> bool {
        let sp = self.0.sp_order();
        sp.precedes_eq(sp.sp_pos(a), sp.sp_pos(b))
    }
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
    fn set_stats_snapshot(&self) -> SetStatsSnapshot {
        self.0.set_stats().snapshot()
    }
    fn om_stats(&self) -> sfrd_om::OmStats {
        self.0.sp_order().om_stats()
    }
}

/// The paper's detector: SF-Order reachability + access history.
pub type SfDetector = EventSink<SfEngine>;

impl SfDetector {
    /// Build a one-shot detector from an [`EngineConfig`]. SF-Order honors
    /// every field: `policy` selects the §3.5 bounded reader set or the
    /// ship-it-all variant the paper's implementation uses.
    pub fn from_config(cfg: &EngineConfig) -> Self {
        EventSink::build(SfEngine::new(), cfg.mode, cfg.policy)
    }

    /// Reachability engine (diagnostics).
    pub fn reach(&self) -> &SfReach {
        &self.engine.0
    }
}

// ================================================================= F-Order

/// F-Order reachability as a pluggable engine.
pub struct FoEngine(pub(crate) FoReach);

impl FoEngine {
    fn new() -> (Self, FoStrand) {
        let (reach, root) = FoReach::new();
        (Self(reach), root)
    }
}

impl ReachEngine for FoEngine {
    type Strand = FoStrand;

    fn spawn(&self, parent: &mut FoStrand) -> FoStrand {
        self.0.spawn(parent)
    }
    fn create(&self, parent: &mut FoStrand) -> FoStrand {
        self.0.create(parent)
    }
    fn sync(&self, s: &mut FoStrand, children: &[FoStrand]) {
        self.0.sync(s, children.iter());
    }
    fn get(&self, s: &mut FoStrand, done: &FoStrand) {
        self.0.get(s, done);
    }
    fn task_end(&self, s: &mut FoStrand) {
        self.0.task_end(s);
    }
    fn pos(s: &FoStrand) -> Pos {
        s.pos_id()
    }
    fn future_id(s: &FoStrand) -> u32 {
        s.future().0
    }
    fn precedes(&self, a: Pos, s: &FoStrand) -> bool {
        self.0.precedes_id(a, s)
    }
    // F-Order cannot bound readers: the LR comparators stay at the
    // constant-false defaults (policy is always `All`).
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
    fn set_stats_snapshot(&self) -> SetStatsSnapshot {
        self.0.set_stats().snapshot()
    }
    fn om_stats(&self) -> sfrd_om::OmStats {
        self.0.sp_order().om_stats()
    }
}

/// The general-futures baseline detector: F-Order reachability + all-reader
/// access history.
pub type FoDetector = EventSink<FoEngine>;

impl FoDetector {
    /// Build a one-shot detector from an [`EngineConfig`]. F-Order cannot
    /// bound readers: the policy is always [`ReaderPolicy::All`].
    pub fn from_config(cfg: &EngineConfig) -> Self {
        EventSink::build(FoEngine::new(), cfg.mode, ReaderPolicy::All)
    }

    /// Reachability engine (diagnostics).
    pub fn reach(&self) -> &FoReach {
        &self.engine.0
    }
}

// =============================================================== MultiBags

/// MultiBags (SP-bags union-find) reachability as a pluggable engine.
/// Must run under the sequential runtime (`run_sequential`); the engine is
/// behind a mutex only to satisfy the `&self` interface — it is never
/// contended.
pub struct MbEngine(pub(crate) Mutex<MbReach>);

impl MbEngine {
    fn new() -> (Self, MbStrand) {
        let (reach, root) = MbReach::new();
        (Self(Mutex::new(reach)), root)
    }
}

impl ReachEngine for MbEngine {
    type Strand = MbStrand;

    fn spawn(&self, parent: &mut MbStrand) -> MbStrand {
        self.0.lock().spawn(parent)
    }
    fn create(&self, parent: &mut MbStrand) -> MbStrand {
        self.0.lock().create(parent)
    }
    fn sync(&self, s: &mut MbStrand, children: &[MbStrand]) {
        let mut reach = self.0.lock();
        for c in children {
            reach.absorb_gp(s, c.gp());
        }
        reach.sync(s);
    }
    fn get(&self, s: &mut MbStrand, done: &MbStrand) {
        self.0.lock().get(s, done);
    }
    fn task_end(&self, s: &mut MbStrand) {
        self.0.lock().task_end(s);
    }
    fn task_return(&self, parent: &mut MbStrand, child: &mut MbStrand) {
        self.0.lock().task_return(parent, child);
    }
    fn pos(s: &MbStrand) -> Pos {
        s.pos_id()
    }
    fn future_id(s: &MbStrand) -> u32 {
        s.future().0
    }
    fn precedes(&self, a: Pos, s: &MbStrand) -> bool {
        self.0.lock().precedes_id(a, s)
    }
    fn heap_bytes(&self) -> usize {
        self.0.lock().heap_bytes()
    }
    fn set_stats_snapshot(&self) -> SetStatsSnapshot {
        self.0.lock().set_stats().snapshot()
    }
}

/// The sequential baseline detector: SP-bags union-find reachability.
pub type MbDetector = EventSink<MbEngine>;

impl MbDetector {
    /// Build a one-shot detector from an [`EngineConfig`]. MultiBags keeps
    /// all readers and has no order-maintenance structure, so only `mode`
    /// applies.
    pub fn from_config(cfg: &EngineConfig) -> Self {
        EventSink::build(MbEngine::new(), cfg.mode, ReaderPolicy::All)
    }

    /// Reachability engine (diagnostics), behind the detector's own lock —
    /// never contended under the sequential runtime.
    pub fn reach(&self) -> impl std::ops::Deref<Target = MbReach> + '_ {
        self.engine.0.lock()
    }
}
