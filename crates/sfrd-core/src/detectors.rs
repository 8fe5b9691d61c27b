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
//! module implements [`ReachEngine`] on the three `sfrd-reach` engines
//! themselves — [`SfReach`], [`FoReach`] and a mutex around [`MbReach`] —
//! and names the detector aliases over them.
//!
//! Configurations (Fig. 4): `Reach` maintains only the reachability
//! structures (no access-history work at all); `Full` does everything.
//!
//! A detector instance drives exactly one execution (`root()` hands out the
//! root strand once) but its report can be read afterwards.

use parking_lot::Mutex;

use sfrd_reach::{FoReach, FoStrand, MbReach, MbStrand, Pos, SetStatsSnapshot, SfReach, SfStrand};

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

impl ReachEngine for SfReach {
    type Strand = SfStrand;
    const HONORS_POLICY: bool = true;

    fn start() -> (Self, SfStrand) {
        SfReach::new()
    }
    fn spawn(&self, parent: &mut SfStrand) -> SfStrand {
        SfReach::spawn(self, parent)
    }
    fn create(&self, parent: &mut SfStrand) -> SfStrand {
        SfReach::create(self, parent)
    }
    fn sync(&self, s: &mut SfStrand, children: &[SfStrand]) {
        SfReach::sync(self, s, children.iter());
    }
    fn get(&self, s: &mut SfStrand, done: &SfStrand) {
        SfReach::get(self, s, done);
    }
    fn task_end(&self, s: &mut SfStrand) {
        SfReach::task_end(self, s);
    }
    fn pos(s: &SfStrand) -> Pos {
        s.pos_id()
    }
    fn future_id(s: &SfStrand) -> u32 {
        s.future().0
    }
    fn precedes(&self, a: Pos, s: &SfStrand) -> bool {
        self.precedes_id(a, s)
    }
    fn eng_less(&self, a: Pos, b: Pos) -> bool {
        self.sp_order().eng_precedes(a, b)
    }
    fn heb_less(&self, a: Pos, b: Pos) -> bool {
        self.sp_order().heb_precedes(a, b)
    }
    fn pos_precedes(&self, a: Pos, b: Pos) -> bool {
        let sp = self.sp_order();
        sp.precedes_eq(sp.sp_pos(a), sp.sp_pos(b))
    }
    fn heap_bytes(&self) -> usize {
        SfReach::heap_bytes(self)
    }
    fn set_stats_snapshot(&self) -> SetStatsSnapshot {
        self.set_stats().snapshot()
    }
    fn om_stats(&self) -> sfrd_om::OmStats {
        self.sp_order().om_stats()
    }
}

/// The paper's detector: SF-Order reachability + access history, keeping
/// the §3.5 bounded reader set or, as the paper's implementation does,
/// every reader, as [`EngineConfig::policy`](crate::EngineConfig::policy) says.
pub type SfDetector = EventSink<SfReach>;

// ================================================================= F-Order

impl ReachEngine for FoReach {
    type Strand = FoStrand;

    fn start() -> (Self, FoStrand) {
        FoReach::new()
    }
    fn spawn(&self, parent: &mut FoStrand) -> FoStrand {
        FoReach::spawn(self, parent)
    }
    fn create(&self, parent: &mut FoStrand) -> FoStrand {
        FoReach::create(self, parent)
    }
    fn sync(&self, s: &mut FoStrand, children: &[FoStrand]) {
        FoReach::sync(self, s, children.iter());
    }
    fn get(&self, s: &mut FoStrand, done: &FoStrand) {
        FoReach::get(self, s, done);
    }
    fn task_end(&self, s: &mut FoStrand) {
        FoReach::task_end(self, s);
    }
    fn pos(s: &FoStrand) -> Pos {
        s.pos_id()
    }
    fn future_id(s: &FoStrand) -> u32 {
        s.future().0
    }
    fn precedes(&self, a: Pos, s: &FoStrand) -> bool {
        self.precedes_id(a, s)
    }
    // F-Order cannot bound readers: the LR comparators stay at the
    // constant-false defaults (policy is always `All`).
    fn heap_bytes(&self) -> usize {
        FoReach::heap_bytes(self)
    }
    fn set_stats_snapshot(&self) -> SetStatsSnapshot {
        self.set_stats().snapshot()
    }
    fn om_stats(&self) -> sfrd_om::OmStats {
        self.sp_order().om_stats()
    }
}

/// The general-futures baseline detector: F-Order reachability + all-reader
/// access history (F-Order cannot bound readers).
pub type FoDetector = EventSink<FoReach>;

// =============================================================== MultiBags

/// MultiBags (SP-bags union-find) reachability. Sound only in serial
/// elision: `run_sequential` live, or any journal's replay. The engine is
/// behind a mutex only to satisfy the `&self` interface — never contended.
impl ReachEngine for Mutex<MbReach> {
    type Strand = MbStrand;

    fn start() -> (Self, MbStrand) {
        let (reach, root) = MbReach::new();
        (Mutex::new(reach), root)
    }
    fn spawn(&self, parent: &mut MbStrand) -> MbStrand {
        self.lock().spawn(parent)
    }
    fn create(&self, parent: &mut MbStrand) -> MbStrand {
        self.lock().create(parent)
    }
    fn sync(&self, s: &mut MbStrand, children: &[MbStrand]) {
        let mut reach = self.lock();
        for c in children {
            reach.absorb_gp(s, c.gp());
        }
        reach.sync(s);
    }
    fn get(&self, s: &mut MbStrand, done: &MbStrand) {
        self.lock().get(s, done);
    }
    fn task_end(&self, s: &mut MbStrand) {
        self.lock().task_end(s);
    }
    fn task_return(&self, parent: &mut MbStrand, child: &mut MbStrand) {
        self.lock().task_return(parent, child);
    }
    fn pos(s: &MbStrand) -> Pos {
        s.pos_id()
    }
    fn future_id(s: &MbStrand) -> u32 {
        s.future().0
    }
    fn precedes(&self, a: Pos, s: &MbStrand) -> bool {
        self.lock().precedes_id(a, s)
    }
    fn heap_bytes(&self) -> usize {
        self.lock().heap_bytes()
    }
    fn set_stats_snapshot(&self) -> SetStatsSnapshot {
        self.lock().set_stats().snapshot()
    }
}

/// The sequential baseline detector: SP-bags union-find reachability. It
/// keeps all readers and has no order-maintenance structure, so only
/// `mode` applies.
pub type MbDetector = EventSink<Mutex<MbReach>>;
