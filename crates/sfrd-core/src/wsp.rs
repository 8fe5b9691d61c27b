//! **WSP-Order** — the fork-join-only detector of §2, as a fourth
//! pluggable detector.
//!
//! For programs using only `spawn`/`sync`, the computation dag *is* a
//! series-parallel dag, the pseudo-SP-dag equals the real dag, and the two
//! order-maintenance total orders answer every reachability query exactly
//! — no `cp`/`gp` needed at all. This detector is the
//! asymptotically-optimal `O(T1/P + T∞)` baseline (Utterback et al.,
//! SPAA '16) and serves as the ablation point for "what does structured-
//! futures support cost SF-Order": identical machinery minus the future
//! bookkeeping. Like the other three detectors it is an
//! [`EventSink`](crate::events::EventSink) alias — the detection protocol
//! is shared; only the engine differs.
//!
//! Using futures under this detector is a programming error and panics.

use sfrd_reach::{SpOrder, SpPos, SpTask};
use sfrd_shadow::ReaderPolicy;

use crate::config::EngineConfig;
use crate::detectors::Mode;
use crate::events::{EventSink, ReachEngine};

/// Per-task WSP-Order state.
pub struct WspStrand {
    sp: SpTask,
}

/// SP-order reachability (fork-join only) as a pluggable engine.
pub struct WspEngine(pub(crate) SpOrder);

impl WspEngine {
    fn new() -> (Self, WspStrand) {
        let (sp, root) = SpOrder::new();
        (Self(sp), WspStrand { sp: root })
    }
}

impl ReachEngine for WspEngine {
    type Strand = WspStrand;
    type Pos = SpPos;

    fn spawn(&self, parent: &mut WspStrand) -> WspStrand {
        WspStrand {
            sp: self.0.fork(&mut parent.sp),
        }
    }
    fn create(&self, _parent: &mut WspStrand) -> WspStrand {
        panic!(
            "WSP-Order handles fork-join parallelism only; this program uses futures — \
             run it under SF-Order instead"
        );
    }
    fn sync(&self, s: &mut WspStrand, _children: &[WspStrand]) {
        self.0.sync(&mut s.sp);
    }
    fn get(&self, _s: &mut WspStrand, _done: &WspStrand) {
        unreachable!("no create, hence no get");
    }
    fn task_end(&self, s: &mut WspStrand) {
        self.0.sync(&mut s.sp);
    }
    fn pos(s: &WspStrand) -> SpPos {
        s.sp.pos()
    }
    fn future_id(_s: &WspStrand) -> u32 {
        0 // the whole SP-dag is one "future"
    }
    fn precedes(&self, a: SpPos, s: &WspStrand) -> bool {
        self.0.precedes_eq(a, s.sp.pos())
    }
    fn eng_less(&self, a: &SpPos, b: &SpPos) -> bool {
        self.0.eng_precedes(*a, *b)
    }
    fn heb_less(&self, a: &SpPos, b: &SpPos) -> bool {
        self.0.heb_precedes(*a, *b)
    }
    fn pos_precedes(&self, a: &SpPos, b: &SpPos) -> bool {
        self.0.precedes_eq(*a, *b)
    }
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
    fn om_stats(&self) -> sfrd_om::OmStats {
        self.0.om_stats()
    }
}

/// The fork-join-only detector.
pub type WspDetector = EventSink<WspEngine>;

impl WspDetector {
    /// Build a one-shot detector from an [`EngineConfig`].
    pub fn from_config(cfg: &EngineConfig) -> Self {
        EventSink::build(WspEngine::new(), cfg.mode, cfg.policy)
    }

    /// Build a one-shot detector. The classic WSP-Order access history is
    /// the leftmost/rightmost pair — [`ReaderPolicy::PerFutureLR`] with a
    /// single "future" (the whole SP-dag) degenerates to exactly that.
    pub fn new(mode: Mode, policy: ReaderPolicy) -> Self {
        Self::from_config(&EngineConfig::new(mode).policy(policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RaceReport;
    use sfrd_runtime::{Cx, Runtime};
    use std::sync::Arc;

    fn run_wsp<F>(workers: usize, policy: ReaderPolicy, f: F) -> RaceReport
    where
        F: for<'e> FnOnce(&mut sfrd_runtime::ParCtx<'e, WspDetector>) + Send,
    {
        let det = Arc::new(WspDetector::new(Mode::Full, policy));
        let rt: Runtime<WspDetector> = Runtime::new(workers);
        rt.run(Arc::clone(&det), f);
        drop(rt);
        det.report()
    }

    #[test]
    fn detects_fork_join_race() {
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let rep = run_wsp(2, policy, |ctx| {
                ctx.spawn(|c| c.record_write(64));
                ctx.record_write(64);
                ctx.sync();
            });
            assert!(rep.total_races > 0, "{policy:?}");
        }
    }

    #[test]
    fn synced_accesses_are_clean() {
        let rep = run_wsp(2, ReaderPolicy::PerFutureLR, |ctx| {
            ctx.spawn(|c| c.record_write(64));
            ctx.sync();
            ctx.record_write(64);
            ctx.spawn(|c| c.record_read(64));
            ctx.spawn(|c| c.record_read(64));
            ctx.sync();
            ctx.record_write(64);
        });
        assert_eq!(rep.total_races, 0);
        assert_eq!(rep.counts.spawns, 3);
    }

    #[test]
    fn lr_reader_pair_still_catches_middle_reader_races() {
        // Three parallel readers; a later parallel writer must race with
        // them even though only the leftmost/rightmost pair is retained.
        let rep = run_wsp(2, ReaderPolicy::PerFutureLR, |ctx| {
            for _ in 0..3 {
                ctx.spawn(|c| c.record_read(8));
            }
            // A fourth parallel branch writes.
            ctx.spawn(|c| c.record_write(8));
            ctx.sync();
        });
        assert!(rep.total_races > 0);
    }

    #[test]
    #[should_panic(expected = "fork-join parallelism only")]
    fn futures_are_rejected() {
        let det = Arc::new(WspDetector::new(Mode::Full, ReaderPolicy::All));
        let rt: Runtime<WspDetector> = Runtime::new(1);
        rt.run(Arc::clone(&det), |ctx| {
            let h = ctx.create(|_| 1u8);
            ctx.get(h);
        });
    }
}
