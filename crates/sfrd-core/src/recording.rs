//! Dag recording as runtime hooks.
//!
//! [`RecordingHooks`] wraps the `sfrd-dag` [`Recorder`] in the
//! [`TaskHooks`] interface, so any execution — parallel included — can
//! capture its SF-dag and access log. Run beside a detector (the root
//! suites' ground-truth probe), it lets tests compare the detector's
//! verdicts against the exact offline oracle *for the very schedule that
//! ran*. It also powers the work/span accounting in the benchmark harness
//! ([`Dag::work_span`]).
//!
//! [`Dag::work_span`]: sfrd_dag::Dag::work_span

use parking_lot::Mutex;
use std::sync::Arc;

use sfrd_dag::{RecStrand, RecordedProgram, Recorder};
use sfrd_runtime::{BatchedAccess, TaskHooks};

/// Hooks that record the executed SF-dag and access log.
pub struct RecordingHooks {
    rec: Recorder,
    root: Mutex<Option<RecStrand>>,
}

impl RecordingHooks {
    /// New one-shot recorder hooks.
    pub fn new() -> Self {
        let (rec, root) = Recorder::new();
        Self {
            rec,
            root: Mutex::new(Some(root)),
        }
    }

    /// Extract the recorded program (sole-owner operation; call after the
    /// run, once every clone of the Arc is gone).
    pub fn finish(this: Arc<Self>) -> RecordedProgram {
        let hooks = Arc::try_unwrap(this)
            .unwrap_or_else(|_| panic!("RecordingHooks still shared; drop other Arcs first"));
        hooks.rec.finish()
    }
}

impl Default for RecordingHooks {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskHooks for RecordingHooks {
    type Strand = RecStrand;

    fn root(&self) -> RecStrand {
        self.root.lock().take().expect("RecordingHooks is one-shot")
    }
    fn on_spawn(&self, parent: &mut RecStrand) -> RecStrand {
        self.rec.spawn(parent)
    }
    fn on_create(&self, parent: &mut RecStrand) -> RecStrand {
        self.rec.create(parent)
    }
    fn on_sync(&self, s: &mut RecStrand, children: Vec<RecStrand>) {
        self.rec.sync(s, &children);
    }
    fn on_get(&self, s: &mut RecStrand, done: &RecStrand) {
        self.rec.get(s, done);
    }
    fn on_task_end(&self, s: &mut RecStrand) {
        self.rec.task_end(s);
    }
    fn on_access(&self, s: &mut RecStrand, addr: u64, is_write: bool) {
        self.rec.access(s, addr, is_write);
    }
    /// Every access of a batch is at the strand's current node, so the
    /// counts it write-combined away are credited there as weight:
    /// work/span from a batched run or journal equal an unbatched one's.
    fn on_access_batch(&self, s: &mut RecStrand, entries: &[BatchedAccess], filtered: (u64, u64)) {
        self.rec.credit(s, filtered.0 + filtered.1);
        for a in entries {
            self.rec.access(s, a.addr, a.is_write);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenWorkload, Workload};
    use rand::prelude::*;
    use sfrd_dag::generator::{GenParams, GenProgram};
    use sfrd_runtime::{run_sequential, Cx, Runtime};

    /// The parallel-recorded dag must match the serial execution's dag in
    /// size and race set (node numbering may differ across schedules, but
    /// our runtime events are deterministic per task, and the recorder
    /// serializes them; counts and race addresses are schedule-invariant).
    #[test]
    fn parallel_recording_matches_serial_replay() {
        let mut rng = StdRng::seed_from_u64(99);
        let rt: Runtime<RecordingHooks> = Runtime::new(2);
        for _ in 0..10 {
            let w = GenWorkload(GenProgram::random(&mut rng, &GenParams::default()));

            let hooks = RecordingHooks::new();
            run_sequential(&hooks, |ctx| w.run(ctx));
            let serial = RecordingHooks::finish(Arc::new(hooks));

            let hooks = Arc::new(RecordingHooks::new());
            rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
            let parallel = RecordingHooks::finish(hooks);

            assert_eq!(parallel.dag.node_count(), serial.dag.node_count());
            assert_eq!(parallel.dag.future_count(), serial.dag.future_count());
            assert_eq!(parallel.log.len(), serial.log.len());
            parallel.validate().unwrap();
            let racy_par: std::collections::BTreeSet<u64> =
                parallel.races().iter().map(|r| r.addr).collect();
            let racy_ser: std::collections::BTreeSet<u64> =
                serial.races().iter().map(|r| r.addr).collect();
            assert_eq!(racy_par, racy_ser);
        }
    }

    #[test]
    fn sequential_runtime_recording_works_too() {
        let hooks = RecordingHooks::new();
        run_sequential(&hooks, |ctx| {
            ctx.record_write(4);
            let h = ctx.create(|c| c.record_write(4));
            ctx.record_read(8);
            ctx.get(h);
        });
        let rec = Arc::new(hooks);
        let prog = RecordingHooks::finish(rec);
        assert_eq!(prog.dag.future_count(), 2);
        assert_eq!(prog.log.len(), 3);
        assert!(
            prog.races().is_empty(),
            "write-get-ordered accesses don't race"
        );
    }
}
