//! One-call execution of a workload under a chosen detector/runtime
//! configuration — the rows and columns of Fig. 4.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sfrd_runtime::{run_sequential, Cx, NullHooks, PoolStats, Runtime};
use sfrd_shadow::ReaderPolicy;

use crate::config::EngineConfig;
use crate::detectors::{FoDetector, MbDetector, Mode, SfDetector};
use crate::report::RaceReport;

/// A program under test: one generic body that runs on any runtime with
/// any detector (mirroring the paper, where each benchmark is compiled
/// once per detector).
pub trait Workload: Sync {
    /// Execute the workload. Shared state lives in `self` (borrowed for
    /// the whole scope); verification happens after the run.
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C);
}

/// Which detector to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// No detector (the `base` rows).
    None,
    /// SF-Order (this paper).
    SfOrder,
    /// F-Order (general-futures baseline).
    FOrder,
    /// MultiBags (sequential baseline; always runs on the serial elision).
    MultiBags,
}

/// A full execution configuration.
///
/// `#[non_exhaustive]`: assemble via [`DriveConfig::base`] or
/// [`DriveConfig::with`], then [`DriveConfig::policy`] (struct literals
/// and update syntax are reserved to this crate).
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Detector choice.
    pub detector: DetectorKind,
    /// Worker count for parallel execution (MultiBags, whose SP-bags
    /// invariant only holds for the serial depth-first execution, runs on
    /// the serial elision and ignores it).
    pub workers: usize,
    /// What the detector is built from: `reach` or `full`, and the reader
    /// policy (ignored for [`DetectorKind::None`]).
    pub engine: EngineConfig,
}

impl DriveConfig {
    /// Uninstrumented parallel baseline.
    pub fn base(workers: usize) -> Self {
        Self::with(DetectorKind::None, Mode::Full, workers)
    }

    /// A detector in the given mode on `workers` workers.
    pub fn with(detector: DetectorKind, mode: Mode, workers: usize) -> Self {
        Self {
            detector,
            workers,
            engine: EngineConfig::new(mode),
        }
    }

    /// Set the reader-retention policy of the access history.
    pub fn policy(mut self, policy: ReaderPolicy) -> Self {
        self.engine = self.engine.policy(policy);
        self
    }
}

/// What a drive produced.
#[derive(Debug)]
pub struct Outcome {
    /// Wall-clock time of the execution (pool construction excluded).
    pub wall: Duration,
    /// Detector report (None for the base configuration).
    pub report: Option<RaceReport>,
    /// Pool statistics of the run (None on the sequential runtime). The
    /// report's `sched_*` metrics are a copy; a `base` run has no detector
    /// and so no report, and shows what its scheduler did only here.
    pub sched: Option<PoolStats>,
}

/// Run `w` once under `cfg`.
pub fn drive<W: Workload>(w: &W, cfg: DriveConfig) -> Outcome {
    use crate::detectors::ReachOnly;

    /// Time one execution of `w` under hooks `det` on the configured
    /// runtime, returning scheduler statistics when a pool was used.
    fn timed<H: sfrd_runtime::TaskHooks, W: Workload>(
        w: &W,
        det: Arc<H>,
        cfg: &DriveConfig,
    ) -> (Duration, Option<PoolStats>) {
        if cfg.detector == DetectorKind::MultiBags {
            let t0 = Instant::now();
            run_sequential(&*det, |ctx| w.run(ctx));
            (t0.elapsed(), None)
        } else {
            let rt: Runtime<H> = Runtime::new(cfg.workers);
            let t0 = Instant::now();
            rt.run(det, |ctx| w.run(ctx));
            (t0.elapsed(), Some(rt.stats()))
        }
    }

    /// Copy pool statistics into the report's metrics block.
    fn merge_sched(report: &mut RaceReport, stats: Option<PoolStats>) {
        if let Some(s) = stats {
            report.metrics.sched_tasks_run = s.tasks_run;
            report.metrics.sched_steals = s.steals;
            report.metrics.sched_steal_retries = s.steal_retries;
            report.metrics.sched_parks = s.parks;
            report.metrics.sched_wakeups = s.wakeups;
        }
    }

    macro_rules! detector_arm {
        ($make:expr) => {{
            match cfg.engine.mode {
                // The batched pipeline: accesses buffer per strand and
                // flush through the detector's bulk hook.
                Mode::Full => {
                    let det = Arc::new(sfrd_runtime::Batched::new($make(&cfg.engine)));
                    let (wall, stats) = timed(w, Arc::clone(&det), &cfg);
                    let mut report = det.inner().report();
                    let bs = det.stats();
                    report.metrics.batch_flushes = bs.flushes;
                    report.metrics.batched_accesses = bs.recorded;
                    report.metrics.filtered_accesses = bs.filtered;
                    merge_sched(&mut report, stats);
                    Outcome {
                        wall,
                        report: Some(report),
                        sched: stats,
                    }
                }
                // The reach configuration is a separate "build": the
                // ReachOnly wrapper deletes the access path at
                // monomorphization time, like the paper's uninstrumented
                // reach binaries.
                Mode::Reach => {
                    let det = Arc::new(ReachOnly($make(&cfg.engine)));
                    let (wall, stats) = timed(w, Arc::clone(&det), &cfg);
                    let mut report = det.0.report();
                    merge_sched(&mut report, stats);
                    Outcome {
                        wall,
                        report: Some(report),
                        sched: stats,
                    }
                }
            }
        }};
    }

    match cfg.detector {
        DetectorKind::None => {
            let (wall, sched) = timed(w, Arc::new(NullHooks), &cfg);
            Outcome {
                wall,
                report: None,
                sched,
            }
        }
        DetectorKind::SfOrder => detector_arm!(SfDetector::from_config),
        DetectorKind::FOrder => detector_arm!(FoDetector::from_config),
        DetectorKind::MultiBags => detector_arm!(MbDetector::from_config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::ShadowArray;

    /// Race-free: parallel writers to disjoint halves, then a reduction.
    struct Disjoint {
        data: ShadowArray<u64>,
    }

    impl Workload for Disjoint {
        fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
            let n = self.data.len();
            let h = ctx.create(move |c| {
                for i in 0..n / 2 {
                    self.data.write(c, i, i as u64);
                }
                0u64
            });
            for i in n / 2..n {
                self.data.write(ctx, i, i as u64);
            }
            let _ = ctx.get(h);
            let mut sum = 0;
            for i in 0..n {
                sum += self.data.read(ctx, i);
            }
            assert_eq!(sum, (0..n as u64).sum());
        }
    }

    /// Racy: the future and the continuation write the same slot.
    struct Racy {
        data: ShadowArray<u64>,
    }

    impl Workload for Racy {
        fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
            let h = ctx.create(move |c| {
                self.data.write(c, 0, 1);
            });
            self.data.write(ctx, 0, 2);
            ctx.get(h);
        }
    }

    fn all_full_configs() -> Vec<DriveConfig> {
        let sf2 = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 2);
        vec![
            DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1),
            sf2,
            sf2.policy(ReaderPolicy::PerFutureLR),
            DriveConfig::with(DetectorKind::FOrder, Mode::Full, 1),
            DriveConfig::with(DetectorKind::FOrder, Mode::Full, 2),
            DriveConfig::with(DetectorKind::MultiBags, Mode::Full, 1),
        ]
    }

    #[test]
    fn race_free_workload_reports_nothing() {
        let w = Disjoint {
            data: ShadowArray::new(64),
        };
        for cfg in all_full_configs() {
            let out = drive(&w, cfg);
            let rep = out.report.unwrap();
            assert_eq!(rep.total_races, 0, "config {cfg:?}");
            assert!(rep.counts.reads > 0 && rep.counts.writes > 0);
        }
    }

    #[test]
    fn racy_workload_always_detected() {
        for cfg in all_full_configs() {
            let w = Racy {
                data: ShadowArray::new(1),
            };
            let out = drive(&w, cfg);
            let rep = out.report.unwrap();
            assert!(rep.total_races > 0, "config {cfg:?} missed the race");
            assert_eq!(rep.racy_addrs.len(), 1);
        }
    }

    /// The future does `write A; read B; write B` with A and B in one way
    /// of the batch filter; the continuation reads B. B is the only race.
    struct EvictedWrite {
        data: ShadowArray<u64>,
        a: usize,
        b: usize,
    }

    impl Workload for EvictedWrite {
        fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
            let h = ctx.create(move |c| {
                self.data.write(c, self.a, 1);
                self.data.read(c, self.b);
                self.data.write(c, self.b, 2);
            });
            self.data.read(ctx, self.b);
            ctx.get(h);
        }
    }

    /// Two elements of `data`, `a < b`, in one filter way. Found through
    /// the filter itself: after a write to every element, re-recording an
    /// element is combined away unless a later one took its way, and a
    /// combined repeat changes nothing.
    fn same_way_pair(data: &ShadowArray<u64>) -> (usize, usize) {
        let mut all = sfrd_runtime::AccessBatch::new();
        for i in 0..data.len() {
            all.record(data.addr(i), true);
        }
        let a = (0..data.len())
            .find(|&i| all.record(data.addr(i), true))
            .expect("more elements than ways: two share one");
        let mut probe = sfrd_runtime::AccessBatch::new();
        probe.record(data.addr(a), true);
        let b = (a + 1..data.len())
            .find(|&j| {
                probe.record(data.addr(j), true);
                probe.record(data.addr(a), true)
            })
            .expect("a later element took a's way");
        (a, b)
    }

    /// The filter once let B's read take over the `wrote` flag of the A it
    /// evicted and combined B's write away: the detector saw two reads.
    #[test]
    fn a_write_behind_an_evicting_read_still_races() {
        for cfg in all_full_configs() {
            let data: ShadowArray<u64> = ShadowArray::new(sfrd_runtime::FILTER_WAYS + 1);
            let (a, b) = same_way_pair(&data);
            let w = EvictedWrite { data, a, b };
            let rep = drive(&w, cfg).report.unwrap();
            assert_eq!(
                rep.racy_addrs.into_iter().collect::<Vec<_>>(),
                vec![w.data.addr(b)],
                "config {cfg:?}"
            );
        }
    }

    #[test]
    fn reach_mode_skips_access_work() {
        let w = Racy {
            data: ShadowArray::new(1),
        };
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 2));
        let rep = out.report.unwrap();
        assert_eq!(rep.total_races, 0, "reach mode performs no access checks");
        assert_eq!(rep.counts.reads + rep.counts.writes, 0);
        assert_eq!(rep.counts.futures, 1);
        assert_eq!(rep.history_bytes, 0);
    }

    #[test]
    fn base_config_runs_without_report() {
        let w = Disjoint {
            data: ShadowArray::new(32),
        };
        let out = drive(&w, DriveConfig::base(2));
        assert!(out.report.is_none());
        assert_eq!(out.sched.map(|s| s.tasks_run), Some(2), "root + future");
    }

    /// 400 futures of 8 one-access children each, gotten one at a time.
    struct SpawnHeavy {
        data: ShadowArray<u64>,
    }

    impl Workload for SpawnHeavy {
        fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
            for i in 0..self.data.len() / 8 {
                let h = ctx.create(move |c| {
                    for j in 0..8 {
                        c.spawn(move |c| self.data.write(c, i * 8 + j, i as u64));
                    }
                    c.sync();
                });
                ctx.get(h);
            }
        }
    }

    /// A one-worker run is its caller's thread and never parks — with a
    /// detector attached or not.
    #[test]
    fn one_worker_drive_does_not_park_per_task() {
        let w = SpawnHeavy {
            data: ShadowArray::new(3200),
        };
        let full = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1));
        let rep = full.report.unwrap();
        assert_eq!(rep.total_races, 0);
        assert_eq!(rep.metrics.sched_tasks_run, 1 + 400 * 9);
        assert_eq!(rep.metrics.sched_parks, 0, "{:?}", full.sched);

        let base = drive(&w, DriveConfig::base(1)).sched.unwrap();
        assert_eq!(base.tasks_run, 1 + 400 * 9);
        assert_eq!((base.parks, base.wakeups), (0, 0), "{base:?}");
    }

    /// Asking MultiBags for four workers still runs it on the serial
    /// elision: no pool, and the race is found.
    #[test]
    fn multibags_runs_on_the_serial_elision() {
        let w = Racy {
            data: ShadowArray::new(1),
        };
        let out = drive(
            &w,
            DriveConfig::with(DetectorKind::MultiBags, Mode::Full, 4),
        );
        assert!(out.sched.is_none(), "{:?}", out.sched);
        assert_eq!(out.report.unwrap().racy_addrs.len(), 1);
        let fo = drive(&w, DriveConfig::with(DetectorKind::FOrder, Mode::Full, 4));
        assert!(fo.sched.is_some());
    }
}
