//! Record → journal → replay into the recorder → offline analysis, end to
//! end, on real workloads and on parallel executions.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::prelude::*;

use sfrd::core::{drive, DetectorKind, DriveConfig, Mode, RecordingHooks, Workload};
use sfrd::core::{EngineConfig, FoDetector, GenWorkload, MbDetector, SfDetector};
use sfrd::dag::generator::{GenParams, GenProgram};
use sfrd::dag::RecordedProgram;
use sfrd::runtime::{run_sequential, Batched, Runtime, TaskHooks};
use sfrd::trace::{replay_journal, JournalError, JournalHooks, JournalReader, JournalWriter};
use sfrd::workloads::{make_bench, Scale, BENCH_NAMES};

type Recording = Batched<JournalHooks<Vec<u8>>>;

/// `trace_tool record`'s setup: journal hooks under the batch pipeline.
fn recording() -> Recording {
    Batched::new(JournalHooks::new(
        JournalWriter::new(Vec::new(), "trace_integration").unwrap(),
    ))
}

/// `trace_tool detect --detector oracle`: the journal replayed into the
/// dag recorder.
fn replay_recorded(hooks: Recording) -> RecordedProgram {
    let bytes = hooks.into_inner().finish_owned().unwrap();
    let sink = RecordingHooks::new();
    replay_journal(&mut JournalReader::new(&bytes[..]).unwrap(), &sink).unwrap();
    RecordingHooks::finish(Arc::new(sink))
}

/// Every benchmark's batched journal replays to the dag a direct
/// recording builds: same futures, same work and span (the repeats the
/// batch filter combined away are credited as weight), no races.
#[test]
fn suite_traces_roundtrip() {
    for name in BENCH_NAMES {
        let hooks = RecordingHooks::new();
        let w = make_bench(name, Scale::Small, 11);
        run_sequential(&hooks, |ctx| w.run(ctx));
        assert!(w.verify_ok());
        let prog = RecordingHooks::finish(Arc::new(hooks));

        let hooks = recording();
        let w = make_bench(name, Scale::Small, 11);
        run_sequential(&hooks, |ctx| w.run(ctx));
        assert!(w.verify_ok());
        let back = replay_recorded(hooks);
        assert!(back.validate().is_ok(), "{name}");
        assert!(back.races().is_empty(), "{name}");
        assert_eq!(back.dag.work_span(), prog.dag.work_span(), "{name}");
        assert_eq!(back.dag.future_count(), prog.dag.future_count(), "{name}");
    }
}

/// A racy program's journal, recorded under the PARALLEL runtime, yields
/// the same racy addresses offline as the on-the-fly detector reported.
#[test]
fn parallel_trace_offline_matches_online() {
    use sfrd::core::ShadowArray;
    use sfrd::runtime::Cx;

    struct Racy {
        data: ShadowArray<u64>,
    }
    impl Workload for Racy {
        fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
            let h = ctx.create(move |c| {
                for i in 0..8 {
                    self.data.write(c, i, 1);
                }
            });
            // Racy: reads slots 4..8 without getting the future first.
            for i in 4..8 {
                let _ = self.data.read(ctx, i);
            }
            ctx.get(h);
        }
    }

    // Online detection.
    let w = Racy {
        data: ShadowArray::new(8),
    };
    let online = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 2));
    let online_addrs = online.report.unwrap().racy_addrs;
    assert_eq!(online_addrs.len(), 4);

    // Offline: record (parallel), replay, analyze.
    let hooks = Arc::new(recording());
    let rt: Runtime<Recording> = Runtime::new(2);
    let w2 = Racy {
        data: ShadowArray::new(8),
    };
    rt.run(Arc::clone(&hooks), |ctx| w2.run(ctx));
    drop(rt);
    let hooks = Arc::try_unwrap(hooks)
        .ok()
        .expect("runtime still holds the hooks");
    let back = replay_recorded(hooks);
    let offline_addrs: BTreeSet<u64> = back.races().iter().map(|r| r.addr).collect();
    // Addresses differ between the two instances; compare *indices*.
    let online_idx: Vec<usize> = (0..8)
        .filter(|&i| online_addrs.contains(&w.data.addr(i)))
        .collect();
    let offline_idx: Vec<usize> = (0..8)
        .filter(|&i| offline_addrs.contains(&w2.data.addr(i)))
        .collect();
    assert_eq!(online_idx, offline_idx);
    assert_eq!(offline_idx, vec![4, 5, 6, 7]);
}

/// `prog` recorded through the batch pipeline into a journal: on a pool of
/// `workers`, or on the serial elision when `None`.
fn record_program(prog: &GenProgram, workers: Option<usize>) -> Vec<u8> {
    let w = GenWorkload(prog.clone());
    let hooks = Arc::new(recording());
    match workers {
        Some(n) => {
            let rt: Runtime<Recording> = Runtime::new(n);
            rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
        }
        None => run_sequential(&*hooks, |ctx| w.run(ctx)),
    }
    let hooks = Arc::try_unwrap(hooks)
        .ok()
        .expect("runtime still holds the hooks");
    hooks.into_inner().finish_owned().unwrap()
}

fn replay<H: TaskHooks>(bytes: &[u8], sink: &H) -> Result<(), JournalError> {
    replay_journal(&mut JournalReader::new(bytes).unwrap(), sink).map(drop)
}

/// Generated programs (default knobs, six addresses), each recorded three
/// ways: on a one-worker pool, on a two-worker pool and on the serial
/// elision. Replay runs every journal in serial elision, so MultiBags,
/// F-Order and SF-Order report the same racy addresses as the exact
/// oracle (the journal replayed into the dag recorder) on every one —
/// pool recordings, whose continuations run before their children,
/// included.
#[test]
fn detectors_agree_with_the_oracle_on_pool_and_serial_journals() {
    const SEEDS: u64 = 50;
    let params = GenParams {
        addr_space: 6,
        ..GenParams::default()
    };
    let cfg = EngineConfig::default();
    let (mut pool_constructs, mut racy) = (0, 0);
    for seed in 0..SEEDS {
        let prog = GenProgram::random(&mut StdRng::seed_from_u64(seed), &params);
        for workers in [Some(1), Some(2), None] {
            let journal = record_program(&prog, workers);
            let recorder = RecordingHooks::new();
            replay(&journal, &recorder).expect("the recorder replays it");
            let oracle: BTreeSet<u64> = RecordingHooks::finish(Arc::new(recorder))
                .races()
                .iter()
                .map(|r| r.addr)
                .collect();
            let sf = SfDetector::from_config(&cfg);
            replay(&journal, &sf).expect("SF-Order replays it");
            let fo = FoDetector::from_config(&cfg);
            replay(&journal, &fo).expect("F-Order replays it");
            let mb = MbDetector::from_config(&cfg);
            replay(&journal, &mb).expect("MultiBags replays it");
            for (name, report) in [("sf", sf.report()), ("f", fo.report()), ("mb", mb.report())] {
                assert_eq!(
                    report.racy_addrs, oracle,
                    "seed {seed}, {workers:?}: {name}"
                );
            }
            pool_constructs += usize::from(workers.is_some() && prog.counts() != (0, 0));
            racy += usize::from(!oracle.is_empty());
        }
    }
    assert!(
        pool_constructs >= 50,
        "only {pool_constructs} pool journals had a construct"
    );
    assert!(racy > 0, "no program raced: the agreement is vacuous");
}
