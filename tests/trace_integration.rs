//! Record → journal → replay into the recorder → offline analysis, end to
//! end, on real workloads and on parallel executions.

use std::sync::Arc;

use sfrd::core::{drive, DetectorKind, DriveConfig, Mode, RecordingHooks, Workload};
use sfrd::dag::RecordedProgram;
use sfrd::runtime::{run_sequential, Batched, Runtime};
use sfrd::trace::{replay_journal, JournalHooks, JournalReader, JournalWriter};
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
    let offline_addrs: std::collections::BTreeSet<u64> =
        back.races().iter().map(|r| r.addr).collect();
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
