//! The journal contract, end to end: `record → encode → decode → replay`
//! must re-encode byte-identically and drive any detector to the same
//! verdicts (and, for sequential recordings, the same counters) as the
//! live run it captured — while every malformed input is an `Err`, never
//! a panic.

use std::sync::Arc;

use proptest::prelude::*;
use rand::prelude::*;

use sfrd_core::{
    EngineConfig, FoDetector, GenWorkload, MbDetector, RaceReport, RecordingHooks, SfDetector,
    Workload,
};
use sfrd_dag::generator::{GenParams, GenProgram};
use sfrd_runtime::batch::DEFAULT_BATCH_CAP;
use sfrd_runtime::hooks::PairHooks;
use sfrd_runtime::{run_sequential, BatchStats, Batched, NullHooks, Runtime, TaskHooks};
use sfrd_trace::{
    replay_journal, JEvent, JournalError, JournalHooks, JournalReader, JournalWriter, ReplayStats,
    MAX_FRAME_LEN,
};

/// Generation knobs biased toward the racy regime (small address space)
/// so verdict comparisons are non-vacuous.
fn racy_params() -> GenParams {
    GenParams {
        addr_space: 4,
        write_prob: 0.5,
        ..Default::default()
    }
}

fn gen_prog(seed: u64) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    GenProgram::random(&mut rng, &racy_params())
}

/// Record a sequential run of `prog` through the batched journal hooks:
/// the exact strand-event stream (boundaries, cap flushes, filtered
/// counts) a live batched detector would have seen.
fn record_seq(prog: &GenProgram, metadata: &str) -> (Vec<u8>, BatchStats) {
    let writer = JournalWriter::new(Vec::new(), metadata).expect("Vec sink cannot fail");
    let hooks = Batched::new(JournalHooks::new(writer));
    let w = GenWorkload(prog.clone());
    run_sequential(&hooks, |ctx| w.run(ctx));
    let stats = hooks.stats();
    let bytes = hooks.into_inner().finish_owned().expect("finish journal");
    (bytes, stats)
}

/// Record `prog` from a real parallel execution on `workers` workers.
fn record_par(prog: &GenProgram, workers: usize) -> Vec<u8> {
    let writer = JournalWriter::new(Vec::new(), "parallel").expect("Vec sink cannot fail");
    let hooks = Arc::new(Batched::new(JournalHooks::new(writer)));
    let rt: Runtime<Batched<JournalHooks<Vec<u8>>>> = Runtime::new(workers);
    let w = GenWorkload(prog.clone());
    rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
    drop(rt);
    Arc::try_unwrap(hooks)
        .ok()
        .expect("runtime still holds the hooks")
        .into_inner()
        .finish_owned()
        .expect("finish journal")
}

/// Run `prog` live (sequentially, batched) under a detector and report.
fn live_seq<H: TaskHooks>(det: H, prog: &GenProgram) -> (H, BatchStats) {
    let det = Batched::new(det);
    let w = GenWorkload(prog.clone());
    run_sequential(&det, |ctx| w.run(ctx));
    let stats = det.stats();
    (det.into_inner(), stats)
}

/// Replay a journal into `sink`, asserting clean decode to the end.
fn replay_into<H: TaskHooks>(bytes: &[u8], sink: &H) -> ReplayStats {
    let mut reader = JournalReader::new(bytes).expect("valid journal header");
    let stats = replay_journal(&mut reader, sink).expect("valid journal replays");
    assert!(
        reader.next_event().expect("already ended").is_none(),
        "replay must consume the whole journal"
    );
    stats
}

/// Verdict subset of a report that is schedule-invariant (a dag property).
fn verdicts(r: &RaceReport) -> (u64, Vec<u64>) {
    (r.total_races, r.racy_addrs.iter().copied().collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// Decode-then-re-encode reproduces the original bytes exactly, and a
    /// replayed SF-Order detector matches the live run on *everything*:
    /// races, Fig. 3 counts, memory footprints, and the full metrics
    /// block — the journal is a lossless stand-in for the execution.
    #[test]
    fn sequential_roundtrip_is_exact(seed in any::<u64>()) {
        let prog = gen_prog(seed);
        let meta = format!("roundtrip seed={seed}");
        let (bytes, rec_stats) = record_seq(&prog, &meta);

        // Byte-identical re-encode.
        let mut reader = JournalReader::new(&bytes[..]).expect("header");
        prop_assert_eq!(reader.metadata(), meta.as_str());
        let events = reader.read_all().expect("decode");
        let mut w = JournalWriter::new(Vec::new(), &meta).expect("Vec sink");
        for ev in &events {
            w.append(ev);
        }
        let reencoded = w.finish().expect("finish");
        prop_assert_eq!(&reencoded, &bytes, "re-encode must be byte-identical");

        // Replay vs live: full-report parity.
        let (live, live_stats) = live_seq(SfDetector::from_config(&EngineConfig::default()), &prog);
        let replayed = SfDetector::from_config(&EngineConfig::default());
        let rstats = replay_into(&bytes, &replayed);
        let (a, b) = (live.report(), replayed.report());
        prop_assert_eq!(a.total_races, b.total_races);
        prop_assert_eq!(&a.races, &b.races);
        prop_assert_eq!(&a.racy_addrs, &b.racy_addrs);
        prop_assert_eq!(a.counts, b.counts);
        // Fig. 3 counts every instrumented access, filtered or not.
        prop_assert_eq!(
            a.counts.reads + a.counts.writes,
            live_stats.recorded + live_stats.filtered
        );
        prop_assert_eq!(a.reach_bytes, b.reach_bytes);
        prop_assert_eq!(a.history_bytes, b.history_bytes);
        prop_assert_eq!(a.metrics, b.metrics, "detector-side metrics must match exactly");

        // Pipeline-side parity: what the live `Batched` wrapper counted,
        // the journal carried.
        prop_assert_eq!(rec_stats.flushes, live_stats.flushes);
        prop_assert_eq!(rec_stats.recorded, live_stats.recorded);
        prop_assert_eq!(rec_stats.filtered, live_stats.filtered);
        prop_assert_eq!(rstats.flushes, live_stats.flushes);
        prop_assert_eq!(rstats.accesses, live_stats.recorded);
        prop_assert_eq!(rstats.filtered, live_stats.filtered);
    }

    /// Random corruption — byte flips, truncation, or garbage injection —
    /// must surface as `Err` from the decode/replay pipeline (or decode as
    /// a different valid journal), never as a panic.
    #[test]
    fn corrupted_journals_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (base, _) = record_seq(&gen_prog(7), "fuzz base");
        let mut bytes = base.clone();
        match rng.random_range(0..3u32) {
            0 => {
                for _ in 0..rng.random_range(1..=4) {
                    let i = rng.random_range(0..bytes.len());
                    bytes[i] ^= 1 << rng.random_range(0..8);
                }
            }
            1 => bytes.truncate(rng.random_range(0..bytes.len())),
            _ => {
                let i = rng.random_range(0..=bytes.len());
                bytes.insert(i, rng.random());
            }
        }
        // Ok (mutation landed in a don't-care spot or made another valid
        // journal) or Err — but never a panic, never an abort.
        let _ = JournalReader::new(&bytes[..]).and_then(|mut r| replay_journal(&mut r, &NullHooks));
    }
}

/// All three detectors reach the same verdicts replaying a sequential
/// recording as they do live, program after program — and the exact
/// offline oracle, replaying the same journal into a recorded dag, names
/// the same racy addresses.
#[test]
fn verdict_equality_all_detectors() {
    let mut races_seen = 0u64;
    for seed in 0..20 {
        let prog = gen_prog(seed);
        let (bytes, _) = record_seq(&prog, "verdicts");

        let (sf_live, _) = live_seq(SfDetector::from_config(&EngineConfig::default()), &prog);
        let sf_replay = SfDetector::from_config(&EngineConfig::default());
        replay_into(&bytes, &sf_replay);
        assert_eq!(
            verdicts(&sf_live.report()),
            verdicts(&sf_replay.report()),
            "SF-Order diverged on seed {seed}"
        );
        races_seen += sf_live.report().total_races;

        let (fo_live, _) = live_seq(FoDetector::from_config(&EngineConfig::default()), &prog);
        let fo_replay = FoDetector::from_config(&EngineConfig::default());
        replay_into(&bytes, &fo_replay);
        assert_eq!(
            verdicts(&fo_live.report()),
            verdicts(&fo_replay.report()),
            "F-Order diverged on seed {seed}"
        );

        // MultiBags: sequential recordings carry the `TaskReturn` events
        // its SP-bags invariant needs.
        let (mb_live, _) = live_seq(MbDetector::from_config(&EngineConfig::default()), &prog);
        let mb_replay = MbDetector::from_config(&EngineConfig::default());
        replay_into(&bytes, &mb_replay);
        assert_eq!(
            verdicts(&mb_live.report()),
            verdicts(&mb_replay.report()),
            "MultiBags diverged on seed {seed}"
        );

        let oracle = RecordingHooks::new();
        replay_into(&bytes, &oracle);
        let recorded = RecordingHooks::finish(Arc::new(oracle));
        let exact = sfrd_dag::racy_addrs(&recorded.dag, &recorded.log);
        for (name, rep) in [
            ("SF-Order", sf_replay.report()),
            ("F-Order", fo_replay.report()),
            ("MultiBags", mb_replay.report()),
        ] {
            assert_eq!(
                exact, rep.racy_addrs,
                "{name} and the oracle diverged on seed {seed}"
            );
        }
    }
    assert!(
        races_seen > 0,
        "corpus never raced — comparisons were vacuous"
    );
}

/// A journal recorded from a real parallel execution replays (serially)
/// to the same racy-address set as a live run: races are dag properties,
/// and the journal's lock-order linearization is a legal schedule.
#[test]
fn parallel_recording_replays_to_live_verdicts() {
    for seed in [3u64, 11, 42] {
        let prog = gen_prog(seed);
        let bytes = record_par(&prog, 4);

        let (live, _) = live_seq(SfDetector::from_config(&EngineConfig::default()), &prog);
        let live_rep = live.report();
        for _ in 0..2 {
            let replayed = SfDetector::from_config(&EngineConfig::default());
            replay_into(&bytes, &replayed);
            let rep = replayed.report();
            assert_eq!(live_rep.racy_addrs, rep.racy_addrs, "seed {seed}");
            assert_eq!(live_rep.counts.reads, rep.counts.reads, "seed {seed}");
            assert_eq!(live_rep.counts.writes, rep.counts.writes, "seed {seed}");
            assert_eq!(live_rep.counts.futures, rep.counts.futures, "seed {seed}");
            assert_eq!(live_rep.counts.spawns, rep.counts.spawns, "seed {seed}");
        }

        let fo = FoDetector::from_config(&EngineConfig::default());
        replay_into(&bytes, &fo);
        assert_eq!(live_rep.racy_addrs, fo.report().racy_addrs, "seed {seed}");
    }
}

/// Two parallel siblings whose accesses alternate call by call, driven
/// hook by hook on one thread so the live counts are exact. Each sibling
/// buffers two accesses a round, so its accesses at its one position leave
/// as a run of 16 cap-sized `Accesses` events interleaved with the
/// other's.
fn interleaved_siblings<H: TaskHooks>(h: &Batched<H>) {
    const ROUNDS: u64 = 16 * DEFAULT_BATCH_CAP as u64 / 2;
    const SHARED: u64 = 0x1_0000;
    const OWN: u64 = 0x2_0000;
    let mut root = h.root();
    for i in 0..ROUNDS {
        h.on_access(&mut root, SHARED + 8 * i, true);
    }
    let mut a = h.on_spawn(&mut root);
    let mut b = h.on_spawn(&mut root);
    for i in 0..ROUNDS {
        // Both read what the root wrote (ordered: one query each) ...
        h.on_access(&mut a, SHARED + 8 * i, false);
        h.on_access(&mut b, SHARED + 8 * i, false);
        // ... `a` writes its own cells, and `b` writes every other one
        // of them too — the races.
        h.on_access(&mut a, OWN + 8 * i, true);
        h.on_access(&mut b, OWN + 16 * i, true);
    }
    h.on_task_end(&mut a);
    h.on_task_end(&mut b);
    h.on_sync(&mut root, vec![a, b]);
    for i in 0..ROUNDS {
        h.on_access(&mut root, OWN + 8 * i, false);
    }
    h.on_task_end(&mut root);
}

/// A strand's accesses split over many `Accesses` events, interleaved
/// with another strand's, replay to the live run's exact counts —
/// `queries` included — and racy set: the replayer keeps nothing per
/// strand between events but the sink's own strand.
#[test]
fn interleaved_split_batches_replay_to_live_counts() {
    let writer = JournalWriter::new(Vec::new(), "interleaved").expect("Vec sink cannot fail");
    let rec = Batched::new(JournalHooks::new(writer));
    interleaved_siblings(&rec);
    let bytes = rec.into_inner().finish_owned().expect("finish journal");

    // The recording has the shape this test is about.
    let events = JournalReader::new(&bytes[..])
        .and_then(|mut r| r.read_all())
        .expect("decode");
    let owners: Vec<u32> = events
        .iter()
        .filter_map(|ev| match ev {
            JEvent::Accesses { strand, .. } => Some(*strand),
            _ => None,
        })
        .collect();
    let switches = owners.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches >= 32,
        "only {switches} strand switches over {} access events",
        owners.len()
    );

    let live = Batched::new(SfDetector::from_config(&EngineConfig::default()));
    interleaved_siblings(&live);
    let live = live.into_inner().report();
    let replayed = SfDetector::from_config(&EngineConfig::default());
    replay_into(&bytes, &replayed);
    let replayed = replayed.report();
    assert!(live.total_races > 0 && live.counts.queries > 64);
    assert_eq!(live.counts, replayed.counts);
    assert_eq!(live.races, replayed.races);
    assert_eq!(live.total_races, replayed.total_races);
    assert_eq!(live.metrics, replayed.metrics);
}

/// A journal replayed into `PairHooks` reaches both halves whole, the
/// filtered counts of each batch included: the detector half's counts and
/// racy set and the recorder half's work and span equal the lone replays'.
#[test]
fn pair_hooks_replay_matches_lone_replays() {
    let mut filtered = 0;
    for seed in 0..8 {
        let (bytes, stats) = record_seq(&gen_prog(seed), "pair");
        filtered += stats.filtered;

        let pair = PairHooks(
            RecordingHooks::new(),
            SfDetector::from_config(&EngineConfig::default()),
        );
        replay_into(&bytes, &pair);
        let PairHooks(rec, det) = pair;
        let lone_det = SfDetector::from_config(&EngineConfig::default());
        replay_into(&bytes, &lone_det);
        let lone_rec = RecordingHooks::new();
        replay_into(&bytes, &lone_rec);

        let (paired, lone) = (det.report(), lone_det.report());
        assert_eq!(paired.counts, lone.counts, "seed {seed}");
        assert_eq!(paired.racy_addrs, lone.racy_addrs, "seed {seed}");
        let paired = RecordingHooks::finish(Arc::new(rec)).dag.work_span();
        let lone = RecordingHooks::finish(Arc::new(lone_rec)).dag.work_span();
        assert_eq!(paired, lone, "seed {seed}: (work, span)");
    }
    assert!(filtered > 0, "no batch carried filtered counts");
}

/// Unbatched recording (bare `JournalHooks`, one-entry access events)
/// still replays to the right verdicts.
#[test]
fn unbatched_recording_replays() {
    let prog = gen_prog(5);
    let writer = JournalWriter::new(Vec::new(), "unbatched").unwrap();
    let hooks = JournalHooks::new(writer);
    let w = GenWorkload(prog.clone());
    run_sequential(&hooks, |ctx| w.run(ctx));
    let bytes = hooks.finish_owned().unwrap();

    let (live, _) = live_seq(SfDetector::from_config(&EngineConfig::default()), &prog);
    let replayed = SfDetector::from_config(&EngineConfig::default());
    replay_into(&bytes, &replayed);
    let (a, b) = (live.report(), replayed.report());
    assert_eq!(a.racy_addrs, b.racy_addrs);
    assert_eq!(a.total_races, b.total_races);
    assert_eq!(a.counts.reads, b.counts.reads);
    assert_eq!(a.counts.writes, b.counts.writes);
}

/// Every proper prefix of a valid journal fails to parse — a half-written
/// file can never be mistaken for a shorter run.
#[test]
fn every_truncation_is_rejected() {
    let (bytes, _) = record_seq(&gen_prog(1), "truncation");
    for cut in 0..bytes.len() {
        let r = JournalReader::new(&bytes[..cut]).and_then(|mut r| r.read_all());
        assert!(r.is_err(), "prefix of {cut}/{} bytes parsed", bytes.len());
    }
    let whole = JournalReader::new(&bytes[..]).and_then(|mut r| r.read_all());
    assert!(whole.is_ok());
}

/// Hand-built malformed inputs map to the specific error each class
/// deserves.
#[test]
fn malformed_inputs_map_to_specific_errors() {
    let (good, _) = record_seq(&gen_prog(2), "x");

    // Not a journal at all.
    assert!(matches!(
        JournalReader::new(&b""[..]),
        Err(JournalError::BadMagic)
    ));
    assert!(matches!(
        JournalReader::new(&b"sfrdtrace v1\n"[..]),
        Err(JournalError::BadMagic)
    ));

    // Wrong version.
    let mut v = good.clone();
    v[8] = 0xfe;
    assert!(matches!(
        JournalReader::new(&v[..]),
        Err(JournalError::BadVersion(_))
    ));

    // Metadata length beyond the frame bound.
    let mut m = good.clone();
    m[12..16].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert!(matches!(
        JournalReader::new(&m[..]),
        Err(JournalError::OverlongFrame(_))
    ));

    // Non-UTF-8 metadata.
    let mut bad_meta = Vec::new();
    bad_meta.extend_from_slice(&good[..12]);
    bad_meta.extend_from_slice(&2u32.to_le_bytes());
    bad_meta.extend_from_slice(&[0xff, 0xfe]);
    assert!(matches!(
        JournalReader::new(&bad_meta[..]),
        Err(JournalError::BadMetadata)
    ));

    // Frames: empty header + hand-rolled frame bytes.
    let header = |meta: &str| {
        let mut h = Vec::new();
        h.extend_from_slice(b"SFRDJRNL");
        h.extend_from_slice(&1u32.to_le_bytes());
        h.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        h.extend_from_slice(meta.as_bytes());
        h
    };
    let read = |bytes: &[u8]| JournalReader::new(bytes).and_then(|mut r| r.read_all());

    let mut zero_len = header("");
    zero_len.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(read(&zero_len), Err(JournalError::BadFrame(0))));

    let mut overlong = header("");
    overlong.extend_from_slice(&(MAX_FRAME_LEN + 7).to_le_bytes());
    assert!(matches!(
        read(&overlong),
        Err(JournalError::OverlongFrame(_))
    ));

    let mut bad_kind = header("");
    bad_kind.extend_from_slice(&1u32.to_le_bytes());
    bad_kind.push(9);
    assert!(matches!(read(&bad_kind), Err(JournalError::BadFrame(9))));

    let mut bad_op = header("");
    bad_op.extend_from_slice(&3u32.to_le_bytes());
    bad_op.extend_from_slice(&[1, 0x7f, 0]); // events frame, opcode 0x7f
    assert!(matches!(read(&bad_op), Err(JournalError::BadEvent(0x7f))));

    // A sync whose child count overruns its frame: bounded, not allocated.
    let mut fat_sync = header("");
    fat_sync.extend_from_slice(&4u32.to_le_bytes());
    // events frame; OP_SYNC strand=0 n=varint(0xffff_ffff) and nothing else.
    fat_sync.extend_from_slice(&[1, 0x03, 0x00]);
    fat_sync.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
    // Frame length says 4 but we wrote more: rebuild with the real length.
    let mut fat_sync2 = header("");
    fat_sync2.extend_from_slice(&8u32.to_le_bytes());
    fat_sync2.extend_from_slice(&[1, 0x03, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f]);
    assert!(read(&fat_sync2).is_err());
    assert!(read(&fat_sync).is_err());

    // Replay-level validation: an event referencing a strand that was
    // never introduced.
    let mut w = JournalWriter::new(Vec::new(), "bad strand").unwrap();
    w.task_end(17);
    let bytes = w.finish().unwrap();
    let mut r = JournalReader::new(&bytes[..]).unwrap();
    assert!(matches!(
        replay_journal(&mut r, &NullHooks),
        Err(JournalError::UnknownStrand(17))
    ));
}

/// The reader checks the writer's implicit-id contract: replaying a
/// stream through `JEvent` values with forged child ids is caught.
#[test]
fn replay_rejects_double_consumed_strands() {
    // get of the same future twice: second take hits an empty slot.
    let mut w = JournalWriter::new(Vec::new(), "double get").unwrap();
    let c = w.create(0);
    w.task_end(c);
    w.get(0, c);
    w.get(0, c);
    let bytes = w.finish().unwrap();
    let mut r = JournalReader::new(&bytes[..]).unwrap();
    assert!(matches!(
        replay_journal(&mut r, &NullHooks),
        Err(JournalError::UnknownStrand(id)) if id == c
    ));
}

/// A journal that is no structured-future program: the root spawns `c`,
/// `c` writes `x`, ends and returns, and the root `Get`s `c` — a get takes
/// a created future, never a spawned child — then writes `x` and ends.
/// It used to replay `Ok`, SF-Order and MultiBags reporting a race and
/// F-Order none; every detector (and the null sink) now refuses it at the
/// `Get`. Its mirror, a `Sync` of a created future, is refused too.
#[test]
fn replay_rejects_joins_no_structured_program_makes() {
    let x = [sfrd_runtime::BatchedAccess {
        addr: 0x40,
        is_write: true,
    }];
    let mut w = JournalWriter::new(Vec::new(), "get of a spawned strand").unwrap();
    let c = w.spawn(0);
    w.accesses(c, (0, 0), &x);
    w.task_end(c);
    w.task_return(0, c);
    w.get(0, c);
    w.accesses(0, (0, 0), &x);
    w.task_end(0);
    let get_of_spawn = w.finish().unwrap();

    let mut w = JournalWriter::new(Vec::new(), "sync of a created strand").unwrap();
    let f = w.create(0);
    w.task_end(f);
    w.task_return(0, f);
    w.sync(0, &[f]);
    w.task_end(0);
    let sync_of_create = w.finish().unwrap();

    fn refused<H: TaskHooks>(bytes: &[u8], sink: &H) -> Result<ReplayStats, JournalError> {
        replay_journal(&mut JournalReader::new(bytes).unwrap(), sink)
    }
    for (bytes, strand) in [(&get_of_spawn, c), (&sync_of_create, f)] {
        let cfg = EngineConfig::default();
        for result in [
            refused(bytes, &SfDetector::from_config(&cfg)),
            refused(bytes, &FoDetector::from_config(&cfg)),
            refused(bytes, &MbDetector::from_config(&cfg)),
            refused(bytes, &NullHooks),
        ] {
            assert!(
                matches!(result, Err(JournalError::WrongJoin(id)) if id == strand),
                "{result:?}"
            );
        }
    }
}

/// Frame boundaries are deterministic: a recording large enough to span
/// several frames still re-encodes byte-identically, and an event stream
/// big enough to need multiple frames round-trips value-identically.
#[test]
fn multi_frame_journals_roundtrip() {
    // ~40k single-access events: well past the 32 KiB frame cap.
    let mut w = JournalWriter::new(Vec::new(), "big").unwrap();
    for i in 0..40_000u64 {
        w.accesses(
            0,
            (0, 0),
            &[sfrd_runtime::BatchedAccess {
                addr: i * 64,
                is_write: i % 3 == 0,
            }],
        );
    }
    w.task_end(0);
    let bytes = w.finish().unwrap();

    let mut reader = JournalReader::new(&bytes[..]).unwrap();
    let events = reader.read_all().unwrap();
    assert_eq!(events.len(), 40_001);
    assert!(matches!(events[40_000], JEvent::TaskEnd { strand: 0 }));

    let mut w2 = JournalWriter::new(Vec::new(), "big").unwrap();
    for ev in &events {
        w2.append(ev);
    }
    assert_eq!(w2.finish().unwrap(), bytes);
}
