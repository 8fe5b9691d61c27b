//! The journal contract, end to end: `record → encode → decode → replay`
//! must re-encode byte-identically and drive any detector to the same
//! verdicts (and, for sequential recordings, the same counters) as the
//! live run it captured — while every malformed input is an `Err`, never
//! a panic.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use proptest::prelude::*;
use rand::prelude::*;

use sfrd_core::{
    EngineConfig, EventSink, FoDetector, GenWorkload, MbDetector, RaceReport, ReachEngine,
    RecordingHooks, SfDetector, Workload,
};
use sfrd_dag::generator::{GenParams, GenProgram};
use sfrd_runtime::batch::DEFAULT_BATCH_CAP;
use sfrd_runtime::hooks::PairHooks;
use sfrd_runtime::{
    run_sequential, BatchStats, BatchStrand, Batched, Cx, NullHooks, Runtime, TaskHooks,
};
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

/// Two parallel siblings whose accesses alternate call by call. Each runs
/// on a thread of its own, as a strand runs on the thread that claimed it,
/// and the two hand one turn back and forth, so the hooks see one fixed
/// order and the live counts are exact. Each sibling buffers two accesses
/// a round, so its accesses at its one position leave as a run of 16
/// cap-sized `Accesses` events interleaved with the other's.
fn interleaved_siblings<H: TaskHooks>(h: &Batched<H>) {
    const ROUNDS: u64 = 16 * DEFAULT_BATCH_CAP as u64 / 2;
    const SHARED: u64 = 0x1_0000;
    const OWN: u64 = 0x2_0000;
    let mut root = h.root();
    for i in 0..ROUNDS {
        h.on_access(&mut root, SHARED + 8 * i, true);
    }
    let a = h.on_spawn(&mut root);
    let b = h.on_spawn(&mut root);
    let (to_a, a_turn) = mpsc::channel();
    let (to_b, b_turn) = mpsc::channel();
    // Both read what the root wrote (ordered: one query each); `a` writes
    // its own cells, and `b` writes every other one of them too — the
    // races. Then `a` ends, then `b`.
    let sibling = |mut s: BatchStrand<H::Strand>, turn: Receiver<()>, pass: Sender<()>, stride| {
        for i in 0..ROUNDS {
            for (addr, is_write) in [(SHARED + 8 * i, false), (OWN + stride * i, true)] {
                turn.recv().expect("the other sibling passes the turn");
                h.on_access(&mut s, addr, is_write);
                let _ = pass.send(());
            }
        }
        turn.recv().expect("the other sibling passes the turn");
        h.on_task_end(&mut s);
        let _ = pass.send(());
        s
    };
    to_a.send(()).expect("a waits");
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| sibling(a, a_turn, to_b, 8));
        let b = scope.spawn(|| sibling(b, b_turn, to_a, 16));
        (a.join().unwrap(), b.join().unwrap())
    });
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

/// A task's last event is its end: a journal in which a strand acts after
/// its `TaskEnd` — one journal per way to act — is refused by every
/// detector (and the null sink) with `EndedStrand` naming it, while the
/// joins that name an ended strand as their child replay.
#[test]
fn replay_refuses_events_on_an_ended_strand() {
    let x = [sfrd_runtime::BatchedAccess {
        addr: 0x40,
        is_write: true,
    }];
    type Act = fn(&mut JournalWriter<Vec<u8>>, u32);
    let acts: [(&str, Act); 7] = [
        ("accesses", |w, s| {
            let x = sfrd_runtime::BatchedAccess {
                addr: 0x40,
                is_write: true,
            };
            w.accesses(s, (0, 0), &[x]);
        }),
        ("spawn", |w, s| {
            w.spawn(s);
        }),
        ("create", |w, s| {
            w.create(s);
        }),
        ("sync", |w, s| w.sync(s, &[])),
        ("get", |w, s| {
            let f = w.create(0);
            w.task_end(f);
            w.get(s, f);
        }),
        ("second end", |w, s| w.task_end(s)),
        ("task return", |w, s| {
            let c = w.spawn(0);
            w.task_end(c);
            w.task_return(s, c);
        }),
    ];
    for (what, act) in acts {
        // A spawned strand and a future, each ended and returned as the
        // sequential runtime returns them, then acting.
        for spawned in [true, false] {
            let mut w = JournalWriter::new(Vec::new(), what).unwrap();
            let s = if spawned { w.spawn(0) } else { w.create(0) };
            w.task_end(s);
            w.task_return(0, s);
            act(&mut w, s);
            let bytes = w.finish().unwrap();
            let cfg = EngineConfig::default();
            for result in [
                replay(&bytes, &SfDetector::from_config(&cfg)),
                replay(&bytes, &FoDetector::from_config(&cfg)),
                replay(&bytes, &MbDetector::from_config(&cfg)),
                replay(&bytes, &NullHooks),
            ] {
                assert!(
                    matches!(result, Err(JournalError::EndedStrand(id)) if id == s),
                    "{what} (spawned: {spawned}): {result:?}"
                );
            }
        }
    }

    // What does name an ended strand: a task return and a sync of a
    // spawned child, and a get of a future, each after its end.
    let mut w = JournalWriter::new(Vec::new(), "joins of ended strands").unwrap();
    let c = w.spawn(0);
    w.accesses(c, (0, 0), &x);
    w.task_end(c);
    w.task_return(0, c);
    let f = w.create(0);
    w.task_end(f);
    w.task_return(0, f);
    w.sync(0, &[c]);
    w.get(0, f);
    w.accesses(0, (0, 0), &x);
    w.task_end(0);
    let bytes = w.finish().unwrap();
    let cfg = EngineConfig::default();
    replay(&bytes, &SfDetector::from_config(&cfg)).expect("joins of ended strands replay");
    replay(&bytes, &FoDetector::from_config(&cfg)).expect("joins of ended strands replay");
    replay(&bytes, &MbDetector::from_config(&cfg)).expect("joins of ended strands replay");
}

/// A join waits for its child: a `Sync` of a spawned child and a `Get` of
/// a future, each before the child's `TaskEnd`, are refused by every
/// detector (and the null sink) with `UnendedJoin` naming the child. No
/// live run emits either. (A `TaskReturn` of the unended child is refused
/// the same way, one event earlier; these journals have none.)
#[test]
fn replay_refuses_a_join_of_a_strand_that_has_not_ended() {
    let mut w = JournalWriter::new(Vec::new(), "sync before the child ends").unwrap();
    let c = w.spawn(0);
    w.sync(0, &[c]);
    w.task_end(0);
    let early_sync = w.finish().unwrap();

    let mut w = JournalWriter::new(Vec::new(), "get before the future ends").unwrap();
    let f = w.create(0);
    w.get(0, f);
    w.task_end(0);
    let early_get = w.finish().unwrap();

    for (bytes, child) in [(&early_sync, c), (&early_get, f)] {
        let cfg = EngineConfig::default();
        for result in [
            replay(bytes, &SfDetector::from_config(&cfg)),
            replay(bytes, &FoDetector::from_config(&cfg)),
            replay(bytes, &MbDetector::from_config(&cfg)),
            replay(bytes, &NullHooks),
        ] {
            assert!(
                matches!(result, Err(JournalError::UnendedJoin(id)) if id == child),
                "{result:?}"
            );
        }
    }
}

fn replay<H: TaskHooks>(bytes: &[u8], sink: &H) -> Result<ReplayStats, JournalError> {
    replay_journal(&mut JournalReader::new(bytes).unwrap(), sink)
}

/// `bytes` replayed into SF-Order, F-Order and MultiBags: each one's
/// result and racy addresses.
fn replay_all(bytes: &[u8]) -> [(Result<ReplayStats, JournalError>, Vec<u64>); 3] {
    fn one<E: ReachEngine>(
        det: EventSink<E>,
        bytes: &[u8],
    ) -> (Result<ReplayStats, JournalError>, Vec<u64>) {
        let result = replay(bytes, &det);
        (result, det.report().racy_addrs.into_iter().collect())
    }
    let cfg = EngineConfig::default();
    [
        one(SfDetector::from_config(&cfg), bytes),
        one(FoDetector::from_config(&cfg), bytes),
        one(MbDetector::from_config(&cfg), bytes),
    ]
}

/// MultiBags is sound only on events in serial-elision order, and replay
/// runs every journal in that order. In this journal the root spawns `c`,
/// writes `x`, and only then does `c` write `x`, end and return; the root
/// syncs `c` and ends — the order a pool recording has, since the pool
/// runs a continuation before its child. Replay holds the root's write
/// until `c` has returned, so MultiBags reports the one race at `0x40`,
/// as SF-Order and F-Order do.
#[test]
fn multibags_agrees_on_a_journal_out_of_serial_order() {
    let x = [sfrd_runtime::BatchedAccess {
        addr: 0x40,
        is_write: true,
    }];
    let mut w = JournalWriter::new(Vec::new(), "continuation first").unwrap();
    let c = w.spawn(0);
    w.accesses(0, (0, 0), &x);
    w.accesses(c, (0, 0), &x);
    w.task_end(c);
    w.task_return(0, c);
    w.sync(0, &[c]);
    w.task_end(0);
    let bytes = w.finish().unwrap();

    let cfg = EngineConfig::default();
    let sf = SfDetector::from_config(&cfg);
    replay(&bytes, &sf).expect("SF-Order replays it");
    let fo = FoDetector::from_config(&cfg);
    replay(&bytes, &fo).expect("F-Order replays it");
    let mb = MbDetector::from_config(&cfg);
    replay(&bytes, &mb).expect("MultiBags replays it");
    for report in [sf.report(), fo.report(), mb.report()] {
        assert_eq!(report.total_races, 1);
        assert_eq!(report.racy_addrs.into_iter().collect::<Vec<_>>(), [0x40]);
    }
}

/// A `TaskReturn` names a child that has ended: the root spawns `c`, `c`
/// spawns `d`, `d` writes `x`, ends and returns to `c`, and `c` returns
/// to the root although `c` never ended; the root syncs nothing and ends.
/// Nothing checked a returned child's end, and MultiBags' bags panicked
/// in a debug build on the return of a strand with a live P-bag. Every
/// detector, and the null sink, refuses it with `UnendedJoin(c)`.
#[test]
fn replay_refuses_a_return_of_a_strand_that_has_not_ended() {
    let x = [sfrd_runtime::BatchedAccess {
        addr: 0x40,
        is_write: true,
    }];
    let mut w = JournalWriter::new(Vec::new(), "return before the end").unwrap();
    let c = w.spawn(0);
    let d = w.spawn(c);
    w.accesses(d, (0, 0), &x);
    w.task_end(d);
    w.task_return(c, d);
    w.task_return(0, c);
    w.sync(0, &[]);
    w.task_end(0);
    let bytes = w.finish().unwrap();

    for (result, _) in replay_all(&bytes) {
        assert!(
            matches!(result, Err(JournalError::UnendedJoin(id)) if id == c),
            "{result:?}"
        );
    }
    let result = replay(&bytes, &NullHooks);
    assert!(
        matches!(result, Err(JournalError::UnendedJoin(id)) if id == c),
        "{result:?}"
    );
}

/// An event waits while serial elision runs another strand, and a journal
/// that leaves one waiting is refused, never replayed short. The root
/// spawns `c` and writes `x` while `c` is open, and `c` writes `x`.
/// Without `c`'s end the root's write can never run: every detector
/// answers `UnendedJoin(c)`. With it (and the root's sync and end), the
/// write runs once `c` has returned, and every detector reports the race.
#[test]
fn replay_refuses_a_journal_that_leaves_events_waiting() {
    let x = [sfrd_runtime::BatchedAccess {
        addr: 0x40,
        is_write: true,
    }];
    let journal = |ended: bool| {
        let mut w = JournalWriter::new(Vec::new(), "open child").unwrap();
        let c = w.spawn(0);
        w.accesses(0, (0, 0), &x);
        w.accesses(c, (0, 0), &x);
        if ended {
            w.task_end(c);
            w.sync(0, &[c]);
            w.task_end(0);
        }
        (c, w.finish().unwrap())
    };
    let (c, open) = journal(false);
    for (result, _) in replay_all(&open) {
        assert!(
            matches!(result, Err(JournalError::UnendedJoin(id)) if id == c),
            "{result:?}"
        );
    }
    let (_, closed) = journal(true);
    for (result, racy) in replay_all(&closed) {
        assert_eq!(result.expect("the closed journal replays").accesses, 2);
        assert_eq!(racy, [0x40]);
    }
}

/// A handle passed outside the dag: the root spawns `a` and then `b`; `b`
/// creates `f`, which ends, and `a` gets `f`. In file order `f` has ended
/// before the get, but serial elision runs `a` — and the get — before `b`
/// has created `f`. Every detector refuses the get with `UnendedJoin(f)`.
#[test]
fn replay_refuses_a_get_before_serial_elision_creates_the_future() {
    let mut w = JournalWriter::new(Vec::new(), "get before create").unwrap();
    let a = w.spawn(0);
    let b = w.spawn(0);
    let f = w.create(b);
    w.task_end(f);
    w.get(a, f);
    w.task_end(a);
    w.task_end(b);
    w.sync(0, &[a, b]);
    w.task_end(0);
    let bytes = w.finish().unwrap();
    for (result, _) in replay_all(&bytes) {
        assert!(
            matches!(result, Err(JournalError::UnendedJoin(id)) if id == f),
            "{result:?}"
        );
    }
}

/// A join of a strand serial elision still has open: the root spawns `c`,
/// `c` spawns `d`, `c` ends, and `d` syncs `c`. In file order `c` has
/// ended, but serial elision runs `d` inside `c`, so `c` is still open
/// beneath it: every detector refuses the sync with `UnendedJoin(c)`,
/// rather than hand `d` the strand of an open task.
#[test]
fn replay_refuses_a_join_of_a_strand_serial_elision_has_open() {
    let mut w = JournalWriter::new(Vec::new(), "sync of an ancestor").unwrap();
    let c = w.spawn(0);
    let d = w.spawn(c);
    w.task_end(c);
    w.sync(d, &[c]);
    w.task_end(d);
    w.task_end(0);
    let bytes = w.finish().unwrap();
    for (result, _) in replay_all(&bytes) {
        assert!(
            matches!(result, Err(JournalError::UnendedJoin(id)) if id == c),
            "{result:?}"
        );
    }
}

/// Nesting depth costs replay heap, not call stack: a chain of 100 000
/// nested spawns, each parent writing `x` while its child is open (so
/// every write waits until the child below has returned), replays into
/// every detector, which report `x`.
#[test]
fn replay_runs_a_hundred_thousand_nested_spawns() {
    const DEPTH: usize = 100_000;
    let x = [sfrd_runtime::BatchedAccess {
        addr: 0x40,
        is_write: true,
    }];
    let mut w = JournalWriter::new(Vec::new(), "deep").unwrap();
    let mut chain = vec![0u32];
    for _ in 0..DEPTH {
        let parent = *chain.last().unwrap();
        chain.push(w.spawn(parent));
        w.accesses(parent, (0, 0), &x);
    }
    let mut child = chain.pop().unwrap();
    w.task_end(child);
    while let Some(parent) = chain.pop() {
        w.sync(parent, &[child]);
        w.task_end(parent);
        child = parent;
    }
    let bytes = w.finish().unwrap();
    for (result, racy) in replay_all(&bytes) {
        assert_eq!(
            result.expect("a deep journal replays").accesses,
            DEPTH as u64
        );
        assert_eq!(racy, [0x40]);
    }
}

/// Hand-computed bytes of every opcode, from the format's rules (DESIGN.md
/// §12): LEB128 varints, 7 bits a byte, low group first; addresses as
/// zigzag'd deltas from the previous entry's (the first from 0); an
/// is-write bitmap, entry `i` at bit `i % 8` of byte `i / 8`, before the
/// addresses; frames of `[u32 LE length][kind 1][events]`, closed by the
/// first event that brings them to 32 KiB; the end frame `[1, 0, 0, 0,
/// 2]`. Re-encoding a decoded journal pins the writer only against
/// itself; these bytes pin it against the format.
#[test]
fn each_event_encodes_to_its_documented_bytes() {
    /// The writer's `FRAME_CAP`.
    const FRAME_CAP: usize = 32 * 1024;
    let access = |addr, is_write| sfrd_runtime::BatchedAccess { addr, is_write };
    let mut w = JournalWriter::new(Vec::new(), "golden").unwrap();
    let mut frame: Vec<Vec<u8>> = Vec::new();

    assert_eq!(w.spawn(0), 1);
    frame.push(vec![0x01, 0x00]);
    assert_eq!(w.create(1), 2);
    frame.push(vec![0x02, 0x01]);
    w.sync(0, &[1, 300]);
    frame.push(vec![0x03, 0x00, 0x02, 0x01, 0xac, 0x02]);
    w.get(0, 2);
    frame.push(vec![0x04, 0x00, 0x02]);
    w.task_end(2);
    frame.push(vec![0x05, 0x02]);
    w.task_return(0, 1);
    frame.push(vec![0x06, 0x00, 0x01]);

    // Filtered counts only, no entries; the varints' edge values.
    w.accesses(3, (0, 127), &[]);
    frame.push(vec![0x07, 0x03, 0x00, 0x7f, 0x00]);
    w.accesses(0, (128, (1 << 56) - 1), &[]);
    let mut ev = vec![0x07, 0x00, 0x80, 0x01];
    ev.extend([0xff; 7]);
    ev.extend([0x7f, 0x00]);
    frame.push(ev);
    w.accesses(0, (1 << 56, u64::MAX), &[]);
    let mut ev = vec![0x07, 0x00];
    ev.extend([0x80; 8]);
    ev.push(0x01);
    ev.extend([0xff; 9]);
    ev.extend([0x01, 0x00]);
    frame.push(ev);

    // Eight entries, one bitmap byte: writes at 0, 2 and 7. Deltas +0x1000
    // (zigzag 0x2000), -8 (15), +16 (32), 0, -0x1008 (0x200f), -1 to
    // u64::MAX (1), +1 wrapping back to 0 (2), +64 (128).
    let eight = [
        access(0x1000, true),
        access(0xff8, false),
        access(0x1008, true),
        access(0x1008, false),
        access(0, false),
        access(u64::MAX, false),
        access(0, false),
        access(0x40, true),
    ];
    w.accesses(5, (0, 0), &eight);
    frame.push(vec![
        0x07, 0x05, 0x00, 0x00, 0x08, 0x85, 0x80, 0x40, 0x0f, 0x20, 0x00, 0x8f, 0x40, 0x01, 0x02,
        0x80, 0x01,
    ]);
    // Nine entries, two bitmap bytes: only the ninth writes.
    let nine: Vec<_> = (0..9).map(|k| access(8 * k, k == 8)).collect();
    w.accesses(0, (0, 0), &nine);
    let mut ev = vec![0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x01, 0x00];
    ev.extend([0x10; 8]);
    frame.push(ev);

    // Reads of address 0 that bring the frame to exactly FRAME_CAP (after
    // a three-byte `Get` when one more entry would overshoot): the frame
    // closes behind them, and the next event opens another.
    let varint_len = |n: usize| (usize::BITS - n.leading_zeros()).max(1).div_ceil(7) as usize;
    let size = |n: usize| 4 + varint_len(n) + n.div_ceil(8) + n;
    let held: usize = frame.iter().map(Vec::len).sum();
    let (pad, n) = [0, 3]
        .into_iter()
        .find_map(|pad| {
            let n = (1..FRAME_CAP).find(|&n| held + pad + size(n) == FRAME_CAP)?;
            Some((pad, n))
        })
        .expect("one of the two pads lands on the cap");
    if pad == 3 {
        w.get(0, 2);
        frame.push(vec![0x04, 0x00, 0x02]);
    }
    w.accesses(0, (0, 0), &vec![access(0, false); n]);
    let mut ev = vec![0x07, 0x00, 0x00, 0x00];
    let mut count = n;
    while count >= 0x80 {
        ev.push(count as u8 | 0x80);
        count >>= 7;
    }
    ev.push(count as u8);
    ev.extend(vec![0x00; n.div_ceil(8) + n]);
    frame.push(ev);
    w.task_end(0);
    let next = [0x05, 0x00];

    let mut want = b"SFRDJRNL".to_vec();
    want.extend([1, 0, 0, 0, 6, 0, 0, 0]);
    want.extend(b"golden");
    let first: Vec<u8> = frame.concat();
    assert_eq!(first.len(), FRAME_CAP);
    want.extend((FRAME_CAP as u32 + 1).to_le_bytes());
    want.push(1);
    want.extend(first);
    want.extend([3, 0, 0, 0, 1]);
    want.extend(next);
    want.extend([1, 0, 0, 0, 2]);
    assert_eq!(w.finish().unwrap(), want);
}

/// On one worker a strand holds pending entries while it blocks: once in a
/// `get` whose future runs inside the wait, once in a `sync` whose
/// children run from its deque — all on the one thread. The nested strands
/// each write more fresh words than a cap holds, so they cap-flush while
/// the blocked strand's entries wait below theirs. Every entry of the
/// recorded journal belongs to the strand that issued it (task `t`, strand
/// id `t`, writes words `(t + 1) << 20 ..`; `X` and `Y` are shared), and the
/// journal replayed into the dag recorder races on exactly `X` and `Y`, as
/// a live SF-Order run does — it would not, were the blocked strand's
/// write of either delivered as a nested strand's.
#[test]
fn nested_strands_keep_their_own_entries() {
    const X: u64 = 0x10;
    const Y: u64 = 0x18;
    const CAP: u64 = DEFAULT_BATCH_CAP as u64;
    fn burst<'s, C: Cx<'s>>(c: &mut C, task: u64, from: u64, n: u64) {
        for i in from..from + n {
            c.record_write(((task + 1) << 20) + 8 * i);
        }
    }
    fn program<'s, C: Cx<'s>>(ctx: &mut C) {
        let f = ctx.create(|c| {
            burst(c, 1, 0, 2 * CAP + 5);
            c.record_write(X);
        });
        burst(ctx, 0, 0, 10);
        ctx.record_write(X);
        ctx.get(f);
        for task in [2, 3] {
            ctx.spawn(move |c| {
                burst(c, task, 0, CAP + 9);
                c.record_write(Y);
            });
        }
        burst(ctx, 0, 10, 10);
        ctx.record_write(Y);
        ctx.sync();
    }

    let writer = JournalWriter::new(Vec::new(), "nested").expect("Vec sink cannot fail");
    let hooks = Arc::new(Batched::new(JournalHooks::new(writer)));
    let rt = Runtime::new(1);
    rt.run(Arc::clone(&hooks), program);
    drop(rt);
    let bytes = Arc::into_inner(hooks)
        .expect("the runtime is gone")
        .into_inner()
        .finish_owned()
        .expect("finish journal");

    let events = JournalReader::new(&bytes[..])
        .and_then(|mut r| r.read_all())
        .expect("decode");
    let mut shared = Vec::new();
    let mut sizes = Vec::new();
    for ev in &events {
        if let JEvent::Accesses {
            strand, entries, ..
        } = ev
        {
            sizes.push((*strand, entries.len()));
            for a in entries {
                match a.addr {
                    X | Y => shared.push((a.addr, *strand)),
                    addr => assert_eq!(addr >> 20, u64::from(*strand) + 1, "{addr:#x}"),
                }
            }
        }
    }
    shared.sort_unstable();
    assert_eq!(shared, [(X, 0), (X, 1), (Y, 0), (Y, 2), (Y, 3)]);
    // The future's two cap flushes, then its end's, came before the
    // getter's pending eleven; the children's before the syncer's.
    let cap = DEFAULT_BATCH_CAP;
    assert_eq!(
        sizes,
        [
            (1, cap),
            (1, cap),
            (1, 6),
            (0, 11),
            (3, cap),
            (3, 10),
            (2, cap),
            (2, 10),
            (0, 11)
        ]
    );

    let oracle = RecordingHooks::new();
    replay_into(&bytes, &oracle);
    let recorded = RecordingHooks::finish(Arc::new(oracle));
    let exact = sfrd_dag::racy_addrs(&recorded.dag, &recorded.log);
    assert_eq!(exact.into_iter().collect::<Vec<_>>(), [X, Y]);

    let live = Arc::new(Batched::new(SfDetector::from_config(
        &EngineConfig::default(),
    )));
    let rt = Runtime::new(1);
    rt.run(Arc::clone(&live), program);
    drop(rt);
    let racy = live.inner().report().racy_addrs;
    assert_eq!(racy.into_iter().collect::<Vec<_>>(), [X, Y]);
}
