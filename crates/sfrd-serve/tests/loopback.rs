//! Loopback acceptance tests: many concurrent sessions whose replayed
//! verdicts match live detection, a stalled client that holds up only its
//! own session, and malformed or mutated input answered with `ERR` —
//! however much of it follows — never a reset, a hang or a dead server.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;

use sfrd_core::{EngineConfig, FoDetector, GenWorkload, MbDetector, SfDetector, Workload};
use sfrd_dag::generator::{GenParams, GenProgram};
use sfrd_runtime::{run_sequential, Batched, Runtime, TaskHooks};
use sfrd_serve::{submit_journal, Server, ServerConfig, SessionDetector};
use sfrd_trace::{replay_journal, JournalHooks, JournalReader, JournalWriter};

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

/// Record a sequential batched run of `prog` into an in-memory journal.
fn record_seq(prog: &GenProgram) -> Vec<u8> {
    let writer = JournalWriter::new(Vec::new(), "loopback").expect("Vec sink");
    let hooks = Batched::new(JournalHooks::new(writer));
    let w = GenWorkload(prog.clone());
    run_sequential(&hooks, |ctx| w.run(ctx));
    hooks.into_inner().finish_owned().expect("finish journal")
}

/// Record `prog` from a real parallel execution on `workers` workers.
fn record_par(prog: &GenProgram, workers: usize) -> Vec<u8> {
    let writer = JournalWriter::new(Vec::new(), "loopback-par").expect("Vec sink");
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

/// A journal of 40 000 one-access events: well past the 32 KiB frame cap,
/// so it spans several frames.
fn multi_frame_journal() -> Vec<u8> {
    let mut w = JournalWriter::new(Vec::new(), "multi-frame").expect("Vec sink");
    for i in 0..40_000u64 {
        w.accesses(
            0,
            (0, 0),
            &[sfrd_runtime::BatchedAccess {
                addr: (i % 8) * 64,
                is_write: i % 3 == 0,
            }],
        );
    }
    w.task_end(0);
    w.finish().expect("finish")
}

/// The live racy-address verdict for `prog` under a detector (sequential
/// batched run — the verdict is a dag property, so any schedule agrees).
fn live_racy_addrs<H: TaskHooks + DetectorReport>(det: H, prog: &GenProgram) -> BTreeSet<u64> {
    let det = Batched::new(det);
    let w = GenWorkload(prog.clone());
    run_sequential(&det, |ctx| w.run(ctx));
    det.into_inner().racy_addrs()
}

/// Uniform access to the racy-address set of the three detector types.
trait DetectorReport {
    fn racy_addrs(&self) -> BTreeSet<u64>;
}

impl DetectorReport for SfDetector {
    fn racy_addrs(&self) -> BTreeSet<u64> {
        self.report().racy_addrs
    }
}

impl DetectorReport for FoDetector {
    fn racy_addrs(&self) -> BTreeSet<u64> {
        self.report().racy_addrs
    }
}

impl DetectorReport for MbDetector {
    fn racy_addrs(&self) -> BTreeSet<u64> {
        self.report().racy_addrs
    }
}

/// Pull `key=` out of an `OK ...` response line.
fn field<'a>(resp: &'a str, key: &str) -> &'a str {
    resp.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= field in {resp:?}"))
}

fn addrs_of(resp: &str) -> BTreeSet<u64> {
    let raw = field(resp, "addrs");
    if raw.is_empty() {
        return BTreeSet::new();
    }
    raw.split(',').map(|a| a.parse().expect("addr")).collect()
}

/// Send `payload` raw, close the write half, and read the one response
/// line. A session that neither answers nor closes within the deadline
/// fails the read (a wedged session), rather than hanging the test.
fn roundtrip(addr: SocketAddr, payload: &[u8]) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    s.write_all(payload)?;
    s.shutdown(Shutdown::Write)?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

/// Poll until no session is open (the count drops as a session's thread
/// leaves, just before its response is written).
fn wait_all_closed(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().sessions_open != 0 {
        assert!(
            Instant::now() < deadline,
            "open sessions leaked: {:?}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// ≥64 concurrent sessions, each on its own thread: every response must
/// carry the same racy-address verdict as live detection of the same
/// program, and the server must have read exactly the bytes sent.
#[test]
fn sixty_four_concurrent_sessions_match_live() {
    const JOURNALS: usize = 8;
    const SESSIONS: usize = 64;

    let progs: Vec<GenProgram> = (0..JOURNALS as u64).map(|s| gen_prog(0xA5A5 + s)).collect();
    let journals: Vec<Vec<u8>> = progs.iter().map(record_seq).collect();
    let sf_live: Vec<BTreeSet<u64>> = progs
        .iter()
        .map(|p| live_racy_addrs(SfDetector::from_config(&EngineConfig::default()), p))
        .collect();
    let fo_live: Vec<BTreeSet<u64>> = progs
        .iter()
        .map(|p| live_racy_addrs(FoDetector::from_config(&EngineConfig::default()), p))
        .collect();

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    let det_of = |i: usize| {
        if i.is_multiple_of(2) {
            SessionDetector::SfOrder
        } else {
            SessionDetector::FOrder
        }
    };
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let journal = journals[i % JOURNALS].clone();
            let det = det_of(i);
            std::thread::spawn(move || {
                let resp = submit_journal(&addr, det, &journal).expect("submit");
                (i, resp)
            })
        })
        .collect();

    let mut any_racy = false;
    let mut sent = 0u64;
    for h in handles {
        let (i, resp) = h.join().expect("client thread");
        assert!(resp.starts_with("OK "), "session {i}: {resp:?}");
        let expect = match det_of(i) {
            SessionDetector::SfOrder => &sf_live[i % JOURNALS],
            _ => &fo_live[i % JOURNALS],
        };
        assert_eq!(
            &addrs_of(&resp),
            expect,
            "session {i} verdict diverged from live: {resp:?}"
        );
        any_racy |= !expect.is_empty();
        let session_bytes =
            (format!("DETECT {}\n", det_of(i).label()).len() + journals[i % JOURNALS].len()) as u64;
        assert_eq!(field(&resp, "bytes"), session_bytes.to_string(), "{resp:?}");
        sent += session_bytes;
    }
    assert!(any_racy, "racy regime produced no races at all");

    let m = server.metrics();
    assert_eq!(m.sessions_total, SESSIONS as u64);
    assert_eq!(m.bytes_in, sent, "the server read past some journal's end");
    wait_all_closed(&server);
    server.shutdown();
}

/// A client that stops sending mid-journal stalls its own session only:
/// another session is answered while it waits, and it finishes once the
/// rest of its journal arrives.
#[test]
fn a_stalled_session_holds_up_only_itself() {
    let journal = multi_frame_journal();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    // Header and a first frame and a half, then silence.
    let half = journal.len() / 2;
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"DETECT sf\n").expect("write");
    slow.write_all(&journal[..half]).expect("write");
    slow.flush().expect("flush");

    // Once the slow session is open, a second one runs to completion
    // beside it (within `roundtrip`'s deadline: a server that made it
    // wait for the slow one fails here instead of hanging).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().sessions_open == 0 {
        assert!(Instant::now() < deadline, "the slow session never opened");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut req = b"DETECT sf\n".to_vec();
    req.extend_from_slice(&record_seq(&gen_prog(7)));
    let fast = roundtrip(addr, &req).expect("the second session was held up");
    assert!(fast.starts_with("OK "), "{fast:?}");
    assert_eq!(field(&fast, "open"), "2", "the slow session is still open");

    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    slow.write_all(&journal[half..]).expect("write");
    let mut resp = String::new();
    BufReader::new(slow).read_line(&mut resp).expect("read");
    assert!(resp.starts_with("OK "), "{resp:?}");
    assert_eq!(field(&resp, "events"), "40001");
    assert_eq!(
        field(&resp, "bytes"),
        (b"DETECT sf\n".len() + journal.len()).to_string()
    );
    wait_all_closed(&server);
    server.shutdown();
}

/// The acceptance scenario: a journal recorded at 8 workers, replayed
/// single-threaded *and* via the server, yields racy-set verdicts
/// identical to live detection for SF-Order and F-Order; MultiBags ditto
/// from a sequential recording.
#[test]
fn eight_worker_recording_matches_live_everywhere() {
    // First seed whose program actually races, so the comparison is
    // non-vacuous (deterministic: the scan order is fixed).
    let (prog, sf_live) = (0u64..64)
        .map(|s| {
            let p = gen_prog(0xBEEF + s);
            let v = live_racy_addrs(SfDetector::from_config(&EngineConfig::default()), &p);
            (p, v)
        })
        .find(|(_, v)| !v.is_empty())
        .expect("some seed in the racy regime must race");
    let par_journal = record_par(&prog, 8);
    let seq_journal = record_seq(&prog);

    let fo_live = live_racy_addrs(FoDetector::from_config(&EngineConfig::default()), &prog);
    let mb_live = live_racy_addrs(MbDetector::from_config(&EngineConfig::default()), &prog);

    // Single-threaded replay, straight through the library.
    let sf = SfDetector::from_config(&EngineConfig::default());
    let mut reader = JournalReader::new(&par_journal[..]).expect("header");
    replay_journal(&mut reader, &sf).expect("replay");
    assert_eq!(sf.report().racy_addrs, sf_live);

    let fo = FoDetector::from_config(&EngineConfig::default());
    let mut reader = JournalReader::new(&par_journal[..]).expect("header");
    replay_journal(&mut reader, &fo).expect("replay");
    assert_eq!(fo.report().racy_addrs, fo_live);

    // Via the server.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    let resp = submit_journal(&addr, SessionDetector::SfOrder, &par_journal).expect("sf");
    assert!(resp.starts_with("OK "), "{resp:?}");
    assert_eq!(addrs_of(&resp), sf_live);

    let resp = submit_journal(&addr, SessionDetector::FOrder, &par_journal).expect("f");
    assert!(resp.starts_with("OK "), "{resp:?}");
    assert_eq!(addrs_of(&resp), fo_live);

    // A sequential recording, which replay runs as recorded.
    let resp = submit_journal(&addr, SessionDetector::MultiBags, &seq_journal).expect("mb");
    assert!(resp.starts_with("OK "), "{resp:?}");
    assert_eq!(addrs_of(&resp), mb_live);

    server.shutdown();
}

/// MultiBags is sound only in serial-elision order, which no pool
/// recording of a program with a construct is in; replay runs the journal
/// in that order anyway, so a `DETECT mb` session on one answers `OK`
/// with SF-Order's racy addresses.
#[test]
fn multibags_answers_ok_on_a_pool_journal() {
    // First seed whose program has a construct and races, so the
    // agreement is non-vacuous.
    let (prog, sf_live) = (0u64..64)
        .map(|s| {
            let p = gen_prog(0xBEEF + s);
            let v = live_racy_addrs(SfDetector::from_config(&EngineConfig::default()), &p);
            (p, v)
        })
        .find(|(p, v)| p.counts() != (0, 0) && !v.is_empty())
        .expect("some seed in the racy regime must race");
    let journal = record_par(&prog, 2);
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let sf = submit_journal(&addr, SessionDetector::SfOrder, &journal).expect("sf");
    assert!(sf.starts_with("OK "), "{sf:?}");
    assert_eq!(addrs_of(&sf), sf_live);
    let mb = submit_journal(&addr, SessionDetector::MultiBags, &journal).expect("mb");
    assert!(mb.starts_with("OK "), "{mb:?}");
    assert_eq!(addrs_of(&mb), sf_live);
    wait_all_closed(&server);
    server.shutdown();
}

/// Protocol abuse gets an `ERR` line, and byte-mutated journals get an
/// `OK` or `ERR` line — never a reset, a hang or a dead server.
#[test]
fn protocol_errors_answer_err() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let err = |payload: &[u8]| roundtrip(addr, payload).expect("roundtrip");

    // Not a handshake at all.
    assert!(err(b"HELLO\n").starts_with("ERR "));
    // Unknown detector token.
    assert!(err(b"DETECT quantum\n").starts_with("ERR "));
    // Handshake then garbage instead of a journal header.
    assert!(err(b"DETECT sf\ngarbage").starts_with("ERR "));
    // Valid header, then the connection dies mid-stream: truncated.
    let valid = JournalWriter::new(Vec::new(), "x")
        .expect("Vec sink")
        .finish()
        .expect("finish");
    let header = &valid[..valid.len() - 5]; // drop the end frame
    let mut req = b"DETECT sf\n".to_vec();
    req.extend_from_slice(header);
    assert!(err(&req).starts_with("ERR "));

    // Byte flips, truncations and insertions anywhere in a real journal.
    let journal = record_seq(&gen_prog(7));
    let mut rng = StdRng::seed_from_u64(0x5E55);
    for _ in 0..48 {
        let mut bytes = journal.clone();
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
        let mut req = b"DETECT sf\n".to_vec();
        req.extend_from_slice(&bytes);
        let line = roundtrip(addr, &req)
            .unwrap_or_else(|e| panic!("a mutated journal wedged or broke its session: {e}"));
        assert!(
            line.starts_with("OK ") || line.starts_with("ERR "),
            "{line:?}"
        );
    }

    // The server survives all of it and still serves a real session.
    let resp = submit_journal(&addr, SessionDetector::SfOrder, &journal).expect("submit");
    assert!(resp.starts_with("OK "), "{resp:?}");
    wait_all_closed(&server);
    server.shutdown();
}

/// A journal rejected at its first bytes, with megabytes behind them that
/// the client is still sending: the server reads on past its answer, so
/// closing the connection does not reset it and the client reads the
/// `ERR` line, not "connection reset".
#[test]
fn a_rejected_journal_still_gets_its_err_line() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let body = vec![0u8; 8 << 20];
    for session in 0..5 {
        let resp = submit_journal(&addr, SessionDetector::SfOrder, &body)
            .unwrap_or_else(|e| panic!("session {session}: {e}"));
        assert_eq!(
            resp, "ERR not a binary journal (bad magic)",
            "session {session}"
        );
    }
    wait_all_closed(&server);
    server.shutdown();
}
