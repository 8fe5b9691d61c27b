//! Child side: measure one workload in this process.
//!
//! Two passes share the set-up and the live cells:
//!
//! * the **gated** pass (`--trace 0`) produces the end-to-end metrics:
//!   set-up time, the one-worker live cells, offline replay, peak heap;
//! * the **traced** pass (`--trace 1`) produces the per-layer metrics: a few
//!   rounds of all five live cells for the rows derived from them, then
//!   cumulative journal-replay stages, the layer-isolation drives, one
//!   `sfrd-serve` session and the baseline detectors. Every timed call is
//!   one span.
//!
//! The `P`-worker cells are measured in the traced pass only. On the
//! two-vCPU boxes this runs on, what two busy threads get varies between
//! 1.2 and 2 cores from minute to minute, so a `P`-worker wall time does
//! not repeat to any bound a gate could use (README, "Why the parallel
//! cells are not gated").
//!
//! Every timed repetition and every check is an *operation*: announced on
//! stdout before it starts and reported when it ends, so the parent's
//! watchdog can name what a hung child left unfinished.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use sfrd_core::{
    drive, DetectorKind, DriveConfig, EngineConfig, Mode, RaceReport, ReachOnly, SfDetector,
    Workload,
};
use sfrd_runtime::{run_sequential, Batched, NullHooks};
use sfrd_serve::{submit_journal, Server, ServerConfig, SessionDetector};
use sfrd_trace::{replay_journal, JEvent, JournalHooks, JournalReader, JournalWriter, ReplayStats};

use crate::futures::FuturesWorkload;
use crate::heap;
use crate::isolate;
use crate::json::Json;
use crate::stats::Summary;

/// Set-up repetitions of the gated pass (median reported).
const SETUP_REPS: usize = 7;
/// Fewest timed rounds of the gated pass, however slow the machine.
const MIN_ROUNDS: usize = 3;
/// Rounds of everything timed in the traced pass.
const TRACED_ROUNDS: usize = 3;

/// Runtime workers of the parallel cells: `min(nproc, 4)`.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// One reported metric.
pub struct Metric {
    pub unit: &'static str,
    pub summary: Summary,
    /// For a ratio: the quantity it is a ratio of, with its value.
    pub base: Option<String>,
}

impl Metric {
    pub fn to_json(&self) -> Json {
        let mut j = self.summary.to_json(self.unit);
        if let (Json::Obj(m), Some(b)) = (&mut j, &self.base) {
            m.insert("base".into(), Json::str(b.clone()));
        }
        j
    }
}

/// How to build a fresh instance of the workload and check its output.
pub struct Maker<'a, W> {
    pub build: &'a dyn Fn() -> W,
    /// The input of the `baseline.*` rows: the same input, unless a
    /// baseline detector's cost grows faster with it than SF-Order's does.
    pub build_for_baselines: &'a dyn Fn() -> W,
    pub verify: &'a dyn Fn(&W) -> bool,
}

/// One timed call, as written to the trace file.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// State of one pass over one workload.
pub struct Pass {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub metrics: BTreeMap<String, Metric>,
    pub rounds: usize,
    attempted: u64,
    failed: u64,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Pass {
    pub fn new(workload: String, seed: u64, seconds: f64, quick: bool, traced: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            quick,
            traced,
            metrics: BTreeMap::new(),
            rounds: 0,
            attempted: 0,
            failed: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Announce operations before any of them starts.
    fn plan(&self, ops: impl IntoIterator<Item = String>) {
        for op in ops {
            println!("#plan {op}");
        }
    }

    /// Report one finished operation.
    fn done(&mut self, op: &str, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        println!("#done {op} {}", if ok { "ok" } else { "fail" });
    }

    /// Time `f` as one span under the pass's root span (traced pass only);
    /// returns its result and its seconds.
    fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent: Some(0),
        });
        (r, (end - start).as_secs_f64())
    }

    fn put(&mut self, name: &str, unit: &'static str, summary: Summary) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                unit,
                summary,
                base: None,
            },
        );
    }

    fn put_value(&mut self, name: &str, unit: &'static str, x: f64) {
        self.put(name, unit, Summary::single(x));
    }

    fn put_ratio(&mut self, name: &str, unit: &'static str, num: f64, base: (&str, f64, &str)) {
        let (base_name, base_value, base_unit) = base;
        self.metrics.insert(
            name.to_string(),
            Metric {
                unit,
                summary: Summary::single(num / base_value),
                base: Some(format!("{base_name} = {base_value} {base_unit}")),
            },
        );
    }

    /// The result line the parent reads, and the trace file.
    pub fn finish(self) -> Json {
        if self.traced {
            self.write_trace_file();
        }
        Json::obj([
            ("rounds", Json::Num(self.rounds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, m)| (k.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    fn write_trace_file(&self) {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
            ("spans", Json::Arr(spans)),
        ]);
        let dir = crate::out_dir();
        let path = dir.join(format!("trace-{}.json", self.workload));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.encode()));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
}

// ------------------------------------------------------------ shared steps

/// The one-worker live cells: `drive` with defaults only.
fn t1_cells() -> [(&'static str, DriveConfig); 3] {
    let sf = |mode| DriveConfig::with(DetectorKind::SfOrder, mode, 1);
    [
        ("base_t1", DriveConfig::base(1)),
        ("reach_t1", sf(Mode::Reach)),
        ("full_t1", sf(Mode::Full)),
    ]
}

/// The `P`-worker live cells.
fn tp_cells(p: usize) -> [(&'static str, DriveConfig); 2] {
    [
        ("base_tp", DriveConfig::base(p)),
        (
            "full_tp",
            DriveConfig::with(DetectorKind::SfOrder, Mode::Full, p),
        ),
    ]
}

struct LiveRep {
    wall: f64,
    ok: bool,
    report: Option<RaceReport>,
}

/// One repetition of a live cell on a fresh instance (built and verified
/// outside the timed region; the sample is `Outcome.wall`).
fn live_rep<W: Workload>(m: &Maker<W>, cfg: DriveConfig) -> LiveRep {
    rep_on((m.build)(), m, cfg)
}

fn rep_on<W: Workload>(w: W, m: &Maker<W>, cfg: DriveConfig) -> LiveRep {
    let out = drive(&w, cfg);
    let race_free = out.report.as_ref().is_none_or(|r| r.total_races == 0);
    LiveRep {
        wall: out.wall.as_secs_f64(),
        ok: (m.verify)(&w) && race_free,
        report: out.report,
    }
}

/// Record `w`'s serial execution as a journal, as `trace_tool record
/// --journal` does.
fn record<W: Workload>(w: &W, meta: &str) -> Vec<u8> {
    let writer = JournalWriter::new(Vec::new(), meta).expect("writing to a Vec cannot fail");
    let hooks = Batched::new(JournalHooks::new(writer));
    run_sequential(&hooks, |ctx| w.run(ctx));
    hooks
        .into_inner()
        .finish_owned()
        .expect("writing to a Vec cannot fail")
}

struct Replay {
    stats: ReplayStats,
    report: RaceReport,
}

/// Offline detection: replay the journal into a fresh SF-Order detector.
/// `None` when the journal does not decode.
fn replay_full(journal: &[u8]) -> Option<Replay> {
    let det = SfDetector::from_config(&EngineConfig::new(Mode::Full));
    let mut reader = JournalReader::new(journal).ok()?;
    let stats = replay_journal(&mut reader, &det).ok()?;
    Some(Replay {
        stats,
        report: det.report(),
    })
}

/// Program-characteristic counts that must not depend on how a run was
/// executed.
fn verdict_key(r: &RaceReport) -> (BTreeSet<u64>, [u64; 6]) {
    let c = r.counts;
    (
        r.racy_addrs.clone(),
        [c.reads, c.writes, c.spawns, c.futures, c.syncs, c.gets],
    )
}

/// Measure the pass's workload.
pub fn measure<W: Workload>(pass: &mut Pass, m: &Maker<W>) {
    if pass.traced {
        traced(pass, m);
    } else {
        gated(pass, m);
    }
}

// -------------------------------------------------------------- gated pass

fn gated<W: Workload>(pass: &mut Pass, m: &Maker<W>) {
    let cells = t1_cells();
    let setup_reps = if pass.quick { 1 } else { SETUP_REPS };
    let cell_ops = |round: &str| {
        cells
            .iter()
            .map(|(name, _)| format!("{name}#{round}"))
            .chain([format!("replay_full#{round}")])
            .collect::<Vec<_>>()
    };
    pass.plan((0..setup_reps).map(|i| format!("setup#{i}")));
    pass.plan(cell_ops("warmup"));
    pass.plan(["check:replay_matches_live".to_string()]);

    // Set-up: inputs, the serial reference run (recorded), its check.
    let mut setup = Vec::new();
    let mut journal = Vec::new();
    for i in 0..setup_reps {
        let t0 = Instant::now();
        let w = (m.build)();
        journal = record(&w, &pass.workload);
        let ok = (m.verify)(&w);
        setup.push(t0.elapsed().as_secs_f64());
        pass.done(&format!("setup#{i}"), ok);
    }

    // Warm-up round: untimed, so it also carries the heap measurement, and
    // its wall time sizes the timed rounds to the `--seconds` budget.
    let measure_start = Instant::now();
    let mut live_full = None;
    let mut peak_bytes = 0;
    for (name, cfg) in &cells {
        let rep = if *name == "full_t1" {
            let (mut rep, peak) = heap::track(|| live_rep(m, *cfg));
            peak_bytes = peak;
            live_full = rep.report.take();
            rep
        } else {
            live_rep(m, *cfg)
        };
        pass.done(&format!("{name}#warmup"), rep.ok);
    }
    let warm_replay = replay_full(&journal);
    pass.done("replay_full#warmup", warm_replay.is_some());

    // Timed rounds, round-robin over the cells so drift hits all alike,
    // for as long as another round fits the budget (the next round is
    // taken to cost what the timed ones have on average; before the first,
    // what the warm-up did).
    let mut round_cost = measure_start.elapsed().as_secs_f64();
    let timed_start = Instant::now();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last_replay = warm_replay;
    let (min_rounds, budget) = if pass.quick {
        (1, 0.0)
    } else {
        (MIN_ROUNDS, pass.seconds)
    };
    let mut r = 0;
    while r < min_rounds || measure_start.elapsed().as_secs_f64() + round_cost <= budget {
        pass.plan(cell_ops(&r.to_string()));
        for (name, cfg) in &cells {
            let rep = live_rep(m, *cfg);
            samples.entry(name).or_default().push(rep.wall);
            pass.done(&format!("{name}#{r}"), rep.ok);
        }
        let t0 = Instant::now();
        let replay = replay_full(&journal);
        let secs = t0.elapsed().as_secs_f64();
        let ok = replay.as_ref().is_some_and(|x| x.report.total_races == 0);
        samples.entry("replay_full").or_default().push(secs);
        pass.done(&format!("replay_full#{r}"), ok);
        last_replay = replay;
        r += 1;
        round_cost = timed_start.elapsed().as_secs_f64() / r as f64;
    }
    pass.rounds = r;

    let same_verdict = match (&live_full, &last_replay) {
        (Some(live), Some(replay)) => verdict_key(live) == verdict_key(&replay.report),
        _ => false,
    };
    pass.done("check:replay_matches_live", same_verdict);

    pass.put(
        "setup_s",
        "s",
        Summary::of(&setup).expect("at least one set-up"),
    );
    for (name, v) in &samples {
        let s = Summary::of(v).expect("at least one round");
        pass.put(&format!("{name}_s"), "s", s);
    }
    pass.put_value("full_peak_heap_mb", "MB", peak_bytes as f64 / 1e6);
}

// ------------------------------------------------------------- traced pass

/// The `baseline.*` rows: every detector in `full` mode on one worker.
const BASELINES: [(&str, DetectorKind); 3] = [
    ("sf_full_t1", DetectorKind::SfOrder),
    ("fo_full_t1", DetectorKind::FOrder),
    ("mb_full_t1", DetectorKind::MultiBags),
];

/// What decoding the journal (stage S0) counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct DecodeCounts {
    events: u64,
    constructs: u64,
    admitted_reads: u64,
    admitted_writes: u64,
}

fn decode_only(journal: &[u8]) -> Option<DecodeCounts> {
    let mut reader = JournalReader::new(journal).ok()?;
    let mut c = DecodeCounts::default();
    while let Some(ev) = reader.next_event().ok()? {
        c.events += 1;
        match black_box(&ev) {
            JEvent::Accesses { entries, .. } => {
                let writes = entries.iter().filter(|a| a.is_write).count() as u64;
                c.admitted_writes += writes;
                c.admitted_reads += entries.len() as u64 - writes;
            }
            JEvent::TaskReturn { .. } => {}
            _ => c.constructs += 1,
        }
    }
    Some(c)
}

fn median(v: &[f64]) -> f64 {
    Summary::of(v).map_or(f64::NAN, |s| s.median)
}

fn traced<W: Workload>(pass: &mut Pass, m: &Maker<W>) {
    let p = pool_workers();
    let cells: Vec<_> = t1_cells().into_iter().chain(tp_cells(p)).collect();
    let rounds = if pass.quick { 1 } else { TRACED_ROUNDS };
    pass.rounds = rounds;
    let stage_names = ["s0_decode", "s1_batch", "s2_reach", "s3_full"];
    let round_ops = |prefixes: &[&str]| {
        (0..rounds)
            .flat_map(|r| prefixes.iter().map(move |n| format!("{n}#{r}")))
            .collect::<Vec<_>>()
    };
    let cell_names: Vec<&str> = cells.iter().map(|c| c.0).collect();
    pass.plan(["setup#0".to_string()]);
    pass.plan(cell_names.iter().map(|n| format!("{n}#warmup")));
    pass.plan(round_ops(&cell_names));
    pass.plan(round_ops(&stage_names));
    pass.plan(round_ops(&["isolate", "serve"]));
    pass.plan(round_ops(&BASELINES.map(|b| b.0)));
    pass.plan(
        ["counts_repeat", "replay_matches_live", "detectors_agree"].map(|c| format!("check:{c}")),
    );

    // Span 0 is the pass itself; it is closed when the timed work is over.
    pass.spans.push(Span {
        name: format!("traced:{}", pass.workload),
        start_ns: pass.epoch.elapsed().as_nanos() as u64,
        end_ns: 0,
        parent: None,
    });

    // Set-up, with the recording timed on its own.
    let w = (m.build)();
    let (journal, record_s) = pass.span("setup.record", || record(&w, "traced"));
    pass.done("setup#0", (m.verify)(&w));
    drop(w);

    // A few live rounds, for the rows derived from the live cells.
    for (name, cfg) in &cells {
        let rep = live_rep(m, *cfg);
        pass.done(&format!("{name}#warmup"), rep.ok);
    }
    let mut live: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut steals, mut parks) = (Vec::new(), Vec::new());
    let mut live_full = None;
    for r in 0..rounds {
        for (name, cfg) in &cells {
            let (rep, _) = pass.span(&format!("live.{name}"), || live_rep(m, *cfg));
            live.entry(name).or_default().push(rep.wall);
            pass.done(&format!("{name}#{r}"), rep.ok);
            match (*name, rep.report) {
                ("full_tp", Some(rep)) => {
                    steals.push(rep.metrics.sched_steals as f64);
                    parks.push(rep.metrics.sched_parks as f64);
                }
                ("full_t1", rep) => live_full = rep,
                _ => {}
            }
        }
    }

    // Cumulative journal-replay stages. A layer's self time is its stage
    // minus the previous one.
    let mut stage: [Vec<f64>; 4] = Default::default();
    let mut decoded = Vec::new();
    let mut replays = Vec::new();
    for r in 0..rounds {
        let (c, s0) = pass.span(stage_names[0], || decode_only(&journal));
        pass.done(&format!("{}#{r}", stage_names[0]), c.is_some());
        decoded.extend(c);
        let (ok, s1) = pass.span(stage_names[1], || {
            JournalReader::new(&journal[..])
                .and_then(|mut rd| replay_journal(&mut rd, &NullHooks))
                .is_ok()
        });
        pass.done(&format!("{}#{r}", stage_names[1]), ok);
        let (ok, s2) = pass.span(stage_names[2], || {
            let det = ReachOnly(SfDetector::from_config(&EngineConfig::new(Mode::Reach)));
            JournalReader::new(&journal[..])
                .and_then(|mut rd| replay_journal(&mut rd, &det))
                .is_ok()
        });
        pass.done(&format!("{}#{r}", stage_names[2]), ok);
        let (replay, s3) = pass.span(stage_names[3], || replay_full(&journal));
        let ok = replay.as_ref().is_some_and(|x| x.report.total_races == 0);
        pass.done(&format!("{}#{r}", stage_names[3]), ok);
        replays.extend(replay);
        for (v, s) in stage.iter_mut().zip([s0, s1, s2, s3]) {
            v.push(s);
        }
    }

    // Layer-isolation drives over the decoded journal.
    let events = JournalReader::new(&journal[..])
        .and_then(|mut rd| rd.read_all())
        .unwrap_or_default();
    let mut iso: Vec<isolate::Isolated> = Vec::new();
    for r in 0..rounds {
        let (x, _) = pass.span("isolate", || isolate::run(&events));
        pass.done(&format!("isolate#{r}"), x.is_some());
        iso.extend(x);
    }
    drop(events);

    // One session against an in-process server: framing and queueing made
    // visible next to the bare replay.
    let mut serve = Vec::new();
    let mut cfg = ServerConfig::default();
    cfg.workers = 1;
    let server = Server::bind("127.0.0.1:0", cfg);
    for r in 0..rounds {
        let (resp, secs) = pass.span("serve.session", || {
            let addr = server.as_ref().ok()?.local_addr();
            submit_journal(&addr, SessionDetector::SfOrder, &journal).ok()
        });
        let ok = resp.is_some_and(|l| l.starts_with("OK total=0 "));
        serve.push(secs);
        pass.done(&format!("serve#{r}"), ok);
    }
    if let Ok(s) = server {
        s.shutdown();
    }

    // The paper's comparison: the three detectors on one input.
    let mut baseline: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut baseline_addrs = Vec::new();
    for r in 0..rounds {
        for (name, kind) in BASELINES {
            let cfg = DriveConfig::with(kind, Mode::Full, 1);
            let w = (m.build_for_baselines)();
            let (rep, _) = pass.span(&format!("baseline.{name}"), || rep_on(w, m, cfg));
            baseline.entry(name).or_default().push(rep.wall);
            pass.done(&format!("{name}#{r}"), rep.ok);
            baseline_addrs.extend(rep.report.map(|x| x.racy_addrs));
        }
    }
    pass.spans[0].end_ns = pass.epoch.elapsed().as_nanos() as u64;

    // Checks on what the rounds produced.
    let counts_repeat = decoded.len() == rounds
        && replays.len() == rounds
        && decoded.windows(2).all(|w| w[0] == w[1])
        && replays
            .windows(2)
            .all(|w| w[0].stats == w[1].stats && w[0].report.counts == w[1].report.counts);
    pass.done("check:counts_repeat", counts_repeat);
    let (Some(dec), Some(s3)) = (decoded.first().copied(), replays.pop()) else {
        // The journal did not decode: the operations above already failed.
        pass.done("check:replay_matches_live", false);
        pass.done("check:detectors_agree", false);
        return;
    };
    let same_verdict = live_full
        .as_ref()
        .is_some_and(|l| verdict_key(l) == verdict_key(&s3.report));
    pass.done("check:replay_matches_live", same_verdict);
    let agree = baseline_addrs.len() == BASELINES.len() * rounds
        && baseline_addrs.iter().all(|a| *a == s3.report.racy_addrs);
    pass.done("check:detectors_agree", agree);

    // ---- the ledger
    let live_med = |name: &str| median(&live[name]);
    let (base_t1, base_tp) = (live_med("base_t1"), live_med("base_tp"));
    let (reach_t1, full_t1, full_tp) = (
        live_med("reach_t1"),
        live_med("full_t1"),
        live_med("full_tp"),
    );
    let [s0, s1, s2, s3_s] = [0, 1, 2, 3].map(|i| median(&stage[i]));
    let counts = s3.report.counts;
    let admitted = s3.stats.accesses as f64;
    let raw = (s3.stats.accesses + s3.stats.filtered) as f64;
    let tasks = (counts.spawns + counts.futures + 1) as f64;
    let queries = counts.queries as f64;
    let iso_med = |f: fn(&isolate::Isolated) -> f64| median(&iso.iter().map(f).collect::<Vec<_>>());
    let precedes_ns = iso_med(|x| x.reach_precedes_ns);
    let slot_read_ns = iso_med(|x| x.slot_read_ns);
    let slot_write_ns = iso_med(|x| x.slot_write_ns);
    let access_path_ns = (s3_s - s2) * 1e9 / admitted;
    let slot_ns = (dec.admitted_reads as f64 * slot_read_ns
        + dec.admitted_writes as f64 * slot_write_ns)
        / admitted;

    for (name, v) in &live {
        let s = Summary::of(v).expect("at least one round");
        pass.put(&format!("live.{name}_s"), "s", s);
    }
    for (name, v) in stage_names.iter().zip(&stage) {
        let s = Summary::of(v).expect("at least one round");
        pass.put(&format!("stage.{name}_s"), "s", s);
    }

    pass.put_value("workloads.raw_accesses", "count", raw);
    pass.put_value("workloads.write_share", "ratio", counts.writes as f64 / raw);
    pass.put_value("workloads.base_ns_per_access", "ns", base_t1 * 1e9 / raw);

    pass.put_value("runtime.tasks", "count", tasks);
    pass.put_value("runtime.base_ns_per_task", "ns", base_t1 * 1e9 / tasks);
    pass.put_value(
        "runtime.filter_hit_ratio",
        "ratio",
        s3.stats.filtered as f64 / raw,
    );
    pass.put_value("runtime.batch_flushes", "count", s3.stats.flushes as f64);
    pass.put_value(
        "runtime.replay_batch_ns_per_access",
        "ns",
        (s1 - s0) * 1e9 / admitted,
    );
    pass.put_value(
        "runtime.live_record_ns_per_access",
        "ns",
        (full_t1 - base_t1 - (s3_s - s0)) * 1e9 / raw,
    );
    pass.put(
        "runtime.steals",
        "count",
        Summary::of(&steals).expect("at least one round"),
    );
    pass.put(
        "runtime.parks",
        "count",
        Summary::of(&parks).expect("at least one round"),
    );
    pass.put_value(
        "runtime.tp_efficiency",
        "ratio",
        full_t1 / (p as f64 * full_tp),
    );

    pass.put_value(
        "reach.construct_ns_per_event",
        "ns",
        (s2 - s1) * 1e9 / dec.constructs as f64,
    );
    pass.put_value("reach.construct_share_of_s3", "ratio", (s2 - s1) / s3_s);
    pass.put_value("reach.queries_per_access", "ratio", queries / raw);
    pass.put_value(
        "reach.set_merges",
        "count",
        s3.report.metrics.bitmap_merges as f64,
    );
    pass.put_value("reach.heap_kb", "KB", s3.report.reach_bytes as f64 / 1e3);
    pass.put_value("reach.precedes_ns_per_query", "ns", precedes_ns);

    pass.put_value("om.fork_ns", "ns", iso_med(|x| x.om_fork_ns));
    pass.put_value("om.precedes_ns", "ns", iso_med(|x| x.om_precedes_ns));

    pass.put_value("shadow.slot_ns_per_read", "ns", slot_read_ns);
    pass.put_value("shadow.slot_ns_per_write", "ns", slot_write_ns);
    pass.put_value(
        "shadow.history_mb",
        "MB",
        s3.report.history_bytes as f64 / 1e6,
    );
    pass.put_value(
        "shadow.fast_hit_ratio",
        "ratio",
        s3.report.metrics.shadow_fast_hits as f64 / (counts.reads as f64).max(1.0),
    );

    pass.put_value("core.access_path_ns_per_access", "ns", access_path_ns);
    pass.put_value(
        "core.protocol_ns_per_access",
        "ns",
        access_path_ns - slot_ns - queries / admitted * precedes_ns,
    );
    let hits = s3.report.metrics.seqlock_hits as f64;
    pass.put_value(
        "core.verdict_cache_hit_ratio",
        "ratio",
        hits / (hits + queries).max(1.0),
    );

    pass.put_value("trace.journal_mb", "MB", journal.len() as f64 / 1e6);
    pass.put_value(
        "trace.bytes_per_access",
        "B",
        journal.len() as f64 / admitted,
    );
    pass.put_value("trace.decode_ns_per_access", "ns", s0 * 1e9 / admitted);
    pass.put_value("trace.record_s", "s", record_s);

    let session = Summary::of(&serve).expect("at least one round");
    pass.put("serve.session_s", "s", session);
    pass.put_value("serve.overhead_s", "s", session.median - s3_s);

    for (name, v) in &baseline {
        let s = Summary::of(v).expect("at least one round");
        pass.put(&format!("baseline.{name}_s"), "s", s);
    }

    // Where a `full` access's nanoseconds go, per raw access: with
    // `workloads.base_ns_per_access` and `runtime.live_record_ns_per_access`
    // these rows sum to `ratio.full_ns_per_access_t1` by construction.
    let per_raw = |secs: f64| secs * 1e9 / raw;
    let slot_per_raw = slot_ns * admitted / raw;
    let queries_per_raw = queries / raw * precedes_ns;
    pass.put_value("ledger.replay_batch_ns", "ns", per_raw(s1 - s0));
    pass.put_value("ledger.reach_constructs_ns", "ns", per_raw(s2 - s1));
    pass.put_value("ledger.shadow_slot_ns", "ns", slot_per_raw);
    pass.put_value("ledger.reach_queries_ns", "ns", queries_per_raw);
    pass.put_value(
        "ledger.core_protocol_ns",
        "ns",
        per_raw(s3_s - s2) - slot_per_raw - queries_per_raw,
    );

    pass.put_ratio(
        "ratio.reach_overhead_t1",
        "x",
        reach_t1,
        ("live.base_t1_s", base_t1, "s"),
    );
    pass.put_ratio(
        "ratio.full_overhead_t1",
        "x",
        full_t1,
        ("live.base_t1_s", base_t1, "s"),
    );
    pass.put_ratio(
        "ratio.full_overhead_tp",
        "x",
        full_tp,
        ("live.base_tp_s", base_tp, "s"),
    );
    pass.put_ratio(
        "ratio.base_speedup_tp",
        "x",
        base_t1,
        ("live.base_tp_s", base_tp, "s"),
    );
    pass.put_ratio(
        "ratio.full_speedup_tp",
        "x",
        full_t1,
        ("live.full_tp_s", full_tp, "s"),
    );
    pass.put_ratio(
        "ratio.full_ns_per_access_t1",
        "ns",
        full_t1 * 1e9,
        ("workloads.raw_accesses", raw, "count"),
    );
}

// ------------------------------------------------- futures-only race checks

/// The racy variant of `futures` must be reported on exactly its shared
/// cells: by SF-Order at 1 and `P` workers (gated pass), and by F-Order
/// and MultiBags as well (traced pass).
pub fn racy_futures_checks(pass: &mut Pass, build: &dyn Fn() -> FuturesWorkload) {
    let p = pool_workers();
    let configs: &[(&str, DetectorKind, usize)] = if pass.traced {
        &[
            ("check:racy_futures_fo", DetectorKind::FOrder, 1),
            ("check:racy_futures_mb", DetectorKind::MultiBags, 1),
        ]
    } else {
        &[
            ("check:racy_futures_sf_t1", DetectorKind::SfOrder, 1),
            ("check:racy_futures_sf_tp", DetectorKind::SfOrder, p),
        ]
    };
    pass.plan(configs.iter().map(|c| c.0.to_string()));
    for &(op, kind, workers) in configs {
        let w = build();
        let out = drive(&w, DriveConfig::with(kind, Mode::Full, workers));
        let exact = out
            .report
            .is_some_and(|r| r.racy_addrs == w.expected_racy_addrs());
        pass.done(op, exact && w.verify());
    }
}
