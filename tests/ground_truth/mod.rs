//! Ground truth: every detector, run exactly as `drive` runs it, against
//! the exact oracle on the dag that actually executed. The probe is shared
//! by the `oracle_props`, `interning` and `parallel_oracle` suites, each of
//! which uses part of it.
//!
//! One generic [`Probe`] sits in front of two hooks on the same schedule:
//! [`RecordingHooks`], which sees every access, and a
//! `Batched<EventSink<E>>` — the detector `drive` builds, write-combining
//! filter and bulk access path included. At every access, before the
//! access reaches either half, the probe
//!
//! * asks the engine, through the detector's own one-word [`Pos`] path,
//!   whether each earlier access precedes this one, and
//! * notes the accessing strand's `(node, Pos, rich position)`.
//!
//! After the run it asserts that the recorded program is structured, that
//! every verdict equals the oracle's reachability (Algorithm 1's
//! `precedes` is reachability; PSP-join edges excluded), that ids and rich
//! positions correspond one-to-one and each id resolves to its position
//! (interning preserves equality), that its construct counts match the
//! program (so a fork-join program reports 0 futures) and, in full mode,
//! that the batched detector's racy address set equals the oracle's.
//!
//! SF-Order under both reader policies and F-Order run on the sequential
//! runtime and on pools of 1, 2 and 3 workers; MultiBags runs sequentially,
//! the one way it runs. One configuration on one schedule is a *turn*
//! ([`turn`]); there are [`TURNS`] of them. A full-mode run sets up a fresh
//! access history, whose eager page directory once cost about 8 ms in a
//! debug build (0.2 ms since it became three levels of 16 KiB nodes), so
//! generated programs rotate the full-mode turn and its address
//! layout by their seed ([`check_every_engine`]) and run every other engine
//! in reach mode, which builds no history but answers the same queries and
//! mints the same ids. Fixed programs take every turn in both layouts
//! ([`check`]): addresses as generated (0–3 share one 8-byte word, so one
//! filter way and the shadow's sub-word fallback see them) and spaced 8
//! bytes apart (one paged slot each, the zero-store same-epoch rules).

#![allow(dead_code)] // Each suite uses part of the probe.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use sfrd::core::{
    EngineConfig, EventSink, FoDetector, GenWorkload, MbDetector, Mode, ReachEngine,
    RecordingHooks, SfDetector, Workload,
};
use sfrd::dag::generator::{Body, GenParams, GenProgram, Op};
use sfrd::dag::{EdgeKind, NodeId, ReachOracle, RecStrand};
use sfrd::reach::{FoReach, FoStrand, MbPos, MbStrand, Pos, SfPos, SfReach, SfStrand, StrandPos};
use sfrd::runtime::hooks::PairHooks;
use sfrd::runtime::{run_sequential, BatchStrand, Batched, Runtime, TaskHooks};
use sfrd::shadow::ReaderPolicy;

/// An engine whose strands can be observed both ways: the interned id the
/// detector stores, and the rich position it was minted for.
pub trait Observed: ReachEngine + Sized {
    type Rich: Copy + Eq + Hash + Debug + Send + 'static;
    fn rich(s: &Self::Strand) -> Self::Rich;
    fn resolve(det: &EventSink<Self>, p: Pos) -> Self::Rich;
}

impl Observed for SfReach {
    type Rich = SfPos;
    fn rich(s: &SfStrand) -> SfPos {
        s.pos()
    }
    fn resolve(det: &SfDetector, p: Pos) -> SfPos {
        det.engine().resolve(p)
    }
}

impl Observed for FoReach {
    type Rich = StrandPos;
    fn rich(s: &FoStrand) -> StrandPos {
        s.pos()
    }
    fn resolve(det: &FoDetector, p: Pos) -> StrandPos {
        det.engine().resolve(p)
    }
}

/// The engine a detector runs on, named through the detector: MultiBags'
/// is a mutex around its union-find, of a crate this one does not use.
pub trait Sink {
    type Engine;
}

impl<E: ReachEngine> Sink for EventSink<E> {
    type Engine = E;
}

impl Observed for <MbDetector as Sink>::Engine {
    type Rich = MbPos;
    fn rich(s: &MbStrand) -> MbPos {
        s.pos()
    }
    fn resolve(det: &MbDetector, p: Pos) -> MbPos {
        det.engine().lock().resolve(p)
    }
}

/// What the probe noted, in arrival order.
struct Log<R> {
    /// `(node, id, rich)` of every access.
    seen: Vec<(NodeId, Pos, R)>,
    /// `(u, v, verdict)`: the engine's answer to "does the access at `u`
    /// precede the one at `v`", asked when `v`'s access arrived.
    verdicts: Vec<(NodeId, NodeId, bool)>,
}

/// The dag recorder and the batched detector on one schedule, with every
/// access observed before either half sees it.
pub struct Probe<E: Observed> {
    hooks: PairHooks<RecordingHooks, Batched<EventSink<E>>>,
    /// Address layout: each generated address is multiplied by this.
    stride: u64,
    log: Mutex<Log<E::Rich>>,
}

type Strand<E> = (RecStrand, BatchStrand<<E as ReachEngine>::Strand>);

impl<E: Observed> Probe<E> {
    fn access(&self, s: &mut Strand<E>, addr: u64, write: bool) {
        let engine = self.hooks.1.inner().engine();
        let (node, strand) = (s.0.node, s.1.inner());
        // Take the earlier accesses under the lock and query without it, so
        // the workers' accesses interleave as they do under `drive`. Of two
        // concurrent accesses, the one that pushes second queries the other.
        let earlier: Vec<(NodeId, Pos)> = {
            let mut log = self.log.lock().unwrap();
            let earlier = log.seen.iter().map(|&(u, pos, _)| (u, pos)).collect();
            log.seen.push((node, E::pos(strand), E::rich(strand)));
            earlier
        };
        let verdicts: Vec<_> = earlier
            .into_iter()
            .map(|(u, pos)| (u, node, engine.precedes(pos, strand)))
            .collect();
        self.log.lock().unwrap().verdicts.extend(verdicts);
        self.hooks.on_access(s, addr * self.stride, write);
    }
}

impl<E: Observed> TaskHooks for Probe<E> {
    type Strand = Strand<E>;

    fn root(&self) -> Strand<E> {
        self.hooks.root()
    }
    fn on_spawn(&self, p: &mut Strand<E>) -> Strand<E> {
        self.hooks.on_spawn(p)
    }
    fn on_create(&self, p: &mut Strand<E>) -> Strand<E> {
        self.hooks.on_create(p)
    }
    fn on_sync(&self, s: &mut Strand<E>, children: Vec<Strand<E>>) {
        self.hooks.on_sync(s, children)
    }
    fn on_get(&self, s: &mut Strand<E>, done: &Strand<E>) {
        self.hooks.on_get(s, done)
    }
    fn on_task_end(&self, s: &mut Strand<E>) {
        self.hooks.on_task_end(s)
    }
    fn on_task_return(&self, p: &mut Strand<E>, c: &mut Strand<E>) {
        self.hooks.on_task_return(p, c)
    }
    fn on_access(&self, s: &mut Strand<E>, addr: u64, is_write: bool) {
        self.access(s, addr, is_write)
    }
}

/// A probed run's size, for the tests that check the probe is not vacuous.
pub struct Seen {
    pub accesses: usize,
    pub positions: usize,
    /// The racy addresses, the oracle's and the detector's alike.
    pub racy: BTreeSet<u64>,
}

/// Run `prog` under `det` — on `pool`, or sequentially without one — in
/// address layout `stride`, and check everything the probe saw.
pub fn probe<E: Observed>(
    det: EventSink<E>,
    prog: &GenProgram,
    pool: Option<&Runtime<Probe<E>>>,
    stride: u64,
    what: &str,
) -> Seen {
    let probe = Arc::new(Probe {
        hooks: PairHooks(RecordingHooks::new(), Batched::new(det)),
        stride,
        log: Mutex::new(Log {
            seen: Vec::new(),
            verdicts: Vec::new(),
        }),
    });
    let w = GenWorkload(prog.clone());
    match pool {
        Some(rt) => rt.run(Arc::clone(&probe), |ctx| w.run(ctx)),
        None => run_sequential(&*probe, |ctx| w.run(ctx)),
    }
    let workers = pool.map_or(0, Runtime::workers);
    let what = format!("{what} workers={workers} stride={stride}");
    let Probe { hooks, log, .. } = Arc::into_inner(probe).expect("run finished");
    let PairHooks(rec, det) = hooks;
    let Log { seen, verdicts } = log.into_inner().unwrap();
    let recorded = RecordingHooks::finish(Arc::new(rec));
    let det = det.inner();

    recorded
        .validate()
        .unwrap_or_else(|e| panic!("{what}: unstructured program: {e}\n{prog:?}"));
    let oracle = ReachOracle::build(&recorded.dag, |k| k != EdgeKind::PspJoin);
    for (u, v, got) in verdicts {
        let want = oracle.precedes_eq(u, v);
        assert_eq!(
            got,
            want,
            "{what}: precedes({u}, {v}) = {got}, oracle says {want}\n{prog:?}\ndag:\n{}",
            recorded.dag.to_dot()
        );
    }

    let mut by_id: HashMap<Pos, E::Rich> = HashMap::new();
    let mut by_rich: HashMap<E::Rich, Pos> = HashMap::new();
    for &(_, id, rich) in &seen {
        let id_rich = *by_id.entry(id).or_insert(rich);
        assert_eq!(id_rich, rich, "{what}: one id, two positions\n{prog:?}");
        let rich_id = *by_rich.entry(rich).or_insert(id);
        assert_eq!(rich_id, id, "{what}: one position, two ids\n{prog:?}");
    }
    for (&id, &rich) in &by_id {
        assert_eq!(
            E::resolve(det, id),
            rich,
            "{what}: {id:?} resolves elsewhere"
        );
    }

    // The racy set and counts, read from the collector and the counters.
    let want: BTreeSet<u64> = recorded.races().iter().map(|r| r.addr).collect();
    let counts = det.counters.snapshot();
    let (spawns, creates) = prog.counts();
    assert_eq!(recorded.dag.future_count(), creates + 1, "{what}\n{prog:?}");
    assert_eq!(
        (counts.spawns, counts.futures),
        (spawns as u64, creates as u64),
        "{what}: construct counts\n{prog:?}"
    );
    if det.history().is_some() {
        let got = det.collector.racy_addrs();
        assert_eq!(got, want, "{what}: racy addresses\n{prog:?}");
        assert_eq!(
            (counts.reads + counts.writes) as usize,
            seen.len(),
            "{what}: access counts\n{prog:?}"
        );
    }
    Seen {
        accesses: seen.len(),
        positions: by_id.len(),
        racy: want,
    }
}

/// One pool per worker count and parallel engine, shared by every test.
struct Pools {
    sf: [Runtime<Probe<SfReach>>; 3],
    fo: [Runtime<Probe<FoReach>>; 3],
}

fn pools() -> &'static Pools {
    static POOLS: OnceLock<Pools> = OnceLock::new();
    POOLS.get_or_init(|| Pools {
        sf: [1, 2, 3].map(Runtime::new),
        fo: [1, 2, 3].map(Runtime::new),
    })
}

/// The configurations a turn can run.
pub const SF_ALL: usize = 0;
pub const SF_LR: usize = 1;
pub const F_ORDER: usize = 2;
pub const MULTIBAGS: usize = 3;

/// The distinct turns: three configurations on four schedules, and
/// MultiBags on the sequential runtime.
pub const TURNS: usize = 13;

/// The turn that runs configuration `config` on schedule `workers`: the
/// sequential runtime for 0, else a pool of that many workers (1 to 3).
pub fn turn(config: usize, workers: usize) -> usize {
    if config == MULTIBAGS {
        assert_eq!(workers, 0, "MultiBags runs sequentially");
        TURNS - 1
    } else {
        3 * workers + config
    }
}

/// The configuration and schedule of turn `turn` (modulo [`TURNS`]).
fn config_of(turn: usize) -> (usize, usize) {
    match turn % TURNS {
        12 => (MULTIBAGS, 0),
        t => (t % 3, t / 3),
    }
}

/// Run configuration `config` in `mode` on schedule `workers` and check
/// it, in address layout `stride`.
fn run(
    prog: &GenProgram,
    config: usize,
    workers: usize,
    mode: Mode,
    stride: u64,
    what: &str,
) -> Seen {
    let cfg = EngineConfig::new(mode);
    let pool = workers.checked_sub(1);
    match config {
        SF_ALL | SF_LR => {
            let policy = [ReaderPolicy::All, ReaderPolicy::PerFutureLR][config];
            let det = SfDetector::from_config(&cfg.policy(policy));
            let what = format!("{what}: sf-order {mode:?} {policy:?}");
            probe(det, prog, pool.map(|w| &pools().sf[w]), stride, &what)
        }
        F_ORDER => {
            let det = FoDetector::from_config(&cfg);
            let what = format!("{what}: f-order {mode:?}");
            probe(det, prog, pool.map(|w| &pools().fo[w]), stride, &what)
        }
        _ => {
            assert_eq!(workers, 0, "MultiBags runs sequentially");
            let det = MbDetector::from_config(&cfg);
            let what = format!("{what}: multibags {mode:?}");
            probe(det, prog, None, stride, &what)
        }
    }
}

/// Address layout `n % 2`: 1 keeps the addresses as generated, 8 spaces
/// them a word apart.
pub fn layout(n: u64) -> u64 {
    [1, 8][(n % 2) as usize]
}

/// Turn `turn` (modulo [`TURNS`]) in full mode, in address layout
/// `stride`.
pub fn full(prog: &GenProgram, turn: usize, stride: u64, what: &str) -> Seen {
    let (config, workers) = config_of(turn);
    run(prog, config, workers, Mode::Full, stride, what)
}

/// Turn `turn` in full mode, in both address layouts.
pub fn check(prog: &GenProgram, turn: usize, what: &str) -> Seen {
    full(prog, turn, 1, what);
    full(prog, turn, 8, what)
}

/// Every engine on one program, the rotation keyed by `n` (a seed, so a
/// failure replays): turn `n % TURNS` in full mode, in layout
/// `n / TURNS % 2`, and each other engine in reach mode on the same
/// schedule (MultiBags on the sequential runtime). Reach mode builds no
/// access history, so it checks every query and id but no racy set; the
/// reader policy is a property of that history, so SF-Order's two policies
/// are one reach-mode run.
pub fn check_every_engine(prog: &GenProgram, n: u64, what: &str) -> Seen {
    let turn = (n % TURNS as u64) as usize;
    let seen = full(prog, turn, layout(n / TURNS as u64), what);
    let (config, workers) = config_of(turn);
    let engine = if config == SF_LR { SF_ALL } else { config };
    for other in [SF_ALL, F_ORDER, MULTIBAGS] {
        if other != engine {
            let workers = if other == MULTIBAGS { 0 } else { workers };
            run(prog, other, workers, Mode::Reach, 1, what);
        }
    }
    seen
}

pub fn shapes() -> [(&'static str, GenParams); 2] {
    let base = GenParams {
        max_tasks: 24,
        max_body_len: 6,
        addr_space: 4,
        ..GenParams::default()
    };
    [
        (
            "fork-join",
            GenParams {
                // work, spawn, sync — no create, no get.
                weights: [4, 3, 1, 0, 0],
                ..base.clone()
            },
        ),
        ("futures", base),
    ]
}

/// A fixed program that takes both of a later fork's paths. The root
/// spawns `spawn, spawn, spawn` with nothing in between — the second and
/// third forks' continuation was never handed out, so it is reused and the
/// child goes right before it in the English order — then `access, spawn`,
/// whose continuation was seen and is minted afresh. Its children spawn in
/// turn, so on a pool a child's subtree grows right next to where the root
/// inserts its next child. Of two creates with nothing between them,
/// SF-Order's second reuses the continuation; F-Order's create reads it
/// first, so it mints one.
pub fn both_fork_paths() -> GenProgram {
    let w = |addr, write| Op::Work { addr, write };
    let leaf = |addr, write| Op::Spawn(Body(vec![w(addr, write)]));
    let a = Body(vec![
        w(3, true),
        leaf(1, true),
        Op::Spawn(Body(vec![
            w(2, false),
            leaf(0, false),
            leaf(3, false),
            Op::Sync,
        ])),
        w(0, false),
        Op::Sync,
        w(2, false),
    ]);
    let b = Body(vec![
        leaf(2, true),
        leaf(4, true),
        leaf(5, false),
        w(1, false),
    ]);
    let c = Body(vec![
        w(4, false),
        leaf(0, false),
        w(3, false),
        leaf(1, false),
        Op::Sync,
    ]);
    let d = Body(vec![leaf(4, true), leaf(2, false), Op::Sync, w(0, false)]);
    let f = Body(vec![leaf(5, true), leaf(1, false), Op::Sync, w(5, false)]);
    let g = Body(vec![
        w(5, false),
        leaf(0, false),
        leaf(3, true),
        w(4, false),
    ]);
    GenProgram {
        root: Body(vec![
            w(0, true),
            Op::Spawn(a),
            Op::Spawn(b),
            Op::Spawn(c),
            w(1, false),
            Op::Spawn(d),
            w(2, true),
            Op::Sync,
            w(1, true),
            Op::Create(f),
            Op::Create(g),
            w(3, false),
            Op::Get(0),
            w(5, false),
        ]),
    }
}
