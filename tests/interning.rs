//! Interning preserves equality: the one-word [`Pos`] every engine hands
//! the access history is equal for two strands exactly when their rich
//! positions are, and resolves back to the rich position it was minted for.
//!
//! The sink's "same position, no query" test and every same-epoch rule of
//! the shadow compare `Pos` words, and rest on the premise that equal
//! positions are one task's serial chain — a premise the engines state for
//! their rich positions (`StrandPos`, `MbPos`). This test checks that the
//! minting carries it over: generated fork-join and future programs run
//! under each engine, on the sequential runtime and on two workers
//! (MultiBags only sequentially, the one way it runs), and every strand
//! observed at an access contributes its `(Pos, rich)` pair.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::prelude::*;

use sfrd::core::{FoDetector, GenWorkload, MbDetector, Mode, SfDetector, Workload};
use sfrd::dag::generator::{GenParams, GenProgram};
use sfrd::reach::{FoStrand, MbPos, MbStrand, Pos, SfStrand, StrandPos};
use sfrd::runtime::{run_sequential, Runtime, TaskHooks};
use sfrd::shadow::ReaderPolicy;

/// A detector whose strands can be observed both ways.
trait Observed: TaskHooks {
    type Rich: Copy + Eq + Hash + Debug + Send + 'static;
    fn observe(s: &Self::Strand) -> (Pos, Self::Rich);
    fn resolve(&self, p: Pos) -> Self::Rich;
}

impl Observed for SfDetector {
    type Rich = StrandPos;
    fn observe(s: &SfStrand) -> (Pos, StrandPos) {
        (s.pos_id(), s.pos())
    }
    fn resolve(&self, p: Pos) -> StrandPos {
        self.reach().resolve(p)
    }
}

impl Observed for FoDetector {
    type Rich = StrandPos;
    fn observe(s: &FoStrand) -> (Pos, StrandPos) {
        (s.pos_id(), s.pos())
    }
    fn resolve(&self, p: Pos) -> StrandPos {
        self.reach().resolve(p)
    }
}

impl Observed for MbDetector {
    type Rich = MbPos;
    fn observe(s: &MbStrand) -> (Pos, MbPos) {
        (s.pos_id(), s.pos())
    }
    fn resolve(&self, p: Pos) -> MbPos {
        self.reach().resolve(p)
    }
}

/// A detector plus the `(Pos, rich)` pair of every accessing strand.
struct Probe<D: Observed> {
    det: D,
    seen: Mutex<Vec<(Pos, D::Rich)>>,
}

impl<D: Observed> Probe<D> {
    fn new(det: D) -> Self {
        Probe {
            det,
            seen: Mutex::new(Vec::new()),
        }
    }

    fn note(&self, s: &D::Strand) {
        self.seen.lock().unwrap().push(D::observe(s));
    }

    /// `Pos` equality is rich equality over every observed pair, and each
    /// id resolves to its rich position. Returns the distinct positions.
    fn check(&self, what: &str) -> usize {
        let seen = self.seen.lock().unwrap();
        let mut by_id: HashMap<Pos, D::Rich> = HashMap::new();
        let mut by_rich: HashMap<D::Rich, Pos> = HashMap::new();
        for &(id, rich) in seen.iter() {
            assert_eq!(
                *by_id.entry(id).or_insert(rich),
                rich,
                "{what}: one id, two positions"
            );
            assert_eq!(
                *by_rich.entry(rich).or_insert(id),
                id,
                "{what}: one position, two ids"
            );
        }
        for (&id, &rich) in &by_id {
            assert_eq!(
                self.det.resolve(id),
                rich,
                "{what}: {id:?} resolves elsewhere"
            );
        }
        by_id.len()
    }
}

impl<D: Observed> TaskHooks for Probe<D> {
    type Strand = D::Strand;

    fn root(&self) -> D::Strand {
        self.det.root()
    }
    fn on_spawn(&self, p: &mut D::Strand) -> D::Strand {
        self.det.on_spawn(p)
    }
    fn on_create(&self, p: &mut D::Strand) -> D::Strand {
        self.det.on_create(p)
    }
    fn on_sync(&self, s: &mut D::Strand, children: Vec<D::Strand>) {
        self.det.on_sync(s, children)
    }
    fn on_get(&self, s: &mut D::Strand, done: &D::Strand) {
        self.det.on_get(s, done)
    }
    fn on_task_end(&self, s: &mut D::Strand) {
        self.det.on_task_end(s)
    }
    fn on_task_return(&self, p: &mut D::Strand, c: &mut D::Strand) {
        self.det.on_task_return(p, c)
    }
    fn on_read(&self, s: &mut D::Strand, addr: u64) {
        self.note(s);
        self.det.on_read(s, addr)
    }
    fn on_write(&self, s: &mut D::Strand, addr: u64) {
        self.note(s);
        self.det.on_write(s, addr)
    }
}

/// Run `prog` under `det`, serially or on two workers, and check it.
fn probe<D: Observed>(det: D, prog: &GenProgram, workers: usize, what: &str) -> usize {
    let w = GenWorkload(prog.clone());
    let probe = Arc::new(Probe::new(det));
    if workers == 1 {
        run_sequential(&*probe, |ctx| w.run(ctx));
    } else {
        let rt: Runtime<Probe<D>> = Runtime::new(workers);
        rt.run(Arc::clone(&probe), |ctx| w.run(ctx));
    }
    probe.check(&format!("{what} workers={workers}\n{prog:?}"))
}

fn shapes() -> [(&'static str, GenParams); 2] {
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    #[test]
    fn interned_positions_match_rich_positions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (shape, params) in shapes() {
            let prog = GenProgram::random(&mut rng, &params);
            for workers in [1, 2] {
                for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
                    let det = SfDetector::new(Mode::Full, policy);
                    probe(det, &prog, workers, &format!("sf-order {policy:?} {shape}"));
                }
                probe(FoDetector::new(Mode::Full), &prog, workers, &format!("f-order {shape}"));
            }
            probe(MbDetector::new(Mode::Full), &prog, 1, &format!("multibags {shape}"));
        }
    }
}

/// The property is not vacuous: on a program with spawns and creates the
/// accessing strands stand at several positions, and repeats of one
/// position are observed too.
#[test]
fn the_probe_sees_distinct_and_repeated_positions() {
    let mut rng = StdRng::seed_from_u64(0x1D5);
    let (_, params) = shapes()[1].clone();
    let prog = (0..)
        .map(|_| GenProgram::random(&mut rng, &params))
        .find(|p| p.counts().0 > 0 && p.counts().1 > 0)
        .expect("the generator makes spawns and creates");
    let det = SfDetector::new(Mode::Full, ReaderPolicy::All);
    let w = GenWorkload(prog.clone());
    let probe = Probe::new(det);
    run_sequential(&probe, |ctx| w.run(ctx));
    let accesses = probe.seen.lock().unwrap().len();
    let distinct = probe.check("sf-order");
    assert!(distinct > 1, "{distinct} positions\n{prog:?}");
    assert!(accesses > distinct, "no position repeated\n{prog:?}");
}
