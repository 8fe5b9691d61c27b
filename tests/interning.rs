//! Interning preserves equality: the access history stores one interned
//! position word per accessor, and on generated fork-join and future
//! programs, under all three engines, on the sequential runtime and on
//! pools of 1 to 3 workers, two strands' words are equal exactly when their
//! rich positions are, and each word resolves back to its strand's
//! position. The [`ground_truth`] probe checks every query, the racy set
//! and the construct counts of the same runs too.

mod ground_truth;

use proptest::prelude::*;
use rand::prelude::*;

use ground_truth::{check_every_engine, probe, shapes};
use sfrd::core::{EngineConfig, Mode, SfDetector};
use sfrd::dag::generator::GenProgram;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// Each shape runs every engine in full mode, on every schedule and in
    /// both address layouts.
    #[test]
    fn interned_positions_match_rich_positions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (shape, params) in shapes() {
            let prog = GenProgram::random(&mut rng, &params);
            check_every_engine(&prog, &format!("{shape} seed={seed}"));
        }
    }
}

/// The interning property is not vacuous: on a program with spawns and
/// creates the accessing strands stand at several positions, and repeats
/// of one position are observed too.
#[test]
fn the_probe_sees_distinct_and_repeated_positions() {
    let mut rng = StdRng::seed_from_u64(0x1D5);
    let (_, params) = shapes()[1].clone();
    let prog = (0..)
        .map(|_| GenProgram::random(&mut rng, &params))
        .find(|p| p.counts().0 > 0 && p.counts().1 > 0)
        .expect("the generator makes spawns and creates");
    let det = SfDetector::from_config(&EngineConfig::new(Mode::Full));
    let seen = probe(det, &prog, None, 1, "sf-order");
    assert!(seen.positions > 1, "{} positions\n{prog:?}", seen.positions);
    assert!(
        seen.accesses > seen.positions,
        "no position repeated\n{prog:?}"
    );
}
