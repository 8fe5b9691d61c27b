//! Ground-truth property tests: every reachability engine, on random
//! structured-future programs, must answer every access-pair query exactly
//! as the offline dag oracle does.
//!
//! This validates Algorithm 1 (SF-Order), the F-Order nsp tables and the
//! MultiBags SP-bags specialization against brute-force transitive closure
//! on the *recorded* SF-dag — including escaping futures, nested creates,
//! gets in arbitrary (structured) orders and deep fork-join nesting. The
//! queries go through the batched detector's own interned positions (see
//! the [`ground_truth`] probe). Each engine's cases rotate through its
//! reader policies, schedules and address layouts by seed, so a failing
//! seed replays the same run.

mod ground_truth;

use proptest::prelude::*;
use rand::prelude::*;

use ground_truth::{check, check_every_engine, full, layout, shapes, turn, TURNS};
use ground_truth::{F_ORDER, MULTIBAGS};
use sfrd::dag::generator::{Body, GenProgram, Op};

fn prog_from_seed(seed: u64) -> GenProgram {
    let (_, params) = shapes()[1].clone();
    GenProgram::random(&mut StdRng::seed_from_u64(seed), &params)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// SF-Order's policy, schedule and layout are picked by the seed.
    #[test]
    fn sf_order_matches_oracle(seed in any::<u64>()) {
        let turn = turn((seed % 2) as usize, (seed / 2 % 4) as usize);
        full(&prog_from_seed(seed), turn, layout(seed / 8), &format!("seed={seed}"));
    }

    /// F-Order's schedule and layout are picked by the seed.
    #[test]
    fn f_order_matches_oracle(seed in any::<u64>()) {
        let turn = turn(F_ORDER, (seed % 4) as usize);
        full(&prog_from_seed(seed), turn, layout(seed / 4), &format!("seed={seed}"));
    }

    #[test]
    fn multibags_matches_oracle(seed in any::<u64>()) {
        let turn = turn(MULTIBAGS, 0);
        full(&prog_from_seed(seed), turn, layout(seed), &format!("seed={seed}"));
    }
}

/// Seeds a past failure of the oracle property shrank to. The vendored
/// proptest never reads a regressions file, so they ride in the sweep.
const REGRESSION_SEEDS: [u64; 1] = [5_655_299_842_322_189_019];

/// A deterministic sweep, wider than the proptest cases: every engine on
/// every program, every turn in full mode; it must meet racy and
/// race-free programs both.
#[test]
fn all_engines_fixed_seed_sweep() {
    let (mut racy, mut clean) = (0, 0);
    for seed in (0..200u64).chain(REGRESSION_SEEDS) {
        let prog = prog_from_seed(seed);
        let seen = check_every_engine(&prog, &format!("seed={seed}"));
        if !seen.racy.is_empty() {
            racy += 1;
        } else {
            clean += 1;
        }
    }
    assert!(
        racy > 0 && clean > 0,
        "{racy} racy, {clean} race-free programs"
    );
}

/// Deep nesting: a create chain 30 futures deep with gets unwinding.
#[test]
fn deep_create_chain() {
    fn chain(depth: usize) -> Body {
        let mut ops = vec![Op::Work {
            addr: depth as u64,
            write: true,
        }];
        if depth > 0 {
            ops.push(Op::Create(chain(depth - 1)));
            ops.push(Op::Work {
                addr: 0,
                write: false,
            });
            ops.push(Op::Get(0));
            ops.push(Op::Work {
                addr: depth as u64,
                write: true,
            });
        }
        Body(ops)
    }
    let prog = GenProgram { root: chain(30) };
    for turn in 0..TURNS {
        check(&prog, turn, "deep create chain");
    }
}

/// Wide fan-out: 40 sibling futures, half gotten, half escaping.
#[test]
fn wide_future_fanout() {
    let mut ops = Vec::new();
    for i in 0..40u64 {
        ops.push(Op::Create(Body(vec![Op::Work {
            addr: i % 5,
            write: true,
        }])));
    }
    for i in (0..40usize).step_by(2) {
        ops.push(Op::Get(i));
        ops.push(Op::Work {
            addr: (i as u64) % 5,
            write: false,
        });
    }
    let prog = GenProgram { root: Body(ops) };
    for turn in 0..TURNS {
        check(&prog, turn, "wide future fan-out");
    }
}
