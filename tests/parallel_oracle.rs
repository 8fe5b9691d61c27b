//! End-to-end ground truth under *parallel* execution: random
//! structured-future programs on the real work-stealing runtime, each
//! detector batched as `drive` builds it with the dag recorder beside it,
//! the detector's racy address set checked against the brute-force oracle
//! on the dag that actually executed (the [`ground_truth`] probe, which
//! checks every query and interned position as well). Each program repeats
//! across schedules.

mod ground_truth;

use rand::prelude::*;

use ground_truth::{
    both_fork_paths, check, shapes, turn, F_ORDER, MULTIBAGS, SF_ALL, SF_LR, TURNS,
};
use sfrd::dag::generator::{Body, GenProgram, Op};

/// A stream of generated future programs.
fn programs(seed: u64) -> impl Iterator<Item = GenProgram> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, params) = shapes()[1].clone();
    std::iter::repeat_with(move || GenProgram::random(&mut rng, &params))
}

/// SF-Order under the parallel runtime, both reader policies.
#[test]
fn sf_order_parallel_matches_oracle() {
    for (round, prog) in programs(0xE0).take(12).enumerate() {
        for config in [SF_ALL, SF_LR] {
            for workers in [1, 3] {
                check(&prog, turn(config, workers), &format!("round={round}"));
            }
        }
    }
}

/// F-Order under the parallel runtime.
#[test]
fn f_order_parallel_matches_oracle() {
    for (round, prog) in programs(0xF0).take(12).enumerate() {
        for workers in [1, 3] {
            check(&prog, turn(F_ORDER, workers), &format!("round={round}"));
        }
    }
}

/// MultiBags under the sequential runtime.
#[test]
fn multibags_sequential_matches_oracle() {
    for (round, prog) in programs(0xB0).take(20).enumerate() {
        check(&prog, turn(MULTIBAGS, 0), &format!("round={round}"));
    }
}

/// All three detectors agree on the racy address set for the same program.
#[test]
fn detectors_agree_across_engines() {
    for (round, prog) in programs(0xAA).take(15).enumerate() {
        let what = format!("round={round}");
        let sf = check(&prog, turn(SF_ALL, 2), &what).racy;
        let fo = check(&prog, turn(F_ORDER, 2), &what).racy;
        let mb = check(&prog, turn(MULTIBAGS, 0), &what).racy;
        assert_eq!(sf, fo, "sf vs fo\n{prog:?}");
        assert_eq!(sf, mb, "sf vs mb\n{prog:?}");
    }
}

/// A later fork reuses a continuation nobody saw and mints one that
/// somebody did: both paths, with children growing their subtrees next to
/// the reused continuation, answer every query as the oracle does —
/// sequentially and at 1–3 workers, through SF-Order (both reader
/// policies) and F-Order, repeated for more schedules.
#[test]
fn both_fork_paths_match_the_oracle() {
    let prog = both_fork_paths();
    for round in 0..4 {
        for config in [SF_ALL, SF_LR, F_ORDER] {
            for workers in 0..=3 {
                let seen = check(&prog, turn(config, workers), &format!("round={round}"));
                assert!(seen.accesses >= 30 && !seen.racy.is_empty());
            }
        }
    }
}

/// The write-combining filter's eviction case: `write A; read B; write B`
/// at one position, A and B in one filter way (one word, as generated),
/// and B read in parallel. B's read evicts A's entry; if it inherited A's
/// `wrote` flag, B's write would be combined away and its race missed.
#[test]
fn a_write_behind_an_evicting_read_races() {
    let work = |addr, write| Op::Work { addr, write };
    let child = Body(vec![work(0, true), work(1, false), work(1, true)]);
    let prog = GenProgram {
        root: Body(vec![Op::Spawn(child), work(1, false), Op::Sync]),
    };
    for turn in 0..TURNS {
        assert_eq!(check(&prog, turn, "evicting read").racy.len(), 1);
    }
}

/// A future and its getter touch the same cells. At one worker the
/// future's body runs inside `get`'s wait, on the getter's thread and so
/// in the write-combining filter the getter's own accesses just went
/// through; on the sequential runtime it runs first, in the filter the
/// getter goes on to use. Neither strand's entries may filter the other's
/// accesses: both cells race with the continuation.
#[test]
fn a_future_run_inside_its_getters_wait_races() {
    let work = |addr, write| Op::Work { addr, write };
    let future = Body(vec![work(0, true), work(1, false)]);
    let prog = GenProgram {
        root: Body(vec![
            Op::Create(future),
            work(0, false),
            work(1, true),
            work(0, true),
            Op::Get(0),
            work(0, true),
            work(1, false),
        ]),
    };
    for turn in 0..TURNS {
        assert_eq!(check(&prog, turn, "nested future").racy.len(), 2);
    }
}
