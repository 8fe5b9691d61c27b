//! Detector matrix on generated programs:
//!
//! * WSP-Order vs the oracle on fork-join-only programs (its legal
//!   domain), across schedules;
//! * WSP-Order vs SF-Order agreement on the same programs (SF-Order
//!   degenerates to WSP-Order when k = 0).

use std::sync::Arc;

use rand::prelude::*;

use sfrd_core::{GenWorkload, Mode, RecordingHooks, SfDetector, Workload, WspDetector};
use sfrd_dag::generator::{GenParams, GenProgram};
use sfrd_runtime::hooks::PairHooks;
use sfrd_runtime::Runtime;
use sfrd_shadow::ReaderPolicy;

/// Fork-join-only generator parameters (no creates, no gets).
fn forkjoin_params() -> GenParams {
    GenParams {
        max_tasks: 24,
        max_body_len: 6,
        addr_space: 4,
        weights: [4, 3, 2, 0, 0],
        ..Default::default()
    }
}

#[test]
fn wsp_matches_oracle_on_forkjoin_programs() {
    let mut rng = StdRng::seed_from_u64(0x757);
    for round in 0..15 {
        let prog = GenProgram::random(&mut rng, &forkjoin_params());
        assert_eq!(prog.counts().1, 0, "generator must not emit creates");
        for policy in [ReaderPolicy::All, ReaderPolicy::PerFutureLR] {
            let hooks = Arc::new(PairHooks(
                RecordingHooks::new(),
                WspDetector::new(Mode::Full, policy),
            ));
            let rt: Runtime<PairHooks<RecordingHooks, WspDetector>> = Runtime::new(2);
            let w = GenWorkload(prog.clone());
            rt.run(Arc::clone(&hooks), |ctx| w.run(ctx));
            drop(rt);
            let PairHooks(rec, det) = Arc::try_unwrap(hooks).ok().expect("sole owner");
            let recorded = RecordingHooks::finish(Arc::new(rec));
            let want: std::collections::BTreeSet<u64> =
                recorded.races().iter().map(|r| r.addr).collect();
            assert_eq!(
                det.report().racy_addrs,
                want,
                "wsp {policy:?} round {round}\n{prog:?}"
            );
        }
    }
}

#[test]
fn wsp_and_sf_agree_on_forkjoin_programs() {
    let mut rng = StdRng::seed_from_u64(0x5F57);
    for _ in 0..15 {
        let prog = GenProgram::random(&mut rng, &forkjoin_params());

        let wsp = Arc::new(WspDetector::new(Mode::Full, ReaderPolicy::All));
        let rt: Runtime<WspDetector> = Runtime::new(2);
        let w = GenWorkload(prog.clone());
        rt.run(Arc::clone(&wsp), |ctx| w.run(ctx));
        drop(rt);

        let sf = Arc::new(SfDetector::new(Mode::Full, ReaderPolicy::All));
        let rt: Runtime<SfDetector> = Runtime::new(2);
        let w2 = GenWorkload(prog.clone());
        rt.run(Arc::clone(&sf), |ctx| w2.run(ctx));
        drop(rt);

        assert_eq!(wsp.report().racy_addrs, sf.report().racy_addrs, "{prog:?}");
        // Identical access counts too.
        assert_eq!(wsp.report().counts.reads, sf.report().counts.reads);
        assert_eq!(wsp.report().counts.writes, sf.report().counts.writes);
    }
}
