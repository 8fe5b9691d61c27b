//! SF-Order on fork-join-only programs — its degenerate case, k = 0, where
//! the pseudo-SP-dag is the whole dag and `cp`/`gp` stay empty:
//!
//! * against the oracle on generated programs, run through `drive`;
//! * on three fixed programs: a fork-join race, synced accesses, and a
//!   parallel writer behind three middle readers under `PerFutureLR`
//!   (with one future, its leftmost/rightmost pair is the classic
//!   fork-join reader history).
//!
//! Every query and interned position of these programs is checked against
//! the oracle by the root suite's ground-truth probe.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::prelude::*;

use sfrd_core::{
    drive, DetectorKind, DriveConfig, EngineConfig, GenWorkload, Mode, RaceReport, RecordingHooks,
    SfDetector, Workload,
};
use sfrd_dag::generator::{GenParams, GenProgram};
use sfrd_runtime::{run_sequential, Cx, ParCtx, Runtime};
use sfrd_shadow::ReaderPolicy;

const POLICIES: [ReaderPolicy; 2] = [ReaderPolicy::All, ReaderPolicy::PerFutureLR];

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
fn sf_matches_oracle_on_forkjoin_programs() {
    let mut rng = StdRng::seed_from_u64(0x757);
    for round in 0..15 {
        let w = GenWorkload(GenProgram::random(&mut rng, &forkjoin_params()));
        assert_eq!(w.0.counts().1, 0, "generator must not emit creates");
        // The racy address set is schedule-invariant: the serial walk's
        // recording is the oracle for any pool schedule.
        let rec = RecordingHooks::new();
        run_sequential(&rec, |ctx| w.run(ctx));
        let recorded = RecordingHooks::finish(Arc::new(rec));
        recorded.validate().unwrap();
        let want: BTreeSet<u64> = recorded.races().iter().map(|r| r.addr).collect();
        for policy in POLICIES {
            let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 2).policy(policy);
            let rep = drive(&w, cfg).report.expect("a detector ran");
            assert_eq!(rep.counts.futures, 0);
            assert_eq!(
                rep.racy_addrs, want,
                "sf {policy:?} round {round}\n{:?}",
                w.0
            );
        }
    }
}

fn run_sf<F>(policy: ReaderPolicy, f: F) -> RaceReport
where
    F: for<'e> FnOnce(&mut ParCtx<'e, SfDetector>) + Send,
{
    let det = Arc::new(SfDetector::from_config(
        &EngineConfig::new(Mode::Full).policy(policy),
    ));
    let rt: Runtime<SfDetector> = Runtime::new(2);
    rt.run(Arc::clone(&det), f);
    drop(rt);
    det.report()
}

#[test]
fn detects_fork_join_race() {
    for policy in POLICIES {
        let rep = run_sf(policy, |ctx| {
            ctx.spawn(|c| c.record_write(64));
            ctx.record_write(64);
            ctx.sync();
        });
        assert!(rep.total_races > 0, "{policy:?}");
    }
}

#[test]
fn synced_accesses_are_clean() {
    for policy in POLICIES {
        let rep = run_sf(policy, |ctx| {
            ctx.spawn(|c| c.record_write(64));
            ctx.sync();
            ctx.record_write(64);
            ctx.spawn(|c| c.record_read(64));
            ctx.spawn(|c| c.record_read(64));
            ctx.sync();
            ctx.record_write(64);
        });
        assert_eq!(rep.total_races, 0, "{policy:?}");
        assert_eq!(rep.counts.spawns, 3);
    }
}

#[test]
fn lr_reader_pair_still_catches_middle_reader_races() {
    // Three parallel readers; a later parallel writer must race with them
    // even though `PerFutureLR` retains only the leftmost/rightmost pair.
    for policy in POLICIES {
        let rep = run_sf(policy, |ctx| {
            for _ in 0..3 {
                ctx.spawn(|c| c.record_read(8));
            }
            // A fourth parallel branch writes.
            ctx.spawn(|c| c.record_write(8));
            ctx.sync();
        });
        assert!(rep.total_races > 0, "{policy:?}");
    }
}
