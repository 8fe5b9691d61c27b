//! Model-checked monotone-lineage CAS (`--cfg sfrd_model` only).
//!
//! Adaptive `cp`/`gp` sets carry a lineage stamp: a child extends its
//! parent's chain only by winning `chain.compare_exchange(v, v + 1)`;
//! losers branch off onto fresh chains. Soundness hinges on the CAS being
//! *exclusive*: if two concurrent derivations from the same parent could
//! both "win", both children would sit on one chain at the same version,
//! `descends_from` would claim a superset relation that does not hold, and
//! `merge` would silently drop one side's elements.
//!
//! This test derives two different children from a shared parent on two
//! model threads across ≥1000 seeded SC interleavings and asserts the
//! merge of the children contains both additions — the exact observable
//! that a double-won CAS would corrupt — plus chain exclusivity directly
//! (children must not claim each other's elements). Census must be 0: the
//! lineage path is a single CAS, no locks.
#![cfg(sfrd_model)]

use std::sync::Arc;

use sfrd_dag::FutureId;
use sfrd_reach::bitmap::{merge, with_future, FutureSet};
use sfrd_reach::SetStats;
use sfrd_runtime::model::{self, Config};

#[test]
fn concurrent_derivations_never_fake_an_ordering() {
    let cfg = Config {
        schedules: 1200,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let stats = Arc::new(SetStats::default());
        let parent = Arc::new(FutureSet::singleton(FutureId(1)));

        let spawn_child = |add: u32| {
            let parent = Arc::clone(&parent);
            let stats = Arc::clone(&stats);
            model::spawn(move || with_future(&parent, FutureId(add), &stats))
        };
        let h1 = spawn_child(100);
        let h2 = spawn_child(200);
        let c1 = h1.join();
        let c2 = h2.join();

        // Chain exclusivity: neither child may appear to subsume the other.
        assert!(c1.contains(FutureId(100)) && !c1.contains(FutureId(200)));
        assert!(c2.contains(FutureId(200)) && !c2.contains(FutureId(100)));

        // The observable a double-won CAS corrupts: a lineage fast exit in
        // merge would return one child and drop the other's element.
        let m = merge(&c1, &c2, &stats);
        for f in [1, 100, 200] {
            assert!(
                m.contains(FutureId(f)),
                "merge dropped future {f}: lineage faked an ordering"
            );
        }
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(report.lock_ops, 0, "lineage path must be lock-free");
}
