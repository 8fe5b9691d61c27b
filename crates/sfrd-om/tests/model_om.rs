//! Model-checked order-maintenance protocols (`--cfg sfrd_model`).
//!
//! `OmList` routes every atomic through the `sfrd_runtime::sync` facade,
//! so the in-crate deterministic-interleaving model checker can drive the
//! *real* implementation through ≥1000 seeded SC schedules:
//!
//! * **OmList seqlock**: a writer pushes the head group over its label
//!   gap / `GROUP_MAX` budget mid-schedule, forcing an escalated relabel
//!   and a split — both seqlock write sections that rewrite the keys a
//!   concurrent query reads. The query thread asserts the verification
//!   chain's order never inverts (label monotonicity across relabels) and
//!   never observes a torn `(group, label)` key (a torn read would order
//!   some adjacent pair backwards or as equal).
//! * **OmList range relabel**: the same query thread against a split whose
//!   new group finds no label between its neighbours, so the split's write
//!   section also rewrites *group* labels — of groups the chain's items
//!   live in. A three-bit group-label space (test fixture) brings that on
//!   at the third split at one spot instead of the sixty-fourth.
//!
//! * **Insert before vs insert after the predecessor**: one thread
//!   inserts a run right before `k` while another inserts after `x`, `k`'s
//!   list predecessor — a child growing its subtree while its parent puts
//!   the next sibling in front of a continuation nobody saw. The group is
//!   one item short of its split, so the first insert to land splits it
//!   and the other may find its anchor migrated. In every schedule the
//!   second thread's items precede the first's and the list is well
//!   formed.
//!
//! Honesty: the model preempts only at facade operations, so this checks
//! the protocol (seqlock write-section discipline), not hardware-level
//! tearing — the release-mode stress tests in `om_concurrent.rs` cover
//! real parallel hardware.
#![cfg(sfrd_model)]

use std::sync::Arc;

use sfrd_om::OmList;
use sfrd_runtime::model::{self, Config};

/// Serial prefix: enough head inserts that the concurrent phase's next
/// few pushes cross the group-split threshold (GROUP_MAX = 64) and the
/// geometric label-gap budget, forcing seqlock write sections while the
/// reader is running.
const PREFIX: usize = 62;
/// Inserts per concurrent writer.
const CONC: usize = 2;

#[test]
fn omlist_relabels_never_tear_queries() {
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let (om, base) = OmList::new();
        let om = Arc::new(om);
        // A verification chain base < c0 < c1 < c2 built away from the
        // hammer point (after the current head-insert pile-up).
        let mut chain = vec![base];
        let mut last = base;
        for _ in 0..3 {
            last = om.insert_after(last);
            chain.push(last);
        }
        for _ in 0..PREFIX {
            om.insert_after(base);
        }

        let writers: Vec<_> = (0..2)
            .map(|_| {
                let om = Arc::clone(&om);
                model::spawn(move || {
                    for _ in 0..CONC {
                        om.insert_after(base);
                    }
                })
            })
            .collect();
        let reader = {
            let om = Arc::clone(&om);
            let chain = chain.clone();
            model::spawn(move || {
                for _ in 0..3 {
                    for w in chain.windows(2) {
                        // Monotone: relabels rewrite keys but never invert
                        // the order; a torn (group, label) read would show
                        // up as an inverted or equal adjacent pair.
                        assert!(om.precedes(w[0], w[1]), "chain order inverted");
                        assert!(!om.precedes(w[1], w[0]), "torn key: both directions");
                    }
                }
            })
        };
        for w in writers {
            w.join();
        }
        reader.join();

        assert_eq!(om.len(), 1 + 3 + PREFIX + 2 * CONC);
        let stats = om.stats();
        assert!(
            stats.global_escalations > 0,
            "the schedule must exercise the seqlock write path: {stats:?}"
        );
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(report.truncated, 0, "schedules must run to completion");
    assert!(
        report.lock_ops > 0,
        "escalations take the global mutex; the census must see it"
    );
}

#[test]
fn omlist_range_relabels_never_tear_queries() {
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    // Seqlock retries summed over all schedules: evidence that queries
    // really did overlap the write section in some of them.
    let retries = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let report = model::explore(cfg, {
        let retries = Arc::clone(&retries);
        move || {
            // Group labels 0..=7, the first group at 3. Hammering `base`:
            // split one puts the new group at 5, split two at 4, and split
            // three finds nothing between 3 and 4 — no range below the
            // whole space is sparse enough for four groups, so all of them
            // are respaced (0, 2, 4, 6) inside the split's write section.
            let (om, base) = OmList::with_group_label_bits(3);
            let om = Arc::new(om);
            // Runs of eight keep the serial prefix short. Later inserts
            // land before earlier ones, so the chain is picked newest
            // first: one handle from each era, each in its own group.
            let mut eras = Vec::new();
            for _ in 0..8 {
                eras.push(om.insert_n_after(base, [0; 8])[7]);
            }
            assert_eq!(om.stats().splits, 1);
            let early = eras[0];
            for _ in 0..4 {
                om.insert_n_after(base, [0; 8]);
            }
            let mid = om.insert_after(base);
            assert_eq!(om.stats().splits, 2);
            let mut late = base;
            for _ in 0..4 {
                late = om.insert_n_after(base, [0; 8])[7];
            }
            assert_eq!(om.stats().respreads, 0);
            let chain = [base, late, mid, early];
            // The head group is full: the next insert splits it.

            let writers: Vec<_> = (0..2)
                .map(|_| {
                    let om = Arc::clone(&om);
                    model::spawn(move || {
                        for _ in 0..CONC {
                            om.insert_after(base);
                        }
                    })
                })
                .collect();
            let reader = {
                let om = Arc::clone(&om);
                model::spawn(move || {
                    for _ in 0..3 {
                        for w in chain.windows(2) {
                            assert!(om.precedes(w[0], w[1]), "chain order inverted");
                            assert!(!om.precedes(w[1], w[0]), "torn key: both directions");
                        }
                    }
                })
            };
            for w in writers {
                w.join();
            }
            reader.join();

            let stats = om.stats();
            assert_eq!(stats.splits, 3, "{stats:?}");
            assert_eq!(
                stats.respreads, 1,
                "the third split must relabel: {stats:?}"
            );
            om.check_invariants();
            retries.fetch_add(stats.query_retries, std::sync::atomic::Ordering::Relaxed);
        }
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(report.truncated, 0, "schedules must run to completion");
    assert!(
        retries.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no schedule overlapped a query with the relabel's write section"
    );
}

#[test]
fn omlist_insert_before_races_insert_after_its_predecessor() {
    let cfg = Config {
        schedules: 1000,
        ..Config::default()
    };
    let report = model::explore(cfg, || {
        let (om, base) = OmList::new();
        let x = om.insert_after(base);
        let k = om.insert_after(x);
        // base, 61 head inserts, x, k: one group of 64, full.
        for _ in 0..61 {
            om.insert_after(base);
        }
        let om = Arc::new(om);
        let parent = {
            let om = Arc::clone(&om);
            model::spawn(move || om.insert_n_before(k, [1, 2]))
        };
        let child = {
            let om = Arc::clone(&om);
            model::spawn(move || {
                let b = om.insert_after(x);
                [b, om.insert_after(b)]
            })
        };
        let (a, b) = (parent.join(), child.join());
        let order = [x, b[0], b[1], a[0], a[1], k];
        for w in order.windows(2) {
            assert!(om.precedes(w[0], w[1]), "{:?} not before {:?}", w[0], w[1]);
        }
        assert_eq!(om.iter_order()[62..], order);
        assert_eq!((om.aux(a[0]), om.aux(a[1])), (1, 2));
        om.check_invariants();
        let stats = om.stats();
        assert!(stats.splits >= 1, "the group must split: {stats:?}");
    });
    assert_eq!(report.schedules, cfg.schedules);
    assert!(
        report.schedules >= 1000,
        "acceptance floor: >=1000 schedules"
    );
    assert_eq!(report.truncated, 0, "schedules must run to completion");
}
