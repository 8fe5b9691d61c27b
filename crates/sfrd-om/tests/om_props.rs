//! Property tests: both order-maintenance backends against a `Vec` model
//! under arbitrary insertion patterns (proptest shrinks failing patterns
//! to minimal counterexamples), plus a backend-vs-backend differential:
//! the same pattern must produce the same total order on `OmList` and
//! `DepaList`.

use proptest::prelude::*;
use sfrd_om::{OmBackend, OmHandle, OmOrder};

const BACKENDS: [OmBackend; 2] = [OmBackend::OmList, OmBackend::DePa];

/// Apply a pattern of insert positions (each modulo the current length)
/// and return (order, model-ordered handles).
fn build(backend: OmBackend, pattern: &[u16]) -> (OmOrder, Vec<OmHandle>) {
    let (om, base) = OmOrder::new(backend);
    let mut model = vec![base];
    for &p in pattern {
        let pos = p as usize % model.len();
        let h = om.insert_after(model[pos]);
        model.insert(pos + 1, h);
    }
    (om, model)
}

/// `OmList`'s structural invariants (the DePa backend has no structure to
/// check: its labels are immutable).
fn check_invariants(om: &OmOrder) {
    if let OmOrder::List(list) = om {
        list.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

    #[test]
    fn order_matches_model(pattern in proptest::collection::vec(any::<u16>(), 0..300)) {
        for backend in BACKENDS {
            let (om, model) = build(backend, &pattern);
            prop_assert_eq!(om.len(), model.len());
            prop_assert_eq!(om.iter_order(), model.clone());
            // All adjacent pairs ordered; a sample of distant pairs too.
            for w in model.windows(2) {
                prop_assert!(om.precedes(w[0], w[1]));
                prop_assert!(!om.precedes(w[1], w[0]));
            }
            let step = (model.len() / 17).max(1);
            for i in (0..model.len()).step_by(step) {
                for j in (0..model.len()).step_by(step) {
                    prop_assert_eq!(om.precedes(model[i], model[j]), i < j);
                }
            }
            check_invariants(&om);
        }
    }

    #[test]
    fn insert_two_is_insert_twice(pattern in proptest::collection::vec(any::<u16>(), 0..100)) {
        // Interleave single and pair insertions; order must stay coherent.
        for backend in BACKENDS {
            let (om, base) = OmOrder::new(backend);
            let mut model = vec![base];
            for (i, &p) in pattern.iter().enumerate() {
                let pos = p as usize % model.len();
                if i % 3 == 0 {
                    let [a, b] = om.insert_n_after::<2>(model[pos]);
                    model.insert(pos + 1, a);
                    model.insert(pos + 2, b);
                } else {
                    let h = om.insert_after(model[pos]);
                    model.insert(pos + 1, h);
                }
            }
            prop_assert_eq!(om.iter_order(), model);
            check_invariants(&om);
        }
    }

    /// Backend differential: the same insertion pattern yields the same
    /// total order on both backends (handles are allocated in the same
    /// arena order, so positions correspond index-for-index), and DePa
    /// reports zero escalations and zero retries structurally.
    #[test]
    fn backends_agree_on_pattern(pattern in proptest::collection::vec(any::<u16>(), 0..200)) {
        let (list, list_model) = build(OmBackend::OmList, &pattern);
        let (depa, depa_model) = build(OmBackend::DePa, &pattern);
        prop_assert_eq!(list_model.len(), depa_model.len());
        let step = (list_model.len() / 23).max(1);
        for i in (0..list_model.len()).step_by(step) {
            for j in (0..list_model.len()).step_by(step) {
                prop_assert_eq!(
                    list.order(list_model[i], list_model[j]),
                    depa.order(depa_model[i], depa_model[j]),
                    "backends disagree at ({}, {})", i, j
                );
            }
        }
        let stats = depa.stats();
        prop_assert_eq!(stats.global_escalations, 0);
        prop_assert_eq!(stats.query_retries, 0);
        check_invariants(&list);
    }
}

/// Adversarial: clustered insertions force group splits and relabels
/// (OmList) or deep spill chains (DePa) while background queries stay
/// consistent.
#[test]
fn dense_cluster_with_concurrent_queries() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    for backend in BACKENDS {
        let (om, base) = OmOrder::new(backend);
        let om = Arc::new(om);
        let mut anchors = vec![base];
        // Build 32 anchors.
        let mut cur = base;
        for _ in 0..31 {
            cur = om.insert_after(cur);
            anchors.push(cur);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let om = Arc::clone(&om);
            let anchors = anchors.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checks = 0u64;
                // At least one full pass, even if the writer finishes first
                // (single-core schedulers may not interleave us at all).
                while !stop.load(Ordering::Relaxed) || checks == 0 {
                    for w in anchors.windows(2) {
                        assert!(om.precedes(w[0], w[1]));
                    }
                    checks += 1;
                }
                checks
            })
        };
        // Hammer every anchor with insertions (clusters at 32 points).
        for round in 0..2000 {
            let a = anchors[round % anchors.len()];
            om.insert_after(a);
        }
        stop.store(true, Ordering::Relaxed);
        let checks = reader.join().unwrap();
        assert!(checks > 0);
        assert_eq!(om.len(), 32 + 2000);
        check_invariants(&om);
        if backend == OmBackend::DePa {
            let stats = om.stats();
            assert_eq!(stats.global_escalations, 0, "{stats:?}");
            assert_eq!(stats.query_retries, 0, "{stats:?}");
        }
    }
}
