//! Property tests: `OmList` against a `Vec` model under arbitrary
//! insertion patterns (proptest shrinks failing patterns to minimal
//! counterexamples).

use proptest::prelude::*;
use sfrd_om::{OmHandle, OmList};

/// Apply a pattern of insert positions (each modulo the current length)
/// and return (list, model-ordered handles).
fn build(pattern: &[u16]) -> (OmList, Vec<OmHandle>) {
    let (om, base) = OmList::new();
    let mut model = vec![base];
    for &p in pattern {
        let pos = p as usize % model.len();
        let h = om.insert_after(model[pos]);
        model.insert(pos + 1, h);
    }
    (om, model)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

    #[test]
    fn order_matches_model(pattern in proptest::collection::vec(any::<u16>(), 0..300)) {
        let (om, model) = build(&pattern);
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
        om.check_invariants();
    }

    #[test]
    fn insert_two_is_insert_twice(pattern in proptest::collection::vec(any::<u16>(), 0..100)) {
        // Interleave single and pair insertions; order must stay coherent.
        let (om, base) = OmList::new();
        let mut model = vec![base];
        for (i, &p) in pattern.iter().enumerate() {
            let pos = p as usize % model.len();
            if i % 3 == 0 {
                let [a, b] = om.insert_n_after(model[pos], [0; 2]);
                model.insert(pos + 1, a);
                model.insert(pos + 2, b);
            } else {
                let h = om.insert_after(model[pos]);
                model.insert(pos + 1, h);
            }
        }
        prop_assert_eq!(om.iter_order(), model);
        om.check_invariants();
    }
}

/// Adversarial: clustered insertions force group splits and relabels
/// while background queries stay consistent.
#[test]
fn dense_cluster_with_concurrent_queries() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (om, base) = OmList::new();
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
    om.check_invariants();
}
