//! Differential property test: raw `FutureSet` operations against a
//! `BTreeSet<u32>` reference model.
//!
//! Each case decodes a `Vec<u64>` into a sequence of `with` / `merge` /
//! `union` derivations over a pool of sets (tail-only sets and sets with a
//! chunk directory) and applies the same sequence to the model. After
//! every step the derived set must agree with the model on `len`,
//! `contains`, `iter` (ascending members) and `is_subset` in both
//! directions. A second arm grows sets the way the engines do — through
//! `with_future` and `merge` over a derivation DAG whose siblings share
//! their parent's directory — and checks `merge`'s sharing verdict and
//! merge count as well. (`SfReach` itself is checked against `sfrd-dag`'s
//! exact oracle in `oracle_props.rs`.)

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sfrd_dag::FutureId;
use sfrd_reach::bitmap::{merge, with_future, FutureSet, SetStats};

fn ids(set: &FutureSet) -> Vec<u32> {
    set.iter().map(|f| f.index() as u32).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

    #[test]
    fn raw_set_ops_match_btreeset(
        codes in proptest::collection::vec(any::<u64>(), 1..200)
    ) {
        let stats = SetStats::default();
        let mut sets = vec![Arc::new(FutureSet::empty())];
        let mut model: Vec<BTreeSet<u32>> = vec![BTreeSet::new()];
        for &c in &codes {
            let id = FutureId(((c >> 2) & 0x3FF) as u32); // ids in [0, 1024)
            let i = ((c >> 12) as usize) % sets.len();
            let j = ((c >> 32) as usize) % sets.len();
            let (ns, nm) = match c & 0b11 {
                // Derive: add one id.
                0 | 1 => {
                    let mut m = model[i].clone();
                    m.insert(id.0);
                    (Arc::new(sets[i].with(id)), m)
                }
                // Merge two existing sets through the §3.4 discipline.
                2 => (
                    merge(&sets[i], &sets[j], &stats),
                    &model[i] | &model[j],
                ),
                // Union via the counting entry point.
                _ => (
                    Arc::new(sets[i].union(&sets[j])),
                    &model[i] | &model[j],
                ),
            };
            prop_assert_eq!(ns.len(), nm.len());
            prop_assert_eq!(ns.is_empty(), nm.is_empty());
            prop_assert_eq!(ns.contains(id), nm.contains(&id.0));
            prop_assert_eq!(ids(&ns), nm.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(ns.is_subset(&sets[i]), nm.is_subset(&model[i]));
            prop_assert_eq!(sets[i].is_subset(&ns), model[i].is_subset(&nm));
            prop_assert_eq!(ns.is_subset(&sets[j]), nm.is_subset(&model[j]));
            prop_assert_eq!(sets[j].is_subset(&ns), model[j].is_subset(&nm));
            if sets.len() < 24 {
                sets.push(ns);
                model.push(nm);
            } else {
                sets[i] = ns;
                model[i] = nm;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

    /// Sets grown through `with_future`/`merge` over a random derivation
    /// DAG. A parent stays in the pool beside its children, so siblings
    /// derived from one parent share its directory and differ only in
    /// their tails; chains run past the 8-id tail, so tails flush into
    /// rebuilt directories; ids span four 512-bit chunks. Besides contents
    /// and `is_subset` against every pool member in both directions,
    /// `merge` must return an input exactly when the model says that side
    /// covers the other, and `SetStats` must count exactly the model's
    /// true unions.
    #[test]
    fn engine_style_derivations_share_exactly_when_covered(
        codes in proptest::collection::vec(any::<u64>(), 1..160)
    ) {
        let stats = SetStats::default();
        let mut sets = vec![Arc::new(FutureSet::empty())];
        let mut model: Vec<BTreeSet<u32>> = vec![BTreeSet::new()];
        let mut unions = 0u64;
        for &c in &codes {
            let i = ((c >> 16) as usize) % sets.len();
            let j = ((c >> 40) as usize) % sets.len();
            let (ns, nm) = if c & 0b11 != 0 {
                // Derive a child: one new id, anywhere in chunks 0..4.
                let id = ((c >> 2) % 2048) as u32;
                let mut m = model[i].clone();
                m.insert(id);
                (with_future(&sets[i], FutureId(id), &stats), m)
            } else {
                let (a, b) = (&sets[i], &sets[j]);
                let (ma, mb) = (&model[i], &model[j]);
                let m = merge(a, b, &stats);
                if mb.is_subset(ma) {
                    prop_assert!(Arc::ptr_eq(&m, a), "a covers b: merge must return a");
                } else if ma.is_subset(mb) {
                    prop_assert!(Arc::ptr_eq(&m, b), "b covers a: merge must return b");
                } else {
                    prop_assert!(!Arc::ptr_eq(&m, a) && !Arc::ptr_eq(&m, b));
                    unions += 1;
                }
                (m, ma | mb)
            };
            prop_assert_eq!(ns.len(), nm.len());
            prop_assert_eq!(ids(&ns), nm.iter().copied().collect::<Vec<_>>());
            for (s, m) in sets.iter().zip(&model) {
                prop_assert_eq!(ns.is_subset(s), nm.is_subset(m));
                prop_assert_eq!(s.is_subset(&ns), m.is_subset(&nm));
            }
            prop_assert_eq!(stats.snapshot().merges, unions);
            // Keep parents: a full pool overwrites a slot other than the
            // one just derived from.
            if sets.len() < 32 {
                sets.push(ns);
                model.push(nm);
            } else {
                let k = (i + 1 + (c >> 56) as usize % 31) % 32;
                sets[k] = ns;
                model[k] = nm;
            }
        }
    }
}
