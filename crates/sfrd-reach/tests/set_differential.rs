//! Differential property test: raw `FutureSet` operations against a
//! `BTreeSet<u32>` reference model.
//!
//! Each case decodes a `Vec<u64>` into a sequence of `with` / `merge` /
//! `union` derivations over a pool of sets (crossing the inline, sparse
//! and chunked tiers) and applies the same sequence to the model. After
//! every step the derived set must agree with the model on `len`,
//! `contains`, `iter` (ascending members) and `is_subset` in both
//! directions. (`SfReach` itself is checked against `sfrd-dag`'s exact
//! oracle in `oracle_props.rs`.)

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sfrd_dag::FutureId;
use sfrd_reach::bitmap::{merge, FutureSet, SetStats};

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
