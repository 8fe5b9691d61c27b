//! Threaded stress tests for `OmList`: concurrent inserters + concurrent
//! lock-free queriers, validated against a total-order oracle rebuilt
//! from the final list.
//!
//! The cells force group splits and group-label range relabels (hammered
//! at one spot, and at a moving front shaped like SP-Order's fork stream).
//!
//! Run in release mode (CI does): debug-mode atomics make the seqlock
//! windows so long that the schedules stop resembling production.
//!
//! Every reader yields once per pass. A reader that spins without yielding
//! can hold the core a writer needs to publish its arena slots in order,
//! and on a two-core box the run time then becomes a scheduling lottery.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sfrd_om::{OmHandle, OmList};

/// Rank oracle: handle → position in the list's true total order, read
/// out *after* all writers joined. `order()` answers must agree with rank
/// comparison for every pair.
fn rank_oracle(om: &OmList) -> BTreeMap<usize, usize> {
    om.iter_order()
        .into_iter()
        .enumerate()
        .map(|(rank, h)| (h.index(), rank))
        .collect()
}

fn assert_order_matches_oracle(om: &OmList, handles: &[OmHandle], oracle: &BTreeMap<usize, usize>) {
    let n = handles.len();
    let step = (n / 64).max(1);
    for i in (0..n).step_by(step) {
        for j in (0..n).step_by(step) {
            let a = handles[i];
            let b = handles[j];
            let expect = oracle[&a.index()].cmp(&oracle[&b.index()]);
            assert_eq!(
                om.order(a, b),
                expect,
                "order({:?}, {:?}) disagrees with the rank oracle",
                a,
                b
            );
        }
    }
}

/// N inserter threads append to disjoint anchor chains while M query
/// threads verify a fixed chain; afterwards every thread's chain must be
/// contiguous in rank space between its anchors and all pairwise orders
/// must match the oracle.
#[test]
fn concurrent_inserters_match_rank_oracle() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PER: usize = 8_000;

    let (om, base) = OmList::new();
    let om = Arc::new(om);
    // Anchors: base < a0 < a1 < a2 < a3, built serially.
    let mut anchors = Vec::with_capacity(WRITERS);
    let mut last = base;
    for _ in 0..WRITERS {
        last = om.insert_after(last);
        anchors.push(last);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let om = Arc::clone(&om);
            let stop = Arc::clone(&stop);
            let chain: Vec<OmHandle> = std::iter::once(base).chain(anchors.clone()).collect();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for w in chain.windows(2) {
                        assert!(om.precedes(w[0], w[1]), "anchor order violated");
                        assert!(!om.precedes(w[1], w[0]));
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let om = Arc::clone(&om);
            let anchor = anchors[w];
            std::thread::spawn(move || {
                let mut chain = vec![anchor];
                let mut cur = anchor;
                for i in 0..PER {
                    // Mix single inserts with combined runs, like
                    // SpOrder::fork does.
                    match i % 3 {
                        0 => {
                            cur = om.insert_after(cur);
                            chain.push(cur);
                        }
                        1 => {
                            let [a, b] = om.insert_n_after(cur, [0; 2]);
                            chain.push(a);
                            chain.push(b);
                            cur = b;
                        }
                        _ => {
                            let [a, b, c] = om.insert_n_after(cur, [0; 3]);
                            chain.push(a);
                            chain.push(b);
                            chain.push(c);
                            cur = c;
                        }
                    }
                }
                chain
            })
        })
        .collect();

    let chains: Vec<Vec<OmHandle>> = writers.into_iter().map(|t| t.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let oracle = rank_oracle(&om);
    assert_eq!(oracle.len(), om.len(), "iter_order must cover every item");

    // Each writer appended after its own tail, so its chain is contiguous
    // and strictly between its anchor and the next writer's anchor.
    for (w, chain) in chains.iter().enumerate() {
        let ranks: Vec<usize> = chain.iter().map(|h| oracle[&h.index()]).collect();
        for pair in ranks.windows(2) {
            assert!(pair[0] < pair[1], "writer {w} chain out of order");
        }
        if w + 1 < chains.len() {
            let next_anchor_rank = oracle[&anchors[w + 1].index()];
            assert!(
                *ranks.last().unwrap() < next_anchor_rank,
                "writer {w} leaked past the next anchor"
            );
        }
    }

    // Pairwise order queries agree with the oracle across all chains.
    let sample: Vec<OmHandle> = chains
        .iter()
        .flat_map(|c| c.iter().step_by(97).copied())
        .collect();
    assert_order_matches_oracle(&om, &sample, &oracle);

    let stats = om.stats();
    assert!(stats.splits > 0, "32k inserts must split groups: {stats:?}");
    assert!(
        stats.fast_inserts > stats.global_escalations,
        "fast path must dominate: {stats:?}"
    );
    assert!(
        stats.group_locks >= stats.fast_inserts,
        "every fast insert holds a group lock: {stats:?}"
    );
}

/// All writers hammer the SAME position (right after the base element):
/// maximal group-lock contention, geometric label-gap exhaustion, forced
/// splits of the head group, and forced group-label respreads (the head
/// group's neighbour gap halves at every split). Query threads must never
/// observe the verification chain out of order.
#[test]
fn head_hammer_forces_splits_and_respreads_under_queries() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PER: usize = 8_000;

    let (om, base) = OmList::new();
    let om = Arc::new(om);
    let mut chain = vec![base];
    let mut last = base;
    for _ in 0..12 {
        last = om.insert_after(last);
        chain.push(last);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let om = Arc::clone(&om);
            let stop = Arc::clone(&stop);
            let chain = chain.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for w in chain.windows(2) {
                        assert!(om.precedes(w[0], w[1]));
                        assert!(!om.precedes(w[1], w[0]));
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let om = Arc::clone(&om);
            std::thread::spawn(move || {
                for _ in 0..PER {
                    om.insert_after(base);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    assert_eq!(om.len(), 1 + 12 + WRITERS * PER);
    let stats = om.stats();
    assert!(stats.splits > 0, "head hammering must split: {stats:?}");
    assert!(
        stats.respreads > 0,
        "repeated head splits must exhaust group-label gaps: {stats:?}"
    );
    // (item-level `relabels` may legitimately stay 0 here: splits
    // respace the head group's labels every ~GROUP_MAX/2 inserts,
    // well before 63 geometric halvings can exhaust a fresh gap.)

    // The verification chain survived every relabel, split and range
    // relabel.
    let oracle = rank_oracle(&om);
    let chain_ranks: Vec<usize> = chain.iter().map(|h| oracle[&h.index()]).collect();
    for pair in chain_ranks.windows(2) {
        assert!(pair[0] < pair[1]);
    }
}

/// Writers insert at uniformly random positions of a shared (pre-built)
/// backbone while queriers compare random backbone pairs; the final order
/// must agree with the oracle and every query observed during the run is
/// checked against the *immutable* backbone order.
#[test]
fn random_position_inserts_with_concurrent_queries() {
    const WRITERS: usize = 3;
    const PER: usize = 4_000;

    let (om, base) = OmList::new();
    let om = Arc::new(om);
    let mut backbone = vec![base];
    let mut last = base;
    for _ in 0..256 {
        last = om.insert_after(last);
        backbone.push(last);
    }
    let backbone = Arc::new(backbone);

    let stop = Arc::new(AtomicBool::new(false));
    let querier = {
        let om = Arc::clone(&om);
        let stop = Arc::clone(&stop);
        let backbone = Arc::clone(&backbone);
        std::thread::spawn(move || {
            // Deterministic pseudo-random pair walk (no rand in dev-deps
            // of the integration target needed), 64 pairs per pass.
            let mut x = 0x9E3779B97F4A7C15u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x as usize >> 8) % backbone.len();
                    let j = (x as usize >> 24) % backbone.len();
                    let expect = i.cmp(&j);
                    assert_eq!(
                        om.order(backbone[i], backbone[j]),
                        expect,
                        "backbone order is immutable"
                    );
                }
                std::thread::yield_now();
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let om = Arc::clone(&om);
            let backbone = Arc::clone(&backbone);
            std::thread::spawn(move || {
                let mut x = 0xD1B54A32D192ED03u64.wrapping_mul(w as u64 + 1) | 1;
                for _ in 0..PER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x as usize >> 8) % backbone.len();
                    // Insert after a random backbone element; the new item
                    // lands somewhere between backbone[i] and backbone[i+1].
                    om.insert_after(backbone[i]);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    querier.join().unwrap();

    let oracle = rank_oracle(&om);
    // Backbone stays in order, and random inserts landed inside the right
    // backbone gaps (checked implicitly: iter_order covers all items and
    // backbone ranks are strictly increasing).
    let ranks: Vec<usize> = backbone.iter().map(|h| oracle[&h.index()]).collect();
    for pair in ranks.windows(2) {
        assert!(pair[0] < pair[1]);
    }
    assert_eq!(oracle.len(), 1 + 256 + WRITERS * PER);
    assert_order_matches_oracle(&om, &backbone, &oracle);
}

/// One task's position in an English/Hebrew pair of lists, as
/// `sfrd_reach::SpOrder` keeps it (this crate sits below `sfrd-reach`, so
/// the test states the fork rule itself: English `u, c, k, s`, Hebrew
/// `u, k, c, s` on a block's first fork; `c, k` / `k, c` after `u` on
/// later ones; `sync` moves to `s`).
#[derive(Clone, Copy)]
struct Task {
    cur: (OmHandle, OmHandle),
    block: Option<(OmHandle, OmHandle)>,
}

fn fork(eng: &OmList, heb: &OmList, t: &mut Task) -> Task {
    let (child, cont) = if t.block.is_none() {
        let [c_eng, k_eng, s_eng] = eng.insert_n_after(t.cur.0, [0; 3]);
        let [k_heb, c_heb, s_heb] = heb.insert_n_after(t.cur.1, [0; 3]);
        t.block = Some((s_eng, s_heb));
        ((c_eng, c_heb), (k_eng, k_heb))
    } else {
        let [c_eng, k_eng] = eng.insert_n_after(t.cur.0, [0; 2]);
        let [k_heb, c_heb] = heb.insert_n_after(t.cur.1, [0; 2]);
        ((c_eng, c_heb), (k_eng, k_heb))
    };
    t.cur = cont;
    Task {
        cur: child,
        block: None,
    }
}

fn sync(t: &mut Task) {
    if let Some(s) = t.block.take() {
        t.cur = s;
    }
}

/// Moving-front stress: two threads each drive a chain of futures (create,
/// eight spawned children, sync) from their own task on ONE English/Hebrew
/// pair of `OmList`s — the insert point advances with every future, the
/// pattern whose group splits pile up at one spot of the group-label space
/// and force range relabels — while two threads check that a chain built
/// beforehand never inverts in either list. Afterwards both lists must
/// agree with the rank oracle, hold every structural invariant, and have
/// relabelled ranges (`respreads`) without ever having needed more than a
/// few key rewrites per inserted item.
#[test]
fn moving_front_fork_chains_relabel_ranges_under_queries() {
    const FUTURES: usize = 3_000;
    const FAN: usize = 8;

    let (eng, e0) = OmList::new();
    let (heb, h0) = OmList::new();
    let (eng, heb) = (Arc::new(eng), Arc::new(heb));
    let mut root = Task {
        cur: (e0, h0),
        block: None,
    };
    // The verification chain: root strand, then the successive
    // continuations of a few serial forks — ordered in BOTH lists.
    let mut chain = vec![root.cur];
    let mut drivers = Vec::new();
    for _ in 0..6 {
        drivers.push(fork(&eng, &heb, &mut root));
        chain.push(root.cur);
    }
    drivers.truncate(2);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (eng, heb) = (Arc::clone(&eng), Arc::clone(&heb));
            let stop = Arc::clone(&stop);
            let chain = chain.clone();
            std::thread::spawn(move || {
                let mut passes = 0u64;
                while !stop.load(Ordering::Relaxed) || passes == 0 {
                    for w in chain.windows(2) {
                        assert!(eng.precedes(w[0].0, w[1].0), "English chain inverted");
                        assert!(!eng.precedes(w[1].0, w[0].0));
                        assert!(heb.precedes(w[0].1, w[1].1), "Hebrew chain inverted");
                        assert!(!heb.precedes(w[1].1, w[0].1));
                    }
                    passes += 1;
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    let writers: Vec<_> = drivers
        .into_iter()
        .map(|mut task| {
            let (eng, heb) = (Arc::clone(&eng), Arc::clone(&heb));
            std::thread::spawn(move || {
                let mut positions = vec![task.cur];
                for _ in 0..FUTURES {
                    let mut fut = fork(&eng, &heb, &mut task);
                    for _ in 0..FAN {
                        let mut child = fork(&eng, &heb, &mut fut);
                        sync(&mut child);
                    }
                    sync(&mut fut);
                    positions.push(fut.cur);
                }
                positions
            })
        })
        .collect();
    let per_writer: Vec<Vec<(OmHandle, OmHandle)>> =
        writers.into_iter().map(|t| t.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    for (name, om, pick) in [
        (
            "English",
            &*eng,
            (|p| p.0) as fn(&(OmHandle, OmHandle)) -> OmHandle,
        ),
        ("Hebrew", &*heb, |p| p.1),
    ] {
        om.check_invariants();
        let oracle = rank_oracle(om);
        let ranks: Vec<usize> = chain.iter().map(|p| oracle[&pick(p).index()]).collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{name} chain order");
        for positions in &per_writer {
            let handles: Vec<OmHandle> = positions.iter().map(pick).collect();
            assert_order_matches_oracle(om, &handles, &oracle);
        }
        let stats = om.stats();
        let inserted = om.len() as u64 - 1;
        assert!(stats.splits > 0 && stats.respreads > 0, "{name}: {stats:?}");
        assert!(stats.relabeled_slots > 0, "{name}: {stats:?}");
        assert!(
            stats.relabeled_slots < 4 * inserted,
            "{name}: {} key rewrites for {inserted} inserts: {stats:?}",
            stats.relabeled_slots
        );
    }
}
