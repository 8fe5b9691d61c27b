//! The phenomena of the paper's running example (Fig. 1/Fig. 2, §3.1),
//! reconstructed as a concrete program and asserted against both the
//! SF-Order engine and the exact oracle:
//!
//! 1. two nodes of the same future with non-SP paths between them still
//!    have an SP path (Lemma 3.3 — "even though there are non-SP paths
//!    from e to u, there is also an SP path");
//! 2. an ancestor future's post-create strand does NOT precede the
//!    created future's body ("even though A is C's ancestor, i ⊀ f");
//! 3. `gp` accumulates exactly the gotten futures, transitively through
//!    nested gets ("gp(o) contains B and E");
//! 4. the pseudo-SP-dag has a phantom path from an ungotten future to
//!    post-sync strands (the fake edge f → h), which Algorithm 1's gp
//!    route correctly ignores (Lemma 3.9's boundary).

use std::sync::Arc;

use sfrd::core::{EngineConfig, Mode, RecordingHooks, SfDetector};
use sfrd::dag::{EdgeKind, ReachOracle};
use sfrd::reach::SfReach;
use sfrd::runtime::hooks::PairHooks;
use sfrd::runtime::run_sequential;

#[test]
fn running_example_phenomena() {
    let (eng, mut a) = SfReach::new();

    // e: a strand of A before any creates.
    let e = a.pos();

    // A creates B; B writes and ends.
    let mut b = eng.create(&mut a);
    let b_id = b.future();
    eng.task_end(&mut b);

    // A creates C; C runs some work (f) and is NEVER gotten before the
    // probes — it escapes past A's sync.
    let mut c = eng.create(&mut a);
    let f_body = c.pos();
    let c_id = c.future();
    eng.task_end(&mut c);

    // i: A's strand after creating C.
    let i = a.pos();

    // g: A gets B.
    eng.get(&mut a, &b);

    // A creates D; D creates E, gets it, ends. (E's body is e_fut_body.)
    let mut d = eng.create(&mut a);
    let d_id = d.future();
    let mut e_fut = eng.create(&mut d);
    let e_fut_body = e_fut.pos();
    let e_id = e_fut.future();
    eng.task_end(&mut e_fut);
    eng.get(&mut d, &e_fut);
    eng.task_end(&mut d);

    // h: A spawns a helper and syncs — in PSP(D), C joins this sync
    // (the fake edge f → h).
    let helper = eng.spawn(&mut a);
    eng.sync(&mut a, [&helper]);

    // o: A gets D. gp(o) must now contain B (direct get), D (direct get)
    // and E (transitively through D's get).
    eng.get(&mut a, &d);
    let _o = a.pos();

    // ---- Phenomenon 3: gp(o) ⊇ {B, E} (and D), but NOT C.
    assert!(a.gp().contains(b_id), "gp(o) contains B");
    assert!(a.gp().contains(e_id), "gp(o) contains E (through D's get)");
    assert!(a.gp().contains(d_id), "gp(o) contains D");
    assert!(!a.gp().contains(c_id), "C was never gotten");

    // ---- Phenomenon 1: e ≺ u with u in the same future, despite the
    // non-SP paths e → B → get → ... (Lemma 3.3: the SP path exists).
    let u = a.pos();
    assert!(eng.precedes(e, &a), "e ≺ u within A");
    let _ = u;

    // ---- Phenomenon 2: i ⊀ f although A ∈ f-ancs(C).
    // (Query direction: is i a predecessor of C's body? No.)
    // We need C's strand for the query target; C ended, but its final
    // strand is still valid as a query target.
    assert!(
        !eng.precedes(i, &c),
        "i ⊀ f: post-create strand ∥ created body"
    );
    // While the pre-create strand e ≺ f (case 2, PSP route):
    assert!(eng.precedes(e, &c), "e ≺ f through the create chain");

    // ---- Phenomenon 4: the phantom path. In PSP, C joined A's sync (h),
    // so f ↠ t for the post-sync strand t = o; but in the true dag f ∥ t,
    // and Algorithm 1 answers ∥ because it routes F ∉ cp, F ∉ gp.
    assert!(
        !eng.precedes(f_body, &a),
        "phantom PSP path must not leak: ungotten C stays parallel"
    );
    // E's body, by contrast, does precede o (real path through two gets).
    assert!(eng.precedes(e_fut_body, &a), "E ≺ o through E→D→A gets");
}

/// The same program executed through the runtime with the recorder:
/// the oracle agrees with every phenomenon above.
#[test]
fn running_example_oracle_crosscheck() {
    let pair = PairHooks(
        RecordingHooks::new(),
        SfDetector::from_config(&EngineConfig::new(Mode::Full)),
    );
    // Unique addresses per probe point; conflicts engineered where the
    // phenomena predict parallelism (C's body vs post-sync strand).
    run_sequential(&pair, |ctx| {
        use sfrd::runtime::Cx;
        ctx.record_write(0xE0); // e
        let hb = ctx.create(|c| c.record_write(0xB0));
        let hc = ctx.create(|c| c.record_write(0xF0)); // f: C's body
        ctx.record_write(0x10); // i
        ctx.get(hb);
        let hd = ctx.create(|c| {
            let he = c.create(|cc| cc.record_write(0xEE));
            c.get(he);
        });
        ctx.spawn(|c| c.record_read(0xAA));
        ctx.sync();
        ctx.get(hd);
        // t / o: touches C's location — a real determinacy race, because
        // C was never gotten (the phantom PSP path is not a real order).
        ctx.record_write(0xF0);
        // Keep the handle alive to the end (still never gotten).
        drop(hc);
    });
    let PairHooks(rec, det) = pair;
    let recorded = RecordingHooks::finish(Arc::new(rec));
    recorded.validate().unwrap();

    // Oracle: the only racy address is C's body location.
    let racy: Vec<u64> = recorded.races().iter().map(|r| r.addr).collect();
    assert_eq!(
        racy,
        vec![0xF0],
        "exactly the escaping-future location races"
    );

    // Detector found the same.
    assert_eq!(
        det.report().racy_addrs.into_iter().collect::<Vec<_>>(),
        vec![0xF0]
    );

    // And the PSP really does contain the phantom path (fake edge route):
    // C's last node reaches the final strand in PSP but not in D.
    let psp = recorded.psp();
    let psp_oracle = ReachOracle::build(&psp, |_| true);
    let true_oracle = ReachOracle::build(&recorded.dag, |k| k != EdgeKind::PspJoin);
    let c_future = sfrd::dag::FutureId(2);
    let c_last = recorded.dag.future(c_future).last.unwrap();
    let a_last = recorded.dag.future(sfrd::dag::FutureId(0)).last.unwrap();
    assert!(
        psp_oracle.reaches(c_last, a_last),
        "PSP has the phantom path"
    );
    assert!(
        !true_oracle.reaches(c_last, a_last),
        "the true dag does not"
    );
}
