//! Probe the `O(k²)` reachability-construction term (Lemma 3.12).
//!
//! Both SF-Order and F-Order pay O(k) per create to extend ancestor
//! metadata — O(k²) total — but with very different constants: SF-Order
//! copies `k/64`-word bitmaps, F-Order clones hash tables. This sweep
//! holds per-future work constant and scales `k` (a chain of k futures,
//! each gotten by its creator — the worst case for `cp`/`gp` growth is a
//! chain of *gets*, which accumulates every prior future into `gp`).
//!
//! Output: reach-only wall time and cumulative set payload bytes for
//! SF-Order and F-Order, and the F/SF byte ratio as `k` grows.
//!
//! ```sh
//! cargo run -p sfrd-bench --release --bin k_scaling -- [kmax]
//! ```
//!
//! A second sweep runs the fan-out chain cells (`fanout_chain_k<k>`):
//! SF-Order reach on a deep chain whose every link fans out readers.
//!
//! A third sweep drives the fan-out chain's construct stream through
//! `SpOrder::{fork, sync}` alone and prints the keys the two `OmList`s
//! rewrote per item inserted (`om relabeled_slots / inserts`): the
//! amortized-O(1) insert bound as a number (it creeps up by ≈ 0.03 per
//! doubling of `k` — the range relabel's `log #groups / 32` group labels
//! per insert — where a whole-list relabel doubles it). The binary fails
//! if the last `k`'s figure is 1.25x the first's or more.
//!
//! The last table is the only multi-threaded order-maintenance timing:
//! one `OmList` shared by 1/2/4/8 threads, median of 5. `ns/insert`: a
//! fixed budget of [`OM_INSERTS`] appends split across the threads, each
//! on its own anchor chain (the group-local fast path; threads meet only
//! on the arena's reservation counter). `ns/query`: [`OM_QUERIES`]
//! lock-free order queries split across the threads while one extra
//! thread inserts [`OM_WRITER_INSERTS`] times at the head (maximal
//! relabel/split pressure, so seqlock retries show). Both are wall time
//! of the whole threaded section divided by the budget, thread start-up
//! included.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sfrd_bench::{om_rewrites_per_insert, Table};
use sfrd_core::{drive, DetectorKind, DriveConfig, Mode, Workload};
use sfrd_om::OmList;
use sfrd_reach::SpOrder;
use sfrd_runtime::Cx;

/// A chain of `k` futures, each gotten right after creation — maximizes
/// `gp` accumulation (every future's id flows into all later strands).
struct FutureChain {
    k: usize,
}

impl Workload for FutureChain {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        for i in 0..self.k {
            let h = ctx.create(move |c| {
                c.record_write(i as u64 * 8);
            });
            ctx.get(h);
        }
    }
}

/// A chain of `k` futures where each future fans out [`FAN`] spawned
/// readers of a shared window before the chain continues. The chain keeps
/// deepening the SP positions, and every reader's access-history check
/// runs `precedes` between two *deep* positions.
struct FanoutChain {
    k: usize,
}

/// Fan-out width of [`FanoutChain`] (readers spawned per chain link).
const FAN: usize = 8;

impl Workload for FanoutChain {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        for i in 0..self.k {
            let h = ctx.create(move |c| {
                for j in 0..FAN {
                    c.spawn(move |gc| {
                        gc.record_read(j as u64 * 8);
                    });
                }
                c.sync();
                c.record_write(i as u64 * 8 + 4096);
            });
            ctx.get(h);
        }
    }
}

/// The sweep's detector arms (the `SF` and `F` columns).
const ARMS: [DetectorKind; 2] = [DetectorKind::SfOrder, DetectorKind::FOrder];

/// Appends per `ns/insert` cell, split across the threads.
const OM_INSERTS: usize = 4096;
/// Order queries per `ns/query` cell, split across the query threads.
const OM_QUERIES: usize = 16_384;
/// Head inserts by the writer running beside the query threads.
const OM_WRITER_INSERTS: usize = 2_048;

/// Median of five runs of `run`, each returning its own timed span.
fn median5(mut run: impl FnMut() -> Duration) -> Duration {
    let mut spans: Vec<Duration> = (0..5).map(|_| run()).collect();
    spans.sort();
    spans[2]
}

/// `threads` threads append [`OM_INSERTS`] items in total to one list,
/// each on its own anchor chain.
fn contended_inserts(threads: usize) -> Duration {
    let (list, base) = OmList::new();
    let mut anchors = Vec::with_capacity(threads);
    let mut last = base;
    for _ in 0..threads {
        last = list.insert_after(last);
        anchors.push(last);
    }
    let per = OM_INSERTS / threads;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for &anchor in &anchors {
            let list = &list;
            s.spawn(move || {
                let mut cur = anchor;
                for _ in 0..per {
                    cur = list.insert_after(cur);
                }
                black_box(cur);
            });
        }
    });
    t0.elapsed()
}

/// `threads` threads ask [`OM_QUERIES`] order queries in total over a
/// 1 001-item list while one more thread inserts at its head.
fn contended_queries(threads: usize) -> Duration {
    let (list, base) = OmList::new();
    let mut handles = vec![base];
    let mut cur = base;
    for _ in 0..1_000 {
        cur = list.insert_after(cur);
        handles.push(cur);
    }
    let per = OM_QUERIES / threads;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (list, handles) = (&list, &handles);
            s.spawn(move || {
                let mut i = t * 7919;
                for _ in 0..per {
                    i = (i + 7919) % handles.len();
                    let j = (i * 31 + 1) % handles.len();
                    black_box(list.precedes(handles[i], handles[j]));
                }
            });
        }
        let list = &list;
        s.spawn(move || {
            for _ in 0..OM_WRITER_INSERTS {
                black_box(list.insert_after(base));
            }
        });
    });
    t0.elapsed()
}

fn main() {
    let mut kmax: usize = 8192;
    for a in std::env::args().skip(1) {
        match a.parse() {
            Ok(k) => kmax = k,
            Err(_) => {
                eprintln!("error: unknown argument {a:?}\nusage: k_scaling [kmax]");
                std::process::exit(2);
            }
        }
    }
    println!("# k-scaling of reachability construction (reach config, 1 worker)");
    let mut t = Table::new(&["k", "SF (ms)", "F (ms)", "SF bytes", "F bytes", "F/SF"]);
    let mut k = 512;
    while k <= kmax {
        let mut row = vec![k.to_string()];
        let mut times_ms = Vec::new();
        let mut bytes: Vec<u64> = Vec::new();
        for kind in ARMS {
            let w = FutureChain { k };
            let out = drive(&w, DriveConfig::with(kind, Mode::Reach, 1));
            let rep = out.report.unwrap();
            assert_eq!(rep.counts.futures as usize, k);
            times_ms.push(out.wall.as_secs_f64() * 1e3);
            // F-Order reports its table bytes through the same counters.
            bytes.push(rep.metrics.set_bytes);
        }
        for ms in &times_ms {
            row.push(format!("{ms:.2}"));
        }
        for b in &bytes {
            row.push(b.to_string());
        }
        let (sf, fo) = (bytes[0], bytes[1]);
        row.push(format!("{:.1}x", fo as f64 / sf.max(1) as f64));
        t.row(row);
        k *= 2;
    }
    print!("{}", t.render());

    // High-k fan-out cells: deep chain + fan-out readers, SF-Order reach.
    // The chain keeps deepening the SP positions, so this is the
    // `precedes`-depth stress.
    println!("\n# fan-out chain (FAN={FAN} readers per link), SF-Order reach");
    let mut ft = Table::new(&["k", "SF (ms)"]);
    let mut k = 512;
    while k <= kmax.min(4096) {
        let w = FanoutChain { k };
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 1));
        let rep = out.report.unwrap();
        assert_eq!(rep.counts.futures as usize, k);
        ft.row(vec![
            k.to_string(),
            format!("{:.2}", out.wall.as_secs_f64() * 1e3),
        ]);
        k *= 2;
    }
    print!("{}", ft.render());

    // The same construct stream through `SpOrder` alone:
    // what each inserted position cost the two lists in rewritten keys.
    println!("\n# om relabeled_slots / inserts (fan-out chain through SpOrder::fork/sync)");
    let mut ot = Table::new(&["k", "inserts", "relabeled_slots", "per insert"]);
    let mut ratios = Vec::new();
    let mut k = 512;
    while k <= kmax {
        let (sp, mut root) = SpOrder::new();
        for _ in 0..k {
            let mut fut = sp.fork(&mut root);
            for _ in 0..FAN {
                let mut child = sp.fork(&mut fut);
                sp.sync(&mut child);
            }
            sp.sync(&mut fut);
        }
        let (rewritten, inserted, ratio) = om_rewrites_per_insert(&sp);
        ot.row(vec![
            k.to_string(),
            inserted.to_string(),
            rewritten.to_string(),
            format!("{ratio:.3}"),
        ]);
        ratios.push(ratio);
        k *= 2;
    }
    print!("{}", ot.render());
    if let (Some(first), Some(last)) = (ratios.first(), ratios.last()) {
        assert!(
            *last < 1.25 * first,
            "order-maintenance inserts are not amortized O(1): {first:.3} keys rewritten \
             per insert at k = 512, {last:.3} at k = {}",
            k / 2
        );
    }

    println!(
        "\n# contended order maintenance: one OmList, {OM_INSERTS} inserts on disjoint \
         chains / {OM_QUERIES} queries beside one head-inserting writer, median of 5"
    );
    let mut ct = Table::new(&["threads", "ns/insert", "ns/query"]);
    for threads in [1usize, 2, 4, 8] {
        let ins = median5(|| contended_inserts(threads));
        let qry = median5(|| contended_queries(threads));
        ct.row(vec![
            threads.to_string(),
            format!("{:.1}", ins.as_nanos() as f64 / OM_INSERTS as f64),
            format!("{:.1}", qry.as_nanos() as f64 / OM_QUERIES as f64),
        ]);
    }
    print!("{}", ct.render());
}
