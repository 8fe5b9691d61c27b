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
//! cargo run -p sfrd-bench --release --bin k_scaling -- [kmax] \
//!     [--json] [--json-out PATH] [--json-label NAME]
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
//! `--json` writes a snapshot to `BENCH_fig4.json`, replacing the one
//! there (same schema-2 row shape as `fig4_times`: one
//! `future_chain_k<k>` bench entry per sweep point, one row per detector
//! configuration with the full metrics payload).

use sfrd_bench::{
    cell_json, om_rewrites_per_insert, write_snapshot, Json, Table, TimedCell, Timing,
};
use sfrd_core::{drive, DetectorKind, DriveConfig, Mode, Workload};
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

/// The sweep's detector arms.
const ARMS: [(&str, DetectorKind); 2] = [
    ("SF-Order/reach", DetectorKind::SfOrder),
    ("F-Order/reach", DetectorKind::FOrder),
];

fn main() {
    let mut kmax: usize = 8192;
    let mut json: Option<String> = None;
    let mut json_label: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json.get_or_insert_with(|| "BENCH_fig4.json".to_string());
            }
            "--json-out" => json = Some(args.next().expect("missing --json-out path")),
            "--json-label" => json_label = Some(args.next().expect("missing --json-label name")),
            other => match other.parse() {
                Ok(k) => kmax = k,
                Err(_) => {
                    eprintln!(
                        "usage: k_scaling [kmax] [--json] [--json-out PATH] [--json-label NAME]"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    println!("# k-scaling of reachability construction (reach config, 1 worker)");
    let mut t = Table::new(&["k", "SF (ms)", "F (ms)", "SF bytes", "F bytes", "F/SF"]);
    let mut bench_objects: Vec<Json> = Vec::new();
    let mut k = 512;
    while k <= kmax {
        let mut row = vec![k.to_string()];
        let mut times_ms = Vec::new();
        let mut bytes: Vec<u64> = Vec::new();
        let mut rows: Vec<Json> = Vec::new();
        for (label, kind) in ARMS {
            let w = FutureChain { k };
            let out = drive(&w, DriveConfig::with(kind, Mode::Reach, 1));
            let rep = out.report.unwrap();
            assert_eq!(rep.counts.futures as usize, k);
            times_ms.push(out.wall.as_secs_f64() * 1e3);
            // F-Order reports its table bytes through the same counters.
            bytes.push(rep.metrics.set_bytes);
            let cell = TimedCell {
                timing: Timing {
                    mean: out.wall.as_secs_f64(),
                    sd: 0.0,
                },
                report: Some(rep),
            };
            rows.push(cell_json(label, 1, &cell));
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
        bench_objects.push(
            Json::obj()
                .field("bench", format!("future_chain_k{k}"))
                .field("work", k as u64)
                .field("span", k as u64)
                .field("parallelism", 1.0)
                .field("rows", rows),
        );
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
        let cell = TimedCell {
            timing: Timing {
                mean: out.wall.as_secs_f64(),
                sd: 0.0,
            },
            report: Some(rep),
        };
        bench_objects.push(
            Json::obj()
                .field("bench", format!("fanout_chain_k{k}"))
                .field("work", (k * FAN) as u64)
                .field("span", k as u64)
                .field("parallelism", FAN as f64)
                .field("rows", vec![cell_json("SF-Order/reach", 1, &cell)]),
        );
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
    if let Some(path) = &json {
        let label = json_label.unwrap_or_else(|| format!("kscaling-kmax{kmax}"));
        let snap = Json::obj()
            .field("label", label)
            .field("scale", "kscaling")
            .field("workers", 1usize)
            .field("reps", 1usize)
            .field("benches", bench_objects);
        write_snapshot(path, snap);
        eprintln!("wrote snapshot to {path}");
    }
}
