//! Regenerates **Figure 5**: memory used by reachability maintenance,
//! F-Order vs SF-Order (the paper reports GB at full scale; scaled-down
//! inputs land in KB/MB — the *ratio* is the reproduced claim: SF-Order's
//! bitmap `gp`/`cp` tables are a small percentage of F-Order's per-node
//! hash tables).
//!
//! A second table reports the **access-history** footprint (Full mode,
//! SF-Order). The accounting is capacity-based (page directory + arena
//! slabs + fallback map), so the paged table's direct-mapped overcommit
//! is charged in full. Next to it: the accesses the batch filter admitted
//! to the shadow (`reads + writes − filtered`) and how many of them it
//! answered from a validated snapshot (`shadow_fast_hits` — reads and
//! writes both), since those are the accesses that retain nothing. The
//! `filter/thread` column is the write-combining filter's table, which
//! every thread carries as static TLS: no history, reach or heap figure
//! includes it.

use sfrd_bench::{run_bench, HarnessArgs, Table};
use sfrd_core::{DetectorKind, DriveConfig, Mode};
use sfrd_runtime::FILTER_BYTES;

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.2} KiB", b as f64 / 1024.0)
    }
}

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "# Figure 5: reachability-maintenance memory, F-Order vs SF-Order (scale: {:?})",
        args.scale
    );
    let mut t = Table::new(&["bench", "F-Order", "SF-Order", "SF/F ratio"]);
    let mut total_ratio = 0.0;
    let mut rows = 0usize;
    for name in &args.benches {
        let (fo, _) = run_bench(
            name,
            args.scale,
            DriveConfig::with(DetectorKind::FOrder, Mode::Reach, 1),
        );
        let (sf, _) = run_bench(
            name,
            args.scale,
            DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 1),
        );
        let fb = fo.report.unwrap().reach_bytes;
        let sb = sf.report.unwrap().reach_bytes;
        // Both engines share the SP-order OM lists; the differentiated part
        // is the gp/cp payloads vs nsp hash tables, which dominate at scale.
        let ratio = sb as f64 / fb.max(1) as f64;
        total_ratio += ratio;
        rows += 1;
        t.row(vec![
            name.clone(),
            fmt_bytes(fb),
            fmt_bytes(sb),
            format!("{:.1}%", ratio * 100.0),
        ]);
    }
    print!("{}", t.render());
    if rows > 0 {
        println!(
            "average SF-Order/F-Order memory: {:.1}%",
            total_ratio / rows as f64 * 100.0
        );
        println!("(paper: 1.29% of F-Order's usage on average, Fig. 5)");
    }

    println!();
    println!("# Access-history memory (SF-Order, full detection)");
    let mut h = Table::new(&[
        "bench",
        "history",
        "filter/thread",
        "admitted",
        "shadow_fast_hits",
        "hits/admitted",
    ]);
    for name in &args.benches {
        let (out, _) = run_bench(
            name,
            args.scale,
            DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1),
        );
        let rep = out.report.unwrap();
        let (admitted, hits) = (rep.metrics.batched_accesses, rep.metrics.shadow_fast_hits);
        h.row(vec![
            name.clone(),
            fmt_bytes(rep.history_bytes),
            fmt_bytes(FILTER_BYTES),
            admitted.to_string(),
            hits.to_string(),
            format!("{:.1}%", hits as f64 * 100.0 / admitted.max(1) as f64),
        ]);
    }
    print!("{}", h.render());
}
