//! Regenerates **Figure 4**: execution times of the baseline (no
//! detection) and of MultiBags, F-Order and SF-Order under the `reach`
//! and `full` configurations, on one worker (`T1`) and on `P` workers
//! (`TP`), with overhead (vs base `T1`/`TP`) and scalability (`T1/TP`)
//! annotations. `--reps N` averages N runs per cell (the paper uses 5).
//!
//! On a core-starved machine, wall-clock `TP` cannot beat `T1`; the
//! harness therefore also prints the recorded dag's parallelism
//! (`T1/T∞`, the greedy-scheduler headroom), which is schedule- and
//! machine-independent. EXPERIMENTS.md discusses the mapping to the
//! paper's 20-core numbers.
//!
//! `--json` writes a snapshot to `BENCH_fig4.json` (`--json-out PATH` to
//! override): a schema-2 document whose `snapshots` array holds this
//! invocation's one entry — every timed cell with its wall time and, for
//! detector configs, the metrics snapshot of the final repetition
//! (shadow-lock, fast-path, batching, and OM-contention counters).
//! `--json-label` names the snapshot. The file holds the latest snapshot;
//! the trajectory across PRs is `git log -p BENCH_fig4.json`.

use sfrd_bench::{
    cell_json, fig4_grid, run_bench_cell, times, work_span, write_snapshot, HarnessArgs, Json,
    Table,
};
use sfrd_core::{DetectorKind, DriveConfig};

fn main() {
    let args = HarnessArgs::parse();
    let p = args.workers;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# Figure 4: execution times (scale: {:?}, P = {p}, cores = {cores}, reps = {})",
        args.scale, args.reps
    );
    if cores < p {
        println!("# NOTE: only {cores} core(s) available — TP wall-clock cannot show speedup;");
        println!("#       the `T1/Tinf` column gives the dag parallelism instead.");
    }
    let mut t = Table::new(&[
        "bench", "config", "T1 (s)", "sd%", "ovh1", "TP (s)", "ovhP", "T1/TP", "T1/Tinf",
    ]);
    let fmt_s = |x: f64| format!("{x:.3}");
    let mut bench_objects: Vec<Json> = Vec::new();
    for name in &args.benches {
        let (work, span) = work_span(name, args.scale);
        let parallelism = work as f64 / span.max(1) as f64;
        let mut rows: Vec<Json> = Vec::new();

        let base1 = run_bench_cell(name, args.scale, DriveConfig::base(1), args.reps);
        let basep = run_bench_cell(name, args.scale, DriveConfig::base(p), args.reps);
        rows.push(cell_json("base", 1, &base1));
        rows.push(cell_json("base", p, &basep));
        t.row(vec![
            name.clone(),
            "base".into(),
            fmt_s(base1.timing.mean),
            format!("{:.1}", base1.timing.rsd()),
            "1.00x".into(),
            fmt_s(basep.timing.mean),
            "1.00x".into(),
            times(base1.timing.mean / basep.timing.mean),
            format!("{parallelism:.1}"),
        ]);

        for (label, kind, mode) in fig4_grid() {
            let t1 = run_bench_cell(
                name,
                args.scale,
                DriveConfig::with(kind, mode, 1),
                args.reps,
            );
            rows.push(cell_json(label, 1, &t1));
            let (tp_cell, ovhp, scal) = if kind == DetectorKind::MultiBags {
                // Sequential-only: no parallel column.
                ("-".to_string(), "-".to_string(), "-".to_string())
            } else {
                let tp = run_bench_cell(
                    name,
                    args.scale,
                    DriveConfig::with(kind, mode, p),
                    args.reps,
                );
                let row = (
                    fmt_s(tp.timing.mean),
                    times(tp.timing.mean / basep.timing.mean),
                    times(t1.timing.mean / tp.timing.mean),
                );
                rows.push(cell_json(label, p, &tp));
                row
            };
            t.row(vec![
                name.clone(),
                label.to_string(),
                fmt_s(t1.timing.mean),
                format!("{:.1}", t1.timing.rsd()),
                times(t1.timing.mean / base1.timing.mean),
                tp_cell,
                ovhp,
                scal,
                String::new(),
            ]);
        }
        bench_objects.push(
            Json::obj()
                .field("bench", name.as_str())
                .field("work", work)
                .field("span", span)
                .field("parallelism", parallelism)
                .field("rows", rows),
        );
    }
    print!("{}", t.render());
    if let Some(path) = &args.json {
        let scale = format!("{:?}", args.scale).to_lowercase();
        let label = args
            .json_label
            .clone()
            .unwrap_or_else(|| format!("{scale}-w{p}"));
        let snap = Json::obj()
            .field("label", label)
            .field("scale", scale)
            .field("workers", p)
            .field("reps", args.reps)
            .field("benches", bench_objects);
        write_snapshot(path, snap);
        eprintln!("wrote snapshot to {path}");
    }
}
