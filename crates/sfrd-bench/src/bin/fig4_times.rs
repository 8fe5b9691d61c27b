//! Regenerates **Figure 4**: execution times of the baseline (no
//! detection) and of MultiBags, F-Order and SF-Order under the `reach`
//! and `full` configurations, on one worker (`T1`) and on `P` workers
//! (`TP`), with overhead (vs base `T1`/`TP`) and scalability (`T1/TP`)
//! annotations. `--reps N` averages N runs per cell (the paper uses 5).
//! One extra row, `SF-Order/full (LR)`, times the §3.5 per-future
//! leftmost/rightmost reader policy against the keep-all-readers default.
//!
//! On a core-starved machine, wall-clock `TP` cannot beat `T1`; the
//! harness therefore also prints the recorded dag's parallelism
//! (`T1/T∞`, the greedy-scheduler headroom), which is schedule- and
//! machine-independent. EXPERIMENTS.md discusses the mapping to the
//! paper's 20-core numbers.

use sfrd_bench::{fig4_grid, run_bench_cell, times, work_span, HarnessArgs, Table};
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
    for name in &args.benches {
        let (work, span) = work_span(name, args.scale);
        let parallelism = work as f64 / span.max(1) as f64;

        let base1 = run_bench_cell(name, args.scale, DriveConfig::base(1), args.reps);
        let basep = run_bench_cell(name, args.scale, DriveConfig::base(p), args.reps);
        t.row(vec![
            name.clone(),
            "base".into(),
            fmt_s(base1.mean),
            format!("{:.1}", base1.rsd()),
            "1.00x".into(),
            fmt_s(basep.mean),
            "1.00x".into(),
            times(base1.mean / basep.mean),
            format!("{parallelism:.1}"),
        ]);

        for ((label, cfg1), (_, cfgp)) in fig4_grid(1).into_iter().zip(fig4_grid(p)) {
            let t1 = run_bench_cell(name, args.scale, cfg1, args.reps);
            let (tp_cell, ovhp, scal) = if cfg1.detector == DetectorKind::MultiBags {
                // Sequential-only: no parallel column.
                ("-".to_string(), "-".to_string(), "-".to_string())
            } else {
                let tp = run_bench_cell(name, args.scale, cfgp, args.reps);
                (
                    fmt_s(tp.mean),
                    times(tp.mean / basep.mean),
                    times(t1.mean / tp.mean),
                )
            };
            t.row(vec![
                name.clone(),
                label.to_string(),
                fmt_s(t1.mean),
                format!("{:.1}", t1.rsd()),
                times(t1.mean / base1.mean),
                tp_cell,
                ovhp,
                scal,
                String::new(),
            ]);
        }
    }
    print!("{}", t.render());
}
