//! # sfrd-bench — the evaluation harness (Figures 3, 4, 5)
//!
//! Binaries regenerating the paper's evaluation artifacts:
//!
//! * `fig3_characteristics` — Fig. 3: input sizes and execution counters
//!   (#reads, #writes, #queries, #futures, #nodes) per benchmark;
//! * `fig4_times` — Fig. 4: base/reach/full execution times of MultiBags,
//!   F-Order and SF-Order on 1 and P workers, with overhead and
//!   scalability annotations (plus the dag parallelism `T1/T∞`, which is
//!   the honest scalability signal on core-starved CI boxes);
//! * `fig5_memory` — Fig. 5: reachability-maintenance memory of F-Order
//!   vs SF-Order;
//! * `k_scaling` — the `O(k²)` construction term, order-maintenance
//!   inserts per `k`, and the contended order-maintenance table;
//! * `trace_tool` — record a run as a journal, summarize it, replay it
//!   into a detector or the exact oracle.
//!
//! The three figure binaries take `--scale small|medium|paper`,
//! `--workers N`, `--reps N` and `--bench <name>` (repeatable). Every
//! binary prints tables; the gated measurement is the separate
//! `benchmark/` package.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use sfrd_core::{
    drive, DetectorKind, DriveConfig, Mode, Outcome, ReaderPolicy, RecordingHooks, Workload,
};
use sfrd_runtime::run_sequential;
use sfrd_workloads::{make_bench, AnyBench, Scale, BENCH_NAMES};

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Input scale.
    pub scale: Scale,
    /// Parallel worker count (the paper's `P = 20`).
    pub workers: usize,
    /// Benchmarks to run (Fig. 3 order).
    pub benches: Vec<String>,
    /// Repetitions per timed cell (the paper averages five runs).
    pub reps: usize,
}

impl HarnessArgs {
    /// Parse the process arguments. A bad flag or `--help` prints the
    /// usage line and exits.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|err| usage(&err))
    }

    /// Parse `args`; `Err` carries the message for the usage line (empty
    /// for `--help`).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut scale = Scale::Small;
        let mut workers = default_workers();
        let mut benches: Vec<String> = Vec::new();
        let mut reps = 1usize;
        let mut args = args.into_iter();
        // `--workers` / `--reps`: a count of at least one.
        let count = |flag: &str, v: Option<String>| {
            v.and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .ok_or_else(|| format!("bad {flag}"))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    scale = match args.next().as_deref() {
                        Some("small") => Scale::Small,
                        Some("medium") => Scale::Medium,
                        Some("paper") => Scale::Paper,
                        other => return Err(format!("bad --scale {other:?}")),
                    }
                }
                "--workers" => workers = count("--workers", args.next())?,
                "--bench" => {
                    let name = args.next().ok_or("missing bench name")?;
                    if !BENCH_NAMES.contains(&name.as_str()) {
                        return Err(format!("unknown bench {name:?}"));
                    }
                    benches.push(name);
                }
                "--reps" => reps = count("--reps", args.next())?,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if benches.is_empty() {
            benches = BENCH_NAMES.iter().map(|s| s.to_string()).collect();
        }
        Ok(Self {
            scale,
            workers,
            benches,
            reps,
        })
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--scale small|medium|paper] [--workers N] [--reps N] \
         [--bench mm|sort|sw|hw|ferret]..."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Default `P`: the machine's cores, capped at 8 (the harness is expected
/// to run on shared CI boxes).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
        .max(2)
}

/// Run benchmark `name` fresh under `cfg`, asserting the result verifies.
pub fn run_bench(name: &str, scale: Scale, cfg: DriveConfig) -> (Outcome, AnyBench) {
    let w = make_bench(name, scale, 0xBE7C);
    let out = drive(&w, cfg);
    assert!(
        w.verify_ok(),
        "{name} produced a wrong result under {cfg:?}"
    );
    if let Some(rep) = &out.report {
        assert_eq!(
            rep.total_races, 0,
            "{name} reported races under {cfg:?} — detector bug"
        );
    }
    (out, w)
}

/// Timing statistics over repeated runs.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean seconds.
    pub mean: f64,
    /// Sample standard deviation in seconds (0 for one rep).
    pub sd: f64,
}

impl Timing {
    /// Relative standard deviation, percent.
    pub fn rsd(&self) -> f64 {
        if self.mean > 0.0 {
            self.sd / self.mean * 100.0
        } else {
            0.0
        }
    }
}

/// Run a cell `reps` times; returns mean/sd (each run re-verifies).
pub fn run_bench_cell(name: &str, scale: Scale, cfg: DriveConfig, reps: usize) -> Timing {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| run_bench(name, scale, cfg).0.wall.as_secs_f64())
        .collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (samples.len() - 1) as f64
    } else {
        0.0
    };
    Timing {
        mean,
        sd: var.sqrt(),
    }
}

/// Work and span of the recorded dag (node weights = instrumented
/// accesses), and the derived parallelism `T1/T∞`. This is measured by a
/// sequential recording run, so it is schedule-independent.
pub fn work_span(name: &str, scale: Scale) -> (u64, u64) {
    let hooks = RecordingHooks::new();
    let w = make_bench(name, scale, 0xBE7C);
    run_sequential(&hooks, |ctx| w.run(ctx));
    let recorded = RecordingHooks::finish(Arc::new(hooks));
    recorded.dag.work_span()
}

/// What order maintenance cost an `SpOrder` per item inserted into its two
/// lists: `(keys rewritten, items inserted, their ratio)`. The ratio is the
/// amortized-O(1) insert bound as a number — it must not grow with the
/// list (`k_scaling` asserts that, `trace_tool analyze` prints it).
pub fn om_rewrites_per_insert(sp: &sfrd_reach::SpOrder) -> (u64, u64, f64) {
    let rewritten = sp.om_stats().relabeled_slots;
    // Each list starts with one item; every other position was inserted.
    let inserted = 2 * (sp.positions() as u64 - 1);
    (
        rewritten,
        inserted,
        rewritten as f64 / inserted.max(1) as f64,
    )
}

/// Format a count the way the paper does (`1.72 × 10^10` → `1.72e10`).
pub fn sci(x: u64) -> String {
    if x < 100_000 {
        return x.to_string();
    }
    let mut mant = x as f64;
    let mut exp = 0u32;
    while mant >= 10.0 {
        mant /= 10.0;
        exp += 1;
    }
    format!("{mant:.2}e{exp}")
}

/// Seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// `x.yz×` overhead annotation.
pub fn times(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// A minimal fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        let mut t = Table {
            widths: header.iter().map(|h| h.len()).collect(),
            rows: Vec::new(),
        };
        t.row(header.iter().map(|s| s.to_string()).collect());
        t
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.widths.len());
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Render with column alignment and a rule under the header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:<width$}", width = w))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if i == 0 {
                let rule: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&rule.join("  "));
                out.push('\n');
            }
        }
        out
    }
}

/// The detector/mode grid of Fig. 4 on `workers` workers, in presentation
/// order, plus SF-Order `full` under the §3.5 per-future
/// leftmost/rightmost reader policy (every other row keeps all readers,
/// the paper's shipped history).
pub fn fig4_grid(workers: usize) -> [(&'static str, DriveConfig); 7] {
    let cell = |kind, mode| DriveConfig::with(kind, mode, workers);
    [
        (
            "MultiBags/reach",
            cell(DetectorKind::MultiBags, Mode::Reach),
        ),
        ("MultiBags/full", cell(DetectorKind::MultiBags, Mode::Full)),
        ("F-Order/reach", cell(DetectorKind::FOrder, Mode::Reach)),
        ("F-Order/full", cell(DetectorKind::FOrder, Mode::Full)),
        ("SF-Order/reach", cell(DetectorKind::SfOrder, Mode::Reach)),
        ("SF-Order/full", cell(DetectorKind::SfOrder, Mode::Full)),
        (
            "SF-Order/full (LR)",
            cell(DetectorKind::SfOrder, Mode::Full).policy(ReaderPolicy::PerFutureLR),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0), "0");
        assert_eq!(sci(99_999), "99999");
        assert_eq!(sci(17_200_000_000), "1.72e10");
        assert_eq!(sci(132_000_000), "1.32e8");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["bench", "reads"]);
        t.row(vec!["mm".into(), "1.72e10".into()]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("-----"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn work_span_is_positive_and_parallel() {
        let (work, span) = work_span("sw", Scale::Small);
        assert!(
            work > span,
            "sw must have parallelism: T1={work} Tinf={span}"
        );
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn zero_counts_are_rejected_not_panicked_on() {
        assert_eq!(parse(&["--workers", "0"]).unwrap_err(), "bad --workers");
        assert_eq!(parse(&["--reps", "0"]).unwrap_err(), "bad --reps");
        assert_eq!(parse(&["--workers", "3"]).unwrap().workers, 3);
    }

    #[test]
    fn no_backend_flag_survives() {
        for flag in ["--shadow", "--om"] {
            let err = parse(&[flag, "list", "--bench", "sw"]).unwrap_err();
            assert!(err.contains("unknown flag") && err.contains(flag), "{err}");
        }
        assert_eq!(parse(&["--bench", "sw"]).unwrap().benches, ["sw"]);
    }

    #[test]
    fn snapshot_flags_are_unknown() {
        for flag in ["--json", "--json-label"] {
            let err = parse(&[flag, "x"]).unwrap_err();
            assert!(err.contains("unknown flag") && err.contains(flag), "{err}");
        }
    }

    #[test]
    fn run_bench_smoke() {
        let (out, w) = run_bench("sort", Scale::Small, DriveConfig::base(2));
        assert!(out.report.is_none());
        assert_eq!(w.name(), "sort");
    }
}
