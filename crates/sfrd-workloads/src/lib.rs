//! # sfrd-workloads — the paper's five benchmarks
//!
//! Instrumented, self-verifying implementations of the Fig. 3 benchmark
//! suite, each expressed once against [`sfrd_runtime::Cx`] and runnable
//! under every detector/runtime configuration:
//!
//! | name     | kernel                                            | futures shape |
//! |----------|---------------------------------------------------|---------------|
//! | `mm`     | divide-and-conquer matrix multiply                | 6 per internal recursion node |
//! | `sort`   | mergesort, future per left half                   | one per internal node |
//! | `sw`     | cubic Smith-Waterman, blocked wavefront           | one per block |
//! | `hw`     | Heart Wall tracking over synthetic frames         | one per (frame, point) |
//! | `ferret` | 4-stage similarity-search pipeline                | 4 per query |
//!
//! Every workload has `small()` (tests/CI) and `paper()` (full-scale)
//! parameters plus a `verify()` method checking the parallel result
//! against an uninstrumented serial reference. [`AnyBench`] packages the
//! suite for the harness binaries ([`Workload`] has a generic method, so
//! an enum stands in for a trait object).

#![warn(missing_docs)]

pub mod ferret;
pub mod hw;
pub mod mm;
pub mod sort;
pub mod sw;

pub use ferret::{FerretParams, FerretWorkload};
pub use hw::{HwParams, HwWorkload};
pub use mm::{MmParams, MmWorkload};
pub use sort::{SortParams, SortWorkload};
pub use sw::{SwParams, SwWorkload};

use sfrd_core::Workload;
use sfrd_runtime::Cx;

/// The benchmark names, in the paper's Fig. 3 order.
pub const BENCH_NAMES: [&str; 5] = ["mm", "sort", "sw", "hw", "ferret"];

/// Input scale for the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sub-second inputs for CI and tests.
    Small,
    /// A middle ground used by the figure harnesses by default.
    Medium,
    /// The paper's input sizes (minutes to hours on one core).
    Paper,
}

/// Any of the five benchmarks (a closed sum, since [`Workload`] is not
/// dyn-compatible).
pub enum AnyBench {
    /// Matrix multiply.
    Mm(MmWorkload),
    /// Mergesort.
    Sort(SortWorkload),
    /// Smith-Waterman.
    Sw(SwWorkload),
    /// Heart Wall.
    Hw(HwWorkload),
    /// Ferret pipeline.
    Ferret(FerretWorkload),
}

impl Workload for AnyBench {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        match self {
            AnyBench::Mm(w) => w.run(ctx),
            AnyBench::Sort(w) => w.run(ctx),
            AnyBench::Sw(w) => w.run(ctx),
            AnyBench::Hw(w) => w.run(ctx),
            AnyBench::Ferret(w) => w.run(ctx),
        }
    }
}

impl AnyBench {
    /// Benchmark name (Fig. 3 row).
    pub fn name(&self) -> &'static str {
        match self {
            AnyBench::Mm(_) => "mm",
            AnyBench::Sort(_) => "sort",
            AnyBench::Sw(_) => "sw",
            AnyBench::Hw(_) => "hw",
            AnyBench::Ferret(_) => "ferret",
        }
    }

    /// Input description (the `N`/`B` columns of Fig. 3).
    pub fn input_desc(&self) -> String {
        match self {
            AnyBench::Mm(w) => format!("n={} b={}", w.params().n, w.params().base),
            AnyBench::Sort(w) => format!("n={} b={}", w.params().n, w.params().base),
            AnyBench::Sw(w) => format!("n={} b={}", w.params().n, w.params().base),
            AnyBench::Hw(w) => {
                format!("{} frames x {} pts", w.params().frames, w.params().points)
            }
            AnyBench::Ferret(w) => {
                format!("q={} db={}", w.params().queries, w.params().db_entries)
            }
        }
    }

    /// Post-run verification against the serial reference.
    pub fn verify_ok(&self) -> bool {
        match self {
            AnyBench::Mm(w) => w.verify(),
            AnyBench::Sort(w) => w.verify(),
            AnyBench::Sw(w) => w.verify(),
            AnyBench::Hw(w) => w.verify(),
            AnyBench::Ferret(w) => w.verify(),
        }
    }
}

/// Construct a fresh instance of benchmark `name` at `scale`.
/// Panics on an unknown name.
pub fn make_bench(name: &str, scale: Scale, seed: u64) -> AnyBench {
    match (name, scale) {
        ("mm", Scale::Small) => AnyBench::Mm(MmWorkload::new(MmParams::small(), seed)),
        ("mm", Scale::Medium) => AnyBench::Mm(MmWorkload::new(MmParams { n: 256, base: 32 }, seed)),
        ("mm", Scale::Paper) => AnyBench::Mm(MmWorkload::new(MmParams::paper(), seed)),
        ("sort", Scale::Small) => AnyBench::Sort(SortWorkload::new(SortParams::small(), seed)),
        ("sort", Scale::Medium) => AnyBench::Sort(SortWorkload::new(
            SortParams {
                n: 200_000,
                base: 2048,
            },
            seed,
        )),
        ("sort", Scale::Paper) => AnyBench::Sort(SortWorkload::new(SortParams::paper(), seed)),
        ("sw", Scale::Small) => AnyBench::Sw(SwWorkload::new(SwParams::small(), seed)),
        ("sw", Scale::Medium) => AnyBench::Sw(SwWorkload::new(SwParams { n: 512, base: 32 }, seed)),
        ("sw", Scale::Paper) => AnyBench::Sw(SwWorkload::new(SwParams::paper(), seed)),
        ("hw", Scale::Small) => AnyBench::Hw(HwWorkload::new(HwParams::small(), seed)),
        ("hw", Scale::Medium) => AnyBench::Hw(HwWorkload::new(
            HwParams {
                frames: 8,
                points: 96,
                side: 128,
                window: 20,
                templates: 8,
            },
            seed,
        )),
        ("hw", Scale::Paper) => AnyBench::Hw(HwWorkload::new(HwParams::paper(), seed)),
        ("ferret", Scale::Small) => {
            AnyBench::Ferret(FerretWorkload::new(FerretParams::small(), seed))
        }
        ("ferret", Scale::Medium) => AnyBench::Ferret(FerretWorkload::new(
            FerretParams {
                queries: 32,
                width: 128,
                db_entries: 512,
                dim: 32,
            },
            seed,
        )),
        ("ferret", Scale::Paper) => {
            AnyBench::Ferret(FerretWorkload::new(FerretParams::paper(), seed))
        }
        _ => panic!("unknown benchmark {name:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_core::{drive, DetectorKind, DriveConfig, Mode};

    #[test]
    fn registry_builds_and_runs_every_small_bench() {
        for name in BENCH_NAMES {
            let w = make_bench(name, Scale::Small, 1);
            let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 2));
            assert!(w.verify_ok(), "{name} failed verification");
            let rep = out.report.unwrap();
            assert_eq!(rep.total_races, 0, "{name} raced");
            assert!(rep.counts.futures > 0, "{name} used no futures");
            assert!(!w.input_desc().is_empty());
        }
    }
}
