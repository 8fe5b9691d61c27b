//! The repo's benchmark: gated end-to-end times on four workloads, and a
//! journal-replay ledger of where a `full` access's nanoseconds go.
//!
//! See `README.md` in this directory for the metric and workload glossary,
//! and `BENCHMARK.json` at the repo root for the names and bounds.

pub mod cli;
pub mod compare;
pub mod futures;
pub mod heap;
pub mod isolate;
pub mod json;
pub mod run;
pub mod runner;
pub mod spec;
pub mod stats;

use std::path::PathBuf;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The benchmark's own directory, as it was when the binary was built.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where trace files go.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}
