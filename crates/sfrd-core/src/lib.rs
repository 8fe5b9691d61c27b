//! # sfrd-core — on-the-fly determinacy race detectors for structured futures
//!
//! The user-facing crate of the SF-Order reproduction. It couples the
//! reachability engines (`sfrd-reach`) with the access history
//! (`sfrd-shadow`) into three ready-to-run detectors, pluggable into the
//! runtimes (`sfrd-runtime`) as [hooks](sfrd_runtime::TaskHooks):
//!
//! * [`SfDetector`] — **SF-Order**, the paper's parallel detector for
//!   structured futures;
//! * [`FoDetector`] — **F-Order**, the parallel general-futures baseline;
//! * [`MbDetector`] — **MultiBags**, the sequential structured-futures
//!   baseline.
//!
//! Programs under test express parallelism through [`Cx`]
//! (`spawn`/`sync`/`create`/`get`) and shared memory through
//! [`ShadowArray`]/[`ShadowCell`]/[`ShadowMatrix`]. The [`drive`] helper
//! runs a [`Workload`] under any Fig. 4 configuration and returns timing
//! plus a [`RaceReport`].
//!
//! ```
//! use sfrd_core::{drive, DetectorKind, DriveConfig, Mode, ShadowArray, Workload};
//! use sfrd_runtime::Cx;
//!
//! struct Example {
//!     data: ShadowArray<u64>,
//! }
//!
//! impl Workload for Example {
//!     fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
//!         // Future and continuation write the same slot: a determinacy race.
//!         let h = ctx.create(move |c| self.data.write(c, 0, 1));
//!         self.data.write(ctx, 0, 2);
//!         ctx.get(h);
//!     }
//! }
//!
//! let w = Example { data: ShadowArray::new(1) };
//! let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 2));
//! assert!(out.report.unwrap().total_races > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod detectors;
pub mod driver;
pub mod events;
pub mod generator;
pub mod recording;
pub mod report;
pub mod shared;

pub use config::EngineConfig;
pub use detectors::{FoDetector, MbDetector, Mode, ReachOnly, SfDetector};
pub use driver::{drive, DetectorKind, DriveConfig, Outcome, Workload};
pub use events::{EventSink, ReachEngine};
pub use generator::GenWorkload;
pub use recording::RecordingHooks;
pub use report::{CountsSnapshot, MetricsSnapshot, Race, RaceCollector, RaceKind, RaceReport};
pub use shared::{ShadowArray, ShadowCell, ShadowMatrix, Word};

// Re-exports so downstream users need only this crate.
pub use sfrd_reach::SetStatsSnapshot;
pub use sfrd_runtime::{BatchStats, Batched, Cx, FutureHandle, NullHooks, Runtime, TaskHooks};
pub use sfrd_shadow::ReaderPolicy;
