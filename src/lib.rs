//! # sfrd — determinacy race detection for structured futures
//!
//! Facade crate re-exporting the whole SF-Order reproduction workspace:
//!
//! * [`core`] ([`sfrd_core`]) — the race detectors ([`core::SfDetector`],
//!   [`core::FoDetector`], [`core::MbDetector`]) and the instrumented
//!   shared-data wrappers used by programs under test.
//! * [`runtime`] ([`sfrd_runtime`]) — the work-stealing and sequential
//!   task-parallel runtimes (spawn/sync + create/get).
//! * [`reach`] ([`sfrd_reach`]) — the reachability engines.
//! * [`shadow`] ([`sfrd_shadow`]) — the access-history shadow memory.
//! * [`dag`] ([`sfrd_dag`]) — the computation-dag model, the offline
//!   reachability oracle, and random structured-future program generators.
//! * [`om`] ([`sfrd_om`]) — the order-maintenance structure.
//! * [`workloads`] ([`sfrd_workloads`]) — the paper's five benchmarks.
//! * [`trace`] ([`sfrd_trace`]) — the versioned binary strand-event
//!   journal: record a run once, replay it into any detector later (or
//!   ship it to the `sfrd-serve` detection server).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use sfrd_core as core;
pub use sfrd_dag as dag;
pub use sfrd_om as om;
pub use sfrd_reach as reach;
pub use sfrd_runtime as runtime;
pub use sfrd_shadow as shadow;
pub use sfrd_trace as trace;
pub use sfrd_workloads as workloads;

/// Convenience prelude: the names most programs under test need.
///
/// Configuration enters through two types only: [`DriveConfig`]
/// ([`DriveConfig::with`], then [`DriveConfig::policy`]) for end-to-end
/// runs, and [`EngineConfig`] for constructing a detector directly — each
/// detector's one constructor is `from_config(&EngineConfig)`.
pub mod prelude {
    pub use sfrd_core::{
        drive, DetectorKind, DriveConfig, EngineConfig, FutureHandle, Mode, RaceReport, ReachOnly,
        ShadowArray, ShadowCell, ShadowMatrix, Workload,
    };
    pub use sfrd_runtime::Cx;
    pub use sfrd_shadow::ReaderPolicy;
    pub use sfrd_trace::{
        replay_journal, JournalError, JournalHooks, JournalReader, JournalWriter,
    };
}
