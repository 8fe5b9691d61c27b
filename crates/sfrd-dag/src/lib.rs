//! # sfrd-dag — the computation-dag model for SF-Order
//!
//! Everything the SF-Order reproduction needs to *talk about* executions:
//!
//! * [`graph::Dag`] — explicit SF-dags and pseudo-SP-dags ([`Dag::psp`]),
//!   work/span accounting, and the structured-future validator;
//! * [`oracle`] — exact offline reachability and determinacy-race oracles
//!   (the ground truth for all property tests);
//! * [`recorder::Recorder`] — builds the executed dag on the fly from the
//!   same events the runtime hooks deliver;
//! * [`generator`] — random structured-future programs (run and recorded
//!   through `sfrd-core`'s `GenWorkload` and `RecordingHooks`).
//!
//! Terminology follows §2–3 of the paper: an **SF-dag** is a set of
//! series-parallel dags (one per future task) connected by non-SP `create`
//! and `get` edges; the **pseudo-SP-dag** `PSP(D)` converts creates to
//! spawns, drops gets, and joins each created future at the next sync of
//! the creating task (the task-end implicit sync if none follows).
//!
//! [`Dag::psp`]: graph::Dag::psp
//!
//! ```
//! use sfrd_dag::{Recorder, racy_addrs};
//!
//! // Record: root creates a future that writes x, then writes x itself
//! // without ever getting the future — a determinacy race.
//! let (rec, mut root) = Recorder::new();
//! let mut fut = rec.create(&mut root);
//! rec.access(&fut, 0x10, true);
//! rec.task_end(&mut fut);
//! rec.access(&root, 0x10, true);
//! rec.task_end(&mut root);
//!
//! let prog = rec.finish();
//! prog.validate().unwrap();                      // structured use
//! assert_eq!(prog.races().len(), 1);             // exact oracle
//! assert!(racy_addrs(&prog.dag, &prog.log).contains(&0x10));
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod graph;
pub mod ids;
pub mod oracle;
pub mod paths;
pub mod recorder;

pub use graph::{Dag, EdgeKind, NodeInfo, NodeKind, StructureError};
pub use ids::{FutureId, NodeId};
pub use oracle::{race_oracle, racy_addrs, Access, RacePair, ReachOracle};
pub use paths::{canonical_path, is_canonical};
pub use recorder::{RecStrand, RecordedProgram, Recorder};
