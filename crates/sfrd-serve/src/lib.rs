//! `sfrd-serve`: a multi-session determinacy-race detection server over
//! binary strand-event journals.
//!
//! One framed TCP connection carries one detection session. The client
//! opens with a `DETECT sf|f|mb\n` handshake line, then streams a
//! [`sfrd-trace`](sfrd_trace) journal verbatim — header and
//! length-prefixed frames. The server replays the strand-event stream
//! into a private per-session detector and answers with a single
//! `OK ...`/`ERR ...` line carrying the session's race verdict.
//!
//! Concurrency model (no async, no new dependencies):
//!
//! - a **thread-per-connection reader** parses the handshake and frames
//!   off the socket, pushing complete frame payloads into the session's
//!   **bounded ingestion queue**;
//! - a **shared worker pool** built on the in-crate Chase-Lev deques
//!   drains sessions, decodes frames, and feeds the per-session engine;
//! - when a queue is full, the *connection reader* blocks (explicit
//!   backpressure counted in `backpressure_stalls`) — a slow consumer
//!   stalls only its own connection, never a pool worker.
//!
//! Counters (`sessions_open`, `frames_in`, `bytes_in`,
//! `backpressure_stalls`): each response embeds the session's own, and
//! [`ServerMetrics`] keeps the server-wide totals.

#![warn(missing_docs)]

mod metrics;
mod pool;
mod server;
mod session;

pub use metrics::{MetricsView, ServerMetrics};
pub use server::{submit_journal, Server, ServerConfig};
pub use session::SessionDetector;
