//! `sfrd-serve`: a determinacy-race detection server over binary
//! strand-event journals.
//!
//! One TCP connection carries one detection session. The client opens
//! with a `DETECT sf|f|mb\n` handshake line, then streams a
//! [`sfrd-trace`](sfrd_trace) journal verbatim — header and
//! length-prefixed frames. The connection's own thread replays the stream
//! into a private detector through
//! [`replay_journal`](sfrd_trace::replay_journal), the path `trace_tool
//! detect` takes for a file, and answers with a single `OK ...`/`ERR ...`
//! line carrying the session's race verdict.
//!
//! Concurrency is the operating system's: a thread per connection, no
//! pool, no queue. A session reads its socket only as fast as its
//! detector consumes events, so a slow session backpressures its own
//! client through TCP flow control and nobody else, and holds at most one
//! frame ([`MAX_FRAME_LEN`](sfrd_trace::MAX_FRAME_LEN)) of undecoded
//! input. Events waiting for serial elision to reach their strand are held
//! decoded, 16 B a waiting access and 48 B an event: proportional to the
//! bytes received, and none for a sequential recording.
//!
//! Counters (`sessions_open`, `sessions_total`, `bytes_in`): each response
//! embeds the session's own byte count, and [`Server::metrics`] snapshots
//! the server-wide totals.

#![warn(missing_docs)]

mod metrics;
mod server;
mod session;

pub use metrics::MetricsView;
pub use server::{submit_journal, Server, ServerConfig};
pub use session::SessionDetector;
