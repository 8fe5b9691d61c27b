//! Server-wide ingestion counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared by every connection and worker. Each session's
/// `OK` response line carries its own ingestion counters.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    pub(crate) sessions_open: AtomicU64,
    pub(crate) sessions_total: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) backpressure_stalls: AtomicU64,
}

/// Point-in-time snapshot of [`ServerMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsView {
    /// Sessions currently open (handshake done, response not yet sent).
    pub sessions_open: u64,
    /// Sessions ever opened.
    pub sessions_total: u64,
    /// Journal frames ingested across all sessions.
    pub frames_in: u64,
    /// Journal bytes ingested across all sessions (headers + frames).
    pub bytes_in: u64,
    /// Times a connection reader blocked on its session's full ingestion
    /// queue. Nonzero means backpressure engaged: the slow consumer
    /// stalled its own connection, never the worker pool.
    pub backpressure_stalls: u64,
}

impl ServerMetrics {
    /// Snapshot the counters.
    pub fn view(&self) -> MetricsView {
        MetricsView {
            sessions_open: self.sessions_open.load(Ordering::Relaxed),
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }
}
