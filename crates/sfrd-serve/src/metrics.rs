//! Server-wide session counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared by every connection. Each session's `OK` response
/// line carries its own byte count.
#[derive(Debug, Default)]
pub(crate) struct ServerMetrics {
    pub(crate) sessions_open: AtomicU64,
    pub(crate) sessions_total: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
}

/// Point-in-time snapshot of the server-wide counters
/// ([`Server::metrics`](crate::Server::metrics)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsView {
    /// Sessions currently open (journal header read, verdict not yet
    /// sent).
    pub sessions_open: u64,
    /// Sessions ever opened.
    pub sessions_total: u64,
    /// Bytes read off every connection, handshake lines included.
    pub bytes_in: u64,
}

impl ServerMetrics {
    pub(crate) fn view(&self) -> MetricsView {
        MetricsView {
            sessions_open: self.sessions_open.load(Ordering::Relaxed),
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
        }
    }
}
