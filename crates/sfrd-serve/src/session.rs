//! One detection session: a bounded ingestion queue feeding a per-session
//! detector through the incremental journal replayer.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use sfrd_core::{EngineConfig, FoDetector, MbDetector, RaceReport, SfDetector};
use sfrd_trace::{DecodedFrame, EventDecoder, JEvent, JournalError, ReplayStats, Replayer};

use crate::metrics::ServerMetrics;
use crate::pool::Pool;

/// Which detector a session runs — the handshake's `DETECT <kind>` token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionDetector {
    /// SF-Order (`sf`).
    SfOrder,
    /// F-Order (`f`).
    FOrder,
    /// MultiBags (`mb`; the journal must have been recorded on the
    /// sequential runtime).
    MultiBags,
}

impl SessionDetector {
    /// Parse a handshake token.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sf" | "sf-order" => Some(Self::SfOrder),
            "f" | "f-order" => Some(Self::FOrder),
            "mb" | "multibags" => Some(Self::MultiBags),
            _ => None,
        }
    }

    /// Canonical handshake token.
    pub fn label(self) -> &'static str {
        match self {
            Self::SfOrder => "sf",
            Self::FOrder => "f",
            Self::MultiBags => "mb",
        }
    }
}

/// The per-session detector plus its replay state.
enum Engine {
    Sf(SfDetector, Replayer<SfDetector>),
    Fo(FoDetector, Replayer<FoDetector>),
    Mb(MbDetector, Replayer<MbDetector>),
}

impl Engine {
    fn new(kind: SessionDetector, cfg: &EngineConfig) -> Self {
        match kind {
            SessionDetector::SfOrder => {
                let det = SfDetector::from_config(cfg);
                let rp = Replayer::new(&det);
                Engine::Sf(det, rp)
            }
            SessionDetector::FOrder => {
                let det = FoDetector::from_config(cfg);
                let rp = Replayer::new(&det);
                Engine::Fo(det, rp)
            }
            SessionDetector::MultiBags => {
                let det = MbDetector::from_config(cfg);
                let rp = Replayer::new(&det);
                Engine::Mb(det, rp)
            }
        }
    }

    fn feed(&mut self, ev: &JEvent) -> Result<(), JournalError> {
        match self {
            Engine::Sf(det, rp) => rp.feed(det, ev),
            Engine::Fo(det, rp) => rp.feed(det, ev),
            Engine::Mb(det, rp) => rp.feed(det, ev),
        }
    }

    fn finish(self) -> (RaceReport, ReplayStats) {
        match self {
            Engine::Sf(det, rp) => (det.report(), rp.stats()),
            Engine::Fo(det, rp) => (det.report(), rp.stats()),
            Engine::Mb(det, rp) => (det.report(), rp.stats()),
        }
    }
}

/// Decode/replay state; held only by the worker currently draining the
/// session (the `scheduled` flag serializes claims, the mutex is belt and
/// suspenders).
struct Work {
    dec: EventDecoder,
    engine: Option<Engine>,
}

struct Ingest {
    queue: VecDeque<Vec<u8>>,
    /// Finalized (response ready) — late frames are dropped, a blocked
    /// producer is released.
    finished: bool,
}

/// One connection's detection session. The connection's reader thread
/// pushes raw frame payloads into the bounded queue (blocking — stalling
/// only itself — when full); pool workers drain the queue, decode, and
/// feed the per-session detector; the response is published on the final
/// frame.
pub(crate) struct Session {
    queue_cap: usize,
    ingest: Mutex<Ingest>,
    /// Signaled when the queue shrinks or the session finishes.
    space: Condvar,
    /// In the pool (queue/deque) or being drained right now?
    scheduled: AtomicBool,
    work: Mutex<Work>,
    response: Mutex<Option<String>>,
    response_cv: Condvar,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    stalls: AtomicU64,
    metrics: Arc<ServerMetrics>,
}

impl Session {
    pub(crate) fn new(
        kind: SessionDetector,
        cfg: &EngineConfig,
        queue_cap: usize,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        Self {
            queue_cap: queue_cap.max(1),
            ingest: Mutex::new(Ingest {
                queue: VecDeque::new(),
                finished: false,
            }),
            space: Condvar::new(),
            scheduled: AtomicBool::new(false),
            work: Mutex::new(Work {
                dec: EventDecoder::new(),
                engine: Some(Engine::new(kind, cfg)),
            }),
            response: Mutex::new(None),
            response_cv: Condvar::new(),
            frames_in: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            metrics,
        }
    }

    /// Count header bytes against this session's ingestion totals.
    pub(crate) fn count_header(&self, bytes: u64) {
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        ServerMetrics::add(&self.metrics.bytes_in, bytes);
    }

    /// Enqueue one frame payload off the wire, blocking while the queue
    /// is full — backpressure lands on this connection alone; the worker
    /// pool never waits. Returns `false` once the session has finalized
    /// (late frames are dropped; the caller should stop reading and fetch
    /// the response).
    pub(crate) fn push_frame(self: &Arc<Self>, payload: Vec<u8>, pool: &Pool) -> bool {
        let bytes = payload.len() as u64 + 4; // length prefix included
        {
            let mut g = self.ingest.lock();
            while g.queue.len() >= self.queue_cap && !g.finished {
                self.stalls.fetch_add(1, Ordering::Relaxed);
                ServerMetrics::add(&self.metrics.backpressure_stalls, 1);
                self.space.wait(&mut g);
            }
            if g.finished {
                return false;
            }
            g.queue.push_back(payload);
        }
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        ServerMetrics::add(&self.metrics.frames_in, 1);
        ServerMetrics::add(&self.metrics.bytes_in, bytes);
        if !self.scheduled.swap(true, Ordering::AcqRel) {
            pool.submit(Arc::clone(self));
        }
        true
    }

    /// Connection died mid-stream: release any state and unblock nobody
    /// in particular (the producer *is* the caller).
    pub(crate) fn abort(&self) {
        let mut g = self.ingest.lock();
        g.finished = true;
        g.queue.clear();
    }

    /// Block until a worker publishes the response line.
    pub(crate) fn wait_response(&self) -> String {
        let mut g = self.response.lock();
        loop {
            if let Some(r) = g.as_ref() {
                return r.clone();
            }
            self.response_cv.wait(&mut g);
        }
    }

    /// Drain queued frames into the detector. Runs on a pool worker; never
    /// blocks on ingestion — when the queue is empty the claim is released
    /// (with the standard lost-wakeup recheck), and when frames are still
    /// arriving the reclaimed session goes back on the worker's own deque
    /// so siblings can steal it.
    pub(crate) fn drain(self: &Arc<Self>, local: &sfrd_runtime::chase_lev::Worker<Arc<Session>>) {
        let mut work = self.work.lock();
        loop {
            let payload = {
                let mut g = self.ingest.lock();
                let p = g.queue.pop_front();
                if p.is_some() {
                    self.space.notify_one();
                }
                p
            };
            let Some(payload) = payload else {
                self.scheduled.store(false, Ordering::Release);
                let refilled = !self.ingest.lock().queue.is_empty();
                if refilled && !self.scheduled.swap(true, Ordering::AcqRel) {
                    // Reclaimed: queue for another pass rather than
                    // monopolizing this worker.
                    local.push(Arc::clone(self));
                }
                return;
            };
            if work.engine.is_none() {
                continue; // already finalized; drop late frames
            }
            let step = catch_unwind(AssertUnwindSafe(|| Self::step(&mut work, &payload)));
            match step {
                Ok(Ok(None)) => {}
                Ok(Ok(Some((report, stats)))) => self.finalize(Ok((report, stats))),
                Ok(Err(e)) => {
                    work.engine = None;
                    self.finalize(Err(e.to_string()));
                }
                Err(_) => {
                    work.engine = None;
                    self.finalize(Err("detector panicked during replay".into()));
                }
            }
        }
    }

    /// Decode one frame and feed its events; `Some` on the end marker.
    fn step(
        work: &mut Work,
        payload: &[u8],
    ) -> Result<Option<(RaceReport, ReplayStats)>, JournalError> {
        match work.dec.decode_frame(payload)? {
            DecodedFrame::Events(events) => {
                let engine = work.engine.as_mut().expect("caller checked");
                for ev in &events {
                    engine.feed(ev)?;
                }
                Ok(None)
            }
            DecodedFrame::End => {
                let engine = work.engine.take().expect("caller checked");
                Ok(Some(engine.finish()))
            }
        }
    }

    /// Publish the response and release a blocked producer.
    fn finalize(&self, outcome: Result<(RaceReport, ReplayStats), String>) {
        let text = match outcome {
            Ok((report, stats)) => self.format_report(&report, &stats),
            Err(e) => format!("ERR {e}\n"),
        };
        {
            let mut g = self.ingest.lock();
            g.finished = true;
            g.queue.clear();
            self.space.notify_one();
        }
        let mut r = self.response.lock();
        *r = Some(text);
        self.response_cv.notify_one();
    }

    /// The one-line wire rendering of this session's [`RaceReport`] and
    /// ingestion counters.
    fn format_report(&self, report: &RaceReport, stats: &ReplayStats) -> String {
        let addrs = report
            .racy_addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "OK total={} distinct={} addrs={} reads={} writes={} futures={} events={} \
             frames={} bytes={} stalls={} open={}\n",
            report.total_races,
            report.racy_addrs.len(),
            addrs,
            report.counts.reads,
            report.counts.writes,
            report.counts.futures,
            stats.events,
            self.frames_in.load(Ordering::Relaxed),
            self.bytes_in.load(Ordering::Relaxed),
            self.stalls.load(Ordering::Relaxed),
            self.metrics.sessions_open.load(Ordering::Relaxed),
        )
    }
}
