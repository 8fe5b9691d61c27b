//! The blocking-socket front end: accept loop, handshake, the session's
//! replay on its connection's thread, response, drain.

use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sfrd_core::EngineConfig;
use sfrd_trace::JournalReader;

use crate::metrics::{MetricsView, ServerMetrics};
use crate::session::{self, SessionDetector};

/// Server knobs. `#[non_exhaustive]`: construct via `Default` and adjust
/// fields, like every other config in this workspace.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Read by nothing: each session replays on its own connection's
    /// thread. Kept so callers that set it still build.
    pub workers: usize,
    /// Backend knobs for every per-session detector.
    pub engine: EngineConfig,
}

/// A running detection server. One TCP connection = one session = one
/// thread = one private detector.
pub struct Server {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving in background threads.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sfrd-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let metrics = Arc::clone(&metrics);
                        // Detached: a session lasts as long as its client
                        // keeps sending, and `shutdown` does not wait on
                        // clients.
                        let _ = std::thread::Builder::new()
                            .name("sfrd-serve-conn".into())
                            .spawn(move || handle_conn(stream, &cfg.engine, &metrics));
                    }
                })?
        };
        Ok(Self {
            addr,
            metrics,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the server-wide counters.
    pub fn metrics(&self) -> MetricsView {
        self.metrics.view()
    }

    /// Stop accepting and join the accept thread. In-flight sessions
    /// finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// A connection's input, counted into the session's and the server's
/// `bytes_in` as it is read.
struct Counted<'a> {
    stream: &'a TcpStream,
    bytes: &'a Cell<u64>,
    metrics: &'a ServerMetrics,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        self.metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Most input a connection's thread reads and discards after answering.
const DRAIN_CAP: u64 = 64 << 20;

/// How long the drain waits for each read before it gives up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

fn handle_conn(stream: TcpStream, engine: &EngineConfig, metrics: &ServerMetrics) {
    let response = run_session(&stream, engine, metrics).unwrap_or_else(|e| format!("ERR {e}\n"));
    let _ = (&stream).write_all(response.as_bytes());
    // A socket closed with input unread sends a reset, which can destroy
    // the response before the client reads it: a rejected journal's
    // sender would see "connection reset" instead of the `ERR` line. So
    // end the response with a FIN, and read what the client still sends
    // until it closes, stalls or passes the cap.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
    let _ = io::copy(&mut (&stream).take(DRAIN_CAP), &mut io::sink());
}

/// Drive one connection end to end and return its `OK` line; `Err` is
/// rendered as an `ERR` line by the caller.
fn run_session(
    stream: &TcpStream,
    engine: &EngineConfig,
    metrics: &ServerMetrics,
) -> Result<String, String> {
    let bytes = Cell::new(0);
    let mut input = BufReader::new(Counted {
        stream,
        bytes: &bytes,
        metrics,
    });
    let kind = read_handshake(&mut input)?;
    let mut journal = JournalReader::new(input).map_err(|e| e.to_string())?;

    metrics.sessions_open.fetch_add(1, Ordering::Relaxed);
    metrics.sessions_total.fetch_add(1, Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session::replay(kind, engine, &mut journal)
    }));
    // The count before the decrement still includes this session.
    let open = metrics.sessions_open.fetch_sub(1, Ordering::Relaxed);
    let (report, stats) = outcome
        .map_err(|_| "detector panicked during replay".to_string())?
        .map_err(|e| e.to_string())?;
    Ok(session::ok_line(&report, &stats, bytes.get(), open))
}

/// Read the `DETECT <kind>\n` line (bounded; CRLF tolerated).
fn read_handshake<R: BufRead>(reader: &mut R) -> Result<SessionDetector, String> {
    let mut line = Vec::new();
    for _ in 0..64 {
        let mut b = [0u8; 1];
        reader
            .read_exact(&mut b)
            .map_err(|_| "connection closed during handshake".to_string())?;
        if b[0] == b'\n' {
            let text = std::str::from_utf8(&line).map_err(|_| "handshake not UTF-8".to_string())?;
            let token = text
                .trim_end_matches('\r')
                .strip_prefix("DETECT ")
                .ok_or_else(|| format!("bad handshake {text:?} (want \"DETECT sf|f|mb\")"))?;
            return SessionDetector::parse(token.trim())
                .ok_or_else(|| format!("unknown detector {token:?} (want sf, f, or mb)"));
        }
        line.push(b[0]);
    }
    Err("handshake line too long".into())
}

/// Client half of the wire protocol: submit one journal for detection and
/// return the response line. Blocks until the server has replayed the
/// whole journal.
pub fn submit_journal(
    addr: &SocketAddr,
    detector: SessionDetector,
    journal: &[u8],
) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("DETECT {}\n", detector.label()).as_bytes())?;
    stream.write_all(journal)?;
    stream.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}
