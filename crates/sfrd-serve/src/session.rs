//! One detection session: a journal replayed into a private detector, and
//! the verdict line it answers with.

use std::io::Read;

use sfrd_core::{
    EngineConfig, EventSink, FoDetector, MbDetector, RaceReport, ReachEngine, SfDetector,
};
use sfrd_trace::{replay_journal, JournalError, JournalReader, ReplayStats};

/// Which detector a session runs — the handshake's `DETECT <kind>` token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionDetector {
    /// SF-Order (`sf`).
    SfOrder,
    /// F-Order (`f`).
    FOrder,
    /// MultiBags (`mb`). Replay runs every journal in serial elision, the
    /// one order MultiBags is sound in, so a pool recording gets the same
    /// verdict as from SF-Order.
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

/// Replay the rest of `journal` into a fresh detector of `kind`.
pub(crate) fn replay<R: Read>(
    kind: SessionDetector,
    cfg: &EngineConfig,
    journal: &mut JournalReader<R>,
) -> Result<(RaceReport, ReplayStats), JournalError> {
    fn run<R: Read, E: ReachEngine>(
        det: EventSink<E>,
        journal: &mut JournalReader<R>,
    ) -> Result<(RaceReport, ReplayStats), JournalError> {
        let stats = replay_journal(journal, &det)?;
        Ok((det.report(), stats))
    }
    match kind {
        SessionDetector::SfOrder => run(SfDetector::from_config(cfg), journal),
        SessionDetector::FOrder => run(FoDetector::from_config(cfg), journal),
        SessionDetector::MultiBags => run(MbDetector::from_config(cfg), journal),
    }
}

/// The one-line wire rendering of a session's verdict and counters.
pub(crate) fn ok_line(report: &RaceReport, stats: &ReplayStats, bytes: u64, open: u64) -> String {
    let addrs = report
        .racy_addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "OK total={} distinct={} addrs={} reads={} writes={} futures={} events={} \
         bytes={bytes} open={open}\n",
        report.total_races,
        report.racy_addrs.len(),
        addrs,
        report.counts.reads,
        report.counts.writes,
        report.counts.futures,
        stats.events,
    )
}
