//! Record executions as binary strand-event journals and analyze them
//! offline.
//!
//! ```sh
//! # Record a benchmark's strand-event stream:
//! trace_tool record sw /tmp/sw.journal --scale small
//!
//! # Summarize it: events, the access-path census, the recorded dag:
//! trace_tool analyze /tmp/sw.journal
//!
//! # Replay it into a detector, or into the exact offline oracle:
//! trace_tool detect /tmp/sw.journal --detector sf
//! trace_tool detect /tmp/sw.journal --detector oracle
//! ```
//!
//! `sf`, `f` and `mb` replay the recorded stream through the real
//! detectors, so they scale like live detection. `oracle` replays it into
//! a recorded dag and runs the brute-force oracle on that, so it is exact
//! but quadratic per location — meant for small/medium runs and
//! debugging. Malformed journals produce an error message and a nonzero
//! exit, never a panic.

use std::collections::BTreeSet;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;

use sfrd_core::{
    EngineConfig, FoDetector, MbDetector, RaceReport, RecordingHooks, SfDetector, Workload,
};
use sfrd_runtime::{run_sequential, Batched};
use sfrd_trace::{replay_journal, JournalError, JournalHooks, JournalReader, JournalWriter};
use sfrd_workloads::{make_bench, Scale, BENCH_NAMES};

const USAGE: &str = "usage:\n  trace_tool record <bench> <file> [--scale small|medium|paper]\n  \
     trace_tool analyze <file>\n  \
     trace_tool detect <file> [--detector sf|f|mb|oracle]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_tool: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("detect") => detect(&args[1..]),
        _ => fail("expected a command"),
    }
}

fn record(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return fail("record: missing bench name");
    };
    let Some(path) = args.get(1) else {
        return fail("record: missing output file");
    };
    if !BENCH_NAMES.contains(&name.as_str()) {
        return fail(&format!("unknown bench {name:?}"));
    }
    let mut scale = Scale::Small;
    let mut rest = args[2..].iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--scale" => {
                scale = match rest.next().map(String::as_str) {
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    Some("paper") => Scale::Paper,
                    other => return fail(&format!("bad --scale {other:?}")),
                }
            }
            other => return fail(&format!("record: unknown flag {other:?}")),
        }
    }
    let w = make_bench(name, scale, 0xBE7C);

    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => return fail(&format!("create {path}: {e}")),
    };
    let meta = format!("bench={name} scale={scale:?} seed=0xBE7C");
    let writer = match JournalWriter::new(BufWriter::new(file), &meta) {
        Ok(w) => w,
        Err(e) => return fail(&format!("write {path}: {e}")),
    };
    let hooks = Batched::new(JournalHooks::new(writer));
    run_sequential(&hooks, |ctx| w.run(ctx));
    assert!(
        w.verify_ok(),
        "workload failed verification while recording"
    );
    let stats = hooks.stats();
    match hooks.into_inner().finish_owned().and_then(|b| {
        b.into_inner()
            .map_err(|e| e.into_error())
            .and_then(|mut f| std::io::Write::flush(&mut f).map(|()| f))
    }) {
        Ok(_) => {}
        Err(e) => return fail(&format!("write {path}: {e}")),
    }
    println!(
        "recorded {name} ({scale:?}) journal: {} batch flushes, {} accesses \
         recorded, {} filtered -> {path}",
        stats.flushes, stats.recorded, stats.filtered
    );
    ExitCode::SUCCESS
}

fn exit(path: &str, result: Result<(), JournalError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("analyze: missing file");
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("read {path}: {e}")),
    };
    exit(
        path,
        analyze_journal(&bytes).and_then(|()| oracle_report(&bytes)),
    )
}

/// Journal summary: header metadata plus a full decode pass (which also
/// proves the stream is well formed).
fn analyze_journal(bytes: &[u8]) -> Result<(), JournalError> {
    let mut reader = JournalReader::new(bytes)?;
    println!(
        "binary strand-event journal; metadata: {:?}",
        reader.metadata()
    );
    let mut events = 0u64;
    let mut batches = 0u64;
    let mut accesses = 0u64;
    let mut strands = 1u64; // root
    while let Some(ev) = reader.next_event()? {
        events += 1;
        match ev {
            sfrd_trace::JEvent::Spawn { .. } | sfrd_trace::JEvent::Create { .. } => strands += 1,
            sfrd_trace::JEvent::Accesses { entries, .. } => {
                batches += 1;
                accesses += entries.len() as u64;
            }
            _ => {}
        }
    }
    println!("{events} events: {strands} strands, {batches} access batches, {accesses} accesses");
    // Where those accesses would go: replay once through SF-Order with
    // every default and show the access-path census.
    let cfg = EngineConfig::default();
    let mut om_rewrites = (0, 0, 0.0);
    let report = replay_report(bytes, SfDetector::from_config(&cfg), |d| {
        om_rewrites = sfrd_bench::om_rewrites_per_insert(d.engine().sp_order());
        d.report()
    })?;
    println!("SF-Order replay: {}", access_path_census(&report));
    let (rewritten, inserted, per_insert) = om_rewrites;
    let m = &report.metrics;
    println!(
        "order maintenance: om_fast_inserts {}, om_group_locks {}, om_global_escalations {}, \
         om_query_retries {}, relabeled_slots / inserts {rewritten} / {inserted} = {per_insert:.3}",
        m.om_fast_inserts, m.om_group_locks, m.om_global_escalations, m.om_query_retries,
    );
    println!("replayable with: trace_tool detect <file> [--detector sf|f|mb|oracle]");
    Ok(())
}

/// `reads`, `writes`, how many of them the batch filter admitted to the
/// shadow, and how many of those it answered from a validated snapshot
/// without entering a slot's write section.
fn access_path_census(report: &RaceReport) -> String {
    let (reads, writes) = (report.counts.reads, report.counts.writes);
    let admitted = report.metrics.batched_accesses;
    let hits = report.metrics.shadow_fast_hits;
    format!(
        "{reads} reads, {writes} writes, {admitted} admitted, {hits} shadow_fast_hits \
         ({:.1}% of admitted), {} reachability queries",
        hits as f64 * 100.0 / admitted.max(1) as f64,
        report.counts.queries,
    )
}

/// The oracle is one more replay target: replay into a recorded dag,
/// then the dag's shape, work/span, the structured-future validator and
/// the exact race set. The log holds what the recording's batch filter
/// admitted; the repeats it combined away count as work only.
fn oracle_report(bytes: &[u8]) -> Result<(), JournalError> {
    let mut reader = JournalReader::new(bytes)?;
    let hooks = RecordingHooks::new();
    replay_journal(&mut reader, &hooks)?;
    let recorded = RecordingHooks::finish(Arc::new(hooks));
    let (work, span) = recorded.dag.work_span();
    println!(
        "recorded dag: {} nodes, {} futures, {} edges, {} logged accesses",
        recorded.dag.node_count(),
        recorded.dag.future_count(),
        recorded.dag.edge_count(),
        recorded.log.len()
    );
    println!(
        "work = {work}, span = {span}, parallelism = {:.2}",
        work as f64 / span.max(1) as f64
    );
    match recorded.validate() {
        Ok(()) => println!("structured-future restrictions: OK"),
        Err(e) => println!("STRUCTURE VIOLATION: {e}"),
    }
    let races = recorded.races();
    if races.is_empty() {
        println!("races: none");
    } else {
        println!("races: {} pairs on {} locations", races.len(), {
            let addrs: BTreeSet<u64> = races.iter().map(|r| r.addr).collect();
            addrs.len()
        });
        for r in races.iter().take(10) {
            println!("  addr {:#x}: {} || {}", r.addr, r.a, r.b);
        }
        if races.len() > 10 {
            println!("  ... ({} more)", races.len() - 10);
        }
    }
    Ok(())
}

fn detect(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("detect: missing file");
    };
    let mut detector = "sf".to_string();
    let mut rest = args[1..].iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--detector" => {
                detector = match rest.next() {
                    Some(d) => d,
                    None => return fail("missing value for --detector"),
                }
            }
            flag => return fail(&format!("detect: unknown flag {flag:?}")),
        }
    }
    let cfg = EngineConfig::default();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("read {path}: {e}")),
    };
    let report = match detector.as_str() {
        "sf" | "sf-order" => replay_report(&bytes, SfDetector::from_config(&cfg), |d| d.report()),
        "f" | "f-order" => replay_report(&bytes, FoDetector::from_config(&cfg), |d| d.report()),
        "mb" | "multibags" => replay_report(&bytes, MbDetector::from_config(&cfg), |d| d.report()),
        "oracle" => return exit(path, oracle_report(&bytes)),
        other => return fail(&format!("bad --detector {other:?} (sf|f|mb|oracle)")),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    println!(
        "races: {} on {} locations ({} futures replayed)",
        report.total_races,
        report.racy_addrs.len(),
        report.counts.futures,
    );
    println!("access path: {}", access_path_census(&report));
    for addr in report.racy_addrs.iter().take(10) {
        println!("  racy addr {addr:#x}");
    }
    if report.racy_addrs.len() > 10 {
        println!("  ... ({} more)", report.racy_addrs.len() - 10);
    }
    ExitCode::SUCCESS
}

fn replay_report<H, F>(bytes: &[u8], det: H, report: F) -> Result<RaceReport, JournalError>
where
    H: sfrd_runtime::TaskHooks,
    F: FnOnce(&H) -> RaceReport,
{
    let mut reader = JournalReader::new(bytes)?;
    let stats = replay_journal(&mut reader, &det)?;
    let mut report = report(&det);
    // The batch layer's counts travel in the journal, as `drive` merges
    // them from the live `Batched` wrapper.
    report.metrics.batch_flushes = stats.flushes;
    report.metrics.batched_accesses = stats.accesses;
    report.metrics.filtered_accesses = stats.filtered;
    Ok(report)
}
