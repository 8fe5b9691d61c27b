//! Parent side: run each workload pass in a child process of this binary
//! under a wall-clock deadline, print what it measured, and write the
//! result file.
//!
//! The child announces every operation before it starts (`#plan`) and
//! reports it when it ends (`#done`), so a child that hangs — the pool's
//! known lost wake-up — costs failed operations with names, not a stuck
//! benchmark.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::run::pool_workers;
use crate::spec;

/// What to run.
pub struct Options {
    pub workloads: Vec<String>,
    pub traces: Vec<bool>,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub out: Option<PathBuf>,
    /// Watchdog deadline per pass, in seconds.
    pub deadline: Option<f64>,
}

/// One pass of one workload, as the parent saw it.
#[derive(Default)]
struct PassResult {
    rounds: u64,
    attempted: u64,
    failed: u64,
    timed_out: bool,
    /// Operations announced but never reported, in announcement order.
    unfinished: Vec<String>,
    /// Operations that reported a failure.
    failed_ops: Vec<String>,
    wall_s: f64,
    /// Metric name → `{unit, value, min, max, n[, base]}`.
    metrics: BTreeMap<String, Json>,
}

impl PassResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", Json::Num(self.rounds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("timed_out", Json::Bool(self.timed_out)),
            (
                "unfinished",
                Json::Arr(self.unfinished.iter().map(Json::str).collect()),
            ),
            (
                "failed_ops",
                Json::Arr(self.failed_ops.iter().map(Json::str).collect()),
            ),
            ("wall_s", Json::Num(self.wall_s)),
            ("metrics", Json::Obj(self.metrics.clone())),
        ])
    }
}

/// The default deadline: four times the expected run (the measuring budget
/// plus set-up and checks), kept inside the 180 s a run may take.
fn default_deadline(seconds: u64) -> f64 {
    (4.0 * seconds as f64 + 20.0).min(170.0)
}

/// Run everything `opts` asks for. With exactly one workload and one pass,
/// the last line printed is the contract's result object.
pub fn run(opts: &Options) -> ExitCode {
    let aslr_disabled = disable_aslr();
    let deadline = opts.deadline.unwrap_or(default_deadline(opts.seconds));
    let mut per_workload = BTreeMap::new();
    let mut failed_total = 0;
    let mut last = None;
    for workload in &opts.workloads {
        let mut entry = vec![(
            "params".to_string(),
            spec::params_json(workload, opts.quick).expect("workload was validated"),
        )];
        for &traced in &opts.traces {
            let pass = run_pass(opts, workload, traced, deadline);
            print_pass(opts, workload, traced, &pass);
            failed_total += pass.failed;
            let key = if traced { "traced" } else { "gated" };
            entry.push((key.to_string(), pass.to_json()));
            last = Some(pass);
        }
        per_workload.insert(workload.clone(), Json::obj(entry));
    }

    if let Some(path) = &opts.out {
        let doc = Json::obj([
            ("schema", Json::Num(1.0)),
            ("quick", Json::Bool(opts.quick)),
            ("provenance", provenance(opts, aslr_disabled)),
            ("workloads", Json::Obj(per_workload)),
        ]);
        if let Err(e) = std::fs::write(path, doc.encode_pretty()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if let (1, 1, Some(pass)) = (opts.workloads.len(), opts.traces.len(), &last) {
        let metrics = pass
            .metrics
            .iter()
            .filter_map(|(name, m)| {
                let slim = Json::obj([
                    ("value", m.get("value")?.clone()),
                    ("unit", m.get("unit")?.clone()),
                ]);
                Some((name.clone(), slim))
            })
            .collect();
        let line = Json::obj([
            ("correct", Json::Bool(pass.failed == 0)),
            ("attempted", Json::Num(pass.attempted as f64)),
            ("failed", Json::Num(pass.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", line.encode());
    }
    if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one pass in a child process and collect what it reports.
fn run_pass(opts: &Options, workload: &str, traced: bool, deadline_s: f64) -> PassResult {
    let started = Instant::now();
    let mut result = PassResult::default();
    let mut cmd = Command::new(std::env::current_exe().expect("the running binary has a path"));
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(opts.quick.then_some("--quick"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: cannot start the child process: {e}");
            result.attempted = 1;
            result.failed = 1;
            return result;
        }
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let deadline = started + Duration::from_secs_f64(deadline_s);
    let mut reported = None;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                if let Some(op) = line.strip_prefix("#plan ") {
                    result.unfinished.push(op.to_string());
                } else if let Some(rest) = line.strip_prefix("#done ") {
                    let (op, status) = rest.rsplit_once(' ').unwrap_or((rest, "fail"));
                    if let Some(i) = result.unfinished.iter().position(|u| u == op) {
                        result.unfinished.remove(i);
                    }
                    result.attempted += 1;
                    if status != "ok" {
                        result.failed += 1;
                        result.failed_ops.push(op.to_string());
                    }
                } else if let Some(doc) = line.strip_prefix("#result ") {
                    reported = Json::parse(doc).ok();
                } else {
                    eprintln!("{line}");
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                result.timed_out = true;
                break;
            }
            // The child closed its stdout: it is exiting.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let exited_ok = reap(&mut child, deadline, &mut result.timed_out);
    reader.join().expect("the reader thread does not panic");

    if result.timed_out {
        eprintln!("benchmark: {workload} exceeded its {deadline_s} s deadline and was stopped");
    }
    match reported.filter(|_| exited_ok && !result.timed_out) {
        Some(doc) => {
            result.rounds = doc.get("rounds").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            if let Some(m) = doc.get("metrics").and_then(Json::as_obj) {
                result.metrics = m.clone();
            }
        }
        // No result: every unfinished operation failed, and the pass
        // itself counts as one failed operation if none was left to name.
        None => {
            let lost = (result.unfinished.len() as u64).max(1);
            result.attempted += lost;
            result.failed += lost;
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result
}

/// Wait for the child to exit, stopping it at the deadline. Returns
/// whether it exited by itself with status 0.
fn reap(child: &mut Child, deadline: Instant, timed_out: &mut bool) -> bool {
    loop {
        if *timed_out || Instant::now() >= deadline {
            *timed_out = true;
            // Errors here mean the child is already gone.
            let _ = child.kill();
            let _ = child.wait();
            return false;
        }
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => return false,
        }
    }
}

fn print_pass(opts: &Options, workload: &str, traced: bool, pass: &PassResult) {
    let params = spec::params_json(workload, opts.quick).map_or(String::new(), |p| p.encode());
    println!(
        "== {workload} {params} seed={} P={} pass={} rounds={} wall={:.1}s{}",
        opts.seed,
        pool_workers(),
        if traced { "traced" } else { "gated" },
        pass.rounds,
        pass.wall_s,
        if opts.quick { " QUICK" } else { "" },
    );
    for (name, m) in &pass.metrics {
        let num = |k| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
        let mut line = format!("  {name:<36} {:>14.6} {unit:<6}", num("value"));
        if num("n") > 1.0 {
            line += &format!(" [{:.6} .. {:.6}] n={}", num("min"), num("max"), num("n"));
        }
        if let Some(base) = m.get("base").and_then(Json::as_str) {
            line += &format!(" (base: {base})");
        }
        println!("{}", line.trim_end());
    }
    println!(
        "  checks: {} attempted, {} failed (check_fail_share {}); medians of n samples, no tail percentile at these n",
        pass.attempted,
        pass.failed,
        pass.failed as f64 / pass.attempted.max(1) as f64,
    );
    for op in &pass.failed_ops {
        println!("  FAILED {op}");
    }
    for op in &pass.unfinished {
        println!("  UNFINISHED {op}");
    }
}

/// Where the numbers came from.
fn provenance(opts: &Options, aslr_disabled: bool) -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(crate::benchmark_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or("unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("git_commit", Json::Str(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(tool("rustc", &["--version"]))),
        ("cpu_model", Json::Str(cpu_model)),
        ("nproc", Json::Num(nproc as f64)),
        ("workers_p", Json::Num(pool_workers() as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("aslr_disabled", Json::Bool(aslr_disabled)),
    ])
}

/// Turn address-space randomisation off for the children. Shadow addresses
/// are real heap addresses and the batch filter hashes them, so with
/// randomisation on, filter hits — and every count downstream — differ
/// from run to run. Returns whether it worked; the benchmark runs either
/// way.
#[cfg(target_os = "linux")]
fn disable_aslr() -> bool {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    const QUERY: c_ulong = 0xffff_ffff;
    const ADDR_NO_RANDOMIZE: c_ulong = 0x004_0000;
    // SAFETY: personality(2) takes one integer and touches no memory of
    // this process; it changes a flag that only later `exec`s observe.
    unsafe {
        let current = personality(QUERY);
        current >= 0 && personality(current as c_ulong | ADDR_NO_RANDOMIZE) >= 0
    }
}

#[cfg(not(target_os = "linux"))]
fn disable_aslr() -> bool {
    false
}
