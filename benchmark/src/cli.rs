//! Command line of the `benchmark` binary.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::compare;
use crate::run::Pass;
use crate::runner::{self, Options};
use crate::spec::{self, WORKLOADS};

const USAGE: &str = "\
usage:
  benchmark [--workload mm|sw|sort|futures|all] [--seed N] [--seconds S]
            [--trace 0|1] [--quick] [--out FILE] [--deadline S]
  benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]

Without --trace, both passes run: 0 gives the gated end-to-end metrics,
1 the per-layer ledger. --seconds is the measuring budget of the gated pass.";

/// Seed of the workload generators when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xBE7C;
/// Measuring budget when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 25;

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Entry point: parse `args` (without the program name) and run.
pub fn main(args: &[String]) -> ExitCode {
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    match parse(args) {
        Ok((opts, false)) => runner::run(&opts),
        Ok((opts, true)) => child(&opts),
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parse run options; the flag is whether this is the internal child mode.
fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workloads: WORKLOADS.map(String::from).to_vec(),
        traces: vec![false, true],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        out: None,
        deadline: None,
    };
    let mut is_child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--child" => is_child = true,
            "--workload" => {
                let v = value()?;
                if v != "all" {
                    if !WORKLOADS.contains(&v.as_str()) {
                        return Err(format!("unknown workload {v:?}"));
                    }
                    opts.workloads = vec![v.clone()];
                }
            }
            "--trace" => {
                opts.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--seed" => {
                let v = value()?;
                opts.seed = parse_u64(v).ok_or(format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or(format!(
                        "--seconds takes a whole number from 1 to 60, not {v:?}"
                    ))?;
            }
            "--deadline" => {
                let v = value()?;
                let d: f64 = v.parse().map_err(|_| format!("bad deadline {v:?}"))?;
                if !(d > 0.0 && d.is_finite()) {
                    return Err(format!("bad deadline {v:?}"));
                }
                opts.deadline = Some(d);
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err("help".into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((opts, is_child))
}

/// Internal: measure one pass in this process and print the result line.
fn child(opts: &Options) -> ExitCode {
    let (&[traced], [workload]) = (&opts.traces[..], &opts.workloads[..]) else {
        eprintln!("benchmark: --child takes one --workload and one --trace");
        return ExitCode::from(2);
    };
    let mut pass = Pass::new(
        workload.clone(),
        opts.seed,
        opts.seconds as f64,
        opts.quick,
        traced,
    );
    spec::measure(&mut pass);
    println!("#result {}", pass.finish().encode());
    ExitCode::SUCCESS
}
