//! `benchmark compare PARENT.json CHANGE.json`: apply each end-to-end
//! metric's bound from `BENCHMARK.json` to two result files.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::Json;
use crate::spec::WORKLOADS;
use crate::stats::{judge, Better, Summary, Verdict};

/// One printed row.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub parent: f64,
    pub change: f64,
    /// `None` for per-layer metrics, which have no bound.
    pub verdict: Option<Verdict>,
}

impl Row {
    fn print(&self) {
        let verdict = match self.verdict {
            Some(Verdict::Ok) => "ok",
            Some(Verdict::Regression) => "REGRESSION",
            Some(Verdict::Unresolved) => "unresolved",
            None => "",
        };
        // A ratio is printed with its base; 0 / 0 (no failed checks on
        // either side) has none.
        let ratio = if self.parent == 0.0 && self.change == 0.0 {
            "-".to_string()
        } else {
            format!(
                "x{:.4} (base {:.6})",
                self.change / self.parent,
                self.parent
            )
        };
        println!(
            "{:<8} {:<36} {:>14.6} {:>14.6} {:<6} {ratio} {verdict}",
            self.workload, self.metric, self.parent, self.change, self.unit,
        );
    }
}

fn metric(doc: &Json, workload: &str, pass: &str, name: &str) -> Option<(Summary, String)> {
    Summary::from_json(
        doc.get("workloads")?
            .get(workload)?
            .get(pass)?
            .get("metrics")?
            .get(name)?,
    )
}

fn fail_share(doc: &Json, workload: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    let (mut attempted, mut failed) = (0.0, 0.0);
    for pass in ["gated", "traced"] {
        if let Some(p) = w.get(pass) {
            attempted += p.get("attempted")?.as_f64()?;
            failed += p.get("failed")?.as_f64()?;
        }
    }
    (attempted > 0.0).then(|| failed / attempted)
}

/// Compare two result documents under the bounds of `benchmark`
/// (`BENCHMARK.json`). Quick results are refused: they are smoke runs.
pub fn compare_docs(benchmark: &Json, parent: &Json, change: &Json) -> Result<Vec<Row>, String> {
    for (label, doc) in [("parent", parent), ("change", change)] {
        match doc.get("quick").and_then(Json::as_bool) {
            Some(false) => {}
            Some(true) => {
                return Err(format!(
                    "the {label} file is a --quick run; not gating on it"
                ))
            }
            None => return Err(format!("the {label} file is not a benchmark result")),
        }
    }
    let listed = |key: &str| {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let present = |doc: &Json| doc.get("workloads").and_then(|w| w.get(workload)).is_some();
        if !present(parent) && !present(change) {
            continue;
        }
        for m in listed("end_to_end")? {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let Some((p, unit)) = metric(parent, workload, "gated", name) else {
                continue;
            };
            // A metric the parent has and the change lost is a regression.
            let (c, verdict) = match metric(change, workload, "gated", name) {
                Some((c, _)) => (c.median, judge(&p, &c, better, bound)),
                None => (f64::NAN, Verdict::Regression),
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                unit,
                parent: p.median,
                change: c,
                verdict: Some(verdict),
            });
        }
        // Failed checks: bound 0, any increase fails.
        if let Some(p) = fail_share(parent, workload) {
            let c = fail_share(change, workload).unwrap_or(1.0);
            rows.push(Row {
                workload: workload.to_string(),
                metric: "check_fail_share".to_string(),
                unit: "ratio".to_string(),
                parent: p,
                change: c,
                verdict: Some(if c > p {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                }),
            });
        }
        for m in listed("per_layer")? {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("per_layer entry without name")?;
            if let (Some((p, unit)), Some((c, _))) = (
                metric(parent, workload, "traced", name),
                metric(change, workload, "traced", name),
            ) {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: name.to_string(),
                    unit,
                    parent: p.median,
                    change: c.median,
                    verdict: None,
                });
            }
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `compare` subcommand. Exit code 1 on any regression, 2 on bad input.
pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bounds = crate::benchmark_dir().join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.len()) {
            ("--bounds", 1..) => bounds = PathBuf::from(it.next().expect("length checked")),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [parent, change] = &files[..] else {
        eprintln!("usage: benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let rows = load(&bounds)
        .and_then(|b| Ok((b, load(parent)?, load(change)?)))
        .and_then(|(b, p, c)| compare_docs(&b, &p, &c));
    let rows = match rows {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<8} {:<36} {:>14} {:>14} {:<6} ratio (change / parent, with its base)",
        "workload", "metric", "parent", "change", "unit"
    );
    for row in &rows {
        row.print();
    }
    let count = |v| rows.iter().filter(|r| r.verdict == Some(v)).count();
    let (regressions, unresolved) = (count(Verdict::Regression), count(Verdict::Unresolved));
    println!(
        "{regressions} regression(s), {unresolved} unresolved (a side's own quartiles are further apart than the bound), {} within bound",
        count(Verdict::Ok)
    );
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "full_t1_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "reach.heap_kb", "unit": "KB", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    fn result(full_t1: [f64; 3], failed: u32, quick: bool) -> Json {
        let s = Summary::of(&full_t1).unwrap().to_json("s");
        let heap = Summary::single(12.0).to_json("KB");
        Json::parse(&format!(
            r#"{{"quick": {quick}, "workloads": {{"mm": {{
                "gated": {{"attempted": 10, "failed": {failed}, "metrics": {{"full_t1_s": {}}}}},
                "traced": {{"attempted": 10, "failed": 0, "metrics": {{"reach.heap_kb": {}}}}}}}}}}}"#,
            s.encode(),
            heap.encode()
        ))
        .unwrap()
    }

    fn verdicts(parent: &Json, change: &Json) -> Vec<(String, Option<Verdict>)> {
        compare_docs(&bounds(), parent, change)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn same_numbers_pass_and_per_layer_rows_carry_no_verdict() {
        let a = result([1.0, 1.01, 1.02], 0, false);
        assert_eq!(
            verdicts(&a, &a),
            [
                ("full_t1_s".to_string(), Some(Verdict::Ok)),
                ("check_fail_share".to_string(), Some(Verdict::Ok)),
                ("reach.heap_kb".to_string(), None),
            ]
        );
    }

    #[test]
    fn slower_median_and_new_failures_are_regressions() {
        let a = result([1.0, 1.01, 1.02], 0, false);
        let slow = result([1.2, 1.21, 1.22], 0, false);
        assert_eq!(verdicts(&a, &slow)[0].1, Some(Verdict::Regression));
        let failing = result([1.0, 1.01, 1.02], 1, false);
        assert_eq!(verdicts(&a, &failing)[1].1, Some(Verdict::Regression));
        assert_eq!(verdicts(&failing, &a)[1].1, Some(Verdict::Ok));
    }

    #[test]
    fn overlapping_wide_ranges_are_unresolved() {
        let a = result([1.0, 1.01, 1.02], 0, false);
        let noisy = result([0.8, 1.0, 1.3], 0, false); // quartiles 0.9 and 1.15
        assert_eq!(verdicts(&a, &noisy)[0].1, Some(Verdict::Unresolved));
    }

    #[test]
    fn quick_results_are_refused() {
        let a = result([1.0, 1.01, 1.02], 0, false);
        let q = result([1.0, 1.01, 1.02], 0, true);
        assert!(compare_docs(&bounds(), &a, &q).is_err());
        assert!(compare_docs(&bounds(), &Json::Null, &a).is_err());
    }
}
