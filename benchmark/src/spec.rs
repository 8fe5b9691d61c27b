//! The four workloads, their inputs, and the dispatch from a workload name
//! to the generic measurement passes.
//!
//! [`sfrd_core::Workload`] has a generic method, so there is no trait
//! object to hold "a workload": each arm below instantiates the passes for
//! its concrete type.

use sfrd_workloads::{MmParams, MmWorkload, SortParams, SortWorkload, SwParams, SwWorkload};

use crate::futures::{FuturesParams, FuturesWorkload};
use crate::json::Json;
use crate::run::{self, Maker, Pass};

/// Workload names, in the order they run and print.
pub const WORKLOADS: [&str; 4] = ["mm", "sw", "sort", "futures"];

/// `futures` fan-out; the racy variant used by the checks races on every
/// `RACY_EVERY`-th future.
const FAN: usize = 8;
const RACY_EVERY: usize = 64;

fn futures_params(quick: bool, racy: bool) -> FuturesParams {
    let k = match (quick, racy) {
        (false, false) => 16_384,
        (false, true) => 2_048,
        (true, false) => 512,
        (true, true) => 256,
    };
    FuturesParams {
        k,
        fan: FAN,
        racy_every: if racy { RACY_EVERY } else { 0 },
    }
}

/// `(n, base)` of the three paper kernels.
fn size(workload: &str, quick: bool) -> Option<(usize, usize)> {
    Some(match (workload, quick) {
        ("mm", false) => (128, 16),
        ("mm", true) => (64, 16),
        ("sw", false) => (192, 32),
        ("sw", true) => (96, 16),
        ("sort", false) => (200_000, 2048),
        ("sort", true) => (4096, 64),
        _ => return None,
    })
}

/// The inputs of `workload`, as recorded in result files; `None` for an
/// unknown name.
pub fn params_json(workload: &str, quick: bool) -> Option<Json> {
    let num = |x: usize| Json::Num(x as f64);
    if workload == "futures" {
        let (p, racy) = (futures_params(quick, false), futures_params(quick, true));
        return Some(Json::obj([
            ("k", num(p.k)),
            ("fan", num(p.fan)),
            ("baseline_k", num(racy.k)),
            ("racy_check_k", num(racy.k)),
            ("racy_check_every", num(racy.racy_every)),
        ]));
    }
    let (n, base) = size(workload, quick)?;
    Some(Json::obj([("n", num(n)), ("base", num(base))]))
}

/// Measure `pass.workload` in this process. The seed reaches only the
/// workload constructors.
pub fn measure(pass: &mut Pass) {
    let (seed, quick) = (pass.seed, pass.quick);
    match pass.workload.as_str() {
        "mm" => {
            let (n, base) = size("mm", quick).expect("listed above");
            let build = || MmWorkload::new(MmParams { n, base }, seed);
            run::measure(
                pass,
                &Maker {
                    build: &build,
                    build_for_baselines: &build,
                    verify: &MmWorkload::verify,
                },
            );
        }
        "sw" => {
            let (n, base) = size("sw", quick).expect("listed above");
            let build = || SwWorkload::new(SwParams { n, base }, seed);
            run::measure(
                pass,
                &Maker {
                    build: &build,
                    build_for_baselines: &build,
                    verify: &SwWorkload::verify,
                },
            );
        }
        "sort" => {
            let (n, base) = size("sort", quick).expect("listed above");
            let build = || SortWorkload::new(SortParams { n, base }, seed);
            run::measure(
                pass,
                &Maker {
                    build: &build,
                    build_for_baselines: &build,
                    verify: &SortWorkload::verify,
                },
            );
        }
        "futures" => {
            let params = futures_params(quick, false);
            // F-Order's cost grows with the square of the chain length;
            // at the timed `k` one run takes minutes.
            let small = FuturesParams {
                racy_every: 0,
                ..futures_params(quick, true)
            };
            run::measure(
                pass,
                &Maker {
                    build: &|| FuturesWorkload::new(params, seed),
                    build_for_baselines: &|| FuturesWorkload::new(small, seed),
                    verify: &FuturesWorkload::verify,
                },
            );
            // After `measure`: the journal is recorded before this process
            // runs anything in parallel, so its addresses repeat.
            let racy = futures_params(quick, true);
            run::racy_futures_checks(pass, &|| FuturesWorkload::new(racy, seed));
        }
        other => unreachable!("workload {other:?} was validated by the command line"),
    }
}
