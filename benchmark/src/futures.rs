//! `futures` — the construct-dominated workload.
//!
//! A chain of `k` futures, each created and gotten by the root before the
//! next one starts. Every future spawns `fan` children and syncs. The
//! accesses are chosen so each arm of the paper's Algorithm 1 is
//! exercised on every future:
//!
//! * child `j` of future `i` reads `rows[i][j]`, written by child `j` of
//!   future `i - 1`, which the root has already gotten — the `gp` case
//!   (row 0 is written by the root, so future 0's children take the `cp`
//!   case instead);
//! * the child writes `rows[i + 1][j]`, and its parent reads that cell
//!   after the sync — the same-future SP case;
//! * the root writes `root_cell` before the chain and every future reads
//!   it — the `cp` case.
//!
//! That is `3 * fan + 1` accesses against `fan + 1` tasks of about a
//! microsecond each: parallel constructs, not accesses, set the run time,
//! which no paper kernel does.
//!
//! With `racy_every = m > 0`, children 0 and 1 of every `m`-th future also
//! write one shared cell: a write-write race at a known address. The
//! timed cells always use `racy_every = 0`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use sfrd_core::{ShadowArray, ShadowCell, Workload};
use sfrd_runtime::Cx;

/// Parameters of [`FuturesWorkload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuturesParams {
    /// Chained futures.
    pub k: usize,
    /// Children spawned by each future (at least 2).
    pub fan: usize,
    /// Every `racy_every`-th future races on one shared cell; 0 = none.
    pub racy_every: usize,
}

/// The `futures` workload state.
pub struct FuturesWorkload {
    params: FuturesParams,
    root_cell: ShadowCell<u64>,
    /// `(k + 1) * fan` cells; row `i + 1` is written by future `i`'s children.
    rows: ShadowArray<u64>,
    /// One cell per racy future.
    shared: ShadowArray<u64>,
    seed: u64,
    /// Checksum of what the futures returned, stored by the root.
    checksum: AtomicU64,
}

fn mix(x: u64, i: usize, j: usize) -> u64 {
    (x ^ ((i as u64) << 20 | j as u64))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(23)
}

impl FuturesWorkload {
    /// Build the workload; `seed` determines every value it computes.
    pub fn new(params: FuturesParams, seed: u64) -> Self {
        assert!(params.fan >= 2 && params.k >= 1);
        let racy = match params.racy_every {
            0 => 0,
            m => params.k.div_ceil(m),
        };
        Self {
            params,
            root_cell: ShadowCell::new(0),
            rows: ShadowArray::new((params.k + 1) * params.fan),
            shared: ShadowArray::new(racy),
            seed,
            checksum: AtomicU64::new(0),
        }
    }

    /// The input parameters.
    pub fn params(&self) -> &FuturesParams {
        &self.params
    }

    /// Addresses the racy variant must be reported on, and no others.
    pub fn expected_racy_addrs(&self) -> BTreeSet<u64> {
        (0..self.shared.len())
            .map(|q| self.shared.addr(q))
            .collect()
    }

    fn seed_value(&self, j: usize) -> u64 {
        mix(self.seed, usize::MAX, j)
    }

    fn future_body<'s, C: Cx<'s>>(&'s self, ctx: &mut C, i: usize) -> u64 {
        let FuturesParams {
            fan, racy_every, ..
        } = self.params;
        let racy = racy_every != 0 && i.is_multiple_of(racy_every);
        for j in 0..fan {
            ctx.spawn(move |c| {
                let prev = self.rows.read(c, i * fan + j);
                self.rows.write(c, (i + 1) * fan + j, mix(prev, i, j));
                if racy && j < 2 {
                    self.shared.write(c, i / racy_every, i as u64);
                }
            });
        }
        ctx.sync();
        let mut sum = self.root_cell.read(ctx);
        for j in 0..fan {
            sum = sum.wrapping_add(self.rows.read(ctx, (i + 1) * fan + j));
        }
        sum
    }

    fn expected_checksum(&self) -> u64 {
        let fan = self.params.fan;
        let mut row: Vec<u64> = (0..fan).map(|j| self.seed_value(j)).collect();
        let mut total = 0u64;
        for i in 0..self.params.k {
            let mut sum = self.seed;
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = mix(*cell, i, j);
                sum = sum.wrapping_add(*cell);
            }
            total = total.rotate_left(1) ^ sum;
        }
        total
    }

    /// Check the parallel result against a plain serial recomputation.
    pub fn verify(&self) -> bool {
        self.checksum.load(Ordering::Relaxed) == self.expected_checksum()
    }
}

impl Workload for FuturesWorkload {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        self.root_cell.write(ctx, self.seed);
        for j in 0..self.params.fan {
            self.rows.write(ctx, j, self.seed_value(j));
        }
        let mut total = 0u64;
        for i in 0..self.params.k {
            let h = ctx.create(move |c| self.future_body(c, i));
            total = total.rotate_left(1) ^ ctx.get(h);
        }
        self.checksum.store(total, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_core::{drive, DriveConfig, RecordingHooks};
    use sfrd_dag::{racy_addrs, RecordedProgram};
    use sfrd_runtime::{run_sequential, Runtime};
    use std::sync::Arc;

    fn workload(racy_every: usize) -> FuturesWorkload {
        FuturesWorkload::new(
            FuturesParams {
                k: 64,
                fan: 8,
                racy_every,
            },
            7,
        )
    }

    /// Record the executed dag and access log, serially or on two workers.
    fn recorded(w: &FuturesWorkload, parallel: bool) -> RecordedProgram {
        let hooks = Arc::new(RecordingHooks::new());
        if parallel {
            Runtime::new(2).run(Arc::clone(&hooks), |ctx| w.run(ctx));
        } else {
            run_sequential(&*hooks, |ctx| w.run(ctx));
        }
        RecordingHooks::finish(hooks)
    }

    #[test]
    fn oracle_finds_the_plain_workload_structured_and_race_free() {
        for parallel in [false, true] {
            let w = workload(0);
            let prog = recorded(&w, parallel);
            prog.validate().expect("structured use of futures");
            assert!(prog.races().is_empty(), "parallel={parallel}");
            assert!(w.verify());
            // 3 * fan + 1 accesses per future, plus the root's fan + 1 writes.
            assert_eq!(prog.log.len(), 64 * 25 + 9);
        }
    }

    #[test]
    fn oracle_finds_exactly_the_planted_races() {
        for parallel in [false, true] {
            let w = workload(16);
            let prog = recorded(&w, parallel);
            prog.validate().expect("structured use of futures");
            let expected = w.expected_racy_addrs();
            assert_eq!(expected.len(), 4);
            assert_eq!(
                racy_addrs(&prog.dag, &prog.log),
                expected,
                "parallel={parallel}"
            );
            assert!(
                w.verify(),
                "the planted race writes one value from both sides"
            );
        }
    }

    #[test]
    fn verify_rejects_an_output_that_was_not_computed() {
        let w = workload(0);
        assert!(!w.verify(), "nothing ran yet");
        drive(&w, DriveConfig::base(2));
        assert!(w.verify());
        w.checksum.fetch_add(1, Ordering::Relaxed);
        assert!(!w.verify());
    }

    #[test]
    fn the_seed_changes_the_values_not_the_shape() {
        let (a, b) = (workload(0), FuturesWorkload::new(*workload(0).params(), 8));
        assert_ne!(a.expected_checksum(), b.expected_checksum());
        assert_eq!(recorded(&a, false).log.len(), recorded(&b, false).log.len());
    }
}
