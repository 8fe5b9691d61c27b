//! `lcs` — longest common subsequence (extension benchmark, not in the
//! paper's Fig. 3 suite).
//!
//! The same blocked-wavefront structured-futures pattern as `sw`, but with
//! the classic O(1)-per-cell recurrence — so reads ≈ 3·writes instead of
//! `sw`'s read-dominated cubic profile. Including it stresses the
//! detectors at the opposite end of the query/access ratio spectrum and
//! exercises the dag machinery on a second DP shape.

use sfrd_core::{ShadowMatrix, Workload};
use sfrd_runtime::Cx;

/// Parameters for [`LcsWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct LcsParams {
    /// Sequence length (table is `(n+1)²`).
    pub n: usize,
    /// Block side.
    pub base: usize,
}

impl LcsParams {
    /// Small default for tests/CI.
    pub fn small() -> Self {
        Self { n: 128, base: 16 }
    }

    /// A heavier input for benchmarking.
    pub fn large() -> Self {
        Self { n: 2048, base: 64 }
    }
}

/// The `lcs` benchmark state.
pub struct LcsWorkload {
    seq_a: Vec<u8>,
    seq_b: Vec<u8>,
    /// DP table: `len[i][j]` = LCS length of prefixes `a[..i]`, `b[..j]`.
    pub table: ShadowMatrix<u32>,
    params: LcsParams,
}

impl LcsWorkload {
    /// Deterministic random sequences over a 4-letter alphabet.
    pub fn new(params: LcsParams, seed: u64) -> Self {
        assert!(params.n.is_multiple_of(params.base), "base must divide n");
        let mut x = seed | 1;
        let mut gen = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 60) as u8 & 3
                })
                .collect()
        };
        Self {
            seq_a: gen(params.n),
            seq_b: gen(params.n),
            table: ShadowMatrix::new(params.n + 1, params.n + 1),
            params,
        }
    }

    /// The input parameters.
    pub fn params(&self) -> &LcsParams {
        &self.params
    }

    fn block<'s, C: Cx<'s>>(&self, ctx: &mut C, bi: usize, bj: usize) {
        let b = self.params.base;
        for i in bi * b + 1..=(bi + 1) * b {
            for j in bj * b + 1..=(bj + 1) * b {
                let v = if self.seq_a[i - 1] == self.seq_b[j - 1] {
                    self.table.read(ctx, i - 1, j - 1) + 1
                } else {
                    self.table
                        .read(ctx, i - 1, j)
                        .max(self.table.read(ctx, i, j - 1))
                };
                self.table.write(ctx, i, j, v);
            }
        }
    }

    /// Uninstrumented serial reference.
    pub fn expected(&self) -> Vec<u32> {
        let n = self.params.n;
        let mut t = vec![0u32; (n + 1) * (n + 1)];
        for i in 1..=n {
            for j in 1..=n {
                t[i * (n + 1) + j] = if self.seq_a[i - 1] == self.seq_b[j - 1] {
                    t[(i - 1) * (n + 1) + j - 1] + 1
                } else {
                    t[(i - 1) * (n + 1) + j].max(t[i * (n + 1) + j - 1])
                };
            }
        }
        t
    }

    /// Check the computed table against the reference.
    pub fn verify(&self) -> bool {
        let n = self.params.n;
        let want = self.expected();
        (0..=n).all(|i| (0..=n).all(|j| self.table.load(i, j) == want[i * (n + 1) + j]))
    }

    /// LCS length of the full sequences (after a run).
    pub fn lcs_len(&self) -> u32 {
        self.table.load(self.params.n, self.params.n)
    }
}

impl Workload for LcsWorkload {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        let m = self.params.n / self.params.base;
        for d in 0..2 * m - 1 {
            let mut handles = Vec::new();
            for bi in 0..m {
                if d >= bi && d - bi < m {
                    let bj = d - bi;
                    handles.push(ctx.create(move |t| self.block(t, bi, bj)));
                }
            }
            for h in handles {
                ctx.get(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_core::{drive, DetectorKind, DriveConfig, Mode};

    #[test]
    fn lcs_matches_reference_all_detectors() {
        for kind in [
            DetectorKind::SfOrder,
            DetectorKind::FOrder,
            DetectorKind::MultiBags,
        ] {
            let w = LcsWorkload::new(LcsParams { n: 48, base: 8 }, 5);
            let workers = if kind == DetectorKind::MultiBags {
                1
            } else {
                2
            };
            let out = drive(&w, DriveConfig::with(kind, Mode::Full, workers));
            assert!(w.verify(), "{kind:?}");
            let report = out.report.unwrap();
            assert_eq!(report.total_races, 0, "{kind:?}");
            // A `u32` element is a whole shadow slot like any other: no
            // sub-word neighbour, so nothing reaches the fallback map.
            assert_eq!(report.metrics.lock_ops, 0, "{kind:?}");
        }
    }

    #[test]
    fn lcs_of_identical_sequences_is_n() {
        let mut w = LcsWorkload::new(LcsParams { n: 32, base: 8 }, 9);
        w.seq_b = w.seq_a.clone();
        drive(&w, DriveConfig::base(2));
        assert_eq!(w.lcs_len(), 32);
    }

    #[test]
    fn lcs_read_profile_is_constant_per_cell() {
        let w = LcsWorkload::new(LcsParams { n: 64, base: 16 }, 3);
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1));
        let c = out.report.unwrap().counts;
        assert_eq!(c.writes, 64 * 64);
        assert!(c.reads <= c.writes * 2, "≤2 reads per cell: {c:?}");
    }
}
