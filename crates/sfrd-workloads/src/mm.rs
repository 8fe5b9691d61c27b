//! `mm` — divide-and-conquer matrix multiplication (Fig. 3 row 1).
//!
//! `C += A · B` by quadrant decomposition. Each recursive step runs the
//! four *independent* quadrant products of phase 1 as created futures,
//! gets them, then runs phase 2 (which accumulates into the same quadrants
//! of `C`, hence the phase barrier). Base-case blocks multiply serially
//! with instrumented element accesses.
//!
//! Arithmetic is wrapping `u64` so results are exactly checkable against
//! the naive product regardless of schedule.

use sfrd_core::{ShadowMatrix, Workload};
use sfrd_runtime::Cx;

/// Parameters for [`MmWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct MmParams {
    /// Matrix dimension (power of two).
    pub n: usize,
    /// Base-case block size (power of two, ≤ n).
    pub base: usize,
}

impl MmParams {
    /// Small default for tests/CI.
    pub fn small() -> Self {
        Self { n: 64, base: 16 }
    }

    /// The paper's input (`N = 2048, B = 64`). Heavy!
    pub fn paper() -> Self {
        Self { n: 2048, base: 64 }
    }
}

/// The `mm` benchmark state.
pub struct MmWorkload {
    /// Input A.
    pub a: ShadowMatrix<u64>,
    /// Input B.
    pub b: ShadowMatrix<u64>,
    /// Output C (accumulated).
    pub c: ShadowMatrix<u64>,
    params: MmParams,
}

/// A square submatrix view: (row offset, col offset).
#[derive(Debug, Clone, Copy)]
struct Quad {
    r: usize,
    c: usize,
    n: usize,
}

impl Quad {
    fn split(self) -> [Quad; 4] {
        let h = self.n / 2;
        [
            Quad {
                r: self.r,
                c: self.c,
                n: h,
            },
            Quad {
                r: self.r,
                c: self.c + h,
                n: h,
            },
            Quad {
                r: self.r + h,
                c: self.c,
                n: h,
            },
            Quad {
                r: self.r + h,
                c: self.c + h,
                n: h,
            },
        ]
    }
}

impl MmWorkload {
    /// Build inputs deterministically from a seed.
    pub fn new(params: MmParams, seed: u64) -> Self {
        assert!(params.n.is_power_of_two() && params.base.is_power_of_two());
        assert!(params.base <= params.n && params.base >= 2);
        let n = params.n;
        let mix = |r: usize, c: usize, salt: u64| {
            let x = (r as u64) << 32 | c as u64;
            x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed ^ salt)
                >> 8
        };
        Self {
            a: ShadowMatrix::from_fn(n, n, |r, c| mix(r, c, 1) % 1000),
            b: ShadowMatrix::from_fn(n, n, |r, c| mix(r, c, 2) % 1000),
            c: ShadowMatrix::new(n, n),
            params,
        }
    }

    /// Serial base case: `C[qc] += A[qa] · B[qb]` with instrumented accesses.
    fn base_mul<'s, C: Cx<'s>>(&self, ctx: &mut C, qc: Quad, qa: Quad, qb: Quad) {
        let n = qc.n;
        for i in 0..n {
            for j in 0..n {
                let mut acc: u64 = self.c.read(ctx, qc.r + i, qc.c + j);
                for k in 0..n {
                    let av = self.a.read(ctx, qa.r + i, qa.c + k);
                    let bv = self.b.read(ctx, qb.r + k, qb.c + j);
                    acc = acc.wrapping_add(av.wrapping_mul(bv));
                }
                self.c.write(ctx, qc.r + i, qc.c + j, acc);
            }
        }
    }

    fn mm_rec<'s, C: Cx<'s>>(&'s self, ctx: &mut C, qc: Quad, qa: Quad, qb: Quad) {
        if qc.n <= self.params.base {
            self.base_mul(ctx, qc, qa, qb);
            return;
        }
        let [c11, c12, c21, c22] = qc.split();
        let [a11, a12, a21, a22] = qa.split();
        let [b11, b12, b21, b22] = qb.split();
        // Phase 1: C11 += A11·B11, C12 += A11·B12, C21 += A21·B11, C22 += A21·B12.
        let h1 = ctx.create(move |t| self.mm_rec(t, c11, a11, b11));
        let h2 = ctx.create(move |t| self.mm_rec(t, c12, a11, b12));
        let h3 = ctx.create(move |t| self.mm_rec(t, c21, a21, b11));
        self.mm_rec(ctx, c22, a21, b12);
        ctx.get(h1);
        ctx.get(h2);
        ctx.get(h3);
        // Phase 2: C11 += A12·B21, C12 += A12·B22, C21 += A22·B21, C22 += A22·B22.
        let h1 = ctx.create(move |t| self.mm_rec(t, c11, a12, b21));
        let h2 = ctx.create(move |t| self.mm_rec(t, c12, a12, b22));
        let h3 = ctx.create(move |t| self.mm_rec(t, c21, a22, b21));
        self.mm_rec(ctx, c22, a22, b22);
        ctx.get(h1);
        ctx.get(h2);
        ctx.get(h3);
    }

    /// The input parameters.
    pub fn params(&self) -> &MmParams {
        &self.params
    }

    /// Reference product (uninstrumented, serial).
    pub fn expected(&self) -> Vec<u64> {
        let n = self.params.n;
        let mut out = vec![0u64; n * n];
        for i in 0..n {
            for k in 0..n {
                let av = self.a.load(i, k);
                for j in 0..n {
                    let cell = &mut out[i * n + j];
                    *cell = cell.wrapping_add(av.wrapping_mul(self.b.load(k, j)));
                }
            }
        }
        out
    }

    /// Check the computed C against the reference.
    pub fn verify(&self) -> bool {
        let n = self.params.n;
        let want = self.expected();
        (0..n).all(|i| (0..n).all(|j| self.c.load(i, j) == want[i * n + j]))
    }
}

impl Workload for MmWorkload {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        let n = self.params.n;
        let whole = Quad { r: 0, c: 0, n };
        self.mm_rec(ctx, whole, whole, whole);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_core::{drive, DetectorKind, DriveConfig, Mode};

    #[test]
    fn mm_correct_sequential() {
        let w = MmWorkload::new(MmParams { n: 16, base: 4 }, 1);
        let cfg = DriveConfig::with(DetectorKind::MultiBags, Mode::Full, 1);
        let out = drive(&w, cfg);
        assert!(w.verify());
        assert_eq!(out.report.unwrap().total_races, 0, "mm must be race-free");
    }

    #[test]
    fn mm_correct_parallel_with_sf_order() {
        let w = MmWorkload::new(MmParams { n: 16, base: 4 }, 2);
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 2));
        assert!(w.verify());
        let rep = out.report.unwrap();
        assert_eq!(rep.total_races, 0);
        // 8 futures per internal recursion node; n=16,base=4 has 1 + ... levels.
        assert!(rep.counts.futures > 0);
        assert!(rep.counts.reads > rep.counts.writes);
    }

    #[test]
    fn mm_future_count_shape() {
        // n/base = 4 → two recursion levels: 6 futures at top + 8×6 below? No:
        // each internal node creates 6 futures and recurses 8× total.
        let w = MmWorkload::new(MmParams { n: 16, base: 4 }, 3);
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 1));
        let k = out.report.unwrap().counts.futures;
        // Internal nodes: 1 (16) + 8 (8) = 9, each creating 6 futures.
        assert_eq!(k, 9 * 6);
    }
}
