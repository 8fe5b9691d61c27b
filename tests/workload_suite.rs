//! Cross-detector integration over the benchmark suite, plus adversarial
//! racy variants (a detector that only ever sees race-free code is
//! untested where it matters).

use sfrd::core::{drive, DetectorKind, DriveConfig, Mode, ShadowMatrix, Workload};
use sfrd::runtime::Cx;
use sfrd::workloads::{make_bench, Scale, BENCH_NAMES};

const PAR_DETECTORS: [DetectorKind; 2] = [DetectorKind::SfOrder, DetectorKind::FOrder];

/// Every benchmark: correct result, zero races, matching event counts
/// across detectors and worker counts.
#[test]
fn suite_race_free_and_counts_agree() {
    for name in BENCH_NAMES {
        let mut counts = Vec::new();
        for kind in PAR_DETECTORS {
            for workers in [1, 2] {
                let w = make_bench(name, Scale::Small, 7);
                let out = drive(&w, DriveConfig::with(kind, Mode::Full, workers));
                assert!(w.verify_ok(), "{name} {kind:?} x{workers}");
                let rep = out.report.unwrap();
                assert_eq!(rep.total_races, 0, "{name} {kind:?} x{workers}");
                counts.push((rep.counts.reads, rep.counts.writes, rep.counts.futures));
            }
        }
        // MultiBags (sequential).
        let w = make_bench(name, Scale::Small, 7);
        let out = drive(
            &w,
            DriveConfig::with(DetectorKind::MultiBags, Mode::Full, 1),
        );
        assert!(w.verify_ok(), "{name} multibags");
        let rep = out.report.unwrap();
        assert_eq!(rep.total_races, 0, "{name} multibags");
        counts.push((rep.counts.reads, rep.counts.writes, rep.counts.futures));

        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{name}: event counts diverge across detectors/schedules: {counts:?}"
        );
    }
}

/// Reach-only configuration never touches the access history but still
/// tracks the dag shape.
#[test]
fn reach_config_counts_futures_only() {
    for name in BENCH_NAMES {
        let w = make_bench(name, Scale::Small, 3);
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Reach, 2));
        let rep = out.report.unwrap();
        assert!(rep.counts.futures > 0, "{name}");
        assert_eq!(rep.counts.reads + rep.counts.writes, 0, "{name}");
        assert_eq!(rep.history_bytes, 0, "{name}");
        assert!(rep.reach_bytes > 0, "{name}");
    }
}

/// mm with the phase barrier removed: the two products accumulating into
/// the same C quadrant run in parallel — read-modify-write races on every
/// C element. All detectors must flag it.
struct RacyMm {
    a: ShadowMatrix<u64>,
    b: ShadowMatrix<u64>,
    c: ShadowMatrix<u64>,
    n: usize,
}

impl RacyMm {
    fn new(n: usize) -> Self {
        Self {
            a: ShadowMatrix::from_fn(n, n, |r, c| (r * n + c) as u64),
            b: ShadowMatrix::from_fn(n, n, |r, c| (r + c) as u64),
            c: ShadowMatrix::new(n, n),
            n,
        }
    }

    fn product<'s, C: Cx<'s>>(&self, ctx: &mut C, half_a: usize, half_b: usize) {
        // C[0..h][0..h] += A[.., half_a..] · B[half_b.., ..] over the half.
        let h = self.n / 2;
        for i in 0..h {
            for j in 0..h {
                let mut acc = self.c.read(ctx, i, j);
                for k in 0..h {
                    acc = acc.wrapping_add(
                        self.a.read(ctx, i, half_a + k).wrapping_mul(self.b.read(
                            ctx,
                            half_b + k,
                            j,
                        )),
                    );
                }
                self.c.write(ctx, i, j, acc);
            }
        }
    }
}

impl Workload for RacyMm {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        // BUG under test: both phases into C11 concurrently.
        let h1 = ctx.create(move |t| self.product(t, 0, 0));
        let h2 = ctx.create(move |t| self.product(t, self.n / 2, self.n / 2));
        ctx.get(h1);
        ctx.get(h2);
    }
}

#[test]
fn racy_mm_detected_by_all() {
    for kind in [
        DetectorKind::SfOrder,
        DetectorKind::FOrder,
        DetectorKind::MultiBags,
    ] {
        let w = RacyMm::new(8);
        let workers = if kind == DetectorKind::MultiBags {
            1
        } else {
            2
        };
        let out = drive(&w, DriveConfig::with(kind, Mode::Full, workers));
        let rep = out.report.unwrap();
        assert!(rep.total_races > 0, "{kind:?} missed the mm phase race");
        // Every element of the C quadrant is racy.
        assert_eq!(rep.racy_addrs.len(), 16, "{kind:?}: all 4x4 C cells race");
    }
}

/// A subtle future-specific bug: getting the future only on one branch of
/// a fork, while the other branch reads the future's output.
struct HalfSynced {
    data: sfrd::core::ShadowArray<u64>,
}

impl Workload for HalfSynced {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        let h = ctx.create(move |c| {
            self.data.write(c, 0, 42);
        });
        // The spawned child reads WITHOUT the get-ordering...
        ctx.spawn(move |c| {
            let _ = self.data.read(c, 0);
        });
        // ...while the continuation does get first (properly ordered).
        ctx.get(h);
        let _ = self.data.read(ctx, 0);
        ctx.sync();
    }
}

#[test]
fn half_synced_future_read_detected() {
    for kind in [
        DetectorKind::SfOrder,
        DetectorKind::FOrder,
        DetectorKind::MultiBags,
    ] {
        let w = HalfSynced {
            data: sfrd::core::ShadowArray::new(1),
        };
        let workers = if kind == DetectorKind::MultiBags {
            1
        } else {
            2
        };
        let out = drive(&w, DriveConfig::with(kind, Mode::Full, workers));
        let rep = out.report.unwrap();
        assert!(rep.total_races > 0, "{kind:?} missed the unordered read");
        assert_eq!(rep.racy_addrs.len(), 1, "{kind:?}");
    }
}

/// Determinism: many repetitions of a parallel racy program always report.
#[test]
fn racy_program_detected_across_many_schedules() {
    for round in 0..25 {
        let w = HalfSynced {
            data: sfrd::core::ShadowArray::new(1),
        };
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 3));
        assert!(out.report.unwrap().total_races > 0, "round {round}");
    }
}
