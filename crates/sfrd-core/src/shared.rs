//! Instrumented shared data.
//!
//! Rust has no compiler pass to auto-instrument loads and stores, so
//! programs under test route shared accesses through these wrappers, which
//! (a) perform the access and (b) report it to the detector via
//! [`Cx::record_read`]/[`Cx::record_write`] — exactly what the paper's
//! compiler instrumentation emits around each shared access.
//!
//! Every element is one `AtomicU64` accessed `Relaxed` — a plain load or
//! store, no locked instruction — whatever its integer type ([`Word`]).
//! So programs that *do* contain determinacy races (the thing a
//! race-detector test suite must execute!) are still data-race-free at the
//! Rust/LLVM level: the nondeterminism stays at the value level, the UB
//! stays away. `Relaxed` is enough because a cell publishes nothing but
//! its own value: two accesses the dag orders are ordered by the
//! runtime's spawn/sync/create/get edges, which carry the release/acquire
//! pair, and two it does not order are the race under test, where either
//! value is a legal outcome.
//!
//! One cell is one aligned 8-byte granule, which is one slot of the shadow
//! store (`sfrd_shadow::SLOT_SHIFT`): consecutive elements fill
//! consecutive slots, and no two share one.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use sfrd_runtime::Cx;

mod sealed {
    pub trait Sealed {}
}

/// An integer a shadow cell can hold: it round-trips through the cell's
/// 64-bit word (signed types sign-extend). Sealed — the integer types are
/// the implementors.
pub trait Word: Copy + sealed::Sealed {
    /// The value widened to the cell's word.
    fn to_bits(self) -> u64;
    /// The value whose [`to_bits`](Word::to_bits) is `bits`.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Word for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_word!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// One element's storage: 8 bytes, 8-aligned, whatever `T` is.
#[repr(transparent)]
struct Cell<T>(AtomicU64, PhantomData<T>);

impl<T: Word> Cell<T> {
    fn new(v: T) -> Self {
        Cell(AtomicU64::new(v.to_bits()), PhantomData)
    }

    #[inline]
    fn load(&self) -> T {
        T::from_bits(self.0.load(Ordering::Relaxed))
    }

    #[inline]
    fn store(&self, v: T) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn addr(&self) -> u64 {
        self as *const Self as u64
    }
}

/// A shared, instrumented 1-D array.
pub struct ShadowArray<T> {
    cells: Box<[Cell<T>]>,
}

impl<T: Word + Default> ShadowArray<T> {
    /// Array of `len` default values.
    pub fn new(len: usize) -> Self {
        Self::from_fn(len, |_| T::default())
    }
}

impl<T: Word> ShadowArray<T> {
    /// Array initialized by index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> T) -> Self {
        let mut f = f;
        Self {
            cells: (0..len).map(|i| Cell::new(f(i))).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Shadow address of element `i` (its actual memory address).
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.cells[i].addr()
    }

    /// Instrumented read. Always inlined, as is every instrumented
    /// access: by size alone LLVM stopped inlining this into sort's merge
    /// loop once the batch's access path pushed onto a thread-local stack,
    /// and the call cost a recorded access about 1.5 ns.
    #[inline(always)]
    pub fn read<'s, C: Cx<'s>>(&self, ctx: &mut C, i: usize) -> T {
        let v = self.cells[i].load();
        ctx.record_read(self.addr(i));
        v
    }

    /// Instrumented write.
    #[inline(always)]
    pub fn write<'s, C: Cx<'s>>(&self, ctx: &mut C, i: usize, v: T) {
        self.cells[i].store(v);
        ctx.record_write(self.addr(i));
    }

    /// Uninstrumented read (initialization / verification only).
    #[inline]
    pub fn load(&self, i: usize) -> T {
        self.cells[i].load()
    }

    /// Uninstrumented write (initialization / verification only).
    #[inline]
    pub fn store(&self, i: usize, v: T) {
        self.cells[i].store(v);
    }

    /// Copy out the contents (verification).
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }
}

/// A shared, instrumented scalar.
///
/// The cell is boxed so its shadow address stays stable even if the
/// containing struct is moved after construction.
pub struct ShadowCell<T> {
    cell: Box<Cell<T>>,
}

impl<T: Word> ShadowCell<T> {
    /// New cell.
    pub fn new(v: T) -> Self {
        Self {
            cell: Box::new(Cell::new(v)),
        }
    }

    /// Shadow address.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.cell.addr()
    }

    /// Instrumented read.
    #[inline(always)]
    pub fn read<'s, C: Cx<'s>>(&self, ctx: &mut C) -> T {
        let v = self.cell.load();
        ctx.record_read(self.addr());
        v
    }

    /// Instrumented write.
    #[inline(always)]
    pub fn write<'s, C: Cx<'s>>(&self, ctx: &mut C, v: T) {
        self.cell.store(v);
        ctx.record_write(self.addr());
    }

    /// Uninstrumented read.
    pub fn load(&self) -> T {
        self.cell.load()
    }
}

/// A shared, instrumented row-major matrix.
pub struct ShadowMatrix<T> {
    data: ShadowArray<T>,
    cols: usize,
}

impl<T: Word + Default> ShadowMatrix<T> {
    /// `rows × cols` matrix of defaults.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            data: ShadowArray::new(rows * cols),
            cols,
        }
    }
}

impl<T: Word> ShadowMatrix<T> {
    /// Matrix initialized by `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        Self {
            data: ShadowArray::from_fn(rows * cols, |i| f(i / cols, i % cols)),
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.cols
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Instrumented read of `(r, c)`.
    #[inline]
    pub fn read<'s, C: Cx<'s>>(&self, ctx: &mut C, r: usize, c: usize) -> T {
        self.data.read(ctx, r * self.cols + c)
    }

    /// Instrumented write of `(r, c)`.
    #[inline]
    pub fn write<'s, C: Cx<'s>>(&self, ctx: &mut C, r: usize, c: usize, v: T) {
        self.data.write(ctx, r * self.cols + c, v)
    }

    /// Uninstrumented read.
    #[inline]
    pub fn load(&self, r: usize, c: usize) -> T {
        self.data.load(r * self.cols + c)
    }

    /// Uninstrumented write.
    #[inline]
    pub fn store(&self, r: usize, c: usize, v: T) {
        self.data.store(r * self.cols + c, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drive, DetectorKind, DriveConfig, Mode, Workload};
    use sfrd_runtime::{run_sequential, NullHooks};

    #[test]
    fn array_roundtrip_and_addresses() {
        let a: ShadowArray<u64> = ShadowArray::from_fn(8, |i| i as u64);
        assert_eq!(a.len(), 8);
        assert_eq!(a.load(3), 3);
        assert_ne!(a.addr(0), a.addr(1));
        run_sequential(&NullHooks, |ctx| {
            a.write(ctx, 3, 99);
            assert_eq!(a.read(ctx, 3), 99);
        });
        assert_eq!(a.to_vec()[3], 99);
    }

    /// One element = one aligned 8-byte granule = one shadow slot, for
    /// every element type: a 32-bit table driven under SF-Order has no
    /// sub-word neighbour, so nothing reaches the fallback map.
    #[test]
    fn a_cell_is_one_shadow_slot() {
        use std::mem::{align_of, size_of};
        fn check<T: Word + Default>() {
            assert_eq!((size_of::<Cell<T>>(), align_of::<Cell<T>>()), (8, 8));
            let a: ShadowArray<T> = ShadowArray::new(5);
            for i in 0..4 {
                assert_eq!(a.addr(i + 1) - a.addr(i), 8);
            }
            assert_eq!(a.addr(0) % 8, 0);
        }
        check::<u32>();
        check::<i32>();
        check::<u64>();
        check::<i64>();
        assert_eq!(1u64 << sfrd_shadow::SLOT_SHIFT, 8);
        assert_eq!(ShadowCell::new(0u32).addr() % 8, 0);

        struct Table(ShadowArray<u32>);
        impl Workload for Table {
            fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
                for i in 0..self.0.len() {
                    let v = self.0.read(ctx, i);
                    self.0.write(ctx, i, v + 1);
                }
            }
        }
        let cfg = DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 1);
        let report = drive(&Table(ShadowArray::new(64)), cfg).report.unwrap();
        assert_eq!(report.counts.writes, 64);
        assert_eq!(report.metrics.lock_ops, 0);
    }

    #[test]
    fn signed_values_round_trip() {
        let a: ShadowArray<i32> = ShadowArray::from_fn(3, |i| i as i32 - 2);
        assert_eq!(a.to_vec(), vec![-2, -1, 0]);
        a.store(2, i32::MIN);
        assert_eq!(a.load(2), i32::MIN);
        let c = ShadowCell::new(-1i64);
        assert_eq!(c.load(), -1);
        let m: ShadowMatrix<i64> = ShadowMatrix::from_fn(2, 2, |r, c| -((r * 2 + c) as i64));
        m.store(0, 0, i64::MIN);
        assert_eq!((m.load(0, 0), m.load(1, 1)), (i64::MIN, -3));
    }

    /// Four threads storing to and loading from the same cells with no
    /// ordering between them: every load is some thread's whole store.
    #[test]
    fn racy_stores_and_loads_stay_whole() {
        const THREADS: i64 = 4;
        let a: ShadowArray<i64> = ShadowArray::new(4);
        let go = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 1..=THREADS {
                let (a, go) = (&a, &go);
                s.spawn(move || {
                    go.wait();
                    for round in 0..20_000i64 {
                        let i = (round % 4) as usize;
                        // Negative, so a store touches all 64 bits.
                        a.store(i, -(t << 32 | t));
                        let v = -a.load(i);
                        assert!(
                            v == 0
                                || (v >> 32 == v & 0xffff_ffff
                                    && (1..=THREADS).contains(&(v >> 32))),
                            "torn: {v:#x}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn matrix_indexing() {
        let m: ShadowMatrix<i32> = ShadowMatrix::from_fn(3, 4, |r, c| (r * 10 + c) as i32);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.load(2, 3), 23);
        run_sequential(&NullHooks, |ctx| {
            m.write(ctx, 1, 2, -5);
            assert_eq!(m.read(ctx, 1, 2), -5);
        });
    }

    #[test]
    fn cell_roundtrip() {
        let c = ShadowCell::new(7u32);
        run_sequential(&NullHooks, |ctx| {
            assert_eq!(c.read(ctx), 7);
            c.write(ctx, 9);
        });
        assert_eq!(c.load(), 9);
    }
}
