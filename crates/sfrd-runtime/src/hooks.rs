//! The detector hook interface.
//!
//! The paper's detectors piggyback on an extended Cilk-F runtime that calls
//! into the detector at every parallel construct and (via compiler
//! instrumentation) at every shared-memory access. [`TaskHooks`] is that
//! interface: a detector implements it, and both the work-stealing and the
//! sequential runtime call it at the corresponding events. `Strand` is the
//! detector's per-task state (reachability position, `gp` table, ...),
//! owned by the task and handed back at joins. An access arrives alone
//! ([`TaskHooks::on_access`]) or in a borrowed slice
//! ([`TaskHooks::on_access_batch`]); a sink with a bulk path takes a
//! single access as a batch of one.

use crate::batch::BatchedAccess;

/// Detector callbacks invoked by the runtimes.
///
/// Contract (both runtimes uphold it):
/// * every task's life is `root`/`on_spawn`/`on_create` → body →
///   \[implicit `on_sync` if children are outstanding\] → `on_task_end`;
/// * `on_sync` receives the final strands of all children spawned since the
///   last sync (never created futures — those only flow through `on_get`);
/// * `on_get` fires at most once per created future, with the future's
///   final strand;
/// * the sequential runtime, and journal replay (which runs every journal
///   in serial elision), additionally fire `on_task_return` right after a
///   child's `on_task_end`, in serial DFS order (SP-bags needs it);
/// * `on_access` and `on_access_batch` fire on the accessing task's
///   strand, every entry of a batch issued at its current dag position.
pub trait TaskHooks: Sync + Send + 'static {
    /// Per-task detector state.
    type Strand: Send + 'static;

    /// State for the root task.
    fn root(&self) -> Self::Strand;

    /// A task spawned a fork-join child; returns the child's state.
    fn on_spawn(&self, parent: &mut Self::Strand) -> Self::Strand;

    /// A task created a future; returns the future task's state.
    fn on_create(&self, parent: &mut Self::Strand) -> Self::Strand;

    /// A sync joined the given completed spawned children.
    fn on_sync(&self, s: &mut Self::Strand, children: Vec<Self::Strand>);

    /// A get consumed the future whose final strand is `done`.
    fn on_get(&self, s: &mut Self::Strand, done: &Self::Strand);

    /// The task finished (after its implicit sync).
    fn on_task_end(&self, s: &mut Self::Strand);

    /// Sequential runtime and journal replay only: child returned to
    /// `parent` in DFS order.
    fn on_task_return(&self, _parent: &mut Self::Strand, _child: &mut Self::Strand) {}

    /// A shared-memory access at `addr`: a write if `is_write`, else a
    /// read.
    fn on_access(&self, _s: &mut Self::Strand, _addr: u64, _is_write: bool) {}

    /// Accesses in program order, all at the strand's current dag
    /// position, from a [`Batched`](crate::batch::Batched) flush or a
    /// journal replay. `filtered` is the `(reads, writes)` its
    /// write-combining filter dropped as repeats since the last batch.
    /// The default runs each entry through [`on_access`](Self::on_access)
    /// and ignores `filtered`; a bulk sink overrides it (one shadow page
    /// cursor per batch) and counts `filtered`.
    fn on_access_batch(
        &self,
        s: &mut Self::Strand,
        entries: &[BatchedAccess],
        _filtered: (u64, u64),
    ) {
        for a in entries {
            self.on_access(s, a.addr, a.is_write);
        }
    }
}

/// No-op hooks: the uninstrumented *base* configuration of Fig. 4.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHooks;

impl TaskHooks for NullHooks {
    type Strand = ();

    #[inline]
    fn root(&self) {}
    #[inline]
    fn on_spawn(&self, _: &mut ()) {}
    #[inline]
    fn on_create(&self, _: &mut ()) {}
    #[inline]
    fn on_sync(&self, _: &mut (), _: Vec<()>) {}
    #[inline]
    fn on_get(&self, _: &mut (), _: &()) {}
    #[inline]
    fn on_task_end(&self, _: &mut ()) {}
}

/// Drive two detectors in one execution (strands are pairs). Used by the
/// test suite to record the dag (ground truth) while a detector under test
/// runs on the same schedule.
#[derive(Debug, Default)]
pub struct PairHooks<A, B>(pub A, pub B);

impl<A: TaskHooks, B: TaskHooks> TaskHooks for PairHooks<A, B> {
    type Strand = (A::Strand, B::Strand);

    fn root(&self) -> Self::Strand {
        (self.0.root(), self.1.root())
    }
    fn on_spawn(&self, p: &mut Self::Strand) -> Self::Strand {
        (self.0.on_spawn(&mut p.0), self.1.on_spawn(&mut p.1))
    }
    fn on_create(&self, p: &mut Self::Strand) -> Self::Strand {
        (self.0.on_create(&mut p.0), self.1.on_create(&mut p.1))
    }
    fn on_sync(&self, s: &mut Self::Strand, children: Vec<Self::Strand>) {
        let (ca, cb): (Vec<_>, Vec<_>) = children.into_iter().unzip();
        self.0.on_sync(&mut s.0, ca);
        self.1.on_sync(&mut s.1, cb);
    }
    fn on_get(&self, s: &mut Self::Strand, done: &Self::Strand) {
        self.0.on_get(&mut s.0, &done.0);
        self.1.on_get(&mut s.1, &done.1);
    }
    fn on_task_end(&self, s: &mut Self::Strand) {
        self.0.on_task_end(&mut s.0);
        self.1.on_task_end(&mut s.1);
    }
    fn on_task_return(&self, p: &mut Self::Strand, c: &mut Self::Strand) {
        self.0.on_task_return(&mut p.0, &mut c.0);
        self.1.on_task_return(&mut p.1, &mut c.1);
    }
    fn on_access(&self, s: &mut Self::Strand, addr: u64, is_write: bool) {
        self.0.on_access(&mut s.0, addr, is_write);
        self.1.on_access(&mut s.1, addr, is_write);
    }
    fn on_access_batch(
        &self,
        s: &mut Self::Strand,
        entries: &[BatchedAccess],
        filtered: (u64, u64),
    ) {
        self.0.on_access_batch(&mut s.0, entries, filtered);
        self.1.on_access_batch(&mut s.1, entries, filtered);
    }
}

/// The context trait workloads are written against: one generic kernel runs
/// unmodified on the work-stealing runtime (any detector) and on the
/// sequential runtime (MultiBags) — mirroring how the paper compiles one
/// benchmark against three detectors.
///
/// `'scope` bounds what task closures may borrow; the parallel runtime
/// guarantees every task finishes before its scope returns.
pub trait Cx<'scope>: Sized {
    /// The detector driving this execution.
    type Hooks: TaskHooks;
    /// Handle to a created future.
    type Handle<T: Send + 'scope>: Send + 'scope;

    /// Fork a child task that may run in parallel with the continuation.
    fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self) + Send + 'scope;

    /// Wait for all children spawned since the last sync.
    fn sync(&mut self);

    /// Create a future task; the handle's value is claimed with
    /// [`Cx::get`]. Handles are single-touch by construction (`get`
    /// consumes them) — the structured-future restriction (a).
    fn create<T, F>(&mut self, f: F) -> Self::Handle<T>
    where
        T: Send + 'scope,
        F: FnOnce(&mut Self) -> T + Send + 'scope;

    /// Wait for and claim a future's value.
    fn get<T: Send + 'scope>(&mut self, h: Self::Handle<T>) -> T;

    /// Split borrow: the detector and this task's strand.
    fn hook_access(&mut self) -> (&Self::Hooks, &mut <Self::Hooks as TaskHooks>::Strand);

    /// Report a shared read at `addr` to the detector.
    #[inline]
    fn record_read(&mut self, addr: u64) {
        let (h, s) = self.hook_access();
        h.on_access(s, addr, false);
    }

    /// Report a shared write at `addr` to the detector.
    #[inline]
    fn record_write(&mut self, addr: u64) {
        let (h, s) = self.hook_access();
        h.on_access(s, addr, true);
    }
}
