//! The work-stealing parallel runtime.
//!
//! Stands in for the paper's extended Cilk-F runtime (DESIGN.md §7): a
//! fixed pool of workers with per-worker LIFO deques (the in-crate
//! lock-free [`crate::chase_lev`] deque), child-stealing (`spawn`/`create`
//! push the child; the continuation keeps running), and joins that run
//! only work that cannot wait on the blocked frame. *A task runs on top of
//! a frame only if its serial-elision execution precedes the frame's
//! current point*: a task blocked at `sync`/`get` pops entries of its own
//! deque pushed since the frame started (its own children and futures, and
//! theirs), and a `get` also runs the awaited future's body if nobody has
//! claimed it yet. Anything else — a steal, the root slot, an older entry
//! of its own deque — could `get` the frame it would stand on, so the
//! blocked frame parks instead until a completion wakes it (DESIGN.md §10).
//!
//! The scheduler hot path (push/pop/steal) performs **zero mutex
//! acquisitions**: local deques are Chase-Lev, and sleeping is an eventcount
//! (announce → epoch snapshot → rescan → sleep-if-unchanged) whose mutex is
//! touched only when a worker actually runs out of work. Idle workers and
//! blocked joins sleep on two eventcounts: a push wakes one idle worker, a
//! completion wakes the joins. The one job that
//! does not start on a deque, a scope's root, waits in a one-element slot
//! (`Shared::root`) whose mutex is locked to fill it and to take it, once
//! each per scope. Only idle pool threads
//! — threads that can claim any job — ever count as parked on `idle`, so a
//! push's `notify_one` is a fence and a load unless a worker really is
//! asleep, and a one-worker run makes no futex call per task.
//!
//! Scoped soundness: [`Runtime::run`] does not return until the global
//! pending-job count reaches zero — including *escaping futures* that
//! outlive their creating task — so task closures may safely borrow from
//! the caller's stack (`'env`). Internally job boxes erase that lifetime;
//! the quiescence barrier is what makes the erasure sound. The scope owner
//! waits for quiescence on a mutex/condvar pair of its own
//! (`Shared::quiesce`), signalled by the one completion that takes
//! `pending` from 1 to 0: it runs no jobs, so it must not be where a
//! push-path wakeup can land.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::chase_lev::{Steal, Stealer, Worker};
use crate::hooks::{Cx, TaskHooks};

/// A ready task. Lifetime-erased; see module docs.
type Job<H> = Box<dyn FnOnce(&WorkerCore<H>) + Send>;

/// A ready task still carrying its scope lifetime (pre-erasure).
type ScopedJob<'scope, H> = Box<dyn FnOnce(&WorkerCore<H>) + Send + 'scope>;

/// One sleeping place: the threads inside [`Shared::park_wait`] on it, and
/// an epoch bumped under the lock by every notification.
struct EventCount {
    parked: AtomicUsize,
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl EventCount {
    fn new() -> Self {
        Self {
            parked: AtomicUsize::new(0),
            epoch: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Wake every sleeper if any is registered.
    ///
    /// The SeqCst fence is the eventcount's Dekker arbitration with
    /// [`Shared::park_wait`]'s announce: either we observe the sleeper's
    /// `parked` increment (and deliver an epoch bump + wakeup), or the
    /// sleeper's announce is ordered after our fence, in which case its
    /// rescan — which follows the announce — observes the state we
    /// published before the fence. A wakeup is never lost.
    #[inline]
    fn notify_all(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.force_notify_all();
        }
    }

    /// Wake at most one sleeper. Same fence pairing as
    /// [`EventCount::notify_all`].
    #[inline]
    fn notify_one(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) > 0 {
            let mut e = self.epoch.lock();
            *e = e.wrapping_add(1);
            self.cv.notify_one();
        }
    }

    fn force_notify_all(&self) {
        let mut e = self.epoch.lock();
        *e = e.wrapping_add(1);
        self.cv.notify_all();
    }
}

/// State shared by all workers and the scope owner.
struct Shared<H: TaskHooks> {
    /// The scope's root job. [`Runtime::run`] is its only producer, once
    /// per scope, and `run_guard` admits one scope at a time: one element
    /// needs no queue.
    root: Mutex<Option<Job<H>>>,
    /// Set once `root` is filled, cleared by the worker that takes it:
    /// what a worker reads (one load) after a local-pop miss.
    root_ready: AtomicBool,
    stealers: Box<[Stealer<Job<H>>]>,
    /// Jobs pushed but not yet finished (queued + running).
    pending: AtomicUsize,
    /// Where workers with no frame sleep (never the scope owner: every
    /// thread counted here can claim any job). A push wakes one.
    idle: EventCount,
    /// Where frames blocked at `sync`/`get` sleep. They can run none of
    /// the jobs a push offers, so only a completion wakes them, all of
    /// them (each may wait on a different child or future).
    joins: EventCount,
    /// The scope owner's wait channel. [`WorkerCore::run_job`] signals it
    /// when `pending` goes 1 → 0 (decrement, lock, notify) and
    /// [`Runtime::run`] re-checks `pending` under the lock before every
    /// wait, so the final wakeup cannot fall between check and sleep.
    quiesce: Mutex<()>,
    quiesce_cv: Condvar,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Tasks executed (lifetime of the pool).
    tasks_run: AtomicU64,
    /// Tasks obtained by stealing (the root slot or a sibling deque).
    steals: AtomicU64,
    /// Steal attempts that lost a CAS race and had to retry.
    steal_retries: AtomicU64,
    /// Times a pool thread went to sleep in [`Shared::park_wait`].
    parks: AtomicU64,
    /// Times a sleeping thread was woken.
    wakeups: AtomicU64,
}

impl<H: TaskHooks> Shared<H> {
    /// Eventcount sleep on `ec`: announce, snapshot the epoch, rescan for
    /// work, and sleep only if the rescan found nothing, `cancel` doesn't
    /// hold, and no notification landed since the snapshot (epoch
    /// unchanged).
    ///
    /// Every notifier bumps the epoch under the lock before signalling, and
    /// publishes its work *before* its fence + `parked` check; combined
    /// with the SeqCst announce here, a notification concurrent with this
    /// call either changes the epoch (we skip the sleep) or is ordered
    /// before the announce (the rescan/cancel observes the work). Sleeps
    /// are therefore untimed — no periodic-poll wakeups burn idle CPUs, and
    /// shutdown needs exactly one broadcast (see `Drop for Runtime`).
    fn park_wait<T>(
        &self,
        ec: &EventCount,
        rescan: impl FnOnce() -> Option<T>,
        cancel: impl Fn() -> bool,
    ) -> Option<T> {
        ec.parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let e1 = *ec.epoch.lock();
        let found = rescan();
        if found.is_none() && !cancel() && !self.shutdown.load(Ordering::Acquire) {
            let mut e = ec.epoch.lock();
            if *e == e1 {
                self.parks.fetch_add(1, Ordering::Relaxed);
                ec.cv.wait(&mut e);
                self.wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        ec.parked.fetch_sub(1, Ordering::SeqCst);
        found
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        self.panicked.store(true, Ordering::Release);
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A worker's execution engine: its deque plus the shared state.
pub struct WorkerCore<H: TaskHooks> {
    shared: Arc<Shared<H>>,
    local: Worker<Job<H>>,
    index: usize,
}

impl<H: TaskHooks> WorkerCore<H> {
    /// Local pop, then the root slot, then round-robin steal. Lock-free
    /// except the once-per-scope root take.
    fn find_job(&self) -> Option<Job<H>> {
        if let Some(j) = self.local.pop() {
            return Some(j);
        }
        if self.shared.root_ready.load(Ordering::Acquire) {
            let mut root = self.shared.root.lock();
            if let Some(j) = root.take() {
                // Cleared before the job runs, so before the next scope —
                // which starts after this one quiesces — can set it again.
                self.shared.root_ready.store(false, Ordering::Relaxed);
                self.shared.steals.fetch_add(1, Ordering::Relaxed);
                return Some(j);
            }
        }
        let n = self.shared.stealers.len();
        for k in 1..=n {
            let i = (self.index + k) % n;
            if i == self.index {
                continue;
            }
            loop {
                match self.shared.stealers[i].steal() {
                    Steal::Success(j) => {
                        self.shared.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(j);
                    }
                    Steal::Empty => break,
                    Steal::Retry => {
                        self.shared.steal_retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        None
    }

    fn push(&self, job: Job<H>) {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.local.push(job);
        self.shared.idle.notify_one();
    }

    /// Run one job with panic capture and completion bookkeeping.
    fn run_job(&self, job: Job<H>) {
        self.shared.tasks_run.fetch_add(1, Ordering::Relaxed);
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(self))) {
            self.shared.record_panic(p);
        }
        if self.shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // The scope has quiesced; at most one owner waits (`run_guard`).
            let _quiesce = self.shared.quiesce.lock();
            self.shared.quiesce_cv.notify_one();
        }
        self.shared.joins.notify_all();
    }

    /// Join wait of the frame whose deque entries start at `floor`: until
    /// `pred` holds, run the frame's own entries (pushed since it started)
    /// or, through `run_awaited`, the awaited future's unclaimed body;
    /// with neither, sleep on the joins' eventcount (every completion
    /// broadcasts there, so a pred flip always wakes us). Nothing else can
    /// push onto this deque or unclaim a body meanwhile, so the sleep needs
    /// no rescan.
    fn help_until(&self, floor: isize, pred: impl Fn() -> bool, run_awaited: impl Fn() -> bool) {
        let panicked = || self.shared.panicked.load(Ordering::Acquire);
        loop {
            if pred() {
                return;
            }
            if panicked() {
                // Unwind this task too; the scope owner rethrows the
                // original payload.
                panic!("sfrd-runtime: sibling task panicked");
            }
            if let Some(job) = self.local.pop_above(floor) {
                self.run_job(job);
            } else if !run_awaited() {
                self.shared
                    .park_wait(&self.shared.joins, || None::<()>, || pred() || panicked());
            }
        }
    }
}

fn worker_loop<H: TaskHooks>(core: WorkerCore<H>) {
    let idle = &core.shared.idle;
    loop {
        match core.find_job() {
            Some(job) => core.run_job(job),
            None => {
                if core.shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = core.shared.park_wait(idle, || core.find_job(), || false) {
                    core.run_job(job);
                }
            }
        }
    }
}

/// Completion slot for a spawned child: final detector strand.
struct SpawnSlot<S> {
    done: AtomicBool,
    strand: Mutex<Option<S>>,
}

/// A future's body: runs the task, returns its value and final strand.
type FutBody<'scope, T, H> =
    Box<dyn FnOnce(&WorkerCore<H>) -> (T, <H as TaskHooks>::Strand) + Send + 'scope>;

/// Completion slot for a future: its body until someone claims it, then
/// value + final detector strand.
struct FutSlot<'scope, T, H: TaskHooks> {
    /// Taken exactly once: by the future's deque entry, or by the `get`
    /// that finds it still here and runs it in place (the entry is then a
    /// no-op).
    body: Mutex<Option<FutBody<'scope, T, H>>>,
    done: AtomicBool,
    payload: Mutex<Option<(T, H::Strand)>>,
}

impl<T, H: TaskHooks> FutSlot<'_, T, H> {
    /// Claim and run the body on `core` unless someone already has;
    /// whether this call ran it.
    fn run_if_unclaimed(&self, core: &WorkerCore<H>) -> bool {
        let Some(body) = self.body.lock().take() else {
            return false;
        };
        let out = body(core);
        *self.payload.lock() = Some(out);
        self.done.store(true, Ordering::Release);
        true
    }
}

/// Single-touch handle to a created future. `get` consumes it — the
/// structured-future restriction (a) holds by construction; restriction (b)
/// holds because the handle value itself only flows along dag edges out of
/// the create continuation (Rust ownership; no aliasing).
pub struct FutureHandle<'scope, T, H: TaskHooks> {
    slot: Arc<FutSlot<'scope, T, H>>,
    _scope: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

// SAFETY: the handle is only a reference to the slot; the body, T and the
// strand move across threads exactly once each.
unsafe impl<T: Send, H: TaskHooks> Send for FutureHandle<'_, T, H> {}

/// Per-task execution context of the parallel runtime.
pub struct ParCtx<'scope, H: TaskHooks> {
    core: *const WorkerCore<H>,
    /// The worker's deque `bottom` when this task started: entries at or
    /// above it were pushed by this task or by tasks run on top of it.
    floor: isize,
    hooks: Arc<H>,
    strand: H::Strand,
    children: Vec<Arc<SpawnSlot<H::Strand>>>,
    _scope: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope, H: TaskHooks> ParCtx<'scope, H> {
    fn new(core: &WorkerCore<H>, hooks: Arc<H>, strand: H::Strand) -> Self {
        Self {
            core,
            floor: core.local.bottom(),
            hooks,
            strand,
            children: Vec::new(),
            _scope: PhantomData,
        }
    }

    #[inline]
    fn core(&self) -> &WorkerCore<H> {
        // SAFETY: a ParCtx only exists during its task's execution on the
        // worker that owns `core`; the pointer cannot dangle.
        unsafe { &*self.core }
    }

    /// Implicit sync + task end; yields the final strand.
    fn finish_task(mut self) -> H::Strand {
        if !self.children.is_empty() {
            <Self as Cx<'scope>>::sync(&mut self);
        }
        self.hooks.on_task_end(&mut self.strand);
        self.strand
    }
}

/// Erase the scope lifetime from a job box. Sound because `Runtime::run`
/// blocks until every job has completed (see module docs).
unsafe fn erase_job<'scope, H: TaskHooks>(job: ScopedJob<'scope, H>) -> Job<H> {
    unsafe { std::mem::transmute(job) }
}

impl<'scope, H: TaskHooks> Cx<'scope> for ParCtx<'scope, H> {
    type Hooks = H;
    type Handle<T: Send + 'scope> = FutureHandle<'scope, T, H>;

    fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self) + Send + 'scope,
    {
        let child_strand = self.hooks.on_spawn(&mut self.strand);
        let slot = Arc::new(SpawnSlot {
            done: AtomicBool::new(false),
            strand: Mutex::new(None),
        });
        self.children.push(Arc::clone(&slot));
        let hooks = Arc::clone(&self.hooks);
        let job: ScopedJob<'scope, H> = Box::new(move |core| {
            let mut ctx = ParCtx::new(core, hooks, child_strand);
            f(&mut ctx);
            let strand = ctx.finish_task();
            *slot.strand.lock() = Some(strand);
            slot.done.store(true, Ordering::Release);
        });
        self.core().push(unsafe { erase_job(job) });
    }

    fn sync(&mut self) {
        let children = std::mem::take(&mut self.children);
        self.core().help_until(
            self.floor,
            || children.iter().all(|c| c.done.load(Ordering::Acquire)),
            || false,
        );
        let strands = children
            .iter()
            .map(|c| c.strand.lock().take().expect("child strand missing"))
            .collect();
        self.hooks.on_sync(&mut self.strand, strands);
    }

    fn create<T, F>(&mut self, f: F) -> Self::Handle<T>
    where
        T: Send + 'scope,
        F: FnOnce(&mut Self) -> T + Send + 'scope,
    {
        let child_strand = self.hooks.on_create(&mut self.strand);
        let hooks = Arc::clone(&self.hooks);
        let body: FutBody<'scope, T, H> = Box::new(move |core| {
            let mut ctx = ParCtx::new(core, hooks, child_strand);
            let value = f(&mut ctx);
            (value, ctx.finish_task())
        });
        let slot = Arc::new(FutSlot {
            body: Mutex::new(Some(body)),
            done: AtomicBool::new(false),
            payload: Mutex::new(None),
        });
        let job_slot = Arc::clone(&slot);
        let job: ScopedJob<'scope, H> = Box::new(move |core| {
            job_slot.run_if_unclaimed(core);
        });
        self.core().push(unsafe { erase_job(job) });
        FutureHandle {
            slot,
            _scope: PhantomData,
        }
    }

    fn get<T: Send + 'scope>(&mut self, h: Self::Handle<T>) -> T {
        let core = self.core();
        core.help_until(
            self.floor,
            || h.slot.done.load(Ordering::Acquire),
            || h.slot.run_if_unclaimed(core),
        );
        let (value, done_strand) = h
            .slot
            .payload
            .lock()
            .take()
            .expect("future payload missing");
        self.hooks.on_get(&mut self.strand, &done_strand);
        value
    }

    #[inline]
    fn hook_access(&mut self) -> (&H, &mut H::Strand) {
        (&self.hooks, &mut self.strand)
    }
}

/// Scheduler statistics (diagnostics and EXPERIMENTS reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks executed over the pool's lifetime.
    pub tasks_run: u64,
    /// Tasks obtained by stealing (the root slot or a sibling deque).
    pub steals: u64,
    /// Steal attempts that lost a CAS race and retried (W6: each retry
    /// means another thread made progress).
    pub steal_retries: u64,
    /// Times a pool thread slept on the eventcount.
    pub parks: u64,
    /// Times a sleeping pool thread was woken.
    pub wakeups: u64,
}

/// A persistent pool of workers executing structured-future programs.
pub struct Runtime<H: TaskHooks> {
    shared: Arc<Shared<H>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    run_guard: Mutex<()>,
    workers: usize,
}

impl<H: TaskHooks> Runtime<H> {
    /// Spin up `workers` worker threads (`P` in the paper's bounds).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let locals: Vec<Worker<Job<H>>> = (0..workers).map(|_| Worker::new()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            root: Mutex::new(None),
            root_ready: AtomicBool::new(false),
            stealers,
            pending: AtomicUsize::new(0),
            idle: EventCount::new(),
            joins: EventCount::new(),
            quiesce: Mutex::new(()),
            quiesce_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            tasks_run: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            steal_retries: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        let threads = locals
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let core = WorkerCore {
                    shared: Arc::clone(&shared),
                    local,
                    index,
                };
                std::thread::Builder::new()
                    .name(format!("sfrd-worker-{index}"))
                    .spawn(move || worker_loop(core))
                    .expect("failed to spawn worker")
            })
            .collect();
        Self {
            shared,
            threads,
            run_guard: Mutex::new(()),
            workers,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scheduler statistics over the pool's lifetime.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks_run: self.shared.tasks_run.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            steal_retries: self.shared.steal_retries.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
        }
    }

    /// Execute `f` as the root task and block until the whole computation —
    /// including escaping futures — has quiesced. One scope at a time.
    ///
    /// # Panics
    /// Re-raises the first panic of any task.
    pub fn run<'env, T, F>(&self, hooks: Arc<H>, f: F) -> T
    where
        T: Send + 'env,
        F: FnOnce(&mut ParCtx<'env, H>) -> T + Send + 'env,
        H: 'env,
    {
        let _guard = self.run_guard.lock();
        self.shared.panicked.store(false, Ordering::Release);
        *self.shared.panic.lock() = None;

        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let root_strand = hooks.root();
        {
            let result = Arc::clone(&result);
            let job: ScopedJob<'env, H> = Box::new(move |core| {
                let mut ctx = ParCtx::new(core, hooks, root_strand);
                let out = f(&mut ctx);
                ctx.finish_task();
                *result.lock() = Some(out);
            });
            self.shared.pending.fetch_add(1, Ordering::SeqCst);
            *self.shared.root.lock() = Some(unsafe { erase_job(job) });
            self.shared.root_ready.store(true, Ordering::Release);
            self.shared.idle.notify_one();
        }
        // Quiescence barrier, on the owner's own channel: the job that
        // takes `pending` to zero locks `quiesce` before it signals, so it
        // either finds us asleep or we see the zero here. No timed polling.
        {
            let mut quiesce = self.shared.quiesce.lock();
            while self.shared.pending.load(Ordering::SeqCst) != 0 {
                self.shared.quiesce_cv.wait(&mut quiesce);
            }
        }
        if let Some(p) = self.shared.panic.lock().take() {
            std::panic::resume_unwind(p);
        }
        let out = result.lock().take().expect("root task produced no result");
        out
    }
}

impl<H: TaskHooks> Drop for Runtime<H> {
    fn drop(&mut self) {
        // Parked-worker handshake: every sleeper snapshots the epoch and
        // re-checks `shutdown` before actually waiting, so the single
        // epoch-bump + broadcast below cannot be lost — a worker either
        // sees the bump (skips the sleep, observes `shutdown` on its next
        // loop via the mutex's ordering) or was already waiting and is
        // woken. One broadcast, plain joins, no busy-wait. No frame is
        // blocked in a join once the last scope has quiesced.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle.force_notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn rt(workers: usize) -> Runtime<NullHooks> {
        Runtime::new(workers)
    }

    #[test]
    fn fib_spawn_sync() {
        fn fib<'s, C: Cx<'s>>(ctx: &mut C, n: u64, out: &'s AtomicU64) {
            if n < 2 {
                out.fetch_add(n, Ordering::Relaxed);
                return;
            }
            ctx.spawn(move |c| fib(c, n - 1, out));
            fib(ctx, n - 2, out);
            ctx.sync();
        }
        for workers in [1, 2, 4] {
            let rt = rt(workers);
            let out = AtomicU64::new(0);
            rt.run(Arc::new(NullHooks), |ctx| fib(ctx, 15, &out));
            assert_eq!(out.load(Ordering::Relaxed), 610, "workers={workers}");
        }
    }

    #[test]
    fn futures_fib() {
        fn fib<'s, C: Cx<'s>>(ctx: &mut C, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let h = ctx.create(move |c| fib(c, n - 1));
            let b = fib(ctx, n - 2);
            ctx.get(h) + b
        }
        let rt = rt(3);
        let out = rt.run(Arc::new(NullHooks), |ctx| fib(ctx, 16));
        assert_eq!(out, 987);
    }

    #[test]
    fn scope_borrows_stack_data() {
        let data: Vec<u64> = (0..1000).collect();
        let rt = rt(2);
        let total = rt.run(Arc::new(NullHooks), |ctx| {
            let mid = data.len() / 2;
            let (a, b) = data.split_at(mid);
            let h = ctx.create(move |_| a.iter().sum::<u64>());
            let right: u64 = b.iter().sum();
            ctx.get(h) + right
        });
        assert_eq!(total, data.iter().sum());
    }

    #[test]
    fn escaping_future_completes_before_scope_ends() {
        static RAN: AtomicBool = AtomicBool::new(false);
        let rt = rt(2);
        rt.run(Arc::new(NullHooks), |ctx| {
            // Create and deliberately drop the handle: the future escapes.
            let h = ctx.create(|_| {
                std::thread::sleep(Duration::from_millis(20));
                RAN.store(true, Ordering::SeqCst);
                1u8
            });
            drop(h);
        });
        assert!(
            RAN.load(Ordering::SeqCst),
            "scope must wait for escaping futures"
        );
    }

    #[test]
    fn reuse_runtime_across_runs() {
        let rt = rt(2);
        for i in 0..10u64 {
            let out = rt.run(Arc::new(NullHooks), move |ctx| {
                let h = ctx.create(move |_| i * 2);
                ctx.get(h)
            });
            assert_eq!(out, i * 2);
        }
    }

    #[test]
    fn stats_count_tasks() {
        let rt = rt(2);
        rt.run(Arc::new(NullHooks), |ctx| {
            for _ in 0..10 {
                ctx.spawn(|_| {});
            }
            ctx.sync();
        });
        let s = rt.stats();
        // Root + 10 spawns.
        assert_eq!(s.tasks_run, 11);
        // The root job is taken from the root slot, which counts as a steal.
        assert!(s.steals >= 1);
    }

    /// One worker never sleeps while it has work, and the scope owner is
    /// not on the workers' eventcount: 11 001 micro-tasks cost the worker
    /// its start-up park, the wakeup by the root job, and the park after
    /// the scope — not a futex round trip per push and per completion.
    #[test]
    fn one_worker_micro_tasks_never_wake_the_owner() {
        let rt = rt(1);
        let total = rt.run(Arc::new(NullHooks), |ctx| {
            let mut total = 0u64;
            for i in 0..1000u64 {
                let h = ctx.create(move |c| {
                    for _ in 0..10 {
                        c.spawn(|_| {});
                    }
                    c.sync();
                    i
                });
                total += ctx.get(h);
            }
            total
        });
        assert_eq!(total, (0..1000).sum());
        let s = rt.stats();
        assert_eq!(s.tasks_run, 11_001);
        assert!(s.parks <= 2 && s.wakeups <= 1, "{s:?}");
    }

    #[test]
    fn task_panic_propagates() {
        let rt = rt(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run(Arc::new(NullHooks), |ctx| {
                ctx.spawn(|_| panic!("boom"));
                ctx.sync();
            });
        }));
        assert!(res.is_err());
        // Runtime stays usable afterwards.
        let ok = rt.run(Arc::new(NullHooks), |_| 7u8);
        assert_eq!(ok, 7);
    }

    #[test]
    fn hooks_receive_events_in_parallel() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Count {
            spawns: AtomicUsize,
            creates: AtomicUsize,
            syncs: AtomicUsize,
            gets: AtomicUsize,
            ends: AtomicUsize,
        }
        impl TaskHooks for Count {
            type Strand = ();
            fn root(&self) {}
            fn on_spawn(&self, _: &mut ()) {
                self.spawns.fetch_add(1, Ordering::Relaxed);
            }
            fn on_create(&self, _: &mut ()) {
                self.creates.fetch_add(1, Ordering::Relaxed);
            }
            fn on_sync(&self, _: &mut (), ch: Vec<()>) {
                drop(ch);
                self.syncs.fetch_add(1, Ordering::Relaxed);
            }
            fn on_get(&self, _: &mut (), _: &()) {
                self.gets.fetch_add(1, Ordering::Relaxed);
            }
            fn on_task_end(&self, _: &mut ()) {
                self.ends.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt: Runtime<Count> = Runtime::new(3);
        let hooks = Arc::new(Count::default());
        let h2 = Arc::clone(&hooks);
        rt.run(h2, |ctx| {
            for _ in 0..4 {
                ctx.spawn(|c| {
                    let h = c.create(|_| 3u8);
                    let _ = c.get(h);
                });
            }
            ctx.sync();
        });
        assert_eq!(hooks.spawns.load(Ordering::Relaxed), 4);
        assert_eq!(hooks.creates.load(Ordering::Relaxed), 4);
        assert_eq!(hooks.gets.load(Ordering::Relaxed), 4);
        // 5 tasks end + 4 futures end = 9... spawned children: 4, futures: 4, root: 1.
        assert_eq!(hooks.ends.load(Ordering::Relaxed), 9);
        // Explicit root sync; spawned children each sync implicitly? They
        // have no children, so only the root's explicit sync fires.
        assert_eq!(hooks.syncs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deep_nesting_does_not_deadlock() {
        fn nest<'s, C: Cx<'s>>(ctx: &mut C, d: u32) -> u32 {
            if d == 0 {
                return 0;
            }
            let h = ctx.create(move |c| nest(c, d - 1));
            ctx.get(h) + 1
        }
        let rt = rt(2);
        let out = rt.run(Arc::new(NullHooks), |ctx| nest(ctx, 200));
        assert_eq!(out, 200);
    }
}
