//! The work-stealing parallel runtime.
//!
//! Stands in for the paper's extended Cilk-F runtime (DESIGN.md §7): a
//! fixed pool of P workers with per-worker LIFO deques (the in-crate
//! lock-free [`crate::chase_lev`] deque), child-stealing (`spawn`/`create`
//! push the child; the continuation keeps running), and joins that run
//! only work that cannot wait on the blocked frame. *A task runs on top of
//! a frame only if its serial-elision execution precedes the frame's
//! current point*: a task blocked at `sync`/`get` pops entries of its own
//! deque pushed since the frame started (its own children and futures, and
//! theirs), and a `get` also runs the awaited future's body if nobody has
//! claimed it yet. Anything else — a steal or an older entry of its own
//! deque — could `get` the frame it would stand on, so the blocked frame
//! parks instead until a completion wakes it (DESIGN.md §10).
//!
//! The thread inside [`Runtime::run`] is worker 0 for the scope: it runs
//! the root inline on worker 0's deque and, once the root returns, works as
//! an idle worker until the scope drains. The pool starts the other
//! P − 1 threads.
//!
//! The scheduler hot path (push/pop/steal) performs **zero mutex
//! acquisitions**: local deques are Chase-Lev, and sleeping is an eventcount
//! (announce → epoch snapshot → rescan → sleep-if-unchanged) whose mutex is
//! touched only when a worker actually runs out of work. Idle workers and
//! blocked joins sleep on two eventcounts: a push wakes one idle worker, a
//! completion wakes the joins. Only threads with no frame — threads that
//! can claim any job — ever count as parked on `idle`, so a push's
//! `notify_one` is a fence and a load unless a worker really is asleep,
//! and a one-worker run makes no futex call at all.
//!
//! Scoped soundness: [`Runtime::run`] does not return until the global
//! pending-job count reaches zero — including *escaping futures* that
//! outlive their creating task — so task closures may safely borrow from
//! the caller's stack (`'env`). Internally deque entries erase that
//! lifetime, and every task's context holds the scope's hooks by plain
//! reference; the end-of-scope barrier is what makes both sound. The root
//! holds one pending count while it runs, so the count reaches zero once
//! per scope, and the completion that takes it there wakes `idle`, where
//! the caller sleeps if its root returned before the scope drained.
//!
//! A task is one allocation and takes no lock: a `Task` block holds its
//! body, a claim flag, a completion flag and its output, shared by the
//! deque entry and the one reader of the output (the parent's children
//! list or the future's handle).

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::chase_lev::{Steal, Stealer, Worker};
use crate::hooks::{Cx, TaskHooks};
use crate::sync::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering, UnsafeCell};

/// What a deque entry does with its task block: run the body unless a
/// `get` claimed it first.
trait Runnable<H: TaskHooks>: Send + Sync {
    fn run(&self, core: &WorkerCore<H>);
}

/// A ready task: one reference to its block. Lifetime-erased; see module
/// docs.
type Job<H> = Arc<dyn Runnable<H>>;

/// A ready task still carrying its scope lifetime (pre-erasure).
type ScopedJob<'scope, H> = Arc<dyn Runnable<H> + 'scope>;

/// A task's body until it runs, its output after: the block holds the
/// larger of the two, not both.
enum Slot<F, O> {
    Body(F),
    Out(O),
    Taken,
}

/// The output side of a [`Slot`], whatever its body.
trait Output {
    type Out;
    /// Move the output out.
    fn take_out(&mut self) -> Self::Out;
}

/// A [`Slot`] whose body takes an `A`.
trait Stage<A>: Output {
    /// Run the body on `arg` and keep its output in its place.
    fn run(&mut self, arg: A);
}

impl<F, O> Output for Slot<F, O> {
    type Out = O;

    fn take_out(&mut self) -> O {
        match std::mem::replace(self, Slot::Taken) {
            Slot::Out(out) => out,
            _ => panic!("task output taken once, after its body ran"),
        }
    }
}

impl<A, F: FnOnce(A) -> O, O> Stage<A> for Slot<F, O> {
    #[inline]
    fn run(&mut self, arg: A) {
        // A panicking body leaves `Taken` behind, and unwinding drops what
        // it captured.
        let Slot::Body(body) = std::mem::replace(self, Slot::Taken) else {
            panic!("a task body runs once");
        };
        *self = Slot::Out(body(arg));
    }
}

/// One task, one allocation: its claim and completion flags and its
/// [`Slot`].
///
/// Two write-once publications, neither with a lock:
/// * **claim** — `claimed.swap(true)` picks the body's one caller: the
///   deque entry or, for a future, the `get` that runs it in place (W2);
/// * **completion** — the caller leaves the output in the slot, then
///   stores `done` with Release; the output's one reader takes it only
///   after an Acquire load of `done` reads true.
struct Task<S: ?Sized> {
    claimed: AtomicBool,
    done: AtomicBool,
    slot: UnsafeCell<S>,
}

// SAFETY: the slot is touched by the one call whose claim swap read
// `false`, on whichever thread made it, and then by the output's one
// reader after its Acquire load of `done` read what that call stored with
// Release: the two accesses are ordered, and the body and the output cross
// threads once each (`S: Send`). The flags are atomics.
unsafe impl<S: ?Sized + Send> Sync for Task<S> {}

/// A task block seen through its slot's trait, whatever closure it holds:
/// what the output's reader holds.
type TaskRef<'scope, H, O> =
    Arc<Task<dyn for<'c> Stage<&'c WorkerCore<H>, Out = O> + Send + 'scope>>;

impl<F, O> Task<Slot<F, O>> {
    fn new(body: F) -> Arc<Self> {
        Arc::new(Self {
            claimed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            slot: UnsafeCell::new(Slot::Body(body)),
        })
    }
}

impl<S: ?Sized> Task<S> {
    /// Claim and run the body with `arg` unless someone already has;
    /// whether this call ran it.
    fn run_if_unclaimed<A>(&self, arg: A) -> bool
    where
        S: Stage<A>,
    {
        // The claim publishes nothing: the body was in place before the
        // block was shared, and a losing caller never touches the slot.
        if self.claimed.swap(true, Ordering::Relaxed) {
            return false;
        }
        // SAFETY: the swap read `false` in this call and in no other, and
        // the reader waits for the store below.
        unsafe { (*self.slot.get()).run(arg) };
        self.done.store(true, Ordering::Release);
        true
    }

    /// Whether the body has run and its output is in place (Acquire:
    /// pairs with the Release store in [`Task::run_if_unclaimed`]).
    #[inline]
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// The body's output.
    ///
    /// # Safety
    /// The caller is the output's one reader: the parent's children list
    /// or the future's handle.
    unsafe fn take_out(&self) -> S::Out
    where
        S: Output,
    {
        assert!(self.is_done(), "task output read before its completion");
        // SAFETY: `done` read true with Acquire, so the body's call and its
        // write of the output happened before this; the caller is the one
        // reader.
        unsafe { (*self.slot.get()).take_out() }
    }
}

impl<H: TaskHooks, F, O> Runnable<H> for Task<Slot<F, O>>
where
    F: FnOnce(&WorkerCore<H>) -> O + Send,
    O: Send,
{
    fn run(&self, core: &WorkerCore<H>) {
        self.run_if_unclaimed(core);
    }
}

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

/// A per-worker counter on a 128-byte block of its own, so one worker's
/// writes never invalidate the line another worker writes (128: adjacent
/// cache lines are prefetched in pairs).
#[repr(align(128))]
struct Padded(AtomicU64);

/// State shared by all workers, worker 0 being the caller of
/// [`Runtime::run`].
struct Shared<H: TaskHooks> {
    stealers: Box<[Stealer<Job<H>>]>,
    /// Jobs pushed but not yet finished (queued + running), plus one for
    /// a scope's root while it runs.
    pending: AtomicUsize,
    /// Where workers with no frame sleep: pool threads between jobs, and
    /// the caller once its root has returned. Every thread counted here
    /// can claim any job. A push wakes one; the completion that takes
    /// `pending` to zero wakes all, the caller among them.
    idle: EventCount,
    /// Where frames blocked at `sync`/`get` sleep. They can run none of
    /// the jobs a push offers, so only a completion wakes them, all of
    /// them (each may wait on a different child or future).
    joins: EventCount,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Tasks executed over the pool's lifetime, one counter per worker,
    /// written only by that worker.
    tasks_run: Box<[Padded]>,
    /// Tasks taken from a sibling deque.
    steals: AtomicU64,
    /// Steal attempts that lost a CAS race and had to retry.
    steal_retries: AtomicU64,
    /// Times a worker went to sleep in [`Shared::park_wait`].
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
    /// shutdown, a pool thread's `cancel`, needs exactly one broadcast (see
    /// `Drop for Runtime`).
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
        if found.is_none() && !cancel() {
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

    /// Keep the first panic's payload. It is stored before `panicked` is
    /// raised, so the "sibling task panicked" of a frame that saw the flag
    /// can never take its place.
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        self.panicked.store(true, Ordering::Release);
    }

    /// Drop one `pending` count. The one that takes it to zero ends the
    /// scope: it wakes `idle`, where the caller may sleep.
    fn release_pending(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.idle.notify_all();
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
    /// Local pop, then round-robin steal. Lock-free.
    fn find_job(&self) -> Option<Job<H>> {
        if let Some(j) = self.local.pop() {
            return Some(j);
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

    /// Run `task` as one of this worker's tasks: count it, and keep a
    /// panic for [`Runtime::run`] to re-raise.
    fn run_task<T>(&self, task: impl FnOnce() -> T) -> Option<T> {
        let tasks_run = &self.shared.tasks_run[self.index].0;
        tasks_run.store(tasks_run.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        catch_unwind(AssertUnwindSafe(task))
            .map_err(|p| self.shared.record_panic(p))
            .ok()
    }

    /// Run one job with panic capture and completion bookkeeping.
    fn run_job(&self, job: Job<H>) {
        // The entry's reference drops inside the catch: when it is the last
        // one, an escaping future's result drops with the block.
        self.run_task(move || job.run(self));
        self.shared.release_pending();
        self.shared.joins.notify_all();
    }

    /// Run jobs until `done` holds, sleeping on `idle` when there are
    /// none.
    fn work_until(&self, done: impl Fn() -> bool) {
        let idle = &self.shared.idle;
        while !done() {
            let job = self
                .find_job()
                .or_else(|| self.shared.park_wait(idle, || self.find_job(), &done));
            if let Some(job) = job {
                self.run_job(job);
            }
        }
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
                // Unwind this task too; `Runtime::run` rethrows the
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

/// Single-touch handle to a created future. `get` consumes it — the
/// structured-future restriction (a) holds by construction; restriction (b)
/// holds because the handle value itself only flows along dag edges out of
/// the create continuation (Rust ownership; no aliasing).
pub struct FutureHandle<'scope, T, H: TaskHooks> {
    task: TaskRef<'scope, H, (T, H::Strand)>,
    _scope: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

/// Per-task execution context of the parallel runtime.
pub struct ParCtx<'scope, H: TaskHooks> {
    core: *const WorkerCore<H>,
    /// The worker's deque `bottom` when this task started: entries at or
    /// above it were pushed by this task or by tasks run on top of it.
    floor: isize,
    /// The scope's hooks. [`Runtime::run`] holds their `Arc` until the
    /// scope has drained, so the reference outlives every task.
    hooks: &'scope H,
    strand: H::Strand,
    /// Children spawned since the last sync; the list keeps its capacity
    /// across syncs.
    children: Vec<TaskRef<'scope, H, H::Strand>>,
    _scope: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope, H: TaskHooks> ParCtx<'scope, H> {
    fn new(core: &WorkerCore<H>, hooks: &'scope H, strand: H::Strand) -> Self {
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

/// Erase the scope lifetime from a deque entry.
///
/// # Safety
/// The entry must belong to a scope of [`Runtime::run`], which blocks until
/// every job has completed (see module docs).
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
        let hooks = self.hooks;
        let task = Task::new(move |core: &WorkerCore<H>| {
            let mut ctx = ParCtx::new(core, hooks, child_strand);
            f(&mut ctx);
            ctx.finish_task()
        });
        let entry: ScopedJob<'scope, H> = task.clone();
        // SAFETY: this task runs inside a `Runtime::run` scope.
        self.core().push(unsafe { erase_job(entry) });
        self.children.push(task);
    }

    fn sync(&mut self) {
        let children = &self.children;
        self.core().help_until(
            self.floor,
            || children.iter().all(|c| c.is_done()),
            || false,
        );
        // SAFETY: the children list is each child's one reader.
        let strands = self
            .children
            .drain(..)
            .map(|c| unsafe { c.take_out() })
            .collect();
        self.hooks.on_sync(&mut self.strand, strands);
    }

    fn create<T, F>(&mut self, f: F) -> Self::Handle<T>
    where
        T: Send + 'scope,
        F: FnOnce(&mut Self) -> T + Send + 'scope,
    {
        let child_strand = self.hooks.on_create(&mut self.strand);
        let hooks = self.hooks;
        let task = Task::new(move |core: &WorkerCore<H>| {
            let mut ctx = ParCtx::new(core, hooks, child_strand);
            let value = f(&mut ctx);
            (value, ctx.finish_task())
        });
        let entry: ScopedJob<'scope, H> = task.clone();
        // SAFETY: this task runs inside a `Runtime::run` scope.
        self.core().push(unsafe { erase_job(entry) });
        FutureHandle {
            task,
            _scope: PhantomData,
        }
    }

    fn get<T: Send + 'scope>(&mut self, h: Self::Handle<T>) -> T {
        let core = self.core();
        let task = &h.task;
        core.help_until(
            self.floor,
            || task.is_done(),
            || task.run_if_unclaimed(core),
        );
        // SAFETY: `get` consumes the single-touch handle, the future's one
        // reader.
        let (value, done_strand) = unsafe { task.take_out() };
        self.hooks.on_get(&mut self.strand, &done_strand);
        value
    }

    #[inline]
    fn hook_access(&mut self) -> (&H, &mut H::Strand) {
        (self.hooks, &mut self.strand)
    }
}

/// Scheduler statistics (diagnostics and EXPERIMENTS reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks executed over the pool's lifetime.
    pub tasks_run: u64,
    /// Tasks taken from a sibling deque.
    pub steals: u64,
    /// Steal attempts that lost a CAS race and retried (W6: each retry
    /// means another thread made progress).
    pub steal_retries: u64,
    /// Times a worker slept on an eventcount.
    pub parks: u64,
    /// Times a sleeping worker was woken.
    pub wakeups: u64,
}

/// A persistent pool of workers executing structured-future programs.
pub struct Runtime<H: TaskHooks> {
    shared: Arc<Shared<H>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Worker 0, whose thread is the caller of [`Runtime::run`]; the lock
    /// admits one scope at a time.
    caller: Mutex<WorkerCore<H>>,
    workers: usize,
}

impl<H: TaskHooks> Runtime<H> {
    /// A pool of `workers` workers (`P` in the paper's bounds): the caller
    /// of [`Runtime::run`] and `workers - 1` threads started here.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let tasks_run = (0..workers).map(|_| Padded(AtomicU64::new(0))).collect();
        let locals: Vec<Worker<Job<H>>> = (0..workers).map(|_| Worker::new()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            stealers,
            pending: AtomicUsize::new(0),
            idle: EventCount::new(),
            joins: EventCount::new(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            tasks_run,
            steals: AtomicU64::new(0),
            steal_retries: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        let mut cores = locals
            .into_iter()
            .enumerate()
            .map(|(index, local)| WorkerCore {
                shared: Arc::clone(&shared),
                local,
                index,
            });
        let caller = cores.next().expect("at least one worker");
        let threads = cores
            .map(|core| {
                std::thread::Builder::new()
                    .name(format!("sfrd-worker-{}", core.index))
                    .spawn(move || {
                        let shutdown = &core.shared.shutdown;
                        core.work_until(|| shutdown.load(Ordering::Acquire));
                    })
                    .expect("failed to spawn worker")
            })
            .collect();
        Self {
            shared,
            threads,
            caller: Mutex::new(caller),
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
            tasks_run: self
                .shared
                .tasks_run
                .iter()
                .map(|n| n.0.load(Ordering::Relaxed))
                .sum(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            steal_retries: self.shared.steal_retries.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
        }
    }

    /// Execute `f` as the root task on the calling thread and block until
    /// the whole computation — including escaping futures — has finished.
    /// One scope at a time.
    ///
    /// # Panics
    /// Re-raises the first panic of any task.
    pub fn run<'env, T, F>(&self, hooks: Arc<H>, f: F) -> T
    where
        T: Send + 'env,
        F: FnOnce(&mut ParCtx<'env, H>) -> T + Send + 'env,
        H: 'env,
    {
        let core = self.caller.lock();
        let shared = &*self.shared;
        shared.panicked.store(false, Ordering::Release);
        *shared.panic.lock() = None;

        let root_strand = hooks.root();
        // SAFETY: `hooks` lives until this call returns, after the
        // end-of-scope barrier below: no task holds the reference by then.
        let hooks_ref: &'env H = unsafe { &*Arc::as_ptr(&hooks) };
        // The root's own count: no completion but the scope's last can take
        // `pending` to zero, however many futures finish before the root.
        shared.pending.fetch_add(1, Ordering::SeqCst);
        let out = core.run_task(|| {
            let mut ctx = ParCtx::new(&core, hooks_ref, root_strand);
            let out = f(&mut ctx);
            ctx.finish_task();
            out
        });
        shared.release_pending();
        // End-of-scope barrier: the caller is an idle worker until `pending`
        // reads zero. It sleeps on `idle` only with no frame on its stack,
        // so it can run whatever job a push offers.
        core.work_until(|| shared.pending.load(Ordering::SeqCst) == 0);
        if let Some(p) = shared.panic.lock().take() {
            std::panic::resume_unwind(p);
        }
        out.expect("a root that returned left its output")
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
        // blocked in a join once the last scope has drained.
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

    /// 1 000 futures of 10 empty children each: 11 001 tasks with the root.
    fn micro_tasks(rt: &Runtime<NullHooks>) {
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
    }

    /// `tasks_run` is the sum of per-worker counters, each written only by
    /// its worker: exact at any width.
    #[test]
    fn stats_count_tasks() {
        for workers in [2, 4] {
            let rt = rt(workers);
            rt.run(Arc::new(NullHooks), |ctx| {
                for _ in 0..10 {
                    ctx.spawn(|_| {});
                }
                ctx.sync();
            });
            let s = rt.stats();
            // Root + 10 spawns.
            assert_eq!(s.tasks_run, 11, "workers={workers}");
        }
        let rt = rt(4);
        micro_tasks(&rt);
        assert_eq!(rt.stats().tasks_run, 11_001);
    }

    /// A one-worker pool is its caller: 11 001 micro-tasks run without a
    /// single park, let alone a futex round trip per push and completion.
    #[test]
    fn one_worker_micro_tasks_never_wake_the_owner() {
        let rt = rt(1);
        micro_tasks(&rt);
        let s = rt.stats();
        assert_eq!(s.tasks_run, 11_001);
        assert_eq!((s.parks, s.wakeups), (0, 0), "{s:?}");
    }

    /// On one worker the root and every spawned and created task run on
    /// the thread that called `run`, an escaping future included.
    #[test]
    fn one_worker_runs_every_task_on_the_caller() {
        use std::thread::{current, ThreadId};
        let rt = rt(1);
        let caller = current().id();
        let ran: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let ran_ref = &ran;
        let note = move || ran_ref.lock().push(current().id());
        rt.run(Arc::new(NullHooks), |ctx| {
            note();
            for _ in 0..4 {
                ctx.spawn(move |c| {
                    note();
                    let h = c.create(move |_| note());
                    c.get(h);
                });
            }
            ctx.sync();
            drop(ctx.create(move |c| {
                note();
                c.spawn(move |_| note());
            }));
        });
        let ran = ran.into_inner();
        assert_eq!(
            ran.len(),
            1 + 4 * 2 + 2,
            "root, 4 × (child, future), escaping future and its child"
        );
        assert!(ran.iter().all(|&t| t == caller), "{ran:?} vs {caller:?}");
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

/// The task block's two publications under the model checker
/// (`--cfg sfrd_model`), explored on the real block without a pool: the
/// body's argument is `()` in place of a worker.
#[cfg(all(test, sfrd_model))]
mod model_tests {
    use super::*;
    use crate::model::{self, Config, Report};
    use crate::sync::spin_loop;

    fn cfg() -> Config {
        Config {
            schedules: 1200,
            ..Config::default()
        }
    }

    fn assert_explored_lock_free(report: Report) {
        assert!(
            report.schedules >= 1000,
            "acceptance floor: >=1000 schedules"
        );
        assert_eq!(report.lock_ops, 0, "a task's publications take no lock");
    }

    /// A child completes on a second thread while its parent polls `done`
    /// (`sync`'s predicate): the parent always takes the child's strand.
    #[test]
    fn model_a_parent_always_takes_its_childs_strand() {
        let report = model::explore(cfg(), || {
            let task = Task::new(|(): ()| vec![7u64]);
            let entry = Arc::clone(&task);
            let child = model::spawn(move || {
                entry.run_if_unclaimed(());
            });
            while !task.is_done() {
                spin_loop();
            }
            // SAFETY: this thread is the block's one reader.
            assert_eq!(unsafe { task.take_out() }, vec![7]);
            child.join();
        });
        assert_explored_lock_free(report);
    }

    /// A future's deque entry races its `get` for the claim (the getter in
    /// `help_until`'s order: check `done`, else try to run the body in
    /// place, else wait): the body runs exactly once (W2), and the getter
    /// always reads its output.
    #[test]
    fn model_a_futures_body_runs_once_whoever_claims_it() {
        let report = model::explore(cfg(), || {
            let runs = Arc::new(AtomicUsize::new(0));
            let body_runs = Arc::clone(&runs);
            let task = Task::new(move |(): ()| {
                body_runs.fetch_add(1, Ordering::SeqCst);
                vec![42u64]
            });
            let entry = Arc::clone(&task);
            let deque_entry = model::spawn(move || {
                entry.run_if_unclaimed(());
            });
            while !task.is_done() {
                if !task.run_if_unclaimed(()) {
                    spin_loop();
                }
            }
            // SAFETY: this thread is the block's one reader.
            assert_eq!(unsafe { task.take_out() }, vec![42]);
            deque_entry.join();
            assert_eq!(runs.load(Ordering::SeqCst), 1, "W2: the body ran once");
        });
        assert_explored_lock_free(report);
    }
}
