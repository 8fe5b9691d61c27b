//! Deterministic-interleaving model checker ("mini-loom").
//!
//! Compiled only under `--cfg sfrd_model`. [`explore`] runs a closure many
//! times; each run is one *schedule*: the closure and every thread it spawns
//! via [`spawn`] execute on real OS threads, but cooperatively — exactly one
//! thread holds the logical token at a time, and the token moves only at
//! *yield points* (every operation on the [`crate::sync`] facade). A seeded
//! PRNG picks which runnable thread runs next at each yield point, so a run
//! is a sequentially-consistent interleaving of the facade operations, fully
//! determined by `(seed, schedule index)` — a failure report names the
//! schedule so it can be replayed.
//!
//! Scope and honesty: this explores *interleavings* under SC, like a
//! bounded-depth TLA model check of the same transition system; it does not
//! simulate weak-memory reordering (loom's domain), and a thread is never
//! preempted between facade calls, so data a protocol reads outside the
//! facade is never torn here. What it does catch — lost tasks, double
//! execution, lost updates, mutual-exclusion and validation-protocol bugs,
//! ABA in the reclamation handshake — is exactly the invariant set of
//! `WorkStealing.tla` (W1/W2/W3/W6) plus the seqlock protocols, whose
//! shadow-slot half is all facade words. Orderings on real hardware are
//! covered separately by the release-mode stress tests on real parallel
//! hardware.
//!
//! Schedules longer than `max_steps` switch to deterministic round-robin
//! stepping (still counted, flagged `truncated`) so CAS livelocks and
//! spin-waits terminate every run.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Exploration parameters for [`explore`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random schedules to run.
    pub schedules: usize,
    /// Base PRNG seed; schedule `i` uses `seed ^ splitmix(i)`.
    pub seed: u64,
    /// Yield points per schedule before falling back to round-robin.
    pub max_steps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            schedules: 1000,
            seed: 0x5F3D_C55E_ED5E_ED5E,
            max_steps: 50_000,
        }
    }
}

/// Aggregate statistics returned by [`explore`].
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Schedules completed (== `Config::schedules` unless a run failed).
    pub schedules: usize,
    /// Total yield points taken across all schedules.
    pub steps: u64,
    /// Schedules that hit `max_steps` and finished under round-robin.
    pub truncated: usize,
    /// Lock-op census: total [`crate::sync::Mutex::lock`] calls observed.
    pub lock_ops: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting for thread `.0` to finish.
    Blocked(usize),
    Finished,
}

struct SchedState {
    current: usize,
    status: Vec<Status>,
    rng: u64,
    steps: u64,
    max_steps: u64,
    truncated: bool,
    poisoned: bool,
}

struct Execution {
    state: Mutex<SchedState>,
    cv: Condvar,
    lock_ops: AtomicU64,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn lock_state(exec: &Execution) -> MutexGuard<'_, SchedState> {
    exec.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pick the next thread to run. `me` must currently be Runnable or Finished.
/// Random mode: uniform over runnable threads (including `me`). Truncated
/// mode: the next runnable thread after `me`, cyclically — deterministic and
/// fair, so spin-waits on another thread's progress always terminate.
fn pick(st: &mut SchedState, me: usize) -> Option<usize> {
    let n = st.status.len();
    if st.truncated {
        for k in 1..=n {
            let i = (me + k) % n;
            if st.status[i] == Status::Runnable {
                return Some(i);
            }
        }
        return None;
    }
    let runnable: Vec<usize> = (0..n)
        .filter(|&i| st.status[i] == Status::Runnable)
        .collect();
    if runnable.is_empty() {
        return None;
    }
    let r = splitmix(&mut st.rng) as usize % runnable.len();
    Some(runnable[r])
}

fn wait_for_turn<'a>(
    exec: &'a Execution,
    me: usize,
    mut st: MutexGuard<'a, SchedState>,
) -> MutexGuard<'a, SchedState> {
    while st.current != me {
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st
}

fn deadlock_abort(st: &SchedState) -> ! {
    eprintln!(
        "sfrd model: DEADLOCK — no runnable thread, {} unfinished",
        st.status.iter().filter(|s| **s != Status::Finished).count()
    );
    std::process::abort();
}

/// The scheduling point. Called (via the `sync` facade) before every atomic
/// operation of instrumented code; no-op outside an [`explore`] run.
pub fn yield_point() {
    let ctx = CTX.with(|c| c.borrow().clone());
    let Some((exec, me)) = ctx else { return };
    let mut st = lock_state(&exec);
    if st.poisoned {
        drop(st);
        panic!("sfrd model: execution poisoned by another thread's panic");
    }
    st.steps += 1;
    if st.steps >= st.max_steps {
        st.truncated = true;
    }
    let next = pick(&mut st, me).unwrap_or(me);
    if next != me {
        st.current = next;
        exec.cv.notify_all();
        st = wait_for_turn(&exec, me, st);
        if st.poisoned {
            drop(st);
            panic!("sfrd model: execution poisoned by another thread's panic");
        }
    }
}

/// Lock-op census hook; called by [`crate::sync::Mutex::lock`].
pub fn on_lock() {
    let ctx = CTX.with(|c| c.borrow().clone());
    if let Some((exec, _)) = ctx {
        exec.lock_ops.fetch_add(1, Ordering::Relaxed);
    }
}

/// Is the calling thread inside an [`explore`] run?
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Mark `me` finished, unblock its joiners, and hand the token onward.
fn finish_thread(exec: &Execution, me: usize, panicked: Option<Box<dyn Any + Send>>) {
    if let Some(p) = panicked {
        let mut slot = exec.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(p);
    }
    let mut st = lock_state(exec);
    st.status[me] = Status::Finished;
    if panicked_flag(exec) {
        st.poisoned = true;
    }
    for s in st.status.iter_mut() {
        if *s == Status::Blocked(me) {
            *s = Status::Runnable;
        }
    }
    if st.poisoned {
        // Wake everything so blocked joiners can observe the poison,
        // unwind, and finish; otherwise they would wait on a thread that
        // will never be scheduled again.
        for s in st.status.iter_mut() {
            if matches!(*s, Status::Blocked(_)) {
                *s = Status::Runnable;
            }
        }
    }
    match pick(&mut st, me) {
        Some(next) => st.current = next,
        None => {
            if st.status.iter().any(|s| *s != Status::Finished) {
                deadlock_abort(&st);
            }
            st.current = usize::MAX;
        }
    }
    exec.cv.notify_all();
}

fn panicked_flag(exec: &Execution) -> bool {
    exec.panic
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_some()
}

/// Handle to a thread spawned with [`spawn`] inside an [`explore`] run.
pub struct ModelHandle<T> {
    os: std::thread::JoinHandle<Option<T>>,
    tid: usize,
    exec: Arc<Execution>,
}

impl<T> ModelHandle<T> {
    /// Join the thread, blocking (logically) until it finishes and handing
    /// the scheduling token to other runnable threads meanwhile.
    pub fn join(self) -> T {
        let (_, me) = CTX
            .with(|c| c.borrow().clone())
            .expect("ModelHandle::join outside a model execution");
        {
            let mut st = lock_state(&self.exec);
            if st.status[self.tid] != Status::Finished {
                st.status[me] = Status::Blocked(self.tid);
                match pick(&mut st, me) {
                    Some(next) => st.current = next,
                    None => deadlock_abort(&st),
                }
                self.exec.cv.notify_all();
                st = wait_for_turn(&self.exec, me, st);
                if st.poisoned {
                    drop(st);
                    panic!("sfrd model: joined execution was poisoned");
                }
            }
        }
        match self.os.join() {
            Ok(Some(v)) => v,
            // The panic payload is already recorded in the execution and
            // re-raised by `explore`; unwind the joiner too.
            _ => panic!("sfrd model: joined thread panicked"),
        }
    }
}

/// Spawn a cooperatively-scheduled thread inside an [`explore`] run.
///
/// The closure runs on a real OS thread but only when the model scheduler
/// hands it the token. Panics are captured, poison the execution (all other
/// threads unwind at their next yield point), and are re-raised by
/// [`explore`] with the failing schedule's index.
pub fn spawn<T, F>(f: F) -> ModelHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (exec, _) = CTX
        .with(|c| c.borrow().clone())
        .expect("model::spawn outside a model execution");
    let tid = {
        let mut st = lock_state(&exec);
        st.status.push(Status::Runnable);
        st.status.len() - 1
    };
    let exec2 = Arc::clone(&exec);
    let os = std::thread::spawn(move || {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), tid)));
        let r = catch_unwind(AssertUnwindSafe(|| {
            let st = lock_state(&exec2);
            let st = wait_for_turn(&exec2, tid, st);
            if st.poisoned {
                drop(st);
                panic!("sfrd model: execution poisoned before thread start");
            }
            drop(st);
            f()
        }));
        let (out, payload) = match r {
            Ok(v) => (Some(v), None),
            Err(p) => (None, Some(p)),
        };
        finish_thread(&exec2, tid, payload);
        CTX.with(|c| *c.borrow_mut() = None);
        out
    });
    // Spawning is itself a scheduling point: the child may run first.
    yield_point();
    ModelHandle { os, tid, exec }
}

/// Logically join every spawned thread the closure left running, so a
/// schedule always ends with all threads finished.
fn drain(exec: &Execution) {
    loop {
        let mut st = lock_state(exec);
        let Some(t) = (1..st.status.len()).find(|&i| st.status[i] != Status::Finished) else {
            return;
        };
        st.status[0] = Status::Blocked(t);
        match pick(&mut st, 0) {
            Some(next) => st.current = next,
            None => deadlock_abort(&st),
        }
        exec.cv.notify_all();
        let st = wait_for_turn(exec, 0, st);
        drop(st);
    }
}

/// Run `f` under `cfg.schedules` randomized schedules.
///
/// The calling thread is thread 0 of each execution. A panic in any thread
/// of any schedule is re-raised here, prefixed (on stderr) with the failing
/// schedule index and base seed for replay.
pub fn explore<F: Fn()>(cfg: Config, f: F) -> Report {
    let mut report = Report {
        schedules: 0,
        steps: 0,
        truncated: 0,
        lock_ops: 0,
    };
    for i in 0..cfg.schedules {
        let mut seed_mix = cfg.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let rng = splitmix(&mut seed_mix);
        let exec = Arc::new(Execution {
            state: Mutex::new(SchedState {
                current: 0,
                status: vec![Status::Runnable],
                rng,
                steps: 0,
                max_steps: cfg.max_steps,
                truncated: false,
                poisoned: false,
            }),
            cv: Condvar::new(),
            lock_ops: AtomicU64::new(0),
            panic: Mutex::new(None),
        });
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
        let r = catch_unwind(AssertUnwindSafe(&f));
        if r.is_err() {
            // Poison so threads still waiting for the token unwind instead
            // of deadlocking the drain below.
            let mut st = lock_state(&exec);
            st.poisoned = true;
            for s in st.status.iter_mut() {
                if matches!(*s, Status::Blocked(_)) {
                    *s = Status::Runnable;
                }
            }
            drop(st);
        }
        drain(&exec);
        CTX.with(|c| *c.borrow_mut() = None);

        let st = lock_state(&exec);
        report.schedules += 1;
        report.steps += st.steps;
        report.truncated += st.truncated as usize;
        report.lock_ops += exec.lock_ops.load(Ordering::Relaxed);
        drop(st);

        let payload = exec.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(p) = payload {
            eprintln!(
                "sfrd model: invariant violation in schedule {i} (base seed {:#x})",
                cfg.seed
            );
            resume_unwind(p);
        }
        if let Err(p) = r {
            eprintln!(
                "sfrd model: main-thread panic in schedule {i} (base seed {:#x})",
                cfg.seed
            );
            resume_unwind(p);
        }
    }
    report
}
