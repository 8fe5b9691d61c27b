//! The shared worker pool: the runtime's Chase-Lev deques plus a queue of
//! submitted sessions under the mutex idle workers sleep on — no new
//! dependencies, same stealing discipline.
//!
//! Tasks are whole sessions, not frames: a worker claims a session (the
//! session's `scheduled` flag guarantees a single drainer) and processes
//! its queued frames to exhaustion. A session whose producer keeps it full
//! re-enters through the worker's local deque, where siblings can steal it
//! — so one chatty connection cannot monopolize the pool, and a slow
//! consumer blocks only its own connection's reader, never a worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use sfrd_runtime::chase_lev::{Steal, Stealer, Worker};

use crate::session::Session;

type Task = Arc<Session>;

pub(crate) struct Pool {
    /// Submitted sessions. One push per session activation, and `submit`
    /// and the idle re-check hold this mutex for the wakeup anyway.
    queue: Mutex<VecDeque<Task>>,
    stealers: Vec<Stealer<Task>>,
    wake: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawn `workers` pool threads. A paused pool accepts submissions
    /// but drains nothing until [`resume`](Self::resume) — the
    /// deterministic-backpressure test hook.
    pub(crate) fn new(workers: usize, paused: bool) -> Arc<Self> {
        let workers = workers.max(1);
        let deques: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new()).collect();
        let stealers = deques.iter().map(Worker::stealer).collect();
        let pool = Arc::new(Self {
            queue: Mutex::new(VecDeque::new()),
            stealers,
            wake: Condvar::new(),
            paused: AtomicBool::new(paused),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = pool.handles.lock();
        for (i, deque) in deques.into_iter().enumerate() {
            let pool = Arc::clone(&pool);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sfrd-serve-worker-{i}"))
                    .spawn(move || worker_loop(&pool, &deque, i))
                    .expect("spawn pool worker"),
            );
        }
        drop(handles);
        pool
    }

    /// Hand a claimed session to the pool.
    pub(crate) fn submit(&self, task: Task) {
        let mut queue = self.queue.lock();
        queue.push_back(task);
        self.wake.notify_one();
    }

    /// Un-pause a pool constructed paused.
    pub(crate) fn resume(&self) {
        self.paused.store(false, Ordering::Release);
        let _g = self.queue.lock();
        self.wake.notify_all();
    }

    /// Stop and join every worker.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        {
            let _g = self.queue.lock();
            self.wake.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    fn has_stealable(&self, me: usize) -> bool {
        self.stealers
            .iter()
            .enumerate()
            .any(|(i, s)| i != me && !s.is_empty())
    }
}

fn worker_loop(pool: &Pool, local: &Worker<Task>, me: usize) {
    loop {
        if pool.shutdown.load(Ordering::Acquire) {
            return;
        }
        let task = if pool.paused.load(Ordering::Acquire) {
            None
        } else {
            find_task(pool, local, me)
        };
        match task {
            Some(session) => session.drain(local),
            None => {
                let mut queue = pool.queue.lock();
                // Recheck under the lock: a submit between our miss and
                // this wait would otherwise be a lost wakeup.
                if pool.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let runnable = !pool.paused.load(Ordering::Acquire)
                    && (!queue.is_empty() || !local.is_empty() || pool.has_stealable(me));
                if !runnable {
                    pool.wake.wait(&mut queue);
                }
            }
        }
    }
}

fn find_task(pool: &Pool, local: &Worker<Task>, me: usize) -> Option<Task> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    if let Some(t) = pool.queue.lock().pop_front() {
        return Some(t);
    }
    for (i, stealer) in pool.stealers.iter().enumerate() {
        if i == me {
            continue;
        }
        loop {
            match stealer.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}
