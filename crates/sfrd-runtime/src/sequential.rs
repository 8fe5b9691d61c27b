//! The sequential runtime: serial elision of the program.
//!
//! Executes the computation in the left-to-right depth-first order — the
//! one-core schedule of §2. Structured programs never block at `sync` or
//! `get` under this order, so `spawn`/`create` simply run the child to
//! completion inline. This is the execution MultiBags requires, and it
//! doubles as the deterministic reference execution in tests.

use crate::hooks::{Cx, TaskHooks};

/// Sequential task context.
pub struct SeqCtx<'h, H: TaskHooks> {
    hooks: &'h H,
    strand: H::Strand,
    /// Completed spawned children awaiting the next sync.
    children: Vec<H::Strand>,
}

/// A completed future: its value plus the task's final detector state.
pub struct SeqHandle<T, S> {
    value: T,
    strand: S,
}

impl<'h, H: TaskHooks> SeqCtx<'h, H> {
    fn child(&mut self, strand: H::Strand) -> SeqCtx<'h, H> {
        SeqCtx {
            hooks: self.hooks,
            strand,
            children: Vec::new(),
        }
    }

    /// Implicit sync + task end.
    fn end_task(&mut self) {
        if !self.children.is_empty() {
            self.hooks
                .on_sync(&mut self.strand, std::mem::take(&mut self.children));
        }
        self.hooks.on_task_end(&mut self.strand);
    }
}

impl<'s, 'h, H: TaskHooks> Cx<'s> for SeqCtx<'h, H> {
    type Hooks = H;
    type Handle<T: Send + 's> = SeqHandle<T, H::Strand>;

    fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self) + Send + 's,
    {
        let strand = self.hooks.on_spawn(&mut self.strand);
        let mut cctx = self.child(strand);
        f(&mut cctx);
        cctx.end_task();
        let mut child_strand = cctx.strand;
        self.hooks
            .on_task_return(&mut self.strand, &mut child_strand);
        self.children.push(child_strand);
    }

    fn sync(&mut self) {
        self.hooks
            .on_sync(&mut self.strand, std::mem::take(&mut self.children));
    }

    fn create<T, F>(&mut self, f: F) -> SeqHandle<T, H::Strand>
    where
        T: Send + 's,
        F: FnOnce(&mut Self) -> T + Send + 's,
    {
        let strand = self.hooks.on_create(&mut self.strand);
        let mut cctx = self.child(strand);
        let value = f(&mut cctx);
        cctx.end_task();
        let mut child_strand = cctx.strand;
        self.hooks
            .on_task_return(&mut self.strand, &mut child_strand);
        SeqHandle {
            value,
            strand: child_strand,
        }
    }

    fn get<T: Send + 's>(&mut self, h: SeqHandle<T, H::Strand>) -> T {
        self.hooks.on_get(&mut self.strand, &h.strand);
        h.value
    }

    #[inline]
    fn hook_access(&mut self) -> (&H, &mut H::Strand) {
        (self.hooks, &mut self.strand)
    }
}

/// Run `f` as the root task of a sequential execution.
pub fn run_sequential<H: TaskHooks, T>(hooks: &H, f: impl FnOnce(&mut SeqCtx<'_, H>) -> T) -> T {
    let mut ctx = SeqCtx {
        hooks,
        strand: hooks.root(),
        children: Vec::new(),
    };
    let out = f(&mut ctx);
    ctx.end_task();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn computes_with_null_hooks() {
        // Fibonacci with spawn/sync.
        fn fib<'s, C: Cx<'s>>(ctx: &mut C, n: u64, out: &'s AtomicU64) {
            if n < 2 {
                out.fetch_add(n, Ordering::Relaxed);
                return;
            }
            ctx.spawn(move |c| fib(c, n - 1, out));
            fib(ctx, n - 2, out);
            ctx.sync();
        }
        let out = AtomicU64::new(0);
        run_sequential(&NullHooks, |ctx| fib(ctx, 10, &out));
        assert_eq!(out.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn futures_return_values() {
        let got = run_sequential(&NullHooks, |ctx| {
            let h1 = ctx.create(|_| 21u64);
            let h2 = ctx.create(|_| 2u64);
            let a = ctx.get(h1);
            let b = ctx.get(h2);
            a * b
        });
        assert_eq!(got, 42);
    }

    /// Hook event ordering is DFS: child events complete before the parent
    /// continues.
    #[test]
    fn hook_events_follow_dfs() {
        use parking_lot::Mutex;
        #[derive(Default)]
        struct Trace(Mutex<Vec<String>>);
        impl TaskHooks for Trace {
            type Strand = u32; // task id
            fn root(&self) -> u32 {
                0
            }
            fn on_spawn(&self, p: &mut u32) -> u32 {
                self.0.lock().push(format!("spawn<{p}"));
                *p * 10 + 1
            }
            fn on_create(&self, p: &mut u32) -> u32 {
                self.0.lock().push(format!("create<{p}"));
                *p * 10 + 2
            }
            fn on_sync(&self, s: &mut u32, ch: Vec<u32>) {
                self.0.lock().push(format!("sync<{s}:{ch:?}"));
            }
            fn on_get(&self, s: &mut u32, d: &u32) {
                self.0.lock().push(format!("get<{s}:{d}"));
            }
            fn on_task_end(&self, s: &mut u32) {
                self.0.lock().push(format!("end<{s}"));
            }
            fn on_task_return(&self, p: &mut u32, c: &mut u32) {
                self.0.lock().push(format!("ret<{p}:{c}"));
            }
        }
        let tr = Trace::default();
        run_sequential(&tr, |ctx| {
            ctx.spawn(|_| {});
            let h = ctx.create(|_| 7u8);
            ctx.sync();
            let _ = ctx.get(h);
        });
        let log = tr.0.into_inner();
        assert_eq!(
            log,
            vec![
                "spawn<0",
                "end<1",
                "ret<0:1",
                "create<0",
                "end<2",
                "ret<0:2",
                "sync<0:[1]",
                "get<0:2",
                "end<0",
            ]
        );
    }

    #[test]
    fn record_read_write_reach_hooks() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Counter(AtomicUsize, AtomicUsize);
        impl TaskHooks for Counter {
            type Strand = ();
            fn root(&self) {}
            fn on_spawn(&self, _: &mut ()) {}
            fn on_create(&self, _: &mut ()) {}
            fn on_sync(&self, _: &mut (), _: Vec<()>) {}
            fn on_get(&self, _: &mut (), _: &()) {}
            fn on_task_end(&self, _: &mut ()) {}
            fn on_access(&self, _: &mut (), _: u64, is_write: bool) {
                let n = if is_write { &self.1 } else { &self.0 };
                n.fetch_add(1, Ordering::Relaxed);
            }
        }
        let c = Counter::default();
        run_sequential(&c, |ctx| {
            ctx.record_read(1);
            ctx.record_read(2);
            ctx.record_write(3);
        });
        assert_eq!(c.0.load(Ordering::Relaxed), 2);
        assert_eq!(c.1.load(Ordering::Relaxed), 1);
    }
}
