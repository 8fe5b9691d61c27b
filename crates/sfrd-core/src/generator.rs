//! Generated programs as workloads.
//!
//! [`GenWorkload`] interprets a random program from
//! [`sfrd_dag::generator`] against the real runtime context — the one way
//! a generated program runs: `run_sequential` over it is the serial
//! left-to-right depth-first walk (an implicit sync before each task ends,
//! `on_task_return` after every child, the `Get` of a consumed handle
//! skipped), a [`Runtime`](sfrd_runtime::Runtime) any parallel schedule.

use sfrd_dag::generator::{Body, GenProgram, Op};
use sfrd_runtime::Cx;

use crate::driver::Workload;

/// A random structured-future program as a runnable [`Workload`]: `Work`
/// ops become bare `record_read`/`record_write` calls (detectors only see
/// addresses), parallel ops become real runtime constructs.
pub struct GenWorkload(pub GenProgram);

fn interp<'s, C: Cx<'s>>(ctx: &mut C, body: &'s Body) {
    let mut handles: Vec<Option<C::Handle<()>>> = Vec::new();
    for op in &body.0 {
        match op {
            Op::Work { addr, write } => {
                if *write {
                    ctx.record_write(*addr);
                } else {
                    ctx.record_read(*addr);
                }
            }
            Op::Spawn(b) => ctx.spawn(move |c| interp(c, b)),
            Op::Sync => ctx.sync(),
            Op::Create(b) => handles.push(Some(ctx.create(move |c| interp(c, b)))),
            Op::Get(i) => {
                if let Some(h) = handles.get_mut(*i).and_then(Option::take) {
                    ctx.get(h);
                }
            }
        }
    }
    // Leftover handles escape (futures outliving their creator).
}

impl Workload for GenWorkload {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        interp(ctx, &self.0.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordingHooks;
    use rand::prelude::*;
    use sfrd_dag::generator::GenParams;
    use sfrd_dag::RecordedProgram;
    use sfrd_runtime::run_sequential;
    use std::sync::Arc;

    /// The serial walk of `prog`, recorded.
    fn record(prog: GenProgram) -> RecordedProgram {
        let hooks = RecordingHooks::new();
        let w = GenWorkload(prog);
        run_sequential(&hooks, |ctx| w.run(ctx));
        RecordingHooks::finish(Arc::new(hooks))
    }

    #[test]
    fn generated_programs_replay_and_validate() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let prog = GenProgram::random(&mut rng, &GenParams::default());
            let (_, creates) = prog.counts();
            let recorded = record(prog.clone());
            recorded.validate().unwrap_or_else(|e| {
                panic!("generator produced unstructured program: {e}\n{prog:?}")
            });
            assert_eq!(recorded.dag.future_count(), creates + 1);
        }
    }

    #[test]
    fn some_generated_program_contains_a_race() {
        // With a tiny address space, races appear quickly; assert the
        // generator actually exercises the racy regime.
        let mut rng = StdRng::seed_from_u64(1);
        let params = GenParams {
            addr_space: 2,
            write_prob: 0.8,
            ..Default::default()
        };
        let found = (0..30).any(|_| {
            let prog = GenProgram::random(&mut rng, &params);
            !record(prog).races().is_empty()
        });
        assert!(found, "no race in 30 random programs — generator too tame");
    }
}
