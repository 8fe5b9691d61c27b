//! Random structured-future programs.
//!
//! Property tests need arbitrary SF programs whose ground truth is
//! computable. [`GenProgram`] is a small AST of the five constructs (memory
//! access, spawn, sync, create, get) generated under the structured-future
//! restrictions by construction: handles live on a per-task stack, so a
//! `get` always happens downstream of its `create`'s continuation, and each
//! handle is consumed at most once. Leftover handles *escape* (the future is
//! never gotten), which the generator produces on purpose — escaping futures
//! are the stress case for `gp` maintenance and the PSP task-end joins.
//!
//! A program runs through `sfrd-core`'s `GenWorkload` on either runtime;
//! `run_sequential` gives the serial left-to-right depth-first walk (the
//! paper's one-core execution), and `RecordingHooks` records its dag.

use rand::Rng;

/// One operation of a generated task body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A shared-memory access.
    Work {
        /// Opaque address.
        addr: u64,
        /// Write or read.
        write: bool,
    },
    /// Spawn a child task (fork-join).
    Spawn(Body),
    /// Join all spawned children since the last sync.
    Sync,
    /// Create a future task; its handle is pushed on the task's handle stack.
    Create(Body),
    /// Get the `i`-th handle on the handle stack, if present and ungotten.
    Get(usize),
}

/// A task body: a sequence of operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Body(pub Vec<Op>);

/// A generated structured-future program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProgram {
    /// The root task body.
    pub root: Body,
}

/// Knobs for [`GenProgram::random`].
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Maximum task nesting depth.
    pub max_depth: u32,
    /// Operations per body (upper bound; bodies are 1..=this long).
    pub max_body_len: usize,
    /// Total budget of parallel constructs (spawns + creates) per program.
    pub max_tasks: usize,
    /// Number of distinct addresses; small values make races likely.
    pub addr_space: u64,
    /// Probability that a Work op is a write.
    pub write_prob: f64,
    /// Relative weights of [work, spawn, sync, create, get].
    pub weights: [u32; 5],
}

impl Default for GenParams {
    fn default() -> Self {
        Self {
            max_depth: 4,
            max_body_len: 8,
            max_tasks: 40,
            addr_space: 8,
            write_prob: 0.4,
            weights: [4, 2, 1, 2, 2],
        }
    }
}

impl GenProgram {
    /// Generate a random structured program.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, p: &GenParams) -> Self {
        let mut budget = p.max_tasks;
        let root = gen_body(rng, p, 0, &mut budget);
        GenProgram { root }
    }

    /// Count parallel constructs: `(spawns, creates)`.
    pub fn counts(&self) -> (usize, usize) {
        fn walk(b: &Body, s: &mut usize, c: &mut usize) {
            for op in &b.0 {
                match op {
                    Op::Spawn(inner) => {
                        *s += 1;
                        walk(inner, s, c);
                    }
                    Op::Create(inner) => {
                        *c += 1;
                        walk(inner, s, c);
                    }
                    _ => {}
                }
            }
        }
        let (mut s, mut c) = (0, 0);
        walk(&self.root, &mut s, &mut c);
        (s, c)
    }
}

fn gen_body<R: Rng + ?Sized>(rng: &mut R, p: &GenParams, depth: u32, budget: &mut usize) -> Body {
    let len = rng.random_range(1..=p.max_body_len);
    let mut ops = Vec::with_capacity(len);
    let mut live_handles = 0usize;
    let total: u32 = p.weights.iter().sum();
    for _ in 0..len {
        let mut pick = rng.random_range(0..total);
        let mut which = 0usize;
        for (i, &w) in p.weights.iter().enumerate() {
            if pick < w {
                which = i;
                break;
            }
            pick -= w;
        }
        let op = match which {
            1 if depth < p.max_depth && *budget > 0 => {
                *budget -= 1;
                Op::Spawn(gen_body(rng, p, depth + 1, budget))
            }
            2 => Op::Sync,
            3 if depth < p.max_depth && *budget > 0 => {
                *budget -= 1;
                live_handles += 1;
                Op::Create(gen_body(rng, p, depth + 1, budget))
            }
            4 if live_handles > 0 => {
                // Pick any handle index ever created; the interpreter
                // ignores already-gotten ones, so collisions simply skip.
                Op::Get(rng.random_range(0..live_handles))
            }
            _ => Op::Work {
                addr: rng.random_range(0..p.addr_space),
                write: rng.random_bool(p.write_prob),
            },
        };
        ops.push(op);
    }
    Body(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn deep_programs_hit_budget() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = GenParams {
            max_tasks: 5,
            ..Default::default()
        };
        for _ in 0..20 {
            let prog = GenProgram::random(&mut rng, &params);
            let (s, c) = prog.counts();
            assert!(s + c <= 5);
        }
    }
}
