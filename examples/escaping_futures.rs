//! Escaping futures: a created future may outlive the task — even the
//! whole call tree — that created it, as long as its handle flows along
//! dag edges. This is the expressiveness futures add over fork-join
//! (paper §1: "the future handle can be stored in memory and retrieved at
//! a later program point"), and the trickiest case for `gp` maintenance.
//!
//! The program below builds a "read-ahead loader": a worker task creates futures
//! that load chunks of data, returns their handles upward, and *ends*
//! while the loads are still running. The root gets the handles much
//! later. The detector must (a) keep the loads parallel to everything
//! between create and get, and (b) serialize them after the get.
//!
//! ```sh
//! cargo run --release --example escaping_futures
//! ```

use sfrd::core::{drive, DetectorKind, DriveConfig, Mode, ShadowArray, Workload};
use sfrd::runtime::Cx;

const CHUNKS: usize = 8;
const CHUNK: usize = 1024;

struct Prefetcher {
    data: ShadowArray<u64>,
    racy_probe: bool,
}

impl Workload for Prefetcher {
    fn run<'s, C: Cx<'s>>(&'s self, ctx: &mut C) {
        // A helper future creates the chunk loaders and RETURNS their
        // handles as its value — the loaders escape it.
        let bundle = ctx.create(move |c| {
            let handles: Vec<C::Handle<usize>> = (0..CHUNKS)
                .map(|i| {
                    c.create(move |cc| {
                        for j in 0..CHUNK {
                            self.data.write(cc, i * CHUNK + j, (i * CHUNK + j) as u64);
                        }
                        i
                    })
                })
                .collect();
            handles // the helper ends here; loaders may still be running
        });
        let handles = ctx.get(bundle);
        if self.racy_probe {
            // BUG: reading chunk 0 before getting its loader.
            let _ = self.data.read(ctx, 0);
        }
        let mut sum = 0u64;
        for h in handles {
            let i = ctx.get(h);
            for j in 0..CHUNK {
                sum += self.data.read(ctx, i * CHUNK + j);
            }
        }
        let n = (CHUNKS * CHUNK) as u64;
        assert_eq!(sum, n * (n - 1) / 2);
    }
}

fn main() {
    for racy_probe in [false, true] {
        let w = Prefetcher {
            data: ShadowArray::new(CHUNKS * CHUNK),
            racy_probe,
        };
        let out = drive(&w, DriveConfig::with(DetectorKind::SfOrder, Mode::Full, 3));
        let rep = out.report.unwrap();
        println!(
            "probe-before-get = {racy_probe:5}: futures = {}, races = {}",
            rep.counts.futures, rep.total_races
        );
        if racy_probe {
            assert!(rep.total_races > 0, "the early probe races with loader 0");
        } else {
            assert_eq!(rep.total_races, 0, "handle-disciplined access is race-free");
        }
    }
    println!("escaping futures OK: loaders outlive their creator, gets restore order");
}
