//! **Ablation**: dedicated communication thread vs. inline communication
//! (paper §III-B's discussion).
//!
//! GASNet completes local data before a non-blocking call returns, which
//! leaves `cofence` nothing to overlap; the paper proposes dedicating a
//! communication thread per image (viable on BG/Q- and MIC-class nodes).
//! This ablation times the producer loop under both modes, in two loop
//! shapes that do the same work per iteration (one copy, one buffer fill,
//! one cofence):
//!
//! * **no overlap** — `copy_async`, then `cofence`, then fill the buffer
//!   just sent. Nothing sits between initiation and the fence, so this
//!   row prices only the handoff: with `CommMode::DedicatedThread` the
//!   waiting image runs its queued copy itself when the communication
//!   thread has not taken it yet.
//! * **overlap** — double buffering: `copy_async` from one buffer, fill
//!   the other, then `cofence`. With `CommMode::Inline` the snapshot is
//!   paid at initiation; with the dedicated thread it can run while the
//!   producer fills the other buffer.

use std::time::Instant;

use bench::print_table;
use caf_runtime::{CommMode, CopyEvents, LocalArray, NetworkModel, Runtime, RuntimeConfig};

fn run(mode: CommMode, overlap: bool, iters: u64, words: usize) -> f64 {
    let cfg = RuntimeConfig {
        comm_mode: mode,
        network: NetworkModel::slow_cluster(),
        ..RuntimeConfig::default()
    };
    let p = 4;
    let times = Runtime::launch(p, cfg, |img| {
        let w = img.world();
        let dst = img.coarray(&w, words, 0u64);
        let bufs = [LocalArray::new(vec![1u64; words]), LocalArray::new(vec![1u64; words])];
        // "produce": touch the whole buffer.
        let fill = |buf: &LocalArray<u64>, i: u64| {
            buf.with(|b| {
                for v in b.iter_mut() {
                    *v = v.wrapping_mul(31).wrapping_add(i);
                }
            })
        };
        img.barrier(&w);
        let t0 = Instant::now();
        if img.id().index() == 0 {
            for i in 0..iters {
                let target = img.image(1 + (i as usize % (p - 1)));
                let (sent, next) = if overlap {
                    (&bufs[i as usize % 2], &bufs[(i as usize + 1) % 2])
                } else {
                    (&bufs[0], &bufs[0])
                };
                img.copy_async_from(
                    dst.slice(target, 0..words),
                    sent,
                    0..words,
                    CopyEvents::none(),
                );
                if overlap {
                    fill(next, i);
                }
                img.cofence();
                if !overlap {
                    fill(next, i);
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        img.barrier(&w);
        dt
    });
    times[0]
}

fn main() {
    let iters = 3_000u64;
    let mut rows = Vec::new();
    for overlap in [false, true] {
        for words in [16usize, 256, 4096] {
            let inline = run(CommMode::Inline, overlap, iters, words);
            let thread = run(CommMode::DedicatedThread, overlap, iters, words);
            rows.push(vec![
                (if overlap { "overlap" } else { "no overlap" }).to_string(),
                format!("{} B", words * 8),
                format!("{:.1} ms", inline * 1e3),
                format!("{:.1} ms", thread * 1e3),
                format!("{:.2}x", thread / inline),
            ]);
        }
    }
    print_table(
        &format!("Comm-thread ablation ({iters} iterations of one copy_async, fill and cofence)"),
        &["loop", "payload", "inline (GASNet-like)", "dedicated comm thread", "dedicated / inline"],
        &rows,
    );
    println!(
        "no overlap: copy_async, cofence, then fill the sent buffer; nothing can overlap the \
         snapshot, so the ratio is the cost of handing the copy to the communication engine. \
         overlap: copy_async from one buffer, fill the other, then cofence; the dedicated \
         thread may snapshot while the producer fills (double buffering). A ratio below 1 \
         means the dedicated thread is faster."
    );
}
