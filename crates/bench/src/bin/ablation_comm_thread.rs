//! **Ablation**: dedicated communication thread vs. inline communication
//! (paper §III-B's discussion).
//!
//! GASNet completes local data before a non-blocking call returns, which
//! leaves `cofence` nothing to overlap; the paper proposes dedicating a
//! communication thread per image (viable on BG/Q- and MIC-class nodes).
//! This ablation measures the producer loop under both modes: with
//! `CommMode::Inline` the snapshot happens at initiation, so cofence
//! degenerates; with `CommMode::DedicatedThread` initiation is a cheap
//! enqueue and the producer overlaps the snapshot with its next
//! `produce`.

use std::time::Instant;

use bench::print_table;
use caf_runtime::{CommMode, CopyEvents, NetworkModel, Runtime, RuntimeConfig};

fn run(mode: CommMode, iters: u64, words: usize) -> f64 {
    let cfg = RuntimeConfig {
        comm_mode: mode,
        network: NetworkModel::slow_cluster(),
        ..RuntimeConfig::default()
    };
    let p = 4;
    let times = Runtime::launch(p, cfg, |img| {
        let w = img.world();
        let dst = img.coarray(&w, words, 0u64);
        let src = caf_runtime::LocalArray::new(vec![1u64; words]);
        img.barrier(&w);
        let t0 = Instant::now();
        if img.id().index() == 0 {
            for i in 0..iters {
                let target = img.image(1 + (i as usize % (p - 1)));
                img.copy_async_from(
                    dst.slice(target, 0..words),
                    &src,
                    0..words,
                    CopyEvents::none(),
                );
                img.cofence();
                // "produce": touch the whole buffer.
                src.with(|b| {
                    for v in b.iter_mut() {
                        *v = v.wrapping_mul(31).wrapping_add(i);
                    }
                });
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
    for words in [16usize, 256, 4096] {
        let inline = run(CommMode::Inline, iters, words);
        let thread = run(CommMode::DedicatedThread, iters, words);
        rows.push(vec![
            format!("{} B", words * 8),
            format!("{:.1} ms", inline * 1e3),
            format!("{:.1} ms", thread * 1e3),
            format!("{:.2}x", inline / thread),
        ]);
    }
    print_table(
        &format!("Comm-thread ablation ({iters} iterations of copy_async + cofence + produce)"),
        &["payload", "inline (GASNet-like)", "dedicated comm thread", "speedup"],
        &rows,
    );
    println!(
        "With inline communication the initiating thread pays the snapshot+injection before \
         returning; the dedicated thread overlaps it with the next produce — the paper's \
         motivation for communication offload on many-thread nodes."
    );
}
