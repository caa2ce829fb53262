//! Paper Fig. 5 across the whole stack: barrier-based termination
//! detection misses transitively shipped functions; `finish` does not.
//!
//! Exercised on two substrates: on `caf-check`'s protocol world under
//! the seeded timed scheduler, and on the real threaded runtime under
//! latency and message reordering.

use caf2::{CommMode, NetworkModel, Runtime, RuntimeConfig};
use caf_check::mutation::Family;
use caf_check::scenario::{node, Scenario};
use caf_check::timed::{self, Timing};
use caf_check::ViolationKind;
use std::time::Duration;

/// Abstract machine: the exact p → q → r schedule of Fig. 5.
#[test]
fn barrier_misses_f2_on_the_abstract_machine() {
    let scenario =
        Scenario { images: 3, roots: vec![(0, node(1, vec![node(2, vec![])]))], crash: None };
    let timing = Timing { net_delay: 1, ack_delay: 1, exec_delay: 5, ..Timing::default() };
    let run = timed::run(&scenario, Family::Barrier, &timing);
    assert_eq!(
        run.violation.map(|v| v.kind),
        Some(ViolationKind::Safety),
        "the barrier strawman should declare termination early"
    );
    assert!(run.world.outstanding() > 0);
    // finish on the identical schedule is sound (waves() panics otherwise)
    // and fast: L = 2 → at most 3 waves.
    let waves = timed::run(&scenario, Family::EpochStrict, &timing).waves();
    assert!(waves <= 3);
}

/// Threaded runtime: after `end finish`, the transitively shipped
/// effect must be visible, under real latency and non-FIFO delivery.
#[test]
fn finish_sees_transitive_effects_on_the_runtime() {
    let cfg = RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel { latency: Duration::from_micros(500), ..NetworkModel::instant() },
        non_fifo: true,
        ..RuntimeConfig::default()
    };
    let seen = Runtime::launch(3, cfg, |img| {
        let w = img.world();
        let flags = img.coarray(&w, 1, 0u8);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let f = flags.clone();
                img.spawn(img.image(1), move |q| {
                    std::thread::sleep(Duration::from_millis(3));
                    let f2 = f.clone();
                    q.spawn(q.image(2), move |r| {
                        std::thread::sleep(Duration::from_millis(3));
                        f2.with_local(r.id(), |seg| seg[0] = 1);
                    });
                });
            }
        });
        // Immediately after end finish — no extra barrier — the flag
        // must be set on image 2 and visible to it.
        flags.read(img.id(), 0..1)[0]
    });
    assert_eq!(seen[2], 1, "finish returned before f2 completed");
}

/// Deep spawn chains: the wave count respects Theorem 1 end-to-end.
#[test]
fn deep_chain_waves_bounded_on_the_runtime() {
    let n = 4;
    let depth = 6usize;
    let waves = Runtime::launch(n, RuntimeConfig::testing(), |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                fn hop(img: &caf2::Image, left: usize) {
                    if left == 0 {
                        return;
                    }
                    let next = img.image((img.id().index() + 1) % img.num_images());
                    img.spawn(next, move |p| hop(p, left - 1));
                }
                hop(img, depth);
            }
        });
        img.last_finish_waves()
    });
    for w in waves {
        assert!(w <= depth + 1, "L={depth} but {w} waves used");
        assert!(w >= 1);
    }
}
