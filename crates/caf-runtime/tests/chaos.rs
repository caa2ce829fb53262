//! Chaos acceptance tests: the runtime's user-visible semantics must be
//! bit-identical under a seeded fault plan (drops + duplicates + non-FIFO
//! reordering), and a fault plan that defeats the retry budget must end in
//! a clean `RuntimeError::Stalled` with diagnostics — never a hang and
//! never an early `finish` termination.

use std::time::{Duration, Instant};

use caf_core::config::{FaultPlan, RetryPolicy, RuntimeConfig};
use caf_runtime::{Runtime, RuntimeError};

/// Retry policy for chaos runs under a loaded test machine: quick first
/// retransmits, but a budget horizon (~460 ms) far beyond scheduling
/// noise, so only the fault plan — never a descheduled receiver — can
/// exhaust it.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_millis(2),
        backoff: 2,
        max_timeout: Duration::from_millis(50),
        max_retries: 12,
    }
}

/// The ISSUE's acceptance plan: ~1% drop, ~1% duplication, non-FIFO
/// delivery.
fn chaos_cfg(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        non_fifo: true,
        faults: Some(FaultPlan::uniform_drop(seed, 0.01).with_dup(0.01)),
        retry: test_retry(),
        watchdog: Some(Duration::from_secs(10)),
        ..RuntimeConfig::testing()
    }
}

/// All-to-all increments under `finish`, then a post-finish read and an
/// allreduce — exercises spawns, delivery acks, epoch waves, and
/// collectives in one workload. Returns per-image `(counter, total)`.
fn all_to_all_workload(n: usize, rounds: usize, cfg: RuntimeConfig) -> Vec<(i64, i64)> {
    Runtime::launch(n, cfg, |img| {
        let w = img.world();
        let counters = img.coarray(&w, 1, 0i64);
        img.finish(&w, |img| {
            for r in 0..img.num_images() {
                if r == img.id().index() {
                    continue;
                }
                for _ in 0..rounds {
                    let c = counters.clone();
                    img.spawn(img.image(r), move |peer| {
                        c.with_local(peer.id(), |seg| seg[0] += 1);
                    });
                }
            }
        });
        // finish guarantees every increment has executed — anywhere.
        let mine = counters.with_local(img.id(), |seg| seg[0]);
        img.barrier(&w); // keep fast images from starting teardown early
        let total = img.allreduce(&w, mine, |a, b| a + b);
        (mine, total)
    })
}

#[test]
fn finish_semantics_survive_one_percent_chaos() {
    let n = 4;
    let rounds = 25;
    let expect_mine = (rounds * (n - 1)) as i64;
    let expect_total = expect_mine * n as i64;
    for seed in [0xA11CE, 0xB0B, 0xCAFE] {
        let out = all_to_all_workload(n, rounds, chaos_cfg(seed));
        for (mine, total) in out {
            // An early finish termination would surface here as a short
            // count; a lost message as a short count; a double-delivered
            // spawn as an overshoot.
            assert_eq!(mine, expect_mine, "seed {seed:#x}: exactly-once violated");
            assert_eq!(total, expect_total, "seed {seed:#x}");
        }
    }
}

#[test]
fn chaos_results_match_the_clean_run_exactly() {
    let n = 4;
    let rounds = 10;
    let clean = all_to_all_workload(n, rounds, RuntimeConfig::testing());
    let chaotic = all_to_all_workload(n, rounds, chaos_cfg(0xD1CE));
    assert_eq!(clean, chaotic, "fault plan must be semantically invisible");
}

#[test]
fn watchdog_stays_quiet_while_the_retry_budget_holds() {
    // Much harsher than 1%: a fifth of the wire traffic vanishes. The
    // retry budget absorbs it, so try_launch must return Ok — the
    // watchdog firing here would violate the ISSUE's liveness property.
    let cfg = RuntimeConfig {
        non_fifo: true,
        faults: Some(FaultPlan::uniform_drop(77, 0.2).with_dup(0.1)),
        retry: test_retry(),
        watchdog: Some(Duration::from_secs(10)),
        ..RuntimeConfig::testing()
    };
    let out = Runtime::try_launch(3, cfg, |img| {
        let w = img.world();
        let counters = img.coarray(&w, 1, 0i64);
        img.finish(&w, |img| {
            let target = img.image((img.id().index() + 1) % img.num_images());
            for _ in 0..30 {
                let c = counters.clone();
                img.spawn(target, move |peer| {
                    c.with_local(peer.id(), |seg| seg[0] += 1);
                });
            }
        });
        let mine = counters.with_local(img.id(), |seg| seg[0]);
        img.barrier(&w);
        mine
    });
    assert_eq!(out.expect("watchdog fired within the retry budget"), vec![30, 30, 30]);
}

#[test]
fn nested_waits_of_one_image_are_not_a_stall() {
    // Image 0's `finish` wait runs a shipped function that blocks in
    // `event_wait`: two open waits, but one blocked image. Image 1 stays
    // in user code for four watchdog windows before it notifies, so the
    // team is never all blocked and the watchdog must stay quiet.
    let window = Duration::from_millis(150);
    let cfg = RuntimeConfig { watchdog: Some(window), ..RuntimeConfig::testing() };
    let out = Runtime::try_launch(2, cfg, |img| {
        let w = img.world();
        let ce = img.coevent();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                img.spawn(img.id(), move |me| me.event_wait(ce.on(me.id())));
            } else {
                std::thread::sleep(window * 4);
                img.event_notify(ce.on(img.image(0)));
            }
        });
    });
    assert!(out.is_ok(), "a running image was counted as blocked: {out:?}");
}

#[test]
fn exhausted_retry_budget_stalls_cleanly_within_the_window() {
    // Link 0→1 is a black hole: the spawned increment can never arrive,
    // so finish can never terminate. The retry budget exhausts after
    // ~exhaustion_horizon, the progress fingerprint goes flat, and the
    // watchdog must convert the would-be hang into RuntimeError::Stalled.
    let retry = RetryPolicy {
        ack_timeout: Duration::from_micros(500),
        backoff: 2,
        max_timeout: Duration::from_millis(5),
        max_retries: 5,
    };
    let window = Duration::from_millis(100);
    let budget = retry.exhaustion_horizon();
    let cfg = RuntimeConfig {
        faults: Some(FaultPlan::none(3).with_link(0, 1, 1.0)),
        retry,
        watchdog: Some(window),
        ..RuntimeConfig::testing()
    };
    let t0 = Instant::now();
    let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(2, cfg, |img| {
        let w = img.world();
        let counters = img.coarray(&w, 1, 0i64);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let c = counters.clone();
                img.spawn(img.image(1), move |peer| {
                    c.with_local(peer.id(), |seg| seg[0] += 1);
                });
            }
        });
        unreachable!("finish over a black-hole link must never complete");
    });
    let elapsed = t0.elapsed();
    let report = match out {
        Err(RuntimeError::Stalled(report)) => report,
        other => panic!("black-hole link must stall the launch, got {other:?}"),
    };
    // "Within the configured window": one retry horizon to give up, one
    // window to notice, plus scheduling slack — not an unbounded hang.
    assert!(
        elapsed < budget + window * 20 + Duration::from_secs(2),
        "stall detection took {elapsed:?} (budget {budget:?}, window {window:?})"
    );
    assert!(elapsed >= window, "cannot declare a stall before the window elapses");

    // The diagnostic dump names the failure at every layer.
    assert_eq!(report.window, window);
    assert_eq!(report.images.len(), 2, "both images must contribute diagnostics");
    assert!(report.fabric.retries_exhausted >= 1, "the abandoned spawn must be counted");
    assert!(report.fabric.wire_drops > 0);
    // Image 0 waits in `end finish` for the ack that never comes; image 1
    // has nothing outstanding and waits in the wave's allreduce for image
    // 0's contribution.
    let blocked: Vec<_> = report.images.iter().map(|r| (r.image, r.construct)).collect();
    assert_eq!(blocked, vec![(0, "finish"), (1, "collective")], "blocking constructs: {report}");
    let sender = &report.images[0];
    assert_eq!(sender.image, 0);
    // The spawn left image 0's aggregation buffer before it parked: the
    // report places it on the wire, not in a buffer.
    for r in &report.images {
        assert!(r.buffered.is_empty(), "image {} still buffers {:?}", r.image, r.buffered);
    }
    let diag = sender
        .finishes
        .iter()
        .find(|d| d.sent > 0)
        .expect("image 0's finish frame must show the un-delivered send");
    assert!(
        diag.delivered < diag.sent,
        "stalled finish must show sent {} > delivered {}",
        diag.sent,
        diag.delivered
    );
    let text = RuntimeError::Stalled(report).to_string();
    for needle in ["no progress", "image 0", "image 1", "finish("] {
        assert!(text.contains(needle), "missing {needle:?} in stall dump:\n{text}");
    }
}

#[test]
fn launch_panics_with_the_stall_dump() {
    let result = std::panic::catch_unwind(|| {
        let cfg = RuntimeConfig {
            faults: Some(FaultPlan::none(8).with_link(1, 0, 1.0)),
            retry: RetryPolicy {
                ack_timeout: Duration::from_micros(500),
                backoff: 2,
                max_timeout: Duration::from_millis(5),
                max_retries: 3,
            },
            watchdog: Some(Duration::from_millis(80)),
            ..RuntimeConfig::testing()
        };
        Runtime::launch(2, cfg, |img| {
            let w = img.world();
            let counters = img.coarray(&w, 1, 0i64);
            img.finish(&w, |img| {
                if img.id().index() == 1 {
                    let c = counters.clone();
                    img.spawn(img.image(0), move |peer| {
                        c.with_local(peer.id(), |seg| seg[0] += 1);
                    });
                }
            });
        })
    });
    let payload = result.expect_err("launch must panic on a stall");
    let msg = payload
        .downcast_ref::<String>()
        .expect("panic payload should be the formatted error");
    assert!(msg.contains("runtime stalled"), "unexpected panic message: {msg}");
}

/// Soak: the acceptance workload across many seeds, plus repeated
/// stall/recovery cycles. Minutes, not seconds — gated behind the
/// `chaos-stress` feature (see EXPERIMENTS.md).
#[test]
#[cfg_attr(not(feature = "chaos-stress"), ignore = "enable with --features chaos-stress")]
fn chaos_soak_across_seeds() {
    let n = 4;
    let rounds = 25;
    let expect_mine = (rounds * (n - 1)) as i64;
    let expect_total = expect_mine * n as i64;
    for seed in 0..16u64 {
        let out = all_to_all_workload(n, rounds, chaos_cfg(0x50AC << 16 | seed));
        for (mine, total) in out {
            assert_eq!(mine, expect_mine, "seed {seed}: exactly-once violated");
            assert_eq!(total, expect_total, "seed {seed}");
        }
    }
    // Stall path, repeatedly: every cycle must end in a clean report.
    for seed in 0..4u64 {
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(500),
            backoff: 2,
            max_timeout: Duration::from_millis(5),
            max_retries: 5,
        };
        let cfg = RuntimeConfig {
            faults: Some(FaultPlan::uniform_drop(seed, 0.05).with_link(0, 1, 1.0)),
            retry,
            watchdog: Some(Duration::from_millis(100)),
            ..RuntimeConfig::testing()
        };
        let out: Result<Vec<()>, _> = Runtime::try_launch(2, cfg, |img| {
            let w = img.world();
            let counters = img.coarray(&w, 1, 0i64);
            img.finish(&w, |img| {
                if img.id().index() == 0 {
                    let c = counters.clone();
                    img.spawn(img.image(1), move |peer| {
                        c.with_local(peer.id(), |seg| seg[0] += 1);
                    });
                }
            });
            unreachable!("finish over a black-hole link must never complete");
        });
        let report = match out {
            Err(RuntimeError::Stalled(r)) => r,
            other => panic!("seed {seed}: black-hole link must stall, got {other:?}"),
        };
        assert!(report.fabric.retries_exhausted >= 1, "seed {seed}: {report}");
    }
}
