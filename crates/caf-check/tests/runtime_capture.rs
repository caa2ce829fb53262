//! Closing the model/implementation loop: run the real threaded runtime
//! with a [`TraceRecorder`] installed, then validate the captured protocol
//! trace with the same replica-replay oracle the model checker uses.
//!
//! The runtime records what its per-image detectors were actually told
//! (sends with parities, counted delivery acks, receptions, completions,
//! wave entries/exits with contributions and sums); `caf_check::capture`
//! re-derives every one of those values from a fresh detector bank and
//! rejects any divergence. A passing run is evidence the runtime's finish
//! wiring and the checked model are the same protocol.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use caf_check::capture;
use caf_core::config::{NetworkModel, RuntimeConfig};
use caf_core::trace::{TraceEvent, TraceRecorder};
use caf_runtime::Runtime;

fn traced_config() -> (RuntimeConfig, Arc<TraceRecorder>) {
    let rec = Arc::new(TraceRecorder::new());
    let cfg = RuntimeConfig { trace: Some(rec.clone()), ..RuntimeConfig::testing() };
    (cfg, rec)
}

#[test]
fn single_spawn_capture_validates() {
    let (cfg, rec) = traced_config();
    Runtime::launch(3, cfg, |img| {
        let w = img.world();
        let cells = img.coarray(&w, 1, 0u64);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let c = cells.clone();
                img.spawn(img.image(1), move |p| {
                    c.with_local(p.id(), |seg| seg[0] = 7);
                });
            }
        });
    });
    let events = rec.snapshot();
    assert!(!events.is_empty(), "the traced finish recorded nothing");
    let report = capture::validate(&events)
        .unwrap_or_else(|v| panic!("capture rejected: {} — {}", v.kind.name(), v.detail));
    assert_eq!(report.finishes, 1);
    assert!(report.waves >= 1, "a non-empty finish closes at least one wave");
}

#[test]
fn transitive_spawn_chain_capture_validates() {
    // The Fig. 5 shape (p → q → r) under real latency and non-FIFO
    // delivery: the linearization the recorder happens to serialize must
    // still replay cleanly through the replica detectors.
    let (base, rec) = traced_config();
    let cfg = RuntimeConfig {
        network: NetworkModel { latency: Duration::from_micros(200), ..NetworkModel::instant() },
        comm_mode: caf_core::config::CommMode::DedicatedThread,
        non_fifo: true,
        ..base
    };
    Runtime::launch(3, cfg, |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                img.spawn(img.image(1), move |q| {
                    q.spawn(q.image(2), move |_r| {
                        std::thread::sleep(Duration::from_millis(1));
                    });
                });
            }
        });
    });
    let report = capture::validate(&rec.snapshot())
        .unwrap_or_else(|v| panic!("capture rejected: {} — {}", v.kind.name(), v.detail));
    assert_eq!(report.finishes, 1);
}

#[test]
fn back_to_back_finishes_validate_per_block() {
    let (cfg, rec) = traced_config();
    Runtime::launch(2, cfg, |img| {
        let w = img.world();
        for _ in 0..3 {
            img.finish(&w, |img| {
                if img.id().index() == 0 {
                    img.spawn(img.image(1), |_p| {});
                }
            });
        }
    });
    let report = capture::validate(&rec.snapshot())
        .unwrap_or_else(|v| panic!("capture rejected: {} — {}", v.kind.name(), v.detail));
    assert_eq!(report.finishes, 3, "each dynamic finish block validates separately");
    assert!(report.waves >= 3);
}

#[test]
fn burst_of_spawns_on_one_link_validates() {
    // 64 spawns from image 0 to image 1 under one finish, drained by
    // image 1 in bursts: its counted acks cover many deliveries each, and
    // the replica must apply every one of them to image 0's detector.
    let (cfg, rec) = traced_config();
    let issued = Arc::new(AtomicBool::new(false));
    Runtime::launch(2, cfg, move |img| {
        let w = img.world();
        let hits = img.coarray(&w, 1, 0u64);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                for _ in 0..64 {
                    let h = hits.clone();
                    img.spawn(img.image(1), move |p| h.with_local(p.id(), |seg| seg[0] += 1));
                }
                issued.store(true, Ordering::Release);
            } else {
                // Stay out of the runtime until every spawn is queued, so
                // the end-finish drain sees them together.
                while !issued.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            }
        });
        if img.id().index() == 1 {
            assert_eq!(hits.read(img.id(), 0..1), vec![64]);
        }
    });
    let events = rec.snapshot();
    let counts: Vec<u64> = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Delivered { image: 0, count, .. } => Some(count),
            _ => None,
        })
        .collect();
    assert_eq!(counts.iter().sum::<u64>(), 64, "every delivery acked exactly once");
    assert!(counts.len() < 64, "the drain coalesced acks: {counts:?}");
    let report = capture::validate(&events)
        .unwrap_or_else(|v| panic!("capture rejected: {} — {}", v.kind.name(), v.detail));
    assert_eq!(report.finishes, 1);
}
