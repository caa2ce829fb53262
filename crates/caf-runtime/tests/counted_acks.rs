//! Counted finish acknowledgements: a receiver owes one delivery count
//! per (sender, finish) and flushes it as a single `Ack { finish, count }`
//! when its drain ends, so a drain of `k` shipped functions costs one ack
//! message instead of `k`. These tests pin the message count on an
//! instant wire, the per-finish split, and the rule that an image flushes
//! what it owes before it parks, even inside a blocked handler.
//!
//! Spawns are aggregated per destination and leave at the sender's next
//! runtime entry, so a sender calls `progress` before it signals a peer
//! through a side channel the runtime does not see. Where a test needs
//! its spawns to arrive as separate messages, it calls `progress` after
//! each one, so each leaves in a frame of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::trace::{TraceEvent, TraceRecorder};
use caf_runtime::{Image, Runtime, RuntimeConfig};

fn traced() -> (RuntimeConfig, Arc<TraceRecorder>) {
    let rec = Arc::new(TraceRecorder::new());
    (RuntimeConfig { trace: Some(rec.clone()), ..RuntimeConfig::testing() }, rec)
}

/// The counts of the acks image 0 received, in arrival order, with the
/// finish each one belongs to.
fn acks_at_image_0(rec: &TraceRecorder) -> Vec<((u64, u64), u64)> {
    rec.snapshot()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Delivered { image: 0, finish, count } => Some((finish, count)),
            _ => None,
        })
        .collect()
}

/// Spins without entering the runtime until `flag` is set.
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

/// Image 0's side of a measured drain: serve acks inside the finish body
/// (so no wave traffic starts) until image 1 has taken its reading.
fn serve_until(img: &Image, flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        img.progress();
        std::hint::spin_loop();
    }
}

#[test]
fn one_drain_of_k_spawns_puts_one_ack_on_the_wire() {
    const K: u64 = 32;
    let (cfg, rec) = traced();
    let base = AtomicU64::new(0);
    let delta = AtomicU64::new(0);
    let (issued, measured) = (AtomicBool::new(false), AtomicBool::new(false));
    Runtime::launch(2, cfg, |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                base.store(img.fabric_stats().0, Ordering::Release);
                for _ in 0..K {
                    img.spawn(img.image(1), |_| {});
                    img.progress();
                }
                issued.store(true, Ordering::Release);
                serve_until(img, &measured);
            } else {
                spin_until(&issued);
                // The wire is instant: all K frames are due, so one drain
                // runs them all.
                assert!(img.progress());
                let sent = img.fabric_stats().0 - base.load(Ordering::Acquire);
                delta.store(sent, Ordering::Release);
                measured.store(true, Ordering::Release);
            }
        });
    });
    assert_eq!(delta.load(Ordering::Acquire), K + 1, "K spawns plus one counted ack");
    let acks = acks_at_image_0(&rec);
    assert_eq!(acks.len(), 1, "{acks:?}");
    assert_eq!(acks[0].1, K);
}

#[test]
fn owed_acks_for_two_finishes_leave_as_two_counts() {
    let (cfg, rec) = traced();
    let base = AtomicU64::new(0);
    let delta = AtomicU64::new(0);
    let (issued, measured) = (AtomicBool::new(false), AtomicBool::new(false));
    Runtime::launch(2, cfg, |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                base.store(img.fabric_stats().0, Ordering::Release);
                for _ in 0..3 {
                    img.spawn(img.image(1), |_| {});
                }
            }
            img.finish(&w, |img| {
                if img.id().index() == 0 {
                    for _ in 0..2 {
                        img.spawn(img.image(1), |_| {});
                    }
                    img.progress();
                    issued.store(true, Ordering::Release);
                    serve_until(img, &measured);
                } else {
                    spin_until(&issued);
                    assert!(img.progress());
                    let sent = img.fabric_stats().0 - base.load(Ordering::Acquire);
                    delta.store(sent, Ordering::Release);
                    measured.store(true, Ordering::Release);
                }
            });
        });
    });
    assert_eq!(delta.load(Ordering::Acquire), 5 + 2, "five spawns plus one ack per finish");
    let mut acks = acks_at_image_0(&rec);
    acks.sort_unstable();
    assert_eq!(acks.len(), 2, "{acks:?}");
    assert_ne!(acks[0].0, acks[1].0, "one count per finish");
    let mut counts: Vec<u64> = acks.iter().map(|a| a.1).collect();
    counts.sort_unstable();
    assert_eq!(counts, vec![2, 3]);
}

#[test]
fn blocked_handler_still_flushes_what_its_image_owes() {
    // Image 1 drains f1 with f2 due behind it (each in a frame of its
    // own), so f1's ack is still owed when f1 blocks in `event_wait`.
    // Image 0 notifies the event only once both acks have arrived, so the
    // run terminates only if image 1 flushes its owed acks from the
    // nested drain inside f1.
    let (cfg, rec) = traced();
    let (issued, stranded) = (AtomicBool::new(false), AtomicBool::new(false));
    Runtime::launch(2, cfg, |img| {
        let w = img.world();
        let ce = img.coevent();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                img.spawn(img.image(1), move |q| q.event_wait(ce.on(q.id())));
                img.progress();
                img.spawn(img.image(1), |_| {});
                img.progress();
                issued.store(true, Ordering::Release);
                let deadline = Instant::now() + Duration::from_secs(10);
                while acks_at_image_0(&rec).iter().map(|a| a.1).sum::<u64>() < 2 {
                    if Instant::now() > deadline {
                        // Release f1 anyway, so the run ends and the
                        // assertion below reports the failure.
                        stranded.store(true, Ordering::Release);
                        break;
                    }
                    img.progress();
                }
                img.event_notify(ce.on(img.image(1)));
            } else {
                spin_until(&issued);
            }
        });
    });
    assert!(!stranded.load(Ordering::Acquire), "owed acks never left the parked image");
}

#[test]
fn spawns_leave_no_cofence_pending_entries() {
    // A spawn is local-data complete at initiation, so a finish-only
    // program must not grow the cofence scope however much it ships.
    Runtime::launch(2, RuntimeConfig::testing(), |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                for _ in 0..1000 {
                    img.spawn(img.image(1), |_| {});
                }
                assert_eq!(img.pending_implicit_ops(), 0);
            }
        });
        assert_eq!(img.pending_implicit_ops(), 0);
    });
}
