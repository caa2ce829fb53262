//! Per-destination aggregation of shipped functions: an image thread's
//! active messages to one destination leave as one wire frame, and the
//! receiver runs the frame's messages from a local run queue. These tests
//! pin the frame count and size, re-entrancy (a handler that blocks
//! inside a frame must not strand the rest of it), once-per-message
//! completion events, and the wire-ack frames one drain costs. They read
//! the fabric's frame and ack counters, which the public API does not
//! expose.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::trace::{TraceEvent, TraceRecorder};
use caf_net::FabricTotals;

use super::{frame_cap_ams, Image, FRAME_CAP_BYTES, SPAWN_NOMINAL_BYTES};
use crate::{CommMode, FailureParams, NetworkModel, Runtime, RuntimeConfig};

/// A configuration whose watchdog turns a hang into an error.
fn guarded() -> RuntimeConfig {
    RuntimeConfig { watchdog: Some(Duration::from_secs(5)), ..RuntimeConfig::testing() }
}

/// Every fabric counter, wire frames included.
fn totals(img: &Image) -> FabricTotals {
    img.shared.fabric.stats().snapshot()
}

/// Spins without entering the runtime until `flag` is set.
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

#[test]
fn a_handler_blocked_on_a_later_message_of_its_frame_is_released() {
    // f1 waits on an event that only f2, the next message of the same
    // frame, notifies. The nested progress loop inside f1's `event_wait`
    // must run f2 from the run queue.
    let (frames, messages) = (AtomicU64::new(0), AtomicU64::new(0));
    let issued = AtomicBool::new(false);
    let ran = AtomicUsize::new(0);
    let out = Runtime::try_launch(2, guarded(), |img| {
        let w = img.world();
        let ce = img.coevent();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let before = totals(img);
                img.spawn(img.image(1), move |q| q.event_wait(ce.on(q.id())));
                img.spawn(img.image(1), move |q| q.event_notify(ce.on(q.id())));
                img.progress();
                let after = totals(img);
                frames.store(after.frames - before.frames, Ordering::Release);
                messages.store(after.messages - before.messages, Ordering::Release);
                issued.store(true, Ordering::Release);
            } else {
                // Stay out of the runtime until both are on the wire, so
                // nothing else is sent meanwhile.
                spin_until(&issued);
            }
        });
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert!(out.is_ok(), "the blocked handler was never released: {out:?}");
    assert_eq!(ran.load(Ordering::Relaxed), 2);
    assert_eq!(frames.load(Ordering::Acquire), 1, "both functions rode one frame");
    assert_eq!(messages.load(Ordering::Acquire), 2, "and count as two logical messages");
}

#[test]
fn spawn_notify_fires_once_per_message_of_a_frame() {
    const K: usize = 10;
    let runs = Arc::new(AtomicUsize::new(0));
    let extra = AtomicBool::new(false);
    let out = Runtime::try_launch(2, guarded(), |img| {
        let w = img.world();
        if img.id().index() == 0 {
            let ev = img.event();
            for _ in 0..K {
                let runs = Arc::clone(&runs);
                img.spawn_notify(img.image(1), ev, move |_| {
                    runs.fetch_add(1, Ordering::Relaxed);
                });
            }
            for _ in 0..K {
                img.event_wait(ev);
            }
            // Every notification was consumed; a duplicate would show up
            // once the peer has drained everything.
            img.barrier(&w);
            extra.store(img.event_try(ev), Ordering::Relaxed);
        } else {
            img.barrier(&w);
        }
        img.barrier(&w);
    });
    assert!(out.is_ok(), "{out:?}");
    assert_eq!(runs.load(Ordering::Relaxed), K);
    assert!(!extra.load(Ordering::Relaxed), "a completion event fired twice");
}

#[test]
fn a_full_buffer_leaves_without_a_runtime_entry() {
    // 64 nominal 64-byte spawns fill two 2 KiB frames; both leave from
    // inside `spawn`, before the sender polls.
    let sent = AtomicU64::new(0);
    let issued = AtomicBool::new(false);
    let out = Runtime::try_launch(2, guarded(), |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let before = totals(img);
                for _ in 0..64 {
                    img.spawn(img.image(1), |_| {});
                }
                let after = totals(img);
                sent.store(after.frames - before.frames, Ordering::Release);
                issued.store(true, Ordering::Release);
            } else {
                spin_until(&issued);
            }
        });
    });
    assert!(out.is_ok(), "{out:?}");
    assert_eq!(sent.load(Ordering::Acquire), 2);
}

#[test]
fn an_ack_never_overtakes_an_earlier_buffered_spawn() {
    // Image 0 buffers g for image 1, then drains f from image 1 and owes
    // an ack for it. The flush puts g on the (FIFO, instant) wire before
    // the ack, so image 1 receives g before it learns f was delivered:
    // by the time the ack can make image 1 ready for a wave, g is
    // already counted there.
    let rec = Arc::new(TraceRecorder::new());
    let cfg = RuntimeConfig { trace: Some(rec.clone()), ..guarded() };
    let f_sent = AtomicBool::new(false);
    let out = Runtime::try_launch(2, cfg, |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 1 {
                img.spawn(img.image(0), |_| {});
                img.progress();
                f_sent.store(true, Ordering::Release);
            } else {
                img.spawn(img.image(1), |_| {});
                spin_until(&f_sent);
                assert!(img.progress(), "f is due");
            }
        });
    });
    assert!(out.is_ok(), "{out:?}");
    let at_1: Vec<&'static str> = rec
        .snapshot()
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Receive { image: 1, .. } => Some("receive g"),
            TraceEvent::Delivered { image: 1, .. } => Some("ack of f"),
            _ => None,
        })
        .collect();
    assert_eq!(at_1, vec!["receive g", "ack of f"]);
}

#[test]
fn a_drain_of_32_spawns_rides_the_fewest_frames_the_cap_allows() {
    const K: usize = 32;
    let frames = AtomicU64::new(0);
    let issued = AtomicBool::new(false);
    let out = Runtime::try_launch(2, guarded(), |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let before = totals(img);
                for _ in 0..K {
                    img.spawn(img.image(1), |_| {});
                }
                img.progress();
                frames.store(totals(img).frames - before.frames, Ordering::Release);
                issued.store(true, Ordering::Release);
            } else {
                spin_until(&issued);
            }
        });
    });
    assert!(out.is_ok(), "{out:?}");
    let bound = (K * SPAWN_NOMINAL_BYTES).div_ceil(FRAME_CAP_BYTES) as u64;
    let frames = frames.load(Ordering::Acquire);
    assert!(frames <= bound, "{frames} frames for {K} spawns, at most {bound} expected");
}

#[test]
fn one_drain_of_k_frames_costs_at_most_one_wire_ack_frame_per_link() {
    // With detection on, every remote frame rides the reliable layer and
    // owes its link a wire ack. Image 0 puts K spawns on the wire as K
    // frames and then stays out of the runtime; image 1 drains them all
    // at once. `Image::flush` is the only place the owed wire acks leave
    // from, so the drain sends at most one standalone ack frame on its
    // one inbound link (none when the counted ack carries it).
    const K: usize = 16;
    let failure = FailureParams {
        heartbeat_period: Duration::from_millis(1),
        suspect_after: Duration::from_secs(2),
        confirm_after: Duration::from_secs(2),
    };
    let cfg = RuntimeConfig { failure: Some(failure), ..guarded() };
    let acks = AtomicU64::new(u64::MAX);
    let (issued, measured) = (AtomicBool::new(false), AtomicBool::new(false));
    let out = Runtime::try_launch(2, cfg, |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                for _ in 0..K {
                    img.spawn(img.image(1), |_| {});
                    img.progress();
                }
                issued.store(true, Ordering::Release);
                spin_until(&measured);
            } else {
                spin_until(&issued);
                let before = totals(img).acks;
                assert!(img.progress(), "the K frames are due");
                acks.store(totals(img).acks - before, Ordering::Release);
                measured.store(true, Ordering::Release);
            }
        });
    });
    assert!(out.is_ok(), "{out:?}");
    let acks = acks.load(Ordering::Acquire);
    assert!(acks <= 1, "{acks} standalone wire-ack frames for one drain of {K} frames");
}

#[test]
fn a_shipped_function_waiting_inside_a_finish_wave_completes() {
    // Image 0 ships h1 to image 1 once image 1 is in the finish's first
    // wave. Image 1 acks h1 before running it, so image 0 can enter and
    // leave that wave while h1 sleeps. h1 then ships g to image 0, g
    // ships h2 back, and h1 blocks in `event_wait` until h2 notifies.
    // Image 1 cannot leave its wave while h1 is on its stack, so h2 must
    // run from inside that wait although image 0 sent it a wave later.
    let pause = Duration::from_millis(30);
    let out = Runtime::try_launch(2, guarded(), |img| {
        let w = img.world();
        let ce = img.coevent();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                std::thread::sleep(pause);
                img.spawn(img.image(1), move |a| {
                    std::thread::sleep(pause);
                    a.spawn(a.image(0), move |s| {
                        s.spawn(s.image(1), move |a| a.event_notify(ce.on(a.id())));
                    });
                    a.event_wait(ce.on(a.id()));
                });
            }
        });
    });
    assert!(out.is_ok(), "{out:?}");
}

#[test]
fn the_frame_cap_follows_the_inbox_credit() {
    assert_eq!(frame_cap_ams(None), 32);
    assert_eq!(frame_cap_ams(Some(512)), 32);
    assert_eq!(frame_cap_ams(Some(256)), 16);
    assert_eq!(frame_cap_ams(Some(8)), 1);
    assert_eq!(frame_cap_ams(Some(1)), 1);
}

#[test]
fn a_small_inbox_credit_is_overshot_by_less_than_one_frame() {
    // Image 1 stays out of the runtime while image 0 spawns 64 AMs at it
    // under an 8-message credit. Flow control refuses image 0 once the
    // depth reaches the credit; the last admitted frame may overshoot it
    // by its size minus one. At this credit a frame carries one AM, so
    // the depth stops at the credit itself (a 32-AM frame would take it
    // to 32).
    const CAP: usize = 8;
    let cfg = RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel { inbox_capacity: Some(CAP), ..NetworkModel::instant() },
        ..guarded()
    };
    let depth = AtomicUsize::new(0);
    let out = Runtime::try_launch(2, cfg, |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                for _ in 0..64 {
                    img.spawn(img.image(1), |_| {});
                }
            } else {
                let deadline = Instant::now() + Duration::from_secs(5);
                while totals(img).backpressure_stalls == 0 && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                depth.store(img.shared.fabric.inbox_depth(img.id()), Ordering::Release);
            }
        });
    });
    assert!(out.is_ok(), "{out:?}");
    assert_eq!(depth.load(Ordering::Acquire), CAP);
}
