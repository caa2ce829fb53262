//! Fail-stop failure tolerance, end to end on the threaded runtime: an
//! image dies (scheduled crash fault or uncaught panic) and every
//! survivor's launch returns `RuntimeError::ImageFailed` — never a hang,
//! never `Ok` — with the death identified, the detection latency
//! measured, and each survivor's parting construct named.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use caf_core::config::RuntimeConfig;
use caf_core::failure::FailureParams;
use caf_core::fault::{FaultPlan, RetryPolicy};
use caf_runtime::{CommMode, CopyEvents, LocalArray, Runtime, RuntimeError};

/// Heartbeat detection is wall-clock sensitive: several of these tests
/// launching 4+ image threads each *concurrently* can oversubscribe the
/// host enough to starve a healthy image past the aggressive detection
/// horizon, naming the wrong victim. Serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fast heartbeats but *wider* silence windows than
/// [`FailureParams::aggressive`]: a healthy image that the host
/// scheduler stalls for a few milliseconds must not be confirmed dead,
/// or the detector names the wrong victim. 25 ms of slack per window
/// keeps detection well under the watchdog bound while tolerating
/// realistic CI jitter.
fn tolerant_params() -> FailureParams {
    FailureParams {
        heartbeat_period: Duration::from_micros(500),
        suspect_after: Duration::from_millis(25),
        confirm_after: Duration::from_millis(25),
    }
}

fn failure_cfg(seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::testing();
    cfg.seed = seed;
    cfg.retry = RetryPolicy::aggressive();
    cfg.failure = Some(tolerant_params());
    cfg
}

/// A crash fault fired mid-`finish` is confirmed by heartbeat timeout and
/// every survivor aborts with a full report instead of hanging on the
/// termination allreduce.
#[test]
fn crash_during_finish_fails_every_survivor() {
    let _serial = serialize();
    let mut cfg = failure_cfg(0xFA11);
    cfg.faults = Some(FaultPlan::none(cfg.seed).with_crash(1, 40));
    let t0 = Instant::now();
    let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(4, cfg, |img| {
        let w = img.world();
        let counters = img.coarray(&w, 1, 0i64);
        img.finish(&w, |img| {
            // Enough traffic that image 1's crash point (wire seq 40)
            // fires while the block is open on every image.
            for round in 0..200 {
                let target = img.image((img.id().index() + 1 + round % 3) % img.num_images());
                let c = counters.clone();
                img.spawn(target, move |peer| {
                    c.with_local(peer.id(), |seg| seg[0] += 1);
                });
            }
        });
        unreachable!("finish with a crashed member must never complete");
    });
    let elapsed = t0.elapsed();
    let report = match out {
        Err(RuntimeError::ImageFailed(r)) => r,
        other => panic!("crashed member must fail the launch, got {other:?}"),
    };
    assert_eq!(report.image, 1, "the scheduled victim must be named: {report}");
    assert_eq!(report.incarnation, 1);
    let latency = report.detection_latency.expect("fabric saw the crash fire");
    let horizon = tolerant_params().detection_horizon();
    assert!(
        latency < horizon + Duration::from_secs(2),
        "detection latency {latency:?} beyond horizon {horizon:?}"
    );
    assert!(
        elapsed < horizon * 20 + Duration::from_secs(5),
        "failure detection took {elapsed:?} — this is supposed to beat a watchdog"
    );
    assert!(report.panic.is_none(), "a crash fault is not a panic");
    assert!(report.fabric.crash_drops > 0, "the dead image's traffic must be destroyed: {report}");
    // Every survivor (not the victim) files an observation, each from a
    // real blocking construct.
    let who: Vec<usize> = report.observers.iter().map(|o| o.image).collect();
    assert_eq!(who, vec![0, 2, 3], "all survivors and only survivors: {report}");
    for obs in &report.observers {
        assert!(
            [
                "finish",
                "barrier",
                "collective",
                "send",
                "event_wait",
                "copy",
                "cofence",
                "shutdown"
            ]
            .contains(&obs.construct),
            "unknown construct {:?}",
            obs.construct
        );
    }
}

/// With the no-progress watchdog armed too, a crash still ends in
/// `ImageFailed`: both detectors feed one abort path, and a registered
/// death outranks a stall.
#[test]
fn crash_with_watchdog_armed_is_image_failed_not_stalled() {
    let _serial = serialize();
    let mut cfg = failure_cfg(0xFA14);
    cfg.watchdog = Some(Duration::from_secs(1));
    cfg.faults = Some(FaultPlan::none(cfg.seed).with_crash(2, 30));
    let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(4, cfg, |img| {
        let w = img.world();
        let counters = img.coarray(&w, 1, 0i64);
        img.finish(&w, |img| {
            for round in 0..200 {
                let target = img.image((img.id().index() + 1 + round % 3) % img.num_images());
                let c = counters.clone();
                img.spawn(target, move |peer| {
                    c.with_local(peer.id(), |seg| seg[0] += 1);
                });
            }
        });
        unreachable!("finish with a crashed member must never complete");
    });
    let report = match out {
        Err(RuntimeError::ImageFailed(r)) => r,
        other => panic!("a crash under both detectors must fail the launch, got {other:?}"),
    };
    assert_eq!(report.image, 2, "the scheduled victim must be named: {report}");
    let who: Vec<usize> = report.observers.iter().map(|o| o.image).collect();
    assert_eq!(who, vec![0, 1, 3], "all survivors and only survivors: {report}");
}

/// An uncaught panic in the image closure is caught at the image
/// boundary, translated into the same fail-stop verdict, and carries the
/// panic message. Shutdown stays idempotent: survivors drain and join.
#[test]
fn panicking_image_becomes_image_failed() {
    let _serial = serialize();
    let cfg = failure_cfg(0xFA12);
    let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(3, cfg, |img| {
        let w = img.world();
        if img.id().index() == 2 {
            panic!("deliberate test panic");
        }
        img.barrier(&w);
    });
    let report = match out {
        Err(RuntimeError::ImageFailed(r)) => r,
        other => panic!("panicking image must fail the launch, got {other:?}"),
    };
    assert_eq!(report.image, 2);
    let msg = report.panic.as_deref().expect("panic message captured");
    assert!(msg.contains("deliberate test panic"), "got {msg:?}");
    let who: Vec<usize> = report.observers.iter().map(|o| o.image).collect();
    assert_eq!(who, vec![0, 1], "both survivors observe the death: {report}");
}

/// Without failure detection configured, a panic propagates exactly as
/// before — the fail-stop boundary must not change existing behavior.
#[test]
#[should_panic(expected = "plain panic propagates")]
fn panic_propagates_without_failure_detection() {
    let _serial = serialize();
    let _ = Runtime::launch(2, RuntimeConfig::testing(), |img| {
        // Every image panics (a lone survivor would block in the final
        // shutdown barrier — there is nothing watching in this config).
        panic!("plain panic propagates from image {}", img.id().index());
    });
}

/// The same crash is detected deterministically across seeds: every run
/// fails (never hangs, never returns Ok) and names the same victim.
#[test]
fn crash_verdict_is_stable_across_seeds() {
    let _serial = serialize();
    for seed in [1u64, 2, 3, 0xDEAD, 0xBEEF] {
        let mut cfg = failure_cfg(seed);
        cfg.faults = Some(FaultPlan::none(seed).with_crash(0, 25));
        let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(3, cfg, |img| {
            let w = img.world();
            let counters = img.coarray(&w, 1, 0i64);
            img.finish(&w, |img| {
                for _ in 0..100 {
                    let target = img.image((img.id().index() + 1) % img.num_images());
                    let c = counters.clone();
                    img.spawn(target, move |peer| {
                        c.with_local(peer.id(), |seg| seg[0] += 1);
                    });
                }
            });
            unreachable!("finish with a crashed member must never complete");
        });
        match out {
            Err(RuntimeError::ImageFailed(r)) => {
                assert_eq!(r.image, 0, "seed {seed}: wrong victim: {r}");
            }
            other => panic!("seed {seed}: expected ImageFailed, got {other:?}"),
        }
    }
}

/// A crashed image also poisons *blocking event waits* — a survivor
/// parked in `event_wait` on a notification the dead image would have
/// sent unblocks with the failure verdict.
#[test]
fn event_wait_on_a_dead_notifier_unblocks() {
    let _serial = serialize();
    let mut cfg = failure_cfg(0xFA13);
    // Image 1 crashes almost immediately (before its notify's wire
    // transmission can be delivered — seq 0 arms on first traffic).
    cfg.faults = Some(FaultPlan::none(cfg.seed).with_crash(1, 0));
    let waited = AtomicUsize::new(0);
    let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(2, cfg, |img| {
        let ev = img.event();
        if img.id().index() == 0 {
            waited.fetch_add(1, Ordering::SeqCst);
            img.event_wait(ev); // nobody will ever notify
            unreachable!("the notifier is dead");
        }
        // Image 1: generate traffic until the crash point fires.
        loop {
            let e = img.event();
            img.spawn(img.image(0), move |_| {});
            img.event_try(e);
            std::thread::yield_now();
        }
    });
    assert_eq!(waited.load(Ordering::SeqCst), 1);
    match out {
        Err(RuntimeError::ImageFailed(r)) => {
            assert_eq!(r.image, 1);
            let obs: Vec<_> = r.observers.iter().map(|o| (o.image, o.construct)).collect();
            assert!(
                obs.contains(&(0, "event_wait")),
                "survivor must report the construct it was parked in: {r}"
            );
        }
        other => panic!("expected ImageFailed, got {other:?}"),
    }
}

/// A communication thread parked on a predicated copy's `preE`, whose
/// notifier died, must not hang the launch. The survivor unwinds out of
/// its `cofence`, and dropping its communication engine joins that
/// thread, so the thread gives its task up once the launch is coming
/// down. The launch runs on its own thread so a hang fails this test
/// instead of stalling the suite.
#[test]
fn comm_thread_waiting_on_a_dead_notifiers_pre_event_unblocks() {
    let _serial = serialize();
    let mut cfg = failure_cfg(0xFA15);
    cfg.comm_mode = CommMode::DedicatedThread;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(2, cfg, |img| {
            let w = img.world();
            let a = img.coarray(&w, 1, 0u64);
            let pre = img.coevent().on(img.image(0));
            if img.id().index() == 1 {
                // It would have notified image 0's `pre` remotely.
                panic!("the notifier dies first");
            }
            let src = LocalArray::new(vec![7u64]);
            let ev = CopyEvents { pre: Some(pre), ..CopyEvents::none() };
            img.copy_async_from(a.slice(img.image(1), 0..1), &src, 0..1, ev);
            img.cofence();
            unreachable!("the copy's predicate is never posted");
        });
        let _ = tx.send(out);
    });
    let out = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("launch hung: the comm thread still waits on a dead notifier's preE");
    match out {
        Err(RuntimeError::ImageFailed(r)) => {
            assert_eq!(r.image, 1, "the panicking notifier is the victim: {r}");
            let obs: Vec<_> = r.observers.iter().map(|o| (o.image, o.construct)).collect();
            assert_eq!(obs, vec![(0, "cofence")], "the survivor aborts in its cofence: {r}");
        }
        other => panic!("expected ImageFailed, got {other:?}"),
    }
}

/// A sender that never blocks must still fail-stop: image 0 spawns to
/// image 1 in a loop with no `finish`, barrier or wait, so the only place
/// it can learn of image 1's death is the failure check on its send path.
/// The launch runs on its own thread so a hang fails this test instead of
/// stalling the suite.
#[test]
fn a_sender_that_never_blocks_still_fail_stops() {
    let _serial = serialize();
    let mut cfg = failure_cfg(0xFA16);
    cfg.failure = Some(FailureParams::aggressive());
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let out: Result<Vec<()>, RuntimeError> = Runtime::try_launch(2, cfg, |img| {
            if img.id().index() == 1 {
                panic!("image 1 dies");
            }
            loop {
                img.spawn(img.image(1), |_| {});
            }
        });
        let _ = tx.send(out);
    });
    let out = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("launch hung: a sender that never blocks missed the death");
    match out {
        Err(RuntimeError::ImageFailed(r)) => {
            assert_eq!(r.image, 1, "the panicking image is the victim: {r}");
            let obs: Vec<_> = r.observers.iter().map(|o| (o.image, o.construct)).collect();
            assert_eq!(obs, vec![(0, "send")], "the survivor aborts on its send path: {r}");
        }
        other => panic!("expected ImageFailed, got {other:?}"),
    }
}
