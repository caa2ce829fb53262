//! Control messages stay outside finish accounting. Every runtime message
//! is an active message, but only the operations a program initiates
//! under a `finish` are counted (shipped functions, copy data): delivery
//! acks, remote event notifies, collective hops and copy completion
//! replies travel as uncounted AMs. So one traced finish shows exactly
//! the program's own operations as `Send`, `Receive` and `Complete`.

use std::sync::Arc;
use std::time::Duration;

use caf_core::trace::{TraceEvent, TraceRecorder};
use caf_runtime::{CommMode, CopyEvents, NetworkModel, Runtime, RuntimeConfig};

/// Plain spawns per image.
const K: usize = 5;
const IMAGES: usize = 3;

/// One finish on three images. Each image ships `K` spawns and one
/// `spawn_notify` to its right neighbour, notifies an event there, copies
/// a word there with a `destE` on that neighbour, waits for the
/// `spawn_notify` event, and takes a barrier inside the body. Returns
/// the trace and, per image, its stamp, what it read in its neighbour's
/// segment once the `spawn_notify` event was posted, and the word its
/// left neighbour's copy landed.
fn one_traced_finish(base: RuntimeConfig) -> (Vec<TraceEvent>, Vec<[u64; 3]>) {
    let rec = Arc::new(TraceRecorder::new());
    let cfg = RuntimeConfig { trace: Some(rec.clone()), ..base };
    let seen = Runtime::launch(IMAGES, cfg, |img| {
        let w = img.world();
        let me = img.id();
        let right = img.image((me.index() + 1) % IMAGES);
        let data = img.coarray(&w, 3, 0u64);
        let notified = img.coevent();
        let landed = img.coevent();
        let shipped = img.event();
        let stamp = me.index() as u64 + 1;
        data.with_local(me, |seg| seg[2] = stamp);
        let seen = img.finish(&w, |img| {
            for _ in 0..K {
                img.spawn(right, |_| {});
            }
            let d = data.clone();
            img.spawn_notify(right, shipped, move |peer| {
                // The check below holds at any timing; the delay only
                // lets an event posted before the write be seen, by
                // giving the sender time to read the old value.
                std::thread::sleep(Duration::from_millis(2));
                d.with_local(peer.id(), |seg| seg[0] = stamp);
            });
            img.event_notify(notified.on(right));
            img.copy_async(
                data.slice(right, 1..2),
                data.slice(me, 2..3),
                CopyEvents::on_dest(landed.on(right)),
            );
            img.event_wait(shipped);
            let seen = data.with_segment(right, |seg| seg[0]);
            img.barrier(&w);
            seen
        });
        img.event_wait(notified.on(me));
        img.event_wait(landed.on(me));
        [stamp, seen, data.with_local(me, |seg| seg[1])]
    });
    (rec.snapshot(), seen)
}

fn assert_only_operations_counted((events, seen): (Vec<TraceEvent>, Vec<[u64; 3]>)) {
    for (image, [stamp, shipped, landed]) in seen.into_iter().enumerate() {
        assert_eq!(shipped, stamp, "image {image}: spawn_notify's event beat its write");
        assert_eq!(landed, (image + IMAGES - 1) as u64 % IMAGES as u64 + 1);
    }
    for image in 0..IMAGES {
        let sends = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { image: i, .. } if *i == image))
            .count();
        // K spawns, the spawn_notify and the copy's data AM; the event
        // notify, the barrier's hops, the copy's completion reply and
        // the delivery acks are control messages.
        assert_eq!(sends, K + 2, "image {image} counted {sends} sends");
    }
    let count = |pick: fn(&TraceEvent) -> bool| events.iter().filter(|e| pick(e)).count();
    let sends = count(|e| matches!(e, TraceEvent::Send { .. }));
    let receives = count(|e| matches!(e, TraceEvent::Receive { .. }));
    let completes = count(|e| matches!(e, TraceEvent::Complete { .. }));
    assert_eq!(sends, IMAGES * (K + 2));
    assert_eq!(receives, sends, "every counted message is received once");
    assert_eq!(completes, sends, "every counted message completes once");
}

#[test]
fn control_messages_are_uncounted_inline() {
    assert_only_operations_counted(one_traced_finish(RuntimeConfig::testing()));
}

#[test]
fn control_messages_are_uncounted_with_a_comm_thread_and_latency() {
    let base = RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel { latency: Duration::from_micros(200), ..NetworkModel::instant() },
        non_fifo: true,
        ..RuntimeConfig::testing()
    };
    assert_only_operations_counted(one_traced_finish(base));
}
