//! Property tests on the fabric: reliability (no loss, no duplication),
//! FIFO behaviour when reordering is off, bounded reordering when on, and
//! exactly-once delivery under randomized fault schedules.

use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::config::{FaultPlan, NetworkModel, RetryPolicy};
use caf_core::ids::ImageId;
use caf_net::Fabric;
use proptest::prelude::*;

/// One receive under the runtime's flush rule: when the drain ends (no
/// further frame due, or nothing surfaced), flush the wire acks `to`
/// owes.
fn poll(f: &Fabric<u64>, to: ImageId) -> Option<u64> {
    let got = f.try_recv(to);
    if got.is_none_or(|(_, more_due)| !more_due) {
        f.flush_acks(to);
    }
    got.map(|(v, _)| v)
}

/// Receives the way the runtime does: `poll`, park in `wait_activity`
/// until something happens or `deadline` passes.
fn recv(f: &Fabric<u64>, to: ImageId, deadline: Instant) -> Option<u64> {
    loop {
        if let Some(v) = poll(f, to) {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        f.wait_activity(to, deadline);
    }
}

fn drain(f: &Fabric<u64>, to: ImageId, n: usize) -> Vec<u64> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match recv(f, to, deadline) {
            Some(v) => out.push(v),
            None => panic!("timed out after {} of {n} messages", out.len()),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every message sent is delivered exactly once, whatever the mix of
    /// senders, sizes, and latencies.
    #[test]
    fn no_loss_no_duplication(
        sends in prop::collection::vec((0usize..4, 0usize..512), 1..120),
        latency_us in 0u64..3,
        non_fifo in any::<bool>(),
    ) {
        let model = NetworkModel {
            latency: Duration::from_micros(latency_us),
            inbox_capacity: None,
            ..NetworkModel::instant()
        };
        let f: Arc<Fabric<u64>> = Fabric::new(5, model, non_fifo);
        for (i, &(from, bytes)) in sends.iter().enumerate() {
            f.send_unthrottled(ImageId(from), ImageId(4), bytes, i as u64);
        }
        let mut got = drain(&f, ImageId(4), sends.len());
        got.sort_unstable();
        prop_assert_eq!(got, (0..sends.len() as u64).collect::<Vec<_>>());
        prop_assert_eq!(f.stats().snapshot().messages, sends.len() as u64);
    }

    /// With reordering disabled and equal sizes, same-pair messages are
    /// FIFO.
    #[test]
    fn fifo_when_ordered(count in 1usize..100, latency_us in 0u64..2) {
        let model = NetworkModel {
            latency: Duration::from_micros(latency_us),
            inbox_capacity: None,
            ..NetworkModel::instant()
        };
        let f: Arc<Fabric<u64>> = Fabric::new(2, model, false);
        for i in 0..count as u64 {
            f.send_unthrottled(ImageId(0), ImageId(1), 8, i);
        }
        let got = drain(&f, ImageId(1), count);
        prop_assert_eq!(got, (0..count as u64).collect::<Vec<_>>());
    }

    /// Concurrent senders: reliability holds under real thread
    /// interleavings.
    #[test]
    fn concurrent_senders_reliable(per_sender in 1usize..60) {
        let f: Arc<Fabric<u64>> = Fabric::new(4, NetworkModel::instant(), false);
        let handles: Vec<_> = (0..3)
            .map(|s| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..per_sender as u64 {
                        f.send_unthrottled(ImageId(s), ImageId(3), 8, (s as u64) << 32 | i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = drain(&f, ImageId(3), 3 * per_sender);
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got.len(), 3 * per_sender, "duplicate or lost message");
    }
}

proptest! {
    // Each case runs a full ack/retry convergence loop; keep the count
    // modest so the suite stays fast under load.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A randomized fault schedule — drops, duplicates, delay spikes,
    /// non-FIFO reordering, and a receiver stall window — must be
    /// invisible to the payload stream: every message surfaces at the
    /// receiver exactly once, however the wire misbehaves, and every
    /// sender's retry queue drains to empty once the acks are in (acks
    /// retire their frames by sequence number, in whatever order they
    /// arrive).
    #[test]
    fn chaos_schedule_is_exactly_once(
        seed in any::<u64>(),
        drop_pct in 0u32..25,
        dup_pct in 0u32..25,
        spike_pct in 0u32..15,
        non_fifo in any::<bool>(),
        stall in any::<bool>(),
        sends in prop::collection::vec((0usize..3, 0usize..256), 1..60),
    ) {
        let mut plan = FaultPlan::uniform_drop(seed, drop_pct as f64 / 100.0)
            .with_dup(dup_pct as f64 / 100.0)
            .with_spikes(spike_pct as f64 / 100.0, Duration::from_micros(200));
        if stall {
            plan = plan.with_stall(3, Duration::ZERO, Duration::from_millis(5));
        }
        // A generous budget horizon: only a (vanishingly unlikely) run of
        // 13 consecutive drops of one message can lose it.
        let retry = RetryPolicy {
            ack_timeout: Duration::from_millis(1),
            backoff: 2,
            max_timeout: Duration::from_millis(20),
            max_retries: 12,
        };
        let model = NetworkModel {
            latency: Duration::from_micros(50),
            inbox_capacity: None,
            ..NetworkModel::instant()
        };
        let f: Arc<Fabric<u64>> = Fabric::with_chaos(4, model, non_fifo, plan, retry, None);
        for (i, &(from, bytes)) in sends.iter().enumerate() {
            f.send_unthrottled(ImageId(from), ImageId(3), bytes, i as u64);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = Vec::with_capacity(sends.len());
        while got.len() < sends.len() {
            prop_assert!(
                Instant::now() < deadline,
                "lost messages: {} of {}", got.len(), sends.len()
            );
            if let Some(v) = recv(&f, ImageId(3), Instant::now() + Duration::from_millis(1)) {
                got.push(v);
            }
            // Senders must poll their own inboxes: acks land there, and
            // polling pumps their retransmission timers.
            for s in 0..3 {
                while poll(&f, ImageId(s)).is_some() {}
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, (0..sends.len() as u64).collect::<Vec<_>>());
        prop_assert_eq!(f.stats().snapshot().delivered, sends.len() as u64, "double count");
        // Nothing further may ever surface: late duplicates and
        // retransmits are filtered by sequence dedup, and a payload slot
        // is single-use even in principle.
        prop_assert_eq!(poll(&f, ImageId(3)), None);
        // The last acks may still be in flight (or dropped, awaiting a
        // retransmit): keep every image polling until all senders'
        // outstanding frames are acknowledged.
        while (0..3).any(|s| f.retry_backlog(ImageId(s)) > 0) {
            prop_assert!(
                Instant::now() < deadline,
                "retry backlogs never drained: {:?}",
                (0..3).map(|s| f.retry_backlog(ImageId(s))).collect::<Vec<_>>()
            );
            for s in 0..4 {
                while poll(&f, ImageId(s)).is_some() {}
            }
            f.wait_activity(ImageId(3), Instant::now() + Duration::from_micros(200));
        }
        prop_assert_eq!(f.stats().snapshot().delivered, sends.len() as u64, "late surfacing");
        // Drained by acks, not by giving up: the budget above makes a
        // legitimate exhaustion vanishingly unlikely.
        prop_assert_eq!(f.stats().snapshot().retries_exhausted, 0, "frames retired by exhaustion");
    }
}
