//! Lock-free fabric traffic counters, used by benches and ablations.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate counters for one fabric instance. All methods are safe to
/// call concurrently; counts are monotone. Read them as one
/// [`FabricTotals`] via [`FabricStats::snapshot`].
#[derive(Debug, Default)]
pub struct FabricStats {
    messages: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
    backpressure_stalls: AtomicU64,
    delivered: AtomicU64,
    wire_drops: AtomicU64,
    wire_dups: AtomicU64,
    retries: AtomicU64,
    retries_exhausted: AtomicU64,
    dups_discarded: AtomicU64,
    acks: AtomicU64,
    heartbeats: AtomicU64,
    crash_drops: AtomicU64,
    posthumous_drops: AtomicU64,
}

/// A point-in-time copy of every [`FabricStats`] counter. Each field is
/// read with a relaxed load, so concurrent traffic may land between two
/// fields; every field is monotone across snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricTotals {
    /// Logical messages sent through the fabric (excludes protocol acks
    /// and retransmissions). An aggregated frame counts every message it
    /// carries.
    pub messages: u64,
    /// Wire frames those logical messages travelled in: one per send, so
    /// `messages / frames` is the mean aggregation factor.
    pub frames: u64,
    /// Payload bytes sent through the fabric.
    pub bytes: u64,
    /// Sender stalls caused by inbox backpressure.
    pub backpressure_stalls: u64,
    /// Logical messages surfaced to receivers (each exactly once; an
    /// aggregated frame surfaces all of its messages).
    pub delivered: u64,
    /// Wire transmissions destroyed by fault injection.
    pub wire_drops: u64,
    /// Wire transmissions duplicated by fault injection.
    pub wire_dups: u64,
    /// Retransmissions performed by the reliable-delivery layer.
    pub retries: u64,
    /// Messages abandoned after the retry budget was exhausted.
    pub retries_exhausted: u64,
    /// Duplicate deliveries filtered out by receiver-side dedup.
    pub dups_discarded: u64,
    /// Standalone cumulative ack frames sent by receivers (one per
    /// owing link per flush). Acks piggybacked on reverse `Data` frames
    /// are not counted.
    pub acks: u64,
    /// Heartbeat frames emitted by the failure-detection layer.
    pub heartbeats: u64,
    /// Wire transmissions destroyed because an endpoint had fail-stopped
    /// (a dead image neither injects nor receives).
    pub crash_drops: u64,
    /// Frames discarded by the incarnation filter: traffic from a peer
    /// already confirmed dead at that incarnation.
    pub posthumous_drops: u64,
}

impl FabricStats {
    /// One frame of `count` logical messages and `payload_bytes` bytes.
    pub(crate) fn note_send(&self, payload_bytes: usize, count: usize) {
        self.messages.fetch_add(count as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_backpressure_stall(&self) {
        self.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_delivered(&self, count: usize) {
        self.delivered.fetch_add(count as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_wire_drop(&self) {
        self.wire_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_wire_dup(&self) {
        self.wire_dups.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry_exhausted(&self) {
        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_dup_discarded(&self) {
        self.dups_discarded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_ack(&self) {
        self.acks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_heartbeat(&self) {
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_crash_drop(&self) {
        self.crash_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_posthumous_drop(&self) {
        self.posthumous_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter once.
    pub fn snapshot(&self) -> FabricTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FabricTotals {
            messages: get(&self.messages),
            frames: get(&self.frames),
            bytes: get(&self.bytes),
            backpressure_stalls: get(&self.backpressure_stalls),
            delivered: get(&self.delivered),
            wire_drops: get(&self.wire_drops),
            wire_dups: get(&self.wire_dups),
            retries: get(&self.retries),
            retries_exhausted: get(&self.retries_exhausted),
            dups_discarded: get(&self.dups_discarded),
            acks: get(&self.acks),
            heartbeats: get(&self.heartbeats),
            crash_drops: get(&self.crash_drops),
            posthumous_drops: get(&self.posthumous_drops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = FabricStats::default();
        s.note_send(10, 1);
        s.note_send(5, 1);
        s.note_backpressure_stall();
        assert_eq!(s.snapshot().messages, 2);
        assert_eq!(s.snapshot().bytes, 15);
        assert_eq!(s.snapshot().backpressure_stalls, 1);
        s.note_send(0, 3);
        assert_eq!((s.snapshot().messages, s.snapshot().frames), (5, 3));
    }
}
