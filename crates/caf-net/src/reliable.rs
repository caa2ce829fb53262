//! Reliable ack/retry delivery: the sublayer [`Fabric`](crate::Fabric)
//! routes remote traffic through when a fault plan is in force.
//!
//! The fabric calls [`Reliable`] at four points: [`Reliable::inject`] a
//! fresh message, [`Reliable::open`] an arriving frame, [`Reliable::pump`]
//! due retransmissions, and [`Reliable::next_retry_at`] to clamp parks.
//!
//! * Payloads are **not `Clone`** (active messages carry `Box<dyn FnOnce>`
//!   closures), so every reliable send allocates one shared single-use
//!   *payload slot*: the original, duplicates, and retransmits all point
//!   at it, the first fresh arrival takes the value, and sequence-number
//!   dedup filters the later copies before they touch the empty slot.
//! * The fabric has **no progress thread**: retransmission timers are
//!   pumped lazily from the sending image's own fabric calls — GASNet's
//!   polling discipline — and parks are clamped to the next retry.
//! * Delivery stays **unordered**: the layer restores *exactly-once*, not
//!   ordering (no reorder buffer; the runtime tolerates non-FIFO links).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use caf_core::fault::{RetryPolicy, SeqTracker};
use caf_core::ids::ImageId;
use parking_lot::Mutex;

use crate::stats::FabricStats;

/// Shared single-use payload slot of one reliable message.
type Slot<M> = Arc<Mutex<Option<M>>>;

/// The on-the-wire envelope carried by inboxes.
pub(crate) enum Wire<M> {
    /// Fast path (fault layer off, or self-send): the bare message.
    Raw(M),
    /// Reliable payload transmission of the `link_seq`-th message on the
    /// `from → receiver` link. Retransmits and injected duplicates share
    /// `payload`; whoever arrives fresh takes it.
    Data { from: ImageId, link_seq: u64, payload: Slot<M> },
    /// Acknowledgement of `link_seq`, sent back by the data's receiver.
    Ack { from: ImageId, link_seq: u64 },
    /// Unacknowledged keep-alive pumped on idle links when failure
    /// detection is engaged. Best-effort: heartbeats roll the same fault
    /// dice as data (a dropped heartbeat is how false suspects happen).
    /// `incarnation` feeds the receiver's posthumous filter.
    Heartbeat { from: ImageId, incarnation: u64 },
}

impl<M> Wire<M> {
    /// Clones protocol envelopes (for injected duplicates). `Raw` is not
    /// cloneable — raw messages never traverse the fault layer.
    pub(crate) fn clone_protocol(&self) -> Option<Wire<M>> {
        Some(match *self {
            Wire::Raw(_) => return None,
            Wire::Data { from, link_seq, ref payload } => {
                Wire::Data { from, link_seq, payload: Arc::clone(payload) }
            }
            Wire::Ack { from, link_seq } => Wire::Ack { from, link_seq },
            Wire::Heartbeat { from, incarnation } => Wire::Heartbeat { from, incarnation },
        })
    }
}

/// One unacknowledged reliable transmission, owned by its sender.
struct Outstanding<M> {
    payload: Slot<M>,
    bytes: usize,
    /// Transmissions so far (1 = the original send).
    attempts: u32,
    next_retry: Instant,
}

/// A sender's window toward one destination, indexed by sequence number:
/// `frames[i]` is frame `base + i`, `None` once acked or abandoned. Acks
/// retire their frame in O(1) however they are reordered, and the next
/// sequence to allocate is always `base + frames.len()`.
struct Link<M> {
    base: u64,
    frames: VecDeque<Option<Outstanding<M>>>,
    /// Frames still outstanding (the `Some` slots).
    live: usize,
}

impl<M> Link<M> {
    fn next_seq(&self) -> u64 {
        self.base + self.frames.len() as u64
    }

    /// Slides the window past retired frames.
    fn trim(&mut self) {
        while let Some(None) = self.frames.front() {
            self.frames.pop_front();
            self.base += 1;
        }
    }
}

/// The ack/retry/dedup protocol state for `n` images.
pub(crate) struct Reliable<M> {
    retry: RetryPolicy,
    /// Per-sending-image windows, one per destination.
    senders: Vec<Mutex<Vec<Link<M>>>>,
    /// Per-receiving-image dedup trackers, one per sender.
    receivers: Vec<Mutex<Vec<SeqTracker>>>,
}

/// Retransmissions owed by [`Reliable::pump`]: destination, payload bytes,
/// and the frame to put back on the wire.
pub(crate) type Resend<M> = Vec<(ImageId, usize, Wire<M>)>;

impl<M> Reliable<M> {
    pub(crate) fn new(n: usize, retry: RetryPolicy) -> Self {
        let links = || (0..n).map(|_| Link { base: 0, frames: VecDeque::new(), live: 0 }).collect();
        Reliable {
            retry,
            senders: (0..n).map(|_| Mutex::new(links())).collect(),
            receivers: (0..n).map(|_| Mutex::new(vec![SeqTracker::default(); n])).collect(),
        }
    }

    /// Allocates `msg`'s sequence number on the `from → to` link, arms
    /// its ack timer, and returns the first transmission of it.
    pub(crate) fn inject(&self, from: ImageId, to: ImageId, bytes: usize, msg: M) -> Wire<M> {
        let payload = Arc::new(Mutex::new(Some(msg)));
        let mut links = self.senders[from.index()].lock();
        let link = &mut links[to.index()];
        let link_seq = link.next_seq();
        link.frames.push_back(Some(Outstanding {
            payload: Arc::clone(&payload),
            bytes,
            attempts: 1,
            next_retry: Instant::now() + self.retry.timeout_after(1),
        }));
        link.live += 1;
        Wire::Data { from, link_seq, payload }
    }

    /// Protocol processing of a frame that passed the posthumous filter
    /// at `image`. An `Ack` retires its frame. A `Data` frame is always
    /// (re-)acknowledged — the previous ack may itself have been dropped —
    /// so it yields the ack to transmit (destination and frame) and, on
    /// first sight of its sequence number, the payload.
    pub(crate) fn open(
        &self,
        image: ImageId,
        wire: Wire<M>,
        stats: &FabricStats,
    ) -> (Option<(ImageId, Wire<M>)>, Option<M>) {
        match wire {
            Wire::Data { from, link_seq, payload } => {
                let ack = Some((from, Wire::Ack { from: image, link_seq }));
                if !self.receivers[image.index()].lock()[from.index()].note(link_seq) {
                    stats.note_dup_discarded();
                    return (ack, None);
                }
                let msg = payload.lock().take();
                debug_assert!(msg.is_some(), "fresh sequence with an empty payload slot");
                if msg.is_some() {
                    stats.note_delivered();
                }
                (ack, msg)
            }
            Wire::Ack { from, link_seq } => {
                let mut links = self.senders[image.index()].lock();
                let link = &mut links[from.index()];
                let slot =
                    link_seq.checked_sub(link.base).and_then(|i| link.frames.get_mut(i as usize));
                if slot.and_then(Option::take).is_some() {
                    link.live -= 1;
                    link.trim();
                }
                (None, None)
            }
            Wire::Raw(_) | Wire::Heartbeat { .. } => (None, None),
        }
    }

    /// Retransmits every overdue frame owned by `image`, advancing ack
    /// timers with exponential backoff. Frames toward a peer `is_dead`
    /// reports are dead letters: they are abandoned (counted as crash
    /// drops) instead of burning the retry budget against a black hole.
    /// Returns the retransmissions plus one destination per frame whose
    /// budget ran out (original + `max_retries` resends).
    pub(crate) fn pump(
        &self,
        image: ImageId,
        now: Instant,
        is_dead: impl Fn(usize) -> bool,
        stats: &FabricStats,
    ) -> (Resend<M>, Vec<usize>) {
        let mut resend = Vec::new();
        let mut exhausted = Vec::new();
        let mut links = self.senders[image.index()].lock();
        for (dest, link) in links.iter_mut().enumerate().filter(|(_, l)| l.live > 0) {
            if is_dead(dest) {
                (0..link.live).for_each(|_| stats.note_crash_drop());
                *link = Link { base: link.next_seq(), frames: VecDeque::new(), live: 0 };
                continue;
            }
            for (link_seq, slot) in (link.base..).zip(link.frames.iter_mut()) {
                let Some(o) = slot.as_mut().filter(|o| o.next_retry <= now) else { continue };
                if o.attempts > self.retry.max_retries {
                    // Budget spent: abandon. The message may still be in
                    // flight — if it truly never arrives, the runtime's
                    // watchdog turns the quiet into a diagnostic.
                    stats.note_retry_exhausted();
                    exhausted.push(dest);
                    *slot = None;
                    link.live -= 1;
                    continue;
                }
                o.attempts += 1;
                o.next_retry = now + self.retry.timeout_after(o.attempts);
                let frame = Wire::Data { from: image, link_seq, payload: Arc::clone(&o.payload) };
                resend.push((ImageId(dest), o.bytes, frame));
            }
            link.trim();
        }
        (resend, exhausted)
    }

    /// Earliest pending retransmission deadline owed by `image`, if any.
    pub(crate) fn next_retry_at(&self, image: ImageId) -> Option<Instant> {
        let links = self.senders[image.index()].lock();
        links.iter().flat_map(|l| l.frames.iter().flatten().map(|o| o.next_retry)).min()
    }

    /// Unacknowledged messages `image` owns as a sender.
    pub(crate) fn backlog(&self, image: ImageId) -> usize {
        self.senders[image.index()].lock().iter().map(|l| l.live).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tracker_accepts_each_seq_once() {
        let mut t = SeqTracker::default();
        assert!(t.note(0));
        assert!(!t.note(0));
        assert!(t.note(1));
        assert!(!t.note(1));
        assert!(!t.note(0));
    }

    #[test]
    fn tracker_handles_out_of_order_and_gaps() {
        let mut t = SeqTracker::default();
        assert!(t.note(3));
        assert!(t.note(1));
        assert!(!t.note(3), "re-delivery ahead of watermark");
        assert!(t.note(0));
        assert!(!t.note(1), "absorbed into watermark by now");
        assert!(t.note(2));
        assert!(!t.note(3), "watermark passed it");
        assert!(t.note(4));
    }

    #[test]
    fn reordered_acks_retire_by_seq_and_keep_seqs_monotone() {
        let stats = FabricStats::default();
        let rel: Reliable<u32> = Reliable::new(2, RetryPolicy::default());
        let seq_of = |w: &Wire<u32>| match w {
            Wire::Data { link_seq, .. } => *link_seq,
            _ => unreachable!(),
        };
        let seqs: Vec<u64> =
            (0..4).map(|i| seq_of(&rel.inject(ImageId(0), ImageId(1), 4, i))).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        for s in [2, 0, 2, 3] {
            rel.open(ImageId(0), Wire::Ack { from: ImageId(1), link_seq: s }, &stats);
        }
        assert_eq!(rel.backlog(ImageId(0)), 1, "only seq 1 is still unacked");
        rel.open(ImageId(0), Wire::Ack { from: ImageId(1), link_seq: 1 }, &stats);
        assert_eq!(rel.backlog(ImageId(0)), 0);
        assert_eq!(rel.next_retry_at(ImageId(0)), None);
        assert_eq!(seq_of(&rel.inject(ImageId(0), ImageId(1), 4, 9)), 4);
        // A dead destination abandons the window without reusing seqs.
        let (resend, _) =
            rel.pump(ImageId(0), Instant::now() + Duration::from_secs(60), |_| true, &stats);
        assert!(resend.is_empty());
        assert_eq!((rel.backlog(ImageId(0)), stats.snapshot().crash_drops), (0, 1));
        assert_eq!(seq_of(&rel.inject(ImageId(0), ImageId(1), 4, 10)), 5);
    }
}
