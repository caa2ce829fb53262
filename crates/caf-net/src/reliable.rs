//! Reliable ack/retry delivery: the sublayer [`Fabric`](crate::Fabric)
//! routes remote traffic through when a fault plan is in force.
//!
//! The fabric calls [`Reliable`] at five points: [`Reliable::inject`] a
//! fresh message, [`Reliable::open`] an arriving frame,
//! [`Reliable::owed_acks`] at its flush points, [`Reliable::pump`] due
//! retransmissions, and [`Reliable::next_retry_at`] to clamp parks.
//!
//! * Acks are **cumulative, one per link**: a receiver does not answer
//!   each `Data` frame. It notes the sequence and marks the link as owing
//!   an ack (a duplicate marks it too — the previous ack may have been
//!   lost). The fabric flushes one [`CumAck`] per owing link when a drain
//!   ends or before a park, and [`Reliable::inject`] piggybacks an owed
//!   ack on the first transmission of reverse `Data` instead. Senders
//!   retire exactly the frames [`CumAck::covers`].
//! * Payloads are **not `Clone`** (active messages carry `Box<dyn FnOnce>`
//!   closures), so every reliable send allocates one shared single-use
//!   *payload slot*: the original, duplicates, and retransmits all point
//!   at it, the first fresh arrival takes the value, and sequence-number
//!   dedup filters the later copies before they touch the empty slot.
//! * The fabric has **no progress thread**: retransmission timers are
//!   pumped lazily from the sending image's own fabric calls — GASNet's
//!   polling discipline — and parks are clamped to the next retry. Each
//!   link keeps its earliest retry deadline, so a pump skips links with
//!   nothing due.
//! * Delivery stays **unordered**: the layer restores *exactly-once*, not
//!   ordering (no reorder buffer; the runtime tolerates non-FIFO links).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use caf_core::fault::{CumAck, RetryPolicy, SeqTracker};
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
    /// `payload`; whoever arrives fresh takes it. `ack` piggybacks the
    /// acknowledgement `from` owed for the reverse link, if any.
    Data { from: ImageId, link_seq: u64, ack: Option<CumAck>, payload: Slot<M> },
    /// Standalone cumulative acknowledgement of the `receiver → from`
    /// link, sent back by the data's receiver at a flush point.
    Ack { from: ImageId, ack: CumAck },
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
            Wire::Data { from, link_seq, ack, ref payload } => {
                Wire::Data { from, link_seq, ack, payload: Arc::clone(payload) }
            }
            Wire::Ack { from, ack } => Wire::Ack { from, ack },
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
/// `frames[i]` is frame `base + i`, `None` once acked or abandoned. The
/// next sequence to allocate is always `base + frames.len()`.
struct Link<M> {
    base: u64,
    frames: VecDeque<Option<Outstanding<M>>>,
    /// Frames still outstanding (the `Some` slots).
    live: usize,
    /// Lower bound on the live frames' retry deadlines, meaningful while
    /// `live > 0`. It may only be stale-early: inject and retry lower it,
    /// an ack leaves it alone, and [`Reliable::pump`] recomputes it.
    next_retry: Instant,
}

impl<M> Link<M> {
    fn new(base: u64) -> Self {
        Link { base, frames: VecDeque::new(), live: 0, next_retry: Instant::now() }
    }

    fn next_seq(&self) -> u64 {
        self.base + self.frames.len() as u64
    }

    /// Retires every frame `ack` covers, sliding the window past them.
    fn retire(&mut self, ack: CumAck) {
        let end = self.next_seq().min(ack.upto.saturating_add(CumAck::WINDOW + 1));
        for (seq, slot) in (self.base..end).zip(self.frames.iter_mut()) {
            if ack.covers(seq) && slot.take().is_some() {
                self.live -= 1;
            }
        }
        self.trim();
    }

    /// Slides the window past retired frames.
    fn trim(&mut self) {
        while let Some(None) = self.frames.front() {
            self.frames.pop_front();
            self.base += 1;
        }
    }
}

/// A receiver's view of its inbound links.
struct Inbound {
    /// Dedup trackers, one per sender.
    seen: Vec<SeqTracker>,
    /// The senders owed a cumulative ack, each listed once.
    owing: Vec<usize>,
}

/// The ack/retry/dedup protocol state for `n` images.
pub(crate) struct Reliable<M> {
    retry: RetryPolicy,
    /// Per-sending-image windows, one per destination.
    senders: Vec<Mutex<Vec<Link<M>>>>,
    /// Per-receiving-image dedup and owed-ack state.
    receivers: Vec<Mutex<Inbound>>,
}

/// Retransmissions owed by [`Reliable::pump`]: destination, payload bytes,
/// and the frame to put back on the wire.
pub(crate) type Resend<M> = Vec<(ImageId, usize, Wire<M>)>;

impl<M> Reliable<M> {
    pub(crate) fn new(n: usize, retry: RetryPolicy) -> Self {
        let inbound = || Inbound { seen: vec![SeqTracker::default(); n], owing: Vec::new() };
        Reliable {
            retry,
            senders: (0..n).map(|_| Mutex::new((0..n).map(|_| Link::new(0)).collect())).collect(),
            receivers: (0..n).map(|_| Mutex::new(inbound())).collect(),
        }
    }

    /// Allocates `msg`'s sequence number on the `from → to` link, arms
    /// its ack timer, and returns the first transmission of it, carrying
    /// the ack `from` owes `to` (which is then no longer owed).
    pub(crate) fn inject(&self, from: ImageId, to: ImageId, bytes: usize, msg: M) -> Wire<M> {
        let ack = {
            let mut inbound = self.receivers[from.index()].lock();
            inbound.owing.iter().position(|&s| s == to.index()).map(|i| {
                inbound.owing.swap_remove(i);
                inbound.seen[to.index()].cum_ack()
            })
        };
        let payload = Arc::new(Mutex::new(Some(msg)));
        let next_retry = Instant::now() + self.retry.timeout_after(1);
        let mut links = self.senders[from.index()].lock();
        let link = &mut links[to.index()];
        let link_seq = link.next_seq();
        link.frames.push_back(Some(Outstanding {
            payload: Arc::clone(&payload),
            bytes,
            attempts: 1,
            next_retry,
        }));
        link.next_retry = if link.live == 0 { next_retry } else { link.next_retry.min(next_retry) };
        link.live += 1;
        Wire::Data { from, link_seq, ack, payload }
    }

    /// Protocol processing of a frame that passed the posthumous filter
    /// at `image`. An ack — standalone or piggybacked — retires the frames
    /// it covers. A `Data` frame marks its link as owing an ack, fresh or
    /// not, and yields the payload on first sight of its sequence number.
    pub(crate) fn open(&self, image: ImageId, wire: Wire<M>, stats: &FabricStats) -> Option<M> {
        match wire {
            Wire::Data { from, link_seq, ack, payload } => {
                if let Some(ack) = ack {
                    self.retire(image, from, ack);
                }
                let fresh = {
                    let mut inbound = self.receivers[image.index()].lock();
                    if !inbound.owing.contains(&from.index()) {
                        inbound.owing.push(from.index());
                    }
                    inbound.seen[from.index()].note(link_seq)
                };
                if !fresh {
                    stats.note_dup_discarded();
                    return None;
                }
                let msg = payload.lock().take();
                debug_assert!(msg.is_some(), "fresh sequence with an empty payload slot");
                if msg.is_some() {
                    stats.note_delivered();
                }
                msg
            }
            Wire::Ack { from, ack } => {
                self.retire(image, from, ack);
                None
            }
            Wire::Raw(_) | Wire::Heartbeat { .. } => None,
        }
    }

    /// Retires the frames on `image → peer` that `ack` covers.
    fn retire(&self, image: ImageId, peer: ImageId, ack: CumAck) {
        self.senders[image.index()].lock()[peer.index()].retire(ack);
    }

    /// Takes every ack `image` owes: one cumulative ack per owing link,
    /// addressed to that link's sender.
    pub(crate) fn owed_acks(&self, image: ImageId) -> Vec<(ImageId, CumAck)> {
        let mut inbound = self.receivers[image.index()].lock();
        let inbound = &mut *inbound;
        inbound
            .owing
            .drain(..)
            .map(|s| (ImageId(s), inbound.seen[s].cum_ack()))
            .collect()
    }

    /// Retransmits every overdue frame owned by `image`, advancing ack
    /// timers with exponential backoff. Frames toward a peer `is_dead`
    /// reports are dead letters: they are abandoned (counted as crash
    /// drops) instead of burning the retry budget against a black hole.
    /// Links whose earliest deadline is still ahead are not scanned.
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
                *link = Link::new(link.next_seq());
                continue;
            }
            if link.next_retry > now {
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
                let frame = Wire::Data {
                    from: image,
                    link_seq,
                    ack: None,
                    payload: Arc::clone(&o.payload),
                };
                resend.push((ImageId(dest), o.bytes, frame));
            }
            if let Some(earliest) = link.frames.iter().flatten().map(|o| o.next_retry).min() {
                link.next_retry = earliest;
            }
            link.trim();
        }
        (resend, exhausted)
    }

    /// Earliest pending retransmission deadline owed by `image`, if any.
    /// O(links): it reads each link's stale-early bound, so it may report
    /// early (a harmless extra wake-up) but never late.
    pub(crate) fn next_retry_at(&self, image: ImageId) -> Option<Instant> {
        let links = self.senders[image.index()].lock();
        links.iter().filter(|l| l.live > 0).map(|l| l.next_retry).min()
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

    fn data_seq(w: &Wire<u32>) -> u64 {
        match w {
            Wire::Data { link_seq, .. } => *link_seq,
            _ => unreachable!(),
        }
    }

    fn ack_of(seen: &SeqTracker) -> Wire<u32> {
        Wire::Ack { from: ImageId(1), ack: seen.cum_ack() }
    }

    #[test]
    fn reordered_acks_retire_by_seq_and_keep_seqs_monotone() {
        let stats = FabricStats::default();
        let rel: Reliable<u32> = Reliable::new(2, RetryPolicy::default());
        let seqs: Vec<u64> =
            (0..4).map(|i| data_seq(&rel.inject(ImageId(0), ImageId(1), 4, i))).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // The receiver sees 2, 0, 3 and acks after each; the acks arrive
        // newest first, then a stale repeat of the oldest.
        let mut seen = SeqTracker::default();
        let acks: Vec<CumAck> = [2, 0, 3]
            .into_iter()
            .map(|s| {
                seen.note(s);
                seen.cum_ack()
            })
            .collect();
        for &ack in acks.iter().rev().chain(&acks[..1]) {
            rel.open(ImageId(0), Wire::Ack { from: ImageId(1), ack }, &stats);
        }
        assert_eq!(rel.backlog(ImageId(0)), 1, "only seq 1 is still unacked");
        seen.note(1);
        rel.open(ImageId(0), ack_of(&seen), &stats);
        assert_eq!(rel.backlog(ImageId(0)), 0);
        assert_eq!(rel.next_retry_at(ImageId(0)), None);
        assert_eq!(data_seq(&rel.inject(ImageId(0), ImageId(1), 4, 9)), 4);
        // A dead destination abandons the window without reusing seqs.
        let (resend, _) =
            rel.pump(ImageId(0), Instant::now() + Duration::from_secs(60), |_| true, &stats);
        assert!(resend.is_empty());
        assert_eq!((rel.backlog(ImageId(0)), stats.snapshot().crash_drops), (0, 1));
        assert_eq!(data_seq(&rel.inject(ImageId(0), ImageId(1), 4, 10)), 5);
    }

    #[test]
    fn frames_beyond_the_bitmap_retire_once_the_watermark_passes_them() {
        let stats = FabricStats::default();
        let rel: Reliable<u32> = Reliable::new(2, RetryPolicy::default());
        let frames: Vec<Wire<u32>> =
            (0..=70).map(|i| rel.inject(ImageId(0), ImageId(1), 4, i)).collect();
        let copies: Vec<Wire<u32>> = frames.iter().map(|w| w.clone_protocol().unwrap()).collect();
        let mut frames: Vec<Option<Wire<u32>>> = frames.into_iter().map(Some).collect();
        let mut deliver = |seq: usize| rel.open(ImageId(1), frames[seq].take().unwrap(), &stats);
        let ack_back = |rel: &Reliable<u32>| {
            for (to, ack) in rel.owed_acks(ImageId(1)) {
                assert_eq!(to, ImageId(0));
                rel.open(ImageId(0), Wire::Ack { from: ImageId(1), ack }, &stats);
            }
        };
        // Seq 70 lands 70 above the watermark (0): outside the bitmap.
        assert_eq!(deliver(70), Some(70));
        ack_back(&rel);
        assert_eq!(rel.backlog(ImageId(0)), 71, "nothing is covered yet");
        (1..70).for_each(|s| assert_eq!(deliver(s), Some(s as u32)));
        ack_back(&rel);
        assert_eq!(rel.backlog(ImageId(0)), 7, "the bitmap covers 1..=64 only");
        assert_eq!(deliver(0), Some(0));
        ack_back(&rel);
        assert_eq!(rel.backlog(ImageId(0)), 0, "the watermark passed 70");
        // A late copy of every frame surfaces nothing: delivered once.
        for copy in copies {
            assert_eq!(rel.open(ImageId(1), copy, &stats), None);
        }
        assert_eq!(stats.snapshot().delivered, 71);
    }

    #[test]
    fn a_lost_cumulative_ack_is_repaired_by_the_next() {
        let stats = FabricStats::default();
        let rel: Reliable<u32> = Reliable::new(2, RetryPolicy::default());
        let frames: Vec<Wire<u32>> =
            (0..5).map(|i| rel.inject(ImageId(0), ImageId(1), 4, i)).collect();
        let mut frames = frames.into_iter();
        for w in frames.by_ref().take(3) {
            assert!(rel.open(ImageId(1), w, &stats).is_some());
        }
        let lost = rel.owed_acks(ImageId(1));
        assert_eq!(lost.len(), 1, "one ack for the link, not one per frame");
        assert!(rel.owed_acks(ImageId(1)).is_empty(), "flushing clears the debt");
        for w in frames {
            assert!(rel.open(ImageId(1), w, &stats).is_some());
        }
        assert_eq!(rel.backlog(ImageId(0)), 5, "the first ack was lost on the wire");
        for (_, ack) in rel.owed_acks(ImageId(1)) {
            rel.open(ImageId(0), Wire::Ack { from: ImageId(1), ack }, &stats);
        }
        assert_eq!(rel.backlog(ImageId(0)), 0, "the next ack covers the lost one's frames");
    }

    #[test]
    fn piggybacks_ride_first_transmissions_only() {
        let stats = FabricStats::default();
        let rel: Reliable<u32> = Reliable::new(2, RetryPolicy::default());
        let w = rel.inject(ImageId(0), ImageId(1), 4, 1);
        assert!(matches!(w, Wire::Data { ack: None, .. }), "nothing owed yet");
        rel.open(ImageId(1), w, &stats);
        let reply = rel.inject(ImageId(1), ImageId(0), 4, 2);
        assert!(matches!(reply, Wire::Data { ack: Some(_), .. }));
        assert!(rel.owed_acks(ImageId(1)).is_empty(), "the piggyback settled the debt");
        let later = Instant::now() + Duration::from_secs(60);
        let (resend, _) = rel.pump(ImageId(1), later, |_| false, &stats);
        assert!(matches!(resend[..], [(_, _, Wire::Data { ack: None, .. })]));
    }

    /// The exact minimum over live frames, by a full scan.
    fn true_min(rel: &Reliable<u32>, image: ImageId) -> Option<Instant> {
        let links = rel.senders[image.index()].lock();
        links.iter().flat_map(|l| l.frames.iter().flatten().map(|o| o.next_retry)).min()
    }

    #[test]
    fn next_retry_at_is_never_later_than_the_true_minimum() {
        let stats = FabricStats::default();
        let retry = RetryPolicy {
            ack_timeout: Duration::from_millis(1),
            backoff: 2,
            max_timeout: Duration::from_millis(8),
            max_retries: 3,
        };
        let rel: Reliable<u32> = Reliable::new(3, retry);
        let me = ImageId(0);
        let check = |what: &str| {
            let (bound, exact) = (rel.next_retry_at(me), true_min(&rel, me));
            assert_eq!(bound.is_some(), exact.is_some(), "{what}: pending mismatch");
            assert!(bound <= exact, "{what}: bound {bound:?} later than {exact:?}");
        };
        let mut seen = [SeqTracker::default(), SeqTracker::default()];
        let t0 = Instant::now();
        for round in 0..6u32 {
            for (k, to) in [1, 2].into_iter().enumerate() {
                let w = rel.inject(me, ImageId(to), 4, round);
                check("inject");
                // Acks land for every other frame, out of order.
                if round % 2 == k as u32 {
                    seen[k].note(data_seq(&w));
                    let ack = Wire::Ack { from: ImageId(to), ack: seen[k].cum_ack() };
                    rel.open(me, ack, &stats);
                    check("ack");
                }
            }
            let (resend, _) =
                rel.pump(me, t0 + Duration::from_millis(round as u64 * 3), |_| false, &stats);
            check("pump");
            assert!(round > 0 || resend.is_empty(), "nothing is due at the start");
        }
        // Exhaust everything: the bound must track down to none.
        for ms in (20..200).step_by(10) {
            rel.pump(me, t0 + Duration::from_millis(ms), |_| false, &stats);
            check("drain");
        }
        assert_eq!(rel.backlog(me), 0);
        assert_eq!(rel.next_retry_at(me), None);
    }
}
