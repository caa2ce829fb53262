//! The simulated interconnect: a set of timed inboxes plus the cost model.
//!
//! The fabric is a dumb, *not necessarily FIFO* transport — the same
//! contract GASNet gives the CAF 2.0 runtime. Latency and bandwidth come
//! from [`NetworkModel`]: a message of `b` payload bytes sent at `t`
//! becomes visible to the target at
//! `t + injection_overhead + latency + b·byte_cost` (plus deterministic
//! pseudo-jitter when `non_fifo` reordering is enabled). Delivery
//! acknowledgements, event notifications, collective stages — everything
//! above this layer is just a message.
//!
//! Backpressure: while a target inbox holds `inbox_capacity` or more
//! undelivered messages, [`Fabric::try_send_frame`] refuses the frame —
//! modelling GASNet flow control, which the paper suspects behind the
//! Fig. 14 large-bunch anomaly. The fabric never parks a sender: only a
//! thread that can drain its own inbox while it waits (an image thread)
//! sends under credit, and it retries from its own wait loop. Everything
//! else goes through [`Fabric::send_unthrottled`] and still counts in
//! the target's depth.
//!
//! Frames are not messages. [`Fabric::try_send_frame`] puts one frame
//! carrying `count` logical messages on the wire (the runtime's
//! per-destination aggregation of active messages). Everything that
//! counts messages counts logical ones:
//! [`FabricTotals::messages`](crate::FabricTotals::messages) (`frames`
//! counts the frames), the inbox depth flow control reads, and
//! the wire sequence that keys the fault plan, which advances by `count`
//! so a scheduled crash fires at the same logical message however the
//! traffic was framed. A frame is admitted while the target inbox has a
//! credit left, so it can overshoot the capacity by `count - 1`; senders
//! keep `count` well below the capacity.
//!
//! Layers: [`Fabric::new`] is a lossless wire with zero protocol state.
//! [`Fabric::with_chaos`] drops, duplicates, delays, and stalls traffic
//! per a seeded [`FaultPlan`], routes remote messages through the ack/retry
//! sublayer ([`crate::reliable`]) and, given [`FailureParams`], runs
//! heartbeat failure detection ([`crate::failure`]) beside it. A crashed
//! image ([`CrashFault`](caf_core::fault::CrashFault) or
//! [`Fabric::mark_crashed`]) has every transmission touching it destroyed.
//!
//! The reliable sublayer's timers run from the image's own receive calls.
//! [`Fabric::try_recv`] drains first and scans for due retransmissions
//! only when the drain is over, so acks already queued retire their
//! frames before the scan sees them. The fabric never flushes the
//! cumulative acks an image owes on its own: [`Fabric::try_recv`] reports
//! whether another frame is due behind the one it surfaces, and the
//! receiving image calls [`Fabric::flush_acks`] when its drain ends (no
//! further frame due, or nothing surfaced), after queueing its own
//! replies so that they carry the wire acks as piggybacks. A drain of `k`
//! messages therefore costs at most one ack frame per link.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::config::NetworkModel;
use caf_core::failure::FailureParams;
use caf_core::fault::{FaultPlan, RetryPolicy, ACK_BYTES, FIRST_INCARNATION};
use caf_core::ids::ImageId;
use caf_core::rng::splitmix64_hash;
use parking_lot::Mutex;

use crate::failure::{ConfirmedDown, FailureLayer, HEARTBEAT_BYTES};
use crate::inbox::Inbox;
use crate::reliable::{Reliable, Wire};
use crate::stats::FabricStats;

/// The fault schedule plus the reliable layer answering it.
struct Chaos<M> {
    plan: FaultPlan,
    /// Fabric creation time — stall windows and retry deadlines are
    /// relative to this.
    epoch: Instant,
    reliable: Reliable<M>,
}

impl<M> Chaos<M> {
    /// `at` in the reliable layer's clock: nanoseconds since the epoch.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// The interconnect between `n` images, carrying messages of type `M`.
pub struct Fabric<M> {
    inboxes: Vec<Inbox<Wire<M>>>,
    model: NetworkModel,
    non_fifo: bool,
    seq: AtomicU64,
    stats: FabricStats,
    /// Fault injection and reliable delivery; `None` on a lossless wire.
    chaos: Option<Chaos<M>>,
    /// Heartbeats and failure detectors; only ever set alongside `chaos`.
    failure: Option<FailureLayer>,
    /// Fail-stop flags, one per image, set by a crash fault firing on the
    /// wire or by [`Fabric::mark_crashed`] (panic boundaries crash images
    /// even without a fault plan).
    crashed: Vec<AtomicBool>,
    /// When each crash fired — the base for detection-latency reporting.
    crashed_at: Vec<Mutex<Option<Instant>>>,
}

impl<M: Send> Fabric<M> {
    /// A lossless fabric over `n` images with the given cost model.
    /// `non_fifo` enables deterministic pseudo-random reordering of
    /// same-pair messages (deadlines get up to `latency/2` extra skew).
    pub fn new(n: usize, model: NetworkModel, non_fifo: bool) -> Arc<Self> {
        Arc::new(Fabric::lossless(n, model, non_fifo))
    }

    /// A fabric whose wire misbehaves per `plan` and whose ack/retry
    /// sublayer answers with `retry` — engaged even for an inactive plan,
    /// so protocol overhead can be measured in isolation. With `failure`
    /// set, images also heartbeat idle links, run failure detectors, and
    /// surface confirmed deaths through [`Fabric::poll_failures`].
    pub fn with_chaos(
        n: usize,
        model: NetworkModel,
        non_fifo: bool,
        plan: FaultPlan,
        retry: RetryPolicy,
        failure: Option<FailureParams>,
    ) -> Arc<Self> {
        let epoch = Instant::now();
        Arc::new(Fabric {
            chaos: Some(Chaos { plan, epoch, reliable: Reliable::new(n, retry) }),
            failure: failure.map(|params| FailureLayer::new(n, params, epoch)),
            ..Fabric::lossless(n, model, non_fifo)
        })
    }

    fn lossless(n: usize, model: NetworkModel, non_fifo: bool) -> Self {
        Fabric {
            inboxes: (0..n).map(|_| Inbox::new()).collect(),
            model,
            non_fifo,
            seq: AtomicU64::new(0),
            stats: FabricStats::default(),
            chaos: None,
            failure: None,
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            crashed_at: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Aggregate traffic statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Whether the reliable-delivery (chaos) layer is engaged.
    pub fn faults_active(&self) -> bool {
        self.chaos.is_some()
    }

    /// Whether `image` has fail-stopped (crash fault fired, or the
    /// runtime reported it via [`Fabric::mark_crashed`]). An image thread
    /// observing its own flag must unwind instead of continuing to run.
    pub fn is_crashed(&self, image: ImageId) -> bool {
        self.crashed[image.index()].load(Ordering::Acquire)
    }

    /// Reports `image` as fail-stopped from outside the fault plan — the
    /// runtime's panic boundary calls this when an image closure panics.
    /// Idempotent; wakes every parked image so senders re-check flags.
    pub fn mark_crashed(&self, image: ImageId) {
        self.crashed[image.index()].store(true, Ordering::Release);
        self.crashed_at[image.index()].lock().get_or_insert_with(Instant::now);
        for inbox in &self.inboxes {
            inbox.poke();
        }
    }

    /// Records at `observer`'s detector a death learned externally (an
    /// `ImageDown` broadcast): engages the posthumous filter there
    /// without waiting out the observer's own suspect window.
    pub fn mark_peer_dead(&self, observer: ImageId, peer: usize, incarnation: u64) {
        if let Some(fl) = &self.failure {
            fl.mark_dead(observer, peer, incarnation);
        }
    }

    /// Drains the deaths `image`'s detector has confirmed since the last
    /// poll (pumping the detector first, so an image that only polls
    /// still advances its deadlines).
    pub fn poll_failures(&self, image: ImageId) -> Vec<ConfirmedDown> {
        self.pump(image);
        self.failure.as_ref().map_or_else(Vec::new, |fl| fl.poll(image))
    }

    /// Announces `image`'s clean exit to every surviving detector, so the
    /// silence of a normal staggered shutdown is never read as a crash.
    pub fn retire(&self, image: ImageId) {
        if let Some(fl) = &self.failure {
            fl.retire(image);
        }
    }

    /// Discards every queued message in every inbox (graceful team-wide
    /// drain after a failure verdict), returning the number of logical
    /// messages dropped.
    pub fn drain_inboxes(&self) -> usize {
        self.inboxes.iter().map(|inbox| inbox.drain()).sum()
    }

    /// Unacknowledged reliable messages currently owned by `image` as a
    /// sender (its retry queue depth). Zero without a fault layer.
    pub fn retry_backlog(&self, image: ImageId) -> usize {
        self.chaos.as_ref().map_or(0, |c| c.reliable.backlog(image))
    }

    /// Flow-control admission: refused only while `to`'s bounded inbox is
    /// full. Self-sends are exempt (the sender is its inbox's only
    /// drainer), as is traffic with a crashed endpoint, which the
    /// wire-level crash drop eats.
    fn admits(&self, from: ImageId, to: ImageId) -> bool {
        match self.model.inbox_capacity {
            Some(cap) if from != to => {
                self.inboxes[to.index()].len() < cap || self.is_crashed(to) || self.is_crashed(from)
            }
            _ => true,
        }
    }

    /// Attempts to send one frame carrying `count` logical messages in
    /// `payload_bytes` bytes under flow control, without blocking:
    /// returns the frame back while the target has no credit. The caller
    /// must be able to make progress while refused (an image thread
    /// draining its own inbox — GASNet's poll-while-blocked rule for
    /// requests) and retries from its own wait loop. The frame counts as
    /// `count` messages and one frame, weighs `count` in the target's
    /// inbox depth, and advances the wire sequence by `count`, which must
    /// be at least 1. Self-sends traverse the model's loopback (zero
    /// latency, injection cost only), as every send does.
    pub fn try_send_frame(
        &self,
        from: ImageId,
        to: ImageId,
        payload_bytes: usize,
        count: usize,
        msg: M,
    ) -> Result<(), M> {
        assert!(count > 0, "a frame carries at least one message");
        if !self.admits(from, to) {
            self.stats.note_backpressure_stall();
            return Err(msg);
        }
        self.inject(from, to, payload_bytes, count, msg);
        Ok(())
    }

    /// Sends one message without flow control; it still counts in the
    /// target's inbox depth, so senders under credit see the pressure.
    /// For two kinds of traffic. *Reply-class* traffic — delivery
    /// acknowledgements, event notifications, completion advances,
    /// collective control hops: GASNet gives AM replies the same
    /// exemption, since a handler must be able to reply without blocking,
    /// or two images whose inboxes are both full of requests deadlock
    /// exchanging acknowledgements. And every injection by a thread that
    /// cannot drain an inbox while it waits (a communication thread): its
    /// task queue is unbounded anyway, so parking it on credit would only
    /// move the backlog from the inbox to that queue.
    pub fn send_unthrottled(&self, from: ImageId, to: ImageId, payload_bytes: usize, msg: M) {
        self.inject(from, to, payload_bytes, 1, msg);
    }

    /// Logical send of one frame of `count` messages: counts them and
    /// routes the frame either raw (lossless wire, or loopback) or
    /// through the reliable layer.
    fn inject(&self, from: ImageId, to: ImageId, payload_bytes: usize, count: usize, msg: M) {
        self.stats.note_send(payload_bytes, count);
        let wire = match &self.chaos {
            // Self-sends bypass the wire — and therefore the fault layer —
            // in both modes.
            Some(chaos) if from != to => {
                chaos
                    .reliable
                    .inject(from, to, payload_bytes, count, msg, chaos.ns(Instant::now()))
            }
            _ => Wire::Raw(msg),
        };
        self.transmit(from, to, payload_bytes, count, wire);
    }

    /// Wire-level transmission of a frame of `count` logical messages
    /// (1 for protocol frames): applies the cost model, non-FIFO jitter,
    /// and — under a fault plan — drops, duplicates, delay spikes, and
    /// straggler deferral. Every call is one die roll; retransmissions of
    /// the same frame roll independently.
    fn transmit(
        &self,
        from: ImageId,
        to: ImageId,
        payload_bytes: usize,
        count: usize,
        wire: Wire<M>,
    ) {
        let inbox = &self.inboxes[to.index()];
        // The frame takes `count` wire sequence numbers and is keyed by
        // its last one.
        let seq = self.seq.fetch_add(count as u64, Ordering::Relaxed) + count as u64 - 1;
        // Scheduled crashes fire on the first transmission at or past
        // their trigger sequence — the same wire-seq keying both
        // substrates use, so a crash point reproduces across runs.
        if let Some(chaos) = &self.chaos {
            for image in chaos.plan.crashes_due(seq) {
                if !self.crashed[image].load(Ordering::Acquire) {
                    self.crashed[image].store(true, Ordering::Release);
                    self.crashed_at[image].lock().get_or_insert_with(Instant::now);
                }
            }
        }
        // Fail-stop: a dead image neither injects nor receives. The
        // arming transmission itself is already subject to the drop.
        if self.is_crashed(from) || self.is_crashed(to) {
            self.stats.note_crash_drop();
            return;
        }
        let mut delay = self.model.injection_overhead;
        if from != to {
            delay += self.model.wire_time(payload_bytes);
            if self.non_fifo && !self.model.latency.is_zero() {
                let span = (self.model.latency / 2).as_nanos() as u64;
                if span > 0 {
                    delay += Duration::from_nanos(splitmix64_hash(seq) % span);
                }
            }
        }
        if let Some(chaos) = self.chaos.as_ref().filter(|_| from != to) {
            let decision = chaos.plan.decide(from.index(), to.index(), seq);
            let elapsed = chaos.epoch.elapsed();
            delay += chaos.plan.extra_delay(from.index(), to.index(), decision, elapsed);
            if decision.drop {
                self.stats.note_wire_drop();
                return; // vanishes; the retry timer will answer
            }
            if decision.duplicate {
                if let Some(copy) = wire.clone_protocol() {
                    self.stats.note_wire_dup();
                    let extra = self.model.latency / 2 + Duration::from_micros(5);
                    inbox.push(Instant::now() + delay + extra, count, copy);
                }
            }
        }
        inbox.push(Instant::now() + delay, count, wire);
    }

    /// Runs `image`'s protocol timers from its own fabric entry points
    /// (lazy pumping — the fabric has no thread of its own): due
    /// retransmissions first, then the failure-detection duty cycle.
    fn pump(&self, image: ImageId) {
        let Some(chaos) = &self.chaos else { return };
        if self.is_crashed(image) {
            return; // the dead retransmit nothing and heartbeat no one
        }
        let now = Instant::now();
        let fl = self.failure.as_ref();
        let is_dead = |peer| fl.is_some_and(|fl| fl.is_dead(image, peer));
        let (resend, exhausted) = chaos.reliable.pump(image, chaos.ns(now), is_dead, &self.stats);
        if let Some(fl) = fl {
            fl.on_retry_exhausted(image, &exhausted);
        }
        for (dest, bytes, count, wire) in resend {
            self.stats.note_retry();
            self.transmit(image, dest, bytes, count, wire);
        }
        let Some(fl) = fl else { return };
        for peer in fl.pump(image, now, &self.crashed_at) {
            self.stats.note_heartbeat();
            let beat = Wire::Heartbeat { from: image, incarnation: FIRST_INCARNATION };
            self.transmit(image, ImageId(peer), HEARTBEAT_BYTES, 1, beat);
        }
    }

    /// Puts every cumulative ack `image` owes on the wire, one frame per
    /// owing link. Acks ride the faulty wire too. A no-op on a lossless
    /// wire. The receiving image calls this when its drain ends (see
    /// [`Fabric::try_recv`]); the fabric itself never does.
    pub fn flush_acks(&self, image: ImageId) {
        let Some(chaos) = &self.chaos else { return };
        for (to, ack) in chaos.reliable.owed_acks(image) {
            self.stats.note_ack();
            self.transmit(image, to, ACK_BYTES, 1, Wire::Ack { from: image, ack });
        }
    }

    /// Opens one popped wire envelope of `count` logical messages at
    /// `image`. Returns the payload if this envelope surfaces a fresh
    /// frame.
    fn open(&self, image: ImageId, wire: Wire<M>, count: usize) -> Option<M> {
        let (from, incarnation) = match wire {
            Wire::Raw(msg) => {
                self.stats.note_delivered(count);
                return Some(msg);
            }
            Wire::Data { from, .. } | Wire::Ack { from, .. } => (from, FIRST_INCARNATION),
            Wire::Heartbeat { from, incarnation } => (from, incarnation),
        };
        // Posthumous filter: a frame from a confirmed-dead incarnation must
        // not be acked, delivered, or resurrect work under a poisoned epoch.
        if let Some(fl) = &self.failure {
            if !fl.note_life_sign(image, from, incarnation) {
                self.stats.note_posthumous_drop();
                return None;
            }
        }
        let chaos = self.chaos.as_ref().expect("protocol frames only exist under chaos");
        chaos.reliable.open(image, wire, count, &self.stats)
    }

    /// Non-blocking receive for `image`: the earliest due message, if any,
    /// and whether another frame is already due behind it. Protocol
    /// frames (acks, heartbeats, filtered duplicates) are consumed
    /// without surfacing. Pumps `image`'s protocol timers when nothing
    /// surfaces. When no further frame is due (or nothing surfaces), the
    /// drain is over, but the owed wire acks are *not* flushed: the
    /// caller queues its replies first, so a reply to a link's sender
    /// carries that link's ack as a piggyback, and then calls
    /// [`Fabric::flush_acks`] for the rest.
    pub fn try_recv(&self, image: ImageId) -> Option<(M, bool)> {
        while let Some((wire, count, more_due)) = self.inboxes[image.index()].try_pop_due() {
            if let Some(msg) = self.open(image, wire, count) {
                return Some((msg, more_due));
            }
        }
        self.pump(image);
        None
    }

    /// Queue depth at `image`'s inbox in logical messages (due and
    /// undue).
    pub fn inbox_depth(&self, image: ImageId) -> usize {
        self.inboxes[image.index()].len()
    }

    /// Wakes `image` if it is parked waiting for activity (no message is
    /// enqueued). See [`Inbox::poke`].
    pub fn poke(&self, image: ImageId) {
        self.inboxes[image.index()].poke();
    }

    /// Parks `image` until a message arrives / becomes due, a poke lands,
    /// a retransmission falls due, or `deadline` passes. The caller has
    /// flushed what `image` owes (see [`Fabric::try_recv`]). See
    /// [`Inbox::wait_activity`].
    pub fn wait_activity(&self, image: ImageId, deadline: Instant) {
        self.pump(image);
        // A parked sender must wake in time to retransmit.
        let retry = self.chaos.as_ref().and_then(|c| {
            c.reliable.next_retry_at(image).map(|ns| c.epoch + Duration::from_nanos(ns))
        });
        self.inboxes[image.index()].wait_activity(retry.map_or(deadline, |r| r.min(deadline)));
        self.pump(image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(i: usize) -> ImageId {
        ImageId(i)
    }

    /// One receive under the runtime's flush rule: when the drain ends
    /// (no further frame due, or nothing surfaced), flush the wire acks
    /// `image` owes. The runtime queues its own replies first; these
    /// tests have none.
    fn poll<M: Send>(f: &Fabric<M>, image: ImageId) -> Option<M> {
        let got = f.try_recv(image);
        if got.as_ref().is_none_or(|&(_, more_due)| !more_due) {
            f.flush_acks(image);
        }
        got.map(|(msg, _)| msg)
    }

    /// Receives the way the runtime does: [`poll`], park in
    /// [`Fabric::wait_activity`] until something happens.
    fn recv<M: Send>(f: &Fabric<M>, image: ImageId, deadline: Instant) -> Option<M> {
        loop {
            if let Some(m) = poll(f, image) {
                return Some(m);
            }
            if Instant::now() >= deadline {
                return None;
            }
            f.wait_activity(image, deadline);
        }
    }

    #[test]
    fn instant_network_delivers_immediately() {
        let f: Arc<Fabric<u32>> = Fabric::new(2, NetworkModel::instant(), false);
        f.send_unthrottled(img(0), img(1), 8, 99);
        assert_eq!(poll(&f, img(1)), Some(99));
        assert_eq!(poll(&f, img(0)), None);
    }

    #[test]
    fn latency_withholds_delivery() {
        let model = NetworkModel { latency: Duration::from_millis(30), ..NetworkModel::instant() };
        let f: Arc<Fabric<&str>> = Fabric::new(2, model, false);
        f.send_unthrottled(img(0), img(1), 0, "hi");
        assert_eq!(poll(&f, img(1)), None, "message must not be visible early");
        let got = recv(&f, img(1), Instant::now() + Duration::from_secs(2));
        assert_eq!(got, Some("hi"));
    }

    #[test]
    fn self_sends_skip_wire_latency() {
        let model = NetworkModel { latency: Duration::from_secs(3600), ..NetworkModel::instant() };
        let f: Arc<Fabric<u8>> = Fabric::new(2, model, false);
        f.send_unthrottled(img(1), img(1), 0, 5);
        assert_eq!(poll(&f, img(1)), Some(5));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let f: Arc<Fabric<u8>> = Fabric::new(2, NetworkModel::instant(), false);
        f.send_unthrottled(img(0), img(1), 100, 1);
        f.send_unthrottled(img(0), img(1), 20, 2);
        assert_eq!(f.stats().snapshot().messages, 2);
        assert_eq!(f.stats().snapshot().bytes, 120);
    }

    #[test]
    fn a_frame_of_k_counts_k_messages_one_frame_and_k_credits() {
        let model = NetworkModel { inbox_capacity: Some(8), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::new(2, model, false);
        let k = 5;
        assert_eq!(f.try_send_frame(img(0), img(1), 5 * 64, k, 7), Ok(()));
        let t = f.stats().snapshot();
        assert_eq!((t.messages, t.frames, t.bytes), (k as u64, 1, 320));
        assert_eq!(f.inbox_depth(img(1)), k, "the inbox is weighted by the frame's count");
        f.send_unthrottled(img(0), img(1), 16, 8);
        assert_eq!((f.stats().snapshot().messages, f.stats().snapshot().frames), (6, 2));
        assert_eq!(f.inbox_depth(img(1)), k + 1);
        assert_eq!(poll(&f, img(1)), Some(7));
        assert_eq!(f.stats().snapshot().delivered, k as u64, "a frame surfaces all k");
        assert_eq!(f.inbox_depth(img(1)), 1);
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn an_empty_frame_is_refused() {
        let f: Arc<Fabric<u32>> = Fabric::new(2, NetworkModel::instant(), false);
        let _ = f.try_send_frame(img(0), img(1), 0, 0, 7);
    }

    #[test]
    fn a_frame_advances_the_wire_seq_by_its_count() {
        // Image 1 is scheduled to crash at wire seq 4. A first frame
        // covering seqs 0..=2 leaves it alive; the next frame covers 3..=5
        // and so fires it, exactly where the fourth single send would.
        let plan = FaultPlan::none(3).with_crash(1, 4);
        let f = faulty(2, plan, RetryPolicy::default());
        assert_eq!(f.try_send_frame(img(0), img(1), 0, 3, 1), Ok(()));
        assert!(!f.is_crashed(img(1)));
        assert_eq!(f.try_send_frame(img(0), img(1), 0, 3, 2), Ok(()));
        assert!(f.is_crashed(img(1)), "the frame carrying logical message 4 fires the crash");
    }

    #[test]
    fn unthrottled_sends_pass_the_credit_and_count_in_the_depth() {
        let model = NetworkModel { inbox_capacity: Some(1), ..NetworkModel::instant() };
        let f: Arc<Fabric<u8>> = Fabric::new(3, model, false);
        f.send_unthrottled(img(0), img(2), 0, 1); // takes image 2's one credit
        f.send_unthrottled(img(0), img(2), 0, 2);
        assert_eq!(f.inbox_depth(img(2)), 2, "admitted past the credit, and counted");
        assert_eq!(f.try_send_frame(img(0), img(2), 0, 1, 3), Err(3), "full inbox refuses");
        assert_eq!(f.stats().snapshot().backpressure_stalls, 1);
        f.mark_crashed(img(1));
        assert_eq!(
            f.try_send_frame(img(1), img(2), 0, 1, 4),
            Ok(()),
            "a dead sender is never refused"
        );
        assert_eq!(f.stats().snapshot().crash_drops, 1, "its message dies on the wire");
        assert_eq!(f.inbox_depth(img(2)), 2);
    }

    #[test]
    fn non_fifo_can_reorder_same_pair_messages() {
        // With reordering enabled and a measurable latency, *some* pair of
        // consecutive sends ends up with inverted deadlines. We test
        // deterministically: jitter is a pure function of the global
        // sequence number, so two specific messages reorder reproducibly.
        let model = NetworkModel { latency: Duration::from_millis(4), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::new(2, model, true);
        for i in 0..32 {
            f.send_unthrottled(img(0), img(1), 0, i);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut order = Vec::new();
        while order.len() < 32 {
            if let Some(m) = recv(&f, img(1), deadline) {
                order.push(m);
            } else {
                panic!("timed out draining");
            }
        }
        let sorted: Vec<u32> = (0..32).collect();
        assert_ne!(order, sorted, "expected at least one reordering");
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(check, sorted, "no loss, no duplication");
    }

    // ------------------------------------------------------------------
    // Chaos layer
    // ------------------------------------------------------------------

    /// A fault-injecting fabric without failure detection.
    fn faulty(n: usize, plan: FaultPlan, retry: RetryPolicy) -> Arc<Fabric<u32>> {
        Fabric::with_chaos(n, NetworkModel::instant(), false, plan, retry, None)
    }

    fn drain_reliable(
        f: &Arc<Fabric<u32>>,
        at: ImageId,
        expect: usize,
        patience: Duration,
    ) -> Vec<u32> {
        let deadline = Instant::now() + patience;
        let mut got = Vec::new();
        while got.len() < expect && Instant::now() < deadline {
            if let Some(m) = recv(f, at, Instant::now() + Duration::from_millis(5)) {
                got.push(m);
            }
        }
        got
    }

    /// The sender must keep polling (acks land in *its* inbox) for the
    /// protocol to converge; this helper pumps both sides.
    fn pump_sender(f: &Arc<Fabric<u32>>, sender: ImageId) {
        while poll(f, sender).is_some() {}
    }

    #[test]
    fn heavy_drop_rate_still_delivers_every_message_once() {
        let plan = FaultPlan::uniform_drop(0xC0FFEE, 0.4).with_dup(0.2);
        let f = faulty(2, plan, RetryPolicy::aggressive());
        let total = 200u32;
        for i in 0..total {
            f.send_unthrottled(img(0), img(1), 4, i);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = Vec::new();
        while got.len() < total as usize {
            assert!(Instant::now() < deadline, "lost messages: got {}", got.len());
            if let Some(m) = recv(&f, img(1), Instant::now() + Duration::from_millis(2)) {
                got.push(m);
            }
            pump_sender(&f, img(0)); // sender consumes acks, pumps retries
        }
        got.sort_unstable();
        assert_eq!(got, (0..total).collect::<Vec<_>>(), "exactly-once violated");
        assert!(f.stats().snapshot().wire_drops > 0, "plan should have dropped something");
        assert!(f.stats().snapshot().retries > 0, "drops must have forced retries");
        assert_eq!(f.stats().snapshot().delivered, total as u64);
        // The last acks may still be in flight; pump both sides until the
        // sender's outstanding queue converges to empty.
        while f.retry_backlog(img(0)) > 0 {
            assert!(Instant::now() < deadline, "acks never converged");
            pump_sender(&f, img(0));
            while poll(&f, img(1)).is_some() {}
            std::thread::yield_now();
        }
    }

    #[test]
    fn duplicates_are_filtered_not_double_counted() {
        let plan = FaultPlan::none(9).with_dup(1.0); // duplicate everything
        let f = faulty(2, plan, RetryPolicy::aggressive());
        for i in 0..50 {
            f.send_unthrottled(img(0), img(1), 0, i);
        }
        let got = drain_reliable(&f, img(1), 50, Duration::from_secs(10));
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Nothing further surfaces even though the wire carried ~2x.
        assert_eq!(poll(&f, img(1)), None);
        assert!(f.stats().snapshot().dups_discarded > 0);
        assert_eq!(f.stats().snapshot().delivered, 50);
    }

    #[test]
    fn total_drop_link_exhausts_retry_budget() {
        let plan = FaultPlan::none(1).with_link(0, 1, 1.0); // black hole
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(200),
            backoff: 2,
            max_timeout: Duration::from_millis(1),
            max_retries: 3,
        };
        let horizon = retry.exhaustion_horizon();
        let f = faulty(2, plan, retry);
        f.send_unthrottled(img(0), img(1), 0, 7);
        assert_eq!(f.retry_backlog(img(0)), 1);
        let deadline = Instant::now() + horizon * 4 + Duration::from_millis(50);
        while f.stats().snapshot().retries_exhausted == 0 {
            assert!(Instant::now() < deadline, "budget never exhausted");
            f.wait_activity(img(0), Instant::now() + Duration::from_micros(100));
        }
        assert_eq!(f.retry_backlog(img(0)), 0, "abandoned message must leave the queue");
        assert_eq!(f.stats().snapshot().retries, 3, "exactly max_retries retransmissions");
        assert_eq!(poll(&f, img(1)), None, "nothing ever crossed the link");
    }

    #[test]
    fn ack_loss_causes_retries_but_no_duplicate_delivery() {
        // Reverse link (acks) is a black hole; data link is clean.
        let plan = FaultPlan::none(4).with_link(1, 0, 1.0);
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(200),
            backoff: 2,
            max_timeout: Duration::from_millis(1),
            max_retries: 4,
        };
        let f = faulty(2, plan, retry);
        f.send_unthrottled(img(0), img(1), 0, 11);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut surfaced = Vec::new();
        while f.stats().snapshot().retries_exhausted == 0 {
            assert!(Instant::now() < deadline, "sender never gave up");
            if let Some(m) = poll(&f, img(1)) {
                surfaced.push(m);
            }
            f.wait_activity(img(0), Instant::now() + Duration::from_micros(100));
        }
        // Give any in-flight retransmits time to land, then re-drain.
        std::thread::sleep(Duration::from_millis(5));
        while let Some(m) = poll(&f, img(1)) {
            surfaced.push(m);
        }
        assert_eq!(surfaced, vec![11], "dedup must absorb every retransmission");
        assert!(f.stats().snapshot().dups_discarded > 0, "retransmits should have arrived");
        assert_eq!(f.stats().snapshot().delivered, 1);
    }

    #[test]
    fn queued_acks_retire_before_the_retransmit_scan() {
        let retry = RetryPolicy::default();
        let f = faulty(2, FaultPlan::none(21), retry.clone());
        let k = 8;
        for i in 0..k {
            f.send_unthrottled(img(0), img(1), 4, i);
        }
        assert_eq!(
            drain_reliable(&f, img(1), k as usize, Duration::from_secs(5)).len(),
            k as usize
        );
        // The ack is queued at image 0, but every ack timer has expired.
        std::thread::sleep(retry.ack_timeout * 2);
        assert_eq!(poll(&f, img(0)), None);
        assert_eq!(f.stats().snapshot().retries, 0, "a queued ack must beat the retry scan");
        assert_eq!(f.retry_backlog(img(0)), 0);
    }

    #[test]
    fn one_drain_costs_one_ack_frame_per_link() {
        let f = faulty(3, FaultPlan::none(22), RetryPolicy::default());
        let k = 16;
        for i in 0..k {
            f.send_unthrottled(img(0), img(1), 4, i);
        }
        assert_eq!(
            drain_reliable(&f, img(1), k as usize, Duration::from_secs(5)).len(),
            k as usize
        );
        assert_eq!(f.stats().snapshot().acks, 1, "one cumulative ack for the whole drain");
        assert_eq!(poll(&f, img(0)), None);
        assert_eq!(f.retry_backlog(img(0)), 0, "the one ack retires all {k} frames");
        // Two inbound links: one ack each, however the drain interleaves.
        for i in 0..k {
            f.send_unthrottled(img(0), img(1), 4, i);
            f.send_unthrottled(img(2), img(1), 4, i);
        }
        assert_eq!(drain_reliable(&f, img(1), 2 * k as usize, Duration::from_secs(5)).len(), 32);
        assert_eq!(f.stats().snapshot().acks, 3);
        pump_sender(&f, img(0));
        pump_sender(&f, img(2));
        assert_eq!((f.retry_backlog(img(0)), f.retry_backlog(img(2))), (0, 0));
    }

    #[test]
    fn reverse_traffic_piggybacks_the_owed_ack() {
        let f = faulty(3, FaultPlan::none(23), RetryPolicy::default());
        f.send_unthrottled(img(0), img(1), 4, 10);
        f.send_unthrottled(img(2), img(1), 4, 20); // keeps image 1's drain going
        assert_eq!(poll(&f, img(1)), Some(10));
        // Image 1 answers before its drain ends, so its ack is still owed.
        f.send_unthrottled(img(1), img(0), 4, 11);
        f.send_unthrottled(img(1), img(0), 4, 12);
        assert_eq!(poll(&f, img(0)), Some(11));
        assert_eq!(f.retry_backlog(img(0)), 0, "the reply carried the ack");
        assert_eq!(f.stats().snapshot().acks, 0, "no standalone ack frame was sent");
    }

    #[test]
    fn stall_window_defers_delivery_until_it_closes() {
        let stall = Duration::from_millis(40);
        let plan = FaultPlan::none(2).with_stall(1, Duration::ZERO, stall);
        let f = faulty(
            2,
            plan,
            RetryPolicy { ack_timeout: Duration::from_secs(1), ..RetryPolicy::default() },
        );
        let t0 = Instant::now();
        f.send_unthrottled(img(0), img(1), 0, 3);
        assert_eq!(poll(&f, img(1)), None, "stalled image must not see the message yet");
        let got = recv(&f, img(1), t0 + Duration::from_secs(5));
        assert_eq!(got, Some(3));
        assert!(
            t0.elapsed() >= stall - Duration::from_millis(1),
            "delivery {}µs after send, before the {}ms window closed",
            t0.elapsed().as_micros(),
            stall.as_millis()
        );
    }

    // ------------------------------------------------------------------
    // Fail-stop crashes + failure detection
    // ------------------------------------------------------------------

    fn chaos_pair(plan: FaultPlan) -> Arc<Fabric<u32>> {
        Fabric::with_chaos(
            2,
            NetworkModel::instant(),
            false,
            plan,
            RetryPolicy::aggressive(),
            Some(FailureParams::aggressive()),
        )
    }

    #[test]
    fn idle_links_heartbeat_and_stay_alive() {
        let f = chaos_pair(FaultPlan::none(7));
        let deadline = Instant::now() + FailureParams::aggressive().detection_horizon() * 3;
        while Instant::now() < deadline {
            for i in 0..2 {
                while poll(&f, img(i)).is_some() {}
                f.wait_activity(img(i), Instant::now() + Duration::from_micros(200));
            }
        }
        assert!(f.stats().snapshot().heartbeats > 0, "idle links must heartbeat");
        assert!(f.poll_failures(img(0)).is_empty(), "image 1 is alive");
        assert!(f.poll_failures(img(1)).is_empty(), "image 0 is alive");
    }

    #[test]
    fn injected_crash_is_confirmed_by_the_survivor() {
        // Image 1 crashes on the very first wire transmission.
        let f = chaos_pair(FaultPlan::none(3).with_crash(1, 0));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut downs = Vec::new();
        while downs.is_empty() {
            assert!(Instant::now() < deadline, "crash never confirmed");
            downs = f.poll_failures(img(0));
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(downs[0].peer, 1);
        assert_eq!(downs[0].incarnation, 1);
        assert!(downs[0].latency.is_some(), "fabric knows when the crash fired");
        assert!(f.is_crashed(img(1)));
        assert!(!f.is_crashed(img(0)), "only the victim crashed");
        assert!(f.stats().snapshot().crash_drops > 0, "traffic to the dead image is destroyed");
    }

    #[test]
    fn posthumous_data_is_filtered_not_delivered() {
        let model = NetworkModel { latency: Duration::from_millis(30), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::with_chaos(
            2,
            model,
            false,
            FaultPlan::none(11),
            RetryPolicy { ack_timeout: Duration::from_secs(60), ..RetryPolicy::default() },
            Some(FailureParams::default()),
        );
        // Image 1's message is in flight when image 0 learns of its death
        // (e.g. from an ImageDown broadcast).
        f.send_unthrottled(img(1), img(0), 4, 77);
        f.mark_peer_dead(img(0), 1, 1);
        let got = recv(&f, img(0), Instant::now() + Duration::from_millis(200));
        assert_eq!(got, None, "posthumous payload must not surface");
        assert!(f.stats().snapshot().posthumous_drops > 0);
        assert_eq!(f.stats().snapshot().delivered, 0);
    }

    #[test]
    fn crashed_destination_never_parks_a_sender() {
        let model = NetworkModel { inbox_capacity: Some(1), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::with_chaos(
            2,
            model,
            false,
            FaultPlan::none(5),
            RetryPolicy::default(),
            Some(FailureParams::default()),
        );
        assert_eq!(f.try_send_frame(img(0), img(1), 0, 1, 1), Ok(())); // fills the capacity-1 inbox
        f.mark_crashed(img(1));
        assert!(
            f.try_send_frame(img(0), img(1), 0, 1, 2).is_ok(),
            "try_send_frame must admit-and-drop, not refuse"
        );
        assert!(f.stats().snapshot().crash_drops > 0);
    }

    #[test]
    fn confirmed_death_abandons_pending_retransmits() {
        // Acks can never come back (image 1 is never polled), and the ack
        // timeout is an hour: only the death verdict empties the queue.
        let slow = RetryPolicy { ack_timeout: Duration::from_secs(3600), ..RetryPolicy::default() };
        let pair = |params| {
            Fabric::with_chaos(
                2,
                NetworkModel::instant(),
                false,
                FaultPlan::none(8),
                slow.clone(),
                params,
            )
        };

        // Learned from a broadcast.
        let f: Arc<Fabric<u32>> = pair(Some(FailureParams::default()));
        for i in 0..3 {
            f.send_unthrottled(img(0), img(1), 0, i);
        }
        assert_eq!(f.retry_backlog(img(0)), 3);
        f.mark_peer_dead(img(0), 1, 1);
        assert_eq!(poll(&f, img(0)), None); // the next pump
        assert_eq!(f.retry_backlog(img(0)), 0, "dead letters must leave the queue");
        assert_eq!(f.stats().snapshot().crash_drops, 3, "abandoned frames count as crash drops");

        // Confirmed by image 0's own detector (image 1 falls silent).
        let f: Arc<Fabric<u32>> = pair(Some(FailureParams::aggressive()));
        for i in 0..3 {
            f.send_unthrottled(img(0), img(1), 0, i);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while f.poll_failures(img(0)).is_empty() {
            assert!(Instant::now() < deadline, "silence never confirmed the death");
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(f.retry_backlog(img(0)), 3, "confirmation lands after this pump's retry walk");
        assert_eq!(poll(&f, img(0)), None); // the next pump
        assert_eq!(f.retry_backlog(img(0)), 0);
        assert_eq!(f.stats().snapshot().crash_drops, 3);
        assert_eq!(f.stats().snapshot().retries, 0, "nothing was retransmitted into the void");
    }

    #[test]
    fn retired_images_are_never_suspected() {
        let f = chaos_pair(FaultPlan::none(9));
        f.retire(img(1)); // image 1 exits cleanly and goes silent
        let deadline = Instant::now() + FailureParams::aggressive().detection_horizon() * 3;
        while Instant::now() < deadline {
            assert!(f.poll_failures(img(0)).is_empty(), "clean exit misread as a crash");
            std::thread::sleep(Duration::from_micros(500));
        }
        let (suspects, _) = f.failure.as_ref().expect("detection is on").metrics(img(0));
        assert_eq!(suspects, 0, "retired peers must never enter the suspect window");
    }

    #[test]
    fn retry_exhaustion_fast_paths_to_death_confirmation() {
        // Both directions are black holes, and the silence deadline is an
        // hour: only the retry-exhaustion hint can raise the suspicion.
        let plan = FaultPlan::none(2).with_link(0, 1, 1.0).with_link(1, 0, 1.0);
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(200),
            backoff: 2,
            max_timeout: Duration::from_millis(1),
            max_retries: 3,
        };
        let params = FailureParams {
            heartbeat_period: Duration::from_millis(1),
            suspect_after: Duration::from_secs(3600),
            confirm_after: Duration::from_millis(5),
        };
        let f: Arc<Fabric<u32>> =
            Fabric::with_chaos(2, NetworkModel::instant(), false, plan, retry, Some(params));
        f.send_unthrottled(img(0), img(1), 0, 9);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut downs = Vec::new();
        while downs.is_empty() {
            assert!(Instant::now() < deadline, "exhaustion never confirmed the death");
            f.wait_activity(img(0), Instant::now() + Duration::from_micros(200));
            downs = f.poll_failures(img(0));
        }
        assert!(f.stats().snapshot().retries_exhausted > 0);
        assert_eq!(downs[0].peer, 1);
        assert_eq!(downs[0].latency, None, "no crash fault fired; origin unknown");
    }

    #[test]
    fn chaos_decisions_are_reproducible_across_fabrics() {
        // Same plan + same send order → identical drop/dup counters.
        let run = |seed: u64| {
            let plan = FaultPlan::uniform_drop(seed, 0.3).with_dup(0.3);
            let f: Arc<Fabric<u32>> = Fabric::with_chaos(
                2,
                NetworkModel::instant(),
                false,
                plan,
                // Ack timeout far beyond the test body: no retransmission
                // ever fires, so wire traffic is exactly the sends.
                RetryPolicy { ack_timeout: Duration::from_secs(60), ..RetryPolicy::default() },
                None,
            );
            for i in 0..100 {
                f.send_unthrottled(img(0), img(1), 0, i);
            }
            (f.stats().snapshot().wire_drops, f.stats().snapshot().wire_dups)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ somewhere");
    }
}
