//! Seeded, deterministic fault injection — the chaos half of the fabric.
//!
//! A [`FaultPlan`] describes *what the network does wrong*: per-link
//! message drops, duplication, latency spikes, and per-image stall
//! (straggler) windows. Every decision is a pure function of the plan's
//! seed and the message's global wire sequence number, so a chaos run is
//! exactly reproducible — in the threaded runtime, in the discrete-event
//! simulator, and across both when the send order matches.
//!
//! A [`RetryPolicy`] describes *what the transport does about it*:
//! acknowledgement timeouts with exponential backoff and a capped retry
//! budget. Exceeding the budget is surfaced to the runtime, whose
//! no-progress watchdog converts the silent hang into a structured
//! `RuntimeError::Stalled` diagnostic instead.
//!
//! A [`LinkMachine`] is the transport itself: the sans-IO ack/retry/dedup
//! state of one image's link with one peer, driven by the threaded fabric,
//! the discrete-event simulator, and the `caf-check` lossy-link explorer.

use std::collections::VecDeque;
use std::time::Duration;

use crate::rng::{splitmix64_hash, SplitMix64};

/// Simulated size of a reliable-delivery acknowledgement frame, in bytes
/// (the threaded fabric and the DES mirror both charge it).
pub const ACK_BYTES: usize = 16;

/// Incarnation stamped on every image's traffic. Restarts (which would
/// bump it) are not implemented; the constant still flows through the
/// protocol so the posthumous filter exercises the real comparison.
pub const FIRST_INCARNATION: u64 = 1;

/// Per-link override of the drop probability (both directions are
/// distinct: `(from, to)` is ordered).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Sending image index.
    pub from: usize,
    /// Receiving image index.
    pub to: usize,
    /// Drop probability on this link, replacing [`FaultPlan::drop_p`].
    pub drop_p: f64,
}

/// A window during which one image is stalled (descheduled straggler):
/// wire traffic touching it is deferred until the window closes.
#[derive(Debug, Clone, PartialEq)]
pub struct StallWindow {
    /// The stalled image index.
    pub image: usize,
    /// Window start, relative to fabric creation.
    pub start: Duration,
    /// Window length.
    pub duration: Duration,
}

impl StallWindow {
    /// Remaining stall time if `elapsed` falls inside the window.
    #[inline]
    pub fn remaining_at(&self, elapsed: Duration) -> Option<Duration> {
        let end = self.start + self.duration;
        (self.start <= elapsed && elapsed < end).then(|| end - elapsed)
    }
}

/// A deterministic fail-stop crash: `image` dies the instant the fabric's
/// global wire sequence counter reaches `at_seq`. Keying the crash to the
/// wire sequence (rather than wall-clock) makes the failure point exactly
/// reproducible on both substrates: the threaded fabric and the
/// discrete-event simulator count transmissions identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// The image that fail-stops.
    pub image: usize,
    /// Global wire sequence number at which the image is considered dead:
    /// the crash fires on the first transmission with `wire_seq >= at_seq`.
    pub at_seq: u64,
}

/// What the fault layer decided to do to one wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Message vanishes on the wire (never delivered).
    pub drop: bool,
    /// A second copy is delivered as well.
    pub duplicate: bool,
    /// Delivery is delayed by [`FaultPlan::spike_delay`] extra.
    pub delay_spike: bool,
}

impl FaultDecision {
    /// The no-fault decision.
    pub const CLEAN: FaultDecision =
        FaultDecision { drop: false, duplicate: false, delay_spike: false };
}

/// A deterministic, seeded description of network misbehaviour.
///
/// All probabilities are per *wire transmission* (retransmits roll their
/// own dice). Self-sends never traverse the wire and are exempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault decisions; two fabrics with the same plan make
    /// identical decisions for identical wire sequence numbers.
    pub seed: u64,
    /// Baseline probability a wire message is dropped.
    pub drop_p: f64,
    /// Probability a wire message is delivered twice.
    pub dup_p: f64,
    /// Probability a wire message suffers an extra delay spike.
    pub spike_p: f64,
    /// Magnitude of a delay spike.
    pub spike_delay: Duration,
    /// Per-link drop-probability overrides (first match wins).
    pub links: Vec<LinkFault>,
    /// Per-image straggler windows.
    pub stalls: Vec<StallWindow>,
    /// Fail-stop crash schedule (one entry per crashing image; the
    /// earliest `at_seq` wins if an image appears twice).
    pub crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for builders).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            spike_p: 0.0,
            spike_delay: Duration::ZERO,
            links: Vec::new(),
            stalls: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Uniform drop probability on every link.
    pub fn uniform_drop(seed: u64, drop_p: f64) -> Self {
        FaultPlan { drop_p, ..FaultPlan::none(seed) }
    }

    /// Adds uniform duplication.
    pub fn with_dup(mut self, dup_p: f64) -> Self {
        self.dup_p = dup_p;
        self
    }

    /// Adds delay spikes.
    pub fn with_spikes(mut self, spike_p: f64, spike_delay: Duration) -> Self {
        self.spike_p = spike_p;
        self.spike_delay = spike_delay;
        self
    }

    /// Adds a per-link drop override.
    pub fn with_link(mut self, from: usize, to: usize, drop_p: f64) -> Self {
        self.links.push(LinkFault { from, to, drop_p });
        self
    }

    /// Adds a straggler window for one image.
    pub fn with_stall(mut self, image: usize, start: Duration, duration: Duration) -> Self {
        self.stalls.push(StallWindow { image, start, duration });
        self
    }

    /// Adds a fail-stop crash of `image` at global wire sequence `at_seq`.
    pub fn with_crash(mut self, image: usize, at_seq: u64) -> Self {
        self.crashes.push(CrashFault { image, at_seq });
        self
    }

    /// The images whose crash point wire transmission `wire_seq` has
    /// reached. A crash fires on the first transmission at or past its
    /// `at_seq`, so an image listed twice fires at the earlier point. Both
    /// substrates arm their crashes through this one rule.
    pub fn crashes_due(&self, wire_seq: u64) -> impl Iterator<Item = usize> + '_ {
        self.crashes.iter().filter(move |c| wire_seq >= c.at_seq).map(|c| c.image)
    }

    /// Effective drop probability for one ordered link.
    #[inline]
    pub fn drop_p_for(&self, from: usize, to: usize) -> f64 {
        self.links
            .iter()
            .find(|l| l.from == from && l.to == to)
            .map_or(self.drop_p, |l| l.drop_p)
    }

    /// The (deterministic) fault decision for wire message `wire_seq` on
    /// the ordered link `from → to`. Self-sends are always clean.
    pub fn decide(&self, from: usize, to: usize, wire_seq: u64) -> FaultDecision {
        if from == to {
            return FaultDecision::CLEAN;
        }
        let drop_p = self.drop_p_for(from, to);
        if drop_p <= 0.0 && self.dup_p <= 0.0 && self.spike_p <= 0.0 {
            return FaultDecision::CLEAN;
        }
        // Mix seed, link, and sequence into an independent stream per
        // message; three draws decide the three fault classes.
        let key = splitmix64_hash(
            self.seed ^ splitmix64_hash(wire_seq) ^ (((from as u64) << 32) | to as u64),
        );
        let mut g = SplitMix64::new(key);
        FaultDecision {
            drop: g.next_f64() < drop_p,
            duplicate: g.next_f64() < self.dup_p,
            delay_spike: g.next_f64() < self.spike_p,
        }
    }

    /// Extra delivery delay imposed because `image` is inside a straggler
    /// window at `elapsed` (time since fabric creation). Zero when the
    /// image is live.
    fn stall_extra(&self, image: usize, elapsed: Duration) -> Duration {
        self.stalls
            .iter()
            .filter(|w| w.image == image)
            .filter_map(|w| w.remaining_at(elapsed))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Extra delivery delay of one transmission on `from → to` at
    /// `elapsed` since the plan's epoch: the spike `d` rolled, plus the
    /// straggler windows covering either endpoint (a descheduled sender
    /// cannot inject, a descheduled receiver cannot run handlers).
    pub fn extra_delay(
        &self,
        from: usize,
        to: usize,
        d: FaultDecision,
        elapsed: Duration,
    ) -> Duration {
        let spike = if d.delay_spike { self.spike_delay } else { Duration::ZERO };
        spike + self.stall_extra(from, elapsed) + self.stall_extra(to, elapsed)
    }
}

/// Acknowledgement/retransmission policy of the reliable-delivery layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Time to wait for an acknowledgement before the first retransmit.
    pub ack_timeout: Duration,
    /// Multiplier applied to the timeout after each retransmit.
    pub backoff: u32,
    /// Ceiling on the backed-off timeout.
    pub max_timeout: Duration,
    /// Retransmit budget per message; once exceeded the message is
    /// abandoned (counted, and left for the watchdog to report).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            ack_timeout: Duration::from_millis(1),
            backoff: 2,
            max_timeout: Duration::from_millis(20),
            max_retries: 10,
        }
    }
}

impl RetryPolicy {
    /// The timeout in force after `attempts` transmissions (1 = first).
    pub fn timeout_after(&self, attempts: u32) -> Duration {
        let factor = self.backoff.saturating_pow(attempts.saturating_sub(1)).max(1);
        (self.ack_timeout * factor).min(self.max_timeout)
    }

    /// [`RetryPolicy::timeout_after`] in integer nanoseconds, the unit of
    /// [`LinkMachine`] deadlines.
    fn timeout_ns(&self, attempts: u32) -> u64 {
        self.timeout_after(attempts).as_nanos() as u64
    }

    /// A tight policy for tests: fast retries, small budget, so both the
    /// recovery path and the exhaustion path complete quickly.
    pub fn aggressive() -> Self {
        RetryPolicy {
            ack_timeout: Duration::from_micros(300),
            backoff: 2,
            max_timeout: Duration::from_millis(5),
            max_retries: 12,
        }
    }

    /// Worst-case time from first transmission to giving up.
    pub fn exhaustion_horizon(&self) -> Duration {
        (1..=self.max_retries + 1).map(|a| self.timeout_after(a)).sum()
    }
}

/// Receiver-side exactly-once filter for one (receiver, sender) link:
/// a contiguous watermark plus the set of out-of-order arrivals ahead of
/// it (delivery need not be FIFO, so gaps are normal, not loss). The
/// receiving half of [`LinkMachine`].
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct SeqTracker {
    next: u64,
    ahead: std::collections::BTreeSet<u64>,
}

impl SeqTracker {
    /// Records sequence `s`; returns whether it was fresh (first sight).
    pub fn note(&mut self, s: u64) -> bool {
        if s < self.next {
            return false;
        }
        if s == self.next {
            self.next += 1;
            while self.ahead.remove(&self.next) {
                self.next += 1;
            }
            true
        } else {
            self.ahead.insert(s)
        }
    }

    /// The cumulative acknowledgement of everything recorded so far: the
    /// watermark plus a bitmap of the out-of-order arrivals just above it.
    pub fn cum_ack(&self) -> CumAck {
        let upto = self.next;
        let bits = self
            .ahead
            .range(upto + 1..=upto + CumAck::WINDOW)
            .fold(0u64, |bits, &s| bits | 1 << (s - upto - 1));
        CumAck { upto, bits }
    }
}

/// A cumulative acknowledgement of one (sender → receiver) link, as the
/// receiver's [`SeqTracker`] saw it: every sequence below `upto` has
/// arrived, `upto` itself has not, and bit `i` of `bits` says whether
/// `upto + 1 + i` has. Sixteen bytes on the wire ([`ACK_BYTES`]).
/// Arrivals more than [`CumAck::WINDOW`] above the watermark are covered
/// once the watermark passes them. [`LinkMachine`] retires frames through
/// [`CumAck::covers`] alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CumAck {
    /// The watermark: the lowest sequence not yet received.
    pub upto: u64,
    /// Selective bitmap of the sequences `upto + 1 ..= upto + 64`.
    pub bits: u64,
}

impl CumAck {
    /// How far above the watermark the bitmap reaches.
    pub const WINDOW: u64 = 64;

    /// Whether this ack proves sequence `seq` arrived.
    #[inline]
    pub fn covers(&self, seq: u64) -> bool {
        seq < self.upto
            || (seq > self.upto
                && seq - self.upto <= Self::WINDOW
                && self.bits >> (seq - self.upto - 1) & 1 == 1)
    }
}

/// One image's end of its reliable link with one peer: the sans-IO
/// ack/retry/dedup machine that restores exactly-once delivery over a
/// lossy, duplicating, non-FIFO wire. Both substrates drive it — the
/// threaded fabric under a per-image mutex with deadlines in nanoseconds
/// since its epoch, the DES from engine events in virtual nanoseconds —
/// and the model checker explores it. It never reads a clock, takes a
/// lock, or rolls the fault dice: callers pass `now` in and put the
/// [`Frame`]s it returns on the wire themselves.
///
/// * **Sending.** [`LinkMachine::send`] allocates the next sequence,
///   keeps the frame in a seq-indexed window until an ack covers it, and
///   piggybacks the ack owed to the peer, if any. [`LinkMachine::pump`]
///   retransmits due frames with exponential backoff (retransmits carry
///   no piggyback) and gives up on a frame once its budget of
///   `max_retries` resends is spent. [`LinkMachine::abandon`] drops the
///   whole window toward a peer the caller holds dead.
/// * **Receiving.** [`LinkMachine::on_data`] dedups by sequence and marks
///   the peer owed a cumulative ack — duplicates too, since the previous
///   ack may have been lost. [`LinkMachine::take_ack`] hands that ack
///   out once, for a standalone ack frame.
/// * **Acks.** [`LinkMachine::on_ack`] retires exactly the frames a
///   [`CumAck`] covers, however acks are reordered or lost.
///
/// `P` is the caller's payload handle, cloned once per transmission.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkMachine<P> {
    /// Sequence of `frames[0]`; the next one to allocate is
    /// `base + frames.len()`.
    base: u64,
    /// The send window: `frames[i]` is frame `base + i`, `None` once
    /// retired or given up.
    frames: VecDeque<Option<Outstanding<P>>>,
    /// Frames still outstanding (the `Some` slots).
    live: usize,
    /// Lower bound on the live frames' deadlines, meaningful while
    /// `live > 0`. It may only be stale-early: `send` lowers it, an ack
    /// leaves it alone, and `pump` recomputes it.
    next_due: u64,
    /// Dedup of the peer's frames.
    seen: SeqTracker,
    /// Whether the peer is owed a cumulative ack.
    owed: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Outstanding<P> {
    payload: P,
    /// Transmissions so far (1 = the original send).
    attempts: u32,
    /// When the frame is next retransmitted, in caller nanoseconds.
    due: u64,
}

/// One `Data` transmission for the caller to put on the wire.
#[derive(Debug, Clone)]
pub struct Frame<P> {
    /// The frame's sequence on its link.
    pub seq: u64,
    /// The cumulative ack of the reverse link, piggybacked.
    pub ack: Option<CumAck>,
    /// The payload handle.
    pub payload: P,
}

/// What [`LinkMachine::pump`] asks of its caller.
#[derive(Debug, Clone)]
pub enum LinkAction<P> {
    /// Retransmit this frame.
    Transmit(Frame<P>),
    /// This frame spent its retry budget and left the window.
    GiveUp(P),
}

impl<P> Default for LinkMachine<P> {
    fn default() -> Self {
        LinkMachine {
            base: 0,
            frames: VecDeque::new(),
            live: 0,
            next_due: 0,
            seen: SeqTracker::default(),
            owed: false,
        }
    }
}

impl<P: Clone> LinkMachine<P> {
    /// Queues `payload` as the next frame, due for its first retry one ack
    /// timeout after `now`, and returns its first transmission, carrying
    /// the owed ack (which is then no longer owed).
    pub fn send(&mut self, payload: P, now: u64, retry: &RetryPolicy) -> Frame<P> {
        let due = now.saturating_add(retry.timeout_ns(1));
        self.next_due = if self.live == 0 { due } else { self.next_due.min(due) };
        self.live += 1;
        let seq = self.next_seq();
        self.frames
            .push_back(Some(Outstanding { payload: payload.clone(), attempts: 1, due }));
        Frame { seq, ack: self.take_ack(), payload }
    }

    /// Records the arrival of the peer's frame `seq` and marks the peer
    /// owed an ack; returns whether `seq` is fresh (first sight).
    pub fn on_data(&mut self, seq: u64) -> bool {
        self.owed = true;
        self.seen.note(seq)
    }

    /// Takes the cumulative ack owed to the peer, if any.
    pub fn take_ack(&mut self) -> Option<CumAck> {
        std::mem::take(&mut self.owed).then(|| self.seen.cum_ack())
    }

    /// Retires every frame `ack` covers, handing each payload to
    /// `retired` in sequence order. A stale or repeated ack retires
    /// nothing.
    pub fn on_ack(&mut self, ack: CumAck, mut retired: impl FnMut(P)) {
        let end = self.next_seq().min(ack.upto.saturating_add(CumAck::WINDOW + 1));
        for (seq, slot) in (self.base..end).zip(self.frames.iter_mut()) {
            if let Some(o) = slot.take_if(|_| ack.covers(seq)) {
                self.live -= 1;
                retired(o.payload);
            }
        }
        self.trim();
    }

    /// Retransmits every frame due at `now`, backing its deadline off, or
    /// gives it up once it has been sent `1 + max_retries` times. Does
    /// nothing before [`LinkMachine::next_due`].
    pub fn pump(&mut self, now: u64, retry: &RetryPolicy, mut act: impl FnMut(LinkAction<P>)) {
        if self.live == 0 || self.next_due > now {
            return;
        }
        let mut next_due = u64::MAX;
        for (seq, slot) in (self.base..).zip(self.frames.iter_mut()) {
            let Some(o) = slot else { continue };
            if o.due > now {
                next_due = next_due.min(o.due);
                continue;
            }
            if o.attempts > retry.max_retries {
                self.live -= 1;
                act(LinkAction::GiveUp(slot.take().expect("live frame").payload));
                continue;
            }
            o.attempts += 1;
            o.due = now.saturating_add(retry.timeout_ns(o.attempts));
            next_due = next_due.min(o.due);
            act(LinkAction::Transmit(Frame { seq, ack: None, payload: o.payload.clone() }));
        }
        self.next_due = next_due;
        self.trim();
    }
}

impl<P> LinkMachine<P> {
    /// Drops the whole send window (the peer is dead: its frames are dead
    /// letters) without reusing its sequences; returns how many frames
    /// were outstanding.
    pub fn abandon(&mut self) -> usize {
        self.base = self.next_seq();
        self.frames.clear();
        std::mem::take(&mut self.live)
    }

    /// When [`LinkMachine::pump`] next has work, if any frame is
    /// outstanding. It may be early (a harmless extra wake-up), never late.
    pub fn next_due(&self) -> Option<u64> {
        (self.live > 0).then_some(self.next_due)
    }

    /// Frames sent and not yet acknowledged or given up.
    pub fn backlog(&self) -> usize {
        self.live
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_watermark_compacts_memory() {
        let mut t = SeqTracker::default();
        for s in (0..1000).rev() {
            assert!(t.note(s));
        }
        assert!(t.ahead.is_empty(), "contiguous range must collapse");
        assert_eq!(t.next, 1000);
    }

    #[test]
    fn cum_ack_covers_exactly_what_arrived() {
        let mut t = SeqTracker::default();
        assert_eq!(t.cum_ack(), CumAck { upto: 0, bits: 0 });
        assert!(!t.cum_ack().covers(0), "nothing arrived yet");
        for s in [0, 1, 3, 5, 64, 65, 66, 200] {
            t.note(s);
        }
        let ack = t.cum_ack();
        assert_eq!(ack.upto, 2, "the watermark is the first gap");
        let covered: Vec<u64> = (0..300).filter(|&s| ack.covers(s)).collect();
        // 66 is the last seq inside the 64-wide bitmap above upto = 2;
        // 200 lies beyond it and waits for the watermark.
        assert_eq!(covered, vec![0, 1, 3, 5, 64, 65, 66]);
        t.note(2);
        t.note(4);
        let ack = t.cum_ack();
        assert_eq!(ack.upto, 6);
        assert!((0..6).all(|s| ack.covers(s)) && !ack.covers(6) && !ack.covers(200));
        assert!(ack.covers(64) && ack.covers(66) && !ack.covers(67));
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::uniform_drop(42, 0.3)
            .with_dup(0.2)
            .with_spikes(0.1, Duration::from_millis(1));
        for seq in 0..200 {
            assert_eq!(plan.decide(0, 1, seq), plan.decide(0, 1, seq));
        }
        let other = FaultPlan { seed: 43, ..plan.clone() };
        let differs = (0..200).any(|s| plan.decide(0, 1, s) != other.decide(0, 1, s));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::uniform_drop(7, 0.25);
        let drops = (0..10_000).filter(|&s| plan.decide(0, 1, s).drop).count();
        let rate = drops as f64 / 10_000.0;
        assert!((0.2..0.3).contains(&rate), "empirical rate {rate} far from 0.25");
    }

    #[test]
    fn self_sends_are_exempt() {
        let plan = FaultPlan::uniform_drop(1, 1.0);
        for seq in 0..50 {
            assert_eq!(plan.decide(3, 3, seq), FaultDecision::CLEAN);
        }
    }

    #[test]
    fn link_override_replaces_baseline() {
        let plan = FaultPlan::uniform_drop(5, 0.0).with_link(1, 2, 1.0);
        assert!(plan.decide(1, 2, 9).drop);
        assert!(!plan.decide(2, 1, 9).drop);
        assert_eq!(plan.drop_p_for(1, 2), 1.0);
        assert_eq!(plan.drop_p_for(0, 1), 0.0);
    }

    #[test]
    fn stall_windows_defer_only_inside() {
        let plan =
            FaultPlan::none(0).with_stall(2, Duration::from_millis(10), Duration::from_millis(5));
        assert_eq!(plan.stall_extra(2, Duration::from_millis(9)), Duration::ZERO);
        assert_eq!(plan.stall_extra(2, Duration::from_millis(10)), Duration::from_millis(5));
        assert_eq!(plan.stall_extra(2, Duration::from_millis(12)), Duration::from_millis(3));
        assert_eq!(plan.stall_extra(2, Duration::from_millis(15)), Duration::ZERO);
        assert_eq!(plan.stall_extra(1, Duration::from_millis(12)), Duration::ZERO);
    }

    #[test]
    fn retry_policy_backs_off_to_cap() {
        let p = RetryPolicy {
            ack_timeout: Duration::from_millis(1),
            backoff: 2,
            max_timeout: Duration::from_millis(6),
            max_retries: 5,
        };
        assert_eq!(p.timeout_after(1), Duration::from_millis(1));
        assert_eq!(p.timeout_after(2), Duration::from_millis(2));
        assert_eq!(p.timeout_after(3), Duration::from_millis(4));
        assert_eq!(p.timeout_after(4), Duration::from_millis(6), "capped");
        assert_eq!(p.exhaustion_horizon(), Duration::from_millis(1 + 2 + 4 + 6 + 6 + 6));
    }

    #[test]
    fn an_image_listed_twice_fires_at_the_earlier_seq() {
        let plan = FaultPlan::none(9).with_crash(3, 500).with_crash(1, 300).with_crash(3, 120);
        let due = |seq| plan.crashes_due(seq).collect::<Vec<_>>();
        assert!(due(119).is_empty(), "nothing fires before the earliest point");
        assert_eq!(due(120), vec![3], "image 3 fires at its earlier point");
        assert_eq!(due(300), vec![1, 3], "plan order");
        assert_eq!(due(500), vec![3, 1, 3], "callers skip an image already crashed");
    }

    #[test]
    fn timeout_schedule_in_nanoseconds() {
        let p = RetryPolicy {
            ack_timeout: Duration::from_micros(10),
            backoff: 2,
            max_timeout: Duration::from_micros(50),
            max_retries: 3,
        };
        assert_eq!(p.timeout_ns(1), 10_000);
        assert_eq!(p.timeout_ns(2), 20_000);
        assert_eq!(p.timeout_ns(3), 40_000);
        assert_eq!(p.timeout_ns(4), 50_000, "capped at max_timeout");
        assert_eq!(p.exhaustion_horizon(), Duration::from_nanos(10_000 + 20_000 + 40_000 + 50_000));
    }

    #[test]
    fn stall_windows_project_into_sim_time() {
        let plan =
            FaultPlan::none(1).with_stall(4, Duration::from_micros(100), Duration::from_micros(40));
        let at = |from, to, ns| {
            plan.extra_delay(from, to, FaultDecision::CLEAN, Duration::from_nanos(ns))
                .as_nanos()
        };
        assert_eq!(at(4, 0, 50_000), 0, "before the window");
        assert_eq!(at(4, 0, 100_000), 40_000, "window start");
        assert_eq!(at(0, 4, 120_000), 20_000, "either endpoint");
        assert_eq!(at(0, 4, 140_000), 0, "window closed");
        assert_eq!(at(0, 1, 110_000), 0, "uninvolved link");
        let spiked = FaultPlan { spike_delay: Duration::from_micros(7), ..plan.clone() };
        let spike = FaultDecision { delay_spike: true, ..FaultDecision::CLEAN };
        assert_eq!(spiked.extra_delay(0, 4, spike, Duration::from_micros(130)).as_nanos(), 17_000);
    }

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

    /// Both ends of one link: `a` sends to `b`.
    fn pair() -> (LinkMachine<u32>, LinkMachine<u32>, RetryPolicy) {
        (LinkMachine::default(), LinkMachine::default(), RetryPolicy::default())
    }

    /// Everything `pump` asks for at `now`.
    fn pumped(m: &mut LinkMachine<u32>, now: u64, retry: &RetryPolicy) -> Vec<LinkAction<u32>> {
        let mut acts = Vec::new();
        m.pump(now, retry, |a| acts.push(a));
        acts
    }

    #[test]
    fn reordered_acks_retire_by_seq_and_keep_seqs_monotone() {
        let (mut a, _, retry) = pair();
        let seqs: Vec<u64> = (0..4).map(|i| a.send(i, 0, &retry).seq).collect();
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
            a.on_ack(ack, drop);
        }
        assert_eq!(a.backlog(), 1, "only seq 1 is still unacked");
        seen.note(1);
        a.on_ack(seen.cum_ack(), drop);
        assert_eq!(a.backlog(), 0);
        assert_eq!(a.next_due(), None);
        assert_eq!(a.send(9, 0, &retry).seq, 4);
        // A dead destination abandons the window without reusing seqs.
        assert_eq!(a.abandon(), 1, "one frame abandoned");
        assert!(pumped(&mut a, 60_000_000_000, &retry).is_empty());
        assert_eq!(a.backlog(), 0);
        assert_eq!(a.send(10, 0, &retry).seq, 5);
    }

    #[test]
    fn frames_beyond_the_bitmap_retire_once_the_watermark_passes_them() {
        let (mut a, mut b, retry) = pair();
        let frames: Vec<Frame<u32>> = (0..=70).map(|i| a.send(i, 0, &retry)).collect();
        let mut delivered = 0;
        let mut deliver = |b: &mut LinkMachine<u32>, f: &Frame<u32>| {
            let fresh = b.on_data(f.seq).then_some(f.payload);
            delivered += fresh.is_some() as u64;
            fresh
        };
        let ack_back = |a: &mut LinkMachine<u32>, b: &mut LinkMachine<u32>| {
            a.on_ack(b.take_ack().expect("arrivals owe an ack"), drop);
        };
        // Seq 70 lands 70 above the watermark (0): outside the bitmap.
        assert_eq!(deliver(&mut b, &frames[70]), Some(70));
        ack_back(&mut a, &mut b);
        assert_eq!(a.backlog(), 71, "nothing is covered yet");
        (1..70).for_each(|s| assert_eq!(deliver(&mut b, &frames[s]), Some(s as u32)));
        ack_back(&mut a, &mut b);
        assert_eq!(a.backlog(), 7, "the bitmap covers 1..=64 only");
        assert_eq!(deliver(&mut b, &frames[0]), Some(0));
        ack_back(&mut a, &mut b);
        assert_eq!(a.backlog(), 0, "the watermark passed 70");
        // A late copy of every frame surfaces nothing: delivered once.
        for copy in &frames {
            assert_eq!(deliver(&mut b, copy), None);
        }
        assert_eq!(delivered, 71);
    }

    #[test]
    fn a_lost_cumulative_ack_is_repaired_by_the_next() {
        let (mut a, mut b, retry) = pair();
        let frames: Vec<Frame<u32>> = (0..5).map(|i| a.send(i, 0, &retry)).collect();
        for f in &frames[..3] {
            assert!(b.on_data(f.seq));
        }
        let lost = b.take_ack();
        assert!(lost.is_some(), "one ack for the link, not one per frame");
        assert!(b.take_ack().is_none(), "flushing clears the debt");
        for f in &frames[3..] {
            assert!(b.on_data(f.seq));
        }
        assert_eq!(a.backlog(), 5, "the first ack was lost on the wire");
        a.on_ack(b.take_ack().expect("the later arrivals owe one"), drop);
        assert_eq!(a.backlog(), 0, "the next ack covers the lost one's frames");
    }

    #[test]
    fn piggybacks_ride_first_transmissions_only() {
        let (mut a, mut b, retry) = pair();
        let f = a.send(1, 0, &retry);
        assert_eq!(f.ack, None, "nothing owed yet");
        b.on_data(f.seq);
        let reply = b.send(2, 0, &retry);
        assert!(reply.ack.is_some());
        assert!(b.take_ack().is_none(), "the piggyback settled the debt");
        let later = 60_000_000_000;
        assert!(matches!(
            pumped(&mut b, later, &retry)[..],
            [LinkAction::Transmit(Frame { ack: None, .. })]
        ));
    }

    /// The exact minimum over live frames, by a full scan.
    fn true_min(links: &[LinkMachine<u32>]) -> Option<u64> {
        links.iter().flat_map(|l| l.frames.iter().flatten().map(|o| o.due)).min()
    }

    #[test]
    fn next_retry_at_is_never_later_than_the_true_minimum() {
        const MS: u64 = 1_000_000;
        let retry = RetryPolicy {
            ack_timeout: Duration::from_millis(1),
            backoff: 2,
            max_timeout: Duration::from_millis(8),
            max_retries: 3,
        };
        // One sender's links toward two peers; its next retry is the
        // earliest over both.
        let mut links = [LinkMachine::default(), LinkMachine::default()];
        let check = |links: &[LinkMachine<u32>], what: &str| {
            let bound = links.iter().filter_map(LinkMachine::next_due).min();
            let exact = true_min(links);
            assert_eq!(bound.is_some(), exact.is_some(), "{what}: pending mismatch");
            assert!(bound <= exact, "{what}: bound {bound:?} later than {exact:?}");
        };
        let mut seen = [SeqTracker::default(), SeqTracker::default()];
        for round in 0..6u32 {
            let now = round as u64 * 3 * MS;
            for k in 0..2 {
                let f = links[k].send(round, now, &retry);
                check(&links, "inject");
                // Acks land for every other frame, out of order.
                if round % 2 == k as u32 {
                    seen[k].note(f.seq);
                    links[k].on_ack(seen[k].cum_ack(), drop);
                    check(&links, "ack");
                }
            }
            let resent: usize = links.iter_mut().map(|l| pumped(l, now, &retry).len()).sum();
            check(&links, "pump");
            assert!(round > 0 || resent == 0, "nothing is due at the start");
        }
        // Exhaust everything: the bound must track down to none.
        for ms in (20..200).step_by(10) {
            links.iter_mut().for_each(|l| drop(pumped(l, ms * MS, &retry)));
            check(&links, "drain");
        }
        assert_eq!(links.iter().map(LinkMachine::backlog).sum::<usize>(), 0);
        assert_eq!(links.iter().filter_map(LinkMachine::next_due).min(), None);
    }
}
