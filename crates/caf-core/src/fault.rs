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

    /// Whether the plan can perturb anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.spike_p > 0.0
            || self.links.iter().any(|l| l.drop_p > 0.0)
            || !self.stalls.is_empty()
            || !self.crashes.is_empty()
    }

    /// The wire sequence at which `image` fail-stops, if it is scheduled
    /// to crash (earliest point wins when listed more than once).
    pub fn crash_point(&self, image: usize) -> Option<u64> {
        self.crashes.iter().filter(|c| c.image == image).map(|c| c.at_seq).min()
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
    pub fn stall_extra(&self, image: usize, elapsed: Duration) -> Duration {
        self.stalls
            .iter()
            .filter(|w| w.image == image)
            .filter_map(|w| w.remaining_at(elapsed))
            .max()
            .unwrap_or(Duration::ZERO)
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
/// it (delivery need not be FIFO, so gaps are normal, not loss). Shared
/// between the threaded fabric's reliable-delivery layer and the
/// discrete-event simulator's mirror of it.
#[derive(Debug, Default, Clone)]
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
/// once the watermark passes them. Both substrates retire frames through
/// [`CumAck::covers`] alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
        assert!(plan.is_active());
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
    fn inactive_plan_reports_inactive() {
        assert!(!FaultPlan::none(3).is_active());
        assert!(FaultPlan::uniform_drop(3, 0.01).is_active());
    }

    #[test]
    fn crash_schedule_activates_the_plan() {
        let plan = FaultPlan::none(9).with_crash(2, 100);
        assert!(plan.is_active(), "a crash-only plan must route through chaos");
        assert_eq!(plan.crash_point(2), Some(100));
        assert_eq!(plan.crash_point(1), None);
    }

    #[test]
    fn earliest_crash_point_wins() {
        let plan = FaultPlan::none(9).with_crash(3, 500).with_crash(3, 120);
        assert_eq!(plan.crash_point(3), Some(120));
    }
}
