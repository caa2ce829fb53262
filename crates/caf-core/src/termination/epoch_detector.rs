//! The paper's epoch-based termination-detection algorithm (Fig. 7),
//! packaged behind the [`WaveDetector`] interface.
//!
//! The lifetime of a `finish` block is divided into consecutively numbered
//! *epochs*: an image is in epoch `w` once it has entered `w` reduction
//! waves. Every message carries its sender's epoch number at send time, and
//! each image keeps one cumulative set of counters over the life of the
//! block. When an image enters wave `w + 1` it contributes
//! `sent − completed`, leaving out the completions of messages tagged
//! `w + 1`: their sends happened after their senders entered the wave, so
//! they belong to the next cut. That makes the allreduce time cut
//! consistent without FIFO channels or global clocks.
//!
//! The paper tags with the epoch parity (the number mod 2) and flips an
//! image into the odd epoch when an odd-tagged message arrives. That is
//! enough only when every image leaves a wave at the same moment. In the
//! threaded runtime they do not (the allreduce root has the sum first), so
//! an image still inside wave `w` can complete a message sent in epoch
//! `w + 1`, and parity cannot tell it from one sent in `w − 1`. The full
//! number can: a tag can be at most one ahead of the receiver, because
//! nobody leaves wave `w` before everyone has entered it.

use super::{Contribution, WaveDecision, WaveDetector};

/// The four cumulative counters of Fig. 7: messages this image has `sent`,
/// had `delivered` remotely (acknowledged), `received`, and `completed`
/// executing locally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounters {
    /// Messages sent by this image.
    pub sent: u64,
    /// Of those sent, how many are acknowledged as delivered at the target.
    pub delivered: u64,
    /// Messages received by this image.
    pub received: u64,
    /// Of those received, how many finished executing locally.
    pub completed: u64,
}

/// Per-image state of the paper's algorithm for one `finish` block.
///
/// With `wait_for_quiescence = true` this is exactly Fig. 7: an image
/// refuses to start a new reduction wave until every message it sent has
/// been delivered and every message it received has completed, which is
/// what bounds the number of waves by `L + 1` (Theorem 1) and halves the
/// allreduce count in Fig. 18. With `false` it is the "algorithm w/o upper
/// bound" baseline from Fig. 18: still *correct* (the consistent epoch cut
/// never lets the sum reach zero while messages are outstanding) but it
/// keeps reducing speculatively.
#[derive(Debug, Clone)]
pub struct EpochDetector {
    counts: EpochCounters,
    /// Waves this image has entered: its present epoch, and the tag its
    /// sends carry.
    epoch: u32,
    /// Completions since the last wave entry whose tag is above `epoch`.
    ahead: u64,
    wait_for_quiescence: bool,
    /// Waves this image has exited.
    waves: usize,
    poisoned: Option<usize>,
}

impl EpochDetector {
    /// Creates a detector in epoch 0 with all counters zero.
    /// `wait_for_quiescence` selects between the paper's algorithm
    /// (`true`) and the no-upper-bound variant (`false`).
    pub fn new(wait_for_quiescence: bool) -> Self {
        EpochDetector {
            counts: EpochCounters::default(),
            epoch: 0,
            ahead: 0,
            wait_for_quiescence,
            waves: 0,
            poisoned: None,
        }
    }

    /// This image's epoch: the number of waves it has entered, and the
    /// tag its sends carry. [`WaveDetector::waves`] counts waves exited.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The cumulative counters.
    #[inline]
    pub fn counters(&self) -> &EpochCounters {
        &self.counts
    }

    /// Messages this image has sent minus completed — used by invariant
    /// checks in tests.
    pub fn local_imbalance(&self) -> i64 {
        self.counts.sent as i64 - self.counts.completed as i64
    }
}

impl WaveDetector for EpochDetector {
    fn on_send(&mut self) -> u32 {
        self.counts.sent += 1;
        self.epoch
    }

    fn on_delivered(&mut self) {
        self.counts.delivered += 1;
    }

    fn on_receive(&mut self) {
        self.counts.received += 1;
    }

    /// A tag above this image's epoch was sent after its sender entered
    /// the wave this image has yet to enter, so the next contribution
    /// leaves it out.
    fn on_complete(&mut self, tag: u32) {
        self.counts.completed += 1;
        if tag > self.epoch {
            self.ahead += 1;
        }
    }

    /// The wait condition of Fig. 7 line 4: "a process waits until all
    /// messages it sent were received and all spawned functions received
    /// completed execution before the process performs a new sum
    /// reduction." It is a throttle that bounds the number of waves by
    /// `L + 1` (Theorem 1, Fig. 18); the consistent cut itself comes from
    /// [`enter_wave`](Self::enter_wave).
    fn ready(&self) -> bool {
        // A poisoned finish stops waiting for quiescence: the dead image
        // will never deliver the acks/completions the precondition needs.
        let c = &self.counts;
        self.poisoned.is_some()
            || !self.wait_for_quiescence
            || (c.sent == c.delivered && c.received == c.completed)
    }

    /// Contributes `sent − completed` without the completions tagged
    /// ahead (Fig. 7 lines 6–8), and moves into the next epoch.
    fn enter_wave(&mut self) -> Contribution {
        let c = &self.counts;
        let contribution = c.sent as i64 - (c.completed - self.ahead) as i64;
        self.ahead = 0;
        self.epoch += 1;
        [contribution, 0]
    }

    fn exit_wave(&mut self, reduced: Contribution) -> WaveDecision {
        self.waves += 1;
        if self.poisoned.is_some() {
            WaveDecision::Poisoned
        } else if reduced[0] == 0 {
            WaveDecision::Terminated
        } else {
            WaveDecision::Continue
        }
    }

    fn waves(&self) -> usize {
        self.waves
    }

    fn poison(&mut self, image: usize) {
        self.poisoned.get_or_insert(image);
    }

    fn poisoned_by(&self) -> Option<usize> {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_ready_and_balanced() {
        let d = EpochDetector::new(true);
        assert!(d.ready());
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.local_imbalance(), 0);
    }

    #[test]
    fn send_tags_with_the_epoch_number() {
        let mut d = EpochDetector::new(true);
        assert_eq!(d.on_send(), 0);
        assert!(!d.ready()); // sent=1, delivered=0
        d.on_delivered();
        assert!(d.ready());
        // Entering a wave moves into the next epoch; sends are tagged 1.
        assert_eq!(d.enter_wave(), [1, 0]); // sent 1, completed 0
        assert_eq!(d.on_send(), 1);
    }

    #[test]
    fn a_completion_tagged_ahead_waits_for_the_next_cut() {
        let mut d = EpochDetector::new(true);
        d.on_receive();
        d.on_complete(1); // its sender is already in epoch 1
        assert_eq!(d.enter_wave(), [0, 0], "left out of wave 1");
        assert_eq!(d.enter_wave(), [-1, 0], "counted in wave 2");
    }

    #[test]
    fn counts_accumulate_across_waves() {
        let mut d = EpochDetector::new(true);
        d.on_send(); // epoch 0
        d.on_delivered();
        d.enter_wave();
        d.on_send(); // epoch 1
        d.on_delivered();
        assert_eq!(d.counters().sent, 2);
        assert_eq!(d.counters().delivered, 2);
        // Contribution of the next wave is cumulative sent − completed.
        assert_eq!(d.enter_wave(), [2, 0]);
    }

    #[test]
    fn imbalance_tracks_sent_minus_completed() {
        let mut d = EpochDetector::new(true);
        d.on_send();
        assert_eq!(d.local_imbalance(), 1);
        d.on_receive();
        d.on_complete(0);
        assert_eq!(d.local_imbalance(), 0); // 1 sent − 1 completed
    }

    #[test]
    fn unacked_send_blocks_readiness_only_with_upper_bound() {
        let mut strict = EpochDetector::new(true);
        strict.on_send();
        assert!(!strict.ready());
        let mut loose = EpochDetector::new(false);
        loose.on_send();
        assert!(loose.ready());
    }

    #[test]
    fn zero_sum_terminates_nonzero_continues() {
        let mut d = EpochDetector::new(true);
        d.enter_wave();
        assert_eq!(d.exit_wave([3, 0]), WaveDecision::Continue);
        d.enter_wave();
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Terminated);
        assert_eq!(d.waves(), 2);
    }

    #[test]
    fn contribution_is_sent_minus_completed() {
        // Globally, Σ(sent − completed) = 0 iff every message completed
        // somewhere; locally the lane may be any integer.
        let mut d = EpochDetector::new(false);
        d.on_send();
        d.on_send();
        d.on_receive();
        d.on_complete(0);
        assert_eq!(d.enter_wave(), [1, 0]); // 2 sent − 1 completed
    }

    #[test]
    fn poison_overrides_quiescence_and_the_sum() {
        let mut d = EpochDetector::new(true);
        d.on_send(); // unacked: strict variant is not ready
        assert!(!d.ready());
        d.poison(2);
        assert!(d.ready(), "poison must unblock the quiescence wait");
        d.enter_wave();
        // Even a zero global sum cannot mean clean termination any more.
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Poisoned);
        assert_eq!(d.poisoned_by(), Some(2));
        // First poisoner wins.
        d.poison(3);
        assert_eq!(d.poisoned_by(), Some(2));
    }

    /// Images leave a wave at different times: the allreduce root has the
    /// sum first. Image A ships X to B; B enters wave 1 idle, X lands, A
    /// enters, and wave 1 sums to 1. A leaves first and enters wave 2.
    /// Still inside wave 1, B runs X, which ships Y to A; A runs Y inside
    /// wave 2, and Y ships Z and V to B. Z lands and runs at B before B
    /// leaves wave 1. B then enters wave 2 with V still in flight, so
    /// wave 2 must not terminate. (Tagged by parity, it summed to 1 − 1.)
    #[test]
    fn a_staggered_wave_exit_does_not_terminate_with_work_in_flight() {
        let (mut a, mut b) = (EpochDetector::new(true), EpochDetector::new(true));
        // 1. X: A → B, with B already inside wave 1.
        let x = a.on_send();
        assert!(b.ready());
        let b1 = b.enter_wave();
        b.on_receive();
        a.on_delivered();
        assert!(a.ready());
        let a1 = a.enter_wave();
        let sum1 = [a1[0] + b1[0], 0];
        assert_eq!(sum1, [1, 0]);
        // 2. The root A leaves wave 1 and enters wave 2.
        assert_eq!(a.exit_wave(sum1), WaveDecision::Continue);
        assert!(a.ready());
        let a2 = a.enter_wave();
        // 3. B, still inside wave 1, runs X, which ships Y to A.
        let y = b.on_send();
        b.on_complete(x);
        // 4. A runs Y inside wave 2; Y ships Z and V to B.
        a.on_receive();
        b.on_delivered();
        let z = a.on_send();
        let _v = a.on_send();
        a.on_complete(y);
        // 5. Z lands and runs at B, still inside wave 1. B then leaves
        //    wave 1 and enters wave 2 while V is in flight.
        b.on_receive();
        a.on_delivered();
        b.on_complete(z);
        assert_eq!(b.exit_wave(sum1), WaveDecision::Continue);
        assert!(b.ready());
        let b2 = b.enter_wave();
        let sum2 = [a2[0] + b2[0], 0];
        assert_eq!(sum2, [1, 0], "V is outstanding");
        assert_eq!(a.exit_wave(sum2), WaveDecision::Continue);
        assert_eq!(b.exit_wave(sum2), WaveDecision::Continue);
    }

    #[test]
    fn receptions_must_complete_before_readiness() {
        let mut d = EpochDetector::new(true);
        d.on_receive();
        assert!(!d.ready());
        d.on_complete(0);
        assert!(d.ready());
    }
}
