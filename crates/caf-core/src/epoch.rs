//! Epoch bookkeeping for `finish` termination detection (paper §III-A2,
//! Fig. 7).
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

/// Per-image epoch state for one `finish` block: the cumulative counters,
/// the image's epoch number, and the completions tagged one epoch ahead.
#[derive(Debug, Clone, Default)]
pub struct EpochState {
    counts: EpochCounters,
    /// Waves this image has entered: its present epoch, and the tag its
    /// sends carry.
    wave: u32,
    /// Completions since the last wave entry whose tag is above `wave`.
    ahead: u64,
}

impl EpochState {
    /// Fresh state: epoch 0, all counters zero.
    pub fn new() -> Self {
        EpochState::default()
    }

    /// The number of waves this image has entered.
    #[inline]
    pub fn wave(&self) -> u32 {
        self.wave
    }

    /// The cumulative counters.
    #[inline]
    pub fn counters(&self) -> &EpochCounters {
        &self.counts
    }

    /// Records an outgoing message and returns the tag it must carry (the
    /// sender's epoch number).
    pub fn on_send(&mut self) -> u32 {
        self.counts.sent += 1;
        self.wave
    }

    /// Records the delivery acknowledgement of a message this image sent.
    pub fn on_delivered(&mut self) {
        self.counts.delivered += 1;
    }

    /// Records reception of a message.
    pub fn on_receive(&mut self) {
        self.counts.received += 1;
    }

    /// Records local completion of a received message tagged `tag`. A tag
    /// above this image's epoch was sent after its sender entered the wave
    /// this image has yet to enter, so the next contribution leaves it out.
    pub fn on_complete(&mut self, tag: u32) {
        self.counts.completed += 1;
        if tag > self.wave {
            self.ahead += 1;
        }
    }

    /// The wait condition of Fig. 7 line 4: "a process waits until all
    /// messages it sent were received and all spawned functions received
    /// completed execution before the process performs a new sum
    /// reduction." It is a throttle that bounds the number of waves by
    /// `L + 1` (Theorem 1, Fig. 18); the consistent cut itself comes from
    /// [`EpochState::enter_wave`].
    pub fn ready_for_wave(&self) -> bool {
        let c = &self.counts;
        c.sent == c.delivered && c.received == c.completed
    }

    /// Enters the next wave: returns this image's contribution to the sum,
    /// `sent − completed` without the completions tagged ahead (Fig. 7
    /// lines 6–8), and moves into the next epoch.
    pub fn enter_wave(&mut self) -> i64 {
        let contribution = self.counts.sent as i64 - (self.counts.completed - self.ahead) as i64;
        self.ahead = 0;
        self.wave += 1;
        contribution
    }

    /// Messages this image has sent minus completed — used by invariant
    /// checks in tests.
    pub fn local_imbalance(&self) -> i64 {
        self.counts.sent as i64 - self.counts.completed as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_ready_and_balanced() {
        let s = EpochState::new();
        assert!(s.ready_for_wave());
        assert_eq!(s.wave(), 0);
        assert_eq!(s.local_imbalance(), 0);
    }

    #[test]
    fn send_tags_with_the_epoch_number() {
        let mut s = EpochState::new();
        assert_eq!(s.on_send(), 0);
        assert!(!s.ready_for_wave()); // sent=1, delivered=0
        s.on_delivered();
        assert!(s.ready_for_wave());
        // Entering a wave moves into the next epoch; sends are tagged 1.
        let contrib = s.enter_wave();
        assert_eq!(contrib, 1); // sent 1, completed 0
        assert_eq!(s.on_send(), 1);
    }

    #[test]
    fn receptions_must_complete_before_readiness() {
        let mut s = EpochState::new();
        s.on_receive();
        assert!(!s.ready_for_wave());
        s.on_complete(0);
        assert!(s.ready_for_wave());
    }

    #[test]
    fn a_completion_tagged_ahead_waits_for_the_next_cut() {
        let mut s = EpochState::new();
        s.on_receive();
        s.on_complete(1); // its sender is already in epoch 1
        assert_eq!(s.enter_wave(), 0, "left out of wave 1");
        assert_eq!(s.enter_wave(), -1, "counted in wave 2");
    }

    #[test]
    fn counts_accumulate_across_waves() {
        let mut s = EpochState::new();
        s.on_send(); // epoch 0
        s.on_delivered();
        s.enter_wave();
        s.on_send(); // epoch 1
        s.on_delivered();
        assert_eq!(s.counters().sent, 2);
        assert_eq!(s.counters().delivered, 2);
        // Contribution of the next wave is cumulative sent − completed.
        assert_eq!(s.enter_wave(), 2);
    }

    #[test]
    fn imbalance_tracks_sent_minus_completed() {
        let mut s = EpochState::new();
        s.on_send();
        assert_eq!(s.local_imbalance(), 1);
        s.on_receive();
        s.on_complete(0);
        assert_eq!(s.local_imbalance(), 0); // 1 sent − 1 completed
    }
}
