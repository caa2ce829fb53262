//! The paper's epoch-based termination-detection algorithm (Fig. 7),
//! packaged behind the [`WaveDetector`] interface.

use super::{Contribution, WaveDecision, WaveDetector};
use crate::epoch::EpochState;

/// Per-image state of the paper's algorithm.
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
    state: EpochState,
    wait_for_quiescence: bool,
    waves: usize,
    poisoned: Option<usize>,
}

impl EpochDetector {
    /// Creates a detector. `wait_for_quiescence` selects between the
    /// paper's algorithm (`true`) and the no-upper-bound variant (`false`).
    pub fn new(wait_for_quiescence: bool) -> Self {
        EpochDetector { state: EpochState::new(), wait_for_quiescence, waves: 0, poisoned: None }
    }

    /// Read access to the underlying epoch state (for tests/metrics).
    pub fn epochs(&self) -> &EpochState {
        &self.state
    }
}

impl WaveDetector for EpochDetector {
    fn on_send(&mut self) -> u32 {
        self.state.on_send()
    }

    fn on_delivered(&mut self) {
        self.state.on_delivered();
    }

    fn on_receive(&mut self) {
        self.state.on_receive();
    }

    fn on_complete(&mut self, tag: u32) {
        self.state.on_complete(tag);
    }

    fn ready(&self) -> bool {
        // A poisoned finish stops waiting for quiescence: the dead image
        // will never deliver the acks/completions the precondition needs.
        self.poisoned.is_some() || !self.wait_for_quiescence || self.state.ready_for_wave()
    }

    fn enter_wave(&mut self) -> Contribution {
        [self.state.enter_wave(), 0]
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
    fn quiescent_image_is_immediately_ready() {
        let d = EpochDetector::new(true);
        assert!(d.ready());
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
