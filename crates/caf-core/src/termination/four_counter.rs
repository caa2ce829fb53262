//! Mattern's four-counter termination detection (the algorithm AM++ uses,
//! paper §V).
//!
//! Each image keeps cumulative `sent` and `received` counters. A wave
//! reduces `(Σsent, Σreceived)`. Termination is declared when a wave's
//! sums balance *and* equal the previous wave's sums — the "count twice"
//! rule that guarantees no message crossed the two cuts, at the price of
//! always needing at least one extra reduction compared with the paper's
//! epoch algorithm.

use super::{Contribution, WaveDecision, WaveDetector};

/// Per-image four-counter state.
#[derive(Debug, Clone, Default)]
pub struct FourCounterDetector {
    sent: u64,
    received: u64,
    completed: u64,
    prev_sums: Option<Contribution>,
    waves: usize,
    poisoned: Option<usize>,
}

impl FourCounterDetector {
    /// Fresh detector with zeroed counters.
    pub fn new() -> Self {
        FourCounterDetector::default()
    }
}

impl WaveDetector for FourCounterDetector {
    fn on_send(&mut self) -> u32 {
        self.sent += 1;
        self.waves as u32
    }

    fn on_delivered(&mut self) {}

    fn on_receive(&mut self) {
        self.received += 1;
    }

    fn on_complete(&mut self, _tag: u32) {
        self.completed += 1;
    }

    fn ready(&self) -> bool {
        // The classic algorithm still requires receivers to have processed
        // what they received before contributing, otherwise a "received
        // but not yet re-spawned" function would let the counts balance
        // while work is pending. Counting completed receptions achieves
        // the same effect as counting at handler exit. A poisoned finish
        // skips the wait: a function shipped from the dead image may
        // never be completable.
        self.poisoned.is_some() || self.received == self.completed
    }

    fn enter_wave(&mut self) -> Contribution {
        [self.sent as i64, self.received as i64]
    }

    fn exit_wave(&mut self, reduced: Contribution) -> WaveDecision {
        self.waves += 1;
        let balanced = reduced[0] == reduced[1];
        let stable = self.prev_sums == Some(reduced);
        self.prev_sums = Some(reduced);
        if self.poisoned.is_some() {
            WaveDecision::Poisoned
        } else if balanced && stable {
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
    fn needs_two_identical_balanced_waves() {
        let mut d = FourCounterDetector::new();
        d.enter_wave();
        // First balanced wave: not enough (no previous wave to confirm).
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Continue);
        d.enter_wave();
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Terminated);
    }

    #[test]
    fn unbalanced_waves_never_terminate() {
        let mut d = FourCounterDetector::new();
        d.enter_wave();
        assert_eq!(d.exit_wave([5, 3]), WaveDecision::Continue);
        d.enter_wave();
        assert_eq!(d.exit_wave([5, 3]), WaveDecision::Continue); // stable but unbalanced
    }

    #[test]
    fn changing_sums_reset_confirmation() {
        let mut d = FourCounterDetector::new();
        d.enter_wave();
        assert_eq!(d.exit_wave([2, 2]), WaveDecision::Continue);
        d.enter_wave();
        assert_eq!(d.exit_wave([4, 4]), WaveDecision::Continue); // balanced but moved
        d.enter_wave();
        assert_eq!(d.exit_wave([4, 4]), WaveDecision::Terminated);
    }

    #[test]
    fn poison_aborts_even_a_stable_balanced_wave() {
        let mut d = FourCounterDetector::new();
        d.on_receive(); // never completed: not ready
        assert!(!d.ready());
        d.poison(1);
        assert!(d.ready());
        d.enter_wave();
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Poisoned);
        d.enter_wave();
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Poisoned, "stable + balanced stays poisoned");
        assert_eq!(d.poisoned_by(), Some(1));
    }

    #[test]
    fn pending_reception_blocks_readiness() {
        let mut d = FourCounterDetector::new();
        d.on_receive();
        assert!(!d.ready());
        d.on_complete(0);
        assert!(d.ready());
    }
}
