//! The *incorrect* barrier-based termination strawman of paper Fig. 5.
//!
//! "One might think that … termination detection can be achieved simply by
//! having each process image wait for completion of all asynchronous
//! operations that it initiated …, and then perform a barrier." The flaw:
//! a transitively shipped function `f2` can land on image `r` *after* `r`
//! has observed every barrier arrival, so `r` exits the barrier while `f2`
//! is still in flight. This module implements the strawman faithfully, as
//! a [`WaveDetector`] whose one "wave" is the barrier, so `caf-check`
//! can exhibit the failure both on every schedule of the Fig. 5 scenario
//! and on the seeded timed schedules of the `fig05_barrier_failure` bench
//! binary.

use super::{Contribution, WaveDecision, WaveDetector};

/// Per-image state of the barrier-based detector.
///
/// An image is "locally done" once every operation *it initiated* has been
/// acknowledged as delivered (it has no visibility into transitive spawns
/// performed on its behalf elsewhere — exactly the blind spot).
#[derive(Debug, Clone, Default)]
pub struct BarrierDetector {
    sent: u64,
    delivered: u64,
    /// Received messages currently executing locally.
    executing: u64,
    poisoned: Option<usize>,
    waves: usize,
}

impl BarrierDetector {
    /// Fresh state.
    pub fn new() -> Self {
        BarrierDetector::default()
    }

    /// The (unsound) local-done predicate: everything *I* initiated has
    /// landed and nothing is executing here right now. The image then
    /// enters the barrier; once all images have entered, the detector
    /// declares termination — possibly wrongly. A poisoned detector is
    /// immediately "done": an ack owed by a dead image never arrives, so
    /// waiting on it would turn the crash into a deadlock.
    pub fn locally_done(&self) -> bool {
        self.poisoned.is_some() || (self.sent == self.delivered && self.executing == 0)
    }
}

impl WaveDetector for BarrierDetector {
    fn on_send(&mut self) -> u32 {
        self.sent += 1;
        self.waves as u32
    }

    fn on_delivered(&mut self) {
        self.delivered += 1;
    }

    /// Arrival of a shipped function (it begins executing).
    fn on_receive(&mut self) {
        self.executing += 1;
    }

    fn on_complete(&mut self, _tag: u32) {
        assert!(self.executing > 0);
        self.executing -= 1;
    }

    /// Entering the barrier: allowed once [`locally_done`](Self::locally_done).
    fn ready(&self) -> bool {
        self.locally_done()
    }

    /// A barrier carries no counts.
    fn enter_wave(&mut self) -> Contribution {
        [0, 0]
    }

    /// Leaving the barrier declares termination, whatever is still in
    /// flight — the flaw. A poisoned barrier wait aborts instead.
    fn exit_wave(&mut self, _reduced: Contribution) -> WaveDecision {
        self.waves += 1;
        if self.poisoned.is_some() {
            WaveDecision::Poisoned
        } else {
            WaveDecision::Terminated
        }
    }

    fn waves(&self) -> usize {
        self.waves
    }

    /// Marks `image` as fail-stopped: the barrier wait aborts (the
    /// runtime surfaces the failure instead of completing the barrier).
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
    fn done_when_idle() {
        assert!(BarrierDetector::new().locally_done());
    }

    #[test]
    fn own_sends_block_until_delivered() {
        let mut d = BarrierDetector::new();
        d.on_send();
        assert!(!d.locally_done());
        d.on_delivered();
        assert!(d.locally_done());
    }

    #[test]
    fn executing_function_blocks() {
        let mut d = BarrierDetector::new();
        d.on_receive();
        assert!(!d.locally_done());
        d.on_complete(0);
        assert!(d.locally_done());
    }

    #[test]
    fn poison_unblocks_a_wait_on_a_dead_acker() {
        let mut d = BarrierDetector::new();
        d.on_send(); // the target dies before acking
        assert!(!d.locally_done());
        d.poison(4);
        assert!(d.locally_done(), "poison must abort the wait");
        assert_eq!(d.poisoned_by(), Some(4));
    }

    #[test]
    fn barrier_exit_terminates_unless_poisoned() {
        let mut d = BarrierDetector::new();
        assert_eq!(d.enter_wave(), [0, 0]);
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Terminated);
        d.poison(1);
        assert_eq!(d.exit_wave([0, 0]), WaveDecision::Poisoned);
        assert_eq!(d.waves(), 2);
    }

    /// The blind spot in miniature: after my own spawn is delivered I am
    /// "done", even though the delivered function may spawn further work
    /// that has not yet landed anywhere.
    #[test]
    fn transitive_spawn_is_invisible() {
        let mut p = BarrierDetector::new();
        p.on_send(); // p ships f1 to q
        p.on_delivered();
        assert!(p.locally_done()); // p would enter the barrier here,
                                   // regardless of what f1 does at q.
    }
}
