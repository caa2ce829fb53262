//! Virtual-time `finish` coordination.
//!
//! Drives one [`EpochDetector`] per simulated image — the *same* state
//! machine the threaded runtime uses — and models the synchronous team
//! allreduce: a wave opens as images become eligible (idle, queue drained,
//! detector-ready) and closes `allreduce_cost(p)` after the last image
//! enters; every image receives the same sum. Each message carries its
//! sender's wave tag and the detector itself places it in the cut, so
//! the consistent-cut arithmetic is identical to the real runtime's.

use caf_core::termination::{EpochDetector, WaveDecision, WaveDetector};

/// Per-`finish`-block wave coordinator over `p` simulated images.
pub struct FinishSim {
    detectors: Vec<EpochDetector>,
    in_wave: Vec<bool>,
    /// Fail-stopped images: excluded from wave membership once their
    /// death is observed (the survivors' poisoned wave closes without
    /// them — a dead contributor would otherwise hang the allreduce
    /// forever).
    dead: Vec<bool>,
    live: usize,
    entered: usize,
    /// A wave-completion is already scheduled (guards against the same
    /// wave closing twice when a death shrinks the membership to exactly
    /// the current entrants).
    closing: bool,
    sum: [i64; 2],
    waves: usize,
    terminated: bool,
    aborted: bool,
    /// Entry time of the latest entrant (the wave's start for costing).
    pub last_entry_ns: u64,
}

impl FinishSim {
    /// Coordinator for `p` images; `strict` selects the paper's
    /// wait-for-quiescence algorithm vs. the Fig. 18 no-upper-bound
    /// baseline.
    pub fn new(p: usize, strict: bool) -> Self {
        FinishSim {
            detectors: (0..p).map(|_| EpochDetector::new(strict)).collect(),
            in_wave: vec![false; p],
            dead: vec![false; p],
            live: p,
            entered: 0,
            closing: false,
            sum: [0; 2],
            waves: 0,
            terminated: false,
            aborted: false,
            last_entry_ns: 0,
        }
    }

    /// Records a send by `img`; returns the message's wave tag.
    pub fn on_send(&mut self, img: usize) -> u32 {
        self.detectors[img].on_send()
    }

    /// Records delivery of a message at `img`.
    pub fn on_receive(&mut self, img: usize) {
        self.detectors[img].on_receive();
    }

    /// Records completion of a received `tag`-tagged message's handler at
    /// `img`.
    pub fn on_complete(&mut self, img: usize, tag: u32) {
        self.detectors[img].on_complete(tag);
    }

    /// Records a delivery acknowledgement arriving back at sender `img`.
    /// One per message: the DES keeps the paper's per-message ack cost
    /// model, where the threaded runtime counts acks per drain.
    pub fn on_delivered(&mut self, img: usize) {
        self.detectors[img].on_delivered();
    }

    /// Whether `img` is currently inside the open wave.
    pub fn in_wave(&self, img: usize) -> bool {
        self.in_wave[img]
    }

    /// Global termination already detected?
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// A poisoned wave closed: the survivors collectively aborted.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Images still participating in waves.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Waves completed so far (the Fig. 18 metric).
    pub fn waves(&self) -> usize {
        self.waves
    }

    /// Poisons `img`'s detector with `victim`'s death: `img` stops
    /// waiting for quiescence and its next wave exit reports
    /// [`WaveDecision::Poisoned`].
    pub fn poison(&mut self, img: usize, victim: usize) {
        self.detectors[img].poison(victim);
    }

    /// Removes a fail-stopped `victim` from wave membership. Returns
    /// `true` when the removal closes the open wave (every remaining
    /// live image had already entered) — the caller then schedules the
    /// wave-completion event, exactly as for a closing entry.
    pub fn mark_dead(&mut self, victim: usize) -> bool {
        if self.dead[victim] {
            return false;
        }
        self.dead[victim] = true;
        self.live -= 1;
        if self.in_wave[victim] {
            // Its contribution stays in the sum; the wave is poisoned by
            // the observer that reported the death, so the sum's value
            // no longer decides anything.
            self.in_wave[victim] = false;
            self.entered -= 1;
        }
        let closes = self.live > 0 && self.entered == self.live && !self.closing;
        if closes {
            self.closing = true;
        }
        closes
    }

    /// Attempts to enter `img` into the open wave at time `now_ns`
    /// (the model must have checked that `img` is otherwise idle).
    /// Returns `true` if this entry completed the wave — the caller then
    /// schedules a wave-completion event at `now + allreduce_cost`.
    pub fn try_enter(&mut self, img: usize, now_ns: u64) -> bool {
        if self.terminated
            || self.aborted
            || self.dead[img]
            || self.in_wave[img]
            || !self.detectors[img].ready()
        {
            return false;
        }
        self.in_wave[img] = true;
        self.entered += 1;
        let c = self.detectors[img].enter_wave();
        self.sum[0] += c[0];
        self.sum[1] += c[1];
        self.last_entry_ns = now_ns;
        let closes = self.entered == self.live && !self.closing;
        if closes {
            self.closing = true;
        }
        closes
    }

    /// Completes the wave: every live image exits with the global sum. A
    /// single poisoned participant poisons the verdict — death outranks
    /// even a zero sum.
    pub fn complete_wave(&mut self) -> WaveDecision {
        assert_eq!(self.entered, self.live, "wave completed early");
        self.closing = false;
        let sum = std::mem::take(&mut self.sum);
        self.waves += 1;
        self.entered = 0;
        let mut decision = WaveDecision::Continue;
        let mut poisoned = false;
        for (i, d) in self.detectors.iter_mut().enumerate() {
            if self.dead[i] {
                continue;
            }
            let v = d.exit_wave(sum);
            poisoned |= v == WaveDecision::Poisoned;
            decision = v;
            self.in_wave[i] = false;
        }
        if poisoned {
            decision = WaveDecision::Poisoned;
        }
        match decision {
            WaveDecision::Terminated => self.terminated = true,
            WaveDecision::Poisoned => self.aborted = true,
            WaveDecision::Continue => {}
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_system_terminates_in_one_wave() {
        let mut f = FinishSim::new(3, true);
        assert!(!f.try_enter(0, 10));
        assert!(!f.try_enter(1, 20));
        assert!(f.try_enter(2, 30), "last entrant closes the wave");
        assert_eq!(f.last_entry_ns, 30);
        assert_eq!(f.complete_wave(), WaveDecision::Terminated);
        assert!(f.terminated());
        assert_eq!(f.waves(), 1);
    }

    #[test]
    fn outstanding_message_forces_second_wave() {
        let mut f = FinishSim::new(2, true);
        let tag = f.on_send(0);
        // Image 1 idle, enters. Image 0 not ready (unacked send).
        assert!(!f.try_enter(1, 0));
        assert!(!f.try_enter(0, 0));
        // Message lands & completes at 1; ack returns to 0.
        f.on_receive(1);
        f.on_complete(1, tag);
        f.on_delivered(0);
        assert!(f.try_enter(0, 5), "now ready; wave closes");
        // Image 1 entered before the completion was counted? It entered at t=0 with contribution 0; image 0
        // contributes sent−completed = 1 → sum ≠ 0 → continue… unless
        // image 1's counts landed pre-entry. Either way the protocol
        // must terminate within two waves.
        let d1 = f.complete_wave();
        if d1 == WaveDecision::Continue {
            assert!(!f.try_enter(0, 10) && f.try_enter(1, 10) || f.try_enter(0, 10));
            while !f.in_wave(0) {
                f.try_enter(0, 11);
            }
            while !f.in_wave(1) {
                f.try_enter(1, 11);
            }
            assert_eq!(f.complete_wave(), WaveDecision::Terminated);
        }
        assert!(f.terminated());
        assert!(f.waves() <= 2);
    }

    #[test]
    fn loose_detector_enters_despite_outstanding_sends() {
        let mut f = FinishSim::new(2, false);
        let _tag = f.on_send(0);
        assert!(!f.try_enter(0, 0), "first entrant doesn't close");
        assert!(f.try_enter(1, 0));
        // Sum sees the un-completed send → continue.
        assert_eq!(f.complete_wave(), WaveDecision::Continue);
    }

    #[test]
    #[should_panic(expected = "wave completed early")]
    fn early_completion_is_rejected() {
        let mut f = FinishSim::new(2, true);
        f.try_enter(0, 0);
        f.complete_wave();
    }

    #[test]
    fn dead_image_is_excluded_and_poison_wins_the_wave() {
        let mut f = FinishSim::new(3, true);
        // Image 2 has an outstanding send (to nobody who will ack it —
        // it is about to die), so without exclusion no wave could close.
        f.on_send(2);
        assert!(!f.try_enter(0, 0));
        assert!(!f.try_enter(2, 0), "unacked send blocks the victim");
        // Death observed: membership shrinks, survivors poisoned.
        assert!(!f.mark_dead(2), "image 1 has not entered yet");
        assert_eq!(f.live(), 2);
        f.poison(0, 2);
        f.poison(1, 2);
        assert!(f.try_enter(1, 5), "last live entrant closes the wave");
        assert_eq!(f.complete_wave(), WaveDecision::Poisoned);
        assert!(f.aborted());
        assert!(!f.terminated());
        assert!(!f.try_enter(0, 10), "no waves after the abort");
    }

    #[test]
    fn death_of_the_last_straggler_closes_the_open_wave() {
        let mut f = FinishSim::new(3, true);
        f.on_send(2); // the victim's unacked send keeps it out
        assert!(!f.try_enter(0, 0));
        assert!(!f.try_enter(1, 0), "two of three: wave stays open");
        f.poison(0, 2);
        f.poison(1, 2);
        assert!(f.mark_dead(2), "removal completes the wave");
        assert!(!f.mark_dead(2), "second report must not close it again");
        assert_eq!(f.complete_wave(), WaveDecision::Poisoned);
    }

    #[test]
    fn victim_already_in_wave_is_backed_out() {
        let mut f = FinishSim::new(3, true);
        assert!(!f.try_enter(2, 0), "quiescent victim enters early");
        assert!(!f.try_enter(0, 1));
        f.poison(0, 2);
        f.poison(1, 2);
        assert!(!f.mark_dead(2), "image 1 still outside");
        assert!(f.try_enter(1, 2));
        assert_eq!(f.complete_wave(), WaveDecision::Poisoned);
    }
}
