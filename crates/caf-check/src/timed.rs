//! A seeded timed scheduler for the [`World`]: one finish block played
//! out on integer time instead of over every interleaving.
//!
//! The explorer asks whether *any* schedule breaks the protocol; the
//! figures ask how many waves one realistic schedule takes. This module
//! answers the second question on the same world, so both run against one
//! set of transition rules and one set of oracles. Message transitions are
//! queued on a [`caf_des::Engine`] by a [`Timing`] delay model:
//!
//! * a send queues its `Deliver` after `net_delay`;
//! * a delivery queues its `Ack` after `ack_delay`, then its `Exec` after
//!   `exec_delay`;
//! * an execution queues its children's `Deliver`s, in child order;
//!
//! each plus a seeded jitter below `jitter_max` (drawn only when
//! `jitter_max > 0`). Jitter can reorder messages between the same pair of
//! images: channels are deliberately not FIFO.
//!
//! Waves are not queued. Before every pop, each ready image enters the
//! open wave, in index order. Once every live image is in, the allreduce
//! takes `max(1, wave_delay)`: events inside that window still run
//! (images poll inside the collective), then the wave is summed and every
//! live image exits at once, in index order. The barrier strawman has no
//! allreduce: it closes the instant its last image enters.
//!
//! When the scenario names a crash victim, the victim fail-stops just
//! before the `crash_at_event`-th pop, and every survivor is poisoned
//! `max(1, detect_delay)` later (heartbeat confirmation plus the
//! `ImageDown` broadcast). Queued transitions the crash disabled are
//! skipped.

use caf_core::rng::SplitMix64;
use caf_des::Engine;

use crate::mutation::Family;
use crate::scenario::Scenario;
use crate::world::{TKey, Violation, ViolationKind, World};

/// The delay model of one timed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    /// Base delay from send to delivery.
    pub net_delay: u64,
    /// Delay from delivery to the sender's acknowledgement.
    pub ack_delay: u64,
    /// Execution time of one shipped function.
    pub exec_delay: u64,
    /// Upper bound (exclusive) on per-transition extra delay; 0 disables.
    pub jitter_max: u64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Duration of one synchronous allreduce wave.
    pub wave_delay: u64,
    /// 0-based pop before which the scenario's crash victim fail-stops; a
    /// count past the end of the run means the crash never fires.
    pub crash_at_event: usize,
    /// Time from the crash to every survivor's poison.
    pub detect_delay: u64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            net_delay: 1,
            ack_delay: 1,
            exec_delay: 1,
            jitter_max: 0,
            jitter_seed: 0,
            wave_delay: 2,
            crash_at_event: 0,
            detect_delay: 1,
        }
    }
}

/// How a timed run ended.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// The world at the end: terminal, or where an oracle fired.
    pub world: World,
    /// The oracle violation that ended the run, if any.
    pub violation: Option<Violation>,
}

impl TimedRun {
    /// Waves used by a run that ended without a violation.
    ///
    /// # Panics
    /// Panics with the violation if an oracle fired.
    pub fn waves(&self) -> usize {
        if let Some(v) = &self.violation {
            panic!("{} violation: {}", v.kind.name(), v.detail);
        }
        self.world.waves()
    }
}

/// Plays `scenario` under `family` on the schedule `timing` induces.
pub fn run(scenario: &Scenario, family: Family, timing: &Timing) -> TimedRun {
    let mut world = World::new(scenario, family, None);
    // Time keeps messages progressing under waves, so no timed schedule
    // is unfair; the explorer's wave budget would only cut runs short.
    world.wave_budget = usize::MAX;
    let mut sched = Scheduler {
        engine: Engine::new(),
        rng: SplitMix64::new(timing.jitter_seed),
        timing,
        crash: scenario.crash,
        clock: 0,
    };
    for k in 0..scenario.roots.len() {
        sched.queue(timing.net_delay, TKey::Deliver(format!("r{k}")));
    }
    let violation = sched.drive(&mut world).err();
    TimedRun { world, violation }
}

struct Scheduler<'a> {
    engine: Engine<TKey>,
    rng: SplitMix64,
    timing: &'a Timing,
    crash: Option<usize>,
    /// The engine's clock only moves on a pop; a wave window also moves
    /// this one.
    clock: u64,
}

impl Scheduler<'_> {
    fn queue(&mut self, delay: u64, key: TKey) {
        let jitter = match self.timing.jitter_max {
            0 => 0,
            max => self.rng.next_below(max),
        };
        self.engine.schedule_at(self.clock + delay + jitter, key);
    }

    fn drive(&mut self, world: &mut World) -> Result<(), Violation> {
        while world.done.is_none() {
            for i in 0..world.images() {
                world.step_if_enabled(&TKey::Enter(i))?;
            }
            if world.is_enabled(&TKey::Sum) {
                if world.family() != Family::Barrier {
                    let wave_end = self.clock + self.timing.wave_delay.max(1);
                    while self.engine.peek_time().is_some_and(|t| t <= wave_end) {
                        self.pop(world)?;
                    }
                    self.clock = wave_end;
                }
                world.step(&TKey::Sum)?;
                for i in 0..world.images() {
                    world.step_if_enabled(&TKey::Exit(i))?;
                }
            } else if self.engine.pending() > 0 {
                self.pop(world)?;
            } else {
                return Err(Violation {
                    kind: ViolationKind::Deadlock,
                    detail: format!(
                        "queue drained at t={} after {} wave(s), but some image never \
                         entered the wave",
                        self.clock,
                        world.waves()
                    ),
                });
            }
        }
        Ok(())
    }

    fn pop(&mut self, world: &mut World) -> Result<(), Violation> {
        let (at, key) = self.engine.pop().expect("pop on an empty queue");
        self.clock = at;
        if let Some(victim) = self.crash {
            if self.engine.processed() == self.timing.crash_at_event as u64 + 1 {
                world.step(&TKey::Crash(victim))?;
                let poison_at = at + self.timing.detect_delay.max(1);
                for i in (0..world.images()).filter(|&i| i != victim) {
                    self.engine.schedule_at(poison_at, TKey::Poison(i));
                }
            }
        }
        let children = match &key {
            TKey::Exec(id) => world.children(id),
            _ => 0,
        };
        if !world.step_if_enabled(&key)? {
            return Ok(());
        }
        match key {
            TKey::Deliver(id) => {
                self.queue(self.timing.ack_delay, TKey::Ack(id.clone()));
                self.queue(self.timing.exec_delay, TKey::Exec(id));
            }
            TKey::Exec(id) => {
                for j in 0..children {
                    self.queue(self.timing.net_delay, TKey::Deliver(format!("{id}.{j}")));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{chain, node, SpawnTree};
    use crate::world::Outcome;

    fn scenario(images: usize, roots: Vec<(usize, SpawnTree)>) -> Scenario {
        Scenario { images, roots, crash: None }
    }

    fn epoch_waves(s: &Scenario) -> usize {
        run(s, Family::EpochStrict, &Timing::default()).waves()
    }

    #[test]
    fn empty_finish_takes_one_wave() {
        // Base case of Theorem 1: L = 0 → 1 wave.
        assert_eq!(epoch_waves(&Scenario::empty(4)), 1);
    }

    #[test]
    fn single_spawn_takes_at_most_two_waves() {
        // Image 0 ships one function to image 1.
        let waves = epoch_waves(&scenario(4, vec![(0, node(1, vec![]))]));
        assert!(waves <= 2, "L=1 must need ≤ 2 waves, got {waves}");
    }

    #[test]
    fn chain_of_three_respects_theorem_bound() {
        // f1 on q spawns f2 on r spawns f3 on s: L = 3 → ≤ 4 waves.
        let waves = epoch_waves(&scenario(4, vec![(0, chain(&[1, 2, 3]))]));
        assert!(waves <= 4, "L=3 must need ≤ 4 waves, got {waves}");
        assert!(waves >= 2, "a chain cannot finish in a single wave");
    }

    #[test]
    fn four_counter_uses_extra_wave_on_empty_finish() {
        // Four-counter must confirm with a second identical wave even when
        // nothing was sent.
        let waves = run(&Scenario::empty(4), Family::FourCounter, &Timing::default()).waves();
        assert_eq!(waves, 2);
    }

    #[test]
    fn four_counter_terminates_on_fan_out() {
        let s = scenario(4, vec![(0, node(1, vec![node(2, vec![]), node(3, vec![])]))]);
        assert!(run(&s, Family::FourCounter, &Timing::default()).waves() >= 2);
    }

    #[test]
    fn no_upper_bound_variant_never_uses_fewer_waves() {
        for (len, imgs) in [(1usize, 4usize), (2, 4), (3, 8), (5, 8)] {
            let targets: Vec<usize> = (1..=len).map(|i| i % imgs).collect();
            let s = scenario(imgs, vec![(0, chain(&targets))]);
            let timing = Timing { exec_delay: 4, ..Timing::default() };
            let waves_with = run(&s, Family::EpochStrict, &timing).waves();
            assert!(waves_with <= len + 1, "Theorem 1 violated: L={len} took {waves_with} waves");
            let waves_without = run(&s, Family::EpochLoose, &timing).waves();
            assert!(waves_without >= waves_with, "chain={len}: {waves_without} < {waves_with}");
        }
    }

    #[test]
    fn epoch_detector_handles_fan_out() {
        // Image 0 ships to everyone; each target ships two more.
        let roots = (1..6)
            .map(|t| (0, node(t, vec![node((t + 1) % 6, vec![]), node((t + 2) % 6, vec![])])))
            .collect();
        let s = scenario(6, roots);
        assert!(epoch_waves(&s) <= s.longest_chain() + 1);
    }

    #[test]
    fn epoch_detector_sound_under_jitter() {
        for seed in 0..20 {
            let timing = Timing {
                jitter_max: 17,
                jitter_seed: seed,
                net_delay: 2,
                exec_delay: 3,
                ..Timing::default()
            };
            let s = scenario(
                4,
                vec![
                    (0, chain(&[1, 2, 3, 0, 1])),
                    (2, node(3, vec![node(0, vec![]), node(1, vec![])])),
                ],
            );
            // waves() panics on any oracle violation, soundness included.
            assert!(run(&s, Family::EpochStrict, &timing).waves() >= 2);
        }
    }

    #[test]
    fn no_wait_variant_sound_under_jitter() {
        for seed in 0..20 {
            let timing = Timing { jitter_max: 11, jitter_seed: seed, ..Timing::default() };
            run(&scenario(3, vec![(1, chain(&[2, 0, 2]))]), Family::EpochLoose, &timing).waves();
        }
    }

    #[test]
    fn four_counter_sound_under_jitter() {
        for seed in 0..20 {
            let timing = Timing { jitter_max: 13, jitter_seed: seed, ..Timing::default() };
            let s = scenario(4, vec![(0, node(1, vec![node(2, vec![node(3, vec![])])]))]);
            run(&s, Family::FourCounter, &timing).waves();
        }
    }

    fn crash_run(family: Family, s: Scenario, victim: usize, at: usize, detect: u64) -> TimedRun {
        let s = Scenario { crash: Some(victim), ..s };
        let timing = Timing { crash_at_event: at, detect_delay: detect, ..Timing::default() };
        run(&s, family, &timing)
    }

    #[test]
    fn crash_mid_chain_poisons_every_survivor() {
        let s = scenario(4, vec![(0, chain(&[1, 2, 3]))]);
        let out = crash_run(Family::EpochStrict, s, 2, 3, 5);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.world.done, Some(Outcome::Aborted), "expected poison");
    }

    #[test]
    fn crash_point_past_the_schedule_is_a_clean_run() {
        let s = scenario(4, vec![(0, node(1, vec![]))]);
        let out = crash_run(Family::EpochStrict, s, 3, 10_000, 5);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(!out.world.crashed());
        assert_eq!(out.world.done, Some(Outcome::Terminated), "no crash fired");
    }

    #[test]
    fn crash_before_any_event_still_resolves() {
        // The victim dies before the first delivery: image 1's spawn into
        // the dead image can never be acked, so only poison can unblock
        // the survivors.
        let s = scenario(4, vec![(0, chain(&[1, 2, 3]))]);
        let out = crash_run(Family::EpochStrict, s, 2, 0, 7);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.world.done, Some(Outcome::Aborted), "expected poison");
    }

    #[test]
    fn barrier_crash_aborts_instead_of_hanging() {
        let s = scenario(3, vec![(0, node(1, vec![node(2, vec![])]))]);
        let out = crash_run(Family::Barrier, s, 1, 0, 4);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.world.done, Some(Outcome::Aborted), "survivors must abort the barrier");
    }

    /// Paper Fig. 5, deterministically: p(=0) ships f1 to q(=1); f1 ships
    /// f2 to r(=2) over a slow link. The barrier-based detector completes
    /// while f2 is still outstanding; the epoch detector does not.
    #[test]
    fn barrier_detector_misses_transitive_spawn() {
        let s = scenario(3, vec![(0, node(1, vec![node(2, vec![])]))]);
        let timing = Timing { net_delay: 1, ack_delay: 1, exec_delay: 5, ..Timing::default() };
        let barrier = run(&s, Family::Barrier, &timing);
        let v = barrier.violation.expect("expected the Fig. 5 failure");
        assert_eq!(v.kind, ViolationKind::Safety, "{}", v.detail);
        assert!(barrier.world.outstanding() > 0);

        // finish (epoch detector) is sound on the same schedule.
        run(&s, Family::EpochStrict, &timing).waves();
    }
}
