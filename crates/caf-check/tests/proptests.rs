//! Property-based tests of the finish protocol on seeded timed schedules.
//!
//! The paper's termination-detection algorithm must be *sound* (never
//! declare termination with work outstanding), *live* (always terminate),
//! and respect the Theorem 1 wave bound `waves ≤ L + 1`, across randomized
//! spawn forests, delays, and message reorderings. The world's own oracles
//! check soundness, agreement and the bound on every run; a fail-stop
//! crash at any point must end every run without a violation.

use caf_check::mutation::Family;
use caf_check::scenario::{node, Scenario, SpawnTree};
use caf_check::timed::{self, TimedRun, Timing};
use caf_check::ViolationKind;
use proptest::prelude::*;

/// Strategy for a spawn tree over `images` images with bounded size.
fn spawn_tree(images: usize) -> impl Strategy<Value = SpawnTree> {
    let leaf = (0..images).prop_map(|t| node(t, vec![]));
    leaf.prop_recursive(4, 24, 3, move |inner| {
        ((0..images), prop::collection::vec(inner, 0..3))
            .prop_map(|(t, children)| node(t, children))
    })
}

/// Strategy for a crash-free spawn forest plus the delay model it runs
/// under.
fn timed_forest(images: usize) -> impl Strategy<Value = (Scenario, Timing)> {
    (
        prop::collection::vec(((0..images), spawn_tree(images)), 0..4),
        1u64..5,      // net_delay
        1u64..5,      // ack_delay
        1u64..8,      // exec_delay
        0u64..20,     // jitter_max
        any::<u64>(), // jitter_seed
        1u64..6,      // wave_delay
    )
        .prop_map(
            move |(
                roots,
                net_delay,
                ack_delay,
                exec_delay,
                jitter_max,
                jitter_seed,
                wave_delay,
            )| {
                let timing = Timing {
                    net_delay,
                    ack_delay,
                    exec_delay,
                    jitter_max,
                    jitter_seed,
                    wave_delay,
                    ..Timing::default()
                };
                (Scenario { images, roots, crash: None }, timing)
            },
        )
}

/// Replays `forest` with `victim` fail-stopping before the `crash_at`-th
/// event and every survivor poisoned `detect_delay` later.
fn crash_run(
    family: Family,
    (forest, timing): (Scenario, Timing),
    victim: usize,
    crash_at: usize,
    detect_delay: u64,
) -> TimedRun {
    let scenario = Scenario { crash: Some(victim), ..forest };
    let timing = Timing { crash_at_event: crash_at, detect_delay, ..timing };
    timed::run(&scenario, family, &timing)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The strict epoch detector is sound and live on arbitrary forests
    /// and schedules, and respects Theorem 1: waves ≤ L + 1.
    #[test]
    fn epoch_detector_sound_live_and_bounded(case in timed_forest(6)) {
        let (forest, timing) = case;
        let l = forest.longest_chain();
        // waves() panics on any oracle violation (unsound, not live).
        let waves = timed::run(&forest, Family::EpochStrict, &timing).waves();
        prop_assert!(waves <= l + 1, "L={l} but used {waves} waves");
        prop_assert!(waves >= 1);
    }

    /// The no-upper-bound variant stays sound and live, and never beats
    /// the strict variant on wave count.
    #[test]
    fn no_wait_variant_sound_and_never_cheaper(case in timed_forest(5)) {
        let (forest, timing) = case;
        let waves_strict = timed::run(&forest, Family::EpochStrict, &timing).waves();
        let waves_loose = timed::run(&forest, Family::EpochLoose, &timing).waves();
        prop_assert!(waves_loose >= waves_strict);
    }

    /// Mattern's four-counter algorithm is sound and live too, and needs
    /// at least two waves (its structural extra reduction).
    #[test]
    fn four_counter_sound_live_needs_two_waves(case in timed_forest(5)) {
        let (forest, timing) = case;
        let waves = timed::run(&forest, Family::FourCounter, &timing).waves();
        prop_assert!(waves >= 2);
    }
}

// ---------------------------------------------------------------------------
// Fail-stop crashes: no finish deadlock under any single-image crash at any
// point in the spawn tree, for the wave families and the barrier strawman.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The strict epoch detector either terminates cleanly (crash point
    /// never reached, or survivors finished first) or aborts poisoned —
    /// it never deadlocks, whatever event the victim dies at.
    #[test]
    fn epoch_detector_survives_any_single_crash(
        forest in timed_forest(5),
        victim in 0usize..5,
        crash_at in 0usize..200,
        detect_delay in 1u64..30,
    ) {
        let run = crash_run(Family::EpochStrict, forest, victim, crash_at, detect_delay);
        prop_assert!(run.violation.is_none(), "{:?}", run.violation);
        prop_assert!(run.world.done.is_some());
    }

    /// Same property for the no-upper-bound epoch variant, which keeps
    /// reducing speculatively while poison is in flight.
    #[test]
    fn loose_epoch_detector_survives_any_single_crash(
        forest in timed_forest(4),
        victim in 0usize..4,
        crash_at in 0usize..150,
        detect_delay in 1u64..30,
    ) {
        let run = crash_run(Family::EpochLoose, forest, victim, crash_at, detect_delay);
        prop_assert!(run.violation.is_none(), "{:?}", run.violation);
        prop_assert!(run.world.done.is_some());
    }

    /// Mattern's four-counter detector under the same crash sweep.
    #[test]
    fn four_counter_detector_survives_any_single_crash(
        forest in timed_forest(5),
        victim in 0usize..5,
        crash_at in 0usize..200,
        detect_delay in 1u64..30,
    ) {
        let run = crash_run(Family::FourCounter, forest, victim, crash_at, detect_delay);
        prop_assert!(run.violation.is_none(), "{:?}", run.violation);
        prop_assert!(run.world.done.is_some());
    }

    /// The barrier strawman: poison must always unblock the survivors'
    /// barrier wait (the crash must never add a *new* way to hang). Its
    /// known unsoundness — leaving the barrier with work in flight — is
    /// the only violation allowed.
    #[test]
    fn barrier_detector_crash_always_unblocks(
        forest in timed_forest(4),
        victim in 0usize..4,
        crash_at in 0usize..150,
        detect_delay in 1u64..30,
    ) {
        let run = crash_run(Family::Barrier, forest, victim, crash_at, detect_delay);
        match &run.violation {
            None => prop_assert!(run.world.done.is_some()),
            Some(v) => prop_assert_eq!(v.kind, ViolationKind::Safety, "{}", v.detail),
        }
    }
}
