//! Stateless sleep-set DFS over all schedules of a bounded scenario.
//!
//! The explorer enumerates every transition interleaving of a
//! [`Scenario`]'s protocol events, pruned by a
//! classic sleep-set partial-order reduction: after exploring transition
//! `t` from a state, `t` is put to sleep for the remaining siblings and
//! stays asleep in their subtrees as long as it is independent of every
//! transition taken — schedules that merely commute adjacent independent
//! steps are visited once. Independence is structural (disjoint image
//! touch sets, see [`World::independent`]); crashes are global and
//! therefore dependent with everything.
//!
//! Oracles fire inside [`World::step`]; terminal states additionally run
//! the differential and DES replay oracles from [`crate::diff`].

use crate::diff;
use crate::mutation::{Family, Mutation};
use crate::scenario::Scenario;
use crate::world::{Outcome, TKey, Violation, ViolationKind, World};

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Hard budget on visited states; exceeding it marks the result
    /// truncated instead of looping forever.
    pub max_states: u64,
    /// Enable the sleep-set partial-order reduction (disable to measure
    /// the reduction ratio).
    pub por: bool,
    /// Run the differential and DES replay oracles on every crash-free
    /// terminated terminal state.
    pub differential: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_states: 2_000_000, por: true, differential: true }
    }
}

/// What one exploration did.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// States visited (transitions applied).
    pub states: u64,
    /// Complete schedules reaching a terminal state.
    pub schedules: u64,
    /// Terminal states that ended in clean termination.
    pub terminated: u64,
    /// Terminal states that aborted after a crash.
    pub aborted: u64,
    /// Branches pruned by the wave budget (unfair wave spinning).
    pub pruned_budget: u64,
    /// Branches cut because every enabled transition was asleep.
    pub sleep_cut: u64,
    /// Longest schedule seen.
    pub max_schedule_len: usize,
    /// True when `max_states` stopped the search early.
    pub truncated: bool,
}

/// A reproducible failure: everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The scenario the schedule runs in.
    pub scenario: Scenario,
    /// Detector family under check.
    pub family: Family,
    /// Seeded mutation, if any.
    pub mutation: Option<Mutation>,
    /// The exact transition sequence, from the initial state.
    pub schedule: Vec<TKey>,
    /// What the oracle caught.
    pub violation: Violation,
}

/// Explores every schedule of `scenario` under `family`/`mutation`.
/// Returns the stats and the first counterexample found, if any.
pub fn explore(
    scenario: &Scenario,
    family: Family,
    mutation: Option<Mutation>,
    cfg: &ExploreConfig,
) -> (ExploreStats, Option<Counterexample>) {
    let mut stats = ExploreStats::default();
    // The differential oracle compares the *clean* detector families; a
    // mutated exploration would only measure the mutation, so gate it off.
    let cfg = ExploreConfig { differential: cfg.differential && mutation.is_none(), ..cfg.clone() };
    let cfg = &cfg;
    let world = World::new(scenario, family, mutation);
    let ce = dfs(&world, &[], cfg, &mut stats).map(|(schedule, violation)| Counterexample {
        scenario: scenario.clone(),
        family,
        mutation,
        schedule,
        violation,
    });
    (stats, ce)
}

fn dfs(
    world: &World,
    sleep: &[TKey],
    cfg: &ExploreConfig,
    stats: &mut ExploreStats,
) -> Option<(Vec<TKey>, Violation)> {
    if stats.truncated {
        return None;
    }
    let enabled = world.enabled();
    if enabled.is_empty() {
        return terminal(world, cfg, stats);
    }
    let mut candidates: Vec<&TKey> = if cfg.por {
        enabled.iter().filter(|t| !sleep.contains(t)).collect()
    } else {
        enabled.iter().collect()
    };
    // Wave steps first: the search then soon reaches schedules where waves
    // overlap message traffic, which is where tagging bugs live.
    candidates.sort_by_key(|t| !matches!(t, TKey::Enter(_) | TKey::Sum | TKey::Exit(_)));
    if candidates.is_empty() {
        // Every enabled transition is asleep: this state's subtree is
        // covered by a sibling that ran the same transitions earlier.
        stats.sleep_cut += 1;
        return None;
    }
    let mut slept: Vec<TKey> = Vec::new();
    for t in candidates {
        stats.states += 1;
        if stats.states > cfg.max_states {
            stats.truncated = true;
            return None;
        }
        let mut next = world.clone();
        if let Err(v) = next.step(t) {
            return Some((next.schedule().to_vec(), v));
        }
        let child_sleep: Vec<TKey> = if cfg.por {
            sleep
                .iter()
                .chain(slept.iter())
                .filter(|u| world.independent(u, t))
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        if next.done.is_some() {
            if let Some(hit) = terminal(&next, cfg, stats) {
                return Some(hit);
            }
        } else if next.pruned {
            stats.pruned_budget += 1;
        } else if let Some(hit) = dfs(&next, &child_sleep, cfg, stats) {
            return Some(hit);
        }
        slept.push(t.clone());
    }
    None
}

fn terminal(
    world: &World,
    cfg: &ExploreConfig,
    stats: &mut ExploreStats,
) -> Option<(Vec<TKey>, Violation)> {
    stats.max_schedule_len = stats.max_schedule_len.max(world.schedule().len());
    match world.done {
        None => {
            // Nothing enabled, no verdict: the protocol is stuck.
            stats.schedules += 1;
            Some((
                world.schedule().to_vec(),
                Violation {
                    kind: ViolationKind::Deadlock,
                    detail: format!(
                        "no transition enabled after {} steps, yet the finish neither \
                         terminated nor aborted",
                        world.schedule().len()
                    ),
                },
            ))
        }
        Some(Outcome::Aborted) => {
            stats.schedules += 1;
            stats.aborted += 1;
            None
        }
        Some(Outcome::Terminated) => {
            stats.schedules += 1;
            stats.terminated += 1;
            if cfg.differential && !world.crashed() {
                if let Some(v) = diff::check_terminal(world) {
                    return Some((world.schedule().to_vec(), v));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{parse_tree, scenarios};

    fn one(images: usize, trees: &[(usize, &str)]) -> Scenario {
        Scenario {
            images,
            roots: trees.iter().map(|(f, t)| (*f, parse_tree(t).unwrap())).collect(),
            crash: None,
        }
    }

    #[test]
    fn empty_finish_has_no_counterexamples_any_family() {
        for family in Family::ALL {
            let (stats, ce) = explore(&Scenario::empty(3), family, None, &ExploreConfig::default());
            assert!(ce.is_none(), "{}: {ce:?}", family.name());
            assert!(stats.terminated > 0);
            assert!(!stats.truncated);
        }
    }

    #[test]
    fn single_spawn_is_clean_and_por_cuts_states() {
        let s = one(3, &[(0, "1")]);
        let (with_por, ce) = explore(&s, Family::EpochStrict, None, &ExploreConfig::default());
        assert!(ce.is_none(), "{ce:?}");
        let cfg = ExploreConfig { por: false, ..ExploreConfig::default() };
        let (without, ce2) = explore(&s, Family::EpochStrict, None, &cfg);
        assert!(ce2.is_none());
        assert!(
            with_por.states < without.states,
            "sleep sets must prune: {} !< {}",
            with_por.states,
            without.states
        );
        assert_eq!(
            with_por.terminated + with_por.aborted,
            with_por.schedules,
            "every schedule ends terminated or aborted"
        );
    }

    #[test]
    fn smoke_bound_is_clean_for_all_families() {
        // Small crash-free subset — the CI smoke tier in miniature (the
        // full p=3 depth=2 sweep runs in release mode via scripts/ci.sh;
        // multi-spawn × epoch-loose needs ~1M states, too slow for a
        // debug-mode unit test).
        for s in scenarios(3, 2, false).into_iter().filter(|s| s.total_spawns() <= 1) {
            for family in Family::ALL {
                let cfg = ExploreConfig { max_states: 300_000, ..ExploreConfig::default() };
                let (stats, ce) = explore(&s, family, None, &cfg);
                assert!(
                    ce.is_none(),
                    "{} × {}: {:?}",
                    s.name(),
                    family.name(),
                    ce.map(|c| (c.violation.kind, c.violation.detail))
                );
                assert!(!stats.truncated, "{} × {} truncated", s.name(), family.name());
            }
        }
    }

    #[test]
    fn crash_scenarios_abort_or_terminate_cleanly() {
        let mut s = one(3, &[(0, "1(2)")]);
        s.crash = Some(1);
        let (stats, ce) = explore(&s, Family::EpochStrict, None, &ExploreConfig::default());
        assert!(ce.is_none(), "{ce:?}");
        assert!(stats.aborted > 0, "some schedule must observe the crash");
        assert!(stats.terminated > 0, "some schedule must finish before the crash bites");
    }

    /// Paper Fig. 5 over every schedule: p(=0) ships f1 to q(=1), f1
    /// ships f2 to r(=2). Some schedule lets the barrier strawman exit
    /// with f2 in flight; no schedule does that to `finish`.
    #[test]
    fn fig5_barrier_fails_and_finish_holds_on_every_schedule() {
        let s = one(3, &[(0, "1(2)")]);
        let (_, ce) = explore(&s, Family::Barrier, None, &ExploreConfig::default());
        let ce = ce.expect("the barrier must miss f2 on some schedule");
        assert_eq!(ce.violation.kind, ViolationKind::Safety, "{}", ce.violation.detail);
        let (stats, ce) = explore(&s, Family::EpochStrict, None, &ExploreConfig::default());
        assert!(ce.is_none(), "{ce:?}");
        assert!(!stats.truncated && stats.terminated > 0);
    }

    #[test]
    fn merge_epochs_mutation_is_caught() {
        // The hand-derived adversarial shape: a fan-out whose siblings
        // share a target, one executed before the target enters the wave,
        // one left in flight.
        let s = one(3, &[(0, "1(2,2)")]);
        let (_, ce) = explore(&s, Family::EpochStrict, Some(Mutation::MergeEpochs), &{
            ExploreConfig::default()
        });
        let ce = ce.expect("merge-epochs must produce a counterexample");
        assert_eq!(ce.violation.kind, ViolationKind::Safety, "{}", ce.violation.detail);
    }

    #[test]
    fn ack_complete_confusion_deadlocks() {
        let s = one(2, &[(0, "1")]);
        let (_, ce) = explore(
            &s,
            Family::EpochStrict,
            Some(Mutation::AckCompleteConfusion),
            &ExploreConfig::default(),
        );
        let ce = ce.expect("ack-complete confusion must be caught");
        assert_eq!(ce.violation.kind, ViolationKind::Deadlock, "{}", ce.violation.detail);
    }
}
