//! Counterexample minimization: two-level delta debugging.
//!
//! Level 1 shrinks the *scenario* — drop whole roots, prune subtrees,
//! drop the crash — re-exploring after each candidate cut and keeping it
//! only when the same violation kind is still reachable.
//!
//! Level 2 shrinks the *schedule* with classic ddmin over transition
//! chunks. Removing keys leaves gaps, so candidates run under a guided
//! replay: keys that are no longer enabled are skipped, and once the
//! candidate is exhausted the run is completed deterministically
//! (first-enabled order). A candidate is accepted when the executed
//! schedule still hits the same violation kind and is strictly shorter.
//!
//! A final canonicalization pass bubbles independent adjacent transitions
//! into [`TKey`] order (validated by strict replay), so minimized
//! counterexamples are stable across exploration orders — two different
//! DFS orders that find the same bug shrink to the same replay file.

use crate::explore::{explore, Counterexample, ExploreConfig};
use crate::scenario::{Scenario, SpawnTree};
use crate::world::{TKey, Violation, ViolationKind, World};

/// Completion-phase step cap for guided replays.
const REPLAY_STEP_CAP: usize = 10_000;

/// Minimizes `ce` while preserving its violation kind.
pub fn shrink(ce: &Counterexample) -> Counterexample {
    let mut best = ce.clone();
    shrink_scenario(&mut best);
    shrink_schedule(&mut best);
    canonicalize(&mut best);
    best
}

/// Guided replay: applies `keys` in order, skipping any that are not
/// enabled, then completes the run first-enabled. Returns the executed
/// schedule and violation iff the run hits `expect`.
pub fn replay_guided(
    scenario: &Scenario,
    ce: &Counterexample,
    keys: &[TKey],
) -> Option<(Vec<TKey>, Violation)> {
    let expect = ce.violation.kind;
    let mut w = World::new(scenario, ce.family, ce.mutation);
    let differential = matches!(expect, ViolationKind::Differential | ViolationKind::DesMismatch);
    for k in keys {
        match w.step_if_enabled(k) {
            Ok(_) => {}
            Err(v) if v.kind == expect => return Some((w.schedule().to_vec(), v)),
            Err(_) => return None,
        }
        if w.done.is_some() || w.pruned {
            break;
        }
    }
    for _ in 0..REPLAY_STEP_CAP {
        if w.pruned {
            return None;
        }
        let Some(k) = w.enabled().first().cloned() else {
            break;
        };
        match w.step(&k) {
            Ok(()) => {}
            Err(v) if v.kind == expect => return Some((w.schedule().to_vec(), v)),
            Err(_) => return None,
        }
    }
    // Terminal without an in-run violation: deadlock and the terminal
    // differential oracles can still confirm the expectation.
    if w.done.is_none() && !w.pruned && w.enabled().is_empty() {
        if expect == ViolationKind::Deadlock {
            let v = Violation {
                kind: ViolationKind::Deadlock,
                detail: format!("stuck after {} steps", w.schedule().len()),
            };
            return Some((w.schedule().to_vec(), v));
        }
        return None;
    }
    if differential && w.done == Some(crate::world::Outcome::Terminated) && !w.crashed() {
        if let Some(v) = crate::diff::check_terminal(&w) {
            if v.kind == expect {
                return Some((w.schedule().to_vec(), v));
            }
        }
    }
    None
}

/// Strict replay: every key must be enabled in sequence and the run must
/// end (possibly via terminal oracles) in the expected violation with the
/// exact given schedule. Used to validate canonicalization swaps.
fn replay_exact(scenario: &Scenario, ce: &Counterexample, keys: &[TKey]) -> bool {
    match replay_guided(scenario, ce, keys) {
        Some((executed, _)) => executed == keys,
        None => false,
    }
}

fn reproduces(scenario: &Scenario, ce: &Counterexample) -> Option<Counterexample> {
    // Prefer replaying the current schedule into the smaller scenario
    // (fast); fall back to a bounded re-exploration, since the cut may
    // change which schedule exhibits the bug.
    if let Some((schedule, violation)) = replay_guided(scenario, ce, &ce.schedule) {
        return Some(Counterexample {
            scenario: scenario.clone(),
            schedule,
            violation,
            ..ce.clone()
        });
    }
    let cfg = ExploreConfig {
        max_states: 400_000,
        por: true,
        differential: matches!(
            ce.violation.kind,
            ViolationKind::Differential | ViolationKind::DesMismatch
        ),
    };
    let (_, found) = explore(scenario, ce.family, ce.mutation, &cfg);
    found.filter(|c| c.violation.kind == ce.violation.kind)
}

fn shrink_scenario(best: &mut Counterexample) {
    loop {
        let mut improved = false;
        for candidate in scenario_cuts(&best.scenario) {
            if let Some(smaller) = reproduces(&candidate, best) {
                *best = smaller;
                improved = true;
                break;
            }
        }
        if !improved {
            return;
        }
    }
}

/// All one-step reductions of a scenario: drop the crash, drop one root,
/// or delete one subtree (splicing nothing in its place).
fn scenario_cuts(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    if s.crash.is_some() {
        out.push(Scenario { crash: None, ..s.clone() });
    }
    for i in 0..s.roots.len() {
        let mut roots = s.roots.clone();
        roots.remove(i);
        out.push(Scenario { roots, ..s.clone() });
    }
    for (i, (_, tree)) in s.roots.iter().enumerate() {
        for path in node_paths(tree) {
            let mut roots = s.roots.clone();
            let mut t = tree.clone();
            remove_at(&mut t, &path);
            roots[i].1 = t;
            out.push(Scenario { roots, ..s.clone() });
        }
    }
    out
}

/// Paths (child-index sequences) to every non-root node of `tree`.
fn node_paths(tree: &SpawnTree) -> Vec<Vec<usize>> {
    fn walk(t: &SpawnTree, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        for (j, c) in t.children.iter().enumerate() {
            prefix.push(j);
            out.push(prefix.clone());
            walk(c, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(tree, &mut Vec::new(), &mut out);
    out
}

fn remove_at(tree: &mut SpawnTree, path: &[usize]) {
    match path {
        [] => unreachable!("cannot remove the root"),
        [j] => {
            tree.children.remove(*j);
        }
        [j, rest @ ..] => remove_at(&mut tree.children[*j], rest),
    }
}

fn shrink_schedule(best: &mut Counterexample) {
    let mut chunk = (best.schedule.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < best.schedule.len() {
            let mut candidate = best.schedule.clone();
            let hi = (i + chunk).min(candidate.len());
            candidate.drain(i..hi);
            let scenario = best.scenario.clone();
            match replay_guided(&scenario, best, &candidate) {
                Some((executed, violation)) if executed.len() < best.schedule.len() => {
                    best.schedule = executed;
                    best.violation = violation;
                    progressed = true;
                }
                _ => i += chunk,
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !progressed {
            return;
        }
    }
}

/// Bubbles independent adjacent transitions into `TKey` order wherever
/// the swapped schedule still replays exactly and still violates.
fn canonicalize(best: &mut Counterexample) {
    let len = best.schedule.len();
    for _ in 0..len {
        let mut swapped = false;
        for i in 0..len.saturating_sub(1) {
            if best.schedule[i + 1] < best.schedule[i] {
                let mut candidate = best.schedule.clone();
                candidate.swap(i, i + 1);
                let scenario = best.scenario.clone();
                if replay_exact(&scenario, best, &candidate) {
                    best.schedule = candidate;
                    swapped = true;
                }
            }
        }
        if !swapped {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::{Family, Mutation};
    use crate::scenario::parse_tree;

    fn find_ce(images: usize, tree: &str, mutation: Mutation) -> Counterexample {
        let scenario =
            Scenario { images, roots: vec![(0, parse_tree(tree).unwrap())], crash: None };
        let (_, ce) =
            explore(&scenario, mutation.family(), Some(mutation), &ExploreConfig::default());
        ce.expect("mutation must be caught")
    }

    #[test]
    fn shrinking_preserves_kind_and_never_grows() {
        let ce = find_ce(3, "1(2,2)", Mutation::MergeEpochs);
        let small = shrink(&ce);
        assert_eq!(small.violation.kind, ce.violation.kind);
        assert!(small.schedule.len() <= ce.schedule.len());
        assert!(small.scenario.total_spawns() <= ce.scenario.total_spawns());
        // The shrunk schedule must replay exactly.
        let hit = replay_guided(&small.scenario, &small, &small.schedule)
            .expect("shrunk counterexample must replay");
        assert_eq!(hit.1.kind, ce.violation.kind);
    }

    #[test]
    fn shrinking_is_idempotent() {
        let ce = find_ce(2, "1", Mutation::AckCompleteConfusion);
        let once = shrink(&ce);
        let twice = shrink(&once);
        assert_eq!(once.schedule, twice.schedule);
        assert_eq!(once.scenario, twice.scenario);
    }

    #[test]
    fn stale_contribution_shrinks_to_a_tiny_livelock() {
        // Run the mutation under the loose family, where the Theorem 1
        // liveness oracle does not apply: the livelock oracle must catch
        // the frozen sum instead.
        let scenario =
            Scenario { images: 2, roots: vec![(0, parse_tree("1").unwrap())], crash: None };
        let (_, ce) = explore(
            &scenario,
            Family::EpochLoose,
            Some(Mutation::StaleContribution),
            &ExploreConfig::default(),
        );
        let ce = ce.expect("stale contribution must livelock the loose family");
        assert_eq!(ce.violation.kind, ViolationKind::Livelock, "{}", ce.violation.detail);
        let small = shrink(&ce);
        assert!(
            small.schedule.len() <= ce.schedule.len(),
            "{} !<= {}",
            small.schedule.len(),
            ce.schedule.len()
        );
    }
}
