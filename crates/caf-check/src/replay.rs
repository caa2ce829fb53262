//! Self-contained counterexample replay files.
//!
//! A replay file captures everything needed to re-execute one schedule
//! bit-for-bit: the scenario (images, spawn trees, optional crash), the
//! detector family, the seeded mutation if any, the transition schedule,
//! and the violation kind the run is expected to exhibit. The fixture
//! corpus under `tests/fixtures/counterexamples/` and the
//! `caf-check replay <file>` subcommand both consume this format.
//!
//! ```text
//! caf-check-replay v1
//! family epoch-strict
//! images 3
//! spawn 0 1(2,2)
//! mutation merge-epochs
//! expect safety
//! schedule
//! deliver r0
//! enter 1
//! ...
//! end
//! ```
//!
//! Lines starting with `#` are comments. The schedule is strict: every
//! transition must be enabled when its line is reached, and the expected
//! violation must actually fire — anything else is a replay failure.

use crate::explore::Counterexample;
use crate::mutation::{Family, Mutation};
use crate::scenario::{parse_tree, tree_text, Scenario};
use crate::world::{Outcome, TKey, Violation, ViolationKind, World};

/// Magic first line of the format.
const MAGIC: &str = "caf-check-replay v1";

/// A parsed replay file.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The scenario to rebuild.
    pub scenario: Scenario,
    /// Detector family to drive.
    pub family: Family,
    /// Seeded mutation, if the counterexample came from a mutant.
    pub mutation: Option<Mutation>,
    /// Expected violation; `None` means the schedule must terminate
    /// cleanly (used for regression-pinning good schedules).
    pub expect: Option<ViolationKind>,
    /// The transition schedule.
    pub schedule: Vec<TKey>,
}

impl Replay {
    /// Packages a counterexample for writing to disk.
    pub fn from_counterexample(ce: &Counterexample) -> Replay {
        Replay {
            scenario: ce.scenario.clone(),
            family: ce.family,
            mutation: ce.mutation,
            expect: Some(ce.violation.kind),
            schedule: ce.schedule.clone(),
        }
    }

    /// Serializes to the textual format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("family {}\n", self.family.name()));
        out.push_str(&format!("images {}\n", self.scenario.images));
        for (from, tree) in &self.scenario.roots {
            out.push_str(&format!("spawn {from} {}\n", tree_text(tree)));
        }
        if let Some(v) = self.scenario.crash {
            out.push_str(&format!("crash-victim {v}\n"));
        }
        if let Some(m) = self.mutation {
            out.push_str(&format!("mutation {}\n", m.name()));
        }
        match self.expect {
            Some(kind) => out.push_str(&format!("expect {}\n", kind.name())),
            None => out.push_str("expect none\n"),
        }
        out.push_str("schedule\n");
        for k in &self.schedule {
            out.push_str(&format!("{k}\n"));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the textual format.
    pub fn parse(text: &str) -> Result<Replay, String> {
        let mut lines =
            text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(MAGIC) {
            return Err(format!("missing magic line {MAGIC:?}"));
        }
        let mut family = None;
        let mut images = None;
        let mut roots = Vec::new();
        let mut crash = None;
        let mut mutation = None;
        let mut expect = None;
        let mut in_schedule = false;
        let mut schedule = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err(format!("content after end: {line:?}"));
            }
            if in_schedule {
                if line == "end" {
                    ended = true;
                } else {
                    schedule.push(TKey::parse(line)?);
                }
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "family" => family = Some(Family::parse(rest)?),
                "images" => {
                    images = Some(rest.parse::<usize>().map_err(|e| format!("bad images: {e}"))?)
                }
                "spawn" => {
                    let (from, tree) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("spawn needs `<from> <tree>`: {line:?}"))?;
                    let from = from.parse::<usize>().map_err(|e| format!("bad spawn rank: {e}"))?;
                    roots.push((from, parse_tree(tree)?));
                }
                "crash-victim" => {
                    crash = Some(rest.parse::<usize>().map_err(|e| format!("bad victim: {e}"))?)
                }
                "mutation" => mutation = Some(Mutation::parse(rest)?),
                "expect" => {
                    expect = if rest == "none" { None } else { Some(ViolationKind::parse(rest)?) }
                }
                "schedule" => in_schedule = true,
                _ => return Err(format!("unknown header line {line:?}")),
            }
        }
        if !ended {
            return Err("missing `end` line".into());
        }
        Ok(Replay {
            scenario: Scenario { images: images.ok_or("missing `images` line")?, roots, crash },
            family: family.ok_or("missing `family` line")?,
            mutation,
            expect,
            schedule,
        })
    }

    /// Re-executes the schedule strictly. `Ok` describes what happened
    /// and matched; `Err` explains the mismatch.
    pub fn run(&self) -> Result<String, String> {
        let mut w = World::new(&self.scenario, self.family, self.mutation);
        for (i, k) in self.schedule.iter().enumerate() {
            match w.step_if_enabled(k) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "step {}: transition `{k}` is not enabled (enabled: {})",
                        i + 1,
                        w.enabled().iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
                    ));
                }
                Err(v) => return self.check_violation(v, i + 1),
            }
        }
        // Schedule exhausted without an in-run violation.
        match self.expect {
            None => match w.done {
                Some(Outcome::Terminated) => Ok("terminated cleanly as expected".into()),
                other => Err(format!(
                    "expected clean termination, got {other:?} after the full schedule"
                )),
            },
            Some(ViolationKind::Deadlock) => {
                if w.done.is_none() && !w.pruned && w.enabled().is_empty() {
                    Ok("deadlock confirmed: no transition enabled, no verdict".into())
                } else {
                    Err(format!(
                        "expected a deadlock; world is done={:?} with {} enabled transition(s)",
                        w.done,
                        w.enabled().len()
                    ))
                }
            }
            Some(kind)
                if matches!(kind, ViolationKind::Differential | ViolationKind::DesMismatch) =>
            {
                match crate::diff::check_terminal(&w) {
                    Some(v) if v.kind == kind => self.check_violation(v, self.schedule.len()),
                    Some(v) => Err(format!(
                        "expected {}, terminal oracles reported {}: {}",
                        kind.name(),
                        v.kind.name(),
                        v.detail
                    )),
                    None => Err(format!(
                        "expected {}, but the terminal oracles found nothing",
                        kind.name()
                    )),
                }
            }
            Some(kind) => Err(format!(
                "expected a {} violation, but the schedule completed without one",
                kind.name()
            )),
        }
    }

    fn check_violation(&self, v: Violation, step: usize) -> Result<String, String> {
        match self.expect {
            Some(kind) if kind == v.kind => {
                Ok(format!("{} violation reproduced at step {step}: {}", kind.name(), v.detail))
            }
            Some(kind) => Err(format!(
                "expected {}, got {} at step {step}: {}",
                kind.name(),
                v.kind.name(),
                v.detail
            )),
            None => Err(format!(
                "expected clean termination, got {} at step {step}: {}",
                v.kind.name(),
                v.detail
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use crate::shrink::shrink;

    #[test]
    fn text_round_trips() {
        let scenario =
            Scenario { images: 3, roots: vec![(0, parse_tree("1(2,2)").unwrap())], crash: Some(1) };
        let r = Replay {
            scenario,
            family: Family::EpochStrict,
            mutation: Some(Mutation::MergeEpochs),
            expect: Some(ViolationKind::Safety),
            schedule: vec![TKey::Deliver("r0".into()), TKey::Enter(1), TKey::Sum, TKey::Exit(0)],
        };
        let parsed = Replay::parse(&r.to_text()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_malformed_files() {
        assert!(Replay::parse("").is_err());
        assert!(Replay::parse("caf-check-replay v1\nimages 2\nschedule\nend\n").is_err());
        assert!(Replay::parse("caf-check-replay v1\nfamily epoch-strict\nimages 2\nschedule\n")
            .is_err());
        assert!(
            Replay::parse("caf-check-replay v1\nfamily bogus\nimages 2\nschedule\nend\n").is_err()
        );
    }

    #[test]
    fn shrunk_counterexample_replays_from_text() {
        let scenario =
            Scenario { images: 3, roots: vec![(0, parse_tree("1(2,2)").unwrap())], crash: None };
        let (_, ce) = explore(
            &scenario,
            Family::EpochStrict,
            Some(Mutation::MergeEpochs),
            &ExploreConfig::default(),
        );
        let small = shrink(&ce.expect("merge-epochs must be caught"));
        let replay = Replay::from_counterexample(&small);
        let reparsed = Replay::parse(&replay.to_text()).unwrap();
        let msg = reparsed.run().expect("fixture must reproduce");
        assert!(msg.contains("safety"), "{msg}");
    }

    #[test]
    fn clean_schedule_pins_as_expect_none() {
        let scenario =
            Scenario { images: 2, roots: vec![(0, parse_tree("1").unwrap())], crash: None };
        let mut w = World::new(&scenario, Family::EpochStrict, None);
        while let Some(k) = w.enabled().first().cloned() {
            w.step(&k).unwrap();
        }
        let r = Replay {
            scenario,
            family: Family::EpochStrict,
            mutation: None,
            expect: None,
            schedule: w.schedule().to_vec(),
        };
        r.run().expect("pinned good schedule must stay good");
    }
}
