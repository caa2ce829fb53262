//! Differential oracles: the same event trace, replayed through every
//! detector implementation, must yield the same verdict — and replayed
//! through the DES engine must reproduce the same counter history.
//!
//! The explorer hands us the ordered [`MsgStep`] trace of a crash-free
//! terminal state that the world's own detector declared terminated. We
//! then:
//!
//! 1. replay the trace through fresh strict-epoch, loose-epoch, and
//!    four-counter detector banks and run synchronous verdict waves: all
//!    three must declare termination within a small bounded number of
//!    waves (strict and loose in one, four-counter in two);
//! 2. replay it through the X10-style centralized vector protocol: one
//!    quiescent report round must make the home declare termination;
//! 3. check the (unsound) barrier detector one way: it may declare
//!    termination too *early* elsewhere, but on a truly terminated trace
//!    it must be locally done everywhere — it never misses a true
//!    positive;
//! 4. schedule the trace into [`caf_des::Engine`] with one event per
//!    tick and drive a fresh epoch bank from the popped events: the
//!    resulting per-step cumulative counter snapshots must be identical
//!    to the history the exploration recorded, proving the world model
//!    and the DES engine agree on what a schedule *is*.

use std::collections::BTreeMap;

use caf_core::ids::ImageId;
use caf_core::termination::{
    BarrierDetector, CentralizedDetector, CentralizedHome, EpochDetector, WaveDecision,
    WaveDetector,
};

use crate::world::{MsgStep, Violation, ViolationKind, World};

/// Maximum synchronous verdict waves a wave detector may need on a fully
/// drained trace (four-counter needs 2; leave headroom for 1 more).
const MAX_VERDICT_WAVES: usize = 3;

/// Runs every differential oracle against a crash-free terminated
/// terminal world. Returns the first disagreement found.
pub fn check_terminal(world: &World) -> Option<Violation> {
    let n = world.images();
    let trace = complete_acks(world.msg_trace());
    for (name, strict) in [("epoch-strict", true), ("epoch-loose", false)] {
        if let Err(detail) = wave_verdict(n, &trace, || EpochDetector::new(strict), 1) {
            return Some(Violation {
                kind: ViolationKind::Differential,
                detail: format!("{name} replay disagreed: {detail}"),
            });
        }
    }
    if let Err(detail) = wave_verdict(n, &trace, caf_core::termination::FourCounterDetector::new, 2)
    {
        return Some(Violation {
            kind: ViolationKind::Differential,
            detail: format!("four-counter replay disagreed: {detail}"),
        });
    }
    if let Err(detail) = centralized_verdict(n, &trace) {
        return Some(Violation {
            kind: ViolationKind::Differential,
            detail: format!("centralized replay disagreed: {detail}"),
        });
    }
    if let Err(detail) = barrier_one_way(n, &trace) {
        return Some(Violation {
            kind: ViolationKind::Differential,
            detail: format!("barrier replay missed a true termination: {detail}"),
        });
    }
    if world.family().theorem1_applies() || !world.history().is_empty() {
        if let Err(detail) = des_replay(world) {
            return Some(Violation { kind: ViolationKind::DesMismatch, detail });
        }
    }
    None
}

/// A world may terminate with delivery acks still on the wire (the sender
/// no longer needs them). Append the missing acks so replays reach full
/// message quiescence before their verdict rounds.
fn complete_acks(trace: &[MsgStep]) -> Vec<MsgStep> {
    let mut out = trace.to_vec();
    let mut sender: BTreeMap<&str, usize> = BTreeMap::new();
    for step in trace {
        match step {
            MsgStep::Send { id, from, .. } => {
                sender.insert(id, *from);
            }
            MsgStep::Ack { id, .. } => {
                sender.remove(id.as_str());
            }
            _ => {}
        }
    }
    for (id, from) in sender {
        out.push(MsgStep::Ack { id: id.to_string(), from });
    }
    out
}

/// Replays `trace` through a fresh bank of wave detectors and runs
/// synchronous verdict waves. Succeeds iff every image declares
/// `Terminated` in the same wave, in exactly `expect_waves` waves.
fn wave_verdict<D: WaveDetector, F: Fn() -> D>(
    n: usize,
    trace: &[MsgStep],
    fresh: F,
    expect_waves: usize,
) -> Result<(), String> {
    let mut bank: Vec<D> = (0..n).map(|_| fresh()).collect();
    let mut tags: BTreeMap<&str, u32> = BTreeMap::new();
    for step in trace {
        match step {
            MsgStep::Send { id, from, .. } => {
                tags.insert(id, bank[*from].on_send());
            }
            MsgStep::Deliver { to, .. } => bank[*to].on_receive(),
            MsgStep::Exec { id, to } => bank[*to].on_complete(tags[id.as_str()]),
            MsgStep::Ack { from, .. } => bank[*from].on_delivered(),
        }
    }
    for wave in 1..=MAX_VERDICT_WAVES {
        if let Some(i) = (0..n).find(|&i| !bank[i].ready()) {
            return Err(format!("image {i} not ready for verdict wave {wave} on drained trace"));
        }
        let mut sum = [0i64; 2];
        let contributions: Vec<_> = bank.iter_mut().map(|d| d.enter_wave()).collect();
        for c in &contributions {
            sum[0] += c[0];
            sum[1] += c[1];
        }
        let decisions: Vec<WaveDecision> = bank.iter_mut().map(|d| d.exit_wave(sum)).collect();
        if decisions.contains(&WaveDecision::Terminated) {
            if decisions.iter().any(|d| *d != WaveDecision::Terminated) {
                return Err(format!("split verdict in wave {wave}: {decisions:?}"));
            }
            if wave != expect_waves {
                return Err(format!("terminated in wave {wave}, expected wave {expect_waves}"));
            }
            return Ok(());
        }
    }
    Err(format!("no termination within {MAX_VERDICT_WAVES} verdict waves"))
}

/// Replays `trace` through the centralized vector protocol: after one
/// quiescent report round the home must declare termination.
fn centralized_verdict(n: usize, trace: &[MsgStep]) -> Result<(), String> {
    let mut home = CentralizedHome::new(n);
    let mut workers: Vec<CentralizedDetector> =
        (0..n).map(|i| CentralizedDetector::new(ImageId(i), n)).collect();
    for step in trace {
        match step {
            MsgStep::Send { from, to, .. } => workers[*from].on_spawn(ImageId(*to)),
            MsgStep::Deliver { to, .. } => workers[*to].on_activity_start(),
            MsgStep::Exec { to, .. } => workers[*to].on_activity_complete(),
            MsgStep::Ack { .. } => {}
        }
    }
    let mut done = false;
    for (i, w) in workers.iter_mut().enumerate() {
        if !w.quiescent() {
            return Err(format!("worker {i} not quiescent on drained trace"));
        }
        if let Some(r) = w.take_report() {
            done = home.ingest(&r);
        }
    }
    if !done {
        return Err("home did not declare termination after a full report round".into());
    }
    Ok(())
}

/// One-way barrier check: the unsound Fig. 5 detector may fire early on
/// other traces, but on a truly terminated one every image must be
/// locally done.
fn barrier_one_way(n: usize, trace: &[MsgStep]) -> Result<(), String> {
    let mut bank: Vec<BarrierDetector> = (0..n).map(|_| BarrierDetector::new()).collect();
    for step in trace {
        match step {
            MsgStep::Send { from, .. } => {
                bank[*from].on_send();
            }
            MsgStep::Deliver { to, .. } => bank[*to].on_receive(),
            MsgStep::Exec { to, .. } => bank[*to].on_complete(0),
            MsgStep::Ack { from, .. } => bank[*from].on_delivered(),
        }
    }
    match (0..n).find(|&i| !bank[i].locally_done()) {
        Some(i) => Err(format!("image {i} not locally done")),
        None => Ok(()),
    }
}

/// Replays the message trace through the DES engine, one event per tick,
/// driving a fresh epoch bank; the per-step cumulative counter snapshots
/// must equal the exploration-recorded history exactly. The counters are
/// cumulative and no wave touches them, so the comparison is valid even
/// though the replay runs no waves.
fn des_replay(world: &World) -> Result<(), String> {
    let n = world.images();
    let mut engine: caf_des::Engine<MsgStep> = caf_des::Engine::new();
    for (i, step) in world.msg_trace().iter().enumerate() {
        engine.schedule_at(i as caf_des::SimTime, step.clone());
    }
    let mut bank: Vec<EpochDetector> = (0..n).map(|_| EpochDetector::new(true)).collect();
    let mut tags: BTreeMap<String, u32> = BTreeMap::new();
    let mut history: Vec<(usize, [u64; 4])> = Vec::new();
    let snapshot = |bank: &Vec<EpochDetector>, image: usize| {
        let c = bank[image].epochs().counters();
        (image, [c.sent, c.delivered, c.received, c.completed])
    };
    while let Some((_, step)) = engine.pop() {
        let image = match &step {
            MsgStep::Send { id, from, .. } => {
                let tag = bank[*from].on_send();
                tags.insert(id.clone(), tag);
                *from
            }
            MsgStep::Deliver { to, .. } => {
                bank[*to].on_receive();
                *to
            }
            MsgStep::Exec { id, to } => {
                bank[*to].on_complete(tags[id]);
                *to
            }
            MsgStep::Ack { from, .. } => {
                bank[*from].on_delivered();
                *from
            }
        };
        history.push(snapshot(&bank, image));
    }
    let recorded = world.history();
    if history.len() != recorded.len() {
        return Err(format!(
            "DES replay produced {} snapshots, exploration recorded {}",
            history.len(),
            recorded.len()
        ));
    }
    for (k, (a, b)) in history.iter().zip(recorded).enumerate() {
        if a != b {
            return Err(format!(
                "counter history diverged at step {k}: DES {a:?} vs explored {b:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::Family;
    use crate::scenario::{parse_tree, Scenario};
    use crate::world::World;

    fn run_to_terminal(scenario: &Scenario, family: Family) -> World {
        let mut w = World::new(scenario, family, None);
        for _ in 0..10_000 {
            let Some(k) = w.enabled().first().cloned() else {
                return w;
            };
            w.step(&k).expect("clean protocol must not violate");
        }
        panic!("did not quiesce");
    }

    fn chain(images: usize, tree: &str) -> Scenario {
        Scenario { images, roots: vec![(0, parse_tree(tree).unwrap())], crash: None }
    }

    #[test]
    fn clean_terminal_traces_pass_all_oracles() {
        for family in Family::ALL {
            for s in [Scenario::empty(3), chain(3, "1"), chain(3, "1(2)"), chain(3, "1(2,2)")] {
                let w = run_to_terminal(&s, family);
                assert_eq!(w.done, Some(crate::world::Outcome::Terminated));
                let v = check_terminal(&w);
                assert!(v.is_none(), "{} × {}: {v:?}", s.name(), family.name());
            }
        }
    }

    #[test]
    fn corrupted_trace_is_flagged() {
        // Drop the Exec of the last message: every replay family must
        // notice the trace no longer quiesces or terminates.
        let w = run_to_terminal(&chain(2, "1"), Family::EpochStrict);
        let mut trace = complete_acks(w.msg_trace());
        let pos = trace
            .iter()
            .position(|s| matches!(s, MsgStep::Exec { .. }))
            .expect("trace has an exec");
        trace.remove(pos);
        assert!(
            wave_verdict(2, &trace, || EpochDetector::new(true), 1).is_err(),
            "strict replay must reject an incomplete trace"
        );
        assert!(centralized_verdict(2, &trace).is_err());
        assert!(barrier_one_way(2, &trace).is_err());
    }

    #[test]
    fn des_history_matches_recorded_history() {
        let w = run_to_terminal(&chain(3, "1(2)"), Family::EpochStrict);
        assert!(des_replay(&w).is_ok());
    }
}
