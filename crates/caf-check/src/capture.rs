//! Validation of real-execution traces captured by `caf-core`'s
//! [`TraceRecorder`](caf_core::trace::TraceRecorder) hooks in `caf-runtime`.
//!
//! The runtime records the same protocol events the model checker
//! explores — sends, delivery acks, receptions, completions, wave entries
//! and exits, poison — with wave tags, ack counts and contributions
//! attached. This module replays a captured trace through fresh
//! [`EpochDetector`]s (a counted ack applies all of its deliveries) and
//! cross-checks every recorded value against the replica:
//!
//! * each `Send`'s recorded wave tag must equal the replica's wave count
//!   at that point in the image's program order;
//! * each `EnterWave` must happen with the replica ready (the quiescence
//!   precondition) and carry exactly the replica's contribution;
//! * each `ExitWave` must carry a sum shared by every image in that wave,
//!   equal to the entered contributions, and a `terminated` flag matching
//!   the replica's decision.
//!
//! Any divergence means the runtime's detector wiring and the verified
//! model have drifted apart — exactly the gap trace capture exists to
//! close.

use std::collections::BTreeMap;

use caf_core::termination::{EpochDetector, WaveDecision, WaveDetector};
use caf_core::trace::TraceEvent;

use crate::world::{Violation, ViolationKind};

/// Summary of a validated capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaptureReport {
    /// Distinct finish blocks seen.
    pub finishes: usize,
    /// Total events validated.
    pub events: usize,
    /// Total waves closed across all finishes.
    pub waves: usize,
}

fn fail(detail: String) -> Violation {
    Violation { kind: ViolationKind::Capture, detail }
}

/// Validates a captured event stream. `wait_quiescence` must match the
/// runtime's `finish_wait_quiescence` config. Event order within each
/// image is the image thread's program order; cross-image order is
/// whatever the recorder's lock happened to serialize, which is a legal
/// interleaving by construction.
pub fn validate(events: &[TraceEvent], wait_quiescence: bool) -> Result<CaptureReport, Violation> {
    let mut report = CaptureReport::default();
    // Group by finish id, preserving order.
    let mut by_finish: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        by_finish.entry(ev.finish()).or_default().push(ev);
    }
    report.finishes = by_finish.len();
    report.events = events.len();
    for (fid, evs) in by_finish {
        report.waves += validate_finish(fid, &evs, wait_quiescence)?;
    }
    Ok(report)
}

fn validate_finish(
    fid: (u64, u64),
    events: &[&TraceEvent],
    wait_quiescence: bool,
) -> Result<usize, Violation> {
    let mut dets: BTreeMap<usize, EpochDetector> = BTreeMap::new();
    // Per-image count of exited waves (the image's current wave index),
    // and the recorded per-wave contributions/sums for cross-checks.
    let mut exited: BTreeMap<usize, usize> = BTreeMap::new();
    let mut contributions: BTreeMap<(usize, usize), [i64; 2]> = BTreeMap::new();
    let mut wave_sums: BTreeMap<usize, [i64; 2]> = BTreeMap::new();
    let mut saw_poison = false;
    let mut max_wave = 0usize;
    for ev in events {
        let image = ev.image();
        let det = dets.entry(image).or_insert_with(|| EpochDetector::new(wait_quiescence));
        match ev {
            TraceEvent::Send { wave, .. } => {
                let replica = det.on_send();
                if replica != *wave {
                    return Err(fail(format!(
                        "finish {fid:?}: image {image} recorded a send tagged {wave} where \
                         the replayed epoch state is in wave {replica}"
                    )));
                }
            }
            TraceEvent::Delivered { count, .. } => (0..*count).for_each(|_| det.on_delivered()),
            TraceEvent::Receive { .. } => det.on_receive(),
            TraceEvent::Complete { wave, .. } => det.on_complete(*wave),
            TraceEvent::EnterWave { contribution, .. } => {
                if !det.ready() {
                    return Err(fail(format!(
                        "finish {fid:?}: image {image} entered a wave while the replayed \
                         detector was not ready (quiescence violated)"
                    )));
                }
                let replica = det.enter_wave();
                if replica != *contribution {
                    return Err(fail(format!(
                        "finish {fid:?}: image {image} recorded contribution {contribution:?} \
                         but the replayed detector contributes {replica:?}"
                    )));
                }
                let wave = exited.get(&image).copied().unwrap_or(0);
                contributions.insert((wave, image), *contribution);
            }
            TraceEvent::ExitWave { sum, terminated, .. } => {
                let wave = exited.entry(image).or_insert(0);
                let decision = det.exit_wave(*sum);
                let replica_terminated = decision == WaveDecision::Terminated;
                if replica_terminated != *terminated {
                    return Err(fail(format!(
                        "finish {fid:?}: image {image} recorded terminated={terminated} in \
                         wave {wave} but the replayed detector decided {decision:?}"
                    )));
                }
                match wave_sums.get(wave) {
                    Some(prev) if prev != sum => {
                        return Err(fail(format!(
                            "finish {fid:?}: wave {wave} closed with sum {sum:?} at image \
                             {image} but {prev:?} elsewhere — the allreduce diverged"
                        )));
                    }
                    _ => {
                        wave_sums.insert(*wave, *sum);
                    }
                }
                max_wave = max_wave.max(*wave + 1);
                *wave += 1;
            }
            TraceEvent::Poison { victim, .. } => {
                det.poison(*victim);
                saw_poison = true;
            }
        }
    }
    // Cross-image: each wave's recorded sum must equal the sum of the
    // recorded contributions of the images that entered it. Crash runs
    // reduce over the surviving team mid-transition; skip the global sum
    // check there (the per-image replica checks above still ran).
    if !saw_poison {
        for (wave, sum) in &wave_sums {
            let total: [i64; 2] = contributions
                .iter()
                .filter(|((w, _), _)| w == wave)
                .fold([0, 0], |acc, (_, c)| [acc[0] + c[0], acc[1] + c[1]]);
            if total != *sum {
                return Err(fail(format!(
                    "finish {fid:?}: wave {wave} recorded sum {sum:?} but the entered \
                     contributions add to {total:?}"
                )));
            }
        }
    }
    Ok(max_wave)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-build the capture of a clean p=2 run: image 0 spawns one
    /// function at image 1, then one wave terminates the finish.
    fn clean_capture() -> Vec<TraceEvent> {
        let f = (0, 1);
        vec![
            TraceEvent::Send { image: 0, finish: f, wave: 0 },
            TraceEvent::Receive { image: 1, finish: f },
            TraceEvent::Delivered { image: 0, finish: f, count: 1 },
            TraceEvent::Complete { image: 1, finish: f, wave: 0 },
            TraceEvent::EnterWave { image: 0, finish: f, contribution: [1, 0] },
            TraceEvent::EnterWave { image: 1, finish: f, contribution: [-1, 0] },
            TraceEvent::ExitWave { image: 0, finish: f, sum: [0, 0], terminated: true },
            TraceEvent::ExitWave { image: 1, finish: f, sum: [0, 0], terminated: true },
        ]
    }

    #[test]
    fn clean_capture_validates() {
        let report = validate(&clean_capture(), true).expect("clean capture");
        assert_eq!(report, CaptureReport { finishes: 1, events: 8, waves: 1 });
    }

    #[test]
    fn wrong_wave_tag_is_flagged() {
        let mut evs = clean_capture();
        evs[0] = TraceEvent::Send { image: 0, finish: (0, 1), wave: 1 };
        let v = validate(&evs, true).unwrap_err();
        assert_eq!(v.kind, ViolationKind::Capture);
        assert!(v.detail.contains("send"), "{}", v.detail);
    }

    #[test]
    fn quiescence_violation_is_flagged() {
        // Image 0 enters the wave with its send still unacked.
        let f = (0, 1);
        let evs = vec![
            TraceEvent::Send { image: 0, finish: f, wave: 0 },
            TraceEvent::EnterWave { image: 0, finish: f, contribution: [1, 0] },
        ];
        let v = validate(&evs, true).unwrap_err();
        assert!(v.detail.contains("not ready"), "{}", v.detail);
        // The loose detector is allowed to do exactly that.
        assert!(validate(&evs, false).is_ok());
    }

    #[test]
    fn diverged_sum_is_flagged() {
        let mut evs = clean_capture();
        evs[7] = TraceEvent::ExitWave { image: 1, finish: (0, 1), sum: [1, 0], terminated: false };
        let v = validate(&evs, true).unwrap_err();
        assert!(v.detail.contains("allreduce diverged"), "{}", v.detail);
    }

    #[test]
    fn wrong_contribution_is_flagged() {
        let mut evs = clean_capture();
        evs[4] = TraceEvent::EnterWave { image: 0, finish: (0, 1), contribution: [2, 0] };
        let v = validate(&evs, true).unwrap_err();
        assert!(v.detail.contains("contribut"), "{}", v.detail);
    }
}
