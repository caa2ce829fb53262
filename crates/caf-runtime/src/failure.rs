//! Fail-stop failure handling above the fabric.
//!
//! The fabric's failure detector ([`caf_net::Fabric::poll_failures`])
//! confirms that an image has died; this module turns that confirmation
//! into a *team-wide verdict*: the first survivor to confirm posts the
//! death to the shared [`FailureHub`] and broadcasts `Msg::ImageDown`
//! over the wire (riding the ack/retry reliable sublayer), every
//! survivor poisons its open `finish` epochs and aborts its blocking
//! construct, and the launch returns
//! [`RuntimeError::ImageFailed`](crate::RuntimeError::ImageFailed)
//! carrying a [`FailureReport`] — which image died, how fast detection
//! was, and what every survivor was doing when it found out — instead of
//! hanging on a reduction wave the dead image can never join.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::watchdog::FinishDiag;

/// Panic payload used by survivors unwinding after a confirmed failure.
/// Delivered via `resume_unwind` so the global panic hook stays silent —
/// the failure is reported once, as a `RuntimeError`, not once per thread.
pub(crate) struct FailUnwind;

/// Panic payload used by the *dead* image's own thread: either its
/// closure panicked (fail-stop at the image boundary) or a scheduled
/// crash fault silenced it on the wire and the runtime noticed.
pub(crate) struct CrashUnwind;

/// What one survivor was doing when it observed the failure.
#[derive(Debug, Clone)]
pub struct ImageFailureObservation {
    /// The surviving image's rank.
    pub image: usize,
    /// The blocking construct that observed the failure ("finish",
    /// "barrier", "collective", "event_wait", "copy", "cofence",
    /// "send", or "shutdown").
    pub construct: &'static str,
    /// Last-known epoch counters of the finish blocks this survivor had
    /// open when it aborted (all poisoned by then).
    pub finishes: Vec<FinishDiag>,
}

/// The structured diagnostic a failed launch returns.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The image that fail-stopped.
    pub image: usize,
    /// Its incarnation at death; traffic stamped `<=` this is posthumous.
    pub incarnation: u64,
    /// Crash-to-confirmation latency at the first confirming observer.
    /// `None` when the fabric never saw the crash fire (it learned of
    /// the death another way).
    pub detection_latency: Option<Duration>,
    /// The panic message, when the image died of an uncaught panic.
    pub panic: Option<String>,
    /// Survivors' observations, sorted by rank.
    pub observers: Vec<ImageFailureObservation>,
    /// Fabric totals: wire transmissions destroyed because an endpoint
    /// was dead.
    pub crash_drops: u64,
    /// Fabric totals: frames discarded by the incarnation filter.
    pub posthumous_drops: u64,
    /// Fabric totals: heartbeat frames emitted.
    pub heartbeats: u64,
    /// Messages discarded by the team-wide inbox drain at teardown.
    pub drained: usize,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image {} failed (incarnation {})", self.image, self.incarnation)?;
        if let Some(lat) = self.detection_latency {
            write!(f, ", detected in {lat:?}")?;
        }
        if let Some(msg) = &self.panic {
            write!(f, ", panic: {msg:?}")?;
        }
        writeln!(
            f,
            "; fabric crash-dropped {}, posthumous {}, heartbeats {}, drained {}",
            self.crash_drops, self.posthumous_drops, self.heartbeats, self.drained
        )?;
        for obs in &self.observers {
            writeln!(f, "  image {} observed it in {}", obs.image, obs.construct)?;
            for d in &obs.finishes {
                writeln!(
                    f,
                    "    {}: sent {} delivered {} received {} completed {} ({} waves)",
                    d.finish, d.sent, d.delivered, d.received, d.completed, d.waves
                )?;
            }
        }
        Ok(())
    }
}

/// The first confirmed death of the launch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Down {
    pub peer: usize,
    pub incarnation: u64,
    pub latency: Option<Duration>,
}

/// Process-shared failure state: which image died first, and every
/// survivor's parting observation. Later confirmations of the *same*
/// death (other survivors' detectors firing, `ImageDown` arrivals) are
/// absorbed; a hypothetical second dead image keeps the first verdict
/// (one report per launch).
pub(crate) struct FailureHub {
    poisoned: AtomicBool,
    down: Mutex<Option<Down>>,
    panic: Mutex<Option<String>>,
    observations: Mutex<Vec<ImageFailureObservation>>,
}

impl FailureHub {
    pub(crate) fn new() -> Self {
        FailureHub {
            poisoned: AtomicBool::new(false),
            down: Mutex::new(None),
            panic: Mutex::new(None),
            observations: Mutex::new(Vec::new()),
        }
    }

    /// Registers a confirmed death; returns whether this was the first
    /// (the caller then owns the team-wide broadcast). A later report of
    /// the same peer can still refine a missing detection latency.
    pub(crate) fn post(&self, peer: usize, incarnation: u64, latency: Option<Duration>) -> bool {
        let mut down = self.down.lock();
        match down.as_mut() {
            None => {
                *down = Some(Down { peer, incarnation, latency });
                self.poisoned.store(true, Ordering::Release);
                true
            }
            Some(d) => {
                if d.peer == peer && d.latency.is_none() {
                    d.latency = latency;
                }
                false
            }
        }
    }

    /// Whether any death has been posted (cheap fast-path check).
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The registered death, if any.
    pub(crate) fn down(&self) -> Option<Down> {
        *self.down.lock()
    }

    /// Records the dead image's panic message (first wins).
    pub(crate) fn set_panic(&self, msg: String) {
        self.panic.lock().get_or_insert(msg);
    }

    pub(crate) fn take_panic(&self) -> Option<String> {
        self.panic.lock().take()
    }

    /// Adds one survivor's parting observation.
    pub(crate) fn contribute(&self, obs: ImageFailureObservation) {
        self.observations.lock().push(obs);
    }

    /// Collects the contributed observations, sorted by rank.
    pub(crate) fn take_observations(&self) -> Vec<ImageFailureObservation> {
        let mut obs = std::mem::take(&mut *self.observations.lock());
        obs.sort_by_key(|o| o.image);
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_post_wins_and_poisons() {
        let hub = FailureHub::new();
        assert!(!hub.poisoned());
        assert!(hub.post(2, 1, None));
        assert!(hub.poisoned());
        assert!(!hub.post(3, 1, Some(Duration::from_millis(1))), "second death absorbed");
        let d = hub.down().unwrap();
        assert_eq!(d.peer, 2);
    }

    #[test]
    fn late_latency_refines_the_first_post() {
        let hub = FailureHub::new();
        hub.post(1, 1, None);
        hub.post(1, 1, Some(Duration::from_millis(7)));
        assert_eq!(hub.down().unwrap().latency, Some(Duration::from_millis(7)));
    }

    #[test]
    fn report_renders_observers_and_counters() {
        let report = FailureReport {
            image: 3,
            incarnation: 1,
            detection_latency: Some(Duration::from_millis(6)),
            panic: Some("boom".into()),
            observers: vec![ImageFailureObservation {
                image: 0,
                construct: "finish",
                finishes: Vec::new(),
            }],
            crash_drops: 12,
            posthumous_drops: 2,
            heartbeats: 40,
            drained: 5,
        };
        let text = report.to_string();
        for needle in ["image 3 failed", "detected in", "boom", "observed it in finish"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
