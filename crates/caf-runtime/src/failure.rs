//! Fail-stop failure handling above the fabric.
//!
//! The fabric's failure detector ([`caf_net::Fabric::poll_failures`])
//! confirms that an image has died; this module turns that confirmation
//! into a *team-wide verdict*: the first survivor to confirm posts the
//! death to the shared [`FailureHub`] and broadcasts an image-down
//! control message over the wire (riding the ack/retry reliable sublayer), every
//! survivor takes the one abort path (`crate::abort`: poison its open
//! `finish` epochs, abort its blocking construct), and the launch returns
//! [`RuntimeError::ImageFailed`](crate::RuntimeError::ImageFailed) —
//! which image died, how fast detection was, and what every survivor was
//! doing when it found out — instead of hanging on a reduction wave the
//! dead image can never join.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use caf_net::ConfirmedDown;
use parking_lot::Mutex;

/// Process-shared failure state: which image died first, and its panic
/// message if it died of one. Later confirmations of the *same*
/// death (other survivors' detectors firing, `ImageDown` arrivals) are
/// absorbed; a hypothetical second dead image keeps the first verdict
/// (one report per launch).
pub(crate) struct FailureHub {
    poisoned: AtomicBool,
    down: Mutex<Option<ConfirmedDown>>,
    panic: Mutex<Option<String>>,
}

impl FailureHub {
    pub(crate) fn new() -> Self {
        FailureHub {
            poisoned: AtomicBool::new(false),
            down: Mutex::new(None),
            panic: Mutex::new(None),
        }
    }

    /// Registers a confirmed death; returns whether this was the first
    /// (the caller then owns the team-wide broadcast). A later report of
    /// the same peer can still refine a missing detection latency.
    pub(crate) fn post(&self, peer: usize, incarnation: u64, latency: Option<Duration>) -> bool {
        let mut down = self.down.lock();
        match down.as_mut() {
            None => {
                *down = Some(ConfirmedDown { peer, incarnation, latency });
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
    pub(crate) fn down(&self) -> Option<ConfirmedDown> {
        *self.down.lock()
    }

    /// Records the dead image's panic message (first wins).
    pub(crate) fn set_panic(&self, msg: String) {
        self.panic.lock().get_or_insert(msg);
    }

    pub(crate) fn take_panic(&self) -> Option<String> {
        self.panic.lock().take()
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
}
