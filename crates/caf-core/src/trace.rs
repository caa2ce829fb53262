//! Protocol trace capture: a linearized record of the finish/cofence
//! protocol events an execution performed.
//!
//! The model checker (`caf-check`) explores schedules of *abstract*
//! protocol events; the threaded runtime (`caf-runtime`) executes the
//! same protocol for real. This module is the bridge between the two: a
//! [`TraceRecorder`] installed into a runtime captures every
//! detector-relevant event (sends, delivery acks, receptions,
//! completions, reduction-wave entries/exits, poison) in one global
//! linearization, and `caf-check` can then validate that recorded
//! execution against the same oracles it applies to explored schedules —
//! closing the loop between model and implementation.
//!
//! Capture is deliberately dumb: an append-only vector behind a mutex,
//! recording exactly what the per-image detectors were told, in the
//! order the runtime told them. The linearization order is one valid
//! interleaving of the per-image event sequences (each image's events
//! appear in its own program order because each image records its own
//! callbacks), which is precisely the form a schedule-exploration
//! checker consumes.

use std::sync::Mutex;

/// One protocol event, as seen by the termination detector of the image
/// that recorded it. `finish` identifies the dynamic finish block as
/// `(team id, per-team sequence)` so traces with nested or back-to-back
/// blocks can be validated per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `image` sent a message under the finish block, tagged `wave`.
    Send {
        /// Sending image (global rank).
        image: usize,
        /// Dynamic finish block: `(team id, per-team finish sequence)`.
        finish: (u64, u64),
        /// Wave tag the message carries: the waves its sender had entered.
        wave: u32,
    },
    /// A counted delivery acknowledgement arrived back at sender `image`:
    /// `count` of its messages were delivered.
    Delivered {
        /// Original sender (global rank).
        image: usize,
        /// Dynamic finish block.
        finish: (u64, u64),
        /// Deliveries the acknowledgement covers.
        count: u64,
    },
    /// `image` received a message.
    Receive {
        /// Receiving image (global rank).
        image: usize,
        /// Dynamic finish block.
        finish: (u64, u64),
    },
    /// A received message finished executing at `image`.
    Complete {
        /// Image where the handler completed (global rank).
        image: usize,
        /// Dynamic finish block.
        finish: (u64, u64),
        /// Wave tag the message carried.
        wave: u32,
    },
    /// `image` entered a reduction wave contributing `contribution`.
    EnterWave {
        /// Entering image (global rank).
        image: usize,
        /// Dynamic finish block.
        finish: (u64, u64),
        /// The image's element-wise contribution to the wave sum.
        contribution: [i64; 2],
    },
    /// `image` exited a reduction wave that summed to `sum`.
    ExitWave {
        /// Exiting image (global rank).
        image: usize,
        /// Dynamic finish block.
        finish: (u64, u64),
        /// The team-wide element-wise sum every member received.
        sum: [i64; 2],
        /// Whether this image's detector declared global termination.
        terminated: bool,
    },
    /// `image`'s detector was poisoned with `victim`'s death.
    Poison {
        /// Surviving image whose detector was poisoned (global rank).
        image: usize,
        /// Dynamic finish block.
        finish: (u64, u64),
        /// The fail-stopped image.
        victim: usize,
    },
}

impl TraceEvent {
    /// The image that recorded this event.
    pub fn image(&self) -> usize {
        match *self {
            TraceEvent::Send { image, .. }
            | TraceEvent::Delivered { image, .. }
            | TraceEvent::Receive { image, .. }
            | TraceEvent::Complete { image, .. }
            | TraceEvent::EnterWave { image, .. }
            | TraceEvent::ExitWave { image, .. }
            | TraceEvent::Poison { image, .. } => image,
        }
    }

    /// The dynamic finish block this event belongs to.
    pub fn finish(&self) -> (u64, u64) {
        match *self {
            TraceEvent::Send { finish, .. }
            | TraceEvent::Delivered { finish, .. }
            | TraceEvent::Receive { finish, .. }
            | TraceEvent::Complete { finish, .. }
            | TraceEvent::EnterWave { finish, .. }
            | TraceEvent::ExitWave { finish, .. }
            | TraceEvent::Poison { finish, .. } => finish,
        }
    }
}

/// An append-only, thread-safe protocol event log. Shared (via `Arc`)
/// between every image of a runtime instance and the test that installed
/// it.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Appends one event to the global linearization.
    pub fn record(&self, ev: TraceEvent) {
        self.events.lock().expect("trace mutex poisoned").push(ev);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace mutex poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the full linearization.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace mutex poisoned").clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace mutex poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let r = TraceRecorder::new();
        assert!(r.is_empty());
        r.record(TraceEvent::Send { image: 0, finish: (0, 0), wave: 0 });
        r.record(TraceEvent::Receive { image: 1, finish: (0, 0) });
        assert_eq!(r.len(), 2);
        let evs = r.snapshot();
        assert_eq!(evs[0].image(), 0);
        assert_eq!(evs[1].image(), 1);
        assert_eq!(evs[0].finish(), (0, 0));
        let taken = r.take();
        assert_eq!(taken.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn accessors_cover_every_variant() {
        let f = (3, 7);
        let evs = [
            TraceEvent::Send { image: 1, finish: f, wave: 1 },
            TraceEvent::Delivered { image: 2, finish: f, count: 3 },
            TraceEvent::Receive { image: 3, finish: f },
            TraceEvent::Complete { image: 4, finish: f, wave: 0 },
            TraceEvent::EnterWave { image: 5, finish: f, contribution: [1, 0] },
            TraceEvent::ExitWave { image: 6, finish: f, sum: [0, 0], terminated: true },
            TraceEvent::Poison { image: 7, finish: f, victim: 0 },
        ];
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.image(), i + 1);
            assert_eq!(ev.finish(), f);
        }
    }
}
