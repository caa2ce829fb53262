//! Event variables (paper §II-B).
//!
//! Events manage *local operation completion* of asynchronous operations
//! and pair-wise coordination. An event cell lives in exactly one image's
//! event table but can be notified from anywhere: a local notify
//! increments the counter directly; a remote notify travels as a fabric
//! message handled by the owner's progress engine. `event_wait` blocks the
//! owning image until the count is positive, then consumes one
//! notification (counting semantics, so producers can run ahead).
//!
//! `event_notify` has release semantics and `event_wait` acquire semantics
//! (§III-B4); in this runtime that ordering is inherited from the
//! lock/condvar pair guarding each cell plus the in-order handling of
//! fabric messages.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::ids::{EventId, ImageId};
use parking_lot::Mutex;

/// How often a communication thread parked on a predicate event re-checks
/// whether it should give up.
const GIVE_UP_POLL: Duration = Duration::from_millis(1);

/// One event cell: a notification counter with a condvar so threads that
/// are allowed to block outright (communication threads waiting on a
/// predicate event `preE`) can park on it. The owning image itself never
/// blocks here — it uses its progress-polling wait loop.
#[derive(Debug, Default)]
pub struct EventCell {
    count: Mutex<u64>,
    posted: parking_lot::Condvar,
}

impl EventCell {
    /// Adds one notification.
    pub fn notify(&self) {
        *self.count.lock() += 1;
        self.posted.notify_all();
    }

    /// Consumes one notification if available.
    pub fn try_consume(&self) -> bool {
        let mut c = self.count.lock();
        if *c > 0 {
            *c -= 1;
            true
        } else {
            false
        }
    }

    /// Blocks the calling thread until it consumes a notification
    /// (`true`) or `give_up` holds, polled every [`GIVE_UP_POLL`]
    /// (`false`). For communication threads only — the owning image must
    /// keep making progress and therefore polls with `try_consume`.
    pub fn consume_unless(&self, give_up: impl Fn() -> bool) -> bool {
        let mut c = self.count.lock();
        while *c == 0 {
            if give_up() {
                return false;
            }
            self.posted.wait_until(&mut c, Instant::now() + GIVE_UP_POLL);
        }
        *c -= 1;
        true
    }

    /// Current notification count (for tests/metrics).
    pub fn count(&self) -> u64 {
        *self.count.lock()
    }
}

/// One image's table of event cells, indexed by slot. Shared (`Sync`)
/// because the owner's comm thread and the progress engine both touch it.
#[derive(Debug, Default)]
pub struct EventTable {
    slots: Mutex<HashMap<u64, Arc<EventCell>>>,
}

impl EventTable {
    /// The cell for `slot`, created on first touch. Lazy creation matters:
    /// a remote notify can arrive before the owner's allocating code runs
    /// (the same out-of-order-arrival issue `finish` frames have).
    pub fn cell(&self, slot: u64) -> Arc<EventCell> {
        Arc::clone(self.slots.lock().entry(slot).or_default())
    }
}

/// A handle to an event cell usable in runtime APIs. Obtained from
/// `Image::event` (a local event) or `Image::coevent` (the same slot on
/// every image — the coarray-of-events pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Address of the cell.
    pub id: EventId,
}

impl Event {
    /// The owning image.
    pub fn owner(&self) -> ImageId {
        self.id.owner
    }
}

/// A *co-event*: one event slot allocated collectively, addressable on
/// every image of the allocating team. `on(p)` names the cell owned by
/// image `p` — CAF 2.0's "events to be accessed remotely are declared as
/// coarrays".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoEvent {
    pub(crate) slot: u64,
}

impl CoEvent {
    /// The event cell owned by `image`.
    pub fn on(&self, image: ImageId) -> Event {
        Event { id: EventId { owner: image, slot: self.slot } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn notify_then_consume() {
        let c = EventCell::default();
        assert!(!c.try_consume());
        c.notify();
        c.notify();
        assert_eq!(c.count(), 2);
        assert!(c.try_consume());
        assert!(c.try_consume());
        assert!(!c.try_consume());
    }

    #[test]
    fn consume_unless_gives_up_without_consuming() {
        let c = std::sync::Arc::new(EventCell::default());
        let polls = AtomicUsize::new(0);
        assert!(!c.consume_unless(|| polls.fetch_add(1, Ordering::Relaxed) >= 3));
        assert_eq!(polls.load(Ordering::Relaxed), 4, "re-checked while parked");
        let notifier = {
            let c = c.clone();
            std::thread::spawn(move || c.notify())
        };
        assert!(c.consume_unless(|| false), "a notification ends the wait");
        notifier.join().unwrap();
        assert_eq!(c.count(), 0);
        c.notify();
        assert!(c.consume_unless(|| true), "a posted notification wins over giving up");
    }

    #[test]
    fn table_creates_cells_lazily_and_stably() {
        let t = EventTable::default();
        let a = t.cell(7);
        a.notify();
        let b = t.cell(7);
        assert_eq!(b.count(), 1, "same underlying cell");
        assert_eq!(t.cell(8).count(), 0);
    }

    #[test]
    fn coevent_addresses_per_image_cells() {
        let ce = CoEvent { slot: 3 };
        assert_eq!(ce.on(ImageId(0)).id, EventId { owner: ImageId(0), slot: 3 });
        assert_eq!(ce.on(ImageId(5)).id, EventId { owner: ImageId(5), slot: 3 });
        assert_eq!(ce.on(ImageId(5)).owner(), ImageId(5));
    }
}
