//! Event variables (paper §II-B).
//!
//! Events manage *local operation completion* of asynchronous operations
//! and pair-wise coordination. An event cell lives in exactly one image's
//! event table but can be notified from anywhere: a local notify
//! increments the counter directly; a remote notify travels as a fabric
//! message handled by the owner's progress engine. `event_wait` polls the
//! owning image's progress until the count is positive, then consumes one
//! notification (counting semantics, so producers can run ahead).
//!
//! A predicated copy whose `preE` is not yet posted parks its
//! communication task on the cell. The next notify hands the oldest
//! parked task out instead of raising the count, and the notifying thread
//! dispatches it (in place if it holds the engine's runner slot, as a
//! copy's `srcE` notify does). No thread ever blocks on a cell.
//!
//! `event_notify` has release semantics and `event_wait` acquire semantics
//! (§III-B4); in this runtime that ordering is inherited from the lock
//! guarding each cell plus the in-order handling of fabric messages.

use std::collections::VecDeque;
use std::sync::Arc;

use caf_core::ids::{EventId, ImageId};
use caf_net::pump::Task;
use parking_lot::Mutex;

use crate::state::IdMap;

/// One event cell: a notification count, and the communication tasks of
/// predicated copies waiting for it, oldest first. While a task is parked
/// the count is 0, because a notify hands the task out instead.
#[derive(Default)]
pub struct EventCell {
    state: Mutex<CellState>,
}

#[derive(Default)]
struct CellState {
    count: u64,
    parked: VecDeque<Task>,
}

impl EventCell {
    /// Adds one notification, or hands out the oldest parked task, which
    /// the caller must dispatch on the owner's communication engine.
    #[must_use = "a handed-out task must be dispatched"]
    pub fn notify(&self) -> Option<Task> {
        let mut s = self.state.lock();
        let task = s.parked.pop_front();
        if task.is_none() {
            s.count += 1;
        }
        task
    }

    /// Consumes one notification if available.
    pub fn try_consume(&self) -> bool {
        let mut s = self.state.lock();
        if s.count > 0 {
            s.count -= 1;
            true
        } else {
            false
        }
    }

    /// Gives `task` back to run now if it consumes a notification;
    /// otherwise parks it until a [`EventCell::notify`] hands it out.
    #[must_use = "a returned task must be dispatched"]
    pub fn consume_or_park(&self, task: Task) -> Option<Task> {
        let mut s = self.state.lock();
        if s.count > 0 {
            s.count -= 1;
            return Some(task);
        }
        s.parked.push_back(task);
        None
    }

    /// Current notification count (for tests/metrics).
    pub fn count(&self) -> u64 {
        self.state.lock().count
    }
}

/// One image's table of event cells, indexed by slot. Shared (`Sync`)
/// because the owner's comm thread and the progress engine both touch it.
#[derive(Default)]
pub struct EventTable {
    slots: Mutex<IdMap<u64, Arc<EventCell>>>,
}

impl EventTable {
    /// The cell for `slot`, created on first touch. Lazy creation matters:
    /// a remote notify can arrive before the owner's allocating code runs
    /// (the same out-of-order-arrival issue `finish` frames have).
    pub fn cell(&self, slot: u64) -> Arc<EventCell> {
        Arc::clone(self.slots.lock().entry(slot).or_default())
    }

    /// Drops every cell, and with them every task still parked. A parked
    /// task holds the launch's shared state, which holds this table, so
    /// the launch calls this once its threads have joined.
    pub(crate) fn clear(&self) {
        self.slots.lock().clear();
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

    #[test]
    fn notify_then_consume() {
        let c = EventCell::default();
        assert!(!c.try_consume());
        assert!(c.notify().is_none());
        assert!(c.notify().is_none());
        assert_eq!(c.count(), 2);
        assert!(c.try_consume());
        assert!(c.try_consume());
        assert!(!c.try_consume());
    }

    #[test]
    fn notify_hands_parked_tasks_out_oldest_first() {
        let c = EventCell::default();
        let log = Arc::new(Mutex::new(Vec::new()));
        let task = |i: u32| -> Task {
            let log = Arc::clone(&log);
            Box::new(move || log.lock().push(i))
        };
        assert!(c.consume_or_park(task(1)).is_none(), "nothing posted: the task parks");
        assert!(c.consume_or_park(task(2)).is_none());
        assert!(!c.try_consume(), "parked tasks hold no notification");
        for _ in 0..2 {
            c.notify().expect("a notify hands out a parked task")();
            assert_eq!(c.count(), 0, "a handed-out task takes the notification");
        }
        assert_eq!(*log.lock(), vec![1, 2], "FIFO hand-out");
        assert!(c.notify().is_none(), "with nothing parked a notify is counted");
        assert_eq!(c.count(), 1);
        assert!(c.consume_or_park(task(3)).is_some(), "a posted notification runs it now");
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn table_creates_cells_lazily_and_stably() {
        let t = EventTable::default();
        let a = t.cell(7);
        assert!(a.notify().is_none());
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
