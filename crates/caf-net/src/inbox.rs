//! Timed per-image inboxes.
//!
//! Each image owns one inbox. Messages are stamped with a delivery
//! deadline when sent; [`Inbox::try_pop_due`] only surfaces a message once
//! its deadline has passed, which is how the fabric models wire latency
//! without dedicating a thread to the network. Blocked receivers park on
//! the inbox's one condvar with a timeout at the earliest pending
//! deadline. Senders never park here: flow control is a non-blocking
//! depth check ([`Inbox::len`]), and a refused image thread drains its
//! own inbox until the target has credit.
//!
//! Every entry carries a *weight*: the number of logical messages its
//! frame holds. The queue depth that flow control reads is the sum of the
//! weights, so an aggregated frame of `k` messages takes `k` credits.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

struct Timed<M> {
    deliver_at: Instant,
    seq: u64,
    weight: usize,
    msg: M,
}

impl<M> PartialEq for Timed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Timed<M> {}
impl<M> PartialOrd for Timed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Timed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap → invert for earliest-deadline-first.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

struct Inner<M> {
    heap: BinaryHeap<Timed<M>>,
    seq: u64,
    /// Sum of the queued entries' weights.
    depth: usize,
}

/// A single image's timed message queue.
pub struct Inbox<M> {
    inner: Mutex<Inner<M>>,
    arrived: Condvar,
    /// Weighted queue depth mirror, maintained under `inner`'s lock but
    /// readable without it — `len()` is on senders' flow-control fast
    /// path.
    len: AtomicUsize,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox::new()
    }
}

impl<M> Inbox<M> {
    /// Creates an empty inbox.
    pub fn new() -> Self {
        Inbox {
            inner: Mutex::new(Inner { heap: BinaryHeap::new(), seq: 0, depth: 0 }),
            arrived: Condvar::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues a frame of `weight` logical messages to surface at
    /// `deliver_at`, waking any parked receiver so it can re-evaluate its
    /// next deadline.
    pub fn push(&self, deliver_at: Instant, weight: usize, msg: M) {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        inner.heap.push(Timed { deliver_at, seq, weight, msg });
        inner.depth += weight;
        self.len.store(inner.depth, Ordering::Release);
        drop(inner);
        self.arrived.notify_all();
    }

    /// Pops the earliest message whose deadline has passed, if any, with
    /// its weight, and reports under the same lock whether another one is
    /// already due.
    pub fn try_pop_due(&self) -> Option<(M, usize, bool)> {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        if inner.heap.peek().is_some_and(|t| t.deliver_at <= now) {
            let Timed { weight, msg, .. } = inner.heap.pop().expect("peeked");
            let more_due = inner.heap.peek().is_some_and(|t| t.deliver_at <= now);
            inner.depth -= weight;
            self.len.store(inner.depth, Ordering::Release);
            Some((msg, weight, more_due))
        } else {
            None
        }
    }

    /// Wakes any receiver parked in [`Inbox::wait_activity`] without
    /// enqueueing a message. Used by communication threads after
    /// advancing an operation's completion state, so the image
    /// re-evaluates its wait predicate promptly.
    pub fn poke(&self) {
        self.arrived.notify_all();
    }

    /// Parks until *something happens*: a message arrives, [`Inbox::poke`]
    /// is called, the earliest pending delivery deadline passes, or
    /// `deadline` is reached. Callers re-check their predicate and drain
    /// due messages after this returns; spurious wakeups are harmless.
    pub fn wait_activity(&self, deadline: Instant) {
        let mut inner = self.inner.lock();
        let now = Instant::now();
        if inner.heap.peek().is_some_and(|t| t.deliver_at <= now) {
            return; // something is already due
        }
        let until = inner.heap.peek().map(|t| t.deliver_at.min(deadline)).unwrap_or(deadline);
        if until > now {
            self.arrived.wait_until(&mut inner, until);
        }
    }

    /// Discards every queued message, due or not, returning how many
    /// logical messages were dropped.
    pub fn drain(&self) -> usize {
        let mut inner = self.inner.lock();
        let n = std::mem::take(&mut inner.depth);
        inner.heap.clear();
        self.len.store(0, Ordering::Release);
        drop(inner);
        self.arrived.notify_all();
        n
    }

    /// Number of queued logical messages (due or not), each frame counted
    /// by its weight — the backpressure metric. Lock-free: reads the
    /// atomic depth mirror.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the inbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Receives the way the fabric does: pop what is due, else park in
    /// [`Inbox::wait_activity`] until something happens or `deadline`.
    fn pop_until<M>(inbox: &Inbox<M>, deadline: Instant) -> Option<M> {
        loop {
            if let Some((msg, _, _)) = inbox.try_pop_due() {
                return Some(msg);
            }
            if Instant::now() >= deadline {
                return None;
            }
            inbox.wait_activity(deadline);
        }
    }

    #[test]
    fn due_messages_pop_in_deadline_order() {
        let inbox = Inbox::new();
        let now = Instant::now();
        inbox.push(now, 1, "b");
        inbox.push(now - Duration::from_millis(1), 1, "a");
        assert_eq!(inbox.try_pop_due(), Some(("a", 1, true)), "b is due too");
        assert_eq!(inbox.try_pop_due(), Some(("b", 1, false)));
        assert_eq!(inbox.try_pop_due(), None);
    }

    #[test]
    fn future_messages_are_withheld() {
        let inbox = Inbox::new();
        inbox.push(Instant::now() + Duration::from_millis(50), 1, 42u32);
        assert!(inbox.try_pop_due().is_none());
        assert_eq!(inbox.len(), 1);
        let got = pop_until(&inbox, Instant::now() + Duration::from_millis(500));
        assert_eq!(got, Some(42));
    }

    #[test]
    fn wait_activity_times_out() {
        let inbox: Inbox<u8> = Inbox::new();
        let start = Instant::now();
        let got = pop_until(&inbox, start + Duration::from_millis(20));
        assert_eq!(got, None);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn equal_deadlines_pop_in_push_order() {
        let inbox = Inbox::new();
        let t = Instant::now();
        for i in 0..10 {
            inbox.push(t, 1, i);
        }
        for i in 0..10 {
            assert_eq!(inbox.try_pop_due(), Some((i, 1, i < 9)));
        }
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let inbox = Inbox::new();
        let t = Instant::now();
        assert!(inbox.is_empty());
        inbox.push(t, 1, 1u8);
        inbox.push(t + Duration::from_secs(60), 1, 2u8);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.try_pop_due(), Some((1, 1, false)), "the undue message is not more due");
        assert_eq!(inbox.len(), 1, "undue message still counted");
    }

    #[test]
    fn depth_is_weighted_by_frame_size() {
        let inbox = Inbox::new();
        let t = Instant::now();
        inbox.push(t, 5, 'a');
        inbox.push(t, 1, 'b');
        assert_eq!(inbox.len(), 6, "a 5-message frame takes 5 credits");
        assert_eq!(inbox.try_pop_due(), Some(('a', 5, true)));
        assert_eq!(inbox.len(), 1);
        inbox.push(t, 3, 'c');
        assert_eq!(inbox.drain(), 4, "drain reports logical messages");
        assert!(inbox.is_empty());
    }

    #[test]
    fn cross_thread_wakeup() {
        let inbox = std::sync::Arc::new(Inbox::new());
        let producer = {
            let inbox = inbox.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                inbox.push(Instant::now(), 1, 7u8);
            })
        };
        let got = pop_until(&inbox, Instant::now() + Duration::from_secs(5));
        assert_eq!(got, Some(7));
        producer.join().unwrap();
    }
}
