//! Reliable ack/retry delivery: the sublayer [`Fabric`](crate::Fabric)
//! routes remote traffic through when a fault plan is in force.
//!
//! The protocol itself — sequence windows, retire-by-[`CumAck`], backoff,
//! dedup, owed and piggybacked acks, budget exhaustion — is the sans-IO
//! [`LinkMachine`] in `caf_core::fault`, one per (image, peer) pair, which
//! the discrete-event simulator drives too. This module only supplies what
//! the threaded fabric adds around it: the `Wire` envelope, a payload
//! slot, and one mutex per image over that image's machines.
//!
//! The fabric calls `Reliable` at four points: `Reliable::inject` a
//! fresh message, `Reliable::open` an arriving frame,
//! `Reliable::owed_acks` at its flush points, and `Reliable::pump` due
//! retransmissions. Times are nanoseconds since the fabric's epoch.
//!
//! Each image also has a *protocol gate*: one atomic holding the earliest
//! time at which its protocol timers may have work (a retransmission here,
//! a heartbeat or a detector deadline in [`crate::failure`]). The fabric
//! skips the pump while the clock is before the gate and clamps parks to
//! it. The gate may be early, never late: an ack or a life sign only
//! moves a deadline later and leaves the gate alone, `Reliable::inject`
//! lowers it under the links lock that `Reliable::pump` recomputes it
//! under (a communication thread injects for its image concurrently),
//! and the fabric opens it (lowers it to 0) when a death gives the pump
//! dead letters to abandon.
//!
//! * Payloads are **not `Clone`** (active messages carry `Box<dyn FnOnce>`
//!   closures), so every reliable send allocates one shared single-use
//!   *payload slot*: the original, duplicates, and retransmits all point
//!   at it, the first fresh arrival takes the value, and sequence-number
//!   dedup filters the later copies before they touch the empty slot.
//! * The fabric has **no progress thread**: retransmission timers are
//!   pumped from the sending image's own fabric calls when its gate is
//!   due — GASNet's polling discipline — and parks are clamped to the gate.
//! * Delivery stays **unordered**: the layer restores *exactly-once*, not
//!   ordering (no reorder buffer; the runtime tolerates non-FIFO links).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use caf_core::fault::{CumAck, LinkAction, LinkMachine, RetryPolicy};
use caf_core::ids::ImageId;
use parking_lot::Mutex;

use crate::stats::FabricStats;

/// Shared single-use payload slot of one reliable message.
type Slot<M> = Arc<Mutex<Option<M>>>;

/// The on-the-wire envelope carried by inboxes.
pub(crate) enum Wire<M> {
    /// Fast path (fault layer off, or self-send): the bare message.
    Raw(M),
    /// Reliable payload transmission of the `link_seq`-th message on the
    /// `from → receiver` link. Retransmits and injected duplicates share
    /// `payload`; whoever arrives fresh takes it. `ack` piggybacks the
    /// acknowledgement `from` owed for the reverse link, if any.
    Data { from: ImageId, link_seq: u64, ack: Option<CumAck>, payload: Slot<M> },
    /// Standalone cumulative acknowledgement of the `receiver → from`
    /// link, sent back by the data's receiver at a flush point.
    Ack { from: ImageId, ack: CumAck },
    /// Unacknowledged keep-alive pumped on idle links when failure
    /// detection is engaged. Best-effort: heartbeats roll the same fault
    /// dice as data (a dropped heartbeat is how false suspects happen).
    /// `incarnation` feeds the receiver's posthumous filter.
    Heartbeat { from: ImageId, incarnation: u64 },
}

impl<M> Wire<M> {
    /// Clones protocol envelopes (for injected duplicates). `Raw` is not
    /// cloneable — raw messages never traverse the fault layer.
    pub(crate) fn clone_protocol(&self) -> Option<Wire<M>> {
        Some(match *self {
            Wire::Raw(_) => return None,
            Wire::Data { from, link_seq, ack, ref payload } => {
                Wire::Data { from, link_seq, ack, payload: Arc::clone(payload) }
            }
            Wire::Ack { from, ack } => Wire::Ack { from, ack },
            Wire::Heartbeat { from, incarnation } => Wire::Heartbeat { from, incarnation },
        })
    }
}

/// A window entry's payload handle: the slot plus its simulated size and
/// logical message count, which retransmissions are charged again.
type Handle<M> = (Slot<M>, usize, usize);

/// Retransmissions owed by [`Reliable::pump`]: destination, payload bytes,
/// logical messages, and the frame to put back on the wire.
pub(crate) type Resend<M> = Vec<(ImageId, usize, usize, Wire<M>)>;

/// The ack/retry/dedup protocol state for `n` images.
pub(crate) struct Reliable<M> {
    retry: RetryPolicy,
    /// `links[image][peer]`: `image`'s end of its link with `peer`.
    links: Vec<Mutex<Vec<LinkMachine<Handle<M>>>>>,
    /// `gate[image]`: the earliest time `image`'s protocol timers may have
    /// work; `u64::MAX` when none is armed.
    gate: Vec<AtomicU64>,
}

impl<M> Reliable<M> {
    pub(crate) fn new(n: usize, retry: RetryPolicy) -> Self {
        let machines = || Mutex::new((0..n).map(|_| LinkMachine::default()).collect());
        Reliable {
            retry,
            links: (0..n).map(|_| machines()).collect(),
            gate: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// When `image`'s protocol timers next may have work.
    pub(crate) fn gate(&self, image: ImageId) -> u64 {
        self.gate[image.index()].load(Ordering::Relaxed)
    }

    /// Moves `image`'s gate no later than `at`.
    pub(crate) fn lower_gate(&self, image: ImageId, at: u64) {
        self.gate[image.index()].fetch_min(at, Ordering::Relaxed);
    }

    /// Closes `image`'s gate for good (it crashed: its timers never run
    /// again).
    pub(crate) fn close_gate(&self, image: ImageId) {
        self.gate[image.index()].store(u64::MAX, Ordering::Relaxed);
    }

    /// Sends `msg`, a frame of `count` logical messages, as the next frame
    /// on the `from → to` link at `now` and returns its first
    /// transmission, carrying any ack `from` owes `to`.
    pub(crate) fn inject(
        &self,
        from: ImageId,
        to: ImageId,
        bytes: usize,
        count: usize,
        msg: M,
        now: u64,
    ) -> Wire<M> {
        let handle = (Arc::new(Mutex::new(Some(msg))), bytes, count);
        let mut links = self.links[from.index()].lock();
        let link = &mut links[to.index()];
        let frame = link.send(handle, now, &self.retry);
        self.lower_gate(from, link.next_due().expect("a frame was just queued"));
        drop(links);
        Wire::Data { from, link_seq: frame.seq, ack: frame.ack, payload: frame.payload.0 }
    }

    /// Protocol processing of a frame of `count` logical messages that
    /// passed the posthumous filter at `image`: an ack, standalone or
    /// piggybacked, retires what it covers, and a `Data` frame yields its
    /// payload on first sight.
    pub(crate) fn open(
        &self,
        image: ImageId,
        wire: Wire<M>,
        count: usize,
        stats: &FabricStats,
    ) -> Option<M> {
        match wire {
            Wire::Data { from, link_seq, ack, payload } => {
                let fresh = {
                    let mut links = self.links[image.index()].lock();
                    let link = &mut links[from.index()];
                    if let Some(ack) = ack {
                        link.on_ack(ack, drop);
                    }
                    link.on_data(link_seq)
                };
                if !fresh {
                    stats.note_dup_discarded();
                    return None;
                }
                let msg = payload.lock().take();
                debug_assert!(msg.is_some(), "fresh sequence with an empty payload slot");
                if msg.is_some() {
                    stats.note_delivered(count);
                }
                msg
            }
            Wire::Ack { from, ack } => {
                self.links[image.index()].lock()[from.index()].on_ack(ack, drop);
                None
            }
            Wire::Raw(_) | Wire::Heartbeat { .. } => None,
        }
    }

    /// Takes every ack `image` owes: one cumulative ack per owing link,
    /// addressed to that link's sender.
    pub(crate) fn owed_acks(&self, image: ImageId) -> Vec<(ImageId, CumAck)> {
        let mut links = self.links[image.index()].lock();
        links
            .iter_mut()
            .enumerate()
            .filter_map(|(p, l)| Some((ImageId(p), l.take_ack()?)))
            .collect()
    }

    /// Retransmits every frame owned by `image` that is due at `now`.
    /// Frames toward a peer `is_dead` reports are dead letters: they are
    /// abandoned (counted as crash drops) instead of burning the retry
    /// budget against a black hole. Returns the retransmissions plus one
    /// destination per frame whose budget ran out, and resets `image`'s
    /// gate to its earliest remaining retransmission deadline; the caller
    /// lowers it further for its other timers.
    pub(crate) fn pump(
        &self,
        image: ImageId,
        now: u64,
        is_dead: impl Fn(usize) -> bool,
        stats: &FabricStats,
    ) -> (Resend<M>, Vec<usize>) {
        let mut resend = Vec::new();
        let mut exhausted = Vec::new();
        let mut links = self.links[image.index()].lock();
        for (dest, link) in links.iter_mut().enumerate().filter(|(_, l)| l.backlog() > 0) {
            if is_dead(dest) {
                (0..link.abandon()).for_each(|_| stats.note_crash_drop());
                continue;
            }
            link.pump(now, &self.retry, |action| match action {
                LinkAction::Transmit(f) => {
                    let (payload, bytes, count) = f.payload;
                    let wire = Wire::Data { from: image, link_seq: f.seq, ack: f.ack, payload };
                    resend.push((ImageId(dest), bytes, count, wire));
                }
                LinkAction::GiveUp(_) => {
                    // The message may still be in flight; if it truly never
                    // arrives, the runtime's watchdog reports the quiet.
                    stats.note_retry_exhausted();
                    exhausted.push(dest);
                }
            });
        }
        let next = links.iter().filter_map(LinkMachine::next_due).min();
        self.gate[image.index()].store(next.unwrap_or(u64::MAX), Ordering::Relaxed);
        (resend, exhausted)
    }

    /// Unacknowledged messages `image` owns as a sender.
    pub(crate) fn backlog(&self, image: ImageId) -> usize {
        self.links[image.index()].lock().iter().map(LinkMachine::backlog).sum()
    }
}
