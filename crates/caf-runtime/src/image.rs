//! The per-image handle: the public face of the runtime.
//!
//! One [`Image`] exists per process image, owned by that image's OS
//! thread. All communication progress is *polling-based* (GASNet-style):
//! incoming active messages execute on the image's own thread whenever it
//! enters the runtime — blocking operations spin a
//! progress/park loop rather than blocking outright, so shipped
//! functions, acknowledgements, and collective hops keep flowing while
//! the image "waits".

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::cofence::LocalAccess;
use caf_core::ids::{EventId, FinishId, ImageId};
use caf_core::termination::{EpochDetector, WaveDetector};
use caf_core::topology::Team;
use caf_core::trace::TraceEvent;
use caf_net::pump::Task;
use caf_net::CommPump;

use crate::coarray::Coarray;
use crate::completion::Completion;
use crate::event::{CoEvent, Event};
use crate::msg::{Am, AmFn, FinishTag, Frame};
use crate::runtime::Shared;
use crate::state::{ImageState, PendingOp};

/// Nominal wire size of a shipped-function header (descriptor + closure
/// environment lower bound) for the cost model.
pub(crate) const SPAWN_NOMINAL_BYTES: usize = 64;
/// Nominal wire size of small control messages (acks, event notifies).
pub(crate) const CTRL_BYTES: usize = 16;
/// Byte cap of one aggregated frame of active messages.
const FRAME_CAP_BYTES: usize = 2048;
/// Longest the image parks before re-polling even without a wakeup.
const MAX_PARK: Duration = Duration::from_micros(200);

/// A process image: rank, communication engine, and runtime state.
///
/// `Image` is deliberately neither `Send` nor `Sync`: it belongs to its
/// thread. Shipped functions receive `&Image` for the *target* image when
/// they execute there.
pub struct Image {
    pub(crate) shared: Arc<Shared>,
    me: ImageId,
    world: Team,
    pub(crate) pump: CommPump,
    pub(crate) st: RefCell<ImageState>,
    /// Most AMs one outgoing frame carries ([`frame_cap_ams`]).
    frame_ams: usize,
}

/// Most AMs one aggregated frame carries: as many nominal spawns as fit
/// in [`FRAME_CAP_BYTES`] (32), but at most a sixteenth of a bounded
/// inbox's credit, and at least one. An admitted frame may overshoot the
/// credit by its size minus one, so the overshoot stays small whatever
/// `inbox_capacity` is configured.
pub(crate) fn frame_cap_ams(inbox_capacity: Option<usize>) -> usize {
    let by_bytes = FRAME_CAP_BYTES / SPAWN_NOMINAL_BYTES;
    inbox_capacity.map_or(by_bytes, |cap| by_bytes.min(cap / 16).max(1))
}

impl Image {
    /// Runs on the image's own thread, which becomes the one that parks
    /// for `me`, before the communication thread that may poke it starts.
    pub(crate) fn new(shared: Arc<Shared>, me: ImageId) -> Self {
        shared.fabric.attach(me);
        let world = Team::world(shared.n);
        let fabric = Arc::clone(&shared.fabric);
        let pump = CommPump::new(shared.cfg.comm_mode, me.index(), move || fabric.poke(me));
        let seed = shared.cfg.seed ^ (me.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let st = RefCell::new(ImageState::new(seed, shared.n));
        let frame_ams = frame_cap_ams(shared.cfg.network.inbox_capacity);
        Image { shared, me, world, pump, st, frame_ams }
    }

    /// This image's global rank.
    #[inline]
    pub fn id(&self) -> ImageId {
        self.me
    }

    /// Total number of images.
    #[inline]
    pub fn num_images(&self) -> usize {
        self.shared.n
    }

    /// `team_world`: the team of all images.
    #[inline]
    pub fn world(&self) -> Team {
        self.world.clone()
    }

    /// The image with global rank `r` (convenience constructor).
    #[inline]
    pub fn image(&self, r: usize) -> ImageId {
        assert!(r < self.shared.n, "image rank {r} out of range");
        ImageId(r)
    }

    // ------------------------------------------------------------------
    // Protocol trace capture
    // ------------------------------------------------------------------

    /// Records a protocol event into the configured trace, if any. Takes
    /// a closure so event construction is free when tracing is off.
    #[inline]
    pub(crate) fn trace(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(rec) = &self.shared.cfg.trace {
            rec.record(ev());
        }
    }

    /// A finish id in the trace's substrate-independent form.
    #[inline]
    pub(crate) fn trace_fid(fid: FinishId) -> (u64, u64) {
        (fid.team.0, fid.seq)
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    /// Drains and handles every currently due message. Returns whether
    /// any message was handled. Applications with long compute phases
    /// should call this periodically so they can serve shipped functions
    /// (exactly the attentiveness question in the paper's UTS discussion).
    ///
    /// Received AMs wait in the local run queue, which is drained before
    /// the fabric is polled again, so a frame's later messages run even
    /// while a handler of that frame blocks in a nested drain.
    ///
    /// Delivery acks are counted, not sent per message: each AM received
    /// under a finish adds one to what this image owes its sender, and
    /// the owed counts leave as one counted ack per (sender, finish)
    /// when the drain ends — before the handlers of its last frame run,
    /// and again when the drain comes back empty.
    ///
    /// Outgoing AMs are aggregated: [`Image::spawn`] and the other
    /// image-thread sends buffer per destination, and the buffers leave
    /// as one frame each when full and whenever acks are flushed, so at
    /// the latest when the drain ends, here. Every park, wave entry,
    /// `event_wait`, `cofence`, barrier and backpressure loop polls here
    /// first, so no image waits while its buffers hold a message or
    /// while it owes an ack.
    pub fn progress(&self) -> bool {
        let mut any = false;
        loop {
            let queued = self.st.borrow_mut().run_queue.pop_front();
            if let Some(am) = queued {
                self.run_am(am);
            } else if let Some((frame, more_due)) = self.shared.fabric.try_recv(self.me) {
                self.receive(frame, more_due);
            } else {
                break;
            }
            any = true;
        }
        self.flush();
        any
    }

    /// Puts on the wire, in order, this image's buffered AMs, its owed
    /// delivery acks (one uncounted AM per (sender, finish), which
    /// applies its count to the sender's detector),
    /// and the fabric's owed wire acks. This is the one place that
    /// decides that order; the fabric never flushes on its own. An ack
    /// therefore never overtakes an AM its image initiated earlier, as
    /// without aggregation: an ack can let its receiver enter a wave, and
    /// that wave should already see those AMs in flight. The last step
    /// lets each counted ack carry its link's wire ack as a piggyback on
    /// the reliable wire.
    fn flush(&self) {
        self.flush_out();
        for (sender, finish, count) in self.st.borrow_mut().owed_acks.drain(..) {
            let ack: AmFn = Box::new(move |img: &Image| {
                img.with_frame(finish, |f| (0..count).for_each(|_| f.on_delivered()));
                img.trace(|| TraceEvent::Delivered {
                    image: img.me.index(),
                    finish: Image::trace_fid(finish),
                    count,
                });
            });
            Image::send_unbuffered(&self.shared, self.me, sender, CTRL_BYTES, None, ack);
        }
        self.shared.fabric.flush_acks(self.me);
    }

    /// Polls progress until `pred` holds, parking between polls.
    /// `construct` names the blocking construct for the abort report.
    /// Each park iteration polls [`Image::check_abort`], so a confirmed
    /// image failure or a declared stall aborts the wait (and the image).
    /// Before it parks, the image runs its own queued communication tasks.
    pub(crate) fn wait_until(&self, construct: &'static str, mut pred: impl FnMut() -> bool) {
        let waiting = self.shared.watchdog.as_ref().map(|w| w.enter_wait(self.me.index()));
        loop {
            self.progress();
            if pred() {
                return;
            }
            self.check_abort(construct, waiting.as_ref());
            if !self.pump.run_queued() {
                self.shared.fabric.wait_activity(self.me, Instant::now() + MAX_PARK);
            }
        }
    }

    /// Counts the reception of a frame's counted AMs and queues all of
    /// its AMs on the run queue, the one path every received message runs
    /// through. `more_due`
    /// says whether another message is due behind the frame; if not, the
    /// drain ends here and the owed acks, the frame's included, are
    /// flushed before any of its handlers runs.
    fn receive(&self, frame: Frame, more_due: bool) {
        for am in frame.init.into_iter().chain([frame.last]) {
            // Count reception and owe the sender a delivery ack (drives
            // its `delivered` counter in the finish detector).
            if let Some(tag) = am.finish {
                self.with_frame(tag.id, |f| f.on_receive());
                self.trace(|| TraceEvent::Receive {
                    image: self.me.index(),
                    finish: Image::trace_fid(tag.id),
                });
                let owed = &mut self.st.borrow_mut().owed_acks;
                match owed.iter_mut().find(|(s, f, _)| *s == tag.sender && *f == tag.id) {
                    Some((_, _, count)) => *count += 1,
                    None => owed.push((tag.sender, tag.id, 1)),
                }
            }
            self.st.borrow_mut().run_queue.push_back(am);
        }
        if !more_due {
            self.flush();
        }
    }

    /// Runs one received AM's handler under the message's finish context.
    fn run_am(&self, am: Am) {
        // Dynamic scoping: operations initiated while this closure runs
        // belong to the *message's* finish, not to whatever the main
        // program is doing.
        self.st.borrow_mut().ctx_stack.push(am.finish.map(|t| t.id));
        (am.func)(self);
        self.st.borrow_mut().ctx_stack.pop();
        if let Some(tag) = am.finish {
            self.with_frame(tag.id, |f| f.on_complete(tag.wave));
            self.trace(|| TraceEvent::Complete {
                image: self.me.index(),
                finish: Image::trace_fid(tag.id),
                wave: tag.wave,
            });
        }
    }

    /// Runs `f` on the termination detector of finish `fid`, creating it
    /// if this is the first time this image hears of that block.
    pub(crate) fn with_frame<R>(
        &self,
        fid: FinishId,
        f: impl FnOnce(&mut EpochDetector) -> R,
    ) -> R {
        let mut st = self.st.borrow_mut();
        f(st.finish_frames.entry(fid).or_insert_with(|| EpochDetector::new(true)))
    }

    /// Current finish attribution for newly initiated operations, plus
    /// its epoch tag (counts the send). `None` outside any finish.
    pub(crate) fn am_tag(&self) -> Option<FinishTag> {
        let fid = self.st.borrow().ctx_stack.last().copied().flatten()?;
        let wave = self.with_frame(fid, |d| d.on_send());
        self.trace(|| TraceEvent::Send {
            image: self.me.index(),
            finish: Image::trace_fid(fid),
            wave,
        });
        Some(FinishTag { id: fid, wave, sender: self.me })
    }

    /// Sends one active message as its own frame, without aggregation or
    /// flow control: every control message, and every AM a communication
    /// task injects. `finish` is already counted (or `None`). Callable
    /// from communication tasks (takes no image state); a task on the
    /// communication thread cannot drain an inbox while it waits, and a
    /// control message is a reply that must never wait for it. The frame
    /// still counts in the target's inbox depth.
    pub(crate) fn send_unbuffered(
        shared: &Shared,
        from: ImageId,
        to: ImageId,
        payload_bytes: usize,
        finish: Option<FinishTag>,
        func: AmFn,
    ) {
        let frame = Frame { init: Vec::new(), last: Am { func, finish } };
        shared.fabric.send_unthrottled(from, to, payload_bytes, frame);
    }

    /// Initiates an active message from this image's thread: counts it
    /// under the current finish context (epoch tag taken now) and buffers
    /// it for `target`. The buffer leaves as one frame when it reaches
    /// [`FRAME_CAP_BYTES`] or [`frame_cap_ams`] messages, or at the end of
    /// the next progress drain. A buffered message is not yet visible
    /// anywhere, but a conforming program cannot tell: it observes
    /// completion only through `finish` or events, and every wait polls
    /// progress first.
    pub(crate) fn send_am(&self, target: ImageId, payload_bytes: usize, func: AmFn) {
        // Even a sender that never blocks must notice a confirmed failure
        // (or its own crash flag) — without this, a crashed image that
        // keeps injecting would never fail-stop.
        self.check_abort("send", None);
        let am = Am { func, finish: self.am_tag() };
        let full = {
            let mut st = self.st.borrow_mut();
            let buf = &mut st.out[target.index()];
            buf.ams.push(am);
            buf.bytes += payload_bytes;
            buf.ams.len() >= self.frame_ams || buf.bytes >= FRAME_CAP_BYTES
        };
        if full {
            self.flush_to(target);
        }
    }

    /// Flushes every non-empty outgoing buffer. A flush that waits under
    /// backpressure runs handlers, which may buffer more, so this loops
    /// until every buffer is empty.
    fn flush_out(&self) {
        loop {
            let next = self.st.borrow().out.iter().position(|b| !b.ams.is_empty());
            match next {
                Some(dest) => self.flush_to(ImageId(dest)),
                None => return,
            }
        }
    }

    /// Puts the AMs buffered for `target` on the wire as one frame,
    /// *polling while flow-controlled*. A request send that merely slept
    /// under backpressure could deadlock (every image blocked sending,
    /// nobody draining); like GASNet's blocking AM requests, a refused
    /// frame waits in [`Image::wait_until`], which keeps serving this
    /// image's inbox until the target has credit.
    fn flush_to(&self, target: ImageId) {
        let (mut frame, bytes, count) = {
            let mut st = self.st.borrow_mut();
            let buf = &mut st.out[target.index()];
            let count = buf.ams.len();
            if count == 0 {
                return;
            }
            let mut init = std::mem::replace(&mut buf.ams, Vec::with_capacity(count));
            let last = init.pop().expect("the buffer is not empty");
            (Some(Frame { init, last }), std::mem::take(&mut buf.bytes), count)
        };
        let mut sent = || {
            let msg = frame.take().expect("the frame is sent once");
            match self.shared.fabric.try_send_frame(self.me, target, bytes, count, msg) {
                Ok(()) => true,
                Err(back) => {
                    frame = Some(back);
                    false
                }
            }
        };
        if !sent() {
            self.wait_until("send", sent);
        }
    }

    // ------------------------------------------------------------------
    // Function shipping (paper §II-C2)
    // ------------------------------------------------------------------

    /// Ships `f` to execute on `target` — `spawn f(...)[target]`.
    /// Completion is implicit: it is guaranteed by the enclosing `finish`
    /// block (or observable via [`Image::spawn_notify`]).
    ///
    /// The shipped closure runs on the target image's thread with the
    /// *target's* `&Image`; captured coarray handles address the same
    /// storage everywhere (CAF passes coarray sections by reference),
    /// while ordinary captured values were copied at initiation (CAF
    /// copies array/scalar arguments).
    pub fn spawn(&self, target: ImageId, f: impl FnOnce(&Image) + Send + 'static) {
        self.spawn_sized(target, SPAWN_NOMINAL_BYTES, f);
    }

    /// [`Image::spawn`] with an explicit payload size for the network cost
    /// model (e.g. when shipping a chunk of work items).
    pub fn spawn_sized(
        &self,
        target: ImageId,
        payload_bytes: usize,
        f: impl FnOnce(&Image) + Send + 'static,
    ) {
        // Argument marshalling (the closure capture) happens right here,
        // so the spawn is local-data complete at initiation (paper
        // §III-B3: a cofence after a spawn only captures argument
        // evaluation) and never needs a cofence pending entry.
        let func: AmFn = Box::new(move |img: &Image| img.run_shipped(f));
        self.send_am(target, payload_bytes.max(SPAWN_NOMINAL_BYTES), func);
    }

    /// Ships `f` to `target` with explicit completion: `ev` is notified
    /// when the shipped function finishes executing there —
    /// `spawn(e) f(...)[target]`.
    pub fn spawn_notify(
        &self,
        target: ImageId,
        ev: Event,
        f: impl FnOnce(&Image) + Send + 'static,
    ) {
        let func: AmFn = Box::new(move |img: &Image| {
            img.run_shipped(f);
            img.notify_event_id(ev.id);
        });
        self.send_am(target, SPAWN_NOMINAL_BYTES, func);
    }

    /// Runs a shipped function in its own cofence pending scope (paper
    /// Fig. 10: cofence in a shipped function sees only operations that
    /// function launched). Dropping the scope afterwards is safe:
    /// implicit operations the function launched are still tracked by
    /// the finish detector; only their cofence visibility ends with it.
    fn run_shipped(&self, f: impl FnOnce(&Image)) {
        self.st.borrow_mut().pending_scopes.push(Vec::new());
        f(self);
        self.st.borrow_mut().pending_scopes.pop();
    }

    // ------------------------------------------------------------------
    // Events (paper §II-B)
    // ------------------------------------------------------------------

    /// Declares a purely local event (not remotely addressable by rank
    /// symmetry; remote images can still notify it if handed the handle).
    pub fn event(&self) -> Event {
        let mut st = self.st.borrow_mut();
        let slot = st.local_event_seq;
        st.local_event_seq += 1;
        Event { id: EventId { owner: self.me, slot } }
    }

    /// Collectively declares a *co-event*: the same slot on every image,
    /// addressable as `ce.on(image)` — an event coarray. Every image must
    /// call this at the same program point (SPMD-matched).
    pub fn coevent(&self) -> CoEvent {
        let mut st = self.st.borrow_mut();
        let slot = st.coevent_seq;
        st.coevent_seq += 1;
        CoEvent { slot }
    }

    /// Notifies `ev`, wherever it lives (`event_notify`). Release
    /// semantics: everything this image did before the notify is visible
    /// to a waiter that acquires it.
    pub fn event_notify(&self, ev: Event) {
        self.notify_event_id(ev.id);
    }

    /// Notifies `id` from this image's thread. A local notify needs no
    /// poke: this thread is the owner's own, running, not parked.
    pub(crate) fn notify_event_id(&self, id: EventId) {
        if let Some(task) = notify_event_from(&self.shared, self.me, id) {
            self.pump.submit(task);
        }
    }

    /// Blocks (with progress) until `ev` has been posted, consuming one
    /// notification (`event_wait`, acquire semantics). The event must be
    /// owned by this image.
    pub fn event_wait(&self, ev: Event) {
        assert_eq!(ev.owner(), self.me, "event_wait requires a locally owned event");
        let cell = self.shared.event_tables[self.me.index()].cell(ev.id.slot);
        self.wait_until("event_wait", || cell.try_consume());
    }

    /// Non-blocking `event_wait`: consumes a notification if one is
    /// pending.
    pub fn event_try(&self, ev: Event) -> bool {
        assert_eq!(ev.owner(), self.me, "event_try requires a locally owned event");
        self.progress();
        self.shared.event_tables[self.me.index()].cell(ev.id.slot).try_consume()
    }

    // ------------------------------------------------------------------
    // Coarrays
    // ------------------------------------------------------------------

    /// Collectively allocates a coarray over `team`: every member gets a
    /// `len`-element segment initialized to `init`. All members must call
    /// this at the same program point.
    pub fn coarray<T: Clone + Send + 'static>(
        &self,
        team: &Team,
        len: usize,
        init: T,
    ) -> Coarray<T> {
        let seq = self.st.borrow_mut().next_seq(team.id(), |s| &mut s.alloc);
        let mut allocs = self.shared.allocs.lock();
        let entry = allocs
            .entry((team.id(), seq))
            .or_insert_with(|| Box::new(Coarray::allocate(team.members().to_vec(), len, init)));
        entry
            .downcast_ref::<Coarray<T>>()
            .expect("collective allocation type mismatch across images")
            .clone()
    }

    // ------------------------------------------------------------------
    // Cofence pending-op tracking
    // ------------------------------------------------------------------

    /// Registers an implicitly completed operation in the innermost
    /// cofence scope.
    pub(crate) fn register_pending(&self, completion: Arc<Completion>, access: LocalAccess) {
        let mut st = self.st.borrow_mut();
        let scope = st.pending_scopes.last_mut().expect("scope stack never empty");
        scope.push(PendingOp { completion, access });
    }

    /// Waves used by this image's most recently completed finish block
    /// (the Fig. 18 metric on the threaded runtime).
    pub fn last_finish_waves(&self) -> usize {
        self.st.borrow().last_finish_waves
    }

    /// Next value from this image's deterministic RNG (seeded from the
    /// runtime seed and the rank) — reproducible randomized choices for
    /// workloads, e.g. UTS victim selection.
    pub fn rng_next(&self) -> u64 {
        self.st.borrow_mut().rng.next_u64()
    }

    /// Uniform value in `0..bound` from the image RNG.
    pub fn rng_below(&self, bound: u64) -> u64 {
        self.st.borrow_mut().rng.next_below(bound)
    }

    /// Snapshot of the fabric's traffic statistics
    /// `(messages, bytes, backpressure stalls)`, counting logical
    /// messages.
    pub fn fabric_stats(&self) -> (u64, u64, u64) {
        let t = self.shared.fabric.stats().snapshot();
        (t.messages, t.bytes, t.backpressure_stalls)
    }

    /// Final synchronization before an image returns from the SPMD main:
    /// a world barrier plus one last progress drain.
    pub(crate) fn shutdown(&self) {
        let world = self.world();
        self.barrier(&world);
        self.progress();
        // Reliable delivery: an image must not retire while it still owns
        // unacknowledged messages — its retransmission timers are pumped
        // only by its own runtime calls, so a wire drop after this point
        // would become a permanent loss and strand the receiver (e.g. a
        // dropped barrier-release hop whose sender has already returned).
        // The backlog empties on acknowledgement or, if the receiver has
        // itself retired, on retry-budget exhaustion — either way the
        // loop is bounded.
        if self.shared.fabric.faults_active() {
            self.wait_until("shutdown", || self.shared.fabric.retry_backlog(self.me) == 0);
        }
        // Clean exit: stop being monitored, so this image's post-return
        // silence is never mistaken for a crash.
        self.shared.fabric.retire(self.me);
    }
}

/// Notifies an event cell from `from`'s perspective: locally when `from`
/// owns it, otherwise by an uncounted AM that notifies it at its owner.
/// Callable from communication tasks, whose pump wakes `from` after its
/// drain, since the owner may be parked waiting on the event. Returns the task a local notify hands out, for the caller to dispatch
/// on `from`'s communication engine.
pub(crate) fn notify_event_from(shared: &Shared, from: ImageId, id: EventId) -> Option<Task> {
    if id.owner == from {
        return shared.event_tables[from.index()].cell(id.slot).notify();
    }
    let notify: AmFn = Box::new(move |img: &Image| img.notify_event_id(id));
    Image::send_unbuffered(shared, from, id.owner, CTRL_BYTES, None, notify);
    None
}

#[cfg(test)]
mod tests;
