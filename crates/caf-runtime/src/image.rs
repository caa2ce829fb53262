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
use caf_core::ids::{EventId, FinishId, ImageId, Parity};
use caf_core::termination::{EpochDetector, WaveDetector};
use caf_core::topology::Team;
use caf_core::trace::TraceEvent;
use caf_net::CommPump;

use crate::coarray::Coarray;
use crate::completion::Completion;
use crate::event::{CoEvent, Event};
use crate::msg::{Am, AmFn, FinishTag, Msg};
use crate::runtime::Shared;
use crate::state::{FinishFrame, ImageState, PendingOp};
use crate::watchdog::Watchdog;

/// Nominal wire size of a shipped-function header (descriptor + closure
/// environment lower bound) for the cost model.
pub(crate) const SPAWN_NOMINAL_BYTES: usize = 64;
/// Nominal wire size of small control messages (acks, event notifies).
pub(crate) const CTRL_BYTES: usize = 16;
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
}

impl Image {
    pub(crate) fn new(shared: Arc<Shared>, me: ImageId) -> Self {
        let world = Team::world(shared.n);
        let pump = CommPump::new(shared.cfg.comm_mode, me.index());
        let seed = shared.cfg.seed ^ (me.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Image { shared, me, world, pump, st: RefCell::new(ImageState::new(seed)) }
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
    /// Delivery acks are counted, not sent per message: each AM received
    /// under a finish adds one to what this image owes its sender, and
    /// the owed counts leave as one [`Msg::Ack`] per (sender, finish)
    /// when the drain ends — before the handler of its last message runs,
    /// and again when the drain comes back empty. Every park, wave entry
    /// and backpressure loop polls here first, so no image waits while it
    /// owes an ack.
    pub fn progress(&self) -> bool {
        let mut any = false;
        while let Some((m, more_due)) = self.shared.fabric.try_recv_deferred(self.me) {
            self.handle(m, more_due);
            any = true;
        }
        self.flush_acks();
        any
    }

    /// Puts this image's owed delivery acks on the wire, one counted
    /// [`Msg::Ack`] per (sender, finish), then the fabric's owed wire
    /// acks. That order lets each counted ack carry its link's wire ack
    /// as a piggyback on the reliable wire.
    fn flush_acks(&self) {
        for (sender, finish, count) in self.st.borrow_mut().owed_acks.drain(..) {
            let ack = Msg::Ack { finish, count };
            self.shared.fabric.send_unthrottled(self.me, sender, CTRL_BYTES, ack);
        }
        self.shared.fabric.flush_acks(self.me);
    }

    /// Polls progress until `pred` holds, parking between polls.
    /// `construct` names the blocking construct for the abort report.
    /// Each park iteration polls [`Image::check_abort`], so a confirmed
    /// image failure or a declared stall aborts the wait (and the image).
    pub(crate) fn wait_until(&self, construct: &'static str, mut pred: impl FnMut() -> bool) {
        let waiting = self.shared.watchdog.as_ref().map(Watchdog::enter_wait);
        loop {
            self.progress();
            if pred() {
                return;
            }
            self.check_abort(construct, waiting.as_ref());
            self.shared.fabric.wait_activity(self.me, Instant::now() + MAX_PARK);
        }
    }

    fn handle(&self, msg: Msg, more_due: bool) {
        match msg {
            Msg::Am(am) => self.handle_am(am, more_due),
            Msg::Ack { finish, count } => {
                self.with_frame(finish, |f| (0..count).for_each(|_| f.on_delivered(Parity::Even)));
                self.trace(|| TraceEvent::Delivered {
                    image: self.me.index(),
                    finish: Image::trace_fid(finish),
                    count,
                });
            }
            Msg::EventNotify { slot } => {
                self.shared.event_tables[self.me.index()].cell(slot).notify();
            }
            Msg::Coll(c) => {
                let prev = self.st.borrow_mut().coll_buf.insert(c.key, c.payload);
                debug_assert!(prev.is_none(), "duplicate collective hop {:?}", c.key);
            }
            Msg::Complete { completion, stage } => completion.advance(stage),
            Msg::ImageDown { image, incarnation } => {
                if let Some(hub) = &self.shared.failure {
                    hub.post(image, incarnation, None);
                    self.shared.fabric.mark_peer_dead(self.me, image, incarnation);
                    self.poison_open_finishes(image);
                }
            }
        }
    }

    /// Runs one AM. `more_due` says whether another message is due behind
    /// it; if not, the drain ends here and the owed acks, this one's
    /// included, are flushed before its handler runs.
    fn handle_am(&self, am: Am, more_due: bool) {
        // Count reception and owe the sender a delivery ack (drives its
        // `delivered` counter in the finish detector).
        if let Some(tag) = am.finish {
            self.with_frame(tag.id, |f| f.on_receive(tag.parity));
            self.trace(|| TraceEvent::Receive {
                image: self.me.index(),
                finish: Image::trace_fid(tag.id),
                parity: tag.parity,
            });
            let owed = &mut self.st.borrow_mut().owed_acks;
            match owed.iter_mut().find(|(s, f, _)| *s == am.sender && *f == tag.id) {
                Some((_, _, count)) => *count += 1,
                None => owed.push((am.sender, tag.id, 1)),
            }
        }
        if !more_due {
            self.flush_acks();
        }
        {
            let mut st = self.st.borrow_mut();
            // Dynamic scoping: operations initiated while this closure
            // runs belong to the *message's* finish, not to whatever the
            // main program is doing.
            st.ctx_stack.push(am.finish.map(|t| t.id));
            if am.user {
                st.pending_scopes.push(Vec::new());
            }
        }
        (am.func)(self);
        {
            let mut st = self.st.borrow_mut();
            if am.user {
                // Dropping the scope is safe: implicit operations the
                // shipped function launched are still tracked by the
                // finish detector; only their cofence visibility ends
                // with the function (Fig. 10's dynamic scoping).
                st.pending_scopes.pop();
            }
            st.ctx_stack.pop();
        }
        if let Some(ev) = am.completion_event {
            self.notify_event_id(ev);
        }
        if let Some(tag) = am.finish {
            self.with_frame(tag.id, |f| f.on_complete(tag.parity));
            self.trace(|| TraceEvent::Complete {
                image: self.me.index(),
                finish: Image::trace_fid(tag.id),
                parity: tag.parity,
            });
        }
    }

    /// Runs `f` on the finish frame for `fid`, creating it if this is the
    /// first time this image hears of that block.
    pub(crate) fn with_frame<R>(
        &self,
        fid: FinishId,
        f: impl FnOnce(&mut EpochDetector) -> R,
    ) -> R {
        let mut st = self.st.borrow_mut();
        let wq = self.shared.cfg.finish_wait_quiescence;
        let frame = st
            .finish_frames
            .entry(fid)
            .or_insert_with(|| FinishFrame { detector: EpochDetector::new(wq) });
        f(&mut frame.detector)
    }

    /// Current finish attribution for newly initiated operations, plus
    /// its epoch tag (counts the send). `None` outside any finish.
    pub(crate) fn am_tag(&self) -> Option<FinishTag> {
        let fid = self.st.borrow().ctx_stack.last().copied().flatten()?;
        let parity = self.with_frame(fid, |d| d.on_send());
        self.trace(|| TraceEvent::Send {
            image: self.me.index(),
            finish: Image::trace_fid(fid),
            parity,
        });
        Some(FinishTag { id: fid, parity })
    }

    /// Sends an active message carrying an already-counted finish tag.
    /// Callable from communication threads (takes no image state).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_prepared_am(
        shared: &Shared,
        from: ImageId,
        target: ImageId,
        payload_bytes: usize,
        tag: Option<FinishTag>,
        completion_event: Option<EventId>,
        user: bool,
        func: AmFn,
    ) {
        shared.fabric.send(
            from,
            target,
            payload_bytes,
            Msg::Am(Am { func, sender: from, finish: tag, completion_event, user }),
        );
    }

    /// Initiates an active message from this image's thread: counts it
    /// under the current finish context and injects it, *polling while
    /// flow-controlled*. A request send that merely slept under
    /// backpressure could deadlock (every image blocked sending, nobody
    /// draining); like GASNet's blocking AM requests, we keep serving our
    /// own inbox until the target has credit.
    pub(crate) fn send_am(
        &self,
        target: ImageId,
        payload_bytes: usize,
        user: bool,
        completion_event: Option<EventId>,
        func: AmFn,
    ) {
        // Even a sender that never blocks must notice a confirmed failure
        // (or its own crash flag) — without this, a crashed image that
        // keeps injecting would never fail-stop.
        self.check_abort("send", None);
        let tag = self.am_tag();
        let mut msg = Msg::Am(Am { func, sender: self.me, finish: tag, completion_event, user });
        let mut waiting = None;
        loop {
            match self.shared.fabric.try_send(self.me, target, payload_bytes, msg) {
                Ok(()) => return,
                Err(back) => {
                    msg = back;
                    if waiting.is_none() {
                        waiting = self.shared.watchdog.as_ref().map(Watchdog::enter_wait);
                    }
                    self.check_abort("send", waiting.as_ref());
                    if !self.progress() {
                        self.shared.fabric.wait_activity(self.me, Instant::now() + MAX_PARK);
                    }
                }
            }
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
        self.send_am(target, payload_bytes.max(SPAWN_NOMINAL_BYTES), true, None, Box::new(f));
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
        self.send_am(target, SPAWN_NOMINAL_BYTES, true, Some(ev.id), Box::new(f));
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

    pub(crate) fn notify_event_id(&self, id: EventId) {
        notify_event_from(&self.shared, self.me, id);
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
        let seq = ImageState::bump(&mut self.st.borrow_mut().alloc_seq, team.id());
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
    /// `(messages, bytes, backpressure stalls)`.
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
/// owns it (with a poke so a parked owner re-checks), via the fabric
/// otherwise. Callable from communication threads.
pub(crate) fn notify_event_from(shared: &Shared, from: ImageId, id: EventId) {
    if id.owner == from {
        shared.event_tables[from.index()].cell(id.slot).notify();
        shared.fabric.poke(from);
    } else {
        shared.fabric.send_unthrottled(
            from,
            id.owner,
            CTRL_BYTES,
            Msg::EventNotify { slot: id.slot },
        );
    }
}
