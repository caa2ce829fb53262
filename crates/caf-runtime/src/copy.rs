//! Predicated asynchronous copies (paper §II-C1):
//! `copy_async(destA[p1], srcA[p2], preE, srcE, destE)`.
//!
//! Initiation only enqueues a descriptor on the image's communication
//! engine; the source snapshot runs later, on whoever holds its runner
//! slot (the communication thread, or the image once it waits), so *local
//! data completion* is a genuinely later point than initiation — the
//! window the `cofence` micro-benchmark (Fig. 12) exploits. The data
//! plane rides ordinary active messages, so finish accounting and latency
//! modelling come for free:
//!
//! * local source → remote destination: snapshot (LDC), one data AM,
//!   completion notification back (LOC);
//! * remote source → local destination (a *get*): request AM to the
//!   owner, data AM back (LDC = LOC = data applied locally);
//! * remote source → remote destination (third party): request AM, then a
//!   data AM from source owner to destination.
//!
//! `preE` must be owned by the initiating image; `srcE`/`destE` may live
//! anywhere (they are notified from the image where the respective
//! condition becomes true, exactly as the paper allows).
//!
//! `preE` is a trigger, not a wait. Initiation consumes a posted `preE`
//! and submits the copy's task as usual; otherwise the task parks on the
//! event cell, and the notify that posts `preE` dispatches it on the
//! owner's communication engine. So initiation returns at once in both
//! comm modes, and an unposted `preE` holds up only its own copy.

use std::ops::Range;
use std::sync::Arc;

use caf_core::cofence::LocalAccess;
use caf_core::ids::ImageId;
use parking_lot::Mutex;

use crate::coarray::{CoSlice, Coarray, LocalArray};
use crate::completion::{Completion, Stage};
use crate::event::Event;
use crate::image::Image;
use crate::msg::AmFn;

/// Request-message nominal size (descriptor only, no data).
const REQ_BYTES: usize = 48;

/// The optional completion events of `copy_async`.
#[derive(Default, Clone, Copy)]
pub struct CopyEvents {
    /// Predicate: the copy may proceed only after this event is posted.
    /// Must be owned by the initiating image.
    pub pre: Option<Event>,
    /// Notified when the source has been read (source may be overwritten).
    pub src: Option<Event>,
    /// Notified when the data has been delivered to the destination.
    pub dest: Option<Event>,
}

impl CopyEvents {
    /// Implicit completion: no events; the operation is managed by
    /// `cofence`/`finish`.
    pub fn none() -> Self {
        CopyEvents::default()
    }

    /// Only a destination-delivery event.
    pub fn on_dest(ev: Event) -> Self {
        CopyEvents { dest: Some(ev), ..CopyEvents::default() }
    }

    /// Only a source-read event.
    pub fn on_src(ev: Event) -> Self {
        CopyEvents { src: Some(ev), ..CopyEvents::default() }
    }

    fn is_implicit(&self) -> bool {
        self.src.is_none() && self.dest.is_none()
    }
}

/// Handle to one asynchronous operation's completion state.
pub struct AsyncOp {
    pub(crate) completion: Arc<Completion>,
}

impl AsyncOp {
    /// Local data completion reached? (Local buffers out of play.)
    pub fn local_data_complete(&self) -> bool {
        self.completion.reached(Stage::LocalData)
    }

    /// Local operation completion reached? (All pair-wise communication
    /// involving the initiator done.)
    pub fn local_op_complete(&self) -> bool {
        self.completion.reached(Stage::LocalOp)
    }
}

/// Where arriving copy data lands: a coarray segment or a local array.
enum Sink<T> {
    Co(Coarray<T>, usize, ImageId),
    Arr(LocalArray<T>, usize),
}

impl<T: Clone + Send + 'static> Sink<T> {
    fn image(&self, me: ImageId) -> ImageId {
        match self {
            Sink::Co(_, _, img) => *img,
            Sink::Arr(..) => me,
        }
    }

    fn apply(&self, data: &[T]) {
        match self {
            Sink::Co(co, offset, img) => co.write(*img, *offset, data),
            Sink::Arr(arr, offset) => arr.write(*offset, data),
        }
    }
}

/// The data AM of a copy, run on the destination image: lands `data` in
/// `sink`, notifies `destE`, and completes the initiator `me`'s operation —
/// in place when the destination is the initiator (a self-copy, or a get:
/// the local destination is now readable, which is local data and local
/// operation completion at once), otherwise by an uncounted reply.
fn deliver<T: Clone + Send + 'static>(
    sink: Sink<T>,
    data: Vec<T>,
    dest_ev: Option<Event>,
    me: ImageId,
    comp: Arc<Completion>,
) -> AmFn {
    Box::new(move |img: &Image| {
        sink.apply(&data);
        if let Some(e) = dest_ev {
            img.notify_event_id(e.id);
        }
        if img.id() == me {
            comp.advance(Stage::LocalOp);
        } else {
            let reply: AmFn = Box::new(move |_: &Image| comp.advance(Stage::LocalOp));
            Image::send_unbuffered(&img.shared, img.id(), me, 0, None, reply);
        }
    })
}

impl Image {
    /// Blocks (with progress) until `op` is local data complete.
    pub fn wait_local_data(&self, op: &AsyncOp) {
        self.wait_until("copy", || op.completion.reached(Stage::LocalData));
    }

    /// Blocks (with progress) until `op` is local operation complete.
    pub fn wait_local_op(&self, op: &AsyncOp) {
        self.wait_until("copy", || op.completion.reached(Stage::LocalOp));
    }

    /// `copy_async(dst[p1], src[p2], …)` between coarray slices. Either
    /// endpoint may be local or remote; lengths must match.
    pub fn copy_async<T: Clone + Send + 'static>(
        &self,
        dst: CoSlice<T>,
        src: CoSlice<T>,
        ev: CopyEvents,
    ) -> AsyncOp {
        assert_eq!(dst.len(), src.len(), "copy endpoints must have equal length");
        let sink = Sink::Co(dst.coarray, dst.range.start, dst.image);
        if src.image == self.id() {
            let co = src.coarray;
            let image = src.image;
            let range = src.range;
            let nbytes = range.len() * std::mem::size_of::<T>();
            self.copy_with_local_src(move || co.read(image, range), nbytes, sink, ev)
        } else {
            self.copy_with_remote_src(src, sink, ev)
        }
    }

    /// `copy_async` from a local (non-coarray) array into a coarray slice.
    /// Panics at initiation if `src_range` does not fit in `src` or its
    /// length differs from `dst`'s.
    pub fn copy_async_from<T: Clone + Send + 'static>(
        &self,
        dst: CoSlice<T>,
        src: &LocalArray<T>,
        src_range: Range<usize>,
        ev: CopyEvents,
    ) -> AsyncOp {
        assert_eq!(dst.len(), src_range.len(), "copy endpoints must have equal length");
        let len = src.len();
        assert!(
            src_range.start <= src_range.end && src_range.end <= len,
            "copy source range {src_range:?} exceeds the source array of length {len}"
        );
        let sink = Sink::Co(dst.coarray, dst.range.start, dst.image);
        let src = src.clone();
        let nbytes = src_range.len() * std::mem::size_of::<T>();
        self.copy_with_local_src(move || src.read(src_range), nbytes, sink, ev)
    }

    /// `copy_async` from a coarray slice into a local (non-coarray) array.
    /// Panics at initiation if `src` does not fit in `dst` at `dst_offset`.
    pub fn copy_async_to<T: Clone + Send + 'static>(
        &self,
        dst: &LocalArray<T>,
        dst_offset: usize,
        src: CoSlice<T>,
        ev: CopyEvents,
    ) -> AsyncOp {
        let len = dst.len();
        assert!(
            dst_offset + src.len() <= len,
            "copy destination {dst_offset}..{} exceeds the destination array of length {len}",
            dst_offset + src.len()
        );
        let sink = Sink::Arr(dst.clone(), dst_offset);
        if src.image == self.id() {
            let co = src.coarray;
            let image = src.image;
            let range = src.range;
            let nbytes = range.len() * std::mem::size_of::<T>();
            self.copy_with_local_src(move || co.read(image, range), nbytes, sink, ev)
        } else {
            self.copy_with_remote_src(src, sink, ev)
        }
    }

    /// Submits a copy's communication task once its predicate event is
    /// triggered: now, if it has none or one is posted (consuming it),
    /// else when a later notify of `pre` hands the parked task out.
    fn submit_after(&self, pre: Option<Event>, task: impl FnOnce() + Send + 'static) {
        let Some(p) = pre else {
            return self.pump.submit(task);
        };
        assert_eq!(p.owner(), self.id(), "preE must be owned by the initiating image");
        let cell = self.shared.event_tables[self.id().index()].cell(p.id.slot);
        if let Some(task) = cell.consume_or_park(Box::new(task)) {
            self.pump.submit(task);
        }
    }

    fn copy_with_local_src<T: Clone + Send + 'static>(
        &self,
        read: impl FnOnce() -> Vec<T> + Send + 'static,
        nbytes: usize,
        sink: Sink<T>,
        ev: CopyEvents,
    ) -> AsyncOp {
        let me = self.id();
        let dst_img = sink.image(me);
        let dst_is_local = dst_img == me;
        let comp = Completion::new();
        if ev.is_implicit() {
            let access = if dst_is_local { LocalAccess::READ_WRITE } else { LocalAccess::READ };
            self.register_pending(Arc::clone(&comp), access);
        }
        let tag = self.am_tag();
        let shared = Arc::clone(&self.shared);
        let comp_task = Arc::clone(&comp);
        let (src_ev, dest_ev) = (ev.src, ev.dest);
        self.submit_after(ev.pre, move || {
            let func = deliver(sink, read(), dest_ev, me, Arc::clone(&comp_task));
            Image::send_unbuffered(&shared, me, dst_img, nbytes, tag, func);
            if !dst_is_local {
                // Local data completion: the source has been read *and*
                // the data message injected — so anything the initiator
                // sends to the same target after observing LDC (e.g. a
                // "buffer ready" notify after a cofence) orders behind
                // the data on a FIFO fabric, like GASNet's local
                // completion. For a self-copy the destination is local
                // too, so LDC waits for the write (conservative).
                comp_task.advance(Stage::LocalData);
                shared.fabric.poke(me);
            }
            if let Some(e) = src_ev {
                // The owner may be parked waiting on `e`. This thread holds
                // the runner slot, so a task parked on `e` runs here.
                let task = crate::image::notify_event_from(&shared, me, e.id);
                if e.owner() == me {
                    shared.fabric.poke(me);
                }
                if let Some(task) = task {
                    task();
                }
            }
        });
        AsyncOp { completion: comp }
    }

    fn copy_with_remote_src<T: Clone + Send + 'static>(
        &self,
        src: CoSlice<T>,
        sink: Sink<T>,
        ev: CopyEvents,
    ) -> AsyncOp {
        let me = self.id();
        let dst_img = sink.image(me);
        let dst_is_local = dst_img == me;
        let comp = Completion::new();
        if dst_is_local {
            if ev.is_implicit() {
                self.register_pending(Arc::clone(&comp), LocalAccess::WRITE);
            }
        } else {
            // Third-party copy: no local buffers, nothing for cofence.
            comp.advance(Stage::LocalData);
        }
        let tag = self.am_tag();
        let shared = Arc::clone(&self.shared);
        let comp_req = Arc::clone(&comp);
        let (src_ev, dest_ev) = (ev.src, ev.dest);
        let nbytes = src.range.len() * std::mem::size_of::<T>();
        let src_owner = src.image;
        self.submit_after(ev.pre, move || {
            let request: AmFn = Box::new(move |owner: &Image| {
                let data = owner.with_co_read(&src);
                if let Some(e) = src_ev {
                    owner.notify_event_id(e.id);
                }
                owner.send_am(dst_img, nbytes, deliver(sink, data, dest_ev, me, comp_req));
            });
            Image::send_unbuffered(&shared, me, src_owner, REQ_BYTES, tag, request);
        });
        AsyncOp { completion: comp }
    }

    fn with_co_read<T: Clone + Send + 'static>(&self, s: &CoSlice<T>) -> Vec<T> {
        s.coarray.read(s.image, s.range.clone())
    }

    /// Blocking one-sided read of a coarray slice (built on `copy_async`;
    /// waits for local operation completion). The Get-Update-Put
    /// RandomAccess variant uses this.
    pub fn get_blocking<T: Clone + Send + 'static>(&self, src: CoSlice<T>) -> Vec<T> {
        let out: Arc<Mutex<Vec<T>>> = Arc::new(Mutex::new(Vec::new()));
        let comp = Completion::new();
        let me = self.id();
        let nbytes = src.range.len() * std::mem::size_of::<T>();
        let src_owner = src.image;
        let out_req = Arc::clone(&out);
        let comp_req = Arc::clone(&comp);
        let request: AmFn = Box::new(move |owner: &Image| {
            let data = owner.with_co_read(&src);
            if owner.id() == me {
                *out_req.lock() = data;
                comp_req.advance(Stage::LocalOp);
            } else {
                let func: AmFn = Box::new(move |_img: &Image| {
                    *out_req.lock() = data;
                    comp_req.advance(Stage::LocalOp);
                });
                owner.send_am(me, nbytes, func);
            }
        });
        self.send_am(src_owner, REQ_BYTES, request);
        self.wait_until("copy", || comp.reached(Stage::LocalOp));
        Arc::try_unwrap(out)
            .map(|m| m.into_inner())
            .unwrap_or_else(|a| a.lock().clone())
    }

    /// Blocking one-sided write of `data` into a coarray slice (waits for
    /// delivery).
    pub fn put_blocking<T: Clone + Send + 'static>(&self, dst: CoSlice<T>, data: Vec<T>) {
        assert_eq!(dst.len(), data.len());
        let sink = Sink::Co(dst.coarray, dst.range.start, dst.image);
        let nbytes = data.len() * std::mem::size_of::<T>();
        let op = self.copy_with_local_src(move || data, nbytes, sink, CopyEvents::none());
        self.wait_local_op(&op);
    }

    /// Non-blocking one-sided write with implicit completion (managed by
    /// `cofence`/`finish`).
    pub fn put_async<T: Clone + Send + 'static>(&self, dst: CoSlice<T>, data: Vec<T>) -> AsyncOp {
        assert_eq!(dst.len(), data.len());
        let sink = Sink::Co(dst.coarray, dst.range.start, dst.image);
        let nbytes = data.len() * std::mem::size_of::<T>();
        self.copy_with_local_src(move || data, nbytes, sink, CopyEvents::none())
    }
}
