//! Wire messages of the threaded runtime.
//!
//! Everything above the fabric is one of these message kinds:
//!
//! * [`Msg::Batch`] — active messages to one destination, in one wire
//!   frame: an image thread's per-destination aggregation, or a single
//!   AM from a communication thread. Each [`Am`] is a closure executed on
//!   the target image's thread, carrying its `finish` attribution (id +
//!   epoch parity) and an optional completion event, and is one logical
//!   message to the finish detector. Function shipping, the data plane of
//!   `copy_async`, and asynchronous collective stages are all active
//!   messages — which is exactly why the paper's footnote 1 can treat
//!   "message" uniformly in the termination-detection algorithm.
//! * [`Msg::Ack`] — counted delivery acknowledgement back to AM senders
//!   (drives the `delivered` counter of the finish detector).
//! * [`Msg::EventNotify`] — a remote `event_notify`.
//! * [`Msg::Coll`] — synchronous-collective plumbing: one tagged hop of a
//!   barrier / reduction / broadcast / exchange schedule.

use std::any::Any;

use caf_core::ids::{EventId, FinishId, ImageId, Parity, TeamId};

use crate::image::Image;

/// Closure type executed at the target of an active message.
pub type AmFn = Box<dyn FnOnce(&Image) + Send>;

/// Finish attribution carried by a message: which dynamic finish block it
/// belongs to and the sender's epoch parity at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishTag {
    /// The finish block this message is counted under.
    pub id: FinishId,
    /// Sender's present-epoch parity (Fig. 7's odd/even message tagging).
    pub parity: Parity,
}

/// An active message.
pub struct Am {
    /// Code to run on the target image's thread.
    pub func: AmFn,
    /// Image that sent the message (destination of the delivery ack).
    pub sender: ImageId,
    /// Finish attribution, if sent under an active finish block.
    pub finish: Option<FinishTag>,
    /// Event notified when the target finishes executing the closure —
    /// "local operation completion" signalled back to whoever owns it.
    pub completion_event: Option<EventId>,
    /// Whether the closure is user code (a shipped function) as opposed to
    /// internal plumbing; user closures get their own cofence pending
    /// scope (dynamic scoping, paper Fig. 10).
    pub user: bool,
}

/// Key identifying one buffered hop of a synchronous collective:
/// `(team, collective sequence number on that team, schedule tag,
/// sender's team rank)`. The schedule tag encodes round/direction and is
/// private to each collective's implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollKey {
    /// Team running the collective.
    pub team: TeamId,
    /// Per-team collective call counter (SPMD-matched across members).
    pub seq: u64,
    /// Schedule position (round, direction, …) — collective-specific.
    pub tag: u32,
    /// Sender's rank within the team.
    pub from: usize,
}

/// One hop of a synchronous collective.
pub struct CollMsg {
    /// Buffering key.
    pub key: CollKey,
    /// Opaque payload, downcast by the matching collective call.
    pub payload: Box<dyn Any + Send>,
}

/// A runtime message.
pub enum Msg {
    /// Active messages to one destination, in initiation order: one
    /// frame, `len()` logical messages. An image thread aggregates them;
    /// a communication thread sends one at a time.
    Batch(Vec<Am>),
    /// Counted delivery acknowledgement: `count` AMs this image sent
    /// under `finish` were delivered at the acknowledging image. A
    /// receiver owes one count per (sender, finish) and flushes it when
    /// its drain ends, so one `Ack` covers every such AM of a drain.
    /// Reply-class: it bypasses flow control.
    Ack {
        /// The finish block the acknowledged messages were counted under.
        finish: FinishId,
        /// Deliveries acknowledged (at least 1).
        count: u64,
    },
    /// Remote event notification for a slot owned by the receiver.
    EventNotify {
        /// Slot in the receiver's event table.
        slot: u64,
    },
    /// Synchronous-collective hop.
    Coll(CollMsg),
    /// Advances an operation's completion cell on the initiating image
    /// (e.g. the "your copy landed" notification that backs local
    /// operation completion). Not counted by `finish` — it is bookkeeping
    /// about an operation, not an operation.
    Complete {
        /// The cell to advance.
        completion: std::sync::Arc<crate::completion::Completion>,
        /// Stage reached.
        stage: crate::completion::Stage,
    },
    /// Team-wide failure notification: the sender has confirmed that
    /// `image` fail-stopped. Rides the reliable ack/retry sublayer so
    /// every survivor learns of the death even under message loss.
    ImageDown {
        /// The dead image's rank.
        image: usize,
        /// Its incarnation at death.
        incarnation: u64,
    },
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Batch(ams) => f.debug_struct("Batch").field("len", &ams.len()).finish(),
            Msg::Ack { finish, count } => {
                f.debug_struct("Ack").field("finish", finish).field("count", count).finish()
            }
            Msg::EventNotify { slot } => f.debug_struct("EventNotify").field("slot", slot).finish(),
            Msg::Coll(c) => f.debug_struct("Coll").field("key", &c.key).finish_non_exhaustive(),
            Msg::Complete { stage, .. } => {
                f.debug_struct("Complete").field("stage", stage).finish_non_exhaustive()
            }
            Msg::ImageDown { image, incarnation } => f
                .debug_struct("ImageDown")
                .field("image", image)
                .field("incarnation", incarnation)
                .finish(),
        }
    }
}
