//! The one message shape of the threaded runtime: the active message.
//!
//! The fabric carries [`Frame`]s of [`Am`]s. An `Am` is a closure executed on
//! the target image's thread plus, when it was sent under a `finish`, its
//! [`FinishTag`]: one logical message to the finish detector. Function
//! shipping, the data plane of `copy_async`, and asynchronous collective
//! stages are all active messages — which is exactly why the paper's
//! footnote 1 can treat "message" uniformly in the termination-detection
//! algorithm. An image thread aggregates the AMs it initiates per
//! destination into one frame; a communication thread sends one at a
//! time.
//!
//! The runtime's own control messages are active messages too, sent
//! uncounted (`finish: None`), each as its own one-AM frame that skips
//! flow control (reply-class): counted delivery acks back to AM senders,
//! remote event notifies, synchronous-collective hops, completion replies
//! of copies, and image-down broadcasts. A control closure reaches shared
//! state only through its `&Image` argument and never captures the
//! launch's shared state, so a closure left undelivered in an inbox
//! cannot keep the launch alive.

use caf_core::ids::{FinishId, ImageId, TeamId};

use crate::image::Image;

/// Closure type executed at the target of an active message.
pub(crate) type AmFn = Box<dyn FnOnce(&Image) + Send>;

/// Finish attribution carried by a counted message: which dynamic finish
/// block it belongs to, the sender's wave count at send time, and the
/// sender (the destination of the delivery ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FinishTag {
    /// The finish block this message is counted under.
    pub id: FinishId,
    /// Waves the sender had entered when it sent the message (Fig. 7's
    /// epoch tag; the paper carries only its parity).
    pub wave: u32,
    /// Image that sent the message.
    pub sender: ImageId,
}

/// An active message.
pub(crate) struct Am {
    /// Code to run on the target image's thread.
    pub func: AmFn,
    /// Finish attribution, if sent under an active finish block.
    pub finish: Option<FinishTag>,
}

/// One wire frame: active messages to one destination, in initiation
/// order. The last one is held inline, so a one-AM frame (every control
/// message and every AM a communication thread sends) allocates nothing
/// beyond its closure; a `Vec` per frame cost `pc_event`, whose traffic is
/// mostly control messages, about 6 % of its throughput.
pub(crate) struct Frame {
    /// Every AM but the last (empty and unallocated in a one-AM frame).
    pub init: Vec<Am>,
    /// The last AM.
    pub last: Am,
}

/// Key identifying one buffered hop of a synchronous collective:
/// `(team, collective sequence number on that team, schedule tag,
/// sender's team rank)`. The schedule tag encodes round/direction and is
/// private to each collective's implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CollKey {
    /// Team running the collective.
    pub team: TeamId,
    /// Per-team collective call counter (SPMD-matched across members).
    pub seq: u64,
    /// Schedule position (round, direction, …) — collective-specific.
    pub tag: u32,
    /// Sender's rank within the team.
    pub from: usize,
}
