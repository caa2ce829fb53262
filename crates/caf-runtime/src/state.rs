//! Per-image mutable state.
//!
//! Everything here is touched only by the image's own thread (AM handlers
//! run on it during progress), so it sits behind a `RefCell` in
//! [`crate::image::Image`]. State shared with communication threads —
//! event tables, coarray segments, completion cells — lives elsewhere
//! behind locks.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use caf_core::cofence::LocalAccess;
use caf_core::ids::{FinishId, ImageId, TeamId};
use caf_core::rng::SplitMix64;
use caf_core::termination::EpochDetector;

use crate::completion::Completion;
use crate::event::Event;
use crate::msg::{Am, CollKey};

/// An implicitly completed asynchronous operation awaiting local data
/// completion, tracked for `cofence`.
pub(crate) struct PendingOp {
    /// The operation's completion cell.
    pub completion: Arc<Completion>,
    /// How the operation touches this image's local memory (its cofence
    /// class).
    pub access: LocalAccess,
}

/// Registration side of an asynchronous-collective instance: the local
/// call's completion cell and its optional events (`srcE` / `localE` in
/// the paper's API).
pub(crate) struct AsyncReg {
    /// Completion cell of the local call's descriptor.
    pub completion: Arc<Completion>,
    /// Event for local data completion (`srcE` in the paper's API).
    pub data_event: Option<Event>,
    /// Event for local operation completion (`localE`).
    pub local_event: Option<Event>,
}

/// Active messages this image initiated toward one destination and has
/// not put on the wire yet: the per-destination aggregation buffer.
#[derive(Default)]
pub(crate) struct OutBuf {
    /// The buffered messages, in initiation order.
    pub ams: Vec<Am>,
    /// Their summed cost-model payload bytes.
    pub bytes: usize,
}

/// All single-thread mutable state of one image.
pub(crate) struct ImageState {
    /// The paper's termination detector of each dynamic `finish` block
    /// this image knows of. Created lazily: a message belonging to finish
    /// `F` can arrive before this image has entered `F` (paper Fig. 5 is
    /// exactly that race), so reception must be able to materialize it.
    pub finish_frames: HashMap<FinishId, EpochDetector>,
    /// Delivery acks owed per (sender, finish), not yet flushed as one
    /// counted ack each. Short: one entry per sender and finish seen
    /// since the last flush.
    pub owed_acks: Vec<(ImageId, FinishId, u64)>,
    /// Outgoing aggregation buffers, one per destination image.
    pub out: Vec<OutBuf>,
    /// Received messages of an aggregated frame not yet executed. The
    /// progress loop runs these before it polls the fabric again, so a
    /// handler blocked in a nested progress loop still lets the rest of
    /// its frame run.
    pub run_queue: VecDeque<Am>,
    /// Next finish sequence number per team.
    pub finish_seq: HashMap<TeamId, u64>,
    /// Dynamic attribution context: what finish (if any) newly initiated
    /// operations belong to. The main program pushes on `finish` entry;
    /// AM handlers push the incoming message's attribution (dynamic
    /// scoping of transitively spawned work).
    pub ctx_stack: Vec<Option<FinishId>>,
    /// Buffered synchronous-collective hops that arrived before the local
    /// matching call consumed them.
    pub coll_buf: HashMap<CollKey, Box<dyn Any + Send>>,
    /// Next collective sequence number per team (SPMD-matched).
    pub coll_seq: HashMap<TeamId, u64>,
    /// Next collective-allocation sequence number per team.
    pub alloc_seq: HashMap<TeamId, u64>,
    /// Next team-split sequence number per parent team.
    pub split_seq: HashMap<TeamId, u64>,
    /// Next asynchronous-collective sequence number per team.
    pub async_seq: HashMap<TeamId, u64>,
    /// Next co-event slot (SPMD-matched across images).
    pub coevent_seq: u64,
    /// Next purely local event slot (disjoint range from co-events).
    pub local_event_seq: u64,
    /// Cofence pending-operation scopes. `[0]` is the main program;
    /// each executing shipped function pushes its own scope (paper
    /// Fig. 10: cofence in a shipped function sees only operations that
    /// function launched).
    pub pending_scopes: Vec<Vec<PendingOp>>,
    /// Asynchronous-collective instances, keyed by `(team, async seq)`.
    /// Created by whichever side arrives first — the local call or a tree
    /// message — and reconciled as the other side shows up.
    pub async_inst: HashMap<(TeamId, u64), crate::async_coll::AsyncInst>,
    /// Reduction waves used by the most recent completed finish block
    /// (Fig. 18's metric).
    pub last_finish_waves: usize,
    /// Per-image deterministic RNG, available to runtime helpers and
    /// workloads that want reproducible choices (seeded from the runtime
    /// seed and the image rank).
    pub rng: SplitMix64,
}

impl ImageState {
    pub(crate) fn new(seed: u64, images: usize) -> Self {
        ImageState {
            finish_frames: HashMap::new(),
            owed_acks: Vec::new(),
            out: (0..images).map(|_| OutBuf::default()).collect(),
            run_queue: VecDeque::new(),
            finish_seq: HashMap::new(),
            ctx_stack: Vec::new(),
            coll_buf: HashMap::new(),
            coll_seq: HashMap::new(),
            alloc_seq: HashMap::new(),
            split_seq: HashMap::new(),
            async_seq: HashMap::new(),
            coevent_seq: 0,
            local_event_seq: 1 << 62,
            pending_scopes: vec![Vec::new()],
            async_inst: HashMap::new(),
            last_finish_waves: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Next sequence number from one of the per-team counters.
    pub(crate) fn bump(map: &mut HashMap<TeamId, u64>, team: TeamId) -> u64 {
        let c = map.entry(team).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }
}
