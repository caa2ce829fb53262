//! Per-image mutable state.
//!
//! Everything here is touched only by the image's own thread (AM handlers
//! run on it during progress), so it sits behind a `RefCell` in
//! [`crate::image::Image`]. State shared with communication threads —
//! event tables, coarray segments, completion cells — lives elsewhere
//! behind locks or atomics.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use caf_core::cofence::LocalAccess;
use caf_core::ids::{FinishId, ImageId, TeamId};
use caf_core::rng::SplitMix64;
use caf_core::termination::EpochDetector;

use crate::completion::Completion;
use crate::event::Event;
use crate::msg::{Am, CollKey};

/// A map keyed by the runtime's own ids (finishes, teams, collective and
/// event slots), hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// One multiply per word instead of SipHash: `finish_frames` is looked up
/// three times per active message. The runtime generates every key these
/// maps hold, so resistance to hash flooding buys nothing here. The
/// multiply pushes each word's bits up into the high bits the table's
/// control bytes read, and the rotation mixes the next word into them.
#[derive(Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

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

/// One image's sequence counters for one team: each numbers one kind of
/// call that every member makes at the same program point, so the
/// members agree on the `n`-th call's id.
#[derive(Default)]
pub(crate) struct TeamSeq {
    /// Next `finish` block.
    pub finish: u64,
    /// Next synchronous collective.
    pub coll: u64,
    /// Next collective allocation.
    pub alloc: u64,
    /// Next `team_split` with this team as the parent.
    pub split: u64,
    /// Next asynchronous collective.
    pub async_coll: u64,
}

/// All single-thread mutable state of one image.
pub(crate) struct ImageState {
    /// The paper's termination detector of each dynamic `finish` block
    /// this image knows of. Created lazily: a message belonging to finish
    /// `F` can arrive before this image has entered `F` (paper Fig. 5 is
    /// exactly that race), so reception must be able to materialize it.
    pub finish_frames: IdMap<FinishId, EpochDetector>,
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
    /// The sequence counters of each team this image has used.
    pub team_seq: IdMap<TeamId, TeamSeq>,
    /// Dynamic attribution context: what finish (if any) newly initiated
    /// operations belong to. The main program pushes on `finish` entry;
    /// AM handlers push the incoming message's attribution (dynamic
    /// scoping of transitively spawned work).
    pub ctx_stack: Vec<Option<FinishId>>,
    /// Buffered synchronous-collective hops that arrived before the local
    /// matching call consumed them.
    pub coll_buf: IdMap<CollKey, Box<dyn Any + Send>>,
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
    pub async_inst: IdMap<(TeamId, u64), crate::async_coll::AsyncInst>,
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
            finish_frames: IdMap::default(),
            owed_acks: Vec::new(),
            out: (0..images).map(|_| OutBuf::default()).collect(),
            run_queue: VecDeque::new(),
            team_seq: IdMap::default(),
            ctx_stack: Vec::new(),
            coll_buf: IdMap::default(),
            coevent_seq: 0,
            local_event_seq: 1 << 62,
            pending_scopes: vec![Vec::new()],
            async_inst: IdMap::default(),
            last_finish_waves: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Next number from the `counter` of `team`'s sequence counters.
    pub(crate) fn next_seq(
        &mut self,
        team: TeamId,
        counter: impl FnOnce(&mut TeamSeq) -> &mut u64,
    ) -> u64 {
        let c = counter(self.team_seq.entry(team).or_default());
        let v = *c;
        *c += 1;
        v
    }
}
