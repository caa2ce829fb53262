//! Asynchronous collectives (paper §II-C3).
//!
//! `team_broadcast_async(A(:), root, myteam, srcE, localE)` and friends:
//! collectives that overlap group coordination with computation. Each
//! member's call *registers* an instance locally and returns immediately;
//! the collective advances through active messages. Because arrivals and
//! registrations race (a fast neighbour's data can land before this image
//! even makes its call), both sides rendezvous in an [`AsyncInst`] keyed
//! by `(team, per-team async sequence)`.
//!
//! Completion points follow the paper's Fig. 4 table for broadcast:
//!
//! | role        | local data completion (`srcE`, cofence) | local operation completion (`localE`) |
//! |-------------|------------------------------------------|----------------------------------------|
//! | root        | source buffer snapshotted (may be modified) | every child acknowledged receipt |
//! | participant | data arrived (may be read)                  | every forward acknowledged |
//!
//! Global completion — data on *every* member — is what an enclosing
//! `finish` provides, since every stage message is an epoch-tagged AM.

use std::ops::Range;
use std::sync::Arc;

use caf_core::cofence::LocalAccess;
use caf_core::ids::{ImageId, TeamId, TeamRank};
use caf_core::topology::{BinomialTree, Team};

use crate::coarray::Coarray;
use crate::completion::{Completion, Stage};
use crate::copy::AsyncOp;
use crate::event::Event;
use crate::image::Image;
use crate::msg::AmFn;
use crate::state::AsyncReg;

/// Events accepted by asynchronous collectives.
#[derive(Default, Clone, Copy)]
pub struct AsyncCollEvents {
    /// `srcE`: local data completion.
    pub src: Option<Event>,
    /// `localE`: local operation completion.
    pub local_op: Option<Event>,
}

impl AsyncCollEvents {
    /// No events: implicit completion (cofence / finish).
    pub fn none() -> Self {
        AsyncCollEvents::default()
    }
}

/// Rendezvous state of one asynchronous-collective instance on one image.
#[derive(Default)]
pub struct AsyncInst {
    pub(crate) reg: Option<AsyncReg>,
    /// Local data side done (root: snapshot; participant: data arrived).
    pub(crate) data_done: bool,
    /// Outstanding receipt-acknowledgements from tree children
    /// (`None` = sends not issued yet).
    pub(crate) acks_remaining: Option<usize>,
    fired_data: bool,
    fired_op: bool,
    /// Reduction plumbing (allreduce): buffered child contributions until
    /// the local call supplies the combine context.
    pub(crate) red_buf: Vec<i64>,
    pub(crate) red_result: Option<i64>,
    pub(crate) red_sent_up: bool,
    /// The reduction result has been handed to the caller; the instance
    /// may be garbage-collected once its role completes.
    pub(crate) red_taken: bool,
}

/// Handle to an asynchronous reduction's eventual local result.
pub struct AsyncScalar {
    key: (TeamId, u64),
    /// Completion handle (LocalData = result available here).
    pub op: AsyncOp,
}

impl Image {
    fn bump_async_seq(&self, team: &Team) -> u64 {
        self.st.borrow_mut().next_seq(team.id(), |s| &mut s.async_coll)
    }

    /// Runs `f` on the instance (created on first touch), then fires any
    /// newly enabled completion stages and events *after* releasing the
    /// state borrow (event notification can send messages), and
    /// garbage-collects instances whose work is done.
    fn with_inst<R>(&self, key: (TeamId, u64), f: impl FnOnce(&mut AsyncInst) -> R) -> R {
        let mut actions: Vec<(Stage, Arc<Completion>, Option<Event>)> = Vec::new();
        let r = {
            let mut st = self.st.borrow_mut();
            let inst = st.async_inst.entry(key).or_default();
            let r = f(inst);
            if let Some(reg) = &inst.reg {
                if inst.data_done && !inst.fired_data {
                    inst.fired_data = true;
                    actions.push((Stage::LocalData, Arc::clone(&reg.completion), reg.data_event));
                }
                if inst.fired_data && inst.acks_remaining == Some(0) && !inst.fired_op {
                    inst.fired_op = true;
                    actions.push((Stage::LocalOp, Arc::clone(&reg.completion), reg.local_event));
                }
            }
            let reclaimable =
                inst.fired_data && inst.fired_op && (inst.red_result.is_none() || inst.red_taken);
            if reclaimable {
                st.async_inst.remove(&key);
            }
            r
        };
        for (stage, comp, ev) in actions {
            comp.advance(stage);
            if let Some(e) = ev {
                self.notify_event_id(e.id);
            }
        }
        r
    }

    // ------------------------------------------------------------------
    // Asynchronous broadcast
    // ------------------------------------------------------------------

    /// `team_broadcast_async(coarray(range), root, team, srcE, localE)`:
    /// asynchronously replicates `root`'s segment slice into every
    /// member's segment. Returns the descriptor handle; completion per the
    /// module table. Collective: every member must call it (SPMD-matched).
    pub fn broadcast_async<T: Clone + Send + 'static>(
        &self,
        team: &Team,
        coarray: &Coarray<T>,
        range: Range<usize>,
        root: TeamRank,
        ev: AsyncCollEvents,
    ) -> AsyncOp {
        let seq = self.bump_async_seq(team);
        let key = (team.id(), seq);
        let me = self.id();
        let my_rank = team.rank_of(me).expect("broadcast_async requires team membership");
        let comp = Completion::new();
        let implicit = ev.src.is_none() && ev.local_op.is_none();
        if implicit {
            let access = if my_rank == root { LocalAccess::READ } else { LocalAccess::WRITE };
            self.register_pending(Arc::clone(&comp), access);
        }
        let reg = AsyncReg {
            completion: Arc::clone(&comp),
            data_event: ev.src,
            local_event: ev.local_op,
        };

        if my_rank == root {
            let tree = BinomialTree::new(team.size(), root);
            let children = tree.children(root);
            // Count the sends under the current finish *now* (initiation),
            // then hand the snapshot + injection to the comm engine.
            let tags: Vec<_> = children.iter().map(|_| self.am_tag()).collect();
            self.with_inst(key, |inst| {
                inst.reg = Some(reg);
                inst.acks_remaining = Some(children.len());
            });
            let shared = Arc::clone(&self.shared);
            let co = coarray.clone();
            let team = team.clone();
            self.pump.submit(move || {
                // Snapshot: after this the root may modify its buffer
                // (Fig. 9 line 5's guarantee).
                let data = co.read(me, range.clone());
                let nbytes = data.len() * std::mem::size_of::<T>();
                let hop = BcastHop { team, coarray: co, range, root, seq, data };
                for (child, tag) in children.into_iter().zip(tags) {
                    let target = hop.team.image_of(child);
                    let hop = hop.clone();
                    let func: AmFn = Box::new(move |img: &Image| bcast_deliver(img, hop, me));
                    Image::send_unbuffered(&shared, me, target, nbytes, tag, func);
                }
                // Record local-data completion on the image thread (we
                // cannot touch image state from the comm thread): a tiny
                // uncounted self-AM flips data_done, which fires the
                // completion cell and srcE through with_inst.
                let mark: AmFn = Box::new(move |img: &Image| {
                    img.with_inst(key, |inst| inst.data_done = true);
                });
                Image::send_unbuffered(&shared, me, me, 0, None, mark);
            });
        } else {
            self.with_inst(key, |inst| {
                inst.reg = Some(reg);
            });
        }
        AsyncOp { completion: comp }
    }

    pub(crate) fn async_child_ack(&self, key: (TeamId, u64)) {
        self.with_inst(key, |inst| {
            let n = inst.acks_remaining.expect("ack before sends were issued");
            inst.acks_remaining = Some(n.saturating_sub(1));
        });
    }

    // ------------------------------------------------------------------
    // Asynchronous reduction / barrier
    // ------------------------------------------------------------------

    /// Asynchronous sum-allreduce of one `i64` per member. The result
    /// becomes available on every member (readable via
    /// [`Image::async_result`]); `srcE` fires when the local result is
    /// available, `localE` when this image's role (forwarding the result
    /// down the tree) is complete.
    pub fn allreduce_async_sum(&self, team: &Team, mine: i64, ev: AsyncCollEvents) -> AsyncScalar {
        let seq = self.bump_async_seq(team);
        let key = (team.id(), seq);
        let me = self.id();
        let my_rank = team.rank_of(me).expect("allreduce_async requires team membership");
        let comp = Completion::new();
        if ev.src.is_none() && ev.local_op.is_none() {
            self.register_pending(Arc::clone(&comp), LocalAccess::READ);
        }
        let reg = AsyncReg {
            completion: Arc::clone(&comp),
            data_event: ev.src,
            local_event: ev.local_op,
        };
        self.with_inst(key, |inst| {
            inst.reg = Some(reg);
            inst.red_buf.push(mine);
        });
        self.red_try_advance(key, team.clone(), my_rank);
        AsyncScalar { key, op: AsyncOp { completion: comp } }
    }

    /// Asynchronous barrier: an allreduce of zeros; the event/descriptor
    /// fires once every member has entered.
    pub fn barrier_async(&self, team: &Team, ev: AsyncCollEvents) -> AsyncScalar {
        self.allreduce_async_sum(team, 0, ev)
    }

    /// Blocks (with progress) until the asynchronous reduction's result is
    /// available here, and returns it.
    pub fn async_result(&self, handle: &AsyncScalar) -> i64 {
        self.wait_until("collective", || handle.op.completion.reached(Stage::LocalData));
        self.with_inst(handle.key, |inst| {
            inst.red_taken = true;
            inst.red_result.expect("LocalData implies result")
        })
    }

    /// Reduction up-phase bookkeeping: when every expected contribution
    /// (mine + children's) is present, send up or, at the root, turn
    /// around and distribute the result.
    pub(crate) fn red_try_advance(&self, key: (TeamId, u64), team: Team, my_rank: TeamRank) {
        let tree = BinomialTree::new(team.size(), TeamRank(0));
        let children = tree.children(my_rank);
        let expected = children.len() + 1;
        let ready = self.with_inst(key, |inst| {
            !inst.red_sent_up && inst.reg.is_some() && inst.red_buf.len() == expected
        });
        if !ready {
            return;
        }
        let total: i64 = self.with_inst(key, |inst| {
            inst.red_sent_up = true;
            inst.red_buf.iter().sum()
        });
        match tree.parent(my_rank) {
            Some(parent) => {
                let target = team.image_of(parent);
                let team2 = team.clone();
                self.send_am(
                    target,
                    16,
                    Box::new(move |img: &Image| {
                        img.with_inst(key, |inst| inst.red_buf.push(total));
                        let rank = team2.rank_of(img.id()).expect("tree member");
                        img.red_try_advance(key, team2, rank);
                    }),
                );
            }
            None => {
                // Root: result known; distribute down the same tree.
                red_distribute(self, key, team, my_rank, total);
            }
        }
    }
}

/// One hop of an asynchronous broadcast: the data, where it lands on
/// every member, and the tree it travels down.
#[derive(Clone)]
struct BcastHop<T> {
    team: Team,
    coarray: Coarray<T>,
    range: Range<usize>,
    root: TeamRank,
    seq: u64,
    data: Vec<T>,
}

/// Participant-side delivery of one asynchronous-broadcast hop: write the
/// segment, acknowledge the parent (its pair-wise communication with us is
/// complete), forward to our subtree, and record arrival.
fn bcast_deliver<T: Clone + Send + 'static>(img: &Image, hop: BcastHop<T>, parent: ImageId) {
    let key = (hop.team.id(), hop.seq);
    hop.coarray.write(img.id(), hop.range.start, &hop.data);
    img.send_am(parent, 0, Box::new(move |p: &Image| p.async_child_ack(key)));
    let my_rank = hop.team.rank_of(img.id()).expect("broadcast member");
    let children = BinomialTree::new(hop.team.size(), hop.root).children(my_rank);
    img.with_inst(key, |inst| {
        inst.acks_remaining = Some(children.len());
        inst.data_done = true;
    });
    let me = img.id();
    let nbytes = hop.data.len() * std::mem::size_of::<T>();
    for child in children {
        let target = hop.team.image_of(child);
        let hop = hop.clone();
        img.send_am(target, nbytes, Box::new(move |i: &Image| bcast_deliver(i, hop, me)));
    }
}

/// Root/parent-side down-phase of the asynchronous reduction: record the
/// result locally, then forward it to tree children.
fn red_distribute(img: &Image, key: (TeamId, u64), team: Team, my_rank: TeamRank, total: i64) {
    let tree = BinomialTree::new(team.size(), TeamRank(0));
    let children = tree.children(my_rank);
    img.with_inst(key, |inst| {
        inst.acks_remaining = Some(children.len());
        inst.red_result = Some(total);
        inst.data_done = true;
    });
    let me = img.id();
    for child in children {
        let target = team.image_of(child);
        let team2 = team.clone();
        img.send_am(
            target,
            16,
            Box::new(move |i: &Image| {
                let rank = team2.rank_of(i.id()).expect("tree member");
                red_distribute(i, key, team2.clone(), rank, total);
                // Acknowledge receipt to the parent for its localE.
                i.send_am(me, 0, Box::new(move |p: &Image| p.async_child_ack(key)));
            }),
        );
    }
}
