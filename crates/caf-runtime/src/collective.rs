//! Synchronous team collectives.
//!
//! CAF 2.0 teams are isolated collective domains (§II-A purpose *c*).
//! Every collective here is SPMD-matched: each member must call the same
//! collectives on a team in the same order. Each hop is an uncounted
//! active message that files its payload in the receiver's buffer under
//! a per-team call sequence number, so a hop arriving before its
//! receiver has entered the collective waits there, and an image blocked
//! inside a collective keeps executing incoming active messages — the
//! property `finish` relies on (shipped functions must keep landing while
//! teammates sit in the termination allreduce).
//!
//! Algorithms: dissemination barrier (`O(log p)` rounds), binomial-tree
//! broadcast/reduce/gather, reduce+broadcast allreduce, direct scatter and
//! all-to-all, Hillis–Steele inclusive scan, and a sample sort.

use std::any::Any;

use caf_core::ids::{TeamId, TeamRank};
use caf_core::topology::{dissemination_peers, BinomialTree, Team};

use crate::image::Image;
use crate::msg::{AmFn, CollKey};

/// Tag bases distinguishing stages within one collective call.
mod tag {
    pub const BARRIER: u32 = 0x0100; // + round
    pub const REDUCE: u32 = 0x0200;
    pub const BCAST: u32 = 0x0300;
    pub const GATHER: u32 = 0x0400;
    pub const SCATTER: u32 = 0x0500;
    pub const ALLTOALL: u32 = 0x0600;
    pub const SCAN: u32 = 0x0700; // + round
    pub const SORT_EXCHANGE: u32 = 0x0800;
}

impl Image {
    fn my_rank(&self, team: &Team) -> TeamRank {
        team.rank_of(self.id())
            .unwrap_or_else(|| panic!("{} is not a member of {}", self.id(), team.id()))
    }

    fn next_coll_seq(&self, team: &Team) -> u64 {
        self.st.borrow_mut().next_seq(team.id(), |s| &mut s.coll)
    }

    fn coll_send<T: Any + Send>(&self, team: &Team, seq: u64, tg: u32, to: TeamRank, payload: T) {
        let key = CollKey { team: team.id(), seq, tag: tg, from: self.my_rank(team).0 };
        let bytes = std::mem::size_of::<T>() + 16;
        let hop: AmFn = Box::new(move |img: &Image| {
            let prev = img.st.borrow_mut().coll_buf.insert(key, Box::new(payload));
            debug_assert!(prev.is_none(), "duplicate collective hop {key:?}");
        });
        // Collective hops are bounded control traffic; exempting them
        // from flow control (like acks) avoids deadlocking a barrier
        // against a data-plane burst that filled the inbox.
        Image::send_unbuffered(&self.shared, self.id(), team.image_of(to), bytes, None, hop);
    }

    fn coll_take<T: Any + Send>(
        &self,
        construct: &'static str,
        team: &Team,
        seq: u64,
        tg: u32,
        from: TeamRank,
    ) -> T {
        let key = CollKey { team: team.id(), seq, tag: tg, from: from.0 };
        let mut out = None;
        self.wait_until(construct, || {
            if let Some(payload) = self.st.borrow_mut().coll_buf.remove(&key) {
                out = Some(*payload.downcast::<T>().expect("collective payload type mismatch"));
                true
            } else {
                false
            }
        });
        out.expect("wait_until returned with payload")
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Dissemination barrier over `team` (`team_barrier`). `O(log p)`
    /// rounds; all-to-all knowledge transfer guarantees no member exits
    /// before every member has entered.
    pub fn barrier(&self, team: &Team) {
        if team.size() == 1 {
            self.progress();
            return;
        }
        let seq = self.next_coll_seq(team);
        let rank = self.my_rank(team);
        for (round, (to, from)) in dissemination_peers(team.size(), rank).into_iter().enumerate() {
            self.coll_send(team, seq, tag::BARRIER + round as u32, to, ());
            self.coll_take::<()>("barrier", team, seq, tag::BARRIER + round as u32, from);
        }
    }

    // ------------------------------------------------------------------
    // Broadcast / reduce / allreduce
    // ------------------------------------------------------------------

    fn bcast_stage<T: Clone + Any + Send>(
        &self,
        team: &Team,
        seq: u64,
        root: TeamRank,
        value: Option<T>,
    ) -> T {
        let rank = self.my_rank(team);
        let tree = BinomialTree::new(team.size(), root);
        let val = if rank == root {
            value.expect("broadcast root must supply a value")
        } else {
            self.coll_take::<T>(
                "collective",
                team,
                seq,
                tag::BCAST,
                tree.parent(rank).expect("non-root"),
            )
        };
        for child in tree.children(rank) {
            self.coll_send(team, seq, tag::BCAST, child, val.clone());
        }
        val
    }

    fn reduce_stage<T: Any + Send>(
        &self,
        team: &Team,
        seq: u64,
        root: TeamRank,
        mine: T,
        op: impl Fn(T, T) -> T,
    ) -> Option<T> {
        let rank = self.my_rank(team);
        let tree = BinomialTree::new(team.size(), root);
        let mut acc = mine;
        for child in tree.children(rank) {
            let v = self.coll_take::<T>("collective", team, seq, tag::REDUCE, child);
            acc = op(acc, v);
        }
        match tree.parent(rank) {
            Some(parent) => {
                self.coll_send(team, seq, tag::REDUCE, parent, acc);
                None
            }
            None => Some(acc),
        }
    }

    /// Broadcast from `root`'s `value` to every member; returns the value
    /// everywhere (`team_broadcast`). Non-roots pass `None`.
    pub fn broadcast<T: Clone + Any + Send>(
        &self,
        team: &Team,
        root: TeamRank,
        value: Option<T>,
    ) -> T {
        let seq = self.next_coll_seq(team);
        self.bcast_stage(team, seq, root, value)
    }

    /// Binomial-tree reduction to `root` (`team_reduce`): returns
    /// `Some(result)` at the root, `None` elsewhere. `op` must be
    /// associative (and commutative, since child order is not rank order).
    pub fn reduce<T: Any + Send>(
        &self,
        team: &Team,
        root: TeamRank,
        mine: T,
        op: impl Fn(T, T) -> T,
    ) -> Option<T> {
        let seq = self.next_coll_seq(team);
        self.reduce_stage(team, seq, root, mine, op)
    }

    /// Reduction whose result every member receives (`team_allreduce`) —
    /// a binomial reduce to rank 0 followed by a binomial broadcast:
    /// `O(log p)` critical path, the cost model behind the paper's
    /// `O((L+1) log p)` finish bound.
    pub fn allreduce<T: Clone + Any + Send>(
        &self,
        team: &Team,
        mine: T,
        op: impl Fn(T, T) -> T,
    ) -> T {
        let seq = self.next_coll_seq(team);
        let root = TeamRank(0);
        let reduced = self.reduce_stage(team, seq, root, mine, op);
        self.bcast_stage(team, seq, root, reduced)
    }

    // ------------------------------------------------------------------
    // Gather / allgather / scatter / alltoall
    // ------------------------------------------------------------------

    fn gather_stage<T: Any + Send>(
        &self,
        team: &Team,
        seq: u64,
        root: TeamRank,
        mine: T,
    ) -> Option<Vec<T>> {
        // Binomial gather: each node forwards (rank, value) pairs of its
        // subtree; the root sorts by rank.
        let rank = self.my_rank(team);
        let tree = BinomialTree::new(team.size(), root);
        let mut acc: Vec<(usize, T)> = vec![(rank.0, mine)];
        for child in tree.children(rank) {
            let sub =
                self.coll_take::<Vec<(usize, T)>>("collective", team, seq, tag::GATHER, child);
            acc.extend(sub);
        }
        match tree.parent(rank) {
            Some(parent) => {
                self.coll_send(team, seq, tag::GATHER, parent, acc);
                None
            }
            None => {
                acc.sort_by_key(|&(r, _)| r);
                debug_assert_eq!(acc.len(), team.size());
                Some(acc.into_iter().map(|(_, v)| v).collect())
            }
        }
    }

    /// Gathers one value per member to `root`, in team-rank order
    /// (`team_gather`).
    pub fn gather<T: Any + Send>(&self, team: &Team, root: TeamRank, mine: T) -> Option<Vec<T>> {
        let seq = self.next_coll_seq(team);
        self.gather_stage(team, seq, root, mine)
    }

    /// Gather + broadcast: every member receives all values in rank order
    /// (`team_allgather`).
    pub fn allgather<T: Clone + Any + Send>(&self, team: &Team, mine: T) -> Vec<T> {
        let seq = self.next_coll_seq(team);
        let root = TeamRank(0);
        let gathered = self.gather_stage(team, seq, root, mine);
        self.bcast_stage(team, seq, root, gathered)
    }

    /// Scatters `values[k]` (supplied at `root`) to team rank `k`
    /// (`team_scatter`).
    pub fn scatter<T: Any + Send>(&self, team: &Team, root: TeamRank, values: Option<Vec<T>>) -> T {
        let seq = self.next_coll_seq(team);
        let rank = self.my_rank(team);
        if rank == root {
            let values = values.expect("scatter root must supply values");
            assert_eq!(values.len(), team.size(), "scatter needs one value per member");
            let mut mine = None;
            for (k, v) in values.into_iter().enumerate() {
                if k == rank.0 {
                    mine = Some(v);
                } else {
                    self.coll_send(team, seq, tag::SCATTER, TeamRank(k), v);
                }
            }
            mine.expect("own slot present")
        } else {
            self.coll_take::<T>("collective", team, seq, tag::SCATTER, root)
        }
    }

    /// Personalized all-to-all: sends `mine[k]` to rank `k`, returns what
    /// each rank sent here, in rank order (`team_alltoall`).
    pub fn alltoall<T: Any + Send>(&self, team: &Team, mine: Vec<T>) -> Vec<T> {
        assert_eq!(mine.len(), team.size(), "alltoall needs one value per member");
        let seq = self.next_coll_seq(team);
        let rank = self.my_rank(team);
        let mut own = None;
        for (k, v) in mine.into_iter().enumerate() {
            if k == rank.0 {
                own = Some(v);
            } else {
                self.coll_send(team, seq, tag::ALLTOALL, TeamRank(k), v);
            }
        }
        (0..team.size())
            .map(|k| {
                if k == rank.0 {
                    own.take().expect("own slot present")
                } else {
                    self.coll_take::<T>("collective", team, seq, tag::ALLTOALL, TeamRank(k))
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Scan
    // ------------------------------------------------------------------

    /// Inclusive prefix scan in team-rank order (`team_scan`):
    /// rank `k` receives `op(v₀, v₁, …, v_k)`. Hillis–Steele, `O(log p)`
    /// rounds. `op` must be associative.
    pub fn scan<T: Clone + Any + Send>(&self, team: &Team, mine: T, op: impl Fn(T, T) -> T) -> T {
        let seq = self.next_coll_seq(team);
        let rank = self.my_rank(team);
        let n = team.size();
        let mut acc = mine;
        let mut round = 0u32;
        let mut d = 1usize;
        while d < n {
            // Send my running prefix to rank + d; fold in the prefix from
            // rank − d (which covers the d elements ending there).
            if rank.0 + d < n {
                self.coll_send(team, seq, tag::SCAN + round, TeamRank(rank.0 + d), acc.clone());
            }
            if rank.0 >= d {
                let left = self.coll_take::<T>(
                    "collective",
                    team,
                    seq,
                    tag::SCAN + round,
                    TeamRank(rank.0 - d),
                );
                acc = op(left, acc);
            }
            d <<= 1;
            round += 1;
        }
        acc
    }

    // ------------------------------------------------------------------
    // Sort
    // ------------------------------------------------------------------

    /// Parallel sample sort (`team_sort`): each member contributes
    /// `mine`; afterwards member `k` holds a sorted run such that runs are
    /// globally ordered by team rank (rank 0 holds the smallest keys).
    /// Bucket sizes are approximately balanced by regular sampling.
    pub fn sort<T: Clone + Ord + Any + Send>(&self, team: &Team, mut mine: Vec<T>) -> Vec<T> {
        let n = team.size();
        mine.sort();
        if n == 1 {
            return mine;
        }
        // Regular samples: n−1 per member (fewer if short on data).
        let samples: Vec<T> = (1..n)
            .filter_map(|k| {
                if mine.is_empty() {
                    None
                } else {
                    Some(mine[(k * mine.len()) / n].clone())
                }
            })
            .collect();
        let mut all_samples: Vec<T> = self.allgather(team, samples).into_iter().flatten().collect();
        all_samples.sort();
        // n−1 splitters by regular selection from the gathered samples.
        let splitters: Vec<T> = (1..n)
            .filter_map(|k| {
                if all_samples.is_empty() {
                    None
                } else {
                    Some(all_samples[(k * all_samples.len()) / n].clone())
                }
            })
            .collect();
        // Partition into n buckets.
        let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        for v in mine {
            let b = splitters.partition_point(|s| *s <= v);
            buckets[b].push(v);
        }
        // Exchange buckets (uses its own tag space so the allgather above
        // and this exchange can't collide).
        let seq = self.next_coll_seq(team);
        let rank = self.my_rank(team);
        let mut own = None;
        for (k, b) in buckets.into_iter().enumerate() {
            if k == rank.0 {
                own = Some(b);
            } else {
                self.coll_send(team, seq, tag::SORT_EXCHANGE, TeamRank(k), b);
            }
        }
        let mut result = own.take().expect("own bucket");
        for k in 0..n {
            if k != rank.0 {
                result.extend(self.coll_take::<Vec<T>>(
                    "collective",
                    team,
                    seq,
                    tag::SORT_EXCHANGE,
                    TeamRank(k),
                ));
            }
        }
        result.sort();
        result
    }

    // ------------------------------------------------------------------
    // Team split
    // ------------------------------------------------------------------

    /// `team_split(parent, color, key)`: members calling with equal
    /// `color` form a new team, ranked by `key` (ties by parent rank).
    /// Collective over `parent`; every member receives its new team.
    pub fn team_split(&self, parent: &Team, color: u64, key: u64) -> Team {
        let split_seq = self.st.borrow_mut().next_seq(parent.id(), |s| &mut s.split);
        let pairs: Vec<(u64, u64)> = self.allgather(parent, (color, key));
        let groups = parent.split_by(|r| pairs[r.0]);
        let (_, members) = groups
            .into_iter()
            .find(|(c, _)| *c == color)
            .expect("caller's color group must exist");
        let id = self.team_id_for(parent.id(), split_seq, color);
        Team::new(id, members)
    }

    fn team_id_for(&self, parent: TeamId, split_seq: u64, color: u64) -> TeamId {
        let mut ids = self.shared.team_ids.lock();
        *ids.entry((parent, split_seq, color)).or_insert_with(|| {
            TeamId(self.shared.next_team.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
        })
    }
}
