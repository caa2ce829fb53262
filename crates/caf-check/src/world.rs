//! The explorable protocol world: one finish block over `p` images,
//! driven transition-by-transition.
//!
//! The world is a small-step operational model of exactly the protocol
//! the threaded runtime executes: root spawns are sent before the finish
//! starts closing; under the [`Family::Aggregated`] family a sent message
//! first waits in its sender's buffer for its destination, until a
//! `Flush(image, dest)` puts the whole buffer on the wire, and an image
//! enters a wave only with empty buffers (every other family is the
//! `k = 1` case: sent means on the wire); every message is delivered,
//! acknowledged, and executed as three separately schedulable
//! transitions; an acknowledgement is *counted*, covering every message
//! the receiver owes an ack on that link up to the named one (the
//! runtime's `Ack { finish, count }`, with the per-message ack as its
//! `k = 1` case); executing a message spawns its children; each image
//! asynchronously enters a reduction wave when its detector is ready, and
//! the wave closes (the allreduce) once every live image has entered.
//! Images keep receiving and executing messages while a wave is open —
//! the interleavings this creates are where epoch-parity bugs live.
//!
//! Transition identities ([`TKey`]) are path-based and schedule-stable:
//! the `k`-th root message is `r<k>`, the `j`-th child of message `P` is
//! `P.<j>`. A schedule (a list of keys) therefore replays bit-identically
//! regardless of the order the explorer discovered it in.
//!
//! Safety, agreement, liveness, and livelock oracles are evaluated
//! *inside* [`World::step`] against ground truth the world keeps for
//! itself (message counts, poison deliveries, causal depths) — never
//! against the detector under test.

use std::collections::BTreeMap;
use std::fmt;

use caf_core::ids::Parity;
use caf_core::termination::{Contribution, WaveDecision, WaveDetector};

use crate::mutation::{CheckedDetector, Family, Mutation};
use crate::scenario::{Scenario, SpawnTree};
use crate::vc::VectorClock;

/// Buffered messages per (image, destination) at which a buffer flushes
/// under [`Mutation::FlushOnCapOnly`].
const FLUSH_CAP: usize = 2;

/// Stable identity of one schedulable transition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TKey {
    /// Deliver message `id` at its target (counts the reception).
    Deliver(String),
    /// The receiver of message `id` flushes a counted ack back to `id`'s
    /// sender. It covers the `k` messages on that link the receiver owes
    /// an ack for and received no later than `id`, in delivery order;
    /// `k = 1` when `id` is the oldest one owed (the per-message ack).
    Ack(String),
    /// Execute message `id` at its target: spawn its children, then
    /// count local completion.
    Exec(String),
    /// Image enters the open reduction wave.
    Enter(usize),
    /// Close the wave: sum live contributions, every live image exits.
    Close,
    /// Fail-stop the scenario's victim.
    Crash(usize),
    /// Deliver the victim's death notice to one survivor.
    Poison(usize),
    /// `.0` puts every message buffered for `.1` on the wire as one frame
    /// ([`Family::Aggregated`] only).
    Flush(usize, usize),
}

impl fmt::Display for TKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TKey::Deliver(id) => write!(f, "deliver {id}"),
            TKey::Ack(id) => write!(f, "ack {id}"),
            TKey::Exec(id) => write!(f, "exec {id}"),
            TKey::Enter(i) => write!(f, "enter {i}"),
            TKey::Close => write!(f, "close"),
            TKey::Crash(v) => write!(f, "crash {v}"),
            TKey::Poison(i) => write!(f, "poison {i}"),
            TKey::Flush(i, d) => write!(f, "flush {i} {d}"),
        }
    }
}

impl TKey {
    /// Parses the [`fmt::Display`] form.
    pub fn parse(s: &str) -> Result<TKey, String> {
        let (verb, rest) = s.split_once(' ').unwrap_or((s, ""));
        let arg = || -> Result<usize, String> {
            rest.trim()
                .parse()
                .map_err(|e| format!("bad transition argument in {s:?}: {e}"))
        };
        match verb {
            "deliver" => Ok(TKey::Deliver(rest.trim().to_string())),
            "ack" => Ok(TKey::Ack(rest.trim().to_string())),
            "exec" => Ok(TKey::Exec(rest.trim().to_string())),
            "enter" => Ok(TKey::Enter(arg()?)),
            "close" => Ok(TKey::Close),
            "crash" => Ok(TKey::Crash(arg()?)),
            "poison" => Ok(TKey::Poison(arg()?)),
            "flush" => {
                let (i, d) =
                    rest.trim().split_once(' ').ok_or(format!("flush needs two ranks: {s:?}"))?;
                let rank = |r: &str| r.parse().map_err(|e| format!("bad rank in {s:?}: {e}"));
                Ok(TKey::Flush(rank(i)?, rank(d)?))
            }
            _ => Err(format!("unknown transition {s:?}")),
        }
    }
}

/// One in-flight or executing message.
#[derive(Debug, Clone)]
struct Msg {
    from: usize,
    to: usize,
    tag: Parity,
    children: Vec<SpawnTree>,
    /// Still in the sender's aggregation buffer, not yet on the wire.
    buffered: bool,
    delivered: bool,
    /// Position in the world's delivery order, once delivered: a counted
    /// ack covers the owed messages of its link up to this stamp.
    delivery: u64,
    execed: bool,
    acked: bool,
    /// Sender's vector clock at send time.
    clock: VectorClock,
    /// Causal chain depth (roots are 1).
    depth: usize,
}

/// One message-level step, recorded for the differential and DES replay
/// oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgStep {
    /// `from` sent `id` to `to`.
    Send {
        /// Message id.
        id: String,
        /// Sender.
        from: usize,
        /// Target.
        to: usize,
    },
    /// `id` was delivered (reception counted) at `to`.
    Deliver {
        /// Message id.
        id: String,
        /// Target.
        to: usize,
    },
    /// `id` finished executing at `to`.
    Exec {
        /// Message id.
        id: String,
        /// Target.
        to: usize,
    },
    /// `id`'s delivery ack arrived back at `from` (a counted ack of `k`
    /// messages records `k` of these, in delivery order).
    Ack {
        /// Message id.
        id: String,
        /// Original sender.
        from: usize,
    },
}

/// Cumulative `[sent, delivered, received, completed]` of one image right
/// after a message step touched it (both parities summed) — the counter
/// history the DES replay must reproduce.
pub type CounterSnapshot = (usize, [u64; 4]);

/// How a finished world ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every live image decided `Terminated` in the same wave.
    Terminated,
    /// Some image exited a wave `Poisoned`; the finish aborted.
    Aborted,
}

/// What an oracle caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Termination declared while a message had not completed, or by an
    /// image that had been told about a crash.
    Safety,
    /// The strict epoch detector exceeded Theorem 1's `L + 1` waves.
    Liveness,
    /// Live images disagreed on a wave decision.
    Agreement,
    /// No transition enabled, yet the finish neither terminated nor
    /// aborted.
    Deadlock,
    /// Waves keep running with no message activity left to change the sum.
    Livelock,
    /// Detector families disagreed on the verdict for one trace.
    Differential,
    /// The DES replay produced a different counter history.
    DesMismatch,
    /// A cofence let a fenced pass-class cross downward.
    CofenceDown,
    /// A cofence admitted a fenced pass-class upward.
    CofenceUp,
    /// A captured runtime trace failed validation.
    Capture,
}

impl ViolationKind {
    /// Stable name used in replay files (`expect <name>`).
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Safety => "safety",
            ViolationKind::Liveness => "liveness",
            ViolationKind::Agreement => "agreement",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Livelock => "livelock",
            ViolationKind::Differential => "differential",
            ViolationKind::DesMismatch => "des-mismatch",
            ViolationKind::CofenceDown => "cofence-down",
            ViolationKind::CofenceUp => "cofence-up",
            ViolationKind::Capture => "capture",
        }
    }

    /// Parses [`ViolationKind::name`].
    pub fn parse(s: &str) -> Result<ViolationKind, String> {
        [
            ViolationKind::Safety,
            ViolationKind::Liveness,
            ViolationKind::Agreement,
            ViolationKind::Deadlock,
            ViolationKind::Livelock,
            ViolationKind::Differential,
            ViolationKind::DesMismatch,
            ViolationKind::CofenceDown,
            ViolationKind::CofenceUp,
            ViolationKind::Capture,
        ]
        .into_iter()
        .find(|k| k.name() == s)
        .ok_or_else(|| format!("unknown violation kind {s:?}"))
    }
}

/// A concrete oracle violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle fired.
    pub kind: ViolationKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// The world: one finish block, mid-schedule.
#[derive(Debug, Clone)]
pub struct World {
    n: usize,
    family: Family,
    mutation: Option<Mutation>,
    dets: Vec<CheckedDetector>,
    msgs: BTreeMap<String, Msg>,
    deliveries: u64,
    entered: Vec<bool>,
    contributions: Vec<Contribution>,
    alive: Vec<bool>,
    crash_victim: Option<usize>,
    crashed: bool,
    poison_pending: Vec<bool>,
    waves: usize,
    /// Waves after which an undecided run is pruned as unfair. The timed
    /// scheduler lifts it: its clock keeps messages progressing.
    pub(crate) wave_budget: usize,
    theorem_bound: usize,
    quiet_continue_streak: usize,
    /// Set when the wave budget was exhausted: the branch is an unfair
    /// schedule, pruned rather than reported.
    pub pruned: bool,
    /// Terminal outcome, once reached.
    pub done: Option<Outcome>,
    clocks: Vec<VectorClock>,
    max_causal_depth: usize,
    msg_trace: Vec<MsgStep>,
    history: Vec<CounterSnapshot>,
    schedule: Vec<TKey>,
}

impl World {
    /// A fresh world for `scenario`, driving `family` detectors with an
    /// optional seeded `mutation`. Root messages are sent immediately
    /// (they precede the finish's closing waves, as in the runtime).
    pub fn new(scenario: &Scenario, family: Family, mutation: Option<Mutation>) -> World {
        let n = scenario.images;
        let theorem_bound = scenario.longest_chain() + 1;
        let mut w = World {
            n,
            family,
            mutation,
            dets: (0..n).map(|_| CheckedDetector::new(family, mutation)).collect(),
            msgs: BTreeMap::new(),
            deliveries: 0,
            entered: vec![false; n],
            contributions: vec![[0, 0]; n],
            alive: vec![true; n],
            crash_victim: scenario.crash,
            crashed: false,
            poison_pending: vec![false; n],
            waves: 0,
            wave_budget: theorem_bound + 3,
            theorem_bound,
            quiet_continue_streak: 0,
            pruned: false,
            done: None,
            clocks: (0..n).map(|_| VectorClock::new(n)).collect(),
            max_causal_depth: 0,
            msg_trace: Vec::new(),
            history: Vec::new(),
            schedule: Vec::new(),
        };
        for (k, (from, tree)) in scenario.roots.iter().enumerate() {
            assert!(*from < n && tree.target < n, "scenario rank out of range");
            w.send(format!("r{k}"), *from, tree.clone(), 1);
        }
        w
    }

    /// Number of images.
    pub fn images(&self) -> usize {
        self.n
    }

    /// Waves closed so far.
    pub fn waves(&self) -> usize {
        self.waves
    }

    /// The schedule applied so far.
    pub fn schedule(&self) -> &[TKey] {
        &self.schedule
    }

    /// The ordered message steps (for the differential/DES oracles).
    pub fn msg_trace(&self) -> &[MsgStep] {
        &self.msg_trace
    }

    /// The recorded counter history (epoch families only).
    pub fn history(&self) -> &[CounterSnapshot] {
        &self.history
    }

    /// Deepest causal message chain created so far.
    pub fn max_causal_depth(&self) -> usize {
        self.max_causal_depth
    }

    /// Detector family this world drives.
    pub fn family(&self) -> Family {
        self.family
    }

    /// Whether the crash transition has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Number of children message `id` spawns when it executes (0 once
    /// it is gone).
    pub(crate) fn children(&self, id: &str) -> usize {
        self.msgs.get(id).map_or(0, |m| m.children.len())
    }

    /// Messages sent but not yet executed (ground truth, independent of
    /// the detector under test).
    pub fn outstanding(&self) -> usize {
        self.msgs.values().filter(|m| !m.execed).count()
    }

    fn send(&mut self, id: String, from: usize, tree: SpawnTree, depth: usize) {
        let tag = self.dets[from].on_send();
        self.clocks[from].tick(from);
        self.max_causal_depth = self.max_causal_depth.max(depth);
        self.msg_trace.push(MsgStep::Send { id: id.clone(), from, to: tree.target });
        self.snapshot(from);
        if !self.alive[tree.target] {
            // Posthumous send: the sender counted it, the wire drops it.
            return;
        }
        let msg = Msg {
            from,
            to: tree.target,
            tag,
            children: tree.children,
            buffered: self.family == Family::Aggregated,
            delivered: false,
            delivery: 0,
            execed: false,
            acked: false,
            clock: self.clocks[from].clone(),
            depth,
        };
        let prev = self.msgs.insert(id, msg);
        debug_assert!(prev.is_none(), "duplicate message id");
    }

    fn snapshot(&mut self, image: usize) {
        if let Some(c) = self.dets[image].epoch_counters() {
            self.history.push((image, c));
        }
    }

    /// Every transition currently enabled, in deterministic order.
    pub fn enabled(&self) -> Vec<TKey> {
        let mut candidates = Vec::new();
        for id in self.msgs.keys() {
            candidates.push(TKey::Deliver(id.clone()));
            candidates.push(TKey::Ack(id.clone()));
            candidates.push(TKey::Exec(id.clone()));
        }
        let mut flushes: Vec<TKey> = self
            .msgs
            .values()
            .filter(|m| m.buffered)
            .map(|m| TKey::Flush(m.from, m.to))
            .collect();
        flushes.sort_unstable();
        flushes.dedup();
        candidates.extend(flushes);
        candidates.extend((0..self.n).map(TKey::Enter));
        candidates.push(TKey::Close);
        candidates.extend(self.crash_victim.map(TKey::Crash));
        candidates.extend((0..self.n).map(TKey::Poison));
        candidates.retain(|k| self.is_enabled(k));
        candidates
    }

    /// Whether `key` is enabled right now.
    pub(crate) fn is_enabled(&self, key: &TKey) -> bool {
        if self.done.is_some() || self.pruned {
            return false;
        }
        let msg = |id: &String| self.msgs.get(id).filter(|m| m.delivered);
        let cap_only = self.mutation == Some(Mutation::FlushOnCapOnly);
        match key {
            TKey::Deliver(id) => self.msgs.get(id).is_some_and(|m| !m.buffered && !m.delivered),
            TKey::Ack(id) => msg(id).is_some_and(|m| !m.acked && self.alive[m.from]),
            TKey::Exec(id) => msg(id).is_some_and(|m| !m.execed),
            TKey::Enter(i) => {
                *i < self.n
                    && self.alive[*i]
                    && !self.entered[*i]
                    && self.dets[*i].ready()
                    && (cap_only || self.buffered(*i, None) == 0)
            }
            TKey::Flush(i, d) => match self.buffered(*i, Some(*d)) {
                0 => false,
                k => !cap_only || k >= FLUSH_CAP,
            },
            TKey::Close => {
                self.alive.contains(&true) && (0..self.n).all(|i| !self.alive[i] || self.entered[i])
            }
            TKey::Crash(v) => self.crash_victim == Some(*v) && !self.crashed,
            TKey::Poison(i) => *i < self.n && self.poison_pending[*i] && self.alive[*i],
        }
    }

    /// Images this transition touches; `None` means it is global (and
    /// therefore dependent with everything).
    pub fn touch(&self, key: &TKey) -> Option<Vec<usize>> {
        match key {
            TKey::Deliver(id) | TKey::Exec(id) => self.msgs.get(id).map(|m| vec![m.to]),
            TKey::Ack(id) => self.msgs.get(id).map(|m| vec![m.from]),
            TKey::Enter(i) | TKey::Poison(i) | TKey::Flush(i, _) => Some(vec![*i]),
            TKey::Close | TKey::Crash(_) => None,
        }
    }

    /// Whether two currently enabled transitions are independent (they
    /// commute and neither can disable the other): disjoint image touch
    /// sets, neither global.
    pub fn independent(&self, a: &TKey, b: &TKey) -> bool {
        match (self.touch(a), self.touch(b)) {
            (Some(ta), Some(tb)) => ta.iter().all(|i| !tb.contains(i)),
            _ => false,
        }
    }

    /// Applies one transition. Returns an oracle violation if the step
    /// exposed one. Panics if the key is not enabled (use
    /// [`World::step_if_enabled`] for guided replay).
    pub fn step(&mut self, key: &TKey) -> Result<(), Violation> {
        assert!(self.is_enabled(key), "transition {key} is not enabled");
        self.schedule.push(key.clone());
        self.apply(key)
    }

    /// Guided-replay step: applies the key if enabled, otherwise reports
    /// `Ok(false)` without changing anything.
    pub fn step_if_enabled(&mut self, key: &TKey) -> Result<bool, Violation> {
        if !self.is_enabled(key) {
            return Ok(false);
        }
        self.schedule.push(key.clone());
        self.apply(key).map(|()| true)
    }

    fn apply(&mut self, key: &TKey) -> Result<(), Violation> {
        match key {
            TKey::Deliver(id) => {
                let (to, tag, clock) = {
                    let m = &self.msgs[id];
                    (m.to, m.tag, m.clock.clone())
                };
                self.dets[to].on_receive(tag);
                self.clocks[to].join(&clock);
                self.clocks[to].tick(to);
                debug_assert!(clock.le(&self.clocks[to]), "delivery clock must dominate send");
                self.deliveries += 1;
                let m = self.msgs.get_mut(id).unwrap();
                m.delivered = true;
                m.delivery = self.deliveries;
                self.msg_trace.push(MsgStep::Deliver { id: id.clone(), to });
                self.snapshot(to);
                Ok(())
            }
            TKey::Ack(id) => {
                let (from, to, upto) = {
                    let m = &self.msgs[id];
                    (m.from, m.to, m.delivery)
                };
                let mut batch: Vec<(u64, String)> = self
                    .msgs
                    .iter()
                    .filter(|(_, m)| {
                        m.from == from
                            && m.to == to
                            && m.delivered
                            && !m.acked
                            && m.delivery <= upto
                    })
                    .map(|(mid, m)| (m.delivery, mid.clone()))
                    .collect();
                batch.sort_unstable();
                let k = batch.len();
                let counted = if self.mutation == Some(Mutation::AckMiscount) { k - 1 } else { k };
                for (j, (_, mid)) in batch.iter().enumerate() {
                    let m = self.msgs.get_mut(mid).unwrap();
                    m.acked = true;
                    let tag = m.tag;
                    if j < counted {
                        self.dets[from].on_delivered(tag);
                    }
                    self.msg_trace.push(MsgStep::Ack { id: mid.clone(), from });
                    self.snapshot(from);
                    self.retire(mid);
                }
                Ok(())
            }
            TKey::Exec(id) => {
                let (to, tag, children, depth) = {
                    let m = &self.msgs[id];
                    (m.to, m.tag, m.children.clone(), m.depth)
                };
                for (j, child) in children.into_iter().enumerate() {
                    self.send(format!("{id}.{j}"), to, child, depth + 1);
                }
                self.dets[to].on_complete(tag);
                self.msgs.get_mut(id).unwrap().execed = true;
                self.msg_trace.push(MsgStep::Exec { id: id.clone(), to });
                self.snapshot(to);
                self.retire(id);
                Ok(())
            }
            TKey::Enter(i) => {
                let c = self.dets[*i].enter_wave();
                self.entered[*i] = true;
                self.contributions[*i] = c;
                Ok(())
            }
            TKey::Close => self.close_wave(),
            TKey::Crash(v) => {
                self.crash(*v);
                Ok(())
            }
            TKey::Poison(i) => {
                let v = self.crash_victim.expect("poison without a crash");
                self.dets[*i].poison(v);
                self.poison_pending[*i] = false;
                Ok(())
            }
            TKey::Flush(i, d) => {
                for m in self.msgs.values_mut().filter(|m| m.from == *i && m.to == *d) {
                    m.buffered = false;
                }
                Ok(())
            }
        }
    }

    /// Messages `image` holds in its aggregation buffer for `dest`, or
    /// for every destination when `dest` is `None`.
    fn buffered(&self, image: usize, dest: Option<usize>) -> usize {
        let hit = |m: &&Msg| m.buffered && m.from == image && dest.is_none_or(|d| m.to == d);
        self.msgs.values().filter(hit).count()
    }

    fn retire(&mut self, id: &str) {
        let m = &self.msgs[id];
        if m.execed && m.acked {
            self.msgs.remove(id);
        }
    }

    fn crash(&mut self, v: usize) {
        self.alive[v] = false;
        self.crashed = true;
        // Fail-stop: in-flight traffic to or from the victim is gone;
        // messages already delivered elsewhere still execute there, and
        // their acks-to-the-dead are silently discarded.
        self.msgs.retain(|_, m| {
            if m.to == v {
                return false;
            }
            if m.from == v && !m.delivered {
                return false;
            }
            true
        });
        let ids: Vec<String> = self
            .msgs
            .iter()
            .filter(|(_, m)| m.from == v && !m.acked)
            .map(|(id, _)| id.clone())
            .collect();
        for id in ids {
            self.msgs.get_mut(&id).unwrap().acked = true;
            self.retire(&id);
        }
        for i in 0..self.n {
            self.poison_pending[i] = self.alive[i] && i != v;
        }
    }

    fn close_wave(&mut self) -> Result<(), Violation> {
        let mut sum: Contribution = [0, 0];
        for i in 0..self.n {
            if self.alive[i] {
                sum[0] += self.contributions[i][0];
                sum[1] += self.contributions[i][1];
            }
        }
        self.waves += 1;
        let mut decisions: Vec<(usize, WaveDecision)> = Vec::new();
        for i in 0..self.n {
            if self.alive[i] {
                decisions.push((i, self.dets[i].exit_wave(sum)));
            }
            self.entered[i] = false;
            self.contributions[i] = [0, 0];
        }

        // --- Oracles, against the world's own ground truth. ---
        let outstanding = self.outstanding();
        let clean: Vec<&(usize, WaveDecision)> =
            decisions.iter().filter(|(_, d)| *d != WaveDecision::Poisoned).collect();

        // Agreement: every non-poisoned live image must reach the same
        // decision (they all saw the same sum).
        if let Some(((i0, d0), rest)) = clean.split_first() {
            for (i, d) in rest {
                if d != d0 {
                    return Err(Violation {
                        kind: ViolationKind::Agreement,
                        detail: format!(
                            "wave {}: image {i0} decided {d0:?} but image {i} decided {d:?} \
                             (sum {sum:?})",
                            self.waves
                        ),
                    });
                }
            }
        }

        for (i, d) in &decisions {
            if *d != WaveDecision::Terminated {
                continue;
            }
            if let Some(v) = self.dets[*i].poison_seen() {
                return Err(Violation {
                    kind: ViolationKind::Safety,
                    detail: format!(
                        "wave {}: image {i} declared clean termination after being told \
                         image {v} fail-stopped",
                        self.waves
                    ),
                });
            }
            // Crash runs legitimately race: a survivor not yet told about
            // the crash can see a zero sum (the victim's contribution
            // vanished from the surviving team's reduction) while the
            // victim's delivered-but-unexecuted work is still pending.
            // The outstanding-message invariant is therefore a crash-free
            // oracle; crash correctness is covered by the poison check
            // above and the abort/deadlock oracles.
            if !self.crashed && outstanding > 0 {
                let pending: Vec<&String> =
                    self.msgs.iter().filter(|(_, m)| !m.execed).map(|(id, _)| id).collect();
                return Err(Violation {
                    kind: ViolationKind::Safety,
                    detail: format!(
                        "wave {}: image {i} declared termination with {outstanding} \
                         message(s) outstanding ({pending:?}, sum {sum:?})",
                        self.waves
                    ),
                });
            }
        }

        // Liveness: Theorem 1 as an executable assertion (strict epoch,
        // crash-free).
        if self.family.theorem1_applies()
            && !self.crashed
            && self.waves > self.theorem_bound
            && decisions.iter().any(|(_, d)| *d == WaveDecision::Continue)
        {
            return Err(Violation {
                kind: ViolationKind::Liveness,
                detail: format!(
                    "wave {} closed without termination, exceeding the Theorem 1 bound \
                     of L + 1 = {} waves (sum {sum:?})",
                    self.waves, self.theorem_bound
                ),
            });
        }

        // Livelock: Continue waves with no message activity left cannot
        // make progress indefinitely. Contributions are snapshotted at
        // enter time, so up to two quiet Continues are legitimate (one
        // wave entered before the drain finished, plus four-counter's
        // unconfirmed first stable wave); a third means the sum is frozen
        // forever.
        let all_continue =
            !decisions.is_empty() && decisions.iter().all(|(_, d)| *d == WaveDecision::Continue);
        if all_continue && self.msgs.is_empty() && !self.crashed {
            self.quiet_continue_streak += 1;
            if self.quiet_continue_streak >= 3 {
                return Err(Violation {
                    kind: ViolationKind::Livelock,
                    detail: format!(
                        "waves {}..{} all continued with no messages in flight: \
                         the reduction sum ({sum:?}) can never change",
                        self.waves - 2,
                        self.waves
                    ),
                });
            }
        } else {
            self.quiet_continue_streak = 0;
        }

        if decisions.iter().any(|(_, d)| *d == WaveDecision::Poisoned) {
            self.done = Some(Outcome::Aborted);
        } else if !decisions.is_empty()
            && decisions.iter().all(|(_, d)| *d == WaveDecision::Terminated)
        {
            self.done = Some(Outcome::Terminated);
        } else if self.waves >= self.wave_budget {
            // Out of budget without a verdict: an unfair schedule (waves
            // starving message progress). Prune, don't report.
            self.pruned = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{chain, node};

    fn chain_scenario(images: usize, targets: &[usize]) -> Scenario {
        Scenario { images, roots: vec![(0, chain(targets))], crash: None }
    }

    /// Run first-enabled transitions to a terminal state.
    fn run_first_enabled(w: &mut World) -> Option<Violation> {
        for _ in 0..10_000 {
            let enabled = w.enabled();
            let k = enabled.first().cloned()?;
            if let Err(v) = w.step(&k) {
                return Some(v);
            }
        }
        panic!("world did not quiesce");
    }

    #[test]
    fn empty_finish_terminates_in_one_wave() {
        let mut w = World::new(&Scenario::empty(3), Family::EpochStrict, None);
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, Some(Outcome::Terminated));
        assert_eq!(w.waves(), 1);
    }

    #[test]
    fn chain_respects_theorem_bound_on_first_enabled_schedule() {
        let s = chain_scenario(3, &[1, 2]);
        let mut w = World::new(&s, Family::EpochStrict, None);
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, Some(Outcome::Terminated));
        assert!(w.waves() <= 3, "L=2 must need ≤ 3 waves, got {}", w.waves());
        assert_eq!(w.max_causal_depth(), 2);
    }

    #[test]
    fn four_counter_needs_the_confirmation_wave() {
        let mut w = World::new(&Scenario::empty(2), Family::FourCounter, None);
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, Some(Outcome::Terminated));
        assert_eq!(w.waves(), 2);
    }

    #[test]
    fn crash_run_aborts_poisoned() {
        let mut s = chain_scenario(3, &[1, 2]);
        s.crash = Some(1);
        let mut w = World::new(&s, Family::EpochStrict, None);
        // Crash first, then run everything else.
        w.step(&TKey::Crash(1)).unwrap();
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, Some(Outcome::Aborted));
    }

    #[test]
    fn schedules_replay_deterministically() {
        let s = chain_scenario(3, &[1, 2]);
        let mut a = World::new(&s, Family::EpochStrict, None);
        assert!(run_first_enabled(&mut a).is_none());
        let mut b = World::new(&s, Family::EpochStrict, None);
        for k in a.schedule().to_vec() {
            b.step(&k).unwrap();
        }
        assert_eq!(b.done, a.done);
        assert_eq!(b.waves(), a.waves());
        assert_eq!(b.msg_trace(), a.msg_trace());
    }

    #[test]
    fn touch_sets_drive_independence() {
        let s = Scenario {
            images: 4,
            roots: vec![(0, node(1, vec![])), (2, node(3, vec![]))],
            crash: None,
        };
        let w = World::new(&s, Family::EpochStrict, None);
        let d0 = TKey::Deliver("r0".into());
        let d1 = TKey::Deliver("r1".into());
        assert!(w.independent(&d0, &d1), "deliveries at distinct images commute");
        assert!(!w.independent(&d0, &TKey::Enter(1)), "same-image transitions conflict");
        assert!(w.independent(&d0, &TKey::Enter(2)));
        assert!(!w.independent(&d0, &TKey::Close), "close is global");
    }

    /// Image 0 ships two messages to image 1 and a third to image 2.
    fn two_on_one_link() -> Scenario {
        Scenario {
            images: 3,
            roots: vec![(0, node(1, vec![])), (0, node(1, vec![])), (0, node(2, vec![]))],
            crash: None,
        }
    }

    fn acked_count(w: &World, image: usize) -> u64 {
        w.dets[image].epoch_counters().expect("epoch family")[1]
    }

    #[test]
    fn counted_ack_covers_the_link_up_to_the_named_message() {
        let s = two_on_one_link();
        let mut w = World::new(&s, Family::EpochStrict, None);
        for k in ["deliver r2", "deliver r1", "deliver r0"] {
            w.step(&TKey::parse(k).unwrap()).unwrap();
        }
        // r0 was delivered last on the 0 → 1 link, so its ack covers r1
        // too (k = 2), but not r2, which travelled another link.
        w.step(&TKey::Ack("r0".into())).unwrap();
        assert_eq!(acked_count(&w, 0), 2);
        assert!(!w.is_enabled(&TKey::Ack("r1".into())), "r1 rode r0's counted ack");
        assert!(w.is_enabled(&TKey::Ack("r2".into())));
        let acks: Vec<&MsgStep> =
            w.msg_trace().iter().filter(|s| matches!(s, MsgStep::Ack { .. })).collect();
        assert_eq!(acks.len(), 2, "one ack step per covered message");
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, Some(Outcome::Terminated));
    }

    #[test]
    fn acking_the_oldest_owed_message_is_the_per_message_ack() {
        let mut w = World::new(&two_on_one_link(), Family::EpochStrict, None);
        for k in ["deliver r1", "deliver r0", "ack r1"] {
            w.step(&TKey::parse(k).unwrap()).unwrap();
        }
        assert_eq!(acked_count(&w, 0), 1, "k = 1: only r1 was owed up to r1");
        assert!(w.is_enabled(&TKey::Ack("r0".into())));
    }

    #[test]
    fn ack_miscount_strands_the_sender() {
        let mut w =
            World::new(&two_on_one_link(), Family::EpochStrict, Some(Mutation::AckMiscount));
        for k in ["deliver r0", "deliver r1", "ack r1"] {
            w.step(&TKey::parse(k).unwrap()).unwrap();
        }
        assert_eq!(acked_count(&w, 0), 1, "the mutated ack reports k - 1 = 1 of 2");
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, None, "the sender can never become ready: a deadlock");
        assert!(!w.dets[0].ready());
    }

    #[test]
    fn aggregated_spawns_wait_for_a_flush_and_gate_wave_entry() {
        let mut w = World::new(&two_on_one_link(), Family::Aggregated, None);
        assert!(!w.is_enabled(&TKey::Deliver("r0".into())), "r0 is still buffered");
        assert!(w.is_enabled(&TKey::Enter(1)), "image 1 buffers nothing");
        assert_eq!(
            w.enabled().iter().filter(|k| matches!(k, TKey::Flush(..))).collect::<Vec<_>>(),
            vec![&TKey::Flush(0, 1), &TKey::Flush(0, 2)],
            "one flush per non-empty (image, destination) buffer"
        );
        w.step(&TKey::Flush(0, 1)).unwrap();
        assert!(w.is_enabled(&TKey::Deliver("r0".into())));
        assert!(w.is_enabled(&TKey::Deliver("r1".into())), "the whole buffer left as one frame");
        assert!(!w.is_enabled(&TKey::Deliver("r2".into())), "another destination's buffer stays");
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, Some(Outcome::Terminated));
    }

    #[test]
    fn flush_on_cap_only_strands_a_short_buffer() {
        let s = Scenario { images: 2, roots: vec![(0, node(1, vec![]))], crash: None };
        let mut w = World::new(&s, Family::Aggregated, Some(Mutation::FlushOnCapOnly));
        assert!(!w.is_enabled(&TKey::Flush(0, 1)), "one message is below the cap");
        assert!(run_first_enabled(&mut w).is_none());
        assert_eq!(w.done, None, "the sender can never become ready: a deadlock");
        // A buffer at the cap still leaves.
        let w = World::new(&two_on_one_link(), Family::Aggregated, Some(Mutation::FlushOnCapOnly));
        assert!(w.is_enabled(&TKey::Flush(0, 1)));
        assert!(!w.is_enabled(&TKey::Flush(0, 2)));
    }

    #[test]
    fn tkey_round_trips_through_text() {
        for k in [
            TKey::Deliver("r0.1".into()),
            TKey::Ack("r2".into()),
            TKey::Exec("r0.0.0".into()),
            TKey::Enter(3),
            TKey::Close,
            TKey::Crash(1),
            TKey::Poison(0),
            TKey::Flush(2, 0),
        ] {
            assert_eq!(TKey::parse(&k.to_string()).unwrap(), k);
        }
    }
}
