//! Lossy-link model checking: the reliable-link machine of
//! `caf_core::fault` explored exhaustively over a wire that drops,
//! duplicates and reorders.
//!
//! Both execution substrates restore exactly-once delivery with the same
//! [`LinkMachine`], so its soundness is checked once, here. Two images
//! share one link machine pair; one or both of them send `k ≤ 4` frames.
//! Every interleaving of these transitions is explored:
//!
//! * **transmit** — an image sends its next frame (piggybacking the ack it
//!   owes, if any);
//! * **deliver** any packet on the wire, in any order (**reorder**);
//! * **drop** or **duplicate** any packet, data or ack (**ack loss**),
//!   within small budgets;
//! * **ack flush** — a receiver sends the standalone ack it owes;
//! * **retry timeout** — a sender's clock jumps to its machine's deadline
//!   and pumps: retransmits, or **budget exhaustion** gives a frame up.
//!
//! Time is not coupled to delivery, so a timeout may fire while the ack
//! that would have stopped it is still in flight: the checker sees every
//! race between acks and retransmissions.
//!
//! Three oracles hold against ground truth kept beside the machines:
//!
//! * **exactly once** — a receiver's machine reports each frame fresh at
//!   most once ([`ViolationKind::Safety`]);
//! * **no premature retirement** — a sender retires only frames its peer
//!   has received ([`ViolationKind::Safety`]);
//! * **drain** — in a final state every frame the sender did not give up
//!   has been delivered ([`ViolationKind::Liveness`]).
//!
//! Two seeded [`LinkMutation`]s mirror `crate::mutation`: they perturb the
//! [`CumAck`] handed to the machine from outside, so the production code
//! is never modified.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use caf_core::fault::{CumAck, Frame, LinkAction, LinkMachine, RetryPolicy};

use crate::world::{Violation, ViolationKind};

/// Seeded bugs in how a sender reads a cumulative ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMutation {
    /// `covers` also covers the watermark `upto`, the one frame the ack
    /// says has *not* arrived.
    CoversUpto,
    /// The selective bitmap is read one position off: bit `i` is taken to
    /// mean `upto + 2 + i`.
    BitmapShift,
}

impl LinkMutation {
    /// All link mutations.
    pub const ALL: [LinkMutation; 2] = [LinkMutation::CoversUpto, LinkMutation::BitmapShift];

    /// Stable name for the CLI and `mutate_check.sh`.
    pub fn name(self) -> &'static str {
        match self {
            LinkMutation::CoversUpto => "link-covers-upto",
            LinkMutation::BitmapShift => "link-bitmap-shift",
        }
    }

    /// Parses [`LinkMutation::name`].
    pub fn parse(s: &str) -> Result<LinkMutation, String> {
        LinkMutation::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown link mutation {s:?}"))
    }

    /// The ack the mutated sender acts on in place of `ack`.
    fn perturb(self, ack: CumAck) -> CumAck {
        match self {
            LinkMutation::CoversUpto => {
                // Covering `upto` too moves the watermark past it and past
                // the arrivals contiguous above it.
                let run = ack.bits.trailing_ones() + 1;
                CumAck { upto: ack.upto + run as u64, bits: ack.bits.checked_shr(run).unwrap_or(0) }
            }
            LinkMutation::BitmapShift => CumAck { bits: ack.bits << 1, ..ack },
        }
    }
}

/// One bounded lossy-link scenario between images 0 and 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkScenario {
    /// Frames each image sends (at most 4). When both send, both links
    /// carry data and acks can piggyback.
    pub frames: [u8; 2],
    /// Packets the wire may drop.
    pub drops: u8,
    /// Packets the wire may duplicate.
    pub dups: u8,
    /// Resends each frame may take before it is given up.
    pub retries: u32,
}

impl LinkScenario {
    /// The scenarios `suite` and `mutate` explore: one busy link, and
    /// two links whose reverse data carries piggybacked acks.
    pub const ALL: [LinkScenario; 2] = [
        LinkScenario { frames: [3, 0], drops: 1, dups: 1, retries: 1 },
        LinkScenario { frames: [1, 1], drops: 1, dups: 1, retries: 1 },
    ];

    /// Stable display name.
    pub fn name(self) -> String {
        let [a, b] = self.frames;
        format!("link-k{a}+{b}-drop{}-dup{}-retry{}", self.drops, self.dups, self.retries)
    }
}

/// A packet in flight. Image `dir` sent a `Data` packet; an `Ack` packet
/// acknowledges the link from image `dir` and travels back to it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Packet {
    Data { dir: usize, seq: u64, ack: Option<(u64, u64)>, payload: u8 },
    Ack { dir: usize, upto: u64, bits: u64 },
}

impl Packet {
    fn data(dir: usize, f: Frame<u8>) -> Packet {
        Packet::Data { dir, seq: f.seq, ack: f.ack.map(|a| (a.upto, a.bits)), payload: f.payload }
    }
}

/// One transition, or the fate the wire dealt a packet it put out.
#[derive(Clone)]
enum Step {
    Transmit { image: usize, frame: u8 },
    FlushAck { image: usize },
    Timeout { image: usize, at: u64 },
    Deliver(Packet),
    Drop(Packet),
    Dup(Packet),
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Transmit { image, frame } => write!(f, "transmit {image}#{frame}"),
            Step::FlushAck { image } => write!(f, "flush-ack {image}"),
            Step::Timeout { image, at } => write!(f, "timeout {image} @{at}"),
            Step::Deliver(p) => write!(f, "deliver {p:?}"),
            Step::Drop(p) => write!(f, "drop {p:?}"),
            Step::Dup(p) => write!(f, "dup {p:?}"),
        }
    }
}

/// One global state: both link ends, the wire, and ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// `ends[i]`: image `i`'s end of its link with the other image.
    ends: [LinkMachine<u8>; 2],
    /// Frames image `i` has yet to send.
    unsent: [u8; 2],
    /// The wire, kept sorted: a multiset of packets.
    wire: Vec<Packet>,
    now: u64,
    drops: u8,
    dups: u8,
    /// Bit `p`: frame `p` sent by image `i` has been delivered.
    delivered: [u8; 2],
    /// Bit `p`: image `i` gave frame `p` up.
    given_up: [u8; 2],
}

/// What one link check did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Distinct states visited.
    pub states: u64,
    /// Final states reached (no transition enabled).
    pub finals: u64,
}

/// The exploration of one scenario under one (optional) mutation.
struct Checker {
    scenario: LinkScenario,
    mutation: Option<LinkMutation>,
    retry: RetryPolicy,
    seen: HashSet<u64>,
    stats: LinkStats,
}

type Successor = (Vec<Step>, State);

impl Checker {
    /// The sender at image `dir` acts on `ack`; every frame it retires
    /// must have been delivered.
    fn on_ack(&self, st: &mut State, dir: usize, ack: CumAck) -> Result<(), String> {
        let ack = self.mutation.map_or(ack, |m| m.perturb(ack));
        let delivered = st.delivered[dir];
        let mut early = None;
        st.ends[dir].on_ack(ack, |p| {
            if delivered & 1 << p == 0 {
                early.get_or_insert(p);
            }
        });
        match early {
            Some(p) => Err(format!("image {dir} retired its frame {p} before it arrived")),
            None => Ok(()),
        }
    }

    /// Every state one transition away from `st`; an oracle breach is
    /// returned as the error, with the transition that caused it.
    fn successors(&self, st: &State) -> Result<Vec<Successor>, (Step, String)> {
        let mut next = Vec::new();
        for i in 0..2 {
            if st.unsent[i] > 0 {
                let mut s = st.clone();
                let frame = self.scenario.frames[i] - s.unsent[i];
                s.unsent[i] -= 1;
                let f = s.ends[i].send(frame, s.now, &self.retry);
                put(
                    s,
                    vec![Packet::data(i, f)],
                    vec![Step::Transmit { image: i, frame }],
                    &mut next,
                );
            }
            let mut s = st.clone();
            if let Some(ack) = s.ends[i].take_ack() {
                let ack = Packet::Ack { dir: 1 - i, upto: ack.upto, bits: ack.bits };
                put(s, vec![ack], vec![Step::FlushAck { image: i }], &mut next);
            }
            if let Some(due) = st.ends[i].next_due() {
                let mut s = st.clone();
                s.now = s.now.max(due);
                let (mut resent, mut given_up) = (Vec::new(), 0);
                s.ends[i].pump(s.now, &self.retry, |a| match a {
                    LinkAction::Transmit(f) => resent.push(Packet::data(i, f)),
                    LinkAction::GiveUp(p) => given_up |= 1 << p,
                });
                s.given_up[i] |= given_up;
                let step = Step::Timeout { image: i, at: s.now };
                put(s, resent, vec![step], &mut next);
            }
        }
        for (j, packet) in st.wire.iter().enumerate() {
            if j > 0 && st.wire[j - 1] == *packet {
                continue; // identical copies lead to identical states
            }
            let mut s = st.clone();
            s.wire.remove(j);
            let step = Step::Deliver(packet.clone());
            match self.deliver(&mut s, packet) {
                Ok(()) => next.push((vec![step], s)),
                Err(e) => return Err((step, e)),
            }
        }
        Ok(next)
    }

    /// Hands packet `p` to its destination's machine.
    fn deliver(&self, s: &mut State, p: &Packet) -> Result<(), String> {
        match *p {
            Packet::Data { dir, seq, ack, payload } => {
                let to = 1 - dir;
                if let Some((upto, bits)) = ack {
                    self.on_ack(s, to, CumAck { upto, bits })?;
                }
                if s.ends[to].on_data(seq) {
                    if s.delivered[dir] & 1 << payload != 0 {
                        return Err(format!("frame {dir}#{payload} delivered twice"));
                    }
                    s.delivered[dir] |= 1 << payload;
                }
                Ok(())
            }
            Packet::Ack { dir, upto, bits } => self.on_ack(s, dir, CumAck { upto, bits }),
        }
    }

    /// The drain oracle at a final state.
    fn check_final(&self, st: &State) -> Result<(), String> {
        for (i, &k) in self.scenario.frames.iter().enumerate() {
            let missing = ((1u8 << k) - 1) & !st.delivered[i] & !st.given_up[i];
            if missing != 0 {
                return Err(format!(
                    "final state with frames {missing:#06b} of image {i} neither delivered \
                     nor given up (backlog {})",
                    st.ends[i].backlog()
                ));
            }
        }
        Ok(())
    }

    /// Depth-first search from `st`; `path` is the schedule so far.
    fn dfs(&mut self, st: State, path: &mut Vec<Step>) -> Option<Violation> {
        let mut h = DefaultHasher::new();
        st.hash(&mut h);
        if !self.seen.insert(h.finish()) {
            return None;
        }
        self.stats.states += 1;
        let next = match self.successors(&st) {
            Ok(next) => next,
            Err((step, detail)) => {
                path.push(step);
                return Some(violation(ViolationKind::Safety, detail, path));
            }
        };
        if next.is_empty() {
            self.stats.finals += 1;
            let breach = self.check_final(&st).err();
            return breach.map(|detail| violation(ViolationKind::Liveness, detail, path));
        }
        for (steps, s) in next {
            let depth = path.len();
            path.extend(steps);
            if let Some(v) = self.dfs(s, path) {
                return Some(v);
            }
            path.truncate(depth);
        }
        None
    }
}

/// Puts `packets` on the wire of `s` under every fate the budgets allow:
/// each arrives once, is dropped, or is duplicated. Deciding a packet's
/// fate when it is sent loses no behaviour — nothing observes a packet
/// in flight, and the wire reorders freely — and keeps the state space
/// small.
fn put(s: State, mut packets: Vec<Packet>, steps: Vec<Step>, out: &mut Vec<Successor>) {
    let Some(p) = packets.pop() else {
        let mut s = s;
        s.wire.sort();
        out.push((steps, s));
        return;
    };
    let mut fates = vec![(s.clone(), steps.clone())];
    fates[0].0.wire.push(p.clone());
    if s.drops > 0 {
        let dropped = State { drops: s.drops - 1, ..s.clone() };
        fates.push((dropped, steps.iter().cloned().chain([Step::Drop(p.clone())]).collect()));
    }
    if s.dups > 0 {
        let mut doubled = State { dups: s.dups - 1, ..s };
        doubled.wire.extend([p.clone(), p.clone()]);
        fates.push((doubled, steps.into_iter().chain([Step::Dup(p)]).collect()));
    }
    for (s, steps) in fates {
        put(s, packets.clone(), steps, out);
    }
}

fn violation(kind: ViolationKind, detail: String, path: &[Step]) -> Violation {
    let schedule: Vec<String> = path.iter().map(Step::to_string).collect();
    Violation { kind, detail: format!("{detail}; schedule: {}", schedule.join(", ")) }
}

/// The retry policy under check: `max_retries` resends, with backoff.
fn retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        ack_timeout: Duration::from_nanos(1),
        backoff: 2,
        max_timeout: Duration::from_nanos(4),
        max_retries,
    }
}

/// Explores every schedule of `scenario` with the machine read through
/// `mutation`. Returns the stats and the first oracle breach, if any.
pub fn check_link(
    scenario: LinkScenario,
    mutation: Option<LinkMutation>,
) -> (LinkStats, Option<Violation>) {
    assert!(scenario.frames.iter().all(|&k| k <= 4), "out of bound: {scenario:?}");
    let mut checker = Checker {
        scenario,
        mutation,
        retry: retry(scenario.retries),
        seen: HashSet::new(),
        stats: LinkStats::default(),
    };
    let init = State {
        ends: [LinkMachine::default(), LinkMachine::default()],
        unsent: scenario.frames,
        wire: Vec::new(),
        now: 0,
        drops: scenario.drops,
        dups: scenario.dups,
        delivered: [0; 2],
        given_up: [0; 2],
    };
    let v = checker.dfs(init, &mut Vec::new());
    (checker.stats, v)
}

/// Checks every [`LinkScenario::ALL`] scenario, stopping at the first
/// breach. Returns the total stats and that breach, if any.
pub fn check_all(mutation: Option<LinkMutation>) -> (LinkStats, Option<Violation>) {
    let mut total = LinkStats::default();
    for scenario in LinkScenario::ALL {
        let (stats, v) = check_link(scenario, mutation);
        total.states += stats.states;
        total.finals += stats.finals;
        if let Some(mut v) = v {
            v.detail = format!("{}: {}", scenario.name(), v.detail);
            return (total, Some(v));
        }
    }
    (total, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_machine_passes_small_scenarios() {
        // `suite` explores the full `LinkScenario::ALL` in release builds.
        let small = LinkScenario { frames: [2, 0], ..LinkScenario::ALL[0] };
        for scenario in [small, LinkScenario::ALL[1]] {
            let (stats, v) = check_link(scenario, None);
            assert!(v.is_none(), "{}: {v:?}", scenario.name());
            assert!(stats.finals > 0, "{}: no final state reached", scenario.name());
        }
    }

    #[test]
    fn covers_upto_is_caught() {
        let (_, v) = check_all(Some(LinkMutation::CoversUpto));
        assert_eq!(v.expect("retiring the watermark must be caught").kind, ViolationKind::Safety);
    }

    #[test]
    fn bitmap_shift_is_caught() {
        let (_, v) = check_all(Some(LinkMutation::BitmapShift));
        assert_eq!(v.expect("an off-by-one bitmap must be caught").kind, ViolationKind::Safety);
    }

    #[test]
    fn covers_upto_perturbation_adds_exactly_the_watermark() {
        let ack = CumAck { upto: 5, bits: 0b1011 }; // 6, 7 and 9 arrived
        let bad = LinkMutation::CoversUpto.perturb(ack);
        let covered = |a: CumAck| (0..80).filter(|&s| a.covers(s)).collect::<Vec<u64>>();
        let mut want = covered(ack);
        want.push(5);
        want.sort_unstable();
        assert_eq!(covered(bad), want);
    }

    #[test]
    fn names_round_trip() {
        for m in LinkMutation::ALL {
            assert_eq!(LinkMutation::parse(m.name()).unwrap(), m);
        }
    }
}
