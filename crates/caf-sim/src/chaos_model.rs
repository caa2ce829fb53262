//! Paper-scale chaos runs: the fault model executed in virtual time.
//!
//! The threaded runtime can only chaos-test a handful of images; this
//! model replays the *same* protocol stack — [`FaultPlan`] fault rolls,
//! ack/retry reliable delivery by the fabric's own [`LinkMachine`] (one
//! per communicating (image, peer) pair; cumulative acks ride reverse
//! `Data` as piggybacks, or are flushed once per link per virtual
//! instant; one retry wake per link at the machine's deadline), the
//! strict epoch termination detector via [`FinishSim`], and (when
//! engaged) the fail-stop [`FailureDetectorState`] — as discrete events,
//! so the exactly-once, never-terminate-early, and every-survivor-observes
//! properties can be checked at the paper's 4K+ image counts in
//! milliseconds.
//!
//! One `finish` block is simulated: every image issues its spawns, the
//! wire drops/duplicates/delays them per the plan, the reliable layer
//! acks and retransmits within its budget, and waves run until the
//! detector's consistent cut is clean. A plan that defeats the retry
//! budget leaves the detector permanently unready, the event queue
//! drains, and the run reports [`ChaosOutcome::Stalled`] — the virtual
//! twin of the runtime watchdog's `RuntimeError::Stalled`.
//!
//! With [`ChaosSimConfig::failure`] engaged the model mirrors the
//! threaded fabric's fail-stop layer: every image heartbeats its ring
//! monitor (image `i` watches `i+1`, `O(p)` links total), a scheduled
//! `Crash { image, at_seq }` fires on the same global wire-sequence
//! keying as `caf-net`, silence (or retry exhaustion) drives the
//! suspect → confirm two-phase detector, and the first confirmation
//! broadcasts a team-wide `Down` message over the reliable sublayer. A
//! sender abandons its window toward a peer it holds dead at the link's
//! next retry wake, as the fabric's pump does.
//! Every survivor that learns the death poisons its epoch detector; the
//! poisoned wave closes without the victim and the run reports
//! [`ChaosOutcome::Failed`] — the virtual twin of
//! `RuntimeError::ImageFailed` — naming the victim, the detection
//! latency, and exactly which images observed the failure.

use std::collections::HashMap;
use std::time::Duration;

use caf_core::failure::{FailureDetectorState, FailureEvent, FailureParams, PeerHealth};
use caf_core::fault::{
    CumAck, FaultDecision, FaultPlan, Frame, LinkAction, LinkMachine, RetryPolicy, ACK_BYTES,
    FIRST_INCARNATION,
};
use caf_core::ids::Parity;
use caf_core::rng::SplitMix64;
use caf_core::termination::WaveDecision;
use caf_des::{Engine, SimNet};

use crate::finish_sim::FinishSim;

/// Simulated size of a heartbeat or `Down` control message. The threaded
/// fabric's heartbeats are 8 bytes: a known mirror gap (DESIGN.md §6).
const CTRL_BYTES: usize = 16;

/// Parameters of one simulated chaos run.
#[derive(Debug, Clone)]
pub struct ChaosSimConfig {
    /// Team size (the interesting regime is 4K+).
    pub images: usize,
    /// Spawns issued per image inside the `finish` block.
    pub msgs_per_image: usize,
    /// Payload bytes per spawn.
    pub bytes: usize,
    /// Execution cost of a spawn's handler at the target.
    pub work_ns: u64,
    /// Interconnect model (jitter makes delivery non-FIFO).
    pub net: SimNet,
    /// The fault schedule; its seed also drives network jitter.
    pub plan: FaultPlan,
    /// Ack/retransmit policy answering the plan.
    pub retry: RetryPolicy,
    /// Fail-stop failure detection (ring heartbeats + suspect/confirm),
    /// when engaged. `None` keeps the legacy behaviour: a dead image
    /// manifests only as a stall.
    pub failure: Option<FailureParams>,
}

impl ChaosSimConfig {
    /// Defaults: 2 spawns per image, 64-byte payloads, a jittery
    /// (non-FIFO) Gemini-class network, no faults, no failure detection.
    pub fn new(images: usize) -> Self {
        ChaosSimConfig {
            images,
            msgs_per_image: 2,
            bytes: 64,
            work_ns: 500,
            net: SimNet::from_model(&caf_core::config::NetworkModel::gemini_like(), true),
            plan: FaultPlan::none(0x5EED),
            retry: RetryPolicy::default(),
            failure: None,
        }
    }
}

/// How the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The detector terminated the `finish` — every spawn was delivered
    /// exactly once and acknowledged.
    Terminated {
        /// Virtual time of termination.
        sim_ns: u64,
        /// Reduction waves needed.
        waves: usize,
    },
    /// The retry budget was exhausted somewhere; the detector can never
    /// become ready and the event queue drained without termination.
    Stalled {
        /// Spawns never acknowledged back to their senders.
        undelivered: u64,
    },
    /// An image was confirmed dead: the survivors poisoned their epoch
    /// detectors and collectively aborted the `finish` — the virtual
    /// twin of `RuntimeError::ImageFailed`.
    Failed {
        /// Virtual time when the survivors' poisoned wave closed (the
        /// collective abort), or of the last event if the wave could
        /// not close.
        sim_ns: u64,
        /// Virtual time from the crash firing on the wire to the first
        /// confirmation. `None` when no crash fault fired (a peer
        /// declared dead on timeout evidence alone has no known
        /// crash origin).
        detect_ns: Option<u64>,
        /// The image confirmed dead.
        victim: usize,
        /// Its incarnation at death.
        incarnation: u64,
    },
}

/// Counters from one simulated chaos run. Pure function of the config —
/// two runs with equal configs produce equal reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSimReport {
    /// Outcome of the run.
    pub outcome: ChaosOutcome,
    /// Spawns issued.
    pub sent: u64,
    /// Fresh (first-copy) spawn deliveries at receivers.
    pub delivered: u64,
    /// Redundant copies suppressed by sequence dedup (injected
    /// duplicates plus retransmits that raced their ack).
    pub dups_suppressed: u64,
    /// Wire transmissions the plan dropped (data and acks).
    pub wire_drops: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Messages abandoned after the retry budget.
    pub retries_exhausted: u64,
    /// Heartbeats put on the wire.
    pub heartbeats: u64,
    /// Transmissions destroyed because an endpoint was crashed.
    pub crash_drops: u64,
    /// Arrivals discarded by the posthumous incarnation filter.
    pub posthumous_drops: u64,
    /// Suspicions raised across every image's detector.
    pub suspects: u64,
    /// Suspicions later refuted by a life sign (false positives).
    pub false_suspects: u64,
    /// Images that observed the death (poisoned their finish), ascending.
    pub observers: Vec<usize>,
}

/// What a reliably-delivered message carries.
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// An asynchronous spawn, counted by the termination detector.
    Spawn { tag: Parity },
    /// A death notice — control traffic outside the finish epochs.
    Down { victim: usize, incarnation: u64 },
}

enum Ev {
    /// `from` sends `payload` to `to` as a fresh frame.
    Send { from: usize, to: usize, payload: Payload },
    /// A copy of `frame` arrives at `to`.
    Data { from: usize, to: usize, frame: Frame<Payload> },
    /// `receiver` puts the cumulative ack it owes `sender` on the wire,
    /// unless a piggyback or an earlier flush already settled it.
    AckFlush { receiver: usize, sender: usize },
    /// A cumulative acknowledgement arrives back at `to` (the original
    /// sender of the `to → from` link).
    Ack { from: usize, to: usize, ack: CumAck },
    /// A delivered spawn's handler finishes at `img`.
    HandlerDone { img: usize, tag: Parity },
    /// The `from → to` link's retry deadline `at` falls due. Stale, and
    /// ignored, once the link's machine has moved its deadline.
    RetryWake { from: usize, to: usize, at: u64 },
    /// The open reduction wave closes.
    WaveComplete,
    /// `img` puts a heartbeat to its ring monitor on the wire (recurring).
    HeartbeatSend { img: usize },
    /// A heartbeat from `from` lands at its monitor `to`.
    HeartbeatArrive { to: usize, from: usize },
    /// `img` advances its failure detector's deadlines (recurring).
    DetectorTick { img: usize },
}

impl Ev {
    /// Protocol progress (as opposed to recurring maintenance): while any
    /// of these are pending the heartbeat/tick chains keep running.
    fn is_live(&self) -> bool {
        !matches!(
            self,
            Ev::HeartbeatSend { .. } | Ev::HeartbeatArrive { .. } | Ev::DetectorTick { .. }
        )
    }
}

struct ChaosSim {
    cfg: ChaosSimConfig,
    rng: SplitMix64,
    engine: Engine<Ev>,
    fsim: FinishSim,
    /// `links[(image, peer)]`: `image`'s end of its link with `peer`,
    /// created on first use (only communicating pairs cost memory).
    links: HashMap<(usize, usize), LinkMachine<Payload>>,
    wire_seq: u64,
    acked: u64,
    crashed: Vec<bool>,
    /// Virtual time the (first) crash fired — detection-latency base.
    crashed_at_ns: Option<u64>,
    /// One failure detector per image when `cfg.failure` is engaged.
    detectors: Vec<FailureDetectorState>,
    hb_period_ns: u64,
    /// How long maintenance (heartbeats/ticks) outlives the last live
    /// event: one detection horizon, so a pending suspicion can still
    /// confirm, then the queue is allowed to drain.
    horizon_ns: u64,
    /// First confirmed death `(victim, incarnation)`.
    down: Option<(usize, u64)>,
    first_confirm_ns: Option<u64>,
    down_broadcast: bool,
    observed: Vec<bool>,
    poisoned_close_ns: Option<u64>,
    live_pending: usize,
    idle_deadline_ns: u64,
    report: ChaosSimReport,
}

impl ChaosSim {
    fn new(cfg: ChaosSimConfig) -> Self {
        let p = cfg.images;
        let rng = SplitMix64::new(cfg.plan.seed ^ 0xC4A0_5EED);
        let detectors: Vec<FailureDetectorState> = match &cfg.failure {
            Some(params) => (0..p)
                .map(|i| {
                    let mut d = FailureDetectorState::new(params.clone());
                    if p > 1 {
                        // Ring monitoring: O(p) watched links in total.
                        d.monitor((i + 1) % p, Duration::ZERO);
                    }
                    d
                })
                .collect(),
            None => Vec::new(),
        };
        let (hb_period_ns, horizon_ns) = match &cfg.failure {
            Some(f) => (
                (f.heartbeat_period.as_nanos() as u64).max(1),
                (f.detection_horizon() + f.heartbeat_period * 2).as_nanos() as u64,
            ),
            None => (0, 0),
        };
        ChaosSim {
            rng,
            engine: Engine::new(),
            fsim: FinishSim::new(p, true),
            links: HashMap::new(),
            wire_seq: 0,
            acked: 0,
            crashed: vec![false; p],
            crashed_at_ns: None,
            detectors,
            hb_period_ns,
            horizon_ns,
            down: None,
            first_confirm_ns: None,
            down_broadcast: false,
            observed: vec![false; p],
            poisoned_close_ns: None,
            live_pending: 0,
            idle_deadline_ns: 0,
            report: ChaosSimReport {
                outcome: ChaosOutcome::Stalled { undelivered: 0 },
                sent: 0,
                delivered: 0,
                dups_suppressed: 0,
                wire_drops: 0,
                retries: 0,
                retries_exhausted: 0,
                heartbeats: 0,
                crash_drops: 0,
                posthumous_drops: 0,
                suspects: 0,
                false_suspects: 0,
                observers: Vec::new(),
            },
            cfg,
        }
    }

    fn failure_on(&self) -> bool {
        !self.detectors.is_empty()
    }

    fn now_d(&self) -> Duration {
        Duration::from_nanos(self.engine.now())
    }

    fn schedule_live(&mut self, delay: u64, ev: Ev) {
        self.live_pending += 1;
        self.engine.schedule(delay, ev);
    }

    fn schedule_live_at(&mut self, at: u64, ev: Ev) {
        self.live_pending += 1;
        self.engine.schedule_at(at, ev);
    }

    /// Whether recurring maintenance (heartbeats, detector ticks) should
    /// keep itself alive: protocol work is pending, or the post-idle
    /// grace window (one detection horizon) is still open.
    fn maintenance_live(&self) -> bool {
        self.live_pending > 0 || self.engine.now() < self.idle_deadline_ns
    }

    /// `img`'s end of its link with `peer`.
    fn link(&mut self, img: usize, peer: usize) -> &mut LinkMachine<Payload> {
        self.links.entry((img, peer)).or_default()
    }

    /// Schedules the `from → to` link's retry wake at its machine's
    /// deadline, if it has one.
    fn arm_retry(&mut self, from: usize, to: usize) {
        if let Some(at) = self.link(from, to).next_due() {
            self.schedule_live_at(at, Ev::RetryWake { from, to, at });
        }
    }

    /// One transmission on the `from → to` wire: takes the next global
    /// wire sequence, fires the crashes it reaches — the same wire-seq
    /// keying the threaded fabric uses, so a crash point reproduces across
    /// substrates — and rolls the fault dice. A dead image neither injects
    /// nor receives: `None` when a crashed endpoint (possibly armed by this
    /// very transmission) destroys it.
    fn roll(&mut self, from: usize, to: usize) -> Option<FaultDecision> {
        let seq = self.wire_seq;
        self.wire_seq += 1;
        for image in self.cfg.plan.crashes_due(seq) {
            if !self.crashed[image] {
                self.crashed[image] = true;
                self.crashed_at_ns.get_or_insert(self.engine.now());
            }
        }
        if self.crashed[from] || self.crashed[to] {
            self.report.crash_drops += 1;
            return None;
        }
        Some(self.cfg.plan.decide(from, to, seq))
    }

    /// Wire time of `bytes` on `from → to` under decision `d`: the
    /// network's delivery delay plus spikes and straggler windows.
    fn delay(&mut self, from: usize, to: usize, d: FaultDecision, bytes: usize) -> u64 {
        let extra = self.cfg.plan.extra_delay(from, to, d, self.now_d()).as_nanos() as u64;
        self.cfg.net.delivery_delay(bytes, &mut self.rng) + extra
    }

    /// Puts one copy of `frame` on the wire and schedules its arrival(s).
    /// Its retry deadline lives in the sender's link machine.
    fn transmit(&mut self, from: usize, to: usize, frame: Frame<Payload>) {
        let Some(d) = self.roll(from, to) else { return };
        self.report.wire_drops += d.drop as u64;
        // The duplicate of a dropped frame survives it.
        for _ in 0..1 + d.duplicate as usize - d.drop as usize {
            let delay = self.delay(from, to, d, self.cfg.bytes);
            self.schedule_live(delay, Ev::Data { from, to, frame: frame.clone() });
        }
    }

    /// Sends the cumulative ack `receiver` owes `sender`, if still owed,
    /// itself subject to the fault plan.
    fn send_ack(&mut self, receiver: usize, sender: usize) {
        let Some(ack) = self.link(receiver, sender).take_ack() else { return };
        let Some(d) = self.roll(receiver, sender) else { return };
        if d.drop {
            self.report.wire_drops += 1;
            return;
        }
        let delay = self.delay(receiver, sender, d, ACK_BYTES);
        self.schedule_live(delay, Ev::Ack { from: receiver, to: sender, ack });
    }

    /// Whether `to` processes a protocol frame from `from`: not once `to`
    /// is dead, nor — the posthumous filter — once `to` knows `from` is
    /// (late copies are discarded un-acked). Otherwise the frame is a life
    /// sign.
    fn admit(&mut self, to: usize, from: usize) -> bool {
        if self.crashed[to] {
            self.report.crash_drops += 1;
            return false;
        }
        if self.failure_on() {
            let now_d = self.now_d();
            if !self.detectors[to].accepts(from, FIRST_INCARNATION) {
                self.report.posthumous_drops += 1;
                return false;
            }
            self.detectors[to].on_life_sign(from, FIRST_INCARNATION, now_d);
        }
        true
    }

    /// `img` retires the frames toward `peer` that `ack` covers; each
    /// retired spawn is a delivery its detector counts. Returns whether
    /// anything was retired (frames an earlier ack retired are gone).
    fn retire(&mut self, img: usize, peer: usize, ack: CumAck) -> bool {
        let (mut retired, mut spawns) = (0, 0);
        self.link(img, peer).on_ack(ack, |p| {
            retired += 1;
            spawns += matches!(p, Payload::Spawn { .. }) as u64;
        });
        self.acked += spawns;
        (0..spawns).for_each(|_| self.fsim.on_delivered(img));
        retired > 0
    }

    /// One heartbeat from `img` to its ring monitor; reschedules itself
    /// while maintenance is live. A crashed image falls silent — that
    /// silence *is* the detection signal.
    fn heartbeat(&mut self, img: usize) {
        if self.crashed[img] {
            return;
        }
        let p = self.cfg.images;
        let to = (img + p - 1) % p; // my monitor is my ring predecessor
        let d = self.roll(img, to);
        if self.crashed[img] {
            return; // the heartbeat armed its own sender's crash point
        }
        self.report.heartbeats += 1;
        match d {
            Some(d) if d.drop => self.report.wire_drops += 1,
            Some(d) => {
                let delay = self.delay(img, to, d, CTRL_BYTES);
                self.engine.schedule(delay, Ev::HeartbeatArrive { to, from: img });
            }
            None => {}
        }
        if self.maintenance_live() {
            self.engine.schedule(self.hb_period_ns, Ev::HeartbeatSend { img });
        }
    }

    /// `observer`'s detector confirmed `peer` dead: record the death,
    /// broadcast it (first confirmation only), and poison locally.
    fn on_confirmed(&mut self, observer: usize, peer: usize, incarnation: u64) {
        if self.down.is_none() {
            self.down = Some((peer, incarnation));
            self.first_confirm_ns = Some(self.engine.now());
        }
        if !self.down_broadcast {
            self.down_broadcast = true;
            // Team-wide death notice over the same ack/retry reliable
            // sublayer as spawns (control traffic: no epoch accounting).
            for other in 0..self.cfg.images {
                if other == observer || other == peer {
                    continue;
                }
                let payload = Payload::Down { victim: peer, incarnation };
                self.schedule_live(
                    self.cfg.net.injection_ns,
                    Ev::Send { from: observer, to: other, payload },
                );
            }
        }
        self.observe_death(observer, peer, incarnation);
    }

    /// `img` learns (first-hand or by broadcast) that `victim` is dead:
    /// poison its epoch detector, install the posthumous filter, and —
    /// on the team's first observation — drop the victim from wave
    /// membership.
    fn observe_death(&mut self, img: usize, victim: usize, incarnation: u64) {
        if self.crashed[img] || self.observed[img] {
            return;
        }
        self.observed[img] = true;
        let now = self.now_d();
        self.detectors[img].mark_dead(victim, incarnation, now);
        self.fsim.poison(img, victim);
        if self.fsim.mark_dead(victim) {
            let cost = self.cfg.net.allreduce_cost(self.cfg.images, &mut self.rng);
            self.schedule_live(cost, Ev::WaveComplete);
        }
        self.try_wave(img);
    }

    /// Attempts wave entry for `img`; the last entrant prices the
    /// allreduce and schedules the wave's completion.
    fn try_wave(&mut self, img: usize) {
        if self.crashed[img] {
            return;
        }
        if self.fsim.try_enter(img, self.engine.now()) {
            let cost = self.cfg.net.allreduce_cost(self.cfg.images, &mut self.rng);
            self.schedule_live(cost, Ev::WaveComplete);
        }
    }

    fn run(mut self) -> ChaosSimReport {
        let p = self.cfg.images;
        // The finish body: every image issues its spawns round-robin over
        // the other images, staggered by the injection overhead.
        for img in 0..p {
            for k in 0..self.cfg.msgs_per_image {
                if p == 1 {
                    break;
                }
                let to = (img + 1 + k % (p - 1)) % p;
                let payload = Payload::Spawn { tag: self.fsim.on_send(img) };
                self.report.sent += 1;
                let at = k as u64 * self.cfg.net.injection_ns;
                self.schedule_live_at(at, Ev::Send { from: img, to, payload });
            }
        }
        if self.failure_on() && p > 1 {
            for img in 0..p {
                self.engine.schedule(self.hb_period_ns, Ev::HeartbeatSend { img });
                self.engine.schedule(self.hb_period_ns, Ev::DetectorTick { img });
            }
        }
        // Spawns issued: every image is now idle and bids for the wave
        // (senders are held back by their own unacked messages).
        for img in 0..p {
            self.try_wave(img);
        }

        let mut terminated_at = None;
        let mut last_now = 0;
        while let Some((now, ev)) = self.engine.pop() {
            last_now = now;
            if ev.is_live() {
                self.live_pending -= 1;
                if self.live_pending == 0 {
                    // Maintenance outlives the last protocol event by one
                    // detection horizon, then the queue drains.
                    self.idle_deadline_ns = now + self.horizon_ns;
                }
            }
            match ev {
                Ev::Send { from, to, payload } => {
                    let link = self.links.entry((from, to)).or_default();
                    let before = link.next_due();
                    let frame = link.send(payload, now, &self.cfg.retry);
                    if link.next_due() != before {
                        self.arm_retry(from, to);
                    }
                    self.transmit(from, to, frame);
                }
                Ev::Data { from, to, frame } => {
                    if !self.admit(to, from) {
                        continue;
                    }
                    let retired = frame.ack.is_some_and(|ack| self.retire(to, from, ack));
                    // Fresh or not, the link owes an ack: the previous
                    // one may have been lost, and only an ack stops the
                    // sender's timer. Reverse data may piggyback it first;
                    // otherwise one flush per link answers every arrival of
                    // this virtual instant.
                    let fresh = self.link(to, from).on_data(frame.seq);
                    self.schedule_live(0, Ev::AckFlush { receiver: to, sender: from });
                    match frame.payload {
                        _ if !fresh => self.report.dups_suppressed += 1,
                        Payload::Spawn { tag } => {
                            self.report.delivered += 1;
                            self.fsim.on_receive(to, tag);
                            self.schedule_live(self.cfg.work_ns, Ev::HandlerDone { img: to, tag });
                        }
                        Payload::Down { victim, incarnation } => {
                            self.observe_death(to, victim, incarnation);
                        }
                    }
                    if retired {
                        self.try_wave(to);
                    }
                }
                Ev::AckFlush { receiver, sender } => self.send_ack(receiver, sender),
                Ev::Ack { from, to, ack } => {
                    if self.admit(to, from) && self.retire(to, from, ack) {
                        self.try_wave(to);
                    }
                }
                Ev::HandlerDone { img, tag } => {
                    if self.crashed[img] {
                        // The handler died with its image: the spawn
                        // never completes anywhere.
                        continue;
                    }
                    self.fsim.on_complete(img, tag);
                    self.try_wave(img);
                }
                Ev::RetryWake { from, to, at } => {
                    if self.crashed[from] || self.link(from, to).next_due() != Some(at) {
                        continue; // the dead retransmit nothing; or stale
                    }
                    if self.failure_on()
                        && self.detectors[from].health(to) == Some(PeerHealth::Dead)
                    {
                        // Dead letters, abandoned as the fabric's pump does.
                        self.report.crash_drops += self.link(from, to).abandon() as u64;
                        continue;
                    }
                    let mut actions = Vec::new();
                    let link = self.links.entry((from, to)).or_default();
                    link.pump(at, &self.cfg.retry, |a| actions.push(a));
                    for action in actions {
                        match action {
                            LinkAction::Transmit(frame) => {
                                self.report.retries += 1;
                                self.transmit(from, to, frame);
                            }
                            LinkAction::GiveUp(_) => {
                                self.report.retries_exhausted += 1;
                                if self.failure_on() {
                                    // Budget exhaustion is a strong death
                                    // hint: suspect immediately instead of
                                    // waiting out the silence deadline.
                                    let now_d = self.now_d();
                                    self.detectors[from].monitor(to, now_d);
                                    self.detectors[from].on_retry_exhausted(to, now_d);
                                }
                            }
                        }
                    }
                    self.arm_retry(from, to);
                }
                Ev::WaveComplete => match self.fsim.complete_wave() {
                    WaveDecision::Terminated => {
                        terminated_at = Some(now);
                        break;
                    }
                    WaveDecision::Poisoned => {
                        // The survivors collectively aborted; keep
                        // draining so in-flight Down copies settle and
                        // every survivor records its observation.
                        self.poisoned_close_ns = Some(now);
                    }
                    WaveDecision::Continue => {
                        for img in 0..p {
                            self.try_wave(img);
                        }
                    }
                },
                Ev::HeartbeatSend { img } => self.heartbeat(img),
                Ev::HeartbeatArrive { to, from } => {
                    if !self.crashed[to] {
                        let now_d = self.now_d();
                        if !self.detectors[to].on_life_sign(from, FIRST_INCARNATION, now_d) {
                            self.report.posthumous_drops += 1;
                        }
                    }
                }
                Ev::DetectorTick { img } => {
                    if !self.crashed[img] {
                        let now_d = self.now_d();
                        for fe in self.detectors[img].tick(now_d) {
                            if let FailureEvent::Confirmed { peer, incarnation, .. } = fe {
                                self.on_confirmed(img, peer, incarnation);
                            }
                        }
                    }
                    if self.maintenance_live() {
                        self.engine.schedule(self.hb_period_ns, Ev::DetectorTick { img });
                    }
                }
            }
        }

        self.report.observers = (0..p).filter(|&i| self.observed[i]).collect();
        self.report.suspects = self.detectors.iter().map(|d| d.suspects_raised()).sum();
        self.report.false_suspects = self.detectors.iter().map(|d| d.false_suspects()).sum();
        self.report.outcome = if let Some((victim, incarnation)) = self.down {
            let detect_ns = match (self.first_confirm_ns, self.crashed_at_ns) {
                (Some(confirmed), Some(fired)) => Some(confirmed.saturating_sub(fired)),
                _ => None,
            };
            ChaosOutcome::Failed {
                sim_ns: self.poisoned_close_ns.unwrap_or(last_now),
                detect_ns,
                victim,
                incarnation,
            }
        } else if let Some(sim_ns) = terminated_at {
            ChaosOutcome::Terminated { sim_ns, waves: self.fsim.waves() }
        } else {
            ChaosOutcome::Stalled { undelivered: self.report.sent - self.acked }
        };
        self.report
    }
}

/// Runs one simulated chaos `finish` and reports what the wire did and
/// whether the detector terminated, stalled, or observed a death.
pub fn run_chaos_sim(cfg: &ChaosSimConfig) -> ChaosSimReport {
    ChaosSim::new(cfg.clone()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn chaos_cfg(images: usize, seed: u64, drop_p: f64, dup_p: f64) -> ChaosSimConfig {
        let mut cfg = ChaosSimConfig::new(images);
        cfg.plan = FaultPlan::uniform_drop(seed, drop_p).with_dup(dup_p);
        cfg
    }

    #[test]
    fn identical_configs_produce_identical_reports() {
        let cfg = chaos_cfg(256, 0xD15EA5E, 0.05, 0.02);
        assert_eq!(run_chaos_sim(&cfg), run_chaos_sim(&cfg));
    }

    #[test]
    fn different_seeds_produce_different_schedules() {
        let a = run_chaos_sim(&chaos_cfg(256, 1, 0.05, 0.02));
        let b = run_chaos_sim(&chaos_cfg(256, 2, 0.05, 0.02));
        assert_ne!(
            (a.wire_drops, a.retries, a.dups_suppressed),
            (b.wire_drops, b.retries, b.dups_suppressed)
        );
    }

    #[test]
    fn clean_run_at_4096_images_terminates_exactly_once() {
        let cfg = ChaosSimConfig::new(4096);
        let r = run_chaos_sim(&cfg);
        assert_eq!(r.sent, 2 * 4096);
        assert_eq!(r.delivered, r.sent, "every spawn delivered");
        assert_eq!(r.dups_suppressed, 0);
        assert_eq!(r.wire_drops, 0);
        assert_eq!(r.retries, 0, "ack timeout must dominate the RTT");
        assert_eq!(r.retries_exhausted, 0);
        match r.outcome {
            ChaosOutcome::Terminated { sim_ns, waves } => {
                assert!(sim_ns > 0);
                assert!(waves >= 1, "at least one wave to detect quiescence");
            }
            other => panic!("clean run must terminate, got {other:?}: {r:?}"),
        }
    }

    #[test]
    fn one_percent_chaos_at_4096_images_is_semantically_invisible() {
        // The ISSUE's acceptance plan at paper scale: 1% drop + 1% dup on
        // a jittery (non-FIFO) wire. The retry layer must restore
        // exactly-once and the detector must still terminate — late, but
        // never early and never double-counting.
        let r = run_chaos_sim(&chaos_cfg(4096, 0xCAFE, 0.01, 0.01));
        assert_eq!(r.sent, 2 * 4096);
        assert_eq!(r.delivered, r.sent, "no spawn lost: {r:?}");
        assert_eq!(r.retries_exhausted, 0, "budget must absorb 1% loss");
        assert!(r.wire_drops > 0, "the plan must actually have fired");
        assert!(r.dups_suppressed > 0, "dedup must have filtered copies");
        assert!(r.retries > 0, "drops must have been repaired by retransmit");
        assert!(
            matches!(r.outcome, ChaosOutcome::Terminated { .. }),
            "chaos within budget must still terminate: {r:?}"
        );
    }

    #[test]
    fn busy_links_carry_piggybacks_and_still_deliver_exactly_once() {
        // Three images: every link carries data both ways, so acks ride
        // reverse `Data` and each window holds dozens of frames, reordered
        // by jitter, with gaps below the watermark from drops.
        let mut cfg = chaos_cfg(3, 0xB05E, 0.05, 0.05);
        cfg.msgs_per_image = 96;
        let r = run_chaos_sim(&cfg);
        assert_eq!(r.sent, 3 * 96);
        assert_eq!(r.delivered, r.sent, "exactly once: {r:?}");
        assert!(matches!(r.outcome, ChaosOutcome::Terminated { .. }), "{r:?}");
        assert_eq!(r.retries_exhausted, 0);
        assert!(r.wire_drops > 0 && r.dups_suppressed > 0, "the plan must have fired: {r:?}");
        assert_eq!(r, run_chaos_sim(&cfg));
    }

    #[test]
    fn spikes_and_stragglers_slow_the_run_but_not_the_semantics() {
        let mut cfg = ChaosSimConfig::new(512);
        let clean = run_chaos_sim(&cfg);
        cfg.plan = FaultPlan::none(9).with_spikes(0.05, Duration::from_micros(50)).with_stall(
            3,
            Duration::from_micros(1),
            Duration::from_micros(200),
        );
        let slow = run_chaos_sim(&cfg);
        assert_eq!(slow.delivered, slow.sent);
        assert_eq!(slow.retries_exhausted, 0);
        let (
            ChaosOutcome::Terminated { sim_ns: t_clean, .. },
            ChaosOutcome::Terminated { sim_ns: t_slow, .. },
        ) = (clean.outcome, slow.outcome)
        else {
            panic!("both runs must terminate: {clean:?} / {slow:?}");
        };
        assert!(t_slow > t_clean, "spikes+stall must cost time: {t_slow} !> {t_clean}");
    }

    #[test]
    fn black_hole_link_exhausts_the_budget_and_stalls() {
        let mut cfg = ChaosSimConfig::new(8);
        cfg.msgs_per_image = 1;
        cfg.plan = FaultPlan::none(3).with_link(0, 1, 1.0);
        let r = run_chaos_sim(&cfg);
        assert_eq!(r.sent, 8);
        assert_eq!(r.delivered, 7, "only the 0→1 spawn is lost");
        assert_eq!(r.retries, cfg.retry.max_retries as u64);
        assert_eq!(r.retries_exhausted, 1);
        assert_eq!(r.wire_drops, cfg.retry.max_retries as u64 + 1, "every copy eaten");
        assert_eq!(
            r.outcome,
            ChaosOutcome::Stalled { undelivered: 1 },
            "the detector must never terminate over a lost spawn"
        );
    }

    #[test]
    fn crash_at_4096_images_fails_exactly_the_survivors() {
        let mut cfg = ChaosSimConfig::new(4096);
        cfg.plan = FaultPlan::none(0xFA11).with_crash(17, 3000);
        cfg.failure = Some(FailureParams::default());
        let r = run_chaos_sim(&cfg);
        let ChaosOutcome::Failed { sim_ns, detect_ns, victim, incarnation } = r.outcome else {
            panic!("a crashed member must fail the run, never terminate or stall: {r:?}");
        };
        assert_eq!(victim, 17, "the scheduled victim is named");
        assert_eq!(incarnation, FIRST_INCARNATION);
        let lat = detect_ns.expect("the crash fault fired on the wire");
        let params = FailureParams::default();
        let bound = (params.detection_horizon() + params.heartbeat_period * 3).as_nanos() as u64;
        assert!(lat > 0 && lat <= bound, "detection latency {lat} ns beyond {bound} ns");
        assert!(sim_ns >= lat, "the collective abort cannot precede the confirmation");
        let survivors: Vec<usize> = (0..4096).filter(|&i| i != 17).collect();
        assert_eq!(r.observers, survivors, "exactly the survivors observe the failure");
        assert!(r.crash_drops > 0, "the dead image's traffic must be destroyed");
        assert!(r.heartbeats > 0, "idle links must have heartbeated");
        // Deterministic: the same config replays the same death, latency,
        // and observer set.
        assert_eq!(r, run_chaos_sim(&cfg));
    }

    #[test]
    fn crash_verdict_is_stable_across_seeds_under_chaos() {
        // The wire seed changes everything about the schedule — drops,
        // jitter, retries — but never the verdict: same victim, every
        // survivor observes, never Terminated, never Stalled.
        for seed in [1u64, 2, 3, 0xDEAD, 0xBEEF] {
            let mut cfg = ChaosSimConfig::new(256);
            cfg.plan = FaultPlan::uniform_drop(seed, 0.01).with_dup(0.01).with_crash(9, 400);
            cfg.failure = Some(FailureParams::default());
            let r = run_chaos_sim(&cfg);
            match r.outcome {
                ChaosOutcome::Failed { victim, detect_ns, .. } => {
                    assert_eq!(victim, 9, "seed {seed}: wrong victim");
                    assert!(detect_ns.is_some(), "seed {seed}: latency must be measured");
                    assert_eq!(
                        r.observers,
                        (0..256).filter(|&i| i != 9).collect::<Vec<_>>(),
                        "seed {seed}: every survivor must observe the death"
                    );
                }
                other => panic!("seed {seed}: expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    fn failure_detection_is_invisible_on_a_clean_run() {
        let mut cfg = ChaosSimConfig::new(256);
        cfg.failure = Some(FailureParams::default());
        let r = run_chaos_sim(&cfg);
        assert!(matches!(r.outcome, ChaosOutcome::Terminated { .. }), "{r:?}");
        assert_eq!(r.delivered, r.sent);
        assert_eq!(r.suspects, 0, "a lossless wire must raise no suspicion");
        assert_eq!(r.false_suspects, 0);
        assert_eq!(r.crash_drops, 0);
        assert!(r.observers.is_empty());
    }

    #[test]
    fn one_way_black_hole_is_refuted_not_killed() {
        // Image 0's retries toward 1 exhaust (a strong death hint), but
        // image 1's heartbeats keep flowing on the healthy reverse path:
        // the suspicion must be refuted, not confirmed — the run stalls
        // (like the undetected case) instead of falsely killing a live
        // image.
        let mut cfg = ChaosSimConfig::new(8);
        cfg.msgs_per_image = 1;
        cfg.plan = FaultPlan::none(3).with_link(0, 1, 1.0);
        cfg.failure = Some(FailureParams::default());
        let r = run_chaos_sim(&cfg);
        assert!(matches!(r.outcome, ChaosOutcome::Stalled { .. }), "{r:?}");
        assert!(r.suspects >= 1, "retry exhaustion must raise a suspicion: {r:?}");
        assert!(r.false_suspects >= 1, "the live peer's heartbeats must refute it: {r:?}");
    }
}
