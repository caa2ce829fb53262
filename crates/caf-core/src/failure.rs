//! Pure fail-stop failure detection: per-peer heartbeat deadlines with
//! two-phase *suspect → confirm* transitions and incarnation numbers.
//!
//! The paper's termination-detection algorithm (Fig. 7) assumes every
//! image survives to join the `allreduce(SUM, sent − completed)`; a dead
//! contributor turns `finish` into a deadlock. This module is the
//! substrate-independent half of the cure: a state machine that watches
//! life signs (heartbeats *or* any application message) per monitored
//! peer, raises a **suspicion** after `suspect_after` of silence, and
//! **confirms** the death after a further `confirm_after` with no
//! refutation. Two phases keep transient network chaos (drops, delay
//! spikes, stragglers) from being misread as a crash: a late life sign
//! during the suspicion window refutes it (counted as a *false suspect*,
//! the metric the `ablation_failure_detection` bench sweeps).
//!
//! Incarnation numbers make death monotonic: once a peer is confirmed
//! dead at incarnation `k`, messages stamped `≤ k` are *posthumous* and
//! must be discarded by the transport ([`FailureDetectorState::accepts`]),
//! so a retransmit buffered inside the fabric cannot resurrect work under
//! a poisoned `finish` epoch.
//!
//! Everything is pure with respect to a caller-supplied `now: Duration`,
//! so the threaded fabric (wall-clock since fabric creation) and the
//! discrete-event simulator (virtual nanoseconds) drive the *same* code —
//! the property every `caf-core` state machine keeps.

use std::collections::BTreeMap;
use std::time::Duration;

/// Tuning knobs of the failure detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureParams {
    /// How often an idle link emits a heartbeat.
    pub heartbeat_period: Duration,
    /// Silence needed before a peer becomes *suspect*.
    pub suspect_after: Duration,
    /// Additional unrefuted silence needed to *confirm* the death.
    pub confirm_after: Duration,
}

impl Default for FailureParams {
    fn default() -> Self {
        FailureParams {
            heartbeat_period: Duration::from_millis(2),
            suspect_after: Duration::from_millis(10),
            confirm_after: Duration::from_millis(10),
        }
    }
}

impl FailureParams {
    /// A tight configuration for tests: fast heartbeats, short windows,
    /// so both detection and refutation paths complete quickly.
    pub fn aggressive() -> Self {
        FailureParams {
            heartbeat_period: Duration::from_micros(500),
            suspect_after: Duration::from_millis(3),
            confirm_after: Duration::from_millis(3),
        }
    }

    /// Worst-case time from an actual crash to confirmation, assuming no
    /// spurious refutation (a posthumous duplicate can extend it).
    pub fn detection_horizon(&self) -> Duration {
        self.suspect_after + self.confirm_after
    }
}

/// Health of one monitored peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Life signs within the deadline.
    Alive,
    /// Silent past `suspect_after`; awaiting confirmation or refutation.
    Suspect,
    /// Confirmed dead (fail-stop). Terminal except for a higher
    /// incarnation announcing itself.
    Dead,
    /// Exited cleanly (normal shutdown); silence is expected, never
    /// suspicious.
    Retired,
}

/// A transition worth reporting to the layer above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureEvent {
    /// `peer` passed its silence deadline and is now suspect.
    Suspected {
        /// The suspect peer.
        peer: usize,
        /// Detector time of the transition.
        at: Duration,
    },
    /// `peer` stayed silent through the confirmation window: it is dead.
    Confirmed {
        /// The dead peer.
        peer: usize,
        /// Highest incarnation the detector had seen from the peer;
        /// messages stamped `<=` this are posthumous.
        incarnation: u64,
        /// Detector time of the confirmation.
        at: Duration,
    },
}

#[derive(Debug, Clone)]
struct PeerState {
    health: PeerHealth,
    /// Last life sign (Alive) or suspicion start (Suspect).
    since: Duration,
    /// Highest incarnation observed from this peer (starts at 1: the
    /// first incarnation of every image).
    incarnation: u64,
}

/// Failure-detector state for one observing image.
///
/// Drive it with [`monitor`](Self::monitor) to register peers,
/// [`on_life_sign`](Self::on_life_sign) for every heartbeat or message,
/// [`on_retry_exhausted`](Self::on_retry_exhausted) when the reliable
/// layer gives up on a link, and periodic [`tick`](Self::tick) calls to
/// collect transitions.
#[derive(Debug, Clone)]
pub struct FailureDetectorState {
    params: FailureParams,
    peers: BTreeMap<usize, PeerState>,
    suspects_raised: u64,
    false_suspects: u64,
}

impl FailureDetectorState {
    /// A detector with no monitored peers yet.
    pub fn new(params: FailureParams) -> Self {
        FailureDetectorState {
            params,
            peers: BTreeMap::new(),
            suspects_raised: 0,
            false_suspects: 0,
        }
    }

    /// The configured windows.
    pub fn params(&self) -> &FailureParams {
        &self.params
    }

    /// Starts monitoring `peer`, treating `now` as its first life sign.
    /// Re-registering an already-monitored peer is a no-op.
    pub fn monitor(&mut self, peer: usize, now: Duration) {
        self.peers.entry(peer).or_insert(PeerState {
            health: PeerHealth::Alive,
            since: now,
            incarnation: 1,
        });
    }

    /// Records a life sign (heartbeat or application message) from
    /// `peer` at incarnation `incarnation`. Returns whether traffic from
    /// that incarnation should be accepted: `false` means the message is
    /// posthumous — the peer is already confirmed dead at an incarnation
    /// `>=` the stamp — and the transport must drop it.
    pub fn on_life_sign(&mut self, peer: usize, incarnation: u64, now: Duration) -> bool {
        let Some(st) = self.peers.get_mut(&peer) else {
            return true; // unmonitored peers are never filtered
        };
        match st.health {
            PeerHealth::Dead => {
                if incarnation <= st.incarnation {
                    return false; // posthumous
                }
                // A higher incarnation announced itself: a restarted
                // peer is alive again (not exercised by the runtime yet,
                // but the monotonicity rule demands it).
                st.health = PeerHealth::Alive;
            }
            PeerHealth::Suspect => {
                // Refutation: the peer was merely slow.
                st.health = PeerHealth::Alive;
                self.false_suspects += 1;
            }
            PeerHealth::Alive | PeerHealth::Retired => {}
        }
        st.since = now;
        st.incarnation = st.incarnation.max(incarnation);
        true
    }

    /// The reliable layer exhausted its retransmit budget toward `peer`:
    /// a strong hint that the peer is gone, so the suspicion window is
    /// entered immediately instead of waiting out the silence deadline.
    pub fn on_retry_exhausted(&mut self, peer: usize, now: Duration) {
        if let Some(st) = self.peers.get_mut(&peer) {
            if st.health == PeerHealth::Alive {
                st.health = PeerHealth::Suspect;
                st.since = now;
                self.suspects_raised += 1;
            }
        }
    }

    /// Advances deadlines to `now`, returning the transitions that fired
    /// (in ascending peer order — deterministic).
    pub fn tick(&mut self, now: Duration) -> Vec<FailureEvent> {
        let mut events = Vec::new();
        for (&peer, st) in self.peers.iter_mut() {
            match st.health {
                PeerHealth::Alive => {
                    if now.saturating_sub(st.since) >= self.params.suspect_after {
                        st.health = PeerHealth::Suspect;
                        st.since = now;
                        self.suspects_raised += 1;
                        events.push(FailureEvent::Suspected { peer, at: now });
                    }
                }
                PeerHealth::Suspect => {
                    if now.saturating_sub(st.since) >= self.params.confirm_after {
                        st.health = PeerHealth::Dead;
                        st.since = now;
                        events.push(FailureEvent::Confirmed {
                            peer,
                            incarnation: st.incarnation,
                            at: now,
                        });
                    }
                }
                PeerHealth::Dead | PeerHealth::Retired => {}
            }
        }
        events
    }

    /// The earliest time at which [`tick`](Self::tick) can yield a
    /// transition: `since + suspect_after` for an Alive peer and
    /// `since + confirm_after` for a Suspect one. Dead and Retired peers
    /// have no deadline. A life sign only moves a deadline later, so a
    /// caller that ticks no earlier than this value misses nothing.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.peers
            .values()
            .filter_map(|st| match st.health {
                PeerHealth::Alive => Some(st.since + self.params.suspect_after),
                PeerHealth::Suspect => Some(st.since + self.params.confirm_after),
                PeerHealth::Dead | PeerHealth::Retired => None,
            })
            .min()
    }

    /// Records an externally learned death (an `ImageDown` broadcast or a
    /// local crash note): `peer` is dead at `incarnation` without going
    /// through this detector's own suspect window.
    pub fn mark_dead(&mut self, peer: usize, incarnation: u64, now: Duration) {
        let st = self.peers.entry(peer).or_insert(PeerState {
            health: PeerHealth::Dead,
            since: now,
            incarnation,
        });
        st.health = PeerHealth::Dead;
        st.since = now;
        st.incarnation = st.incarnation.max(incarnation);
    }

    /// Stops suspecting `peer` forever: it exited cleanly, so silence is
    /// the expected state (prevents false suspects during the staggered
    /// shutdown of a team).
    pub fn retire(&mut self, peer: usize, now: Duration) {
        if let Some(st) = self.peers.get_mut(&peer) {
            if st.health != PeerHealth::Dead {
                st.health = PeerHealth::Retired;
                st.since = now;
            }
        }
    }

    /// Whether traffic stamped (`peer`, `incarnation`) should be
    /// accepted (the posthumous filter, without recording a life sign).
    pub fn accepts(&self, peer: usize, incarnation: u64) -> bool {
        match self.peers.get(&peer) {
            Some(st) => st.health != PeerHealth::Dead || incarnation > st.incarnation,
            None => true,
        }
    }

    /// Current health of `peer`, if monitored.
    pub fn health(&self, peer: usize) -> Option<PeerHealth> {
        self.peers.get(&peer).map(|st| st.health)
    }

    /// Peers confirmed dead, with their last incarnation.
    pub fn dead_peers(&self) -> Vec<(usize, u64)> {
        self.peers
            .iter()
            .filter(|(_, st)| st.health == PeerHealth::Dead)
            .map(|(&p, st)| (p, st.incarnation))
            .collect()
    }

    /// Total suspicions ever raised (timeouts + retry exhaustions).
    pub fn suspects_raised(&self) -> u64 {
        self.suspects_raised
    }

    /// Suspicions later refuted by a life sign — the detector's
    /// false-positive count.
    pub fn false_suspects(&self) -> u64 {
        self.false_suspects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn det() -> FailureDetectorState {
        FailureDetectorState::new(FailureParams {
            heartbeat_period: ms(1),
            suspect_after: ms(10),
            confirm_after: ms(10),
        })
    }

    #[test]
    fn silence_confirms_in_two_phases() {
        let mut d = det();
        d.monitor(1, ms(0));
        assert!(d.tick(ms(9)).is_empty(), "inside the deadline");
        assert_eq!(d.tick(ms(10)), vec![FailureEvent::Suspected { peer: 1, at: ms(10) }]);
        assert_eq!(d.health(1), Some(PeerHealth::Suspect));
        assert!(d.tick(ms(19)).is_empty(), "confirmation window still open");
        assert_eq!(
            d.tick(ms(20)),
            vec![FailureEvent::Confirmed { peer: 1, incarnation: 1, at: ms(20) }]
        );
        assert_eq!(d.health(1), Some(PeerHealth::Dead));
        assert_eq!(d.dead_peers(), vec![(1, 1)]);
    }

    #[test]
    fn life_sign_refutes_a_suspicion() {
        let mut d = det();
        d.monitor(2, ms(0));
        d.tick(ms(10));
        assert_eq!(d.health(2), Some(PeerHealth::Suspect));
        assert!(d.on_life_sign(2, 1, ms(12)), "refuting message must be accepted");
        assert_eq!(d.health(2), Some(PeerHealth::Alive));
        assert_eq!(d.false_suspects(), 1);
        assert_eq!(d.suspects_raised(), 1);
        // The deadline restarts from the refutation.
        assert!(d.tick(ms(21)).is_empty());
        assert!(!d.tick(ms(22)).is_empty());
    }

    #[test]
    fn heartbeats_keep_a_peer_alive_forever() {
        let mut d = det();
        d.monitor(3, ms(0));
        for t in 1..100 {
            d.on_life_sign(3, 1, ms(t));
            assert!(d.tick(ms(t)).is_empty());
        }
        assert_eq!(d.suspects_raised(), 0);
    }

    #[test]
    fn retry_exhaustion_skips_straight_to_suspect() {
        let mut d = det();
        d.monitor(1, ms(0));
        d.on_retry_exhausted(1, ms(2));
        assert_eq!(d.health(1), Some(PeerHealth::Suspect));
        // Confirmation still needs its own window from the suspicion.
        assert!(d.tick(ms(11)).is_empty());
        assert_eq!(
            d.tick(ms(12)),
            vec![FailureEvent::Confirmed { peer: 1, incarnation: 1, at: ms(12) }]
        );
    }

    #[test]
    fn posthumous_incarnations_are_rejected() {
        let mut d = det();
        d.monitor(4, ms(0));
        d.mark_dead(4, 1, ms(5));
        assert!(!d.accepts(4, 1), "same incarnation is posthumous");
        assert!(!d.on_life_sign(4, 1, ms(6)), "a posthumous heartbeat must not resurrect");
        assert_eq!(d.health(4), Some(PeerHealth::Dead));
        // A *higher* incarnation is a legitimate restart.
        assert!(d.accepts(4, 2));
        assert!(d.on_life_sign(4, 2, ms(7)));
        assert_eq!(d.health(4), Some(PeerHealth::Alive));
    }

    #[test]
    fn retired_peers_never_become_suspect() {
        let mut d = det();
        d.monitor(5, ms(0));
        d.retire(5, ms(1));
        assert!(d.tick(ms(1000)).is_empty());
        assert_eq!(d.health(5), Some(PeerHealth::Retired));
        assert!(d.accepts(5, 1), "retired peers are not filtered");
    }

    #[test]
    fn externally_learned_death_is_monotonic() {
        let mut d = det();
        // mark_dead on an unmonitored peer registers it dead.
        d.mark_dead(7, 3, ms(0));
        assert!(!d.accepts(7, 3));
        assert!(!d.accepts(7, 2));
        assert!(d.accepts(7, 4));
        // Retire after death must not clear the death.
        d.retire(7, ms(1));
        assert_eq!(d.health(7), Some(PeerHealth::Dead));
    }

    #[test]
    fn unmonitored_peers_pass_through() {
        let mut d = det();
        assert!(d.accepts(9, 1));
        assert!(d.on_life_sign(9, 1, ms(0)));
        assert!(d.tick(ms(1000)).is_empty());
    }

    /// Ticks `d` every 250 µs from `from` until a transition fires and
    /// returns when it fired.
    fn first_transition(d: &mut FailureDetectorState, from: Duration) -> Duration {
        let mut t = from;
        while d.tick(t).is_empty() {
            t += Duration::from_micros(250);
            assert!(t < ms(1000), "no transition fired");
        }
        t
    }

    #[test]
    fn next_deadline_is_never_later_than_the_first_transition() {
        // Alive → Suspect.
        let mut d = det();
        d.monitor(1, ms(0));
        d.monitor(2, ms(3));
        let due = d.next_deadline().expect("two Alive peers");
        assert_eq!(due, ms(10));
        assert!(d.tick(due - Duration::from_nanos(1)).is_empty(), "nothing fires before it");
        assert!(due <= first_transition(&mut d, ms(0)));
        // Suspect → Dead, after a retry-exhaustion hint moved peer 2 into
        // its confirmation window.
        d.on_retry_exhausted(2, ms(11));
        let due = d.next_deadline().expect("a Suspect peer");
        assert_eq!(due, ms(20), "peer 1's window opened at 10 ms, before peer 2's");
        assert!(due <= first_transition(&mut d, ms(11)));
        // Dead and Retired peers have no deadline.
        let mut d = det();
        d.monitor(3, ms(0));
        d.monitor(4, ms(0));
        d.mark_dead(3, 1, ms(1));
        d.retire(4, ms(1));
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn a_life_sign_only_moves_the_deadline_later() {
        let mut d = det();
        d.monitor(1, ms(0));
        d.monitor(2, ms(4));
        let mut last = d.next_deadline().expect("monitored");
        for (peer, t) in [(1, 2), (2, 5), (1, 9), (2, 9), (1, 14)] {
            d.on_life_sign(peer, 1, ms(t));
            let now = d.next_deadline().expect("still monitored");
            assert!(now >= last, "a life sign at {t} ms moved the deadline earlier");
            last = now;
        }
        // Refuting a suspicion also moves it later: the new Alive window
        // ends after the Suspect one would have.
        d.tick(ms(24));
        assert_eq!(d.health(1), Some(PeerHealth::Suspect));
        let suspect = d.next_deadline().expect("monitored");
        d.on_life_sign(1, 1, ms(25));
        assert!(d.next_deadline().expect("monitored") >= suspect);
    }

    #[test]
    fn detection_horizon_bounds_the_two_windows() {
        let p =
            FailureParams { heartbeat_period: ms(1), suspect_after: ms(4), confirm_after: ms(6) };
        assert_eq!(p.detection_horizon(), ms(10));
    }
}
