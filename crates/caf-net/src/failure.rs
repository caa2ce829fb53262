//! Heartbeat failure detection: the fail-stop layer
//! [`Fabric::with_chaos`](crate::Fabric::with_chaos) engages next to the
//! reliable sublayer when it is given [`FailureParams`].
//!
//! Each image heartbeats idle links and drives a [`FailureDetectorState`]
//! from heartbeat deadlines *and* retry-budget exhaustion. Every received
//! frame is a life sign, or posthumous if its sender is confirmed dead.
//! Like the reliable layer, it runs from the image's own fabric calls,
//! and only when one of its deadlines is due: [`FailureLayer::pump`]
//! returns the earliest next heartbeat or detector deadline, which the
//! fabric folds into the image's protocol gate. A life sign only moves a
//! detector deadline later, so it never needs to touch the gate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use caf_core::failure::{FailureDetectorState, FailureEvent, FailureParams, PeerHealth};
use caf_core::ids::ImageId;
use parking_lot::Mutex;

/// Simulated size of a heartbeat frame, in bytes.
pub(crate) const HEARTBEAT_BYTES: usize = 8;

/// A death confirmed by (or reported to) an image's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedDown {
    /// The dead image.
    pub peer: usize,
    /// Its last known incarnation; traffic stamped `<=` this is posthumous.
    pub incarnation: u64,
    /// Wall-clock from the crash firing on the wire to this observer's
    /// confirmation. `None` when the crash origin is unknown to the
    /// fabric (e.g. the death was learned from a broadcast).
    pub latency: Option<Duration>,
}

/// Per-observing-image failure-detection state.
struct Observer {
    detector: FailureDetectorState,
    /// Last heartbeat emission per peer link.
    last_hb: Vec<Instant>,
    /// Confirmed deaths not yet drained by [`FailureLayer::poll`].
    confirmed: VecDeque<ConfirmedDown>,
}

/// Heartbeats plus one failure detector per image.
pub(crate) struct FailureLayer {
    params: FailureParams,
    /// Fabric creation time: the detectors' clock origin.
    epoch: Instant,
    observers: Vec<Mutex<Observer>>,
    /// `dead[observer][peer]`: whether `observer`'s detector holds `peer`
    /// dead. Written under the observer's lock on every transition into
    /// or out of `Dead`, so the reliable pump reads it without locking.
    dead: Vec<Vec<AtomicBool>>,
    /// `queued[observer]`: whether `observer` has confirmed deaths not yet
    /// drained. Written under the observer's lock, so [`FailureLayer::poll`]
    /// takes that lock only when there is something to drain.
    queued: Vec<AtomicBool>,
}

impl FailureLayer {
    pub(crate) fn new(n: usize, params: FailureParams, epoch: Instant) -> Self {
        let observers = (0..n)
            .map(|me| {
                let mut detector = FailureDetectorState::new(params.clone());
                for peer in (0..n).filter(|&p| p != me) {
                    detector.monitor(peer, Duration::ZERO);
                }
                Mutex::new(Observer {
                    detector,
                    last_hb: vec![epoch; n],
                    confirmed: VecDeque::new(),
                })
            })
            .collect();
        let flags = || (0..n).map(|_| AtomicBool::new(false)).collect();
        let dead = (0..n).map(|_| flags()).collect();
        FailureLayer { params, epoch, observers, dead, queued: flags() }
    }

    /// Whether `observer`'s detector holds `peer` dead. Lock-free.
    pub(crate) fn is_dead(&self, observer: ImageId, peer: usize) -> bool {
        self.dead[observer.index()][peer].load(Ordering::Acquire)
    }

    /// Feeds one frame received at `image` into its detector as a life
    /// sign from `from`. Returns whether the frame should be accepted
    /// (`false` = posthumous).
    pub(crate) fn note_life_sign(&self, image: ImageId, from: ImageId, incarnation: u64) -> bool {
        let elapsed = self.epoch.elapsed();
        let mut obs = self.observers[image.index()].lock();
        let accepted = obs.detector.on_life_sign(from.index(), incarnation, elapsed);
        // A higher incarnation revives a dead peer.
        let dead = &self.dead[image.index()][from.index()];
        if accepted && dead.load(Ordering::Relaxed) {
            dead.store(false, Ordering::Release);
        }
        accepted
    }

    /// `image`'s reliable layer spent its retry budget toward each of
    /// `dests`: a strong death hint, so skip the silence deadline and go
    /// straight to the suspect window.
    pub(crate) fn on_retry_exhausted(&self, image: ImageId, dests: &[usize]) {
        if dests.is_empty() {
            return;
        }
        let elapsed = self.epoch.elapsed();
        let mut obs = self.observers[image.index()].lock();
        for &dest in dests {
            obs.detector.on_retry_exhausted(dest, elapsed);
        }
    }

    /// Records at `observer`'s detector a death learned externally.
    pub(crate) fn mark_dead(&self, observer: ImageId, peer: usize, incarnation: u64) {
        let elapsed = self.epoch.elapsed();
        let mut obs = self.observers[observer.index()].lock();
        obs.detector.mark_dead(peer, incarnation, elapsed);
        self.dead[observer.index()][peer].store(true, Ordering::Release);
    }

    /// Stops every other detector from ever suspecting `image`.
    pub(crate) fn retire(&self, image: ImageId) {
        let elapsed = self.epoch.elapsed();
        for (me, obs) in self.observers.iter().enumerate() {
            if me != image.index() {
                obs.lock().detector.retire(image.index(), elapsed);
            }
        }
    }

    /// Drains the deaths `image`'s detector confirmed since the last poll.
    /// Lock-free while none is queued.
    pub(crate) fn poll(&self, image: ImageId) -> Vec<ConfirmedDown> {
        if !self.queued[image.index()].load(Ordering::Acquire) {
            return Vec::new();
        }
        let mut obs = self.observers[image.index()].lock();
        self.queued[image.index()].store(false, Ordering::Relaxed);
        obs.confirmed.drain(..).collect()
    }

    /// `image`'s detector counters: `(suspects_raised, false_suspects)`.
    #[cfg(test)]
    pub(crate) fn metrics(&self, image: ImageId) -> (u64, u64) {
        let obs = self.observers[image.index()].lock();
        (obs.detector.suspects_raised(), obs.detector.false_suspects())
    }

    /// Failure-detection duty cycle for `image`: advances its detector's
    /// deadlines, queues confirmed deaths (timed from `crashed_at`, when
    /// each crash fired), and returns the peers whose link has been idle
    /// past the heartbeat period — the caller owes each a heartbeat —
    /// plus when this pump next has work, in nanoseconds since the epoch.
    /// That is the earliest next heartbeat or detector deadline, or `now`
    /// itself when a death was confirmed: the reliable layer must abandon
    /// the dead peer's frames at the next pump.
    pub(crate) fn pump(
        &self,
        image: ImageId,
        now: Instant,
        crashed_at: &[Mutex<Option<Instant>>],
    ) -> (Vec<usize>, u64) {
        let elapsed = now.saturating_duration_since(self.epoch);
        let mut beats = Vec::new();
        let mut guard = self.observers[image.index()].lock();
        let obs = &mut *guard;
        let live = |obs: &Observer, peer: usize| {
            // No point heartbeating the confirmed dead or retired.
            peer != image.index()
                && !matches!(
                    obs.detector.health(peer),
                    Some(PeerHealth::Dead) | Some(PeerHealth::Retired)
                )
        };
        for peer in 0..self.observers.len() {
            if !live(obs, peer) {
                continue;
            }
            if now.saturating_duration_since(obs.last_hb[peer]) >= self.params.heartbeat_period {
                obs.last_hb[peer] = now;
                beats.push(peer);
            }
        }
        let mut next = Duration::MAX;
        for ev in obs.detector.tick(elapsed) {
            if let FailureEvent::Confirmed { peer, incarnation, .. } = ev {
                self.dead[image.index()][peer].store(true, Ordering::Release);
                self.queued[image.index()].store(true, Ordering::Release);
                let latency =
                    (*crashed_at[peer].lock()).map(|at| now.saturating_duration_since(at));
                obs.confirmed.push_back(ConfirmedDown { peer, incarnation, latency });
                next = elapsed;
            }
        }
        for peer in (0..self.observers.len()).filter(|&p| live(obs, p)) {
            let last = obs.last_hb[peer].saturating_duration_since(self.epoch);
            next = next.min(last + self.params.heartbeat_period);
        }
        next = next.min(obs.detector.next_deadline().unwrap_or(Duration::MAX));
        (beats, next.as_nanos().min(u64::MAX as u128) as u64)
    }
}
