//! The no-progress watchdog: turns silent hangs into diagnostics.
//!
//! Under fault injection a `finish` block can stop making progress — a
//! message abandoned past its retry budget leaves the termination
//! detector's `sent − completed` sum permanently non-zero, and every image
//! parks in its progress loop forever. Without help that is an
//! undebuggable hang. The watchdog watches a *global progress
//! fingerprint* (messages injected + messages delivered + retransmissions
//! attempted); when every image is simultaneously blocked in a runtime
//! wait and the fingerprint has not moved for the configured window, the
//! first image to notice declares a stall. Every image then takes the
//! one abort path (`crate::abort`), and the launch returns
//! [`RuntimeError::Stalled`](crate::RuntimeError::Stalled) instead of
//! hanging.
//!
//! Because retransmissions count as progress, the watchdog cannot fire
//! while the reliable-delivery layer is still inside its retry budget —
//! the stall window starts counting only after the last timer gives up.
//! Configure the window longer than any [`StallWindow`] straggler pause
//! (a stalled image defers traffic, which is indistinguishable from no
//! progress until the window closes).
//!
//! [`StallWindow`]: caf_core::fault::StallWindow

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

struct Observation {
    fingerprint: u64,
    since: Instant,
}

/// Shared watchdog state. Detection is cooperative: there is no watchdog
/// thread; blocked images observe on every park-loop iteration.
pub(crate) struct Watchdog {
    window: Duration,
    /// Image threads still running (a panicking image stops counting, so
    /// the survivors — all blocked on the dead peer — can still stall
    /// out instead of waiting forever).
    active: AtomicUsize,
    /// Images currently inside a blocking runtime wait (an image counts
    /// once, however deeply its waits nest).
    waiting: AtomicUsize,
    /// Open waits per image: a handler that waits inside an outer wait of
    /// its image nests one deeper. Only the outermost enters `waiting`.
    depth: Vec<AtomicUsize>,
    /// Latched once a stall has been declared.
    stalled: AtomicBool,
    obs: Mutex<Observation>,
}

impl Watchdog {
    pub(crate) fn new(window: Duration, n: usize) -> Self {
        Watchdog {
            window,
            active: AtomicUsize::new(n),
            waiting: AtomicUsize::new(0),
            depth: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            stalled: AtomicBool::new(false),
            obs: Mutex::new(Observation { fingerprint: 0, since: Instant::now() }),
        }
    }

    pub(crate) fn window(&self) -> Duration {
        self.window
    }

    /// Marks `image` as blocked for the guard's lifetime.
    pub(crate) fn enter_wait(&self, image: usize) -> WaitGuard<'_> {
        if self.depth[image].fetch_add(1, Ordering::AcqRel) == 0 {
            self.waiting.fetch_add(1, Ordering::AcqRel);
        }
        WaitGuard { wd: self, image }
    }

    /// Held by each image thread for its whole run; dropping it (return
    /// *or* unwind) removes the image from the all-blocked quorum.
    pub(crate) fn live_guard(&self) -> LiveGuard<'_> {
        LiveGuard { wd: self }
    }

    /// Records a progress observation; returns whether the runtime is
    /// (now) stalled. A stall is declared only when every *live* image is
    /// blocked and the fingerprint has been flat for the full window.
    pub(crate) fn observe(&self, fingerprint: u64) -> bool {
        if self.stalled.load(Ordering::Acquire) {
            return true;
        }
        let now = Instant::now();
        let mut obs = self.obs.lock();
        if fingerprint != obs.fingerprint
            || self.waiting.load(Ordering::Acquire) < self.active.load(Ordering::Acquire)
        {
            obs.fingerprint = fingerprint;
            obs.since = now;
            return false;
        }
        if now.duration_since(obs.since) >= self.window {
            self.stalled.store(true, Ordering::Release);
            true
        } else {
            false
        }
    }
}

pub(crate) struct WaitGuard<'a> {
    wd: &'a Watchdog,
    image: usize,
}

impl WaitGuard<'_> {
    /// [`Watchdog::observe`] from an image counted as blocked.
    pub(crate) fn observe(&self, fingerprint: u64) -> bool {
        self.wd.observe(fingerprint)
    }
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        if self.wd.depth[self.image].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.wd.waiting.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

pub(crate) struct LiveGuard<'a> {
    wd: &'a Watchdog,
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.wd.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_needs_all_images_waiting_and_flat_fingerprint() {
        let wd = Watchdog::new(Duration::from_millis(10), 2);
        let _g0 = wd.enter_wait(0);
        // Only one of two images waiting: never stalls.
        assert!(!wd.observe(1));
        std::thread::sleep(Duration::from_millis(15));
        assert!(!wd.observe(1));
        // Second image joins; flat fingerprint now ages toward the window.
        let _g1 = wd.enter_wait(1);
        assert!(!wd.observe(1), "window restarts from the waiting transition");
        std::thread::sleep(Duration::from_millis(15));
        assert!(wd.observe(1));
        assert!(wd.observe(999), "stall latches regardless of later movement");
    }

    #[test]
    fn fingerprint_movement_resets_the_window() {
        let wd = Watchdog::new(Duration::from_millis(20), 1);
        let _g = wd.enter_wait(0);
        assert!(!wd.observe(1));
        std::thread::sleep(Duration::from_millis(12));
        assert!(!wd.observe(2), "progress happened");
        std::thread::sleep(Duration::from_millis(12));
        assert!(!wd.observe(2), "window measured from the last movement");
        std::thread::sleep(Duration::from_millis(12));
        assert!(wd.observe(2));
    }

    #[test]
    fn wait_guard_is_balanced() {
        let wd = Watchdog::new(Duration::from_millis(5), 1);
        {
            let _g = wd.enter_wait(0);
            assert_eq!(wd.waiting.load(Ordering::Relaxed), 1);
        }
        assert_eq!(wd.waiting.load(Ordering::Relaxed), 0);
        // Nobody waiting: no stall even after the window.
        std::thread::sleep(Duration::from_millis(10));
        assert!(!wd.observe(7));
    }
}
