//! The one abort path: how a launch whose `finish` can never complete
//! comes back as a [`RuntimeError`] instead of a hang.
//!
//! Two detectors can decide that `end finish` (paper Fig. 7) will never
//! return: the no-progress watchdog latches a *stall*, and the fail-stop
//! hub registers a confirmed *death*. Either way every image reacts the
//! same. Each blocking construct polls `Image::check_abort`, which runs
//! the one abort routine: poison open finish epochs if a death is
//! registered, poke every inbox, file one [`ImageReport`], and unwind
//! with the one payload `AbortUnwind`. `Shared::aborting` is the one home
//! of "the launch is coming down": a comm thread parked on a predicate
//! event reads it too, so the unwinding image can join it. Once any image
//! unwinds, `Runtime::try_launch` takes the verdict from shared state: a
//! registered death gives
//! [`RuntimeError::ImageFailed`], otherwise the latched watchdog gives
//! [`RuntimeError::Stalled`]. A death outranks a stall, because
//! survivors stall only since the dead image stopped participating.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use caf_core::fault::FIRST_INCARNATION;
use caf_core::ids::{FinishId, ImageId};
use caf_core::termination::WaveDetector;
use caf_core::trace::TraceEvent;
use caf_net::FabricTotals;

use crate::failure::FailureHub;
use crate::image::{Image, CTRL_BYTES};
use crate::msg::Msg;
use crate::runtime::Shared;
use crate::watchdog::{WaitGuard, Watchdog};

/// Panic payload of every image thread that leaves the launch early:
/// survivors aborting, and a dead image's own thread. Delivered via
/// `resume_unwind` so the global panic hook stays silent — the abort is
/// reported once, as a [`RuntimeError`], not once per thread.
pub(crate) struct AbortUnwind;

/// Snapshot of one `finish` block's termination detector at abort time.
/// Counters are cumulative over the life of the block.
#[derive(Debug, Clone)]
pub struct FinishDiag {
    /// Which finish block.
    pub finish: FinishId,
    /// Messages this image sent under the block.
    pub sent: u64,
    /// Of those, acknowledged as delivered.
    pub delivered: u64,
    /// Messages this image received under the block.
    pub received: u64,
    /// Of those, completed executing locally.
    pub completed: u64,
    /// Reduction waves the detector has run.
    pub waves: usize,
}

/// One image's state when it aborted. Both reports carry one per image
/// that took part in the abort.
#[derive(Debug, Clone)]
pub struct ImageReport {
    /// Image rank.
    pub image: usize,
    /// The blocking construct the image aborted in ("finish",
    /// "barrier", "collective", "event_wait", "copy", "cofence",
    /// "send", or "shutdown").
    pub construct: &'static str,
    /// Undelivered messages queued at this image's inbox.
    pub inbox_depth: usize,
    /// Unacknowledged reliable messages this image owns as a sender.
    pub retry_backlog: usize,
    /// Active messages waiting in this image's aggregation buffers, as
    /// `(destination, count)` for each destination with any.
    pub buffered: Vec<(usize, usize)>,
    /// Implicit asynchronous operations still tracked for `cofence`.
    pub pending_ops: usize,
    /// Per-finish detector snapshots (every block this image has open;
    /// after a death, all poisoned by then).
    pub finishes: Vec<FinishDiag>,
}

impl fmt::Display for ImageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  image {} observed it in {}: inbox {} deep, retry backlog {}, {} pending op(s)",
            self.image, self.construct, self.inbox_depth, self.retry_backlog, self.pending_ops
        )?;
        for (dest, count) in &self.buffered {
            writeln!(f, "    {count} AM(s) for image {dest} not yet on the wire")?;
        }
        for d in &self.finishes {
            writeln!(
                f,
                "    {}: sent {} delivered {} received {} completed {} ({} waves)",
                d.finish, d.sent, d.delivered, d.received, d.completed, d.waves
            )?;
        }
        Ok(())
    }
}

/// The structured diagnostic produced when the runtime stalls.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// The configured no-progress window that elapsed.
    pub window: Duration,
    /// Per-image diagnostics, sorted by rank. Images that had already
    /// returned from the SPMD closure when the stall was declared are
    /// absent.
    pub images: Vec<ImageReport>,
    /// Fabric totals at the verdict.
    pub fabric: FabricTotals,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.fabric;
        writeln!(
            f,
            "no progress for {:?}: fabric sent {} / delivered {} (retries {}, \
             exhausted {}, wire drops {}, dups {} injected / {} discarded)",
            self.window,
            t.messages,
            t.delivered,
            t.retries,
            t.retries_exhausted,
            t.wire_drops,
            t.wire_dups,
            t.dups_discarded
        )?;
        self.images.iter().try_for_each(|img| write!(f, "{img}"))
    }
}

/// The structured diagnostic a failed launch returns.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The image that fail-stopped.
    pub image: usize,
    /// Its incarnation at death; traffic stamped `<=` this is posthumous.
    pub incarnation: u64,
    /// Crash-to-confirmation latency at the first confirming observer.
    /// `None` when the fabric never saw the crash fire (it learned of
    /// the death another way).
    pub detection_latency: Option<Duration>,
    /// The panic message, when the image died of an uncaught panic.
    pub panic: Option<String>,
    /// Survivors' reports, sorted by rank.
    pub observers: Vec<ImageReport>,
    /// Fabric totals at the verdict.
    pub fabric: FabricTotals,
    /// Messages discarded by the team-wide inbox drain at teardown.
    pub drained: usize,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image {} failed (incarnation {})", self.image, self.incarnation)?;
        if let Some(lat) = self.detection_latency {
            write!(f, ", detected in {lat:?}")?;
        }
        if let Some(msg) = &self.panic {
            write!(f, ", panic: {msg:?}")?;
        }
        let t = &self.fabric;
        writeln!(
            f,
            "; fabric crash-dropped {}, posthumous {}, heartbeats {}, drained {}",
            t.crash_drops, t.posthumous_drops, t.heartbeats, self.drained
        )?;
        self.observers.iter().try_for_each(|img| write!(f, "{img}"))
    }
}

/// Errors a launch can end in instead of a result.
#[derive(Debug)]
pub enum RuntimeError {
    /// The no-progress watchdog fired: no image made progress for the
    /// configured window. Carries the full diagnostic dump.
    Stalled(Box<StallReport>),
    /// An image fail-stopped (crash fault or uncaught panic) and the
    /// failure detector confirmed it. Carries which image died, the
    /// detection latency, and every survivor's parting report.
    ImageFailed(Box<FailureReport>),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Stalled(report) => write!(f, "runtime stalled — {report}"),
            RuntimeError::ImageFailed(report) => write!(f, "image failure — {report}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl Shared {
    /// Whether the launch is coming down: a death is registered, or the
    /// watchdog has latched a stall. Image threads act on it in
    /// [`Image::check_abort`]; a communication thread waiting on a
    /// predicate event gives its task up.
    pub(crate) fn aborting(&self) -> bool {
        self.failure.as_ref().is_some_and(FailureHub::poisoned)
            || self.watchdog.as_ref().is_some_and(Watchdog::stalled)
    }
}

/// The launch's verdict once some image unwound with [`AbortUnwind`]: a
/// registered death, else the latched stall.
pub(crate) fn verdict(shared: &Shared) -> RuntimeError {
    let mut images = std::mem::take(&mut *shared.reports.lock());
    images.sort_by_key(|r| r.image);
    let hub = shared.failure.as_ref();
    if let Some(down) = hub.and_then(FailureHub::down) {
        // Team-wide drain: discard in-flight traffic addressed to
        // threads that no longer exist, so teardown never blocks.
        let drained = shared.fabric.drain_inboxes();
        return RuntimeError::ImageFailed(Box::new(FailureReport {
            image: down.peer,
            incarnation: down.incarnation,
            detection_latency: down.latency,
            panic: hub.and_then(FailureHub::take_panic),
            observers: images,
            fabric: shared.fabric.stats().snapshot(),
            drained,
        }));
    }
    let wd = shared.watchdog.as_ref().expect("abort without a registered death or a stall");
    RuntimeError::Stalled(Box::new(StallReport {
        window: wd.window(),
        images,
        fabric: shared.fabric.stats().snapshot(),
    }))
}

impl Image {
    /// Aborts this image if the launch is coming down. Every blocking
    /// construct polls this on each park iteration, passing its watchdog
    /// wait guard so the poll also files a progress observation; a
    /// sender polls it on every send with `None`, since a running sender
    /// is not blocked. A confirmed peer death is posted to the hub (the
    /// first observer owns the team-wide `ImageDown` broadcast); a crash
    /// fault aimed at *this* image fail-stops its thread silently, as
    /// fail-stop demands: survivors must detect the death, the victim
    /// does not announce it. Any image then aborts once
    /// [`Shared::aborting`] holds.
    pub(crate) fn check_abort(&self, construct: &'static str, waiting: Option<&WaitGuard<'_>>) {
        let fabric = &self.shared.fabric;
        if let Some(hub) = &self.shared.failure {
            if fabric.is_crashed(self.id()) {
                std::panic::resume_unwind(Box::new(AbortUnwind));
            }
            for down in fabric.poll_failures(self.id()) {
                if hub.post(down.peer, down.incarnation, down.latency) {
                    self.broadcast_down(down.peer, down.incarnation);
                }
            }
        }
        if waiting.is_some_and(|w| w.observe(self.progress_fingerprint())) || self.shared.aborting()
        {
            self.abort(construct);
        }
    }

    /// The abort routine: poisons every open finish epoch when a death is
    /// registered (their waves can never close with a dead member), wakes
    /// the whole team, files this image's report, and unwinds.
    fn abort(&self, construct: &'static str) -> ! {
        if let Some(down) = self.shared.failure.as_ref().and_then(FailureHub::down) {
            self.poison_open_finishes(down.peer);
        }
        for i in 0..self.shared.n {
            self.shared.fabric.poke(ImageId(i));
        }
        let report = self.report(construct);
        self.shared.reports.lock().push(report);
        std::panic::resume_unwind(Box::new(AbortUnwind));
    }

    /// Poisons every finish block this image has open: `victim` will
    /// never join their waves.
    pub(crate) fn poison_open_finishes(&self, victim: usize) {
        let mut st = self.st.borrow_mut();
        for (fid, detector) in st.finish_frames.iter_mut() {
            detector.poison(victim);
            self.trace(|| TraceEvent::Poison {
                image: self.id().index(),
                finish: Image::trace_fid(*fid),
                victim,
            });
        }
    }

    /// Tells every other survivor about a confirmed death, riding the
    /// reliable ack/retry sublayer (the in-process hub already knows; the
    /// wire broadcast keeps the protocol honest under message loss).
    fn broadcast_down(&self, image: usize, incarnation: u64) {
        for i in (0..self.shared.n).filter(|&i| i != self.id().index() && i != image) {
            self.shared.fabric.send_unthrottled(
                self.id(),
                ImageId(i),
                CTRL_BYTES,
                Msg::ImageDown { image, incarnation },
            );
        }
    }

    /// The image boundary: the closure unwound with `payload`. The abort
    /// payload, and any panic without fail-stop detection, keeps
    /// unwinding unchanged. Under fail-stop detection a real panic kills
    /// this image, not the launch: it records the panic message, posts
    /// the death (the boundary *is* the detector here — zero latency),
    /// broadcasts it before this image's traffic is silenced, then
    /// silences it and unwinds with the abort payload.
    pub(crate) fn die_of_panic(&self, payload: Box<dyn Any + Send>) -> ! {
        let hub = match &self.shared.failure {
            Some(hub) if !payload.is::<AbortUnwind>() => hub,
            _ => std::panic::resume_unwind(payload),
        };
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        if let Some(m) = msg {
            hub.set_panic(m);
        }
        if hub.post(self.id().index(), FIRST_INCARNATION, Some(Duration::ZERO)) {
            self.broadcast_down(self.id().index(), FIRST_INCARNATION);
        }
        self.shared.fabric.mark_crashed(self.id());
        for i in 0..self.shared.n {
            self.shared.fabric.poke(ImageId(i));
        }
        std::panic::resume_unwind(Box::new(AbortUnwind));
    }

    /// Global progress fingerprint: any logical send, exactly-once
    /// delivery, retransmission, or retry-budget exhaustion moves it.
    /// Retries count as progress, so the watchdog's window cannot elapse
    /// while the reliable-delivery layer is still spending its budget.
    fn progress_fingerprint(&self) -> u64 {
        let t = self.shared.fabric.stats().snapshot();
        t.messages + t.delivered + t.retries + t.retries_exhausted
    }

    /// This image's report: the construct it aborted in, its queue
    /// depths, and the last-known epoch counters of its finish blocks.
    fn report(&self, construct: &'static str) -> ImageReport {
        let st = self.st.borrow();
        let mut finishes: Vec<FinishDiag> = st
            .finish_frames
            .iter()
            .map(|(fid, detector)| {
                let c = detector.epochs().counters();
                FinishDiag {
                    finish: *fid,
                    sent: c.sent,
                    delivered: c.delivered,
                    received: c.received,
                    completed: c.completed,
                    waves: detector.waves(),
                }
            })
            .collect();
        finishes.sort_by_key(|d| d.finish);
        ImageReport {
            image: self.id().index(),
            construct,
            inbox_depth: self.shared.fabric.inbox_depth(self.id()),
            retry_backlog: self.shared.fabric.retry_backlog(self.id()),
            buffered: st
                .out
                .iter()
                .map(|b| b.ams.len())
                .enumerate()
                .filter(|&(_, count)| count > 0)
                .collect(),
            pending_ops: st.pending_scopes.iter().map(Vec::len).sum(),
            finishes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_core::ids::TeamId;

    fn image_report(construct: &'static str, finishes: Vec<FinishDiag>) -> ImageReport {
        ImageReport {
            image: 0,
            construct,
            inbox_depth: 3,
            retry_backlog: 2,
            buffered: vec![(1, 4)],
            pending_ops: 1,
            finishes,
        }
    }

    #[test]
    fn stall_report_renders_every_layer() {
        let report = StallReport {
            window: Duration::from_millis(100),
            images: vec![image_report(
                "finish",
                vec![FinishDiag {
                    finish: FinishId { team: TeamId(0), seq: 1 },
                    sent: 5,
                    delivered: 4,
                    received: 2,
                    completed: 2,
                    waves: 7,
                }],
            )],
            fabric: FabricTotals {
                messages: 10,
                delivered: 9,
                retries: 12,
                retries_exhausted: 1,
                wire_drops: 6,
                wire_dups: 4,
                dups_discarded: 3,
                ..FabricTotals::default()
            },
        };
        let text = RuntimeError::Stalled(Box::new(report)).to_string();
        for needle in [
            "no progress",
            "image 0",
            "observed it in finish",
            "inbox 3",
            "retry backlog 2",
            "4 AM(s) for image 1 not yet on the wire",
            "sent 5",
            "7 waves",
            "exhausted 1",
            "dups 4 injected / 3 discarded",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn failure_report_renders_observers_and_counters() {
        let report = FailureReport {
            image: 3,
            incarnation: 1,
            detection_latency: Some(Duration::from_millis(6)),
            panic: Some("boom".into()),
            observers: vec![image_report("finish", Vec::new())],
            fabric: FabricTotals {
                crash_drops: 12,
                posthumous_drops: 2,
                heartbeats: 40,
                ..FabricTotals::default()
            },
            drained: 5,
        };
        let text = report.to_string();
        for needle in ["image 3 failed", "detected in", "boom", "observed it in finish", "inbox 3"]
        {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
