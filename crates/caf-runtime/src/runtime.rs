//! Runtime launch and process-wide shared state.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use caf_core::config::RuntimeConfig;
use caf_core::fault::FaultPlan;
use caf_core::ids::{ImageId, TeamId};
use caf_net::Fabric;
use parking_lot::Mutex;

use crate::abort::{verdict, AbortUnwind, ImageReport, RuntimeError};
use crate::event::EventTable;
use crate::failure::FailureHub;
use crate::image::Image;
use crate::msg::Msg;
use crate::watchdog::Watchdog;

/// State shared by every image (and their communication threads).
pub(crate) struct Shared {
    /// The simulated interconnect.
    pub fabric: Arc<Fabric<Msg>>,
    /// Runtime configuration.
    pub cfg: RuntimeConfig,
    /// Number of images.
    pub n: usize,
    /// One event table per image, indexed by image rank. Shared so remote
    /// notifies (handled by the owner) and comm threads (local notifies)
    /// can both reach them.
    pub event_tables: Vec<EventTable>,
    /// Collective-allocation registry: the first image to allocate
    /// `(team, seq)` creates the coarray; teammates attach to it. Entries
    /// live for the runtime's lifetime (coarrays in CAF are symmetric,
    /// long-lived objects; per-allocation this costs one boxed handle).
    pub allocs: Mutex<HashMap<(TeamId, u64), Box<dyn Any + Send>>>,
    /// `team_split` id registry: `(parent, split_seq, color) → TeamId`,
    /// so every member of a new team agrees on its id.
    pub team_ids: Mutex<HashMap<(TeamId, u64, u64), TeamId>>,
    /// Next fresh team id (0 is `team_world`).
    pub next_team: AtomicU64,
    /// The no-progress watchdog, when `cfg.watchdog` configures one.
    pub watchdog: Option<Watchdog>,
    /// The failure hub, when `cfg.failure` engages fail-stop detection.
    pub failure: Option<FailureHub>,
    /// Reports filed by images on the abort path.
    pub reports: Mutex<Vec<ImageReport>>,
}

/// Entry point for the threaded CAF 2.0 runtime.
pub struct Runtime;

impl Runtime {
    /// Launches `n` process images, each running `f` on its own OS thread
    /// (the SPMD model: the same program starts everywhere and images
    /// diverge on their rank). Returns every image's result, indexed by
    /// rank.
    ///
    /// The closure may freely capture the caller's environment by
    /// reference; images communicate only through the runtime.
    ///
    /// # Panics
    /// Panics if `n == 0`, any image panics, or the no-progress watchdog
    /// declares a stall (use [`Runtime::try_launch`] to handle stalls as
    /// values).
    pub fn launch<R, F>(n: usize, cfg: RuntimeConfig, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Image) -> R + Send + Sync,
    {
        match Runtime::try_launch(n, cfg, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Runtime::launch`], but a stall detected by the configured
    /// no-progress watchdog (`cfg.watchdog`) comes back as
    /// [`RuntimeError::Stalled`], and — with failure detection engaged
    /// (`cfg.failure`) — a fail-stopped image (crash fault or uncaught
    /// panic in the closure) comes back as [`RuntimeError::ImageFailed`]
    /// from *every* surviving image's perspective, instead of a panic or
    /// a hang. With both engaged, a confirmed death outranks a stall.
    /// Without a watchdog or failure detection this never returns `Err`
    /// (a genuine hang stays a hang — there is nothing watching).
    ///
    /// # Panics
    /// Panics if `n == 0` or any image panics for a reason other than a
    /// declared stall or detected failure (panics are translated into
    /// `ImageFailed` only when `cfg.failure` is engaged).
    pub fn try_launch<R, F>(n: usize, cfg: RuntimeConfig, f: F) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        F: Fn(&Image) -> R + Send + Sync,
    {
        assert!(n > 0, "at least one image required");
        // A fault plan or failure detection routes all traffic through the
        // ack/retry sublayer; otherwise the wire is lossless and the
        // fabric stays raw.
        let fabric = if cfg.faults.is_some() || cfg.failure.is_some() {
            let plan = cfg.faults.clone().unwrap_or_else(|| FaultPlan::none(cfg.seed));
            Fabric::with_chaos(
                n,
                cfg.network.clone(),
                cfg.non_fifo,
                plan,
                cfg.retry.clone(),
                cfg.failure.clone(),
            )
        } else {
            Fabric::new(n, cfg.network.clone(), cfg.non_fifo)
        };
        let shared = Arc::new(Shared {
            fabric,
            n,
            event_tables: (0..n).map(|_| EventTable::default()).collect(),
            allocs: Mutex::new(HashMap::new()),
            team_ids: Mutex::new(HashMap::new()),
            next_team: AtomicU64::new(1),
            watchdog: cfg.watchdog.map(|window| Watchdog::new(window, n)),
            failure: cfg.failure.as_ref().map(|_| FailureHub::new()),
            reports: Mutex::new(Vec::new()),
            cfg,
        });
        let joined: Vec<Result<R, Box<dyn Any + Send>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    let f = &f;
                    std::thread::Builder::new()
                        .name(format!("caf-img-{i}"))
                        .spawn_scoped(scope, move || {
                            let _live = shared.watchdog.as_ref().map(|w| w.live_guard());
                            let img = Image::new(Arc::clone(&shared), ImageId(i));
                            // Fail-stop boundary: under `cfg.failure` an
                            // uncaught panic in the closure kills this
                            // image, not the launch.
                            let r =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&img)))
                                    .unwrap_or_else(|payload| img.die_of_panic(payload));
                            img.shutdown();
                            r
                        })
                        .expect("spawning image thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut out = Vec::with_capacity(n);
        let mut aborted = false;
        for r in joined {
            match r {
                Ok(v) => out.push(v),
                Err(payload) if payload.is::<AbortUnwind>() => aborted = true,
                // A genuine panic (assertion failure, user bug) outranks an
                // abort: peers aborted only because the panicking image
                // stopped participating.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        if aborted {
            return Err(verdict(&shared));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_every_image_once() {
        let ranks = Runtime::launch(4, RuntimeConfig::testing(), |img| img.id().index());
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn closure_may_borrow_environment() {
        let base = 100usize;
        let out = Runtime::launch(3, RuntimeConfig::testing(), |img| base + img.id().index());
        assert_eq!(out, vec![100, 101, 102]);
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn zero_images_rejected() {
        let _ = Runtime::launch(0, RuntimeConfig::testing(), |_| ());
    }
}
