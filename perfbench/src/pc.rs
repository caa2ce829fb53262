//! `pc_cofence`, `pc_event` and `pc_finish`: the Fig. 11 producer–consumer
//! loop at one completion level each.
//!
//! Image 0 stamps a local 80-byte buffer, issues five `copy_async_from`
//! of it into five slots of image 1's coarray, then completes the
//! iteration at the workload's level before it may overwrite the buffer:
//!
//! * cofence — `Image::cofence` (local data completion: the source was
//!   read and the data injected);
//! * event — a destination event per copy, five `Image::event_wait`
//!   (local operation completion: the data landed);
//! * finish — the iteration is one `Image::finish` block on both images
//!   (global completion, one termination-detection allreduce or more).
//!
//! The loop is closed and latency-bound: a few messages per completion.
//! Correctness gate: after the round, every slot of image 1's buffer must
//! hold the producer's last stamp.

use std::time::{Duration, Instant};

use caf_runtime::{
    Coarray, CopyEvents, Event, Image, LocalArray, Runtime, RuntimeConfig, RuntimeError,
};

use crate::phase::{FabricDelta, Phase};
use crate::trace::{self, Name, Tracer, ROOT};
use crate::{IMAGES, SETUP_PROBES};

/// Copies per iteration.
pub const COPIES: usize = 5;
/// Words per copy (80 bytes).
pub const WORDS: usize = 10;
/// Iterations between the collective "keep going?" checks.
const CHECK_EVERY: usize = 64;
/// How long image 1 may wait for the last copies to land before the gate
/// fails.
const GATE_WAIT: Duration = Duration::from_secs(2);

/// The completion level that ends each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `cofence()`.
    Cofence,
    /// `event_wait` on destination events.
    Event,
    /// A `finish` block per iteration.
    Finish,
}

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct PcParams {
    /// Completion level.
    pub level: Level,
    /// Launches per phase (each one a set-up sample).
    pub rounds: usize,
}

impl PcParams {
    /// The benchmark's sizes: 24 launches per phase, so that the faster
    /// half of them spans the quiet stretches of a run.
    pub fn full(level: Level) -> Self {
        PcParams { level, rounds: 24 }
    }
}

/// What one launch yields (image 0's view, plus image 1's gate verdict).
pub struct Round {
    /// Iterations completed.
    pub iterations: u64,
    /// Whether image 1 saw the last stamp in every slot.
    pub gate_ok: bool,
    /// Launch to first timed operation, s.
    pub setup_s: f64,
    /// Timed loop wall time.
    pub timed: Duration,
    /// Iteration latencies, µs.
    pub iter_us: Vec<f64>,
    /// Waves of each finish call (finish level).
    pub waves: Vec<f64>,
    /// Fabric traffic during the timed loop.
    pub fabric: FabricDelta,
    /// Spans of image 0.
    pub spans: Vec<trace::Span>,
    /// Peak RSS of the launch, MiB.
    pub rss_mib: f64,
}

/// Allocates the consumer buffer, the producer's source buffer and the
/// completion event, and synchronizes: everything a launch does before
/// its first timed operation.
fn setup(img: &Image) -> (Coarray<u64>, LocalArray<u64>, Event) {
    let buf = img.coarray(&img.world(), COPIES * WORDS, 0u64);
    let src = LocalArray::new(vec![0u64; WORDS]);
    let done = img.event();
    img.barrier(&img.world());
    (buf, src, done)
}

/// Launch to the end of [`setup`] on image 0, s, for a launch that then
/// ends.
pub fn setup_probe(cfg: &RuntimeConfig) -> Result<f64, RuntimeError> {
    let launched = Instant::now();
    let out = Runtime::try_launch(IMAGES, cfg.clone(), |img| {
        setup(img);
        launched.elapsed().as_secs_f64()
    })?;
    Ok(out[0])
}

/// Runs one launch: allocate the consumer buffer, then iterate for `dur`.
pub fn round(
    p: &PcParams,
    cfg: &RuntimeConfig,
    dur: Duration,
    traced: bool,
) -> Result<Round, RuntimeError> {
    crate::procfs::fresh_rss_window();
    let launched = Instant::now();
    let mut outs = Runtime::try_launch(IMAGES, cfg.clone(), |img| {
        let (buf, src, done) = setup(img);
        let setup_s = launched.elapsed().as_secs_f64();
        let w = img.world();
        let producer = img.id().index() == 0;
        let consumer = img.image(1);
        let tr = Tracer::new(traced && producer);

        // Stamp the source and issue the five copies of one iteration.
        let produce = |img: &Image, stamp: u64, parent: u32, ev: CopyEvents| {
            src.with(|b| b.fill(stamp));
            for k in 0..COPIES {
                let c = tr.open(Name::Copy, stamp as u32, parent);
                img.copy_async_from(
                    buf.slice(consumer, k * WORDS..(k + 1) * WORDS),
                    &src,
                    0..WORDS,
                    ev,
                );
                tr.close(c);
            }
        };

        let mut iterations = 0u64;
        // Reserved up front (untouched capacity costs no RSS), so sample
        // storage grows linearly instead of in reallocation steps.
        let cap = if producer { dur.as_micros() as usize / 4 + 64 } else { 0 };
        let mut iter_us = Vec::with_capacity(cap);
        let mut waves = Vec::with_capacity(if p.level == Level::Finish { cap } else { 0 });
        let before = img.fabric_stats();
        let t0 = Instant::now();
        let deadline = t0 + dur;
        loop {
            for _ in 0..CHECK_EVERY {
                if !producer && p.level != Level::Finish {
                    break;
                }
                let stamp = iterations + 1;
                let id = stamp as u32;
                let t = Instant::now();
                let it = tr.open(Name::Iteration, id, ROOT);
                match p.level {
                    Level::Cofence => {
                        produce(img, stamp, it, CopyEvents::none());
                        let c = tr.open(Name::Cofence, id, it);
                        img.cofence();
                        tr.close(c);
                    }
                    Level::Event => {
                        produce(img, stamp, it, CopyEvents::on_dest(done));
                        for _ in 0..COPIES {
                            let e = tr.open(Name::EventWait, id, it);
                            img.event_wait(done);
                            tr.close(e);
                        }
                    }
                    Level::Finish => {
                        let f = tr.open(Name::Finish, id, it);
                        img.finish(&w, |img| {
                            if producer {
                                let b = tr.open(Name::FinishBody, id, f);
                                produce(img, stamp, b, CopyEvents::none());
                                tr.close(b);
                            }
                        });
                        tr.close(f);
                        if producer {
                            waves.push(img.last_finish_waves() as f64);
                        }
                    }
                }
                tr.close(it);
                if producer {
                    iter_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                iterations += 1;
            }
            let more = u64::from(producer && Instant::now() < deadline);
            if img.allreduce(&w, more, |a: u64, b: u64| a.max(b)) == 0 {
                break;
            }
        }
        let timed = t0.elapsed();
        let fabric = FabricDelta::between(before, img.fabric_stats());

        // Gate: the consumer must end up holding the last stamp.
        let last =
            img.allreduce(&w, if producer { iterations } else { 0 }, |a: u64, b: u64| a.max(b));
        let mut gate_ok = true;
        if !producer {
            let holds = || buf.with_local(img.id(), |seg| seg.iter().all(|&v| v == last));
            let until = Instant::now() + GATE_WAIT;
            while !holds() && Instant::now() < until {
                if !img.progress() {
                    std::thread::yield_now();
                }
            }
            gate_ok = holds();
        }
        Round {
            iterations,
            gate_ok,
            setup_s,
            timed,
            iter_us,
            waves,
            fabric,
            spans: tr.into_spans(),
            // Filled in once every thread of the launch has ended.
            rss_mib: f64::NAN,
        }
    })?;
    let consumer_ok = outs[1].gate_ok;
    let mut out = outs.swap_remove(0);
    out.gate_ok &= consumer_ok;
    out.rss_mib = crate::procfs::peak_rss_mib().unwrap_or(f64::NAN);
    Ok(out)
}

/// Runs `p.rounds` launches sharing `secs` of timed loops, each preceded
/// by [`SETUP_PROBES`] set-up probes.
pub fn run_phase(p: &PcParams, secs: f64, traced: bool) -> Phase {
    let cfg = RuntimeConfig::default();
    let per_round = Duration::from_secs_f64(secs / p.rounds as f64);
    let mut ph = Phase { fabric: Some(FabricDelta::default()), ..Phase::default() };
    for r in 0..p.rounds {
        for _ in 0..SETUP_PROBES {
            match setup_probe(&cfg) {
                Ok(s) => ph.setup_s.push(s),
                Err(e) => ph.fatal(format!("set-up probe before round {r}: {e}")),
            }
        }
        match round(p, &cfg, per_round, traced) {
            Ok(out) => {
                ph.add_round(out.iterations, out.timed, out.iter_us);
                if !out.gate_ok {
                    ph.fail(out.iterations, format!("round {r}: consumer lacks the last stamp"));
                }
                ph.setup_s.push(out.setup_s);
                ph.rss_mib.push(out.rss_mib);
                ph.waves.extend(out.waves);
                if let Some(f) = ph.fabric.as_mut() {
                    f.add(out.fabric);
                }
                trace::append(&mut ph.spans, out.spans);
            }
            Err(e) => ph.fatal(format!("round {r}: {e}")),
        }
    }
    ph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_pass_the_gate_at_every_level() {
        for level in [Level::Cofence, Level::Event, Level::Finish] {
            let ph = run_phase(&PcParams { level, rounds: 2 }, 0.1, true);
            assert!(ph.errors.is_empty(), "{level:?}: {:?}", ph.errors);
            assert!(ph.ops > 0 && ph.failed == 0, "{level:?}");
            let samples: usize = ph.blocks.iter().map(|b| b.sync_us.len()).sum();
            assert_eq!(samples as u64, ph.ops, "{level:?}");
            let expect = match level {
                Level::Cofence => Name::Cofence,
                Level::Event => Name::EventWait,
                Level::Finish => Name::FinishBody,
            };
            assert!(ph.spans.iter().any(|s| s.name == expect), "{level:?}");
        }
    }
}
