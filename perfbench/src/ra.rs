//! `ra_fs` and `ra_fs_reliable`: HPCC RandomAccess by function shipping,
//! in the Figs. 13–14 structure.
//!
//! Each update is one 32-byte `Image::spawn_sized` read-modify-write
//! shipped to the owner of the table word. Each image issues its updates
//! in bunches of 256 per `Image::finish` (the paper's U-curve minimum,
//! below the 512-message inbox credit, so senders never stall). The loop
//! is closed: an image issues its next bunch only after the previous
//! finish returns. The reliable variant engages fail-stop detection with
//! windows of hundreds of ms and injects no faults, so every remote
//! message rides the ack/dedup/retry sublayer and heartbeats flow, but no
//! scheduler stall on a shared machine is ever confirmed as a death.
//!
//! Correctness gate: once a round ends, the benchmark re-applies every
//! image's slice of the stream to a copy of the table on one thread. The
//! xor update is self-inverse, so every word must return to its global
//! index; each word that does not counts as one failed update.

use std::time::{Duration, Instant};

use caf_runtime::{Coarray, FailureParams, Image, ImageId, Runtime, RuntimeConfig, RuntimeError};
use randomaccess::{next, starts};

use crate::phase::{FabricDelta, Phase};
use crate::trace::{self, Name, Tracer, ROOT};
use crate::{IMAGES, SETUP_PROBES};

/// Bunches between the collective "keep going?" checks.
const CHECK_EVERY: usize = 8;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct RaParams {
    /// log₂ of the table words per image.
    pub log_local: u32,
    /// Updates per image per finish block.
    pub bunch: usize,
    /// Launches per phase (each one a set-up sample).
    pub rounds: usize,
    /// Engage fail-stop detection (`ra_fs_reliable`).
    pub reliable: bool,
}

impl RaParams {
    /// The benchmark's sizes: 2^14 words (128 KiB) per image as in the
    /// threaded Fig. 13 harness, bunch 256, sixteen launches per phase.
    /// With 8 MiB per image, page faults made set-up time swing 2× between
    /// runs, while the table update is a small share of the per-message
    /// cost this workload targets.
    pub fn full(reliable: bool) -> Self {
        RaParams { log_local: 14, bunch: 256, rounds: 16, reliable }
    }
}

/// The default runtime configuration, plus fail-stop detection with
/// windows far above any scheduler stall for the reliable variant.
pub fn runtime_config(reliable: bool) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::default();
    if reliable {
        cfg.failure = Some(FailureParams {
            heartbeat_period: Duration::from_millis(25),
            suspect_after: Duration::from_millis(250),
            confirm_after: Duration::from_millis(250),
        });
    }
    cfg
}

/// Index into the global HPCC stream where `image`'s slice of `round`
/// starts. Slices are 2^32 updates apart, far more than a round issues.
pub fn stream_index(seed: u64, round: usize, image: usize) -> i64 {
    let base = (crate::mix64(seed) >> 24) as i64;
    base + (((round * IMAGES + image) as i64) << 32)
}

/// Allocates this image's table slice, fills each word with its global
/// index, and synchronizes: everything a launch does before its first
/// timed operation.
fn setup_table(img: &Image, log_local: u32) -> Coarray<u64> {
    let w = img.world();
    let me = img.id().index();
    let local = 1usize << log_local;
    let table = img.coarray(&w, local, 0u64);
    table.with_local(img.id(), |seg| {
        for (j, v) in seg.iter_mut().enumerate() {
            *v = (me * local + j) as u64;
        }
    });
    img.barrier(&w);
    table
}

/// Launch to the end of [`setup_table`] on image 0, s, for a launch that
/// then ends.
pub fn setup_probe(p: &RaParams, cfg: &RuntimeConfig) -> Result<f64, RuntimeError> {
    let launched = Instant::now();
    let out = Runtime::try_launch(IMAGES, cfg.clone(), |img| {
        setup_table(img, p.log_local);
        launched.elapsed().as_secs_f64()
    })?;
    Ok(out[0])
}

/// What one launch leaves for the correctness gate and the metrics.
pub struct Round {
    /// The table after the round.
    pub table: Coarray<u64>,
    /// Per image: stream start value and updates issued.
    pub streams: Vec<(u64, u64)>,
    /// Launch to first timed operation, s (image 0).
    pub setup_s: f64,
    /// Timed loop wall time (image 0).
    pub timed: Duration,
    /// Finish-call durations on image 0, µs.
    pub finish_us: Vec<f64>,
    /// Waves of each of image 0's finish calls.
    pub waves: Vec<f64>,
    /// Fabric traffic during the timed loop.
    pub fabric: FabricDelta,
    /// Spans of image 0.
    pub spans: Vec<trace::Span>,
    /// Peak RSS of the launch, MiB.
    pub rss_mib: f64,
}

struct ImageOut {
    setup_s: f64,
    timed: Duration,
    start: u64,
    updates: u64,
    finish_us: Vec<f64>,
    waves: Vec<f64>,
    fabric: FabricDelta,
    spans: Vec<trace::Span>,
    table: Coarray<u64>,
}

/// Runs one launch: set up the table, then ship bunches for `dur`.
pub fn round(
    p: &RaParams,
    cfg: &RuntimeConfig,
    seed: u64,
    r: usize,
    dur: Duration,
    traced: bool,
) -> Result<Round, RuntimeError> {
    crate::procfs::fresh_rss_window();
    let launched = Instant::now();
    let outs = Runtime::try_launch(IMAGES, cfg.clone(), |img| {
        let table = setup_table(img, p.log_local);
        let setup_s = launched.elapsed().as_secs_f64();
        let w = img.world();
        let me = img.id().index();
        let local = 1usize << p.log_local;
        let mask = (IMAGES * local - 1) as u64;
        let tr = Tracer::new(traced && me == 0);

        let start = starts(stream_index(seed, r, me));
        let mut ran = start;
        let mut bunches = 0u64;
        // Reserved up front (untouched capacity costs no RSS), so sample
        // storage grows linearly instead of in reallocation steps.
        let cap = if me == 0 { dur.as_micros() as usize / 50 + 64 } else { 0 };
        let mut finish_us = Vec::with_capacity(cap);
        let mut waves = Vec::with_capacity(cap);
        let before = img.fabric_stats();
        let t0 = Instant::now();
        let deadline = t0 + dur;
        loop {
            for _ in 0..CHECK_EVERY {
                let id = bunches as u32;
                let t = Instant::now();
                let f = tr.open(Name::Finish, id, ROOT);
                img.finish(&w, |img| {
                    let b = tr.open(Name::FinishBody, id, f);
                    for _ in 0..p.bunch {
                        ran = next(ran);
                        let idx = (ran & mask) as usize;
                        let owner = ImageId(idx >> p.log_local);
                        let offset = idx & (local - 1);
                        let t = table.clone();
                        let val = ran;
                        let s = tr.open(Name::Spawn, id, b);
                        img.spawn_sized(owner, 32, move |o: &Image| {
                            t.with_local(o.id(), |seg| seg[offset] ^= val);
                        });
                        tr.close(s);
                    }
                    tr.close(b);
                });
                tr.close(f);
                if me == 0 {
                    finish_us.push(t.elapsed().as_secs_f64() * 1e6);
                    waves.push(img.last_finish_waves() as f64);
                }
                bunches += 1;
            }
            let more = u64::from(me == 0 && Instant::now() < deadline);
            if img.allreduce(&w, more, |a: u64, b: u64| a.max(b)) == 0 {
                break;
            }
        }
        let timed = t0.elapsed();
        let fabric = FabricDelta::between(before, img.fabric_stats());
        ImageOut {
            setup_s,
            timed,
            start,
            updates: bunches * p.bunch as u64,
            finish_us,
            waves,
            fabric,
            spans: tr.into_spans(),
            table,
        }
    })?;
    let rss_mib = crate::procfs::peak_rss_mib().unwrap_or(f64::NAN);
    let streams = outs.iter().map(|o| (o.start, o.updates)).collect();
    let o = outs.into_iter().next().expect("image 0 result");
    Ok(Round {
        table: o.table,
        streams,
        setup_s: o.setup_s,
        timed: o.timed,
        finish_us: o.finish_us,
        waves: o.waves,
        fabric: o.fabric,
        spans: o.spans,
        rss_mib,
    })
}

/// The correctness gate: re-applies every stream slice to a copy of the
/// table and counts the words that do not return to their global index.
pub fn words_not_restored(table: &Coarray<u64>, streams: &[(u64, u64)]) -> u64 {
    let local = table.len_per_image();
    let mut all: Vec<u64> = Vec::with_capacity(IMAGES * local);
    for &img in table.members() {
        all.extend(table.read(img, 0..local));
    }
    let mask = (all.len() - 1) as u64;
    for &(start, count) in streams {
        let mut ran = start;
        for _ in 0..count {
            ran = next(ran);
            all[(ran & mask) as usize] ^= ran;
        }
    }
    all.iter().enumerate().filter(|(j, v)| **v != *j as u64).count() as u64
}

/// Runs `p.rounds` launches sharing `secs` of timed loops, each preceded
/// by [`SETUP_PROBES`] set-up probes.
pub fn run_phase(p: &RaParams, seed: u64, secs: f64, traced: bool, round_base: usize) -> Phase {
    let cfg = runtime_config(p.reliable);
    let per_round = Duration::from_secs_f64(secs / p.rounds as f64);
    let mut ph = Phase { fabric: Some(FabricDelta::default()), ..Phase::default() };
    for r in round_base..round_base + p.rounds {
        for _ in 0..SETUP_PROBES {
            match setup_probe(p, &cfg) {
                Ok(s) => ph.setup_s.push(s),
                Err(e) => ph.fatal(format!("set-up probe before round {r}: {e}")),
            }
        }
        match round(p, &cfg, seed, r, per_round, traced) {
            Ok(out) => {
                let updates: u64 = out.streams.iter().map(|s| s.1).sum();
                ph.add_round(updates, out.timed, out.finish_us);
                let bad = words_not_restored(&out.table, &out.streams);
                if bad > 0 {
                    ph.fail(bad, format!("round {r}: {bad} table words not restored"));
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

    fn tiny(reliable: bool) -> RaParams {
        RaParams { log_local: 10, bunch: 64, rounds: 2, reliable }
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream_index(7, 3, 1), stream_index(7, 3, 1));
        assert_ne!(stream_index(7, 3, 1), stream_index(8, 3, 1));
        assert_ne!(stream_index(7, 3, 0), stream_index(7, 3, 1));
        assert_ne!(stream_index(7, 2, 1), stream_index(7, 3, 1));
    }

    #[test]
    fn smoke_runs_pass_the_gate() {
        for reliable in [false, true] {
            let ph = run_phase(&tiny(reliable), 11, 0.1, true, 0);
            assert!(ph.errors.is_empty(), "{:?}", ph.errors);
            assert!(ph.ops > 0 && ph.failed == 0);
            assert_eq!(ph.setup_s.len(), 2 * (1 + SETUP_PROBES));
            assert!(ph.spans.iter().any(|s| s.name == Name::Spawn));
        }
    }

    #[test]
    fn corrupted_update_is_caught() {
        let p = tiny(false);
        let out = round(&p, &runtime_config(false), 5, 0, Duration::from_millis(20), false)
            .expect("clean run");
        assert_eq!(words_not_restored(&out.table, &out.streams), 0);
        // Deliver the first update of image 0's slice a second time, as a
        // duplicated shipped function would.
        let val = next(out.streams[0].0);
        let local = out.table.len_per_image();
        let idx = (val & (IMAGES * local - 1) as u64) as usize;
        out.table.with_segment(ImageId(idx / local), |seg| seg[idx % local] ^= val);
        assert_eq!(words_not_restored(&out.table, &out.streams), 1);
    }
}
