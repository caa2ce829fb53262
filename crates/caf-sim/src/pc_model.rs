//! The cofence micro-benchmark at paper scale (Figs. 11–12).
//!
//! Paper Fig. 11's sketch: inside a `finish`, the producer (image 0)
//! iterates — five 80-byte `copy_async`es to random images, then one of
//! three completion strategies, then produce the next buffer:
//!
//! * **cofence** — wait for *local data completion* only (the source
//!   snapshot on the communication thread);
//! * **events** — `event_wait` on each copy's `destE`: wait for delivery
//!   to the destination plus the notification hop back;
//! * **finish** — an inner `finish` per iteration: *global* completion,
//!   paying the team allreduce (twice, in fact: receivers enter the wave
//!   before the copies land, so the first wave's sum is nonzero — the
//!   same two-wave pattern the real runtime exhibits).
//!
//! Iterations are timing-identical under a jitter-free network, so the
//! model simulates `sample_iters` full protocol rounds (driving the real
//! [`FinishSim`] detector for the finish variant) and scales to the
//! requested iteration count.

use caf_core::rng::SplitMix64;
use caf_des::SimNet;

use crate::finish_sim::FinishSim;

/// Completion strategy of the benchmark variant (Fig. 12's three series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncVariant {
    /// Local data completion via `cofence`.
    Cofence,
    /// Local operation completion via `event_wait` on `destE`.
    Events,
    /// Global completion via an inner `finish` block.
    Finish,
}

/// Micro-benchmark parameters (defaults match the paper: 5 copies of
/// 80 bytes per iteration).
#[derive(Debug, Clone)]
pub struct PcConfig {
    /// Team size (the paper sweeps 128–1024 cores).
    pub images: usize,
    /// Iterations of the producer loop (paper: 10⁶).
    pub iterations: u64,
    /// Copies initiated per iteration.
    pub copies_per_iter: usize,
    /// Payload bytes per copy.
    pub bytes: usize,
    /// Cost to produce the next buffer (`produce_work_next_rnd`).
    pub produce_ns: u64,
    /// Source-buffer snapshot cost on the communication thread.
    pub snapshot_ns: u64,
    /// Interconnect model.
    pub net: SimNet,
    /// Protocol rounds actually simulated before extrapolating.
    pub sample_iters: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl PcConfig {
    /// Paper-shaped defaults for a given team size.
    pub fn new(images: usize) -> Self {
        PcConfig {
            images,
            iterations: 1_000_000,
            copies_per_iter: 5,
            bytes: 80,
            produce_ns: 2_000,
            snapshot_ns: 200,
            net: SimNet::gemini_like(),
            sample_iters: 64,
            seed: 0x5eed,
        }
    }
}

/// Result of one variant run.
#[derive(Debug, Clone)]
pub struct PcResult {
    /// Extrapolated virtual time for the full iteration count.
    pub sim_time_ns: u64,
    /// Mean time of one iteration.
    pub per_iter_ns: u64,
    /// Reduction waves per iteration (finish variant; 0 otherwise).
    pub waves_per_iter: f64,
}

/// Runs the micro-benchmark model for one variant.
pub fn run_pc(cfg: &PcConfig, variant: SyncVariant) -> PcResult {
    let mut rng = SplitMix64::new(cfg.seed);
    let k = cfg.copies_per_iter as u64;
    let mut total = 0u64;
    let mut waves = 0u64;
    for _ in 0..cfg.sample_iters {
        // Communication-thread timeline: per copy, snapshot then inject.
        let inject = cfg.net.injection_ns;
        let last_snapshot_done = k * cfg.snapshot_ns + (k - 1) * inject;
        let last_injected = k * (cfg.snapshot_ns + inject);
        // Deliveries: serialized injections, then the wire.
        let wire = cfg.net.delivery_delay(cfg.bytes, &mut rng) - cfg.net.injection_ns;
        let last_delivered = last_injected + wire;
        // Notification hop back to the producer.
        let notify = cfg.net.delivery_delay(16, &mut rng);
        let last_acked = last_delivered + notify;

        let iter = match variant {
            SyncVariant::Cofence => last_snapshot_done + cfg.produce_ns,
            SyncVariant::Events => last_acked + cfg.produce_ns,
            SyncVariant::Finish => {
                // Drive the actual detector through one inner finish.
                let mut fsim = FinishSim::new(cfg.images, true);
                // Passive consumers enter immediately.
                for i in 1..cfg.images {
                    let _ = fsim.try_enter(i, 0);
                }
                let tags: Vec<_> = (0..k).map(|_| fsim.on_send(0)).collect();
                for tag in &tags {
                    // Receiver identity doesn't affect timing; pick one.
                    let dst = 1 + (rng.next_below((cfg.images - 1).max(1) as u64) as usize);
                    fsim.on_receive(dst.min(cfg.images - 1));
                    fsim.on_complete(dst.min(cfg.images - 1), *tag);
                    fsim.on_delivered(0);
                }
                let mut now = last_acked;
                // Producer joins; waves run until the sum is zero.
                let mut entered_all = fsim.try_enter(0, now);
                loop {
                    assert!(entered_all, "all images must be in the wave");
                    now += cfg.net.allreduce_cost(cfg.images, &mut rng);
                    waves += 1;
                    if fsim.complete_wave() == caf_core::termination::WaveDecision::Terminated {
                        break;
                    }
                    entered_all = false;
                    for i in 0..cfg.images {
                        entered_all = fsim.try_enter(i, now) || entered_all;
                    }
                }
                now + cfg.produce_ns
            }
        };
        total += iter;
    }
    let per_iter = total / cfg.sample_iters;
    PcResult {
        sim_time_ns: per_iter * cfg.iterations,
        per_iter_ns: per_iter,
        waves_per_iter: waves as f64 / cfg.sample_iters as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(images: usize, v: SyncVariant) -> PcResult {
        let mut cfg = PcConfig::new(images);
        cfg.iterations = 1000;
        run_pc(&cfg, v)
    }

    /// The paper's headline ordering: cofence < events < finish.
    #[test]
    fn variant_ordering_matches_fig12() {
        for p in [16usize, 128, 1024] {
            let c = run(p, SyncVariant::Cofence).per_iter_ns;
            let e = run(p, SyncVariant::Events).per_iter_ns;
            let f = run(p, SyncVariant::Finish).per_iter_ns;
            assert!(c < e, "p={p}: cofence {c} !< events {e}");
            assert!(e < f, "p={p}: events {e} !< finish {f}");
        }
    }

    /// The finish variant's cost grows with team size (its allreduce is
    /// O(log p) deep); the cofence variant's does not.
    #[test]
    fn finish_grows_with_cores_cofence_does_not() {
        let f128 = run(128, SyncVariant::Finish).per_iter_ns;
        let f1024 = run(1024, SyncVariant::Finish).per_iter_ns;
        assert!(f1024 > f128, "finish: {f1024} !> {f128}");
        let c128 = run(128, SyncVariant::Cofence).per_iter_ns;
        let c1024 = run(1024, SyncVariant::Cofence).per_iter_ns;
        assert_eq!(c128, c1024, "cofence cost must be core-count independent");
    }

    /// Receivers enter before data lands, so each inner finish needs two
    /// waves — the protocol subtlety the model must reproduce.
    #[test]
    fn inner_finish_needs_two_waves() {
        let r = run(64, SyncVariant::Finish);
        assert!((1.9..=2.1).contains(&r.waves_per_iter), "waves {}", r.waves_per_iter);
    }

    #[test]
    fn extrapolation_scales_linearly() {
        let mut cfg = PcConfig::new(32);
        cfg.iterations = 10;
        let a = run_pc(&cfg, SyncVariant::Events);
        cfg.iterations = 100;
        let b = run_pc(&cfg, SyncVariant::Events);
        assert_eq!(b.sim_time_ns, 10 * a.sim_time_ns);
    }
}
