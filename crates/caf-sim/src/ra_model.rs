//! RandomAccess at paper scale (Figs. 13–14).
//!
//! The function-shipping kernel is simulated in full: every image issues
//! its updates as shipped read-modify-writes to uniformly random owners,
//! `bunch` updates per `finish` block, with
//!
//! * an **injection-rate** limit at the sender,
//! * a **service-rate** limit at the target (AM handler occupancy), and
//! * **bounded target inboxes** with sender stalls — the GASNet
//!   flow-control stand-in that produces the paper's Fig. 14 anomaly
//!   (bunches larger than ~256 *hurt*).
//!
//! The Get-Update-Put reference is modelled analytically: its blocking
//! gets serialize on the network round trip (they ride RDMA, so no
//! target-CPU term), and its puts pipeline behind them.
//!
//! Calibration note (see EXPERIMENTS.md): the AM handler occupancy is set
//! to the same order as a network round trip, reflecting the paper's
//! observation that function shipping performs *comparably* to
//! RDMA-based get/put on Gemini rather than dominating it.

use caf_core::rng::SplitMix64;
use caf_des::{Engine, SimNet};

use crate::finish_sim::FinishSim;

/// Simulation parameters for the RandomAccess models.
#[derive(Debug, Clone)]
pub struct RaSimConfig {
    /// Image count.
    pub images: usize,
    /// Updates issued by each image over the whole run.
    pub updates_per_image: usize,
    /// Updates per `finish` block (the Figs. 13–14 knob).
    pub bunch: usize,
    /// Interconnect model.
    pub net: SimNet,
    /// AM handler occupancy per shipped update at the target.
    pub handler_ns: u64,
    /// Target-inbox capacity before senders stall (GASNet flow control).
    pub inbox_cap: usize,
    /// Stall applied per send attempt against a full inbox.
    pub stall_ns: u64,
    /// Receiver-side cost of rejecting an over-capacity attempt (the
    /// credit-refusal/NACK crossing the wire and being processed). This
    /// is what makes oversized bunches *actively* harmful — congestion
    /// consumes the very service capacity it is waiting for, the
    /// flow-control pathology behind the paper's Fig. 14 rise.
    pub nack_ns: u64,
    /// Paper's detector vs. the no-upper-bound baseline.
    pub strict_finish: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl RaSimConfig {
    /// Defaults loosely calibrated to the paper's Gemini systems.
    pub fn new(images: usize) -> Self {
        RaSimConfig {
            images,
            updates_per_image: 4096,
            bunch: 1024,
            net: SimNet::gemini_like(),
            handler_ns: 2_500,
            inbox_cap: 64,
            stall_ns: 6_000,
            nack_ns: 1_200,
            strict_finish: true,
            seed: 0x5eed,
        }
    }
}

/// Result of one kernel model run.
#[derive(Debug, Clone)]
pub struct RaSimResult {
    /// Virtual time for the whole update phase.
    pub sim_time_ns: u64,
    /// Giga-updates per second (all images).
    pub gups: f64,
    /// Total reduction waves across all finish blocks.
    pub waves: usize,
    /// `finish` blocks executed.
    pub finishes: usize,
    /// Sender stalls due to inbox backpressure.
    pub stalls: u64,
}

enum Ev {
    /// Image tries to issue its next update.
    Issue(usize),
    /// A shipped update begins executing at its target.
    Exec { at: usize, from: usize, tag: u32 },
    /// Delivery acknowledgement back at the sender.
    Ack { to: usize },
    /// The open wave completes.
    WaveDone,
}

struct Img {
    /// Updates left in the current bunch.
    in_bunch: usize,
    /// Updates left over the whole run.
    left: usize,
    /// Shipped-but-not-yet-executed updates queued at this image.
    inbox: usize,
    /// Handler busy horizon.
    busy_until: u64,
    /// Target of the in-flight (possibly stalled) update attempt. The
    /// update stream fixes the owner, so a stalled update retries the
    /// same target rather than re-rolling.
    pending_target: Option<usize>,
    /// Consecutive credit refusals (drives exponential backoff).
    fails: u32,
}

/// Runs the function-shipping kernel model.
pub fn run_ra_fs_sim(cfg: &RaSimConfig) -> RaSimResult {
    let p = cfg.images;
    let mut eng: Engine<Ev> = Engine::new();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut imgs: Vec<Img> = (0..p)
        .map(|_| Img {
            in_bunch: cfg.bunch.min(cfg.updates_per_image),
            left: cfg.updates_per_image,
            inbox: 0,
            busy_until: 0,
            pending_target: None,
            fails: 0,
        })
        .collect();
    let mut fsim = FinishSim::new(p, cfg.strict_finish);
    let mut waves = 0usize;
    let mut finishes = 0usize;
    let mut stalls = 0u64;
    for i in 0..p {
        eng.schedule(0, Ev::Issue(i));
    }
    let mut end = 0u64;
    while let Some((now, ev)) = eng.pop() {
        end = now;
        match ev {
            Ev::Issue(img) => {
                if imgs[img].in_bunch == 0 {
                    // Bunch issued; this image waits at the finish. Entry
                    // is retried as acks arrive (strict) or now (loose).
                    try_enter(&mut eng, &mut fsim, &imgs, img, now, cfg, &mut rng);
                    continue;
                }
                let target =
                    imgs[img].pending_target.unwrap_or_else(|| rng.next_below(p as u64) as usize);
                if imgs[target].inbox >= cfg.inbox_cap {
                    // Credit refused: the refusal burns receiver capacity
                    // (the NACK crosses the wire and is processed) and the
                    // sender backs off exponentially — together, the
                    // congestion pathology behind Fig. 14's right side.
                    stalls += 1;
                    imgs[img].pending_target = Some(target);
                    imgs[target].busy_until = imgs[target].busy_until.max(now) + cfg.nack_ns;
                    let backoff = cfg.stall_ns.max(1) << imgs[img].fails.min(7);
                    imgs[img].fails += 1;
                    eng.schedule(backoff, Ev::Issue(img));
                    continue;
                }
                imgs[img].fails = 0;
                imgs[img].pending_target = None;
                imgs[img].in_bunch -= 1;
                imgs[img].left -= 1;
                let tag = fsim.on_send(img);
                imgs[target].inbox += 1;
                let arrive = now + cfg.net.delivery_delay(32, &mut rng);
                let start = arrive.max(imgs[target].busy_until);
                imgs[target].busy_until = start + cfg.handler_ns;
                eng.schedule_at(start + cfg.handler_ns, Ev::Exec { at: target, from: img, tag });
                eng.schedule(cfg.net.injection_ns.max(1), Ev::Issue(img));
            }
            Ev::Exec { at, from, tag } => {
                imgs[at].inbox -= 1;
                fsim.on_receive(at);
                fsim.on_complete(at, tag);
                let ack = cfg.net.delivery_delay(8, &mut rng);
                eng.schedule(ack, Ev::Ack { to: from });
                try_enter(&mut eng, &mut fsim, &imgs, at, now, cfg, &mut rng);
            }
            Ev::Ack { to } => {
                fsim.on_delivered(to);
                try_enter(&mut eng, &mut fsim, &imgs, to, now, cfg, &mut rng);
            }
            Ev::WaveDone => {
                use caf_core::termination::WaveDecision;
                waves += 1;
                if fsim.complete_wave() == WaveDecision::Terminated {
                    finishes += 1;
                    // This finish block is done. Next bunch, or finished.
                    if imgs.iter().all(|s| s.left == 0) {
                        break;
                    }
                    fsim = FinishSim::new(p, cfg.strict_finish);
                    for (i, s) in imgs.iter_mut().enumerate() {
                        s.in_bunch = cfg.bunch.min(s.left);
                        eng.schedule(0, Ev::Issue(i));
                    }
                } else {
                    for i in 0..p {
                        try_enter(&mut eng, &mut fsim, &imgs, i, now, cfg, &mut rng);
                    }
                }
            }
        }
    }
    let updates = (p * cfg.updates_per_image) as u64;
    RaSimResult {
        sim_time_ns: end,
        gups: updates as f64 / end as f64, // ns → updates/ns = GUPS
        waves,
        finishes,
        stalls,
    }
}

fn try_enter(
    eng: &mut Engine<Ev>,
    fsim: &mut FinishSim,
    imgs: &[Img],
    img: usize,
    now: u64,
    cfg: &RaSimConfig,
    rng: &mut SplitMix64,
) {
    if imgs[img].in_bunch != 0 || fsim.terminated() {
        return;
    }
    if fsim.try_enter(img, now) {
        let cost = cfg.net.allreduce_cost(cfg.images, rng);
        eng.schedule(cost, Ev::WaveDone);
    }
}

/// Analytic model of the Get-Update-Put reference: each update is a
/// blocking RDMA get (one round trip) followed by a pipelined put; the
/// run ends with one finish block's wave pair.
pub fn run_ra_gup_sim(cfg: &RaSimConfig) -> RaSimResult {
    let mut rng = SplitMix64::new(cfg.seed);
    let rt = 2 * cfg.net.delivery_delay(16, &mut rng); // get round trip
    let per_update = rt + cfg.net.injection_ns; // + put injection
    let update_phase = cfg.updates_per_image as u64 * per_update;
    let final_waves = 2 * cfg.net.allreduce_cost(cfg.images, &mut rng);
    let end = update_phase + final_waves;
    let updates = (cfg.images * cfg.updates_per_image) as u64;
    RaSimResult {
        sim_time_ns: end,
        gups: updates as f64 / end as f64,
        waves: 2,
        finishes: 1,
        stalls: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize, bunch: usize) -> RaSimConfig {
        let mut c = RaSimConfig::new(p);
        c.updates_per_image = 512;
        c.bunch = bunch;
        c
    }

    #[test]
    fn fs_model_completes_all_bunches() {
        let r = run_ra_fs_sim(&cfg(8, 128));
        assert_eq!(r.finishes, 4);
        assert!(r.sim_time_ns > 0);
        assert!(r.waves >= r.finishes);
    }

    #[test]
    fn tiny_bunches_cost_more_than_medium() {
        // Fig. 14's left side: finish overhead dominates small bunches.
        let small = run_ra_fs_sim(&cfg(64, 16)).sim_time_ns;
        let medium = run_ra_fs_sim(&cfg(64, 256)).sim_time_ns;
        assert!(small > medium, "bunch16 {small} !> bunch256 {medium}");
    }

    #[test]
    fn oversized_bunches_trigger_backpressure() {
        // Fig. 14's right side: flow control stalls at large bunches.
        let mut big = cfg(16, 512);
        big.inbox_cap = 16;
        let r = run_ra_fs_sim(&big);
        assert!(r.stalls > 0, "expected backpressure stalls");
    }

    #[test]
    fn gup_time_is_round_trip_bound() {
        let r = run_ra_gup_sim(&cfg(8, 128));
        let rt_bound = 512 * 2 * 1500; // updates × 2 × latency (ns)
        assert!(r.sim_time_ns >= rt_bound as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_ra_fs_sim(&cfg(8, 64));
        let b = run_ra_fs_sim(&cfg(8, 64));
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
        assert_eq!(a.stalls, b.stalls);
    }
}
