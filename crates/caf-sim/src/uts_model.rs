//! Paper-scale UTS under the discrete-event simulator (Figs. 16–18).
//!
//! Executes the *actual* Fig. 15 algorithm — initial work sharing,
//! one-attempt randomized stealing via shipped functions, hypercube
//! lifelines, and epoch-based `finish` termination detection — over up to
//! 32 768 simulated images in virtual time. The tree is expanded for real
//! (every node's SHA-1 descriptor is computed), so load balance and
//! message traffic are genuine; only *time* is modelled, through
//! [`SimNet`] and a per-node work cost.

use std::collections::VecDeque;

use caf_core::ids::TeamRank;
use caf_core::rng::SplitMix64;
use caf_core::topology::hypercube_neighbors;
use caf_des::{Engine, SimNet};
use uts::{Node, TreeSpec};

use crate::finish_sim::FinishSim;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct UtsSimConfig {
    /// The tree workload (scaled; see EXPERIMENTS.md on substitutions).
    pub spec: TreeSpec,
    /// Simulated image count (the paper sweeps 256–32 768).
    pub images: usize,
    /// Interconnect model.
    pub net: SimNet,
    /// Virtual work per tree node, in nanoseconds. Scaling this up
    /// emulates the larger per-image work of the paper's T1WL runs
    /// without expanding 10¹¹ real nodes.
    pub node_cost_ns: u64,
    /// Nodes processed per compute event (simulation granularity).
    pub batch: usize,
    /// Max descriptors per steal/push (the `AMMedium` cap; paper: 9).
    pub steal_chunk: usize,
    /// Minimum queue length before feeding lifelines.
    pub lifeline_push_min: usize,
    /// Image 0 expands a frontier of `factor × images` before scattering.
    pub initial_share_factor: usize,
    /// Paper's algorithm (`true`) vs. the no-upper-bound Fig. 18 baseline.
    pub strict_finish: bool,
    /// Simulation seed (victim selection, network jitter).
    pub seed: u64,
}

impl UtsSimConfig {
    /// Reasonable defaults for a given workload and image count.
    pub fn new(spec: TreeSpec, images: usize) -> Self {
        UtsSimConfig {
            spec,
            images,
            net: SimNet::gemini_like(),
            node_cost_ns: 1_000,
            batch: 64,
            steal_chunk: 9,
            lifeline_push_min: 32,
            initial_share_factor: 4,
            strict_finish: true,
            seed: 0x5eed,
        }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct UtsSimResult {
    /// Virtual time from start to detected termination.
    pub sim_time_ns: u64,
    /// Nodes expanded in total (must equal the sequential count).
    pub total_nodes: u64,
    /// Nodes expanded per image (Fig. 16's series).
    pub per_image: Vec<u64>,
    /// Termination-detection reduction waves (Fig. 18's metric).
    pub waves: usize,
    /// Messages sent (steals + work + lifelines + initial share).
    pub messages: u64,
    /// Steal attempts.
    pub steals: u64,
    /// Lifeline pushes delivered.
    pub lifeline_pushes: u64,
}

impl UtsSimResult {
    /// Parallel efficiency w.r.t. one image doing all node work with no
    /// communication: `T₁ / (p · T_p)` (Fig. 17's metric).
    pub fn efficiency(&self, images: usize, node_cost_ns: u64) -> f64 {
        let t1 = self.total_nodes as f64 * node_cost_ns as f64;
        t1 / (images as f64 * self.sim_time_ns as f64)
    }

    /// Fig. 16's y-axis: each image's share relative to perfect balance.
    pub fn relative_work(&self) -> Vec<f64> {
        let mean = self.total_nodes as f64 / self.per_image.len() as f64;
        self.per_image.iter().map(|&c| c as f64 / mean).collect()
    }
}

enum Kind {
    Steal { thief: usize },
    Work { nodes: Vec<Node> },
    Lifeline { waiter: usize },
}

enum Ev {
    Compute(usize),
    Exhausted(usize),
    Deliver { to: usize, from: usize, tag: u32, kind: Kind },
    Ack { to: usize },
    WaveDone,
}

struct Img {
    queue: VecDeque<Node>,
    computing: bool,
    quiesced: bool,
    lifelines: Vec<usize>,
    count: u64,
}

struct Model {
    cfg: UtsSimConfig,
    imgs: Vec<Img>,
    fsim: FinishSim,
    rng: SplitMix64,
    messages: u64,
    steals: u64,
    pushes: u64,
}

impl Model {
    fn send(&mut self, eng: &mut Engine<Ev>, from: usize, to: usize, kind: Kind, bytes: usize) {
        let tag = self.fsim.on_send(from);
        self.messages += 1;
        let delay = if from == to {
            self.cfg.net.local_delay()
        } else {
            self.cfg.net.delivery_delay(bytes, &mut self.rng)
        };
        eng.schedule(delay, Ev::Deliver { to, from, tag, kind });
    }

    fn wake(&mut self, eng: &mut Engine<Ev>, img: usize) {
        let s = &mut self.imgs[img];
        s.quiesced = false;
        if !s.computing {
            s.computing = true;
            eng.schedule(0, Ev::Compute(img));
        }
    }

    fn feed_lifelines(&mut self, eng: &mut Engine<Ev>, img: usize) {
        loop {
            let (waiter, nodes) = {
                let s = &mut self.imgs[img];
                if s.lifelines.is_empty() || s.queue.len() < self.cfg.lifeline_push_min {
                    break;
                }
                let waiter = s.lifelines.remove(0);
                let take = self.cfg.steal_chunk.min(s.queue.len() / 2).max(1);
                let nodes: Vec<Node> = (0..take).filter_map(|_| s.queue.pop_front()).collect();
                (waiter, nodes)
            };
            self.pushes += 1;
            let bytes = nodes.len() * 24 + 16;
            self.send(eng, img, waiter, Kind::Work { nodes }, bytes);
        }
    }

    /// Image hit an empty queue: one steal attempt plus lifeline
    /// registration (Fig. 15 lines 13–20), then try the wave.
    fn on_exhausted(&mut self, eng: &mut Engine<Ev>, img: usize) {
        self.imgs[img].computing = false;
        if !self.imgs[img].queue.is_empty() {
            // Work arrived while the last batch's cost elapsed.
            self.imgs[img].computing = true;
            eng.schedule(0, Ev::Compute(img));
            return;
        }
        let p = self.cfg.images;
        if !self.imgs[img].quiesced && p > 1 {
            self.imgs[img].quiesced = true;
            let victim = {
                let v = self.rng.next_below((p - 1) as u64) as usize;
                if v >= img {
                    v + 1
                } else {
                    v
                }
            };
            self.steals += 1;
            self.send(eng, img, victim, Kind::Steal { thief: img }, 32);
            for nb in hypercube_neighbors(p, TeamRank(img)) {
                self.send(eng, img, nb.0, Kind::Lifeline { waiter: img }, 24);
            }
        }
        self.maybe_enter(eng, img);
    }

    fn maybe_enter(&mut self, eng: &mut Engine<Ev>, img: usize) {
        let s = &self.imgs[img];
        if s.computing || !s.queue.is_empty() || self.fsim.terminated() {
            return;
        }
        if self.fsim.try_enter(img, eng.now()) {
            let cost = self.cfg.net.allreduce_cost(self.cfg.images, &mut self.rng);
            eng.schedule(cost, Ev::WaveDone);
        }
    }
}

/// Runs the simulation to detected termination.
pub fn run_uts_sim(cfg: UtsSimConfig) -> UtsSimResult {
    let p = cfg.images;
    assert!(p >= 1);
    let mut eng: Engine<Ev> = Engine::new();
    let mut m = Model {
        rng: SplitMix64::new(cfg.seed),
        imgs: (0..p)
            .map(|_| Img {
                queue: VecDeque::new(),
                computing: false,
                quiesced: false,
                lifelines: Vec::new(),
                count: 0,
            })
            .collect(),
        fsim: FinishSim::new(p, cfg.strict_finish),
        messages: 0,
        steals: 0,
        pushes: 0,
        cfg,
    };

    // Initial work sharing at image 0 (paper §IV-C2a).
    {
        let target = m.cfg.initial_share_factor * p;
        let mut frontier: VecDeque<Node> = VecDeque::new();
        frontier.push_back(m.cfg.spec.root());
        let mut kids = Vec::new();
        while frontier.len() < target {
            let Some(node) = frontier.pop_front() else { break };
            m.imgs[0].count += 1;
            kids.clear();
            m.cfg.spec.expand_into(&node, &mut kids);
            frontier.extend(kids.drain(..));
        }
        let mut deals: Vec<Vec<Node>> = vec![Vec::new(); p];
        for (i, node) in frontier.into_iter().enumerate() {
            deals[i % p].push(node);
        }
        for (j, nodes) in deals.into_iter().enumerate() {
            if j == 0 {
                m.imgs[0].queue.extend(nodes);
            } else {
                for chunk in nodes.chunks(m.cfg.steal_chunk.max(1)) {
                    let bytes = chunk.len() * 24 + 16;
                    m.send(&mut eng, 0, j, Kind::Work { nodes: chunk.to_vec() }, bytes);
                }
            }
        }
    }
    // Everyone starts: image 0 computes, the rest go straight to the
    // exhausted path (steal once, set lifelines, wait in the finish).
    m.imgs[0].computing = true;
    eng.schedule(0, Ev::Compute(0));
    for j in 1..p {
        m.imgs[j].computing = true;
        eng.schedule(0, Ev::Exhausted(j));
    }

    let mut kids = Vec::new();
    let mut end_time = 0;
    while let Some((now, ev)) = eng.pop() {
        match ev {
            Ev::Compute(img) => {
                let take = m.cfg.batch.min(m.imgs[img].queue.len());
                for _ in 0..take {
                    let node = m.imgs[img].queue.pop_back().expect("sized take");
                    kids.clear();
                    m.cfg.spec.expand_into(&node, &mut kids);
                    m.imgs[img].count += 1;
                    m.imgs[img].queue.extend(kids.drain(..));
                }
                let cost = take as u64 * m.cfg.node_cost_ns;
                m.feed_lifelines(&mut eng, img);
                if m.imgs[img].queue.is_empty() {
                    eng.schedule(cost, Ev::Exhausted(img));
                } else {
                    eng.schedule(cost, Ev::Compute(img));
                }
            }
            Ev::Exhausted(img) => m.on_exhausted(&mut eng, img),
            Ev::Deliver { to, from, tag, kind } => {
                m.fsim.on_receive(to);
                // Delivery acknowledgement back to the sender.
                let ack_delay = if from == to {
                    m.cfg.net.local_delay()
                } else {
                    m.cfg.net.delivery_delay(8, &mut m.rng)
                };
                eng.schedule(ack_delay, Ev::Ack { to: from });
                match kind {
                    Kind::Steal { thief } => {
                        let take = m.cfg.steal_chunk.min(m.imgs[to].queue.len());
                        if take > 0 {
                            let nodes: Vec<Node> =
                                (0..take).filter_map(|_| m.imgs[to].queue.pop_front()).collect();
                            let bytes = nodes.len() * 24 + 16;
                            m.send(&mut eng, to, thief, Kind::Work { nodes }, bytes);
                        }
                    }
                    Kind::Work { nodes } => {
                        m.imgs[to].queue.extend(nodes);
                        m.wake(&mut eng, to);
                    }
                    Kind::Lifeline { waiter } => {
                        if !m.imgs[to].lifelines.contains(&waiter) {
                            m.imgs[to].lifelines.push(waiter);
                        }
                        m.feed_lifelines(&mut eng, to);
                    }
                }
                m.fsim.on_complete(to, tag);
                m.maybe_enter(&mut eng, to);
            }
            Ev::Ack { to } => {
                m.fsim.on_delivered(to);
                m.maybe_enter(&mut eng, to);
            }
            Ev::WaveDone => {
                use caf_core::termination::WaveDecision;
                if m.fsim.complete_wave() == WaveDecision::Terminated {
                    end_time = now;
                    break;
                }
                for i in 0..p {
                    m.maybe_enter(&mut eng, i);
                }
            }
        }
    }
    assert!(m.fsim.terminated(), "simulation drained without detecting termination");
    UtsSimResult {
        sim_time_ns: end_time,
        total_nodes: m.imgs.iter().map(|s| s.count).sum(),
        per_image: m.imgs.iter().map(|s| s.count).collect(),
        waves: m.fsim.waves(),
        messages: m.messages,
        steals: m.steals,
        lifeline_pushes: m.pushes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts::count_tree;

    fn small(images: usize, strict: bool) -> (UtsSimResult, u64) {
        let spec = TreeSpec::geo_fixed(4.0, 6, 19);
        let expect = count_tree(&spec).nodes;
        let mut cfg = UtsSimConfig::new(spec, images);
        cfg.strict_finish = strict;
        (run_uts_sim(cfg), expect)
    }

    #[test]
    fn counts_match_sequential_small_team() {
        for p in [1usize, 2, 4, 7, 16] {
            let (r, expect) = small(p, true);
            assert_eq!(r.total_nodes, expect, "p={p}");
            assert!(r.sim_time_ns > 0);
        }
    }

    #[test]
    fn counts_match_sequential_no_wait_variant() {
        let (r, expect) = small(8, false);
        assert_eq!(r.total_nodes, expect);
    }

    #[test]
    fn no_wait_variant_needs_at_least_as_many_waves() {
        let (strict, _) = small(16, true);
        let (loose, _) = small(16, false);
        assert!(loose.waves >= strict.waves, "loose {} < strict {}", loose.waves, strict.waves);
    }

    #[test]
    fn work_spreads_across_images() {
        let (r, _) = small(8, true);
        let busy = r.per_image.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 4, "load balance failed: {:?}", r.per_image);
    }

    #[test]
    fn more_images_run_faster_on_big_enough_trees() {
        let spec = TreeSpec::geo_fixed(4.0, 8, 19);
        let t = |p| {
            let mut cfg = UtsSimConfig::new(spec, p);
            cfg.node_cost_ns = 10_000;
            run_uts_sim(cfg).sim_time_ns
        };
        let t2 = t(2);
        let t16 = t(16);
        assert!(t16 * 2 < t2, "16 images ({t16} ns) should beat 2 images ({t2} ns) by ≥2×");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = small(8, true);
        let (b, _) = small(8, true);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
        assert_eq!(a.per_image, b.per_image);
        assert_eq!(a.waves, b.waves);
    }
}
