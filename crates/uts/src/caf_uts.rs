//! Parallel UTS on the CAF 2.0 runtime (paper Fig. 15 and §IV-C2).
//!
//! The composite load-balancing scheme of Saraswat et al. as the paper
//! implements it:
//!
//! * **initial work sharing** — image 0 expands the first tree levels
//!   breadth-first and scatters the frontier round-robin;
//! * **randomized work stealing** — an image that runs dry ships one
//!   `steal_work` function to a random victim (the function executes
//!   *at the victim*, so a steal costs two one-way trips instead of the
//!   five round trips of the get/put algorithm in paper Fig. 2);
//! * **lifelines** — after its steal attempt the image registers on its
//!   hypercube neighbours (ranks `me XOR 2^i`) and quiesces; a neighbour
//!   that later has excess work pushes a chunk, reactivating the image
//!   *inside the shipped function's handler*;
//! * **termination via `finish`** — a barrier cannot tell "idle for now"
//!   from "done" (work can always be pushed over a lifeline); the finish
//!   block's termination detector can, and ends the run.
//!
//! Steal/push chunks are capped at [`UtsConfig::steal_chunk`] descriptors,
//! mirroring the GASNet `AMMedium` payload limit the paper mentions
//! (§IV-C1a: at most 9 items per shipped function).

use std::sync::Arc;

use caf_core::ids::ImageId;
use caf_core::topology::hypercube_neighbors;
use caf_runtime::{Image, Runtime, RuntimeConfig};
use parking_lot::Mutex;

use crate::tree::{Node, TreeSpec};

/// Tuning knobs of the parallel traversal.
#[derive(Debug, Clone)]
pub struct UtsConfig {
    /// The workload.
    pub spec: TreeSpec,
    /// Maximum descriptors per steal/push message (the `AMMedium` cap).
    pub steal_chunk: usize,
    /// Minimum local queue length before feeding lifelines.
    pub lifeline_push_min: usize,
    /// Image 0 expands until the frontier reaches `factor × images`.
    pub initial_share_factor: usize,
    /// Nodes processed between progress polls (steal-attentiveness).
    pub progress_interval: usize,
}

impl UtsConfig {
    /// Defaults matching the paper's constraints.
    pub fn new(spec: TreeSpec) -> Self {
        UtsConfig {
            spec,
            steal_chunk: 9,
            lifeline_push_min: 32,
            initial_share_factor: 4,
            progress_interval: 64,
        }
    }
}

/// Result of a parallel traversal.
#[derive(Debug, Clone)]
pub struct UtsOutcome {
    /// Total nodes counted (must equal the sequential count).
    pub total_nodes: u64,
    /// Nodes counted per image (Fig. 16's load-balance series).
    pub per_image: Vec<u64>,
    /// Termination-detection reduction waves per image (Fig. 18's
    /// metric), as reported by each image's last finish block.
    pub waves: Vec<usize>,
    /// Steal attempts issued per image.
    pub steals_attempted: Vec<u64>,
    /// Lifeline pushes received per image.
    pub lifeline_pushes: Vec<u64>,
}

/// Per-image work-stealing state, shared with handlers through an `Arc`.
struct ImgUts {
    queue: Vec<Node>,
    /// Images whose lifelines are currently registered here.
    lifelines: Vec<ImageId>,
    count: u64,
    steals: u64,
    pushes_received: u64,
    /// Re-entrancy guard: a reactivation handler only enqueues when a
    /// work loop is already running further down the stack.
    active: bool,
}

type SharedUts = Arc<Vec<Mutex<ImgUts>>>;

/// Runs the parallel traversal over `images` process images.
pub fn run_uts(images: usize, rt: RuntimeConfig, cfg: UtsConfig) -> UtsOutcome {
    let shared: SharedUts = Arc::new(
        (0..images)
            .map(|_| {
                Mutex::new(ImgUts {
                    queue: Vec::new(),
                    lifelines: Vec::new(),
                    count: 0,
                    steals: 0,
                    pushes_received: 0,
                    active: false,
                })
            })
            .collect(),
    );
    let cfg = Arc::new(cfg);
    let per_image = Runtime::launch(images, rt, |img| {
        let st = Arc::clone(&shared);
        let cfg = Arc::clone(&cfg);
        let world = img.world();
        img.finish(&world, |img| {
            if img.id().index() == 0 {
                initial_share(img, &st, &cfg);
            }
            work_loop(img, &st, &cfg);
        });
        let me = st[img.id().index()].lock();
        (me.count, img.last_finish_waves(), me.steals, me.pushes_received)
    });
    let total = per_image.iter().map(|x| x.0).sum();
    UtsOutcome {
        total_nodes: total,
        per_image: per_image.iter().map(|x| x.0).collect(),
        waves: per_image.iter().map(|x| x.1).collect(),
        steals_attempted: per_image.iter().map(|x| x.2).collect(),
        lifeline_pushes: per_image.iter().map(|x| x.3).collect(),
    }
}

/// Image 0 builds the first levels breadth-first and scatters the
/// frontier round-robin (paper §IV-C2a).
fn initial_share(img: &Image, st: &SharedUts, cfg: &Arc<UtsConfig>) {
    let n = img.num_images();
    let target = cfg.initial_share_factor * n;
    let mut frontier = std::collections::VecDeque::new();
    frontier.push_back(cfg.spec.root());
    let mut expanded = Vec::new();
    while frontier.len() < target {
        let Some(node) = frontier.pop_front() else { break };
        st[img.id().index()].lock().count += 1;
        expanded.clear();
        cfg.spec.expand_into(&node, &mut expanded);
        frontier.extend(expanded.drain(..));
    }
    // Round-robin deal, chunked to respect the message-size cap.
    let mut deals: Vec<Vec<Node>> = vec![Vec::new(); n];
    for (i, node) in frontier.into_iter().enumerate() {
        deals[i % n].push(node);
    }
    for (j, nodes) in deals.into_iter().enumerate() {
        if nodes.is_empty() {
            continue;
        }
        if j == img.id().index() {
            st[j].lock().queue.extend(nodes);
        } else {
            for chunk in nodes.chunks(cfg.steal_chunk.max(1)) {
                deliver_work(img, st, cfg, img.image(j), chunk.to_vec(), false);
            }
        }
    }
}

/// Ships `nodes` to `target`, where they are enqueued and — unless a work
/// loop is already active there — processed immediately.
fn deliver_work(
    img: &Image,
    st: &SharedUts,
    cfg: &Arc<UtsConfig>,
    target: ImageId,
    nodes: Vec<Node>,
    is_lifeline_push: bool,
) {
    let st2 = Arc::clone(st);
    let cfg2 = Arc::clone(cfg);
    let bytes = nodes.len() * 24 + 16;
    img.spawn_sized(target, bytes, move |peer: &Image| {
        let run = {
            let mut s = st2[peer.id().index()].lock();
            s.queue.extend(nodes);
            if is_lifeline_push {
                s.pushes_received += 1;
            }
            !s.active
        };
        if run {
            work_loop(peer, &st2, &cfg2);
        }
    });
}

/// The Fig. 15 main loop: drain the queue (feeding lifelines along the
/// way), then one steal attempt, then lifeline registration, then return
/// to the enclosing finish wait.
fn work_loop(img: &Image, st: &SharedUts, cfg: &Arc<UtsConfig>) {
    let me = img.id().index();
    st[me].lock().active = true;
    let mut children = Vec::new();
    let mut since_progress = 0usize;
    loop {
        let node = st[me].lock().queue.pop();
        let Some(node) = node else { break };
        children.clear();
        cfg.spec.expand_into(&node, &mut children);
        {
            let mut s = st[me].lock();
            s.count += 1;
            s.queue.append(&mut children);
        }
        since_progress += 1;
        if since_progress >= cfg.progress_interval {
            since_progress = 0;
            img.progress(); // stay receptive to steals
        }
        feed_lifelines(img, st, cfg);
    }
    st[me].lock().active = false;

    // One steal attempt (paper: n = 1), fire-and-forget.
    let n = img.num_images();
    if n > 1 {
        let victim = {
            let v = img.rng_below((n - 1) as u64) as usize;
            if v >= me {
                v + 1
            } else {
                v
            }
        };
        st[me].lock().steals += 1;
        let st2 = Arc::clone(st);
        let cfg2 = Arc::clone(cfg);
        let thief = img.id();
        img.spawn(img.image(victim), move |victim_img: &Image| {
            let stolen: Vec<Node> = {
                let mut s = st2[victim_img.id().index()].lock();
                let take = cfg2.steal_chunk.min(s.queue.len());
                // Steal from the front: the oldest nodes are the
                // shallowest, hence the largest expected subtrees.
                s.queue.drain(..take).collect()
            };
            if !stolen.is_empty() {
                deliver_work(victim_img, &st2, &cfg2, thief, stolen, false);
            }
        });

        // Establish lifelines on hypercube neighbours (paper §IV-C2c).
        let my_rank = caf_core::ids::TeamRank(me);
        for nb in hypercube_neighbors(n, my_rank) {
            let st2 = Arc::clone(st);
            let cfg2 = Arc::clone(cfg);
            let waiter = img.id();
            img.spawn(img.image(nb.0), move |nb_img: &Image| {
                let give: Option<Vec<Node>> = {
                    let mut s = st2[nb_img.id().index()].lock();
                    if !s.lifelines.contains(&waiter) {
                        s.lifelines.push(waiter);
                    }
                    // If the neighbour has excess work right now, satisfy
                    // the lifeline immediately.
                    if s.queue.len() >= cfg2.lifeline_push_min {
                        let take = cfg2.steal_chunk.min(s.queue.len() / 2).max(1);
                        s.lifelines.retain(|w| *w != waiter);
                        Some(s.queue.drain(..take).collect())
                    } else {
                        None
                    }
                };
                if let Some(nodes) = give {
                    deliver_work(nb_img, &st2, &cfg2, waiter, nodes, true);
                }
            });
        }
    }
}

/// Pushes chunks to registered lifeline waiters while the local queue has
/// excess work (paper §IV-C2c: work sharing via lifelines).
fn feed_lifelines(img: &Image, st: &SharedUts, cfg: &Arc<UtsConfig>) {
    let me = img.id().index();
    loop {
        let give = {
            let mut s = st[me].lock();
            if s.lifelines.is_empty() || s.queue.len() < cfg.lifeline_push_min {
                break;
            }
            let waiter = s.lifelines.remove(0);
            let take = cfg.steal_chunk.min(s.queue.len() / 2).max(1);
            let nodes: Vec<Node> = s.queue.drain(..take).collect();
            (waiter, nodes)
        };
        deliver_work(img, st, cfg, give.0, give.1, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::count_tree;

    fn check(images: usize, spec: TreeSpec) {
        let expect = count_tree(&spec).nodes;
        let out = run_uts(images, RuntimeConfig::testing(), UtsConfig::new(spec));
        assert_eq!(out.total_nodes, expect, "parallel count mismatch on {images} images");
        assert_eq!(out.per_image.len(), images);
    }

    /// Contention harness for an early `finish`: 2-image traversals of
    /// `geo_fixed(4.0, 8, 19)` under the default runtime, counting those
    /// that lose nodes. Run it by hand with a second copy beside it, so
    /// image threads are preempted inside finish waves:
    /// `cargo test -p uts --release -- --ignored --nocapture contention`.
    #[test]
    #[ignore = "contention harness; run in release beside a second copy"]
    fn no_traversal_loses_nodes_under_contention() {
        let spec = TreeSpec::geo_fixed(4.0, 8, 19);
        let expect = count_tree(&spec).nodes;
        let runs = 3000;
        let lost = (0..runs)
            .filter(|_| {
                run_uts(2, RuntimeConfig::default(), UtsConfig::new(spec)).total_nodes != expect
            })
            .count();
        println!("{lost} of {runs} traversals of {expect} nodes lost nodes");
        assert_eq!(lost, 0);
    }

    #[test]
    fn single_image_matches_sequential() {
        check(1, TreeSpec::geo_fixed(3.0, 5, 19));
    }

    #[test]
    fn small_team_matches_sequential() {
        check(4, TreeSpec::geo_fixed(4.0, 5, 19));
    }

    #[test]
    fn larger_team_matches_sequential() {
        check(8, TreeSpec::geo_fixed(4.0, 6, 19));
    }

    #[test]
    fn binomial_tree_matches_sequential() {
        check(
            4,
            TreeSpec { kind: crate::tree::TreeKind::Binomial { b0: 50, q: 0.12, m: 8 }, seed: 42 },
        );
    }

    #[test]
    fn stealing_actually_spreads_work() {
        let spec = TreeSpec::geo_fixed(4.0, 6, 19);
        let out = run_uts(4, RuntimeConfig::testing(), UtsConfig::new(spec));
        let busy = out.per_image.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 2, "work never left image 0: {:?}", out.per_image);
    }
}
