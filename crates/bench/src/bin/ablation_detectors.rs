//! **Ablation**: termination-detection algorithm choice (paper §V).
//!
//! Compares, over identical randomized spawn forests:
//!
//! * the paper's epoch algorithm (and its no-upper-bound variant),
//! * Mattern's four-counter algorithm (AM++'s choice — structurally one
//!   extra reduction),
//! * the X10-style centralized vector-counting scheme, whose home place
//!   absorbs `O(p)` vectors of size `p` — the `O(p²)` hot spot §V calls
//!   a scaling bottleneck.

use bench::print_table;
use caf_check::mutation::Family;
use caf_check::scenario::{node, Scenario, SpawnTree};
use caf_check::timed::{self, Timing};
use caf_core::ids::ImageId;
use caf_core::rng::SplitMix64;
use caf_core::termination::{CentralizedDetector, CentralizedHome};

/// A random spawn forest over `images` images.
fn random_forest(images: usize, roots: usize, seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let mut forest = Scenario::empty(images);
    for _ in 0..roots {
        let initiator = rng.next_below(images as u64) as usize;
        let tree = random_tree(images, 3, &mut rng);
        forest.roots.push((initiator, tree));
    }
    forest
}

fn random_tree(images: usize, depth_left: usize, rng: &mut SplitMix64) -> SpawnTree {
    let target = rng.next_below(images as u64) as usize;
    let kids = if depth_left == 0 { 0 } else { rng.next_below(3) as usize };
    node(target, (0..kids).map(|_| random_tree(images, depth_left - 1, rng)).collect())
}

fn main() {
    let mut rows = Vec::new();
    for images in [8usize, 32, 128] {
        let mut waves = [0usize; 3];
        let mut home_msgs = 0usize;
        let mut home_bytes = 0usize;
        let trials = 20;
        let timing = Timing { exec_delay: 3, ..Timing::default() };
        for seed in 0..trials {
            let forest = random_forest(images, 6, seed);
            let families = [Family::EpochStrict, Family::EpochLoose, Family::FourCounter];
            for (w, family) in waves.iter_mut().zip(families) {
                *w += timed::run(&forest, family, &timing).waves();
            }

            // Centralized scheme: replay the same forest as spawn/complete
            // ledger traffic to the home (message-count model).
            let mut home = CentralizedHome::new(images);
            let mut workers: Vec<_> =
                (0..images).map(|i| CentralizedDetector::new(ImageId(i), images)).collect();
            let mut frontier: Vec<(usize, &SpawnTree)> =
                forest.roots.iter().map(|(i, t)| (*i, t)).collect();
            // Breadth-first replay: spawn, execute, report when quiet.
            while let Some((from, tree)) = frontier.pop() {
                workers[from].on_spawn(ImageId(tree.target));
                workers[tree.target].on_activity_start();
                for child in &tree.children {
                    frontier.push((tree.target, child));
                }
                workers[tree.target].on_activity_complete();
            }
            for w in workers.iter_mut() {
                if let Some(report) = w.take_report() {
                    home.ingest(&report);
                }
            }
            assert!(home.terminated());
            home_msgs += home.reports_received();
            home_bytes += home.bytes_received();
        }
        rows.push(vec![
            images.to_string(),
            format!("{:.1}", waves[0] as f64 / trials as f64),
            format!("{:.1}", waves[1] as f64 / trials as f64),
            format!("{:.1}", waves[2] as f64 / trials as f64),
            format!("{}", home_msgs / trials as usize),
            format!("{} B", home_bytes / trials as usize),
        ]);
    }
    print_table(
        "Detector ablation (mean over 20 random spawn forests)",
        &[
            "images",
            "epoch waves",
            "epoch w/o bound",
            "four-counter",
            "centralized msgs→home",
            "centralized bytes→home",
        ],
        &rows,
    );
    println!(
        "Waves cost O(log p) each; the centralized column costs O(p) messages of O(p) bytes \
         at ONE place — the §V bottleneck. Four-counter pays its structural extra wave."
    );
}
