//! `uts_geo`: parallel UTS (`uts::caf_uts::run_uts`) on a GEO-fixed
//! b₀ = 4 tree, the shape of the figure harnesses' scaled tree.
//!
//! Compute-bound in SHA-1 node expansion, with a handful of steals and
//! lifeline pushes and one `finish` per traversal: the workload that a
//! fabric or finish change should leave alone and that a kernel change
//! moves alone. Each traversal is one launch; the loop is closed
//! (traversals run back to back).
//!
//! The seed picks the tree. A GEO tree's size is dominated by the
//! randomness of its first levels (a quarter of all trees die out), so
//! the seed walks a sequence of candidate tree seeds and takes the first
//! whose population at depth [`UtsParams::probe_level`] lies within
//! [`UtsParams::band`] of 4^probe_level. Every seed then gets a tree of
//! nearly the same size, which keeps run-to-run figures comparable.
//!
//! Correctness gate: every traversal's node total must equal the
//! sequential `count_tree` of the same tree, computed before the timed
//! loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use caf_runtime::{Runtime, RuntimeConfig, RuntimeError};
use uts::caf_uts::{run_uts, UtsConfig};
use uts::{count_tree, TreeSpec};

use crate::phase::{Block, Phase, UtsCounters};
use crate::trace::{self, Name, Tracer, ROOT};
use crate::{IMAGES, SETUP_PROBES};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct UtsParams {
    /// Depth horizon of the GEO-fixed tree.
    pub depth: usize,
    /// Depth whose population selects the tree.
    pub probe_level: u32,
    /// Accepted relative distance of that population from 4^probe_level.
    pub band: f64,
    /// Time blocks per phase (see [`Phase::quiet_blocks`]).
    pub blocks: usize,
}

impl UtsParams {
    /// The benchmark's sizes: depth 8 (about 87 k nodes, tens of ms per
    /// traversal on two images), selected within ±3 % at depth 6, twelve
    /// blocks per phase.
    pub fn full() -> Self {
        UtsParams { depth: 8, probe_level: 6, band: 0.03, blocks: 12 }
    }
}

/// Population of `level`, or `None` once a level exceeds `cap` nodes.
fn level_population(spec: &TreeSpec, level: u32, cap: usize) -> Option<usize> {
    let mut frontier = vec![spec.root()];
    let mut next = Vec::new();
    for _ in 0..level {
        next.clear();
        for node in &frontier {
            spec.expand_into(node, &mut next);
        }
        if next.len() > cap {
            return None;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    Some(frontier.len())
}

/// The tree for `seed`: deterministic, and of nearly the same size for
/// every seed.
pub fn choose_tree(seed: u64, p: &UtsParams) -> TreeSpec {
    assert!((p.probe_level as usize) < p.depth, "probe level must lie above the horizon");
    let target = 4f64.powi(p.probe_level as i32);
    let cap = (target * (1.0 + p.band)) as usize;
    (0u64..)
        .map(|k| {
            let tree_seed = (crate::mix64(seed ^ crate::mix64(k)) >> 33) as i32;
            TreeSpec::geo_fixed(4.0, p.depth, tree_seed)
        })
        .find(|spec| {
            level_population(spec, p.probe_level, cap)
                .is_some_and(|n| (n as f64 - target).abs() <= p.band * target)
        })
        .expect("some candidate tree falls in the band")
}

/// The chosen tree and its sequential node count.
pub struct Prepared {
    /// Tree parameters.
    pub spec: TreeSpec,
    /// Nodes (`count_tree`).
    pub nodes: u64,
    /// Blocks per phase.
    pub blocks: usize,
}

/// Chooses the tree for `seed` and counts it sequentially.
pub fn prepare(seed: u64, p: &UtsParams) -> Prepared {
    let spec = choose_tree(seed, p);
    Prepared { spec, nodes: count_tree(&spec).nodes, blocks: p.blocks }
}

/// Launch to the first operation of a traversal, s: `run_uts` owns its
/// launch, so the probe repeats what it does before its `finish` (spawn
/// the images and their comm threads, then synchronize once).
fn setup_probe(cfg: &RuntimeConfig) -> Result<f64, RuntimeError> {
    let launched = Instant::now();
    let out = Runtime::try_launch(IMAGES, cfg.clone(), |img| {
        img.barrier(&img.world());
        launched.elapsed().as_secs_f64()
    })?;
    Ok(out[0])
}

/// Runs traversals back to back for `secs`, with [`SETUP_PROBES`] set-up
/// probes at the start of each block (outside the timed region).
pub fn run_phase(prep: &Prepared, secs: f64, traced: bool) -> Phase {
    let cfg = RuntimeConfig::default();
    let tr = Tracer::new(traced);
    let mut ph = Phase::default();
    let mut c = UtsCounters { tree_nodes: prep.nodes, ..UtsCounters::default() };
    if traced {
        // The kernel baseline: one sequential traversal of the same tree.
        let s = tr.open(Name::CountTree, 0, ROOT);
        let t = Instant::now();
        let n = count_tree(&prep.spec).nodes;
        c.seq_s = t.elapsed().as_secs_f64();
        tr.close(s);
        if n != prep.nodes {
            ph.fail(1, format!("sequential count {n} differs from {}", prep.nodes));
        }
    }
    let block_len = Duration::from_secs_f64(secs / prep.blocks as f64);
    let start = Instant::now();
    let deadline = start + block_len * prep.blocks as u32;
    let mut block_end = start + block_len;
    let mut block = Block::default();
    while Instant::now() < deadline && !ph.fatal {
        if block.sync_us.is_empty() {
            for _ in 0..SETUP_PROBES {
                match setup_probe(&cfg) {
                    Ok(s) => ph.setup_s.push(s),
                    Err(e) => ph.fatal(format!("set-up probe: {e}")),
                }
            }
        }
        let id = c.traversals as u32;
        crate::procfs::fresh_rss_window();
        let s = tr.open(Name::RunUts, id, ROOT);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_uts(IMAGES, cfg.clone(), UtsConfig::new(prep.spec))
        }));
        let dt = t.elapsed();
        tr.close(s);
        ph.rss_mib.push(crate::procfs::peak_rss_mib().unwrap_or(f64::NAN));
        let Ok(out) = out else {
            ph.attempted += prep.nodes;
            ph.fatal(format!("traversal {id} panicked"));
            break;
        };
        if out.total_nodes != prep.nodes {
            ph.fail(
                prep.nodes,
                format!("traversal {id}: {} nodes, expected {}", out.total_nodes, prep.nodes),
            );
        }
        ph.ops += out.total_nodes;
        ph.attempted += prep.nodes;
        ph.timed += dt;
        block.ops += out.total_nodes;
        block.timed += dt;
        block.sync_us.push(dt.as_secs_f64() * 1e6);
        if Instant::now() >= block_end {
            ph.blocks.push(std::mem::take(&mut block));
            block_end += block_len;
        }
        ph.waves.extend(out.waves.iter().map(|&w| w as f64));
        let max = out.per_image.iter().copied().max().unwrap_or(0) as f64;
        let mean = out.total_nodes as f64 / IMAGES as f64;
        c.imbalance_sum += if mean > 0.0 { max / mean } else { 1.0 };
        c.steals += out.steals_attempted.iter().sum::<u64>();
        c.lifeline_pushes += out.lifeline_pushes.iter().sum::<u64>();
        c.traversals += 1;
    }
    if !block.sync_us.is_empty() {
        ph.blocks.push(block);
    }
    trace::append(&mut ph.spans, tr.into_spans());
    ph.uts = Some(c);
    ph
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> UtsParams {
        UtsParams { depth: 5, probe_level: 3, band: 0.2, blocks: 2 }
    }

    #[test]
    fn same_seed_same_tree_and_sizes_agree() {
        let p = UtsParams::full();
        assert_eq!(choose_tree(3, &p), choose_tree(3, &p));
        assert_ne!(choose_tree(3, &p), choose_tree(4, &p));
        let target = 4f64.powi(p.probe_level as i32);
        for seed in 0..4 {
            let spec = choose_tree(seed, &p);
            let n = level_population(&spec, p.probe_level, usize::MAX).unwrap() as f64;
            assert!((n - target).abs() <= p.band * target, "seed {seed}: {n}");
        }
    }

    #[test]
    fn smoke_run_passes_the_gate() {
        let prep = prepare(1, &tiny());
        let ph = run_phase(&prep, 0.1, true);
        assert!(ph.errors.is_empty(), "{:?}", ph.errors);
        assert!(ph.ops > 0 && ph.failed == 0);
        assert_eq!(ph.ops % prep.nodes, 0);
        assert!(!ph.setup_s.is_empty() && ph.setup_s.len().is_multiple_of(SETUP_PROBES));
        let c = ph.uts.unwrap();
        assert!(c.seq_s > 0.0 && c.traversals > 0);
    }
}
