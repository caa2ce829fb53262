//! What one measured phase of a workload yields.

use std::time::Duration;

use crate::trace::Span;

/// Fabric counter deltas over the timed loops (`Image::fabric_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricDelta {
    /// Logical messages sent.
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Sender stalls on a full target inbox.
    pub stalls: u64,
}

impl FabricDelta {
    /// `after − before` of two `(messages, bytes, stalls)` snapshots.
    pub fn between(before: (u64, u64, u64), after: (u64, u64, u64)) -> Self {
        FabricDelta {
            msgs: after.0 - before.0,
            bytes: after.1 - before.1,
            stalls: after.2 - before.2,
        }
    }

    /// Accumulates another delta.
    pub fn add(&mut self, o: FabricDelta) {
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.stalls += o.stalls;
    }
}

/// Counters read from `UtsOutcome`, summed over traversals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtsCounters {
    /// Traversals run.
    pub traversals: u64,
    /// Sum over traversals of max/mean per-image node counts.
    pub imbalance_sum: f64,
    /// Steal attempts, summed over images and traversals.
    pub steals: u64,
    /// Lifeline pushes received, summed over images and traversals.
    pub lifeline_pushes: u64,
    /// Nodes of the chosen tree.
    pub tree_nodes: u64,
    /// Sequential (`count_tree`) traversal time of the chosen tree, s.
    pub seq_s: f64,
}

/// One round (a launch) or block of traversals of a phase.
#[derive(Debug, Default)]
pub struct Block {
    /// Useful operations completed.
    pub ops: u64,
    /// Wall time of the timed loop.
    pub timed: Duration,
    /// Completion-latency samples of the workload's unit, µs.
    pub sync_us: Vec<f64>,
}

impl Block {
    /// Operations per second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.timed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// One measured phase (a run is one untraced phase, or an untraced and a
/// traced phase of half the length each).
#[derive(Debug, Default)]
pub struct Phase {
    /// Useful operations completed in the timed loops.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (runtime errors or correctness-gate misses).
    pub failed: u64,
    /// Wall time of the timed loops.
    pub timed: Duration,
    /// The rounds (or blocks of traversals), in order.
    pub blocks: Vec<Block>,
    /// Set-up times, s: one per launch.
    pub setup_s: Vec<f64>,
    /// Peak RSS of each launch, MiB.
    pub rss_mib: Vec<f64>,
    /// Fabric traffic in the timed loops (`None` where the workload
    /// cannot read it).
    pub fabric: Option<FabricDelta>,
    /// Termination-detection waves of each finish call.
    pub waves: Vec<f64>,
    /// Spans (traced phases only).
    pub spans: Vec<Span>,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Wall seconds over the phase.
    pub wall_s: f64,
    /// Share of machine CPU time the hypervisor stole during the phase.
    pub steal_share: f64,
    /// UTS counters (uts workload only).
    pub uts: Option<UtsCounters>,
    /// Human-readable reasons for failed operations.
    pub errors: Vec<String>,
    /// A launch ended in a runtime error (stall, image failure, panic):
    /// every operation of the run counts as failed.
    pub fatal: bool,
}

impl Phase {
    /// The faster half of the blocks (rounded up), fastest first. On a
    /// shared host another tenant's load slows whole stretches of a run;
    /// the end-to-end figures come from the blocks it disturbed least, by
    /// the same rule on every commit.
    pub fn quiet_blocks(&self) -> Vec<&Block> {
        let mut bs: Vec<&Block> = self.blocks.iter().collect();
        bs.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
        bs.truncate(bs.len().div_ceil(2));
        bs
    }

    /// Useful operations per second: the median rate of
    /// [`Phase::quiet_blocks`].
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.quiet_blocks().iter().map(|b| b.rate()).collect();
        crate::stats::median(&rates)
            .unwrap_or(self.ops as f64 / self.timed.as_secs_f64().max(f64::MIN_POSITIVE))
    }

    /// The latency samples of [`Phase::quiet_blocks`], pooled.
    pub fn quiet_sync_us(&self) -> Vec<f64> {
        self.quiet_blocks().iter().flat_map(|b| b.sync_us.iter().copied()).collect()
    }

    /// Accounts one round: `ops` operations in `timed`, with their
    /// latency samples.
    pub fn add_round(&mut self, ops: u64, timed: Duration, sync_us: Vec<f64>) {
        self.ops += ops;
        self.attempted += ops;
        self.timed += timed;
        self.blocks.push(Block { ops, timed, sync_us });
    }

    /// Marks `n` operations failed for `why`.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.errors.push(why);
    }

    /// Records a runtime error, which fails the whole run.
    pub fn fatal(&mut self, why: String) {
        self.fatal = true;
        self.errors.push(why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_come_from_the_faster_half_of_the_blocks() {
        let mut ph = Phase::default();
        let s = Duration::from_secs(1);
        for (ops, lat) in [(10, 100.0), (40, 25.0), (20, 50.0), (30, 33.0), (5, 200.0)] {
            ph.add_round(ops, s, vec![lat; ops as usize]);
        }
        assert_eq!(ph.ops, 105);
        let rates: Vec<f64> = ph.quiet_blocks().iter().map(|b| b.rate()).collect();
        assert_eq!(rates, [40.0, 30.0, 20.0]);
        assert_eq!(ph.ops_per_s(), 30.0);
        let lat = ph.quiet_sync_us();
        assert_eq!(lat.len(), 90);
        assert!(lat.iter().all(|&l| l <= 50.0));
    }
}
