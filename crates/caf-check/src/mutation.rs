//! Detector families and seeded protocol mutations.
//!
//! The explorer drives the *real* detectors from `caf-core` through a
//! thin dispatch enum. Mutations are applied from the outside, as
//! perturbations of the wrapper — the production code is never modified,
//! yet each mutation reproduces a classic termination-detection bug
//! precisely enough for the checker to exhibit it:
//!
//! * [`Mutation::DropQuiescenceWait`] — skip Fig. 7 line 4 entirely
//!   (always ready): breaks the Theorem 1 wave bound.
//! * [`Mutation::MergeEpochs`] — ignore the wave tag: every message
//!   travels tagged 0, so a completion of a message sent after its sender
//!   entered a wave leaks into that wave's cut (the classic false-zero).
//! * [`Mutation::NextWaveAlias`] — a completion tagged one wave ahead
//!   counts as current while its receiver is still inside the wave:
//!   the paper's parity tags, which alias wave `w + 1` with `w − 1` once
//!   images leave a wave at different times.
//! * [`Mutation::SkipPoison`] — ignore fail-stop poison: a crash turns
//!   into a deadlock instead of an abort.
//! * [`Mutation::LocalVerdict`] — decide termination from the image's own
//!   contribution instead of the reduced global sum: images diverge.
//! * [`Mutation::SingleWaveFourCounter`] — drop Mattern's count-twice
//!   stability rule: terminate on the first balanced wave.
//! * [`Mutation::AckCompleteConfusion`] — wire delivery acks into the
//!   completion callback: the sender never quiesces.
//! * [`Mutation::StaleContribution`] — contribute the first wave's value
//!   forever (a forgotten counter fold): the sum can never reach zero.
//! * [`Mutation::AckMiscount`] — a counted delivery ack of `k` messages
//!   reports `k − 1`: the sender never quiesces. This one perturbs the
//!   world's ack step, not the detector wrapper.
//! * [`Mutation::FlushOnCapOnly`] — an aggregating image flushes a
//!   destination's buffer only once it is full, never before wave entry
//!   or while it waits: a short buffer never leaves, and its sender never
//!   quiesces. This one perturbs the world's flush and enter steps.

use caf_core::termination::{
    BarrierDetector, Contribution, EpochDetector, FourCounterDetector, WaveDecision, WaveDetector,
};

/// Which wave-detector family the explorer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's algorithm with the quiescence precondition (Fig. 7).
    EpochStrict,
    /// The "algorithm w/o upper bound" baseline (no quiescence wait).
    EpochLoose,
    /// Mattern's four-counter algorithm (AM++).
    FourCounter,
    /// The unsound barrier strawman of Fig. 5: its one wave is a barrier
    /// entered once locally done. Kept out of [`Family::ALL`] (and so out
    /// of `suite`): it is unsound by design.
    Barrier,
    /// The strict epoch algorithm with per-destination aggregation: a
    /// spawn waits in its image's buffer for that destination until a
    /// flush puts it on the wire, and an image enters a wave only with
    /// empty buffers. The other families are its `k = 1` case, where
    /// every spawn flushes at once.
    Aggregated,
}

impl Family {
    /// All sound families (the ones `suite` explores).
    pub const ALL: [Family; 4] =
        [Family::EpochStrict, Family::EpochLoose, Family::FourCounter, Family::Aggregated];

    /// Stable name used in replay files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::EpochStrict => "epoch-strict",
            Family::EpochLoose => "epoch-loose",
            Family::FourCounter => "four-counter",
            Family::Barrier => "barrier",
            Family::Aggregated => "aggregated",
        }
    }

    /// Parses [`Family::name`].
    pub fn parse(s: &str) -> Result<Family, String> {
        Family::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| format!("unknown detector family {s:?}"))
    }

    /// Whether the Theorem 1 `L + 1` wave bound applies to this family.
    pub fn theorem1_applies(self) -> bool {
        matches!(self, Family::EpochStrict | Family::Aggregated)
    }
}

/// Enum dispatch over the concrete wave detectors.
#[derive(Debug, Clone)]
enum Det {
    Epoch(EpochDetector),
    Four(FourCounterDetector),
    Barrier(BarrierDetector),
}

impl Det {
    fn new(family: Family) -> Det {
        match family {
            Family::EpochStrict | Family::Aggregated => Det::Epoch(EpochDetector::new(true)),
            Family::EpochLoose => Det::Epoch(EpochDetector::new(false)),
            Family::FourCounter => Det::Four(FourCounterDetector::new()),
            Family::Barrier => Det::Barrier(BarrierDetector::new()),
        }
    }

    fn inner(&mut self) -> &mut dyn WaveDetector {
        match self {
            Det::Epoch(d) => d,
            Det::Four(d) => d,
            Det::Barrier(d) => d,
        }
    }

    fn inner_ref(&self) -> &dyn WaveDetector {
        match self {
            Det::Epoch(d) => d,
            Det::Four(d) => d,
            Det::Barrier(d) => d,
        }
    }
}

/// A seeded protocol mutation (see module docs for the bug each models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Always ready: the quiescence wait of Fig. 7 line 4 is skipped.
    DropQuiescenceWait,
    /// The wave tag is ignored: every message travels tagged 0.
    MergeEpochs,
    /// Inside a wave, a completion tagged one wave ahead counts as current.
    NextWaveAlias,
    /// Fail-stop poison is swallowed instead of propagated.
    SkipPoison,
    /// Termination decided from the local contribution, not the sum.
    LocalVerdict,
    /// Four-counter terminates on the first balanced wave (no stability).
    SingleWaveFourCounter,
    /// Delivery acks are counted as completions.
    AckCompleteConfusion,
    /// Every wave re-contributes the first wave's value.
    StaleContribution,
    /// A counted ack of `k` deliveries is applied as `k − 1`.
    AckMiscount,
    /// Aggregation buffers flush only when full: not before wave entry,
    /// not while the image waits.
    FlushOnCapOnly,
}

impl Mutation {
    /// All finish-protocol mutations (the cofence mutations live in
    /// `cofence_check`).
    pub const ALL: [Mutation; 10] = [
        Mutation::DropQuiescenceWait,
        Mutation::MergeEpochs,
        Mutation::NextWaveAlias,
        Mutation::SkipPoison,
        Mutation::LocalVerdict,
        Mutation::SingleWaveFourCounter,
        Mutation::AckCompleteConfusion,
        Mutation::StaleContribution,
        Mutation::AckMiscount,
        Mutation::FlushOnCapOnly,
    ];

    /// Stable name used by the CLI, replay files, and `mutate_check.sh`.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropQuiescenceWait => "drop-quiescence-wait",
            Mutation::MergeEpochs => "merge-epochs",
            Mutation::NextWaveAlias => "next-wave-alias",
            Mutation::SkipPoison => "skip-poison",
            Mutation::LocalVerdict => "local-verdict",
            Mutation::SingleWaveFourCounter => "single-wave-four-counter",
            Mutation::AckCompleteConfusion => "ack-complete-confusion",
            Mutation::StaleContribution => "stale-contribution",
            Mutation::AckMiscount => "ack-miscount",
            Mutation::FlushOnCapOnly => "flush-on-cap-only",
        }
    }

    /// Parses [`Mutation::name`].
    pub fn parse(s: &str) -> Result<Mutation, String> {
        Mutation::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown mutation {s:?}"))
    }

    /// The family whose exploration exhibits this mutation's bug.
    pub fn family(self) -> Family {
        match self {
            Mutation::SingleWaveFourCounter => Family::FourCounter,
            Mutation::FlushOnCapOnly => Family::Aggregated,
            // Without the quiescence wait one spawn level suffices.
            Mutation::NextWaveAlias => Family::EpochLoose,
            _ => Family::EpochStrict,
        }
    }

    /// Whether the mutation needs a crash scenario to be observable.
    pub fn needs_crash(self) -> bool {
        matches!(self, Mutation::SkipPoison)
    }
}

/// A detector of some family with an optional mutation applied. This is
/// what the explorer's world actually holds, one per image.
#[derive(Debug, Clone)]
pub struct CheckedDetector {
    det: Det,
    mutation: Option<Mutation>,
    /// `StaleContribution`: the cached first-wave contribution.
    first_contribution: Option<Contribution>,
    /// `LocalVerdict`: the contribution of the currently open wave.
    last_contribution: Contribution,
    /// Poison this wrapper has seen, even when `SkipPoison` swallows it
    /// (the oracle needs ground truth about what the detector was told).
    poison_seen: Option<usize>,
}

impl CheckedDetector {
    /// A fresh, optionally mutated detector of `family`.
    pub fn new(family: Family, mutation: Option<Mutation>) -> Self {
        CheckedDetector {
            det: Det::new(family),
            mutation,
            first_contribution: None,
            last_contribution: [0, 0],
            poison_seen: None,
        }
    }
}

impl WaveDetector for CheckedDetector {
    fn on_send(&mut self) -> u32 {
        let tag = self.det.inner().on_send();
        if self.mutation == Some(Mutation::MergeEpochs) {
            0
        } else {
            tag
        }
    }

    fn on_delivered(&mut self) {
        if self.mutation == Some(Mutation::AckCompleteConfusion) {
            self.det.inner().on_complete(0);
        } else {
            self.det.inner().on_delivered();
        }
    }

    fn on_receive(&mut self) {
        self.det.inner().on_receive();
    }

    fn on_complete(&mut self, tag: u32) {
        let tag = match &self.det {
            // Inside wave `w` (entered `w` waves, exited `w − 1`), a tag of
            // `w + 1` aliases to `w`, as parity would have it.
            Det::Epoch(d)
                if self.mutation == Some(Mutation::NextWaveAlias)
                    && d.epoch() as usize > d.waves() =>
            {
                tag.min(d.epoch())
            }
            _ => tag,
        };
        self.det.inner().on_complete(tag);
    }

    fn ready(&self) -> bool {
        if self.mutation == Some(Mutation::DropQuiescenceWait) {
            return true;
        }
        self.det.inner_ref().ready()
    }

    fn enter_wave(&mut self) -> Contribution {
        let real = self.det.inner().enter_wave();
        self.last_contribution = real;
        match self.mutation {
            Some(Mutation::StaleContribution) => *self.first_contribution.get_or_insert(real),
            _ => real,
        }
    }

    fn exit_wave(&mut self, reduced: Contribution) -> WaveDecision {
        let real = self.det.inner().exit_wave(reduced);
        match self.mutation {
            Some(Mutation::LocalVerdict) if real != WaveDecision::Poisoned => {
                if self.last_contribution[0] == 0 {
                    WaveDecision::Terminated
                } else {
                    WaveDecision::Continue
                }
            }
            Some(Mutation::SingleWaveFourCounter) if real != WaveDecision::Poisoned => {
                if reduced[0] == reduced[1] {
                    WaveDecision::Terminated
                } else {
                    WaveDecision::Continue
                }
            }
            _ => real,
        }
    }

    fn waves(&self) -> usize {
        self.det.inner_ref().waves()
    }

    fn poison(&mut self, image: usize) {
        self.poison_seen.get_or_insert(image);
        if self.mutation == Some(Mutation::SkipPoison) {
            return;
        }
        self.det.inner().poison(image);
    }

    fn poisoned_by(&self) -> Option<usize> {
        self.det.inner_ref().poisoned_by()
    }
}

impl CheckedDetector {
    /// Whether this detector was ever told about a crash, regardless of
    /// whether the (possibly mutated) implementation honored it.
    pub fn poison_seen(&self) -> Option<usize> {
        self.poison_seen
    }

    /// Cumulative `[sent, delivered, received, completed]` — independent
    /// of waves, so a DES replay that schedules the same message steps
    /// must reproduce it exactly. `None` for non-epoch families.
    pub fn epoch_counters(&self) -> Option<[u64; 4]> {
        match &self.det {
            Det::Epoch(d) => {
                let c = d.counters();
                Some([c.sent, c.delivered, c.received, c.completed])
            }
            Det::Four(_) | Det::Barrier(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmutated_wrapper_is_transparent() {
        let mut w = CheckedDetector::new(Family::EpochStrict, None);
        let mut d = EpochDetector::new(true);
        assert_eq!(w.on_send(), d.on_send());
        assert_eq!(w.ready(), d.ready());
        w.on_delivered();
        d.on_delivered();
        assert_eq!(w.enter_wave(), d.enter_wave());
        assert_eq!(w.exit_wave([0, 0]), d.exit_wave([0, 0]));
        assert_eq!(w.waves(), d.waves());
    }

    #[test]
    fn merge_epochs_strips_wave_tags() {
        let mut w = CheckedDetector::new(Family::EpochStrict, Some(Mutation::MergeEpochs));
        w.enter_wave(); // detector now in epoch 1
        assert_eq!(w.on_send(), 0, "mutated tag must stay 0");
        let mut clean = CheckedDetector::new(Family::EpochStrict, None);
        clean.enter_wave();
        assert_eq!(clean.on_send(), 1);
    }

    #[test]
    fn next_wave_alias_counts_an_ahead_completion_only_inside_a_wave() {
        let contribution_after = |mutation, inside: bool| {
            let mut w = CheckedDetector::new(Family::EpochLoose, mutation);
            if inside {
                w.enter_wave();
            }
            w.on_receive();
            w.on_complete(if inside { 2 } else { 1 }); // one wave ahead
            if inside {
                w.exit_wave([1, 0]);
            }
            w.enter_wave()[0]
        };
        assert_eq!(contribution_after(None, true), 0, "ahead: left for the next cut");
        assert_eq!(contribution_after(Some(Mutation::NextWaveAlias), true), -1);
        assert_eq!(contribution_after(Some(Mutation::NextWaveAlias), false), 0);
    }

    #[test]
    fn skip_poison_swallows_but_records() {
        let mut w = CheckedDetector::new(Family::EpochStrict, Some(Mutation::SkipPoison));
        w.poison(2);
        assert_eq!(w.poisoned_by(), None, "mutation must swallow the poison");
        assert_eq!(w.poison_seen(), Some(2), "ground truth must survive");
    }

    #[test]
    fn drop_quiescence_wait_is_always_ready() {
        let mut w = CheckedDetector::new(Family::EpochStrict, Some(Mutation::DropQuiescenceWait));
        w.on_send(); // unacked: the real strict detector would block
        assert!(w.ready());
    }

    #[test]
    fn names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.name()).unwrap(), m);
        }
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()).unwrap(), f);
        }
    }
}
