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
//! * [`Mutation::MergeEpochs`] — strip parity tags off every message, so
//!   receivers never flip into the odd epoch: events concurrent with an
//!   in-flight reduction leak into its cut (the classic false-zero).
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

use caf_core::ids::Parity;
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
}

impl Family {
    /// All sound families (the ones `suite` explores).
    pub const ALL: [Family; 3] = [Family::EpochStrict, Family::EpochLoose, Family::FourCounter];

    /// Stable name used in replay files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::EpochStrict => "epoch-strict",
            Family::EpochLoose => "epoch-loose",
            Family::FourCounter => "four-counter",
            Family::Barrier => "barrier",
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
        matches!(self, Family::EpochStrict)
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
            Family::EpochStrict => Det::Epoch(EpochDetector::new(true)),
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
    /// Message parity tags are stripped (no even/odd epoch separation).
    MergeEpochs,
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
}

impl Mutation {
    /// All detector-level mutations (the cofence mutations live in
    /// `cofence_check`).
    pub const ALL: [Mutation; 7] = [
        Mutation::DropQuiescenceWait,
        Mutation::MergeEpochs,
        Mutation::SkipPoison,
        Mutation::LocalVerdict,
        Mutation::SingleWaveFourCounter,
        Mutation::AckCompleteConfusion,
        Mutation::StaleContribution,
    ];

    /// Stable name used by the CLI, replay files, and `mutate_check.sh`.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropQuiescenceWait => "drop-quiescence-wait",
            Mutation::MergeEpochs => "merge-epochs",
            Mutation::SkipPoison => "skip-poison",
            Mutation::LocalVerdict => "local-verdict",
            Mutation::SingleWaveFourCounter => "single-wave-four-counter",
            Mutation::AckCompleteConfusion => "ack-complete-confusion",
            Mutation::StaleContribution => "stale-contribution",
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
    fn on_send(&mut self) -> Parity {
        let tag = self.det.inner().on_send();
        if self.mutation == Some(Mutation::MergeEpochs) {
            // No epoch separation: every message travels tagged Even, so
            // receivers never flip into the odd epoch.
            Parity::Even
        } else {
            tag
        }
    }

    fn on_delivered(&mut self, tag: Parity) {
        if self.mutation == Some(Mutation::AckCompleteConfusion) {
            self.det.inner().on_complete(tag);
        } else {
            self.det.inner().on_delivered(tag);
        }
    }

    fn on_receive(&mut self, tag: Parity) {
        self.det.inner().on_receive(tag);
    }

    fn on_complete(&mut self, tag: Parity) {
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

    /// Cumulative `[sent, delivered, received, completed]` across both
    /// parities — wave-fold independent, so a DES replay that schedules
    /// the same message steps must reproduce it exactly. `None` for
    /// non-epoch families.
    pub fn epoch_counters(&self) -> Option<[u64; 4]> {
        match &self.det {
            Det::Epoch(d) => {
                let s = d.epochs();
                let (e, o) = (s.counters(Parity::Even), s.counters(Parity::Odd));
                Some([
                    e.sent + o.sent,
                    e.delivered + o.delivered,
                    e.received + o.received,
                    e.completed + o.completed,
                ])
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
        w.on_delivered(Parity::Even);
        d.on_delivered(Parity::Even);
        assert_eq!(w.enter_wave(), d.enter_wave());
        assert_eq!(w.exit_wave([0, 0]), d.exit_wave([0, 0]));
        assert_eq!(w.waves(), d.waves());
    }

    #[test]
    fn merge_epochs_strips_odd_tags() {
        let mut w = CheckedDetector::new(Family::EpochStrict, Some(Mutation::MergeEpochs));
        w.enter_wave(); // detector now in the odd epoch
        assert_eq!(w.on_send(), Parity::Even, "mutated tag must stay Even");
        let mut clean = CheckedDetector::new(Family::EpochStrict, None);
        clean.enter_wave();
        assert_eq!(clean.on_send(), Parity::Odd);
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
