//! Property-based tests on caf-core invariants: algebraic properties of
//! the cofence/memory-model layer and the topology schedules, fault and
//! dedup determinism, and detector-level properties on random traces.
//! (Soundness, liveness and the Theorem 1 wave bound over randomized
//! spawn forests and schedules run on `caf-check`'s world, in that
//! crate's proptests.)

use std::time::Duration;

use caf_core::cofence::{CofenceSpec, LocalAccess, Pass};
use caf_core::fault::{FaultDecision, FaultPlan, RetryPolicy, SeqTracker};
use caf_core::ids::TeamRank;
use caf_core::model::{validate_execution, Execution, Stmt};
use caf_core::rng::SplitMix64;
use caf_core::termination::{EpochDetector, FourCounterDetector, WaveDetector};
use caf_core::topology::{dissemination_peers, hypercube_neighbors, BinomialTree, Team};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cofence permissiveness is monotone: anything admitted by a fence is
    /// admitted by any at-least-as-permissive fence, in both directions.
    #[test]
    fn cofence_monotonicity(
        d1 in 0usize..4, u1 in 0usize..4, d2 in 0usize..4, u2 in 0usize..4,
        reads in any::<bool>(), writes in any::<bool>(),
    ) {
        const PASSES: [Pass; 4] = [Pass::None, Pass::Reads, Pass::Writes, Pass::Any];
        let a = CofenceSpec::new(PASSES[d1], PASSES[u1]);
        let b = CofenceSpec::new(PASSES[d2], PASSES[u2]);
        let access = LocalAccess { reads, writes };
        if b.at_least_as_permissive(&a) {
            if !a.blocks_down(access) {
                prop_assert!(!b.blocks_down(access));
            }
            if a.admits_up(access) {
                prop_assert!(b.admits_up(access));
            }
        }
    }

    /// Executing every operation exactly at its program position is
    /// always a legal execution (the relaxed model only *adds* freedom).
    #[test]
    fn program_order_execution_is_always_legal(
        stmts in prop::collection::vec(arb_stmt(), 1..12)
    ) {
        let asyncs: Vec<usize> = stmts.iter().enumerate()
            .filter_map(|(i, s)| matches!(s, Stmt::Async { .. }).then_some(i))
            .collect();
        let exec = Execution {
            completed_by: asyncs.clone(),
            initiated_at: asyncs.clone(),
        };
        prop_assert!(validate_execution(&stmts, &exec).is_empty());
    }

    /// A binomial tree over a random size/root reaches every rank exactly
    /// once, with mutual parent/child links.
    #[test]
    fn binomial_tree_spans(size in 1usize..130, root_frac in 0.0f64..1.0) {
        let root = ((size as f64 * root_frac) as usize).min(size - 1);
        let tree = BinomialTree::new(size, TeamRank(root));
        let mut reached = vec![false; size];
        let mut stack = vec![TeamRank(root)];
        while let Some(r) = stack.pop() {
            prop_assert!(!reached[r.0]);
            reached[r.0] = true;
            for c in tree.children(r) {
                prop_assert_eq!(tree.parent(c), Some(r));
                stack.push(c);
            }
        }
        prop_assert!(reached.iter().all(|&x| x));
    }

    /// `team_split` partitions the team: every member lands in exactly one
    /// part, and parts are ordered by key.
    #[test]
    fn team_split_partitions(
        n in 1usize..40,
        colors in prop::collection::vec(0u64..5, 40),
        keys in prop::collection::vec(0u64..10, 40),
    ) {
        let t = Team::world(n);
        let parts = t.split_by(|r| (colors[r.0], keys[r.0]));
        let total: usize = parts.iter().map(|(_, m)| m.len()).sum();
        prop_assert_eq!(total, n);
        let mut seen = std::collections::HashSet::new();
        for (color, members) in &parts {
            for (i, m) in members.iter().enumerate() {
                prop_assert!(seen.insert(*m));
                let rank = t.rank_of(*m).unwrap();
                prop_assert_eq!(colors[rank.0], *color);
                if i > 0 {
                    let prev = t.rank_of(members[i - 1]).unwrap();
                    prop_assert!(
                        (keys[prev.0], prev.0) <= (keys[rank.0], rank.0),
                        "members must be key-ordered"
                    );
                }
            }
        }
    }

    /// Dissemination schedule correctness for arbitrary sizes: after all
    /// rounds every rank has transitively heard from every other rank.
    #[test]
    fn dissemination_covers(size in 1usize..64) {
        let mut knows: Vec<u128> = (0..size).map(|r| 1u128 << r).collect();
        let rounds = dissemination_peers(size, TeamRank(0)).len();
        for round in 0..rounds {
            let snapshot = knows.clone();
            for (r, snap) in snapshot.iter().enumerate() {
                let (to, _) = dissemination_peers(size, TeamRank(r))[round];
                knows[to.0] |= snap;
            }
        }
        let all = (1u128 << size) - 1;
        for k in &knows {
            prop_assert_eq!(*k, all);
        }
    }

    /// Hypercube lifelines form a connected graph (work can propagate from
    /// anyone to anyone — the liveness Saraswat's lifeline scheme needs).
    #[test]
    fn lifeline_graph_is_connected(size in 1usize..200) {
        let mut visited = vec![false; size];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(r) = stack.pop() {
            for n in hypercube_neighbors(size, TeamRank(r)) {
                if !visited[n.0] {
                    visited[n.0] = true;
                    count += 1;
                    stack.push(n.0);
                }
            }
        }
        prop_assert_eq!(count, size);
    }
}

/// Strategy for a random fault plan over `images` images: uniform drops,
/// duplication, delay spikes, per-link overrides, and stall windows.
fn fault_plan(images: usize) -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u32..40,
        0u32..40,
        0u32..30,
        prop::collection::vec((0..images, 0..images, 0u32..101), 0..3),
        prop::collection::vec((0..images, 0u64..50, 1u64..50), 0..2),
    )
        .prop_map(|(seed, drop, dup, spike, links, stalls)| {
            let mut p = FaultPlan::uniform_drop(seed, drop as f64 / 100.0)
                .with_dup(dup as f64 / 100.0)
                .with_spikes(spike as f64 / 100.0, Duration::from_micros(10));
            for (f, t, d) in links {
                p = p.with_link(f, t, d as f64 / 100.0);
            }
            for (i, s, l) in stalls {
                p = p.with_stall(i, Duration::from_micros(s), Duration::from_micros(l));
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault decisions are a pure function of (plan, link, sequence), and
    /// self-sends are always exempt — the bedrock of reproducible chaos.
    #[test]
    fn fault_decisions_deterministic_and_self_exempt(
        plan in fault_plan(6),
        probes in prop::collection::vec((0usize..6, 0usize..6, any::<u64>()), 1..50),
    ) {
        for (from, to, seq) in probes {
            let d = plan.decide(from, to, seq);
            prop_assert_eq!(d, plan.decide(from, to, seq), "decision must be pure");
            if from == to {
                prop_assert_eq!(d, FaultDecision::CLEAN);
            }
        }
    }

    /// The abstract reliable link: each message is retransmitted until a
    /// copy survives the plan's drops (or the retry budget runs out), the
    /// surviving copies — including injected duplicates — arrive in an
    /// adversarial shuffle, and [`SeqTracker`] dedup restores exactly-once:
    /// no loss (beyond explicit budget exhaustion) and no double count.
    #[test]
    fn retry_plus_dedup_restores_exactly_once(
        plan in fault_plan(4),
        n in 1usize..120,
        shuffle_seed in any::<u64>(),
    ) {
        let retry = RetryPolicy::default();
        let mut wire_seq = 0u64;
        let mut copies: Vec<u64> = Vec::new();
        let mut lost = 0usize;
        for link_seq in 0..n as u64 {
            let mut delivered = false;
            for _attempt in 0..=retry.max_retries {
                let d = plan.decide(0, 1, wire_seq);
                wire_seq += 1;
                if !d.drop {
                    copies.push(link_seq);
                    if d.duplicate {
                        copies.push(link_seq);
                    }
                    delivered = true;
                    break; // the ack stops further retransmission
                }
            }
            if !delivered {
                lost += 1;
            }
        }
        // Adversarial reorder (Fisher–Yates under a seeded stream).
        let mut rng = SplitMix64::new(shuffle_seed);
        for i in (1..copies.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            copies.swap(i, j);
        }
        let mut tracker = SeqTracker::default();
        let fresh = copies.iter().filter(|&&s| tracker.note(s)).count();
        prop_assert_eq!(fresh, n - lost, "each surviving message surfaces exactly once");
        // A replay of the whole stream surfaces nothing new.
        prop_assert!(copies.iter().all(|&s| !tracker.note(s)), "double count on replay");
    }

    /// No early termination at the detector level: a strict detector with
    /// any unacknowledged send — e.g. one lingering in a retry queue —
    /// must refuse to enter the reduction wave.
    #[test]
    fn detector_never_ready_with_outstanding_sends(k in 1usize..30, acked in 0usize..30) {
        let acked = acked.min(k);
        let mut d = EpochDetector::new(true);
        for _ in 0..k {
            let _ = d.on_send();
        }
        for _ in 0..acked {
            d.on_delivered();
        }
        if acked < k {
            prop_assert!(!d.ready(), "ready with {} unacked sends", k - acked);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential detector check: a random bounded message trace, fully
// drained, must yield the *same* verdict from every detector family —
// strict epoch and loose epoch terminate in one verdict wave, Mattern's
// four-counter in two, the centralized home after one report round, and
// the barrier detector is locally done everywhere. A divergence is
// delta-debugged down to a minimal message set before reporting (the
// vendored proptest shim does no automatic shrinking).
// ---------------------------------------------------------------------------

/// One spawned message of the differential trace: `(from, to, parent)`.
/// A child's send only becomes enabled once its parent has executed (the
/// transitive function-shipping structure of the paper's finish).
type DiffMsg = (usize, usize, Option<usize>);

/// A differential test case: the message forest plus the schedule seed
/// that fixes the interleaving. `drop_exec` injects a trace corruption
/// (that message's completion never happens) to exercise the shrinker.
#[derive(Debug, Clone)]
struct DiffCase {
    images: usize,
    msgs: Vec<DiffMsg>,
    seed: u64,
    drop_exec: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiffStep {
    Send(usize),
    Deliver(usize),
    Ack(usize),
    Exec(usize),
}

/// Closes `alive` under the spawn structure: a message stays only if its
/// whole ancestor chain is alive and no ancestor has its exec dropped
/// (a child of an unexeced parent is never sent).
fn diff_close_inner(msgs: &[DiffMsg], alive: &[usize], drop_exec: Option<usize>) -> Vec<usize> {
    let mut ok = vec![false; msgs.len()];
    for &i in alive {
        let sendable = match msgs[i].2 {
            None => true,
            Some(p) => ok[p] && drop_exec != Some(p),
        };
        // Parents precede children by construction, so one forward pass
        // settles the chain.
        if sendable {
            ok[i] = true;
        }
    }
    (0..msgs.len()).filter(|&i| ok[i]).collect()
}

/// Builds one valid interleaving of the alive messages' protocol steps
/// under a seeded random scheduler: send ≺ deliver ≺ {ack, exec}, and a
/// child's send waits for its parent's exec.
fn diff_linearize(case: &DiffCase, alive: &[usize]) -> Vec<DiffStep> {
    let mut rng = SplitMix64::new(case.seed);
    let mut done = vec![[false; 4]; case.msgs.len()]; // send/deliver/ack/exec
    let total: usize = alive.iter().map(|&i| if case.drop_exec == Some(i) { 3 } else { 4 }).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut enabled = Vec::new();
        for &i in alive {
            if !done[i][0] {
                if case.msgs[i].2.is_none_or(|p| done[p][3]) {
                    enabled.push(DiffStep::Send(i));
                }
            } else if !done[i][1] {
                enabled.push(DiffStep::Deliver(i));
            } else {
                if !done[i][2] {
                    enabled.push(DiffStep::Ack(i));
                }
                if !done[i][3] && case.drop_exec != Some(i) {
                    enabled.push(DiffStep::Exec(i));
                }
            }
        }
        let pick = enabled[rng.next_below(enabled.len() as u64) as usize];
        match pick {
            DiffStep::Send(i) => done[i][0] = true,
            DiffStep::Deliver(i) => done[i][1] = true,
            DiffStep::Ack(i) => done[i][2] = true,
            DiffStep::Exec(i) => done[i][3] = true,
        }
        out.push(pick);
    }
    out
}

/// Replays the trace through a fresh wave-detector bank and runs
/// synchronous verdict waves; returns the wave the bank unanimously
/// terminated in, or an error describing the divergence.
fn diff_wave_verdict<D: WaveDetector>(
    images: usize,
    msgs: &[DiffMsg],
    trace: &[DiffStep],
    fresh: impl Fn() -> D,
) -> Result<usize, String> {
    use caf_core::termination::WaveDecision;
    let mut bank: Vec<D> = (0..images).map(|_| fresh()).collect();
    let mut tags: Vec<Option<u32>> = vec![None; msgs.len()];
    for step in trace {
        match *step {
            DiffStep::Send(i) => tags[i] = Some(bank[msgs[i].0].on_send()),
            DiffStep::Deliver(i) => bank[msgs[i].1].on_receive(),
            DiffStep::Ack(i) => bank[msgs[i].0].on_delivered(),
            DiffStep::Exec(i) => bank[msgs[i].1].on_complete(tags[i].unwrap()),
        }
    }
    for wave in 1..=3usize {
        if let Some(i) = (0..images).find(|&i| !bank[i].ready()) {
            return Err(format!("image {i} not ready for verdict wave {wave}"));
        }
        let mut sum = [0i64; 2];
        for d in bank.iter_mut() {
            let c = d.enter_wave();
            sum[0] += c[0];
            sum[1] += c[1];
        }
        let decisions: Vec<WaveDecision> = bank.iter_mut().map(|d| d.exit_wave(sum)).collect();
        if decisions.contains(&WaveDecision::Terminated) {
            return if decisions.iter().all(|d| *d == WaveDecision::Terminated) {
                Ok(wave)
            } else {
                Err(format!("split verdict in wave {wave}: {decisions:?}"))
            };
        }
    }
    Err("no termination within 3 verdict waves".into())
}

/// Runs every detector family over the alive subset of the case and
/// returns the first divergence from the expected identical verdict.
fn diff_divergence(case: &DiffCase, alive: &[usize]) -> Option<String> {
    use caf_core::ids::ImageId;
    use caf_core::termination::{BarrierDetector, CentralizedDetector, CentralizedHome};
    let trace = diff_linearize(case, alive);
    let msgs = &case.msgs;
    let n = case.images;
    for (name, expect, run) in [("epoch-strict", 1usize, true), ("epoch-loose", 1, false)] {
        match diff_wave_verdict(n, msgs, &trace, || EpochDetector::new(run)) {
            Ok(w) if w == expect => {}
            Ok(w) => return Some(format!("{name}: terminated in wave {w}, expected {expect}")),
            Err(e) => return Some(format!("{name}: {e}")),
        }
    }
    match diff_wave_verdict(n, msgs, &trace, FourCounterDetector::new) {
        Ok(2) => {}
        Ok(w) => return Some(format!("four-counter: terminated in wave {w}, expected 2")),
        Err(e) => return Some(format!("four-counter: {e}")),
    }
    let mut home = CentralizedHome::new(n);
    let mut workers: Vec<CentralizedDetector> =
        (0..n).map(|i| CentralizedDetector::new(ImageId(i), n)).collect();
    for step in &trace {
        match *step {
            DiffStep::Send(i) => workers[msgs[i].0].on_spawn(ImageId(msgs[i].1)),
            DiffStep::Deliver(i) => workers[msgs[i].1].on_activity_start(),
            DiffStep::Exec(i) => workers[msgs[i].1].on_activity_complete(),
            DiffStep::Ack(_) => {}
        }
    }
    let mut done = false;
    for (i, w) in workers.iter_mut().enumerate() {
        if !w.quiescent() {
            return Some(format!("centralized: worker {i} not quiescent on drained trace"));
        }
        if let Some(r) = w.take_report() {
            done = home.ingest(&r);
        }
    }
    if !done {
        return Some("centralized: home withheld termination after a full report round".into());
    }
    let mut barrier: Vec<BarrierDetector> = (0..n).map(|_| BarrierDetector::new()).collect();
    for step in &trace {
        match *step {
            DiffStep::Send(i) => {
                barrier[msgs[i].0].on_send();
            }
            DiffStep::Deliver(i) => barrier[msgs[i].1].on_receive(),
            DiffStep::Ack(i) => barrier[msgs[i].0].on_delivered(),
            DiffStep::Exec(i) => barrier[msgs[i].1].on_complete(0),
        }
    }
    if let Some(i) = (0..n).find(|&i| !barrier[i].locally_done()) {
        return Some(format!("barrier: image {i} not locally done on a terminated trace"));
    }
    None
}

/// Manual ddmin over the message set: the smallest alive subset (closed
/// under the spawn structure) that still diverges.
fn diff_minimize(case: &DiffCase) -> Vec<usize> {
    let mut alive = diff_close(case, &(0..case.msgs.len()).collect::<Vec<_>>());
    let mut chunk = alive.len().div_ceil(2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < alive.len() {
            let candidate: Vec<usize> = alive
                .iter()
                .enumerate()
                .filter(|(k, _)| *k < i || *k >= i + chunk)
                .map(|(_, &m)| m)
                .collect();
            let candidate = diff_close(case, &candidate);
            if (!candidate.is_empty() || case.drop_exec.is_none())
                && diff_divergence(case, &candidate).is_some()
            {
                alive = candidate;
                progressed = true;
                continue;
            }
            i += chunk;
        }
        if chunk == 1 && !progressed {
            return alive;
        }
        chunk = (chunk / 2).max(1);
    }
}

fn diff_close(case: &DiffCase, alive: &[usize]) -> Vec<usize> {
    diff_close_inner(&case.msgs, alive, case.drop_exec)
}

/// Strategy for a bounded random message forest over `images` images:
/// each message names a sender, a target, and optionally a parent among
/// the earlier messages (its sender is then forced to the parent's
/// target, as a real shipped function would).
fn diff_case(images: usize) -> impl Strategy<Value = DiffCase> {
    (prop::collection::vec((0..images, 0..images, any::<u64>()), 0..7), any::<u64>()).prop_map(
        move |(raw, seed)| {
            let mut msgs: Vec<DiffMsg> = Vec::with_capacity(raw.len());
            for (i, (from, to, link)) in raw.into_iter().enumerate() {
                let parent = (i > 0 && link % 3 == 0).then(|| (link / 3) as usize % i);
                let from = parent.map_or(from, |p| msgs[p].1);
                msgs.push((from, to, parent));
            }
            DiffCase { images, msgs, seed, drop_exec: None }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All five detector families agree on every drained random trace.
    /// On a divergence the failing case is first delta-debugged to a
    /// minimal message set, so the panic message names the smallest
    /// reproducing forest.
    #[test]
    fn all_detector_families_agree_on_random_traces(case in diff_case(4)) {
        let alive = diff_close(&case, &(0..case.msgs.len()).collect::<Vec<_>>());
        if let Some(divergence) = diff_divergence(&case, &alive) {
            let minimal = diff_minimize(&case);
            let forest: Vec<DiffMsg> = minimal.iter().map(|&i| case.msgs[i]).collect();
            let detail = diff_divergence(&case, &minimal).unwrap_or(divergence);
            prop_assert!(
                false,
                "detector families diverged: {detail}\n  minimal forest ({} of {} msgs): \
                 {forest:?}\n  seed {:#x}",
                minimal.len(),
                case.msgs.len(),
                case.seed
            );
        }
    }
}

#[test]
fn diff_shrinker_reduces_a_corrupted_trace_to_one_message() {
    // Corrupt message 2 of a five-message forest (its completion never
    // happens): every family must flag the trace, and ddmin must strip
    // the four healthy messages, leaving exactly the corrupted one.
    let case = DiffCase {
        images: 4,
        msgs: vec![(0, 1, None), (1, 2, Some(0)), (0, 3, None), (3, 0, Some(2)), (2, 2, None)],
        seed: 0xca_fe,
        drop_exec: Some(2),
    };
    let all = diff_close(&case, &(0..case.msgs.len()).collect::<Vec<_>>());
    assert!(diff_divergence(&case, &all).is_some(), "corrupted trace must diverge");
    let minimal = diff_minimize(&case);
    assert_eq!(minimal, vec![2], "ddmin must isolate the corrupted message");
    assert!(diff_divergence(&case, &minimal).is_some());
}

#[test]
fn diff_clean_forest_has_no_divergence_under_many_schedules() {
    // A fixed transitive forest under 64 different interleavings: the
    // deterministic counterpart of the property above.
    for seed in 0..64u64 {
        let case = DiffCase {
            images: 3,
            msgs: vec![(0, 1, None), (1, 2, Some(0)), (2, 0, Some(1)), (0, 2, None)],
            seed,
            drop_exec: None,
        };
        let alive = diff_close(&case, &(0..case.msgs.len()).collect::<Vec<_>>());
        assert_eq!(diff_divergence(&case, &alive), None, "seed {seed}");
    }
}

/// Strategy for a random abstract program statement.
fn arb_stmt() -> impl Strategy<Value = Stmt> {
    use caf_core::ids::{EventId, ImageId};
    let access =
        (any::<bool>(), any::<bool>()).prop_map(|(reads, writes)| LocalAccess { reads, writes });
    let pass = (0usize..4).prop_map(|i| [Pass::None, Pass::Reads, Pass::Writes, Pass::Any][i]);
    prop_oneof![
        (access, any::<bool>()).prop_map(|(access, implicit)| Stmt::Async { access, implicit }),
        (pass.clone(), pass).prop_map(|(d, u)| Stmt::Cofence(CofenceSpec::new(d, u))),
        (0u64..3).prop_map(|s| Stmt::Notify(EventId { owner: ImageId(0), slot: s })),
        (0u64..3).prop_map(|s| Stmt::Wait(EventId { owner: ImageId(0), slot: s })),
        Just(Stmt::FinishEnd),
    ]
}

// ---------------------------------------------------------------------------
// Fail-stop crashes: the centralized home never terminates without a dead
// worker's report. (The wave families' crash sweeps run on caf-check's
// world.)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Centralized (X10-style) detection: a dead worker's missing vector
    /// report must keep the home from declaring termination, and poison
    /// must give the waiting images a verdict to abort on.
    #[test]
    fn centralized_home_poison_gives_a_verdict(
        n in 2usize..6,
        spawns in prop::collection::vec((0usize..6, 0usize..6), 0..12),
        victim_seed in any::<u64>(),
    ) {
        use caf_core::ids::ImageId;
        use caf_core::termination::{CentralizedDetector, CentralizedHome};
        let victim = (victim_seed % n as u64) as usize;
        let mut home = CentralizedHome::new(n);
        let mut workers: Vec<CentralizedDetector> =
            (0..n).map(|i| CentralizedDetector::new(ImageId(i), n)).collect();
        for (from, to) in spawns {
            workers[from % n].on_spawn(ImageId(to % n));
        }
        // The victim dies before reporting; survivors all report.
        for (i, w) in workers.iter_mut().enumerate() {
            if i == victim {
                continue;
            }
            if let Some(r) = w.take_report() {
                home.ingest(&r);
            }
        }
        prop_assert!(!home.terminated(), "victim never reported, yet home terminated");
        home.poison(victim);
        prop_assert!(!home.terminated());
        prop_assert_eq!(home.poisoned_by(), Some(victim));
    }
}

proptest! {
    /// The posthumous filter composed with sequence dedup: while the
    /// peer lives, `SeqTracker` restores exactly-once over any
    /// interleaving of fresh copies and duplicates; once the peer is
    /// confirmed dead at incarnation `k`, *no* message stamped `≤ k`
    /// gets past the incarnation check — regardless of sequence number —
    /// while a restarted incarnation `k+1` is admitted again.
    #[test]
    fn posthumous_messages_never_survive_the_incarnation_check(
        pre in prop::collection::vec(0u64..64, 0..40),
        post in prop::collection::vec(0u64..64, 1..40),
        death_inc in 1u64..4,
    ) {
        use caf_core::failure::{FailureDetectorState, FailureParams};
        use std::collections::HashSet;
        let peer = 7usize;
        let mut det = FailureDetectorState::new(FailureParams::default());
        let mut tracker = SeqTracker::default();
        let now = Duration::from_millis(1);
        det.monitor(peer, now);
        let mut fresh = HashSet::new();
        for &seq in &pre {
            prop_assert!(det.accepts(peer, death_inc), "live peer must be accepted");
            det.on_life_sign(peer, death_inc, now);
            if tracker.note(seq) {
                prop_assert!(fresh.insert(seq), "SeqTracker double-delivered {seq}");
            }
        }
        det.mark_dead(peer, death_inc, now);
        for &seq in &post {
            // Every copy stamped at or below the dead incarnation is
            // discarded before the tracker ever sees it — including
            // sequence numbers that were never delivered pre-death.
            for inc in 0..=death_inc {
                prop_assert!(
                    !det.accepts(peer, inc),
                    "posthumous seq {seq} at incarnation {inc} accepted"
                );
            }
        }
        // Unmonitored bystanders are unaffected by the death.
        prop_assert!(det.accepts(peer + 1, 1));
        // A restart under the next incarnation is admitted, and its
        // stream starts over with a fresh tracker: exactly-once again.
        prop_assert!(det.accepts(peer, death_inc + 1), "restarted incarnation rejected");
        let mut restarted = SeqTracker::default();
        let unique: HashSet<u64> = post.iter().copied().collect();
        let delivered = post.iter().filter(|&&s| restarted.note(s)).count();
        prop_assert_eq!(delivered, unique.len(), "restart stream not exactly-once");
    }
}
