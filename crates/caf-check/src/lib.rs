//! `caf-check` — deterministic schedule-exploration model checker for the
//! finish/cofence protocol of *Managing Asynchronous Operations in
//! Coarray Fortran 2.0*.
//!
//! The checker drives the **pure protocol models** from `caf-core` — the
//! strict and loose epoch and four-counter termination detectors, the
//! strict one again behind the runtime's per-destination send buffers
//! (the `aggregated` family), and the cofence pass algebra — through
//! *every* interleaving of bounded scenarios: `p` images, a bounded tree
//! of spawned functions, optionally one fail-stop crash. A sleep-set partial-order reduction over a
//! vector-clock happens-before layer keeps `p ≤ 5`, depth `≤ 4`
//! tractable. The unsound barrier strawman of Fig. 5 is one more world
//! family, explored on demand but kept out of `suite`; the centralized
//! (X10-style) detector runs only in the differential replay.
//!
//! Three oracle classes run during exploration:
//!
//! * **safety** — no detector reports termination while any message is
//!   outstanding (`sent − completed > 0` somewhere) or after being told
//!   about a crash; no cofence admits a pass-class it was fenced against;
//! * **liveness** — every fair schedule of the strict epoch algorithm
//!   terminates within `L + 1` waves (the paper's Theorem 1 as an
//!   executable assertion), plus deadlock and frozen-sum livelock
//!   detection for the other families;
//! * **differential** — all detector families agree on the verdict for
//!   the same event trace, and a [`caf_des`] replay of the same schedule
//!   reproduces the identical counter history.
//!
//! Counterexamples are minimized by two-level delta debugging
//! ([`shrink`]) and emitted as self-contained replay files ([`replay`])
//! that `caf-check replay <file>` and the fixture regression tests
//! consume. [`capture`] closes the loop with the real runtime: traces
//! recorded by `caf-runtime` through `caf-core`'s `TraceRecorder` are
//! validated against the same detector models. [`plan_bridge`] closes a
//! second loop, with the static analyzer: every `caf-lint` race or
//! deadlock diagnostic is checked for realizability by exhaustive
//! exploration of the plan's dynamic semantics (`caf-check plan-diff`).
//! [`timed`] plays the same world on one seeded timed schedule instead of
//! all of them: the Fig. 5 and detector-ablation figures and the
//! termination proptests run on it. [`link_check`] explores the reliable
//! link machine both substrates share, over a wire that drops,
//! duplicates and reorders.

pub mod capture;
pub mod cofence_check;
pub mod diff;
pub mod explore;
pub mod link_check;
pub mod mutation;
pub mod plan_bridge;
pub mod replay;
pub mod scenario;
pub mod shrink;
pub mod timed;
pub mod vc;
pub mod world;

pub use explore::{explore, Counterexample, ExploreConfig, ExploreStats};
pub use mutation::{Family, Mutation};
pub use plan_bridge::{check_plan, explore_plan, PlanAgreement, PlanVerdict};
pub use replay::Replay;
pub use scenario::{scenarios, Scenario};
pub use shrink::shrink;
pub use world::{TKey, Violation, ViolationKind, World};
