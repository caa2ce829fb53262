//! # caf-core
//!
//! Substrate-independent logic for the Coarray Fortran 2.0
//! asynchronous-operations reproduction (Yang, Murthy & Mellor-Crummey,
//! IPDPS 2013):
//!
//! * [`ids`] — image/team/finish/event identifiers;
//! * [`config`] — the interconnect cost model and runtime configuration;
//! * [`fault`] — seeded deterministic fault injection (drops, duplicates,
//!   delay spikes, stragglers, fail-stop crashes), the retry policy that
//!   answers it, and the reliable-link machine that applies that policy;
//! * [`failure`] — heartbeat-based fail-stop failure detection:
//!   suspect/confirm transitions, incarnation numbers, posthumous-message
//!   filtering;
//! * [`topology`] — teams, `team_split`, binomial trees, dissemination
//!   rounds, hypercube lifeline neighbours;
//! * [`termination`] — the paper's detection algorithm (wave-numbered
//!   epoch counters, [`termination::EpochDetector`]) plus the baselines
//!   it is compared against (`caf-check` exercises them, exhaustively and
//!   on seeded timed schedules);
//! * [`cofence`] — the directional fence algebra;
//! * [`model`] — a checkable rendering of the relaxed memory model;
//! * [`trace`] — protocol trace capture, bridging real executions and the
//!   schedule-exploration model checker (`caf-check`);
//! * [`rng`] — a tiny deterministic PRNG shared by the timed scheduler,
//!   the DES, and workloads.
//!
//! Both execution substrates — the threaded PGAS runtime (`caf-runtime`)
//! and the discrete-event simulator (`caf-sim`) — drive exactly this code,
//! which is how the repository can both *run* the constructs for real and
//! reproduce the paper's 4K–32K-core figures on one machine.

#![warn(missing_docs)]

pub mod cofence;
pub mod config;
pub mod failure;
pub mod fault;
pub mod ids;
pub mod model;
pub mod rng;
pub mod termination;
pub mod topology;
pub mod trace;

pub use cofence::{CofenceSpec, LocalAccess, Pass};
pub use config::{CommMode, NetworkModel, RuntimeConfig};
pub use failure::{FailureDetectorState, FailureEvent, FailureParams, PeerHealth};
pub use fault::{
    CrashFault, CumAck, FaultDecision, FaultPlan, RetryPolicy, SeqTracker, StallWindow,
};
pub use ids::{EventId, FinishId, ImageId, TeamId, TeamRank};
pub use termination::EpochCounters;
pub use topology::{BinomialTree, Team};
pub use trace::{TraceEvent, TraceRecorder};
